//! Integration tests for the real parallel execution layer, driven through
//! the umbrella crate the way a downstream user would: the engine's
//! `parallel_map` primitive, the lazy `ScenarioIter` streaming path, and
//! the determinism contract across thread counts.
//!
//! The million-scenario test is ignored in debug builds (too slow
//! unoptimized) and enforced by the release-mode CI step, like the
//! CPU-experiment golden tests.

use photonic_disagg::core::sweep::{parallel_map, StreamConfig, SweepGrid};
use photonic_disagg::fabric::FabricKind;
use photonic_disagg::workloads::TrafficPattern;

fn reference_grid() -> SweepGrid {
    SweepGrid::named("par")
        .mcm_counts([24, 48])
        .fabric_kinds([FabricKind::ParallelAwgrs, FabricKind::WaveSelective])
        .patterns([
            TrafficPattern::Permutation { demand_gbps: 400.0 },
            TrafficPattern::HotSpot {
                hot_mcms: 2,
                demand_gbps: 300.0,
            },
        ])
        .replicates(3)
}

#[test]
fn grid_json_is_byte_identical_at_1_2_and_8_threads() {
    let grid = reference_grid();
    let reference = rayon::with_max_threads(1, || grid.run().to_json());
    assert_eq!(
        reference,
        rayon::with_max_threads(1, || grid.run()).to_json()
    );
    for threads in [2, 8] {
        let json = rayon::with_max_threads(threads, || grid.run().to_json());
        assert_eq!(json, reference, "output drifted at {threads} threads");
    }
}

#[test]
fn parallel_map_is_order_preserving_under_load_imbalance() {
    // Wildly uneven per-item cost is exactly what chunk stealing must
    // handle without reordering results.
    let items: Vec<u64> = (0..500).collect();
    let expected: Vec<u64> = items.iter().map(|&x| (0..x % 97).sum::<u64>()).collect();
    for threads in [2, 8] {
        let got = rayon::with_max_threads(threads, || {
            parallel_map(&items, |&x| (0..x % 97).sum::<u64>())
        });
        assert_eq!(got, expected);
    }
}

#[test]
fn nested_parallel_maps_resolve_through_the_engine() {
    let outer: Vec<u32> = (0..8).collect();
    let got = rayon::with_max_threads(4, || {
        parallel_map(&outer, |&i| {
            let inner: Vec<u32> = (0..20).collect();
            parallel_map(&inner, |&j| i * j).iter().sum::<u32>()
        })
    });
    let expected: Vec<u32> = (0..8).map(|i| (0..20).map(|j| i * j).sum()).collect();
    assert_eq!(got, expected);
}

#[test]
fn streaming_matches_materialized_through_umbrella() {
    let grid = reference_grid();
    let materialized = grid.run();
    let streamed = grid.run_streaming(&StreamConfig {
        batch_size: 7,
        ..StreamConfig::default()
    });
    assert_eq!(streamed.to_json(), materialized.to_json());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "executes 1M scenarios; too slow unoptimized — covered by the release-mode CI step"
)]
fn million_scenario_grid_streams_without_materializing() {
    // Replicate-inflated to one million rows on a tiny rack: the lazy
    // ScenarioIter decodes each row O(1) from its index, the runner holds
    // one 4096-scenario batch at a time, and the report retains only the
    // capped row prefix — a Vec<Scenario> of the full grid never exists.
    let grid = SweepGrid::named("mega")
        .mcm_counts([4])
        .patterns([TrafficPattern::Uniform {
            flows_per_mcm: 1,
            demand_gbps: 50.0,
        }])
        .replicates(1_000_000);
    assert_eq!(grid.scenario_count(), 1_000_000);
    let report = grid.run_streaming(&StreamConfig::with_row_cap(8));
    assert_eq!(report.rows.len(), 8);
    assert_eq!(report.summary_metric("scenarios"), Some(1_000_000.0));
    assert_eq!(report.summary_metric("fabrics_built"), Some(1.0));
    let sat = report.summary_metric("mean_satisfaction").unwrap();
    assert!((0.0..=1.0 + 1e-9).contains(&sat), "mean satisfaction {sat}");

    // Subsample equivalence with the materialized path: replicate is the
    // innermost axis and seeds are position-independent, so the first 8
    // rows of the million-row grid are exactly the 8 rows of the same grid
    // truncated to 8 replicates — which is small enough to materialize.
    let subsample = grid.clone().replicates(8).run();
    assert_eq!(report.rows, subsample.rows);
}
