//! Acceptance suite for the energy-accounting layer: the Section VI-C
//! totals reproduced from `EnergyStats`, the determinism contract extended
//! to the energy block, and the reconfiguration-energy tradeoff between
//! wavelength-reallocation policies.

use photonic_disagg::core::energy::{EnergyConfig, EnergyMode};
use photonic_disagg::core::sweep::SweepGrid;
use photonic_disagg::fabric::ReallocationPolicy;
use photonic_disagg::workloads::{DemandTimeline, TrafficPattern};

fn paper_point_grid() -> SweepGrid {
    SweepGrid::named("vi-c").energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
}

#[test]
fn energy_stats_reproduce_section_vi_c_totals() {
    // The paper's headline (Section VI-C): ~11 kW of always-on photonics,
    // ~5% of the rack's compute/memory power — here produced by the sweep
    // engine's energy layer at the default (paper design point) grid.
    let report = paper_point_grid().run();
    let always_on = report
        .energy
        .iter()
        .map(|(_, e)| e)
        .find(|e| e.mode == EnergyMode::AlwaysOn)
        .expect("always-on stats present");
    assert!(
        always_on.watts() > 9_500.0 && always_on.watts() < 11_500.0,
        "photonic power {} W should be ~10-11 kW",
        always_on.watts()
    );
    let pct = always_on.photonic_compute_ratio() * 100.0;
    assert!(pct > 4.0 && pct < 6.0, "overhead {pct}% should be ~5%");
    // Component consistency: total = transceiver + FEC + reconfig + idle.
    assert!(
        (always_on.total_joules()
            - always_on.transceiver_energy_j
            - always_on.fec_energy_j
            - always_on.reconfiguration_energy_j
            - always_on.idle_energy_j)
            .abs()
            < 1e-9
    );
}

#[test]
fn parallel_and_serial_energy_json_are_byte_identical() {
    let grids = [
        paper_point_grid(),
        SweepGrid::named("tl")
            .mcm_counts([16])
            .timelines([
                DemandTimeline::shifting_hotspot(2, 400.0, 3, 2, 5),
                DemandTimeline::hpc_mix(200.0, 2),
            ])
            .realloc_policies([
                ReallocationPolicy::Static,
                ReallocationPolicy::GreedyResteer,
                ReallocationPolicy::Hysteresis {
                    min_satisfaction: 0.9,
                },
            ])
            .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled]),
    ];
    for grid in grids {
        let parallel = grid.run().to_json();
        let serial = rayon::with_max_threads(1, || grid.run()).to_json();
        assert_eq!(parallel, serial);
        // And stable across repeated runs.
        assert_eq!(parallel, grid.run().to_json());
        assert!(parallel.contains("\"energy\":["));
    }
}

#[test]
fn utilization_scaling_never_exceeds_always_on() {
    let report = SweepGrid::named("bound")
        .mcm_counts([16, 32])
        .patterns([
            TrafficPattern::Permutation { demand_gbps: 100.0 },
            TrafficPattern::HotSpot {
                hot_mcms: 2,
                demand_gbps: 2_000.0,
            },
        ])
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
        .run();
    // Rows alternate always-on / util within each grid point.
    for pair in report.rows.chunks(2) {
        let always = pair[0].metric("energy_j").unwrap();
        let util = pair[1].metric("energy_j").unwrap();
        assert!(
            util <= always + 1e-6,
            "util {util} J exceeds always-on {always} J"
        );
        // Same demand on both rows of the pair.
        assert_eq!(
            pair[0].metric("offered_gbps"),
            pair[1].metric("offered_gbps")
        );
    }
}

#[test]
fn reconfiguration_energy_grades_the_policy_tradeoff() {
    // The shifting hot spot from PR 3: greedy re-steers every phase change
    // and pays for it; hysteresis pays less; static pays nothing. Under
    // utilization scaling the energy difference is visible per row.
    let report = SweepGrid::named("tradeoff")
        .mcm_counts([16])
        .timelines([DemandTimeline::shifting_hotspot(2, 400.0, 4, 2, 5)])
        .realloc_policies([
            ReallocationPolicy::Static,
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.9,
            },
            ReallocationPolicy::GreedyResteer,
        ])
        .energy_modes([EnergyMode::UtilizationScaled])
        .run();
    let reconf = |i: usize| report.rows[i].metric("reconfiguration_energy_j").unwrap();
    let events = |i: usize| report.rows[i].metric("reconfigurations").unwrap();
    let sat = |i: usize| report.rows[i].metric("satisfaction").unwrap();
    let (fixed, hyst, greedy) = (0, 1, 2);
    let unit = EnergyConfig::default().reconfiguration_energy_j;
    // Static never pays; greedy pays exactly once per phase change (three
    // boundaries in a four-phase schedule); hysteresis pays per event the
    // timeline recorded, however many its threshold triggered.
    assert_eq!(reconf(fixed), 0.0);
    assert!((reconf(greedy) - 3.0 * unit).abs() < 1e-9);
    assert!((reconf(hyst) - events(hyst) * unit).abs() < 1e-9);
    // The energy buys satisfaction: greedy serves at least as much demand.
    assert!(sat(greedy) >= sat(fixed) - 1e-9);
    // Reconfiguration energy in the row equals the block's figure.
    let (_, greedy_stats) = &report.energy[greedy];
    assert_eq!(reconf(greedy), greedy_stats.reconfiguration_energy_j);
}

#[test]
fn energy_config_knobs_scale_the_accounting() {
    let base = SweepGrid::named("k")
        .mcm_counts([16])
        .timelines([DemandTimeline::shifting_hotspot(2, 400.0, 3, 2, 5)])
        .realloc_policies([ReallocationPolicy::GreedyResteer])
        .energy_modes([EnergyMode::UtilizationScaled]);
    let cheap = base
        .clone()
        .energy_config(EnergyConfig {
            reconfiguration_energy_j: 1.0,
            ..EnergyConfig::default()
        })
        .run();
    let costly = base
        .energy_config(EnergyConfig {
            reconfiguration_energy_j: 100.0,
            ..EnergyConfig::default()
        })
        .run();
    let cheap_reconf = cheap.rows[0].metric("reconfiguration_energy_j").unwrap();
    let costly_reconf = costly.rows[0].metric("reconfiguration_energy_j").unwrap();
    assert!(cheap_reconf > 0.0);
    assert!((costly_reconf - 100.0 * cheap_reconf).abs() < 1e-6);
    // Identical traffic, identical satisfaction — only the energy moved.
    assert_eq!(
        cheap.rows[0].metric("satisfaction"),
        costly.rows[0].metric("satisfaction")
    );
}
