//! The arena flow kernel (`FlowSimulator::run_in` and `run_each_in`)
//! against the independent oracle `FlowSimulator::run`: same aggregates
//! bit for bit, same per-flow allocations in the same order, on random
//! flow lists over every fabric kind, through arenas left dirty by earlier
//! runs of other sizes and other fabrics.

use fabric::flowsim::FlowAllocation;
use fabric::{FabricKind, Flow, FlowArena, FlowSimConfig, FlowSimReport, FlowSimulator};
use fabric::{RackFabric, RackFabricConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

const KINDS: [FabricKind; 3] = [
    FabricKind::ParallelAwgrs,
    FabricKind::WaveSelective,
    FabricKind::Spatial,
];

fn fabric(kind: FabricKind, mcm_count: u32) -> RackFabric {
    RackFabric::new(RackFabricConfig {
        mcm_count,
        ..RackFabricConfig::paper_rack(kind)
    })
}

/// One demand drawn from the full input domain: degenerate values the
/// contract sanitizes, demands that fit the direct wavelengths, and
/// demands far above them that load the indirect pass.
fn demand(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..10) {
        0 => 0.0,
        1 => -rng.gen_range(0.0f64..500.0),
        2 => f64::NAN,
        3 => {
            if rng.gen_bool(0.5) {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            }
        }
        4 | 5 => rng.gen_range(0.0..150.0),
        _ => rng.gen_range(150.0..20_000.0),
    }
}

/// A random flow list over `mcm_count` MCMs: self-flows, repeated pairs,
/// and (when `dense`) a full all-to-all with random demands.
fn flows(rng: &mut StdRng, mcm_count: u32, len: usize, dense: bool) -> Vec<Flow> {
    let mut out: Vec<Flow> = Vec::new();
    if dense {
        for src in 0..mcm_count {
            for dst in 0..mcm_count {
                out.push(Flow::new(src, dst, demand(rng)));
            }
        }
        return out;
    }
    for _ in 0..len {
        let (src, dst) = match rng.gen_range(0u32..6) {
            0 if !out.is_empty() => {
                let prev = out[rng.gen_range(0..out.len())];
                (prev.src, prev.dst)
            }
            1 => {
                let m = rng.gen_range(0..mcm_count);
                (m, m)
            }
            _ => (rng.gen_range(0..mcm_count), rng.gen_range(0..mcm_count)),
        };
        out.push(Flow::new(src, dst, demand(rng)));
    }
    out
}

/// Every aggregate as raw bits, so `-0.0` against `0.0` counts as a
/// difference.
fn aggregate_bits(r: &FlowSimReport) -> [u64; 9] {
    [
        r.offered_gbps.to_bits(),
        r.satisfied_gbps.to_bits(),
        r.fabric_direct_gbps.to_bits(),
        r.fabric_indirect_gbps.to_bits(),
        r.direct_only_fraction.to_bits(),
        r.indirect_fraction.to_bits(),
        r.unsatisfied_fraction.to_bits(),
        r.mean_latency_ns.to_bits(),
        r.satisfaction().to_bits(),
    ]
}

fn allocation_bits(a: &FlowAllocation) -> (u32, u32, [u64; 4]) {
    (
        a.flow.src,
        a.flow.dst,
        [
            a.flow.demand_gbps.to_bits(),
            a.direct_gbps.to_bits(),
            a.indirect_gbps.to_bits(),
            a.latency_ns.to_bits(),
        ],
    )
}

/// Run `flows` through the oracle and both arena entry points on `arena`,
/// and fail on the first difference.
fn check_against_oracle(
    sim: &FlowSimulator<'_>,
    arena: &mut FlowArena,
    flows: &[Flow],
) -> Result<(), String> {
    let oracle = sim.run(flows);
    let want: Vec<_> = oracle.allocations.iter().map(allocation_bits).collect();
    if want.len() != flows.len() {
        return Err(format!("oracle returned {} allocations", want.len()));
    }

    let collected = sim.run_in(arena, flows);
    if aggregate_bits(&collected) != aggregate_bits(&oracle) {
        return Err(format!("run_in aggregates {collected:?} != run {oracle:?}"));
    }
    let got: Vec<_> = collected.allocations.iter().map(allocation_bits).collect();
    if got != want {
        return Err("run_in allocations differ from run".into());
    }
    arena.recycle(collected);

    let mut seen = Vec::with_capacity(flows.len());
    let folded = sim.run_each_in(arena, flows, |a| seen.push(allocation_bits(a)));
    if !folded.allocations.is_empty() {
        return Err("run_each_in returned allocations".into());
    }
    if aggregate_bits(&folded) != aggregate_bits(&oracle) {
        return Err(format!(
            "run_each_in aggregates {folded:?} != run {oracle:?}"
        ));
    }
    if seen != want {
        return Err("run_each_in sink saw different allocations than run".into());
    }
    Ok(())
}

thread_local! {
    /// One arena for every case of the proptest below, so each case starts
    /// from whatever rack size, fabric and board the previous case left.
    static DIRTY: RefCell<FlowArena> = RefCell::new(FlowArena::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn arena_kernel_matches_the_oracle_bit_for_bit(
        mcm_count in 1u32..=64,
        kind in 0usize..3,
        sim_seed in 0u64..u64::MAX,
        flow_seed in 0u64..u64::MAX,
        len in 0usize..80,
        shape in 0u32..8,
    ) {
        let fabric = fabric(KINDS[kind], mcm_count);
        let config = FlowSimConfig { seed: sim_seed, ..FlowSimConfig::default() };
        let sim = FlowSimulator::new(&fabric, config);
        let mut rng = StdRng::seed_from_u64(flow_seed);
        // One case in eight is a dense all-to-all on a small rack.
        let dense = shape == 0 && mcm_count <= 16;
        let flows = flows(&mut rng, mcm_count, len, dense);
        let outcome = DIRTY.with(|arena| {
            check_against_oracle(&sim, &mut arena.borrow_mut(), &flows)
        });
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

#[test]
fn empty_flow_list_keeps_the_negative_zero_sums() {
    // `Iterator::sum::<f64>` of nothing is -0.0; the folded kernel must
    // agree with the oracle on the sign bit.
    for kind in KINDS {
        let fabric = fabric(kind, 8);
        let sim = FlowSimulator::new(&fabric, FlowSimConfig::default());
        let oracle = sim.run(&[]);
        assert_eq!(
            oracle.offered_gbps.to_bits(),
            Vec::<f64>::new().iter().sum::<f64>().to_bits()
        );
        check_against_oracle(&sim, &mut FlowArena::new(), &[]).unwrap();
    }
}

#[test]
fn one_dirty_arena_alternates_fabric_kinds_of_one_size() {
    // Every kind at the same rack size shares the arena's board shape, so
    // the delta-clear path (not the full reset) carries state from an
    // AWGR run into a switch run and back. Indirect-heavy loads make the
    // touched lists long and the direct tables differ between kinds.
    const MCMS: u32 = 48;
    let fabrics: Vec<RackFabric> = KINDS.iter().map(|&k| fabric(k, MCMS)).collect();
    let mut arena = FlowArena::new();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for round in 0..24u64 {
        let fabric = &fabrics[round as usize % fabrics.len()];
        let config = FlowSimConfig {
            seed: round,
            ..FlowSimConfig::default()
        };
        let sim = FlowSimulator::new(fabric, config);
        let load: Vec<Flow> = match round % 4 {
            // Hot destinations far above the direct capacity.
            0 => (0..MCMS)
                .map(|m| Flow::new(m, m % 4, rng.gen_range(1_000.0..30_000.0)))
                .collect(),
            // Sparse, direct-only: exercises the delta-clear branch.
            1 => (0..4).map(|m| Flow::new(m, m + 1, 50.0)).collect(),
            // Random mixed list.
            2 => flows(&mut rng, MCMS, 120, false),
            // Permutation with indirect demand.
            _ => (0..MCMS)
                .map(|m| Flow::new(m, (m * 7 + 3) % MCMS, 2_000.0))
                .collect(),
        };
        if let Err(e) = check_against_oracle(&sim, &mut arena, &load) {
            panic!("round {round} on {:?}: {e}", fabric.config().kind);
        }
    }
}
