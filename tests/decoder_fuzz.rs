//! No decoder panics on hostile input.
//!
//! The JSON layer (`core::codec::json` plus the typed decoders on top of
//! it) is hand-rolled, so nothing upstream has fuzzed it. These properties
//! seed from every checked-in golden report plus one grid and one job spec,
//! mutate the text (truncate it, delete a byte, or overwrite a byte with a
//! JSON-significant character) and feed the result to the parser and to
//! all three document decoders. Each must return `Ok` or
//! `Err`; a panic is a failure that names the mutated document.
//!
//! Run with `cargo test --test decoder_fuzz`.

use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;

use photonic_disagg::core::codec::json;
use photonic_disagg::core::energy::EnergyMode;
use photonic_disagg::core::jobs::JobSpec;
use photonic_disagg::core::sample::SampleConfig;
use photonic_disagg::core::sweep::SweepGrid;
use photonic_disagg::core::SweepReport;
use photonic_disagg::fabric::flexgrid::SpectrumPolicy;
use photonic_disagg::fabric::timeline::ReallocationPolicy;
use photonic_disagg::workloads::timeline::DemandTimeline;
use photonic_disagg::workloads::TrafficPattern;
use proptest::prelude::*;

/// Characters that change a JSON document's structure or a literal's type
/// when they land in the middle of one.
const SIGNIFICANT: &[u8] = b"{}[]:,\"\\-+.eE019ntfu ";

/// A grid that exercises every axis the grid codec writes.
fn seed_grid() -> SweepGrid {
    SweepGrid::named("fuzz \"seed\"")
        .mcm_counts([16, 24])
        .gbps_per_wavelength([12.5, 25.0])
        .patterns([
            TrafficPattern::Permutation { demand_gbps: 200.0 },
            TrafficPattern::AllToAll { demand_gbps: 8.0 },
        ])
        .timelines([DemandTimeline::shifting_hotspot(2, 400.0, 3, 2, 5)])
        .realloc_policies([
            ReallocationPolicy::Static,
            ReallocationPolicy::Hysteresis {
                min_satisfaction: 0.9,
            },
        ])
        .spectrum_policies([SpectrumPolicy::default()])
        .energy_modes([EnergyMode::AlwaysOn, EnergyMode::UtilizationScaled])
        .replicates(3)
        .base_seed(u64::MAX)
}

/// A job spec with every optional field present.
fn seed_job() -> JobSpec {
    let mut spec = JobSpec::new(seed_grid());
    spec.threads = Some(2);
    spec.rows_per_shard = 7;
    spec.sample = Some(SampleConfig::default());
    spec.reuse = false;
    spec
}

/// The nine golden reports (trailing newline stripped), then the grid and
/// job seeds.
fn seeds() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut paths: Vec<_> = fs::read_dir(&dir)
        .expect("tests/golden exists")
        .map(|entry| entry.expect("readable golden dir").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 9, "golden fixtures under {}", dir.display());
    let mut seeds: Vec<String> = paths
        .iter()
        .map(|path| {
            let text = fs::read_to_string(path).expect("readable golden");
            text.trim_end_matches('\n').to_string()
        })
        .collect();
    seeds.push(seed_grid().to_json());
    seeds.push(seed_job().to_json());
    seeds
}

/// A decoder under test; it drops its result, since only a panic fails.
type Decoder = fn(&str);

/// The parser and every document decoder built on it.
const DECODERS: [(&str, Decoder); 4] = [
    ("codec::json::parse", |t| drop(json::parse(t))),
    ("SweepReport::from_json", |t| {
        drop(SweepReport::from_json(t))
    }),
    ("SweepGrid::from_json", |t| drop(SweepGrid::from_json(t))),
    ("JobSpec::from_json", |t| drop(JobSpec::from_json(t))),
];

/// Run every decoder on `text`; `Err` names the one that panicked.
fn decode_all(text: &str) -> Result<(), String> {
    for (name, decode) in DECODERS {
        if panic::catch_unwind(AssertUnwindSafe(|| decode(text))).is_err() {
            return Err(format!("{name} panicked on {text:?}"));
        }
    }
    Ok(())
}

/// Apply mutation `kind` at relative position `at` (in `[0, 1)`).
fn mutate(seed: &str, kind: u8, at: f64, byte: u8) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    let i = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
    match kind {
        0 => bytes.truncate(i),
        1 => {
            bytes.remove(i);
        }
        _ => bytes[i] = byte,
    }
    // A cut through a multi-byte character cannot reach a `&str` decoder;
    // replacing it keeps the mutation instead of discarding the case.
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn unmutated_seeds_round_trip_byte_identically() {
    let seeds = seeds();
    let (reports, rest) = seeds.split_at(9);
    for text in reports {
        let report = SweepReport::from_json(text).expect("golden decodes");
        assert_eq!(&report.to_json(), text);
    }
    let grid = SweepGrid::from_json(&rest[0]).expect("grid seed decodes");
    assert_eq!(grid, seed_grid());
    assert_eq!(grid.to_json(), rest[0]);
    let job = JobSpec::from_json(&rest[1]).expect("job seed decodes");
    assert_eq!(job.to_json(), rest[1]);
}

#[test]
fn duplicate_keys_are_rejected_by_every_decoder() {
    let job =
        JobSpec::from_json(r#"{"grid":{"mcm_counts":[16]},"rows_per_shard":3,"rows_per_shard":7}"#)
            .unwrap_err();
    assert!(
        job.contains(r#"duplicate key "rows_per_shard" at byte"#),
        "{job}"
    );
    let grid = SweepGrid::from_json(r#"{"mcm_counts":[16],"mcm_counts":[24,32]}"#).unwrap_err();
    assert!(grid.contains(r#"duplicate key "mcm_counts""#), "{grid}");
    let report = SweepGrid::named("a").mcm_counts([16]).run().to_json();
    let doubled = report.replacen(r#""name":"a""#, r#""name":"a","name":"b""#, 1);
    let err = SweepReport::from_json(&doubled).unwrap_err();
    assert!(err.contains(r#"duplicate key "name""#), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// Truncation, deletion and overwrite mutations of every seed decode
    /// to `Ok` or `Err` in every decoder, never a panic.
    #[test]
    fn mutated_seeds_never_panic_a_decoder(
        seed in 0usize..11,
        kind in 0u8..3,
        at in 0.0f64..1.0,
        byte in 0usize..SIGNIFICANT.len(),
    ) {
        thread_local!(static SEEDS: Vec<String> = seeds());
        let text = SEEDS.with(|seeds| mutate(&seeds[seed], kind, at, SIGNIFICANT[byte]));
        decode_all(&text)?;
    }
}
