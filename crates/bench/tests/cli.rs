//! The grid binaries parse axis values with the same parsers as the JSON
//! grid decoder: a grid spelled as flags runs to the same bytes as the
//! grid spelled as a job spec, and a spelling neither accepts is a usage
//! error (exit 2, nothing on stdout).

use std::process::{Command, Output};

use disagg_core::sweep::SweepGrid;

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {binary}: {e}"))
}

#[test]
fn sweep_flags_match_the_equivalent_json_grid() {
    let out = run(
        env!("CARGO_BIN_EXE_sweep"),
        &[
            "--mcms",
            "16",
            "--fabric",
            "awgr,wave",
            "--pattern",
            "permutation,hotspot4",
            "--energy",
            "always,util",
            "--json",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let grid = SweepGrid::from_json(
        r#"{"mcm_counts":[16],"fabric_kinds":["awgr","wave"],
            "patterns":[{"kind":"permutation","demand_gbps":100},
                        {"kind":"hotspot","hot_mcms":4,"demand_gbps":100}],
            "energy_modes":["always","util"]}"#,
    )
    .expect("grid spec parses");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        format!("{}\n", grid.run().to_json())
    );
}

#[test]
fn unknown_axis_spellings_are_usage_errors() {
    for (binary, args) in [
        (env!("CARGO_BIN_EXE_timeline"), ["--policy", "hyst7"]),
        (env!("CARGO_BIN_EXE_energy"), ["--mode", "solar"]),
        (env!("CARGO_BIN_EXE_flexgrid"), ["--spectrum", "worstfit"]),
        (env!("CARGO_BIN_EXE_sweep"), ["--fabric", "mesh"]),
    ] {
        let out = run(binary, &args);
        assert_eq!(out.status.code(), Some(2), "{binary} {args:?}");
        assert!(out.stdout.is_empty(), "{binary} {args:?} wrote stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(args[1]), "{binary} {args:?}: {stderr}");
    }
}
