//! # bench
//!
//! The paper-artifact harness: one binary per table/figure of the paper's
//! evaluation plus Criterion benches over the underlying models. Each
//! artifact is a standalone binary in `src/bin/` so that
//! `cargo run --bin <artifact>` regenerates exactly one paper result; the
//! library holds only [`cli`], the flag-value parsing the grid binaries
//! share.
//!
//! | binary | paper artifact | engine route |
//! |---|---|---|
//! | `table1` | Table I — WDM link technologies | [`disagg_core::sweep::artifacts::table1`] |
//! | `table2` | Table II — high-radix photonic switches | `disagg_core::rack_analysis` |
//! | `table3` | Table III — chips/MCM, MCMs/rack | [`disagg_core::sweep::artifacts::table3`] |
//! | `table4` | Table IV — switch candidates | `disagg_core::rack_analysis` |
//! | `fig5_connectivity` | Fig. 5 — fabric connectivity guarantees | `fabric::RackFabric::report` |
//! | `fig6` | Fig. 6 — CPU slowdown by suite at +35 ns | `disagg_core::cpu_experiments` |
//! | `fig7` | Fig. 7 — slowdown vs. LLC miss rate | [`disagg_core::sweep::artifacts::fig7`] |
//! | `fig8` | Fig. 8 — CPU 25/30/35 ns sensitivity | `disagg_core::cpu_experiments` |
//! | `fig9` | Fig. 9 — GPU slowdown 25/30/35 ns | [`disagg_core::sweep::artifacts::fig9`] |
//! | `fig10` | Fig. 10 — GPU slowdown correlations | [`disagg_core::sweep::artifacts::fig10`] |
//! | `fig11` | Fig. 11 — CPU vs GPU on shared Rodinia | [`disagg_core::sweep::artifacts::fig11`] |
//! | `fig12` | Fig. 12 — photonic vs best electronic | `disagg_core` experiments |
//! | `power_overhead` | Sec. VI-C — photonic power overhead | [`disagg_core::sweep::artifacts::power_overhead`] |
//! | `sweep` | user-defined scenario grids | [`disagg_core::sweep::SweepGrid`] |
//! | `timeline` | temporal steering sweeps | [`disagg_core::sweep::SweepGrid::timelines`] |
//! | `energy` | energy-aware sweeps + policy tradeoff | [`disagg_core::energy`] |
//! | `flexgrid` | flex-grid spectrum-policy sweeps | [`disagg_core::sweep::SweepGrid::spectrum_policies`] |
//!
//! Binaries with an `artifacts` route run through the `core::sweep` engine
//! and accept `--json` to emit the unified
//! [`SweepReport`](disagg_core::report::SweepReport) schema; the remaining
//! analytical binaries (`ber_fec`, `bandwidth_analysis`, `iso_performance`,
//! `calibrate`) print Section VI-A/C/D/E analyses directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli {
    //! Flag-value parsing for the grid binaries (`sweep`, `timeline`,
    //! `energy`, `flexgrid`). Axis values go through the axis type's own
    //! `parse` (for example [`fabric::FabricKind::parse`]), the same one the
    //! JSON grid decoder uses, so a spelling means the same thing on the
    //! command line and in a job file. Any bad value is a usage error:
    //! one line on stderr, nothing on stdout, exit status 2.

    use std::process::exit;
    use std::str::FromStr;

    /// Print `<binary>: <message>` to stderr and exit with status 2.
    pub fn fail(message: &str) -> ! {
        let argv0 = std::env::args().next().unwrap_or_default();
        let binary = std::path::Path::new(&argv0)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("bench");
        eprintln!("{binary}: {message}");
        exit(2);
    }

    /// Parse a comma-separated list, each trimmed element through `parse`.
    pub fn parse_list_with<T>(
        flag: &str,
        value: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Vec<T> {
        value
            .split(',')
            .map(|v| {
                let v = v.trim();
                parse(v).unwrap_or_else(|| fail(&format!("invalid value {v:?} for {flag}")))
            })
            .collect()
    }

    /// Parse a comma-separated list of numbers (or any [`FromStr`] type).
    pub fn parse_list<T: FromStr>(flag: &str, value: &str) -> Vec<T> {
        parse_list_with(flag, value, |v| v.parse().ok())
    }

    /// Parse the value of a flag that takes exactly one value: a comma list
    /// is rejected instead of silently using its first element.
    pub fn parse_scalar<T: FromStr>(flag: &str, value: &str) -> T {
        if value.contains(',') {
            fail(&format!("{flag} takes a single value, got list {value:?}"));
        }
        value
            .trim()
            .parse()
            .unwrap_or_else(|_| fail(&format!("invalid value {value:?} for {flag}")))
    }
}
