//! Smoke test of the benchmark itself: every workload runs at the smoke
//! size, untraced and traced, and every metric `BENCHMARK.json` names is
//! printed with its unit.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// A JSON value, enough of it to read `BENCHMARK.json` and a result line.
/// The parser is the test's own so the benchmark does not depend on the
/// repository's JSON layer, which may move.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value();
        p.ws();
        assert_eq!(p.pos, p.bytes.len(), "trailing bytes in {text:?}");
        value
    }

    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.ws();
        assert_eq!(self.bytes[self.pos], byte, "at byte {}", self.pos);
        self.pos += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let b = self.bytes[self.pos];
            self.pos += 1;
            match b {
                b'"' => return out,
                b'\\' => {
                    out.push(match self.bytes[self.pos] {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                    self.pos += 1;
                }
                _ => out.push(b as char),
            }
        }
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.bytes[self.pos] {
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.bytes[self.pos] == b'}' {
                    self.pos += 1;
                    return Json::Obj(fields);
                }
                loop {
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                    self.ws();
                    self.pos += 1;
                    if self.bytes[self.pos - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.bytes[self.pos] == b']' {
                    self.pos += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.pos += 1;
                    if self.bytes[self.pos - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.pos += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.pos += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.pos += 4;
                Json::Null
            }
            _ => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    Parser::parse(&text)
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("perfbench runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line").to_string();
    (stdout, Parser::parse(&last))
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let workloads: Vec<String> = {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        Parser::parse(&text)
            .get("workloads")
            .arr()
            .iter()
            .map(|w| w.get("name").str().to_string())
            .collect()
    };
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let (stdout, result) = run(workload, trace);
            let context = format!("{workload} --trace {trace}:\n{stdout}");
            assert_eq!(result.get("correct"), &Json::Bool(true), "{context}");
            assert_eq!(result.get("failed"), &Json::Num(0.0), "{context}");
            assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("metrics is not an object: {context}");
            };
            let expected = declared(section);
            assert_eq!(metrics.len(), expected.len(), "{context}");
            for (name, unit) in &expected {
                let metric = result.get("metrics").get(name);
                assert_eq!(metric.get("unit").str(), unit, "{name}: {context}");
                assert!(
                    matches!(metric.get("value"), Json::Num(v) if v.is_finite()),
                    "{name}: {context}"
                );
                assert!(
                    stdout.contains(&format!("metric {name} ")),
                    "{name} not printed: {context}"
                );
            }
            assert!(stdout.contains("\nhost nproc="), "{context}");
            if trace == 0 {
                assert!(stdout.contains(&format!("digest {workload} fnv1a64=")));
            }
        }
    }
}

fn digest(workload: &str, seed: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", seed, "--seconds", "0"])
        .args(["--trace", "0", "--smoke"])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    stdout
        .lines()
        .find(|l| l.starts_with("digest "))
        .and_then(|l| l.split_whitespace().nth(2))
        .unwrap_or_else(|| panic!("no digest line in {stdout}"))
        .to_string()
}

#[test]
fn inputs_and_outputs_follow_the_seed_alone() {
    let a = digest("rack-temporal", "7");
    assert_eq!(a, digest("rack-temporal", "7"));
    assert_ne!(a, digest("rack-temporal", "8"));
    // cpu-latency traces derive from benchmark identity, not the seed.
    assert_eq!(digest("cpu-latency", "7"), digest("cpu-latency", "8"));
}

#[test]
fn a_bad_flag_exits_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("perfbench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
