//! The benchmark's self-test: short runs of every workload on two
//! seeds. Each must report every metric `BENCHMARK.json` names, with its
//! unit, fail nothing, and agree with the oracle; and a deliberately
//! corrupted expected emission must be reported as a failure.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use crate::metrics::{self, Run};
use crate::workload::Kind;
use crate::Args;
use std::path::PathBuf;
use std::time::Duration;

fn args(kind: Kind, seed: u64, trace: bool, corrupt_oracle: bool) -> Args {
    Args {
        kind,
        seed,
        seconds: 1.0,
        trace,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/selftest"),
        corrupt_oracle,
    }
}

fn run(kind: Kind, seed: u64, trace: bool, corrupt_oracle: bool) -> Run {
    let a = args(kind, seed, trace, corrupt_oracle);
    std::fs::create_dir_all(&a.out_dir).expect("self-test output directory");
    metrics::run(&a, Duration::from_secs(150))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn assert_reports(run: &Run, section: &str) {
    let reported: Vec<(String, String)> = run
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(reported, declared(section), "{section} metrics and units");
}

/// A run that failed nothing and agrees with the oracle; a watchdog
/// diagnosis, if any, goes into the failure message. Attempts that
/// stalled and were run again are not failures; their diagnoses are
/// printed.
fn assert_clean(r: &Run, what: &str) {
    let failures: Vec<String> = r
        .failures
        .iter()
        .map(|f| format!("{}: {}\n{}", f.part, f.reason, f.diagnosis))
        .collect();
    for f in &r.stalls {
        eprintln!(
            "{what}: part {} stalled, {}\n{}",
            f.part, f.reason, f.diagnosis
        );
    }
    assert!(failures.is_empty(), "{what}: {failures:?}");
    assert!(r.correct, "{what} disagrees with the oracle");
    assert_eq!(r.failed, 0, "{what}");
    let frac = r
        .extra
        .iter()
        .find(|m| m.name == "failed_frac")
        .expect("failed_frac");
    assert_eq!((frac.value, frac.unit), (0.0, "ratio"), "{what}");
}

fn check_workload(kind: Kind) {
    for seed in [1, 2] {
        let what = format!("{} seed {seed}", kind.name());
        let r = run(kind, seed, false, false);
        assert_clean(&r, &what);
        assert_reports(&r, "end_to_end");
        for m in &r.metrics {
            assert!(m.value > 0.0, "{what}: {} is {}", m.name, m.value);
        }
        let traced = run(kind, seed, true, false);
        assert_clean(&traced, &format!("{what} traced"));
        assert_reports(&traced, "per_layer");
    }
}

#[test]
fn stream_reports_every_metric_and_matches_the_oracle() {
    check_workload(Kind::Stream);
}

#[test]
fn dag_reports_every_metric_and_matches_the_oracle() {
    check_workload(Kind::Dag);
}

#[test]
fn serve_reports_every_metric_and_matches_the_oracle() {
    check_workload(Kind::Serve);
}

#[test]
fn a_corrupted_expected_emission_is_a_failure() {
    let r = run(Kind::Stream, 1, false, true);
    assert!(!r.correct, "the corrupted emission went unnoticed");
    assert!(
        r.failed > 0 && r.failed < r.attempted,
        "failed {}",
        r.failed
    );
}
