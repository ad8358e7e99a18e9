//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload stream|dag|serve --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Drives the public API of `ec-runtime` from one process with
//! [`WORKERS`] runtime workers (refused above the CPU count), checks
//! every run against the sequential oracle, prints every metric with
//! its unit, and ends stdout with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced;
//! with `--trace 1` they are the per-layer ones from a traced run, and a
//! Chrome trace is written to `DIR`. Exits non-zero when any delivered
//! emission differs from the oracle's.

mod metrics;
mod oracle;
mod part;
mod stats;
mod trace;
mod watchdog;
mod workload;

#[cfg(test)]
mod selftest;

use std::path::PathBuf;
use std::time::Duration;
use workload::Kind;

/// Runtime workers of every workload.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone)]
pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
    /// Alters one expected emission, which the oracle check must then
    /// report (set by the self-test only).
    pub corrupt_oracle: bool,
}

const USAGE: &str =
    "usage: perfbench --workload stream|dag|serve --seed N --seconds S --trace 0|1 [--out DIR]";

/// Refuses more runtime workers or generator threads than CPUs.
fn fits_cpus(kind: Kind, workers: usize, cpus: usize) -> Result<(), String> {
    if workers > cpus {
        return Err(format!("refusing {workers} runtime workers on {cpus} CPUs"));
    }
    if kind.lanes() > cpus {
        return Err(format!(
            "refusing {}: its {} generator threads exceed {cpus} CPUs",
            kind.name(),
            kind.lanes()
        ));
    }
    Ok(())
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad)? != 0,
            "--out" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    let kind = kind.ok_or("--workload is required")?;
    fits_cpus(
        kind,
        WORKERS,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )?;
    Ok(Args {
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out_dir,
        corrupt_oracle: false,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(2);
    }
    let run = metrics::run(&args, Duration::from_secs(150));
    for line in run.table() {
        println!("{line}");
    }
    let record = args.out_dir.join(format!(
        "{}-s{}-trace{}.json",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&record, run.record_json(&args)) {
        eprintln!("perfbench: cannot write {}: {e}", record.display());
    }
    println!("{}", run.result_json());
    // Stores of parts the watchdog abandoned were never torn down.
    let prefix = format!("store-{}-", std::process::id());
    for entry in std::fs::read_dir(&args.out_dir)
        .into_iter()
        .flatten()
        .flatten()
    {
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
    // Leave without unwinding: a part the watchdog abandoned still owns
    // wedged threads, and process exit is what stops them.
    std::process::exit(if run.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_workers_or_generators_than_cpus_are_refused() {
        assert!(fits_cpus(Kind::Stream, 2, 2).is_ok());
        assert!(fits_cpus(Kind::Stream, 3, 2)
            .unwrap_err()
            .contains("refusing"));
        assert!(fits_cpus(Kind::Serve, 1, 1)
            .unwrap_err()
            .contains("generator"));
        let argv: Vec<String> = [
            "--workload",
            "dag",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--bogus",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert!(parse_args(&argv).is_err());
    }
}
