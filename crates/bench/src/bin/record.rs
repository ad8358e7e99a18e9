//! Appends to `BENCH_runtime.json`: a machine-readable throughput
//! *trajectory* for the streaming runtime, so successive PRs accumulate
//! comparable data points instead of overwriting each other.
//!
//! Each invocation measures two workloads and appends one entry:
//!
//! * `results` — the single-runtime workload of the
//!   `runtime_throughput` Criterion bench (two live sources, shared
//!   aggregation spine, history off) at 1, 4 and 8 worker threads;
//! * `sessions` — the multi-tenant workload: 8 copies of the same
//!   graph as tenant sessions on one shared `SessionPool`, at 4 and 8
//!   workers, reporting aggregate events/second;
//! * `metrics` — the full `MetricsSnapshot` of the last 4-thread run
//!   (scheduler counters, ingest counters, latency percentiles);
//! * `store` — durability costs: per-commit WAL append latency against
//!   a real segmented store (default batched-fsync cadence) and the
//!   full-vs-delta snapshot cost through a durable runtime;
//! * `wire` — the `ec serve` TCP path: the same tenant graph served by
//!   a `WireServer` on an ephemeral port and loaded by real
//!   `WireClient` producers (framing, CRC, striped ingest), at 1 and 4
//!   tenants, with the 4-tenant run's merged end-to-end latency
//!   percentiles;
//! * `obs` — the observability overhead A/B: the 4-thread workload
//!   with the flight recorder + `/metrics` endpoint + default causal
//!   trace sampling on vs fully off, runs interleaved, with the
//!   instrumented run's snapshot and its merged end-to-end latency
//!   percentiles (`e2e_us`: p50/p95/p99 in microseconds). CI gates
//!   `overhead_pct` at 5.
//!
//! ```text
//! cargo run --release -p ec-bench --bin record [-- OUTPUT_PATH [EVENTS]]
//! ```
//!
//! The output file is a JSON array of entries (oldest first); any other
//! content is refused rather than overwritten. Defaults:
//! `BENCH_runtime.json` in the current directory, 20_000 events per
//! timed run. Each configuration runs one warmup pass and three timed
//! passes; the median is reported.

use ec_bench::{
    drive_runtime, drive_runtime_parallel, drive_sessions, drive_wire, ingest_workload,
    runtime_workload, runtime_workload_observed, session_workload, wire_workload, INGEST_EPOCH,
    RUNTIME_EPOCH, WIRE_BATCH,
};
use std::io::Write;
use std::time::Instant;

const THREADS: [usize; 3] = [1, 4, 8];
/// Thread count of the observability overhead A/B (and of the embedded
/// metrics sample) — the middle of [`THREADS`].
const OBS_THREADS: usize = 4;
const SESSION_THREADS: [usize; 2] = [4, 8];
const INGEST_PRODUCERS: [usize; 4] = [1, 2, 4, 8];
const INGEST_THREADS: usize = 4;
const SESSION_TENANTS: usize = 8;
const WIRE_TENANTS: [usize; 2] = [1, 4];
const WIRE_THREADS: usize = 4;
const DEFAULT_EVENTS: u64 = 20_000;
const TIMED_RUNS: usize = 3;
/// Paired rounds of the observability A/B. More than [`TIMED_RUNS`]
/// because the A/B gates CI at a ±5% threshold, well inside the
/// round-to-round drift of a shared container — medians over nine
/// interleaved pairs keep the comparison honest.
const OBS_AB_RUNS: usize = 9;

fn median(mut rates: Vec<f64>) -> f64 {
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
}

/// One timed pass of the workload built by `build`: events/second plus
/// the run's full metrics snapshot.
fn time_once<F>(build: &F, events: u64) -> (f64, ec_core::MetricsSnapshot)
where
    F: Fn() -> ec_runtime::StreamRuntime,
{
    let rt = build();
    let start = Instant::now();
    drive_runtime(&rt, events);
    let elapsed = start.elapsed().as_secs_f64();
    let m = rt.metrics();
    if std::env::var_os("EC_BENCH_VERBOSE").is_some() {
        eprintln!(
            "  execs={} enq={} steals={} parks={} wakes={} \
             lock_wait={}us crit={}us exec={}us depth~{:.1}",
            m.executions,
            m.enqueued,
            m.scheduler.steals,
            m.scheduler.parks,
            m.scheduler.wakes,
            m.lock_wait_nanos / 1_000,
            m.critical_nanos / 1_000,
            m.exec_nanos / 1_000,
            m.mean_concurrent_phases(),
        );
    }
    rt.shutdown().expect("clean shutdown");
    (events as f64 / elapsed, m)
}

/// Measures the single-runtime workload built by `build`: one warmup
/// pass, [`TIMED_RUNS`] timed passes, median rate. Also returns the
/// final run's full metrics snapshot (counters + latency percentiles),
/// which main() embeds in the trajectory entry.
fn measure_built<F>(build: F, events: u64) -> (f64, ec_core::MetricsSnapshot)
where
    F: Fn() -> ec_runtime::StreamRuntime,
{
    // Warmup: one full pass, untimed (thread spawn, allocator, caches).
    {
        let rt = build();
        drive_runtime(&rt, events.min(2_000));
        rt.shutdown().expect("clean shutdown");
    }
    let mut sample = ec_core::MetricsSnapshot::default();
    let rates = (0..TIMED_RUNS)
        .map(|_| {
            let (rate, m) = time_once(&build, events);
            sample = m;
            rate
        })
        .collect();
    (median(rates), sample)
}

fn measure(threads: usize, events: u64) -> (f64, ec_core::MetricsSnapshot) {
    measure_built(|| runtime_workload(threads), events)
}

/// The observability overhead A/B: the same workload with and without
/// the flight recorder + `/metrics` endpoint, runs *interleaved*
/// (base, obs, base, obs, …) so container drift between arms reads as
/// noise, not overhead. Returns `(base median, obs median, obs
/// sample)`.
fn measure_obs_ab(events: u64) -> (f64, f64, ec_core::MetricsSnapshot) {
    let base = || runtime_workload(OBS_THREADS);
    let observed = || runtime_workload_observed(OBS_THREADS);
    let warmups: [&dyn Fn() -> ec_runtime::StreamRuntime; 2] = [&base, &observed];
    for build in warmups {
        let rt = build();
        drive_runtime(&rt, events.min(2_000));
        rt.shutdown().expect("clean shutdown");
    }
    let mut base_rates = Vec::new();
    let mut obs_rates = Vec::new();
    let mut obs_sample = ec_core::MetricsSnapshot::default();
    for _ in 0..OBS_AB_RUNS {
        base_rates.push(time_once(&base, events).0);
        let (rate, m) = time_once(&observed, events);
        obs_rates.push(rate);
        obs_sample = m;
    }
    (median(base_rates), median(obs_rates), obs_sample)
}

fn measure_ingest(producers: usize, events: u64) -> f64 {
    {
        let rt = ingest_workload(INGEST_THREADS, producers);
        drive_runtime_parallel(&rt, producers, events.min(2_000));
        rt.shutdown().expect("clean shutdown");
    }
    let verbose = std::env::var_os("EC_BENCH_VERBOSE").is_some();
    median(
        (0..TIMED_RUNS)
            .map(|_| {
                let rt = ingest_workload(INGEST_THREADS, producers);
                let start = Instant::now();
                drive_runtime_parallel(&rt, producers, events);
                let elapsed = start.elapsed().as_secs_f64();
                if verbose {
                    let m = rt.metrics();
                    eprintln!(
                        "  waits={} seals={} mean_batch={:.1} lock_wait={}us crit={}us \
                         exec={}us parks={} wakes={} phases={}",
                        m.ingest.waits,
                        m.ingest.seal_batches,
                        m.mean_seal_batch(),
                        m.lock_wait_nanos / 1_000,
                        m.critical_nanos / 1_000,
                        m.exec_nanos / 1_000,
                        m.scheduler.parks,
                        m.scheduler.wakes,
                        m.phases_started,
                    );
                }
                rt.shutdown().expect("clean shutdown");
                events as f64 / elapsed
            })
            .collect(),
    )
}

fn measure_sessions(threads: usize, tenants: usize, events: u64) -> f64 {
    {
        let (_pool, sessions) = session_workload(threads, tenants);
        drive_sessions(&sessions, events.min(2_000));
        for s in sessions {
            s.close().expect("clean shutdown");
        }
    }
    median(
        (0..TIMED_RUNS)
            .map(|_| {
                let (_pool, sessions) = session_workload(threads, tenants);
                let start = Instant::now();
                drive_sessions(&sessions, events);
                let elapsed = start.elapsed().as_secs_f64();
                for s in sessions {
                    s.close().expect("clean shutdown");
                }
                events as f64 / elapsed
            })
            .collect(),
    )
}

/// The wire-serving path over real TCP: per-pass server + producer
/// connections, rate measured over the events the server acked. Also
/// returns the final pass's tenant-0 metrics snapshot, whose merged
/// end-to-end percentiles cover the socket→retire path.
fn measure_wire(tenants: usize, events: u64) -> (f64, ec_core::MetricsSnapshot) {
    {
        let server = wire_workload(WIRE_THREADS, tenants);
        drive_wire(&server, events.min(2_000));
        for (name, report) in server.shutdown() {
            report.unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
    let mut sample = ec_core::MetricsSnapshot::default();
    let rates = (0..TIMED_RUNS)
        .map(|_| {
            let server = wire_workload(WIRE_THREADS, tenants);
            let start = Instant::now();
            let acked = drive_wire(&server, events);
            let elapsed = start.elapsed().as_secs_f64();
            sample = server.tenant("tenant-0").expect("tenant exists").metrics();
            for (name, report) in server.shutdown() {
                report.unwrap_or_else(|e| panic!("{name}: {e}"));
            }
            acked as f64 / elapsed
        })
        .collect();
    (median(rates), sample)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[((sorted.len() - 1) as f64 * p) as usize]
}

/// Durability costs for the trajectory entry: per-commit WAL append
/// latency against a raw segmented store, then full-vs-delta snapshot
/// latency through a durable runtime (`snapshot_full_every(4)` makes
/// checkpoints 0, 4, 8 full and the rest deltas).
fn measure_store(events: u64) -> String {
    use ec_events::Value;

    let root = std::env::temp_dir().join(format!("ec-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // WAL append cost: n single-row group commits, timed one by one,
    // fsync at the writer's default batched cadence — the shape the
    // runtime's seal path produces.
    let mut wal =
        ec_store::WalWriter::create(&root.join("wal"), &["s".to_string()]).expect("create store");
    let n = events.min(5_000) as usize;
    let mut lat = Vec::with_capacity(n);
    for i in 0..n {
        wal.stage_row(&[Some(Value::Float(i as f64))]);
        let t = Instant::now();
        wal.commit().expect("wal commit");
        lat.push(t.elapsed().as_nanos() as u64);
    }
    drop(wal);
    lat.sort_unstable();

    // Snapshot cost: push a batch, flush, checkpoint, 12 rounds.
    const FULL_EVERY: u64 = 4;
    let mut b = ec_runtime::StreamRuntime::builder();
    let s = b.live_source("s");
    b.add(
        "sum",
        ec_fusion::operators::aggregate::Aggregate::sum(),
        &[s],
    );
    let rt = b
        .durable(root.join("snap"))
        .snapshot_full_every(FULL_EVERY as u32)
        .build()
        .expect("durable runtime");
    let h = rt.handle(s).expect("live handle");
    let mut full_lat = Vec::new();
    let mut delta_lat = Vec::new();
    for k in 0..12u64 {
        for _ in 0..32 {
            h.push(1.0).expect("push");
        }
        rt.flush().expect("flush");
        let t = Instant::now();
        rt.checkpoint().expect("checkpoint");
        let us = t.elapsed().as_nanos() as u64 / 1_000;
        if k % FULL_EVERY == 0 {
            full_lat.push(us);
        } else {
            delta_lat.push(us);
        }
    }
    rt.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&root);

    let full_us = median(full_lat.iter().map(|&v| v as f64).collect());
    let delta_us = median(delta_lat.iter().map(|&v| v as f64).collect());
    eprintln!(
        "store: wal commit p50={}ns p99={}ns; snapshot full={full_us:.0}us delta={delta_us:.0}us",
        percentile(&lat, 0.50),
        percentile(&lat, 0.99),
    );
    format!(
        "{{\"wal_commit_ns\": {{\"count\": {n}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}, \
         \"snapshot_us\": {{\"full_every\": {FULL_EVERY}, \"full\": {full_us:.1}, \
         \"delta\": {delta_us:.1}}}}}",
        percentile(&lat, 0.50),
        percentile(&lat, 0.95),
        percentile(&lat, 0.99),
    )
}

/// Appends `entry` to the JSON-array trajectory at `path`.
fn append_entry(path: &str, entry: &str) -> std::io::Result<()> {
    let existing = match std::fs::read_to_string(path) {
        Ok(s) => s.trim().to_string(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let body = if existing.is_empty() {
        format!("[\n{entry}\n]\n")
    } else if let Some(inner) = existing.strip_suffix(']') {
        // Splice the new entry in before the closing bracket.
        let inner = inner.trim_end();
        if inner.ends_with('[') {
            format!("{inner}\n{entry}\n]\n") // degenerate empty array
        } else {
            format!("{inner},\n{entry}\n]\n")
        }
    } else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{path} is not a JSON array of entries"),
        ));
    };
    // Write-then-rename: an interrupt mid-write must not destroy the
    // accumulated trajectory the file exists to preserve.
    let tmp = format!("{path}.tmp-{}", std::process::id());
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(body.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let out_path = args.next().unwrap_or_else(|| "BENCH_runtime.json".into());
    let events: u64 = args
        .next()
        .map(|s| s.parse().expect("EVENTS must be an integer"))
        .unwrap_or(DEFAULT_EVENTS);

    let mut results = Vec::new();
    let mut metrics_sample = ec_core::MetricsSnapshot::default();
    for &threads in &THREADS {
        let (rate, sample) = measure(threads, events);
        eprintln!("threads={threads}: {rate:.0} events/s");
        results.push(format!(
            "      {{\"threads\": {threads}, \"events_per_sec\": {rate:.1}}}"
        ));
        if threads == OBS_THREADS {
            metrics_sample = sample;
        }
    }
    // The observability A/B: same workload, same thread count, with the
    // flight recorder and a live /metrics endpoint switched on. CI
    // gates overhead_pct at 5.
    let (base_rate, obs_rate, obs_sample) = measure_obs_ab(events);
    let e2e = obs_sample.latency.e2e_merged();
    let overhead_pct = if obs_rate > 0.0 && base_rate.is_finite() {
        (base_rate / obs_rate - 1.0) * 100.0
    } else {
        0.0
    };
    eprintln!(
        "obs A/B: threads={OBS_THREADS} instrumented={obs_rate:.0} \
         uninstrumented={base_rate:.0} events/s overhead={overhead_pct:.2}%"
    );
    let mut ingest = Vec::new();
    for &producers in &INGEST_PRODUCERS {
        let rate = measure_ingest(producers, events);
        eprintln!("ingest: producers={producers} threads={INGEST_THREADS}: {rate:.0} events/s");
        ingest.push(format!(
            "      {{\"producers\": {producers}, \"threads\": {INGEST_THREADS}, \
             \"events_per_sec\": {rate:.1}}}"
        ));
    }
    let store = measure_store(events);
    let mut wire = Vec::new();
    let mut wire_sample = ec_core::MetricsSnapshot::default();
    for &tenants in &WIRE_TENANTS {
        let (rate, sample) = measure_wire(tenants, events);
        eprintln!("wire: tenants={tenants} threads={WIRE_THREADS}: {rate:.0} events/s over TCP");
        wire.push(format!(
            "      {{\"tenants\": {tenants}, \"threads\": {WIRE_THREADS}, \
             \"events_per_sec\": {rate:.1}}}"
        ));
        wire_sample = sample;
    }
    let wire_e2e = wire_sample.latency.e2e_merged();
    let mut sessions = Vec::new();
    for &threads in &SESSION_THREADS {
        let rate = measure_sessions(threads, SESSION_TENANTS, events);
        eprintln!(
            "sessions: threads={threads} tenants={SESSION_TENANTS}: {rate:.0} events/s aggregate"
        );
        sessions.push(format!(
            "      {{\"threads\": {threads}, \"tenants\": {SESSION_TENANTS}, \
             \"events_per_sec\": {rate:.1}}}"
        ));
    }

    let entry = format!(
        "  {{\n    \"bench\": \"runtime_throughput\",\n    \"events\": {events},\n    \
         \"epoch\": {RUNTIME_EPOCH},\n    \"ingest_epoch\": {INGEST_EPOCH},\n    \
         \"timed_runs\": {TIMED_RUNS},\n    \
         \"results\": [\n{}\n    ],\n    \"ingest\": [\n{}\n    ],\n    \
         \"sessions\": [\n{}\n    ],\n    \
         \"wire\": {{\"batch\": {WIRE_BATCH}, \"results\": [\n{}\n    ], \
         \"e2e_us\": {{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}}},\n    \
         \"store\": {store},\n    \
         \"metrics\": {},\n    \
         \"obs\": {{\"threads\": {OBS_THREADS}, \"ab_runs\": {OBS_AB_RUNS}, \
         \"instrumented_events_per_sec\": {obs_rate:.1}, \
         \"uninstrumented_events_per_sec\": {base_rate:.1}, \
         \"overhead_pct\": {overhead_pct:.2}, \
         \"e2e_us\": {{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}, \
         \"metrics\": {}}}\n  }}",
        results.join(",\n"),
        ingest.join(",\n"),
        sessions.join(",\n"),
        wire.join(",\n"),
        wire_e2e.count(),
        wire_e2e.p50() / 1_000,
        wire_e2e.p95() / 1_000,
        wire_e2e.p99() / 1_000,
        metrics_sample.to_json(),
        e2e.count(),
        e2e.p50() / 1_000,
        e2e.p95() / 1_000,
        e2e.p99() / 1_000,
        obs_sample.to_json()
    );
    append_entry(&out_path, &entry).expect("write output");
    eprintln!("appended to {out_path}");
}
