//! One run: its parts under the watchdog, the oracle check, and the
//! end-to-end (untraced) or per-layer (traced) metrics it reports.

use crate::oracle::{self, LaneCheck, Latency, Pacing};
use crate::part::{self, Ctx, LaneOut, Mode, PartOut, PartSpec};
use crate::stats::{self, json_num, json_str, median, quantile, Pct};
use crate::trace::{self, Tracer};
use crate::watchdog::{self, Outcome};
use crate::workload::Kind;
use crate::{Args, WORKERS};
use ec_core::MetricsSnapshot;
use ec_obs::HistogramSnapshot;
use ec_runtime::PhaseScript;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A part may take three times its measuring window plus this (setup,
/// warmup, drain, teardown) before the watchdog declares it hung.
const PART_GRACE: Duration = Duration::from_secs(15);

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile; for paced latency, those of its
    /// smallest window.
    pub samples: Option<usize>,
    /// A p99 from fewer than `stats::MIN_P99_SAMPLES` samples.
    pub flagged: bool,
}

/// A part the watchdog abandoned, or one that failed outright.
pub struct Failure {
    pub part: &'static str,
    pub reason: String,
    pub diagnosis: String,
    pub events: u64,
}

struct Checked {
    /// Without its scripts and deliveries, which the check consumed.
    part: PartOut,
    checks: Vec<LaneCheck>,
    /// `VmHWM` over the part, from its setup to its teardown, less
    /// `VmRSS` before it.
    peak_rss_mib: f64,
}

/// Checks a finished part against the oracle, maps its traced pushes to
/// phases, and drops what only the check needed, so the parts after it
/// run (and are measured) without it.
fn check(
    kind: Kind,
    mut part: PartOut,
    peak_rss_mib: f64,
    corrupt: &mut bool,
    mut checker: Option<&mut Tracer>,
) -> Checked {
    let pacing = match part.spec.mode {
        Mode::Paced(_) => Some(Pacing {
            start: part.start,
            period: part.period,
            unit_len: part.unit_len,
        }),
        Mode::Saturate => None,
    };
    let mut checks = Vec::new();
    for lane in &mut part.lanes {
        let mut c = oracle::check(kind, lane, pacing, *corrupt, checker.as_deref_mut());
        *corrupt = false;
        for t in &mut lane.tracers {
            t.resolve(|index| {
                c.event_phase
                    .get(index as usize)
                    .copied()
                    .filter(|&p| p != 0)
                    .map(u64::from)
            });
        }
        c.event_phase = Vec::new();
        lane.script = PhaseScript::default();
        lane.delivered = Vec::new();
        checks.push(c);
    }
    Checked {
        part,
        checks,
        peak_rss_mib,
    }
}

pub struct Run {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Metrics shown and recorded but not in the result line.
    pub extra: Vec<Metric>,
    pub failures: Vec<Failure>,
    /// Attempts that stalled and were run again.
    pub stalls: Vec<Failure>,
    parts: Vec<String>,
    trace_file: Option<PathBuf>,
}

/// A part that stalls (the watchdog saw no progress for
/// [`watchdog::STALL`]) is wedged in the program — the scheduler's lost
/// wakeup, where workers sit parked beside queued work — not slow or
/// wrong. Its diagnosis is recorded as a stall and the part is run again
/// on the same inputs with a fresh program, up to this many attempts in
/// all; the run's `stalled_attempts` counts the reruns. A part that
/// stalls on every attempt, or fails any other way (an error, a panic,
/// a missed deadline), is not rerun and its events count as failed.
const TRIES: u32 = 8;

/// Untraced runs interleave this many rounds of saturate, low and high
/// parts across the run and report each metric's median over rounds:
/// the machine's background noise comes and goes within a run, and a
/// round the watchdog abandons costs one sample, not the metric.
pub const ROUNDS: u64 = 10;

fn specs(kind: Kind, seconds: f64, traced: bool) -> Vec<PartSpec> {
    let (low, high) = kind.rates();
    let spec = |label, round, mode, share: f64, traced| PartSpec {
        label,
        round,
        mode,
        window: Duration::from_secs_f64(seconds * share),
        traced,
        attempt: 1,
    };
    // The lost wakeup strikes paced parts, whose workers park between
    // phases, at a roughly steady rate per second: on `serve` a 5 s
    // traced paced part stalled on 8 attempts of 8, a 1 s one on about
    // a third. Traced paced parts are kept short so that one of their
    // attempts ends.
    if traced {
        return vec![
            spec("saturate_untraced", 0, Mode::Saturate, 0.45, false),
            spec("saturate", 0, Mode::Saturate, 0.45, true),
            spec("low", 0, Mode::Paced(low), 0.05, true),
            spec("high", 0, Mode::Paced(high), 0.05, true),
        ];
    }
    let share = 1.0 / ROUNDS as f64;
    (0..ROUNDS)
        .flat_map(|r| {
            [
                spec("saturate", r, Mode::Saturate, 0.5 * share, false),
                spec("low", r, Mode::Paced(low), 0.3 * share, false),
                spec("high", r, Mode::Paced(high), 0.2 * share, false),
            ]
        })
        .collect()
}

/// Runs every part of one benchmark run within `budget`, checking each
/// one as soon as it ends, then measures them.
pub fn run(args: &Args, budget: Duration) -> Run {
    let origin = Instant::now();
    let ctx = Ctx {
        kind: args.kind,
        seed: args.seed,
        origin,
        out_dir: args.out_dir.clone(),
    };
    let mut failures = Vec::new();
    let mut stalls = Vec::new();
    let mut checked: Vec<Checked> = Vec::new();
    let mut errored_events = 0;
    let mut checker = args.trace.then(|| Tracer::new("checker", origin));
    let mut corrupt = args.corrupt_oracle;
    for mut spec in specs(args.kind, args.seconds, args.trace) {
        while spec.attempt <= TRIES {
            let remaining = budget.saturating_sub(origin.elapsed());
            if remaining < spec.window + watchdog::STALL {
                failures.push(Failure {
                    part: spec.label,
                    reason: "not run: the run's time budget is spent".into(),
                    diagnosis: String::new(),
                    events: 0,
                });
                break;
            }
            let deadline = (spec.window * 3 + PART_GRACE).min(remaining);
            let (c, s) = (ctx.clone(), spec.clone());
            // A part's peak is what it adds to the memory the process
            // holds before its setup (the harness, the parts checked so
            // far and any the watchdog abandoned), which is not the
            // program's.
            stats::reset_peak_rss();
            let before = stats::rss_mib();
            let outcome = watchdog::guard(spec.label, deadline, move |w| part::run(&c, &s, &w));
            let peak_rss_mib = stats::peak_rss_mib() - before;
            let (reason, diagnosis, pushed, stalled) = match outcome {
                Outcome::Done(Ok(part), _) => {
                    checked.push(check(
                        args.kind,
                        part,
                        peak_rss_mib,
                        &mut corrupt,
                        checker.as_mut(),
                    ));
                    break;
                }
                Outcome::Done(Err(reason), pushed) => (reason, String::new(), pushed, false),
                Outcome::Failed {
                    reason,
                    diagnosis,
                    pushed,
                    stalled,
                } => (reason, diagnosis, pushed, stalled),
            };
            let rerun = stalled && spec.attempt < TRIES;
            eprintln!(
                "perfbench: part {} (attempt {}) {reason}{}\n{diagnosis}",
                spec.label,
                spec.attempt,
                if rerun { "; running it again" } else { "" }
            );
            let failure = Failure {
                part: spec.label,
                reason: format!("attempt {}: {reason}", spec.attempt),
                diagnosis,
                events: pushed.max(1),
            };
            if !rerun {
                errored_events += failure.events;
                failures.push(failure);
                break;
            }
            stalls.push(failure);
            spec.attempt += 1;
        }
    }

    let all_checks = || checked.iter().flat_map(|c| &c.checks);
    let correct = all_checks().all(|c| c.mismatched_phases == 0 && c.missing_phases == 0);
    let attempted = all_checks().map(|c| c.attempted).sum::<u64>() + errored_events;
    let failed = all_checks().map(|c| c.failed).sum::<u64>() + errored_events;
    let stalled = metric("watchdog.stalled_attempts", stalls.len() as f64, "count");

    let mut out = Run {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics: Vec::new(),
        extra: vec![metric(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        )],
        failures,
        stalls,
        parts: checked.iter().map(part_summary).collect(),
        trace_file: None,
    };
    let find = |label: &str| checked.iter().find(|c| c.part.spec.label == label);
    if args.trace {
        out.metrics = per_layer(args.kind, &find, &checked, checker.as_ref());
        out.metrics.push(stalled);
        let mut tracers: Vec<Tracer> = Vec::new();
        for c in checked {
            tracers.extend(c.part.tracer);
            for lane in c.part.lanes {
                tracers.extend(lane.tracers);
            }
        }
        tracers.extend(checker);
        let path = args
            .out_dir
            .join(format!("trace-{}-s{}.json", args.kind.name(), args.seed));
        match std::fs::write(&path, trace::chrome_trace(&tracers)) {
            Ok(()) => out.trace_file = Some(path),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    } else {
        let (gated, extra): (Vec<Metric>, Vec<Metric>) = end_to_end(&checked)
            .into_iter()
            .partition(|m| GATED.contains(&m.name.as_str()));
        out.metrics = gated;
        out.extra.splice(0..0, extra);
        out.extra.push(stalled);
    }
    out
}

/// The end-to-end metrics of the result line, as `BENCHMARK.json` lists
/// them. The others are shown and recorded but not gated. On a shared
/// 2-vCPU VM the host's load comes and goes over minutes: between such
/// periods the same code's `lat_low_p50_us` moves by about 40%, the p99
/// latencies by several times, and `lat_high_p50_us` on `dag` flips
/// between about 1 ms and 10 ms, all beyond any usable regression bound.
/// A part's peak memory (a few MiB to a few tens) moves by a quarter or
/// more with how many events scheduling leaves in flight.
const GATED: [&str; 3] = ["events_per_s", "cpu_us_per_event", "setup_s"];

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples: None,
        flagged: false,
    }
}

/// `name_p50` and `name_p99` from one summary.
fn pct_metrics(prefix: &str, suffix: &str, p: Pct, unit: &'static str) -> [Metric; 2] {
    let m = |q: &str, v: f64, flagged| Metric {
        name: format!("{prefix}_{q}{suffix}"),
        value: v,
        unit,
        samples: Some(p.n),
        flagged,
    };
    [m("p50", p.p50, false), m("p99", p.p99, p.p99_flagged())]
}

fn timed_events(c: &Checked) -> u64 {
    c.checks.iter().map(|l| l.timed_events).sum()
}

/// Saturate part: events delivered through the sinks ÷ wall time from
/// the first push to the last emission delivered.
fn events_per_s(c: &Checked) -> f64 {
    let secs = c.part.end.saturating_duration_since(c.part.start);
    ratio(timed_events(c) as f64, secs.as_secs_f64())
}

/// `num / den`, or 0 when there is nothing to divide by (a layer the
/// workload does not use).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median over rounds of `f` applied to each completed part
/// labelled `label`.
fn over_rounds(checked: &[Checked], label: &str, f: impl Fn(&Checked) -> f64) -> f64 {
    let v: Vec<f64> = checked
        .iter()
        .filter(|c| c.part.spec.label == label)
        .map(f)
        .collect();
    median(&v)
}

/// Each paced part's latencies are split into up to this many windows
/// of consecutive due times, each with at least `WINDOW_SAMPLES` phases.
const WINDOWS_PER_PART: usize = 6;
const WINDOW_SAMPLES: usize = 2000;

/// One summary per window of the part's latency samples, each sample
/// read by `f`.
fn latency_windows(c: &Checked, f: fn(&Latency) -> f64) -> Vec<Pct> {
    let mut all: Vec<Latency> = c
        .checks
        .iter()
        .flat_map(|l| l.latency_us.iter().copied())
        .collect();
    all.sort_unstable_by(|a, b| a.due.total_cmp(&b.due));
    let windows = (all.len() / WINDOW_SAMPLES).clamp(1, WINDOWS_PER_PART);
    let size = all.len().div_ceil(windows).max(1);
    all.chunks(size)
        .map(|w| Pct::of(&mut w.iter().map(f).collect::<Vec<_>>()))
        .collect()
}

/// Paced latency, robust to the shared machine's stalls: the median,
/// over every window of every round, of the window's p50 and p99.
fn latency_over_rounds(checked: &[Checked], label: &str, f: fn(&Latency) -> f64) -> Pct {
    let per: Vec<Pct> = checked
        .iter()
        .filter(|c| c.part.spec.label == label)
        .flat_map(|c| latency_windows(c, f))
        .collect();
    Pct {
        p50: median(&per.iter().map(|p| p.p50).collect::<Vec<_>>()),
        p99: median(&per.iter().map(|p| p.p99).collect::<Vec<_>>()),
        // The smallest window decides whether the p99 is flagged.
        n: per.iter().map(|p| p.n).min().unwrap_or(0),
    }
}

fn end_to_end(checked: &[Checked]) -> Vec<Metric> {
    let mut v = vec![metric(
        "events_per_s",
        over_rounds(checked, "saturate", events_per_s),
        "ev/s",
    )];
    for label in ["low", "high"] {
        let lat = latency_over_rounds(checked, label, |l| l.us);
        v.extend(pct_metrics(&format!("lat_{label}"), "_us", lat, "us"));
    }
    let cpu = over_rounds(checked, "saturate", |c| {
        c.part.cpu_s * 1e6 / timed_events(c).max(1) as f64
    });
    v.push(metric("cpu_us_per_event", cpu, "us"));
    // The saturate part holds the most events in flight and on record.
    let rss = over_rounds(checked, "saturate", |c| c.peak_rss_mib);
    v.push(metric("peak_rss_mib", rss, "MiB"));
    let setups: Vec<f64> = checked.iter().map(|c| c.part.setup_s).collect();
    v.push(metric("setup_s", median(&setups), "s"));
    // How much of the paced latency is the epoch filling up, which the
    // pace and `ByCount` set (recorded, not gated).
    for label in ["low", "high"] {
        let fill = latency_over_rounds(checked, label, |l| l.fill_us);
        v.push(metric(&format!("lat_{label}_fill_p50_us"), fill.p50, "us"));
    }
    v
}

/// Sum over lanes of a counter's growth across the timed window.
fn delta(lanes: &[LaneOut], f: impl Fn(&MetricsSnapshot) -> u64) -> u64 {
    lanes
        .iter()
        .map(|l| f(&l.m1).saturating_sub(f(&l.m0)))
        .sum()
}

fn per_layer<'a>(
    kind: Kind,
    find: &impl Fn(&str) -> Option<&'a Checked>,
    checked: &[Checked],
    checker: Option<&Tracer>,
) -> Vec<Metric> {
    let mut v = Vec::new();
    let empty = Checked {
        part: placeholder_part(),
        checks: Vec::new(),
        peak_rss_mib: 0.0,
    };
    let sat = find("saturate").unwrap_or(&empty);
    let lanes = &sat.part.lanes;
    let events = timed_events(sat).max(1) as f64;
    let per_event = |x: u64| x as f64 / events;
    let per_k = |x: u64, base: u64| ratio(x as f64 * 1000.0, base as f64);
    let durations = |name: &str, scale: f64| {
        let mut d: Vec<f64> = lanes
            .iter()
            .flat_map(|l| &l.tracers)
            .flat_map(|t| t.durations(name))
            .map(|ns| ns / scale)
            .collect();
        Pct::of(&mut d)
    };
    let phases = delta(lanes, |m| m.phases_completed);
    // Scheduler counters are pool-wide on `serve`: every tenant's
    // snapshot carries the same values, so read them once.
    let sched = |f: fn(&MetricsSnapshot) -> u64| delta(&lanes[..lanes.len().min(1)], f);
    let hist = |f: fn(&MetricsSnapshot) -> &HistogramSnapshot| {
        let mut it = lanes.iter().map(|l| f(&l.m1).clone());
        let first = it.next();
        first.map(|mut h| {
            for other in it {
                h.merge(&other);
            }
            h
        })
    };

    // ingest
    v.extend(pct_metrics(
        "ingest.push",
        "_ns",
        durations("ingest.push", 1.0),
        "ns",
    ));
    v.push(metric(
        "ingest.waits_per_kevent",
        per_k(delta(lanes, |m| m.ingest.waits), timed_events(sat)),
        "1/kevent",
    ));
    let (se, sb) = (
        delta(lanes, |m| m.ingest.seal_events),
        delta(lanes, |m| m.ingest.seal_batches),
    );
    v.push(metric(
        "ingest.mean_seal_batch",
        ratio(se as f64, sb as f64),
        "events",
    ));
    // runtime
    v.extend(pct_metrics(
        "runtime.seal_push",
        "_us",
        durations("runtime.seal_push", 1e3),
        "us",
    ));
    let phase_hist = hist(|m| &m.latency.phase);
    let (p50, p99, n) = phase_hist.map_or((0.0, 0.0, 0), |h| {
        (
            h.p50() as f64 / 1e3,
            h.p99() as f64 / 1e3,
            h.count() as usize,
        )
    });
    v.extend(pct_metrics(
        "runtime.phase",
        "_us",
        Pct { p50, p99, n },
        "us",
    ));
    // core
    v.push(metric(
        "core.critical_ns_per_event",
        per_event(delta(lanes, |m| m.critical_nanos)),
        "ns/event",
    ));
    v.push(metric(
        "core.lock_wait_ns_per_event",
        per_event(delta(lanes, |m| m.lock_wait_nanos)),
        "ns/event",
    ));
    let exec = delta(lanes, |m| m.exec_nanos);
    let book = delta(lanes, |m| m.critical_nanos) + delta(lanes, |m| m.lock_wait_nanos);
    v.push(metric(
        "core.bookkeeping_ratio",
        ratio(book as f64, exec as f64),
        "ratio",
    ));
    v.push(metric(
        "core.parks_per_kphase",
        per_k(sched(|m| m.scheduler.parks), phases),
        "1/kphase",
    ));
    v.push(metric(
        "core.wakes_per_kphase",
        per_k(sched(|m| m.scheduler.wakes), phases),
        "1/kphase",
    ));
    v.push(metric(
        "core.steals_per_kphase",
        per_k(sched(|m| m.scheduler.steals), phases),
        "1/kphase",
    ));
    let (cs, cn) = (
        delta(lanes, |m| m.concurrent_phase_sum),
        delta(lanes, |m| m.concurrent_phase_samples),
    );
    v.push(metric(
        "core.mean_concurrent_phases",
        ratio(cs as f64, cn as f64),
        "phases",
    ));
    v.push(metric(
        "core.max_concurrent_phases",
        lanes
            .iter()
            .map(|l| l.m1.max_concurrent_phases)
            .max()
            .unwrap_or(0) as f64,
        "phases",
    ));
    // fusion
    let execs = delta(lanes, |m| m.executions);
    v.push(metric(
        "fusion.exec_ns_per_event",
        per_event(exec),
        "ns/event",
    ));
    let exec_hist = hist(|m| &m.latency.exec);
    let mut m = metric(
        "fusion.exec_p50_ns",
        exec_hist.as_ref().map_or(0.0, |h| h.p50() as f64),
        "ns",
    );
    m.samples = exec_hist.as_ref().map(|h| h.count() as usize);
    v.push(m);
    v.push(metric(
        "fusion.execs_per_event",
        per_event(execs),
        "1/event",
    ));
    v.push(metric(
        "fusion.messages_per_event",
        per_event(delta(lanes, |m| m.messages_sent)),
        "1/event",
    ));
    let silent = delta(lanes, |m| m.silent_executions);
    // Useful outcomes (executions that sent something) per attempt.
    v.push(metric(
        "fusion.silent_frac",
        ratio(execs.saturating_sub(silent) as f64, execs as f64),
        "ratio",
    ));
    // store (serve only: the other workloads have no store)
    let wal = hist(|m| &m.latency.wal_commit).filter(|h| h.count() > 0);
    let (p50, p99, n) = wal.map_or((0.0, 0.0, 0), |h| {
        (h.p50() as f64, h.p99() as f64, h.count() as usize)
    });
    v.extend(pct_metrics(
        "store.wal_commit",
        "_ns",
        Pct { p50, p99, n },
        "ns",
    ));
    let all_events: u64 = lanes.iter().map(|l| l.events).sum();
    v.push(metric(
        "store.wal_bytes_per_event",
        ratio(sat.part.store_bytes as f64, all_events as f64),
        "B/event",
    ));
    // sessions
    let rates: Vec<f64> = lanes
        .iter()
        .zip(&sat.checks)
        .map(|(l, c)| {
            let secs = l.end.saturating_duration_since(sat.part.start);
            ratio(c.timed_events as f64, secs.as_secs_f64())
        })
        .collect();
    let skew = match (
        rates.iter().copied().reduce(f64::max),
        rates.iter().copied().reduce(f64::min),
    ) {
        (Some(hi), Some(lo)) if rates.len() > 1 && lo > 0.0 => hi / lo,
        _ => 0.0,
    };
    v.push(metric("sessions.tenant_rate_skew", skew, "ratio"));
    let mut depths: Vec<f64> = lanes
        .iter()
        .flat_map(|l| l.depth_samples.iter().map(|&d| d as f64))
        .collect();
    depths.sort_unstable_by(f64::total_cmp);
    let mut m = metric("sessions.lane_depth_p99", quantile(&depths, 0.99), "tasks");
    m.samples = Some(depths.len());
    m.flagged = kind == Kind::Serve && depths.len() < stats::MIN_P99_SAMPLES;
    v.push(m);
    // serve
    v.extend(pct_metrics(
        "serve.push_batch",
        "_us",
        durations("serve.push_batch", 1e3),
        "us",
    ));
    let (w0, w1) = sat.part.wire.clone().unwrap_or_default();
    v.push(metric(
        "serve.frames_in_per_kevent",
        per_k(w1.frames_in - w0.frames_in, timed_events(sat)),
        "1/kevent",
    ));
    v.push(metric(
        "serve.flow_blocks",
        (w1.flow_blocks - w0.flow_blocks) as f64,
        "count",
    ));
    v.push(metric(
        "serve.crash_closes",
        w1.crash_closes as f64,
        "count",
    ));
    // oracle: the single-threaded baseline on the saturate part's script
    let (oe, os) = sat.checks.iter().fold((0u64, 0.0), |(e, s), c| {
        (e + c.oracle_events, s + c.oracle_s)
    });
    let oracle_rate = ratio(oe as f64, os);
    v.push(metric("oracle.events_per_s", oracle_rate, "ev/s"));
    let plain = find("saturate_untraced").map_or(0.0, events_per_s);
    v.push(metric("oracle.speedup", ratio(plain, oracle_rate), "x"));
    // generator
    for label in ["low", "high"] {
        let (late, backlog) = find(label).map_or((Pct::default(), 0.0), generator_lag);
        v.extend(pct_metrics(&format!("gen.{label}.late"), "_us", late, "us"));
        v.push(metric(
            &format!("gen.{label}.backlog_end_events"),
            backlog,
            "events",
        ));
    }
    // tracing overhead
    let traced = events_per_s(sat);
    v.push(metric(
        "obs.trace_overhead_pct",
        ratio((plain - traced) * 100.0, plain),
        "%",
    ));
    // self time per layer, over every traced part
    let tracers = checked
        .iter()
        .filter(|c| c.part.spec.traced)
        .flat_map(|c| {
            c.part
                .tracer
                .iter()
                .chain(c.part.lanes.iter().flat_map(|l| &l.tracers))
        })
        .chain(checker);
    let traced_events: u64 = checked
        .iter()
        .filter(|c| c.part.spec.traced)
        .map(|c| c.part.lanes.iter().map(|l| l.events).sum::<u64>())
        .sum();
    let totals = trace::self_times(tracers);
    for name in SPANS {
        let own = totals.get(name).map_or(0, |t| t.2);
        v.push(metric(
            &format!("span.{name}.self_ns_per_event"),
            own as f64 / traced_events.max(1) as f64,
            "ns/event",
        ));
    }
    v
}

/// Spans whose self time is reported per event.
const SPANS: [&str; 9] = [
    "setup",
    "ingest.push",
    "runtime.seal_push",
    "runtime.flush",
    "runtime.wait_idle",
    "runtime.deliver",
    "serve.push_batch",
    "serve.seal",
    "oracle.run",
];

/// How late the generator started its pushes, and how many events were
/// still unpushed when the paced window ended.
fn generator_lag(c: &Checked) -> (Pct, f64) {
    let period = c.part.period;
    let mut late: Vec<f64> = Vec::new();
    let mut backlog = 0u64;
    for lane in &c.part.lanes {
        let window = period * lane.late_ns.len() as f64;
        for (j, &ns) in lane.late_ns.iter().enumerate() {
            late.push(ns as f64 / 1e3);
            if period * j as f64 + ns as f64 / 1e9 > window {
                backlog += c.part.unit_len;
            }
        }
    }
    (Pct::of(&mut late), backlog as f64)
}

fn placeholder_part() -> PartOut {
    PartOut {
        spec: PartSpec {
            label: "absent",
            round: 0,
            mode: Mode::Saturate,
            window: Duration::ZERO,
            traced: false,
            attempt: 1,
        },
        setup_s: 0.0,
        start: Instant::now(),
        end: Instant::now(),
        cpu_s: 0.0,
        period: 0.0,
        unit_len: 1,
        lanes: Vec::new(),
        wire: None,
        store_bytes: 0,
        tracer: None,
    }
}

fn part_summary(c: &Checked) -> String {
    let sum = |f: fn(&LaneCheck) -> u64| c.checks.iter().map(f).sum::<u64>();
    let notes: Vec<String> = c
        .checks
        .iter()
        .flat_map(|l| l.notes.iter())
        .chain(c.part.lanes.iter().flat_map(|l| l.errors.iter()))
        .map(|n| json_str(n))
        .collect();
    format!(
        "{{\"part\":{},\"window_s\":{},\"setup_s\":{},\"events_per_s\":{},\"cpu_s\":{},\
         \"peak_rss_mib\":{},\"events\":{},\"timed_events\":{},\
         \"failed\":{},\"mismatched_phases\":{},\"missing_phases\":{},\"lost\":{},\
         \"uncommitted\":{},\"oracle_s\":{},\"notes\":[{}]}}",
        json_str(c.part.spec.label),
        json_num(c.part.spec.window.as_secs_f64()),
        json_num(c.part.setup_s),
        json_num(events_per_s(c)),
        json_num(c.part.cpu_s),
        json_num(c.peak_rss_mib),
        sum(|l| l.attempted),
        sum(|l| l.timed_events),
        sum(|l| l.failed),
        sum(|l| l.mismatched_phases),
        sum(|l| l.missing_phases),
        sum(|l| l.lost),
        sum(|l| l.uncommitted),
        json_num(c.checks.iter().map(|l| l.oracle_s).sum()),
        notes.join(",")
    )
}

impl Run {
    /// Human-readable lines: every metric with its unit and, for
    /// percentiles, its sample count.
    pub fn table(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .metrics
            .iter()
            .chain(&self.extra)
            .map(|m| {
                let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
                let flag = if m.flagged {
                    "  [p99 from < 1000 samples]"
                } else {
                    ""
                };
                format!("{:<44} {:>16.4} {}{n}{flag}", m.name, m.value, m.unit)
            })
            .collect();
        lines.push(format!(
            "correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        ));
        for f in &self.stalls {
            lines.push(format!("STALLED part {} (run again): {}", f.part, f.reason));
        }
        for f in &self.failures {
            lines.push(format!("FAILED part {}: {}", f.part, f.reason));
        }
        lines
    }

    fn metrics_json<'m>(metrics: impl Iterator<Item = &'m Metric>, detailed: bool) -> String {
        let items: Vec<String> = metrics
            .map(|m| {
                let mut s = format!(
                    "{}:{{\"value\":{},\"unit\":{}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                );
                if detailed {
                    if let Some(n) = m.samples {
                        s.push_str(&format!(",\"samples\":{n},\"p99_flagged\":{}", m.flagged));
                    }
                }
                s.push('}');
                s
            })
            .collect();
        format!("{{{}}}", items.join(","))
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            Self::metrics_json(self.metrics.iter(), false)
        )
    }

    /// The self-describing run record.
    pub fn record_json(&self, args: &Args) -> String {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        let listed = |fs: &[Failure]| {
            fs.iter()
                .map(|f| {
                    format!(
                        "{{\"part\":{},\"reason\":{},\"events\":{},\"diagnosis\":{}}}",
                        json_str(f.part),
                        json_str(&f.reason),
                        f.events,
                        json_str(&f.diagnosis)
                    )
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        let (low, high) = args.kind.rates();
        format!(
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"git_sha\":{},\
             \"rustc\":{},\"profile\":{},\"available_parallelism\":{},\"workers\":{},\
             \"generator_threads\":{},\"connections\":{},\
             \"rates\":{{\"seed_saturated\":{},\"low\":{},\"high\":{}}},\
             \"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{},\"parts\":[{}],\
             \"failures\":[{}],\"stalls\":[{}],\"trace_file\":{}}}\n",
            json_str(args.kind.name()),
            args.seed,
            json_num(args.seconds),
            args.trace,
            json_str(&env("PERFBENCH_GIT_SHA")),
            json_str(&env("PERFBENCH_RUSTC")),
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            WORKERS,
            args.kind.lanes(),
            if args.kind == Kind::Serve {
                args.kind.lanes()
            } else {
                0
            },
            json_num(args.kind.seed_rate()),
            json_num(low),
            json_num(high),
            self.correct,
            self.attempted,
            self.failed,
            Self::metrics_json(self.metrics.iter().chain(&self.extra), true),
            self.parts.join(","),
            listed(&self.failures),
            listed(&self.stalls),
            self.trace_file
                .as_ref()
                .map_or("null".into(), |p| json_str(&p.display().to_string())),
        )
    }
}
