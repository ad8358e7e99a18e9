//! The correctness check of every run, done after the timed window:
//! the committed script must hold exactly the events the generator
//! pushed, and the delivered `(phase, sink, value)` stream must equal
//! the sequential oracle's run over that script.

use crate::part::LaneOut;
use crate::trace::{Id, Tracer};
use crate::workload::{self, Kind};
use ec_core::SinkRecord;
use ec_events::Value;
use ec_fusion::CorrelatorBuilder;
use std::time::Instant;

/// One lane's verdict.
#[derive(Debug, Default)]
pub struct LaneCheck {
    pub attempted: u64,
    /// Refused, unacked, never committed, or in a phase whose delivered
    /// emissions differ from the oracle's or never arrived.
    pub failed: u64,
    /// Phases whose committed inputs or delivered emissions are wrong.
    pub mismatched_phases: u64,
    /// Phases with an oracle emission that was never delivered.
    pub missing_phases: u64,
    pub lost: u64,
    pub uncommitted: u64,
    /// Timed (post-warmup) events in correctly delivered phases.
    pub timed_events: u64,
    /// Per timed phase (paced parts only): the due time of the phase's
    /// latest event in seconds from the part's start, and in µs how long
    /// after it the phase's emission was delivered and how much of that
    /// was spent waiting for the epoch to fill.
    pub latency_us: Vec<Latency>,
    pub oracle_s: f64,
    pub oracle_events: u64,
    /// Event index → phase it committed in (0: never).
    pub event_phase: Vec<u32>,
    pub notes: Vec<String>,
}

/// One paced phase's latency sample.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub due: f64,
    pub us: f64,
    /// From the due time of the phase's latest event to that of the
    /// push that sealed its epoch: set by the pace and `ByCount`, not by
    /// the program's speed.
    pub fill_us: f64,
}

/// How a paced part scheduled its units.
#[derive(Debug, Clone, Copy)]
pub struct Pacing {
    pub start: Instant,
    pub period: f64,
    pub unit_len: u64,
}

/// Checks one lane. `corrupt` deliberately alters one expected
/// emission, which the check must then report.
pub fn check(
    kind: Kind,
    lane: &LaneOut,
    pacing: Option<Pacing>,
    corrupt: bool,
    tracer: Option<&mut Tracer>,
) -> LaneCheck {
    let mut c = LaneCheck {
        attempted: lane.events,
        ..LaneCheck::default()
    };
    let script = &lane.script;
    let phases = script.phases() as usize;
    let sources = workload::source_count(kind);

    // 1. The committed inputs: per source, FIFO, exactly the accepted
    //    pushes.
    let mut lost_ranges = lane.lost.clone();
    lost_ranges.sort_unstable();
    c.lost = lost_ranges.iter().map(|r| r.1).sum();
    let mut by_source: Vec<Vec<u32>> = vec![Vec::new(); sources];
    let mut next_lost = 0;
    for i in 0..lane.events {
        while next_lost < lost_ranges.len()
            && lost_ranges[next_lost].0 + lost_ranges[next_lost].1 <= i
        {
            next_lost += 1;
        }
        if lost_ranges.get(next_lost).is_some_and(|r| r.0 <= i) {
            continue;
        }
        by_source[lane.plan.source(i)].push(i as u32);
    }
    let mut bad = vec![false; phases + 1];
    let mut phase_events = vec![0u32; phases + 1];
    let mut latest = vec![0u32; phases + 1];
    c.event_phase = vec![0; lane.events as usize];
    if script.sources.len() != sources {
        c.notes
            .push(format!("script has {} sources", script.sources.len()));
    }
    for (s, pushed) in by_source.iter().enumerate().take(script.sources.len()) {
        let mut cursor = 0;
        for (p, bin) in script.column(s).enumerate() {
            let p = p + 1;
            let Some(v) = bin else { continue };
            phase_events[p] += 1;
            match pushed.get(cursor) {
                Some(&i) => {
                    c.event_phase[i as usize] = p as u32;
                    latest[p] = latest[p].max(i);
                    if v.as_f64() != Some(lane.plan.value(i as u64)) {
                        bad[p] = true;
                    }
                }
                None => bad[p] = true,
            }
            cursor += 1;
        }
        c.uncommitted += pushed.len().saturating_sub(cursor) as u64;
    }

    // 2. The oracle, on the same committed inputs.
    let t = Instant::now();
    let mut expected = run_oracle(kind, lane, tracer);
    c.oracle_s = t.elapsed().as_secs_f64();
    c.oracle_events = script.event_count() as u64;
    if corrupt && !expected.is_empty() {
        let mid = expected.len() / 2;
        let v = &mut expected[mid].value;
        *v = Value::Float(v.as_f64().unwrap_or(0.0) + 1.0);
    }

    // 3. Delivered vs expected, in serial (phase, vertex) order.
    let mut delivered_at: Vec<Option<Instant>> = vec![None; phases + 1];
    let (mut i, mut j) = (0, 0);
    let delivered: Vec<&crate::part::Delivered> = lane.delivered.iter().flatten().collect();
    let mut missing = vec![false; phases + 1];
    while i < expected.len() || j < delivered.len() {
        let e = expected
            .get(i)
            .map(|r| (r.phase.0, r.vertex.index() as u32));
        let d = delivered.get(j).map(|r| (r.phase, r.vertex));
        match (e, d) {
            (Some(ek), Some(dk)) if ek == dk => {
                let p = ek.0 as usize;
                if !expected[i].value.same_as(&delivered[j].value) {
                    bad[p] = true;
                }
                delivered_at[p] = Some(delivered[j].at);
                i += 1;
                j += 1;
            }
            (Some(ek), dk) if dk.is_none_or(|dk| ek < dk) => {
                missing[ek.0 as usize] = true;
                i += 1;
            }
            (_, Some(dk)) => {
                // Delivered but not expected (or out of order).
                if let Some(b) = bad.get_mut(dk.0 as usize) {
                    *b = true;
                } else {
                    c.notes
                        .push(format!("delivered phase {} beyond the script", dk.0));
                }
                j += 1;
            }
            (_, None) => unreachable!("loop condition"),
        }
    }
    for p in 1..=phases {
        if missing[p] || delivered_at[p].is_none() {
            c.missing_phases += 1;
            c.failed += phase_events[p] as u64;
        } else if bad[p] {
            c.mismatched_phases += 1;
            c.failed += phase_events[p] as u64;
        }
    }
    c.failed += c.lost + c.uncommitted;

    // 4. Throughput and latency over the timed phases. Epochs hold
    //    `EPOCH` consecutive pushes of the lane (warmup ends on an epoch
    //    boundary); the last one is sealed by the drain.
    let warm_units = pacing.map_or(0, |pc| lane.warm_events / pc.unit_len);
    let epoch = workload::EPOCH as u64;
    for p in (lane.warm_phases as usize + 1)..=phases {
        let (Some(at), false, false) = (delivered_at[p], bad[p], missing[p]) else {
            continue;
        };
        c.timed_events += phase_events[p] as u64;
        if let Some(pc) = pacing {
            let latest = latest[p] as u64;
            let sealer = ((latest / epoch + 1) * epoch - 1).min(lane.events.saturating_sub(1));
            let unit = latest / pc.unit_len - warm_units;
            let due = pc.period * unit as f64;
            let got = at.saturating_duration_since(pc.start).as_secs_f64();
            let fill_units = sealer / pc.unit_len - latest / pc.unit_len;
            c.latency_us.push(Latency {
                due,
                us: (got - due) * 1e6,
                fill_us: pc.period * fill_units as f64 * 1e6,
            });
        }
    }
    c
}

/// Runs the sequential oracle over the lane's committed script and
/// returns its sink outputs in `(phase, vertex)` order. A traced run
/// times the oracle as the single-threaded baseline, so its operators
/// keep their synthetic work; otherwise only the outputs matter.
fn run_oracle(kind: Kind, lane: &LaneOut, tracer: Option<&mut Tracer>) -> Vec<SinkRecord> {
    let spin = tracer.is_some();
    let run = || {
        let mut b = CorrelatorBuilder::new();
        let mut column = 0;
        workload::wire(kind, &mut b, spin, |b, name| {
            let replay = lane.script.replay(column);
            column += 1;
            b.source(name, replay)
        });
        let mut oracle = b.sequential().expect("oracle graph builds");
        oracle
            .run(lane.script.phases())
            .expect("oracle runs the committed script");
        oracle.into_history().sink_outputs().to_vec()
    };
    match tracer {
        Some(t) => t.span("oracle.run", Id::None, run),
        None => run(),
    }
}
