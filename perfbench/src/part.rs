//! One part of a run: set up the program, warm it, drive it with a
//! closed (saturate) or open (paced) loop, drain it and tear it down.
//! Everything here calls the program's public API only.

use crate::stats::{cpu_seconds, dir_bytes};
use crate::trace::{Id, Tracer};
use crate::watchdog::Watch;
use crate::workload::{self, Kind, Plan, EPOCH, TENANTS};
use crate::WORKERS;
use ec_core::MetricsSnapshot;
use ec_events::Value;
use ec_fusion::CorrelatorBuilder;
use ec_runtime::serve::Role;
use ec_runtime::{
    Backpressure, EpochPolicy, PhaseScript, RuntimeProbe, SessionPool, SinkEmission, SourceHandle,
    StreamRuntime, StreamRuntimeBuilder, WireClient, WireServer,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Settings shared by every part of a run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub kind: Kind,
    pub seed: u64,
    pub origin: Instant,
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Closed loop: push a fixed number of events as fast as the
    /// runtime accepts them.
    Saturate,
    /// Open loop at this many events/s across all lanes.
    Paced(f64),
}

#[derive(Debug, Clone)]
pub struct PartSpec {
    pub label: &'static str,
    pub round: u64,
    pub mode: Mode,
    pub window: Duration,
    pub traced: bool,
    /// Runs of this part so far, from 1: a stalled part is run again
    /// on the same inputs with a fresh program and store.
    pub attempt: u32,
}

impl PartSpec {
    /// Distinguishes the parts' seeded inputs.
    pub fn index(&self) -> u64 {
        let slot = match self.mode {
            Mode::Saturate => u64::from(self.traced),
            Mode::Paced(_) if self.label == "low" => 2,
            Mode::Paced(_) => 3,
        };
        self.round * 4 + slot
    }
}

/// A sink emission as a subscriber received it.
#[derive(Debug, Clone)]
pub struct Delivered {
    pub phase: u64,
    pub vertex: u32,
    pub value: Value,
    pub at: Instant,
}

/// Deliveries are kept in fixed-size chunks: growing one large vector
/// would copy it inside the subscriber callback and stall delivery.
const CHUNK: usize = 1 << 16;

#[derive(Default)]
struct SinkState {
    chunks: Vec<Vec<Delivered>>,
    tracer: Option<Tracer>,
}

impl SinkState {
    fn push(&mut self, d: Delivered) {
        match self.chunks.last_mut() {
            Some(c) if c.len() < CHUNK => c.push(d),
            _ => {
                let mut c = Vec::with_capacity(CHUNK);
                c.push(d);
                self.chunks.push(c);
            }
        }
    }

    fn last(&self) -> Option<&Delivered> {
        self.chunks.last().and_then(|c| c.last())
    }
}

/// The benchmark's subscriber on one runtime.
struct Sink {
    state: Mutex<SinkState>,
    /// Highest phase delivered so far.
    last_phase: AtomicU64,
    /// Each delivery is progress for the watchdog.
    watch: Watch,
}

impl Sink {
    fn new(watch: &Watch) -> Arc<Sink> {
        Arc::new(Sink {
            state: Mutex::default(),
            last_phase: AtomicU64::new(0),
            watch: watch.clone(),
        })
    }

    fn subscriber(self: &Arc<Self>) -> impl FnMut(&SinkEmission) + Send + 'static {
        let sink = Arc::clone(self);
        move |e| {
            let at = Instant::now();
            let mut st = sink.state.lock().expect("sink lock");
            st.push(Delivered {
                phase: e.phase,
                vertex: e.vertex.index() as u32,
                value: e.value.clone(),
                at,
            });
            if let Some(t) = st.tracer.as_mut() {
                t.record("runtime.deliver", Id::Phase(e.phase), at, Instant::now());
            }
            drop(st);
            sink.last_phase.store(e.phase, Ordering::Release);
            sink.watch.tick();
        }
    }

    /// Polls until phase `through` has been delivered (every workload's
    /// tap emits in every phase). The watchdog bounds the wait.
    fn wait_delivered(&self, through: u64) {
        while self.last_phase.load(Ordering::Acquire) < through {
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn last_at(&self) -> Option<Instant> {
        self.state.lock().expect("sink lock").last().map(|d| d.at)
    }
}

enum Producer {
    Local {
        handles: Vec<SourceHandle>,
        since_seal: usize,
    },
    Wire {
        client: Box<WireClient>,
        sources: Vec<u32>,
        values: Vec<Value>,
        probe: RuntimeProbe,
    },
}

/// One generator thread's state: its producer, its seeded event plan
/// and what happened to what it pushed.
pub struct Lane {
    pub index: u8,
    pub plan: Plan,
    producer: Producer,
    unit_len: u64,
    watch: Watch,
    /// Next unit (push call) to send; unit `k` carries events
    /// `k*unit_len ..`.
    next_unit: u64,
    /// `(first event, count)` ranges that were refused or never acked.
    pub lost: Vec<(u64, u64)>,
    pub errors: Vec<String>,
    /// Paced parts: how late each unit's push started, in ns.
    pub late_ns: Vec<u64>,
    /// Traced `serve` parts: sampled admission-lane depths.
    pub depth_samples: Vec<u64>,
    pub tracer: Option<Tracer>,
}

impl Lane {
    fn events(&self) -> u64 {
        self.next_unit * self.unit_len
    }

    fn lose(&mut self, first: u64, count: u64, err: String) {
        self.lost.push((first, count));
        if self.errors.len() < 4 {
            self.errors.push(err);
        }
    }

    fn push_next(&mut self) {
        let k = self.next_unit;
        self.next_unit += 1;
        self.watch.count(self.unit_len);
        match &mut self.producer {
            Producer::Local {
                handles,
                since_seal,
            } => {
                let (s, v) = (self.plan.source(k), self.plan.value(k));
                if let Some(t) = self.tracer.as_mut() {
                    t.begin("ingest.push", Id::Event(k));
                }
                let r = handles[s].push(v);
                // The single producer knows which of its pushes crosses
                // the ByCount threshold and so seals inline.
                *since_seal += 1;
                let sealed = *since_seal == EPOCH;
                if sealed {
                    *since_seal = 0;
                }
                if let Some(t) = self.tracer.as_mut() {
                    t.end(sealed.then_some("runtime.seal_push"));
                }
                if let Err(e) = r {
                    self.lose(k, 1, format!("push refused: {e}"));
                }
            }
            Producer::Wire {
                client,
                sources,
                values,
                probe,
            } => {
                let first = k * self.unit_len;
                let source = sources[self.plan.source(first)];
                values.clear();
                values.extend(
                    (first..first + self.unit_len).map(|i| Value::Float(self.plan.value(i))),
                );
                if let Some(t) = self.tracer.as_mut() {
                    t.begin("serve.push_batch", Id::Event(first + self.unit_len - 1));
                }
                let r = client.push_batch(source, values);
                if let Some(t) = self.tracer.as_mut() {
                    t.end(None);
                    if k.is_multiple_of(16) {
                        self.depth_samples
                            .push(probe.metrics().scheduler.injector_depth);
                    }
                }
                match r {
                    Ok(n) if n as u64 == self.unit_len => {}
                    Ok(n) => {
                        let n = n as u64;
                        self.lose(
                            first + n,
                            self.unit_len - n,
                            format!("batch acked {n} events"),
                        );
                    }
                    Err(e) => self.lose(first, self.unit_len, format!("push_batch failed: {e}")),
                }
            }
        }
    }

    fn run_units(&mut self, n: u64) {
        for _ in 0..n {
            self.push_next();
        }
    }

    /// Open loop: unit `j` is due at `start + j*period`. The generator
    /// sleeps while it is ahead and never spins, so it does not take a
    /// core from the workers; when it falls behind it pushes every
    /// overdue unit back to back.
    fn run_paced(&mut self, start: Instant, units: u64, period: f64) {
        self.late_ns.reserve(units as usize);
        for j in 0..units {
            let due = start + Duration::from_secs_f64(period * j as f64);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            self.late_ns
                .push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
            self.push_next();
        }
    }

    /// Ends the lane's input: on the wire a `Seal` frame commits the
    /// tenant's buffered events.
    fn seal(&mut self) {
        if let Producer::Wire { client, .. } = &mut self.producer {
            if let Some(t) = self.tracer.as_mut() {
                t.begin("serve.seal", Id::None);
            }
            let r = client.seal();
            if let Some(t) = self.tracer.as_mut() {
                t.end(None);
            }
            if let Err(e) = r {
                if self.errors.len() < 4 {
                    self.errors.push(format!("seal failed: {e}"));
                }
            }
        }
    }

    fn flushed(&mut self) {
        if let Producer::Local { since_seal, .. } = &mut self.producer {
            *since_seal = 0;
        }
    }
}

/// Runs `f` on every lane: inline for one lane, one scoped thread per
/// lane otherwise.
fn on_lanes(lanes: &mut [Lane], f: impl Fn(&mut Lane) + Sync) {
    if let [lane] = lanes {
        f(lane);
        return;
    }
    std::thread::scope(|s| {
        for lane in lanes.iter_mut() {
            let f = &f;
            s.spawn(move || f(lane));
        }
    });
}

/// The program objects of one part.
enum Instance {
    Local {
        rt: StreamRuntime,
        sink: Arc<Sink>,
    },
    Serve {
        server: Arc<WireServer>,
        names: Vec<String>,
        sinks: Vec<Arc<Sink>>,
        dir: PathBuf,
    },
}

fn runtime_builder(ctx: &Ctx, sink: &Arc<Sink>) -> StreamRuntimeBuilder {
    let mut correlator = CorrelatorBuilder::new();
    let mut feeds = Vec::new();
    workload::wire(ctx.kind, &mut correlator, true, |b, name| {
        let (handle, writer) = b.live_source(name);
        feeds.push((name.to_string(), handle, writer));
        handle
    });
    StreamRuntimeBuilder::from_correlator(correlator, feeds)
        .threads(WORKERS)
        .epoch_policy(EpochPolicy::ByCount(EPOCH))
        .backpressure(Backpressure::Block)
        .record_history(false)
        .record_script(true)
        .subscribe(sink.subscriber())
}

impl Instance {
    fn build(
        ctx: &Ctx,
        spec: &PartSpec,
        watch: &Watch,
    ) -> Result<(Instance, Vec<Producer>), String> {
        let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
        match ctx.kind {
            Kind::Stream | Kind::Dag => {
                let sink = Sink::new(watch);
                let rt = runtime_builder(ctx, &sink)
                    .build()
                    .map_err(|e| err("runtime build", &e))?;
                let handles = rt
                    .live_source_names()
                    .iter()
                    .map(|n| rt.handle_by_name(n))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| err("source handle", &e))?;
                let producer = Producer::Local {
                    handles,
                    since_seal: 0,
                };
                Ok((Instance::Local { rt, sink }, vec![producer]))
            }
            Kind::Serve => {
                let dir = ctx.out_dir.join(format!(
                    "store-{}-{}-{}",
                    std::process::id(),
                    spec.index(),
                    spec.attempt
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let pool = SessionPool::builder()
                    .threads(WORKERS)
                    .max_sessions(TENANTS)
                    .durable_root(&dir)
                    .build();
                let sinks: Vec<Arc<Sink>> = (0..TENANTS).map(|_| Sink::new(watch)).collect();
                let sessions = sinks
                    .iter()
                    .enumerate()
                    .map(|(t, sink)| pool.open(format!("tenant-{t}"), runtime_builder(ctx, sink)))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| err("session open", &e))?;
                watch.tick();
                let server = WireServer::builder()
                    .bind("127.0.0.1:0", pool, sessions)
                    .map_err(|e| err("wire bind", &e))?;
                let names = server.tenant_names();
                let addr = server.local_addr().to_string();
                let mut producers = Vec::new();
                for name in &names {
                    let client = WireClient::connect(addr.as_str(), "", name, Role::Producer)
                        .map_err(|e| err("producer connect", &e))?;
                    watch.tick();
                    let sources = ["s1", "s2"]
                        .iter()
                        .map(|s| client.source_index(s).ok_or(format!("tenant has no {s}")))
                        .collect::<Result<Vec<_>, _>>()?;
                    let probe = server.tenant(name).ok_or("tenant vanished")?.probe();
                    producers.push(Producer::Wire {
                        client: Box::new(client),
                        sources,
                        values: Vec::new(),
                        probe,
                    });
                }
                let server = Arc::new(server);
                Ok((
                    Instance::Serve {
                        server,
                        names,
                        sinks,
                        dir,
                    },
                    producers,
                ))
            }
        }
    }

    fn sinks(&self) -> Vec<&Arc<Sink>> {
        match self {
            Instance::Local { sink, .. } => vec![sink],
            Instance::Serve { sinks, .. } => sinks.iter().collect(),
        }
    }

    fn probes(&self) -> Vec<RuntimeProbe> {
        match self {
            Instance::Local { rt, .. } => vec![rt.probe()],
            Instance::Serve { server, names, .. } => names
                .iter()
                .filter_map(|n| server.tenant(n).map(|t| t.probe()))
                .collect(),
        }
    }

    /// Flushes (locally) or seals (over the wire) every lane, waits for
    /// the runtimes to go idle and for every phase to be delivered.
    fn drain(&self, lanes: &mut [Lane], tracer: &mut Option<Tracer>) -> Result<(), String> {
        match self {
            Instance::Local { rt, .. } => {
                span(tracer, "runtime.flush", || rt.flush()).map_err(|e| format!("flush: {e}"))?;
                lanes.iter_mut().for_each(Lane::flushed);
            }
            Instance::Serve { .. } => on_lanes(lanes, Lane::seal),
        }
        for (i, sink) in self.sinks().into_iter().enumerate() {
            let through = match self {
                Instance::Local { rt, .. } => {
                    span(tracer, "runtime.wait_idle", || rt.wait_idle())
                        .map_err(|e| format!("wait_idle: {e}"))?;
                    rt.admitted()
                }
                Instance::Serve { server, names, .. } => {
                    let tenant = server.tenant(&names[i]).ok_or("tenant vanished")?;
                    span(tracer, "runtime.wait_idle", || tenant.wait_idle())
                        .map_err(|e| format!("wait_idle {}: {e}", names[i]))?;
                    tenant.admitted()
                }
            };
            sink.wait_delivered(through);
        }
        Ok(())
    }

    fn diagnosis(&self) -> impl Fn() -> String + Send + 'static {
        let probes = self.probes();
        let server = match self {
            Instance::Serve { server, .. } => Some(Arc::clone(server)),
            Instance::Local { .. } => None,
        };
        move || {
            let mut out = String::new();
            for (i, p) in probes.iter().enumerate() {
                let m = p.metrics();
                out.push_str(&format!(
                    "lane {i}: admitted={} completed_through={} events_committed={} buffered={} \
                     inflight={} parks={} wakes={} worker_queue_depths={:?} injector_or_lane_depth={} \
                     ingest_depths={:?} metrics={}\n",
                    p.admitted(),
                    p.completed_through(),
                    p.events_committed(),
                    p.buffered(),
                    m.phases_started.saturating_sub(m.phases_completed),
                    m.scheduler.parks,
                    m.scheduler.wakes,
                    m.scheduler.worker_queue_depths,
                    m.scheduler.injector_depth,
                    m.ingest.depths,
                    m.to_json()
                ));
            }
            if let Some(server) = &server {
                out.push_str(&format!("wire: {:?}\n", server.stats()));
            }
            out
        }
    }

    /// Shuts the program down; returns each lane's committed script
    /// and the bytes the durable store held.
    fn teardown(self) -> Result<(Vec<PhaseScript>, u64), String> {
        match self {
            Instance::Local { rt, .. } => {
                let report = rt.shutdown().map_err(|e| format!("shutdown: {e}"))?;
                Ok((vec![report.script], 0))
            }
            Instance::Serve {
                server, names, dir, ..
            } => {
                let server = Arc::try_unwrap(server).map_err(|_| "wire server still shared")?;
                let mut reports = server.shutdown();
                let bytes = dir_bytes(&dir);
                let _ = std::fs::remove_dir_all(&dir);
                let mut scripts = Vec::new();
                for name in &names {
                    let i = reports
                        .iter()
                        .position(|(n, _)| n == name)
                        .ok_or(format!("no report for {name}"))?;
                    let (_, report) = reports.swap_remove(i);
                    scripts.push(report.map_err(|e| format!("shutdown {name}: {e}"))?.script);
                }
                Ok((scripts, bytes))
            }
        }
    }
}

fn span<R>(tracer: &mut Option<Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer.as_mut() {
        Some(t) => t.span(name, Id::None, f),
        None => f(),
    }
}

/// What one lane of a finished part hands to the oracle check.
pub struct LaneOut {
    pub plan: Plan,
    pub script: PhaseScript,
    /// In delivery order, in chunks.
    pub delivered: Vec<Vec<Delivered>>,
    /// Events and phases of the warmup, which precede the timed ones.
    pub warm_events: u64,
    pub warm_phases: u64,
    /// Events attempted, warmup included.
    pub events: u64,
    pub lost: Vec<(u64, u64)>,
    pub errors: Vec<String>,
    pub late_ns: Vec<u64>,
    pub depth_samples: Vec<u64>,
    /// Runtime counters after warmup and after the timed window.
    pub m0: MetricsSnapshot,
    pub m1: MetricsSnapshot,
    /// Last delivery of the timed window.
    pub end: Instant,
    pub tracers: Vec<Tracer>,
}

pub struct PartOut {
    pub spec: PartSpec,
    pub setup_s: f64,
    /// First timed push.
    pub start: Instant,
    /// Last delivery of the timed window, across lanes.
    pub end: Instant,
    /// Process CPU seconds over the timed window.
    pub cpu_s: f64,
    /// Seconds between due times of consecutive units of one lane.
    pub period: f64,
    pub unit_len: u64,
    pub lanes: Vec<LaneOut>,
    pub wire: Option<(
        ec_runtime::serve::WireStatsSnapshot,
        ec_runtime::serve::WireStatsSnapshot,
    )>,
    pub store_bytes: u64,
    pub tracer: Option<Tracer>,
}

/// Runs one part under `watch`. The caller's watchdog bounds it.
pub fn run(ctx: &Ctx, spec: &PartSpec, watch: &Watch) -> Result<PartOut, String> {
    let kind = ctx.kind;
    let unit_len = kind.unit_len() as u64;
    let mut tracer = spec
        .traced
        .then(|| Tracer::new(format!("{}:coordinator", spec.label), ctx.origin));
    let t0 = Instant::now();
    if let Some(t) = tracer.as_mut() {
        t.begin("setup", Id::None);
    }
    let (inst, producers) = Instance::build(ctx, spec, watch)?;
    let mut lanes: Vec<Lane> = producers
        .into_iter()
        .enumerate()
        .map(|(i, producer)| Lane {
            index: i as u8,
            plan: Plan::new(kind, ctx.seed, spec.index(), i as u64),
            producer,
            unit_len,
            watch: watch.clone(),
            next_unit: 0,
            lost: Vec::new(),
            errors: Vec::new(),
            late_ns: Vec::new(),
            depth_samples: Vec::new(),
            tracer: None,
        })
        .collect();
    watch.set_diag(inst.diagnosis());
    let warm_units = kind.warmup_events() / unit_len;
    on_lanes(&mut lanes, |lane| lane.run_units(warm_units));
    inst.drain(&mut lanes, &mut tracer)?;
    if let Some(t) = tracer.as_mut() {
        t.end(None);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let probes = inst.probes();
    let warm: Vec<(u64, u64)> = lanes
        .iter()
        .zip(&probes)
        .map(|(l, p)| (l.events(), p.admitted()))
        .collect();
    let m0: Vec<MetricsSnapshot> = probes.iter().map(RuntimeProbe::metrics).collect();
    let wire0 = match &inst {
        Instance::Serve { server, .. } => Some(server.stats()),
        Instance::Local { .. } => None,
    };
    if spec.traced {
        for lane in &mut lanes {
            lane.tracer = Some(Tracer::new(
                format!("{}:generator{}", spec.label, lane.index),
                ctx.origin,
            ));
        }
        for (i, sink) in inst.sinks().iter().enumerate() {
            sink.state.lock().expect("sink lock").tracer = Some(Tracer::new(
                format!("{}:deliver{i}", spec.label),
                ctx.origin,
            ));
        }
    }

    let cpu0 = cpu_seconds();
    let start = Instant::now();
    // Unit `j` of a lane is due at `start + j*period`; the saturate part
    // pushes the same number of units as fast as the runtime accepts.
    let rate = match spec.mode {
        Mode::Saturate => kind.seed_rate(),
        Mode::Paced(rate) => rate,
    };
    let period = unit_len as f64 * lanes.len() as f64 / rate;
    let units = (spec.window.as_secs_f64() / period).floor() as u64;
    match spec.mode {
        Mode::Saturate => on_lanes(&mut lanes, |lane| lane.run_units(units)),
        Mode::Paced(_) => on_lanes(&mut lanes, |lane| lane.run_paced(start, units, period)),
    }
    inst.drain(&mut lanes, &mut tracer)?;
    let cpu_s = cpu_seconds() - cpu0;
    let ends: Vec<Instant> = inst
        .sinks()
        .iter()
        .map(|s| s.last_at().unwrap_or(start))
        .collect();
    let end = ends.iter().copied().max().unwrap_or(start);
    let m1: Vec<MetricsSnapshot> = probes.iter().map(RuntimeProbe::metrics).collect();
    let wire = match &inst {
        Instance::Serve { server, .. } => wire0.map(|w0| (w0, server.stats())),
        Instance::Local { .. } => None,
    };
    drop(probes);
    watch.clear_diag();

    // Lanes go first: on `serve` that closes the producer connections
    // cleanly before the server shuts down.
    let mut lanes: Vec<LaneOut> = lanes
        .into_iter()
        .zip(inst.sinks())
        .zip(warm.into_iter().zip(m0.into_iter().zip(m1)))
        .zip(ends)
        .map(
            |(((lane, sink), ((warm_events, warm_phases), (m0, m1))), end)| {
                let st = std::mem::take(&mut *sink.state.lock().expect("sink lock"));
                LaneOut {
                    plan: lane.plan,
                    script: PhaseScript::default(),
                    delivered: st.chunks,
                    warm_events,
                    warm_phases,
                    events: lane.events(),
                    lost: lane.lost,
                    errors: lane.errors,
                    late_ns: lane.late_ns,
                    depth_samples: lane.depth_samples,
                    m0,
                    m1,
                    end,
                    tracers: lane.tracer.into_iter().chain(st.tracer).collect(),
                }
            },
        )
        .collect();
    watch.tick();
    let (scripts, store_bytes) = inst.teardown()?;
    for (lane, script) in lanes.iter_mut().zip(scripts) {
        lane.script = script;
    }
    Ok(PartOut {
        spec: spec.clone(),
        setup_s,
        start,
        end,
        cpu_s,
        period,
        unit_len,
        lanes,
        wire,
        store_bytes,
        tracer,
    })
}
