//! Wire-path tests for the `ec serve` TCP front end.
//!
//! The bar: traffic arriving over real sockets changes nothing about
//! the engine's guarantees. N remote producers pushing interleaved
//! batches to M tenants commit the exact same `PhaseScript` as the
//! in-process path, and the committed script replayed through the
//! sequential oracle reproduces the live history; a producer that
//! disconnects mid-epoch commits a clean FIFO prefix of its
//! acknowledged pushes; a full source surfaces as explicit
//! `FlowControl` frames and resumes; a slow subscriber is disconnected
//! rather than allowed to wedge retirement; and a killed server
//! restarts over its durable stores with every tenant at its exact
//! next phase.

use ec_core::ExecutionHistory;
use ec_events::Value;
use ec_fusion::operators::aggregate::Aggregate;
use ec_fusion::operators::moving::MovingAverage;
use ec_fusion::operators::threshold::Threshold;
use ec_runtime::serve::wire::{self, Frame, Role};
use ec_runtime::serve::{WireClient, WireServer};
use ec_runtime::{Backpressure, PhaseScript, SessionPool, StreamRuntime, StreamRuntimeBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn test_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("ec-runtime-serve-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The per-tenant graph (all operators snapshot-capable):
///
/// ```text
/// s1 ─┬─ sum ── avg(3) ── alarm(>10)
/// s2 ─┘
/// ```
fn tenant_builder() -> StreamRuntimeBuilder {
    let mut b = StreamRuntime::builder();
    let s1 = b.live_source("s1");
    let s2 = b.live_source("s2");
    let sum = b.add("sum", Aggregate::sum(), &[s1, s2]);
    let avg = b.add("avg", MovingAverage::new(3), &[sum]);
    b.add("alarm", Threshold::above(10.0), &[avg]);
    b
}

/// Runs the sequential oracle, uninterrupted, over a committed script
/// of the tenant graph.
fn oracle_history(script: &PhaseScript) -> ExecutionHistory {
    let mut b = ec_fusion::CorrelatorBuilder::new();
    let s1 = b.source("s1", script.replay(0));
    let s2 = b.source("s2", script.replay(1));
    let sum = b.add("sum", Aggregate::sum(), &[s1, s2]);
    let avg = b.add("avg", MovingAverage::new(3), &[sum]);
    b.add("alarm", Threshold::above(10.0), &[avg]);
    let mut seq = b.sequential().expect("oracle builds");
    seq.run(script.phases()).expect("oracle runs");
    seq.into_history()
}

fn serve(tenants: &[&str], build: impl Fn() -> StreamRuntimeBuilder) -> WireServer {
    let pool = SessionPool::builder()
        .threads(4)
        .max_sessions(tenants.len())
        .build();
    let sessions = tenants
        .iter()
        .map(|name| pool.open(name.to_string(), build()).unwrap())
        .collect();
    WireServer::builder()
        .bind("127.0.0.1:0", pool, sessions)
        .unwrap()
}

/// N remote producers over real TCP, pushing interleaved batches into
/// M tenants, commit exactly what the sequential oracle of the
/// committed script would — serializability survives the socket.
/// A wire subscriber sees the same emissions, in the same serial
/// order, as an in-process subscription on the same tenant.
#[test]
fn remote_producers_match_the_sequential_oracle() {
    let server = serve(&["alpha", "beta"], tenant_builder);
    let addr = server.local_addr().to_string();

    // In-process view of alpha's emissions, for the subscriber check.
    let inproc: Arc<Mutex<Vec<(u64, Value)>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let seen = Arc::clone(&inproc);
        server
            .tenant("alpha")
            .expect("alpha served")
            .subscribe(move |e| seen.lock().unwrap().push((e.phase, e.value.clone())));
    }
    let mut wire_sub = WireClient::connect(&addr, "", "alpha", Role::Subscriber).unwrap();
    wire_sub.subscribe().unwrap();

    // Two producers per tenant, each interleaving both sources with
    // occasional seals; batch sizes vary so wire batching is exercised.
    let mut workers = Vec::new();
    for (t, tenant) in ["alpha", "beta"].into_iter().enumerate() {
        for p in 0..2 {
            let addr = addr.clone();
            workers.push(std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64((t * 2 + p) as u64 + 7);
                let mut client = WireClient::connect(&addr, "", tenant, Role::Producer).unwrap();
                assert_eq!(client.sources(), ["s1", "s2"]);
                for _ in 0..30 {
                    let source = rng.gen_range(0u32..2);
                    let batch: Vec<Value> = (0..rng.gen_range(1usize..6))
                        .map(|_| Value::Float(rng.gen_range(-20i64..30) as f64))
                        .collect();
                    let accepted = client.push_batch(source, &batch).unwrap();
                    assert_eq!(accepted as usize, batch.len());
                    if rng.gen_range(0u32..4) == 0 {
                        client.seal().unwrap();
                    }
                }
                client.seal().unwrap();
            }));
        }
    }
    for w in workers {
        w.join().unwrap();
    }

    // Drain the wire subscriber until it has everything the in-process
    // subscription saw (both feed from the same serial delivery loop).
    // Delivery runs on its own thread and can lag retirement by one
    // ~50ms wakeup, so wait for the in-process stream to quiesce
    // before snapshotting it.
    server.tenant("alpha").unwrap().wait_idle().unwrap();
    let want = loop {
        let before = inproc.lock().unwrap().len();
        std::thread::sleep(Duration::from_millis(60));
        let after = inproc.lock().unwrap();
        if after.len() == before {
            break after.clone();
        }
    };
    let mut got: Vec<(u64, Value)> = Vec::new();
    while got.len() < want.len() {
        let alarms = wire_sub.next_alarms().expect("alarm stream live");
        for a in alarms {
            assert_eq!(a.sink, "alarm");
            got.push((a.phase, a.value));
        }
    }
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.0, w.0, "wire subscriber diverged from serial order");
        assert!(g.1.same_as(&w.1), "phase {}: {:?} vs {:?}", g.0, g.1, w.1);
    }
    let increasing = got.windows(2).all(|p| p[0].0 < p[1].0);
    assert!(increasing, "alarm phases must arrive in serial order");

    drop(wire_sub);
    for (name, report) in server.shutdown() {
        let report = report.unwrap_or_else(|e| panic!("{name} closes cleanly: {e}"));
        assert!(report.phases > 0, "{name} committed no phases");
        let oracle = oracle_history(&report.script);
        let live = report.history.expect("history recorded");
        assert_eq!(
            oracle.equivalent(&live),
            Ok(()),
            "{name}: wire-fed run diverged from its sequential oracle"
        );
    }
}

/// A producer that dies mid-epoch — torn frame, then a corrupt frame
/// on a second connection — commits exactly the FIFO prefix it was
/// acked for. Nothing from an unacknowledged or undecodable frame
/// reaches a buffer.
#[test]
fn disconnected_producer_commits_acked_fifo_prefix() {
    let server = serve(&["solo"], tenant_builder);
    let addr = server.local_addr();

    // Hand-rolled connection so the frame boundary can be torn.
    let stream = TcpStream::connect(addr).unwrap();
    let mut w = BufWriter::new(stream.try_clone().unwrap());
    let mut r = BufReader::new(stream);
    wire::write_preamble(&mut w).unwrap();
    w.flush().unwrap();
    wire::write_frame(
        &mut w,
        &Frame::Hello {
            token: String::new(),
            tenant: "solo".into(),
            role: Role::Producer,
        },
    )
    .unwrap();
    wire::read_preamble(&mut r).unwrap();
    assert!(matches!(
        wire::read_frame(&mut r).unwrap(),
        Frame::HelloOk { .. }
    ));

    let acked = [vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0]];
    for (seq, batch) in acked.iter().enumerate() {
        let bins = batch.iter().map(|&v| Some(Value::Float(v))).collect();
        wire::write_frame(
            &mut w,
            &Frame::PushBatch {
                seq: seq as u64,
                source: 0,
                bins,
            },
        )
        .unwrap();
        match wire::read_frame(&mut r).unwrap() {
            Frame::PushAck { seq: got, accepted } => {
                assert_eq!(got, seq as u64);
                assert_eq!(accepted as usize, batch.len());
            }
            other => panic!("expected PushAck, got {other:?}"),
        }
    }

    // Tear the next frame in half: length prefix plus a partial
    // payload, then hang up. The server must discard it whole.
    let torn = wire::encode(&Frame::PushBatch {
        seq: 3,
        source: 0,
        bins: vec![Some(Value::Float(6.0)), Some(Value::Float(7.0))],
    });
    w.write_all(&(torn.len() as u32).to_le_bytes()).unwrap();
    w.write_all(&torn[..torn.len() / 2]).unwrap();
    w.flush().unwrap();
    drop(w);
    drop(r);

    // Second kind of death: a fully-delivered frame with a flipped
    // payload bit. The CRC catches it; the server answers with a typed
    // Abort (the stream is untrusted, but nothing was refused — a
    // resumable session may redial) and drops the connection,
    // committing nothing from it.
    let stream = TcpStream::connect(addr).unwrap();
    let mut w = BufWriter::new(stream.try_clone().unwrap());
    let mut r = BufReader::new(stream);
    wire::write_preamble(&mut w).unwrap();
    w.flush().unwrap();
    wire::write_frame(
        &mut w,
        &Frame::Hello {
            token: String::new(),
            tenant: "solo".into(),
            role: Role::Producer,
        },
    )
    .unwrap();
    wire::read_preamble(&mut r).unwrap();
    assert!(matches!(
        wire::read_frame(&mut r).unwrap(),
        Frame::HelloOk { .. }
    ));
    let payload = wire::encode(&Frame::PushBatch {
        seq: 0,
        source: 0,
        bins: vec![Some(Value::Float(8.0))],
    });
    let crc = ec_store::crc32(&payload);
    let mut corrupt = payload;
    *corrupt.last_mut().unwrap() ^= 0x40;
    w.write_all(&(corrupt.len() as u32).to_le_bytes()).unwrap();
    w.write_all(&corrupt).unwrap();
    w.write_all(&crc.to_le_bytes()).unwrap();
    w.flush().unwrap();
    match wire::read_frame(&mut r).unwrap() {
        Frame::Abort { reason } => assert!(reason.contains("crc"), "{reason}"),
        other => panic!("expected Abort for a corrupt frame, got {other:?}"),
    }
    drop(w);
    drop(r);

    // Seal from a healthy client and inspect the commit.
    let mut sealer = WireClient::connect(addr, "", "solo", Role::Producer).unwrap();
    sealer.seal().unwrap();
    let mut reports = server.shutdown();
    let (_, report) = reports.remove(0);
    let report = report.expect("solo closes cleanly");
    let want: Vec<f64> = acked.iter().flatten().copied().collect();
    let got: Vec<f64> = report
        .script
        .column(0)
        .flatten()
        .map(|v| match v {
            Value::Float(f) => *f,
            other => panic!("unexpected value {other:?}"),
        })
        .collect();
    assert_eq!(
        got, want,
        "committed column must be exactly the acked FIFO prefix"
    );
    let oracle = oracle_history(&report.script);
    assert_eq!(oracle.equivalent(&report.history.unwrap()), Ok(()));
}

/// A full source under `Backpressure::Reject` surfaces as an explicit
/// `FlowControl(Block)` frame — not a TCP stall — and the push resumes
/// (with `Open`) once a seal drains the buffer. No acknowledged event
/// is lost across the episode.
#[test]
fn full_source_emits_flow_control_and_resumes() {
    let server = serve(&["tight"], || {
        tenant_builder()
            .backpressure(Backpressure::Reject)
            .ingest_capacity(4)
    });
    let addr = server.local_addr().to_string();

    // One big batch: far beyond capacity, so the handler must block
    // and wait for seals from the second connection.
    let pusher = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = WireClient::connect(&addr, "", "tight", Role::Producer).unwrap();
            let batch: Vec<Value> = (0..64).map(|i| Value::Float(i as f64)).collect();
            let accepted = client.push_batch(0, &batch).unwrap();
            (accepted, client.blocks_seen())
        })
    };
    let mut sealer = WireClient::connect(&addr, "", "tight", Role::Producer).unwrap();
    let mut phases = 0u64;
    while !pusher.is_finished() {
        phases += sealer.seal().unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    let (accepted, blocks_seen) = pusher.join().unwrap();
    assert_eq!(accepted, 64, "every event lands despite backpressure");
    assert!(
        blocks_seen >= 1,
        "a full source must surface at least one FlowControl(Block)"
    );
    assert!(phases > 0);
    assert!(server.stats().flow_blocks >= 1);

    sealer.seal().unwrap();
    let mut reports = server.shutdown();
    let report = reports.remove(0).1.expect("tight closes cleanly");
    assert_eq!(report.script.column(0).flatten().count(), 64);
    let oracle = oracle_history(&report.script);
    assert_eq!(oracle.equivalent(&report.history.unwrap()), Ok(()));
}

/// A subscriber too slow to drain its bounded buffer is disconnected —
/// with a diagnostic — while retirement keeps going at full speed for
/// everyone else.
#[test]
fn slow_subscriber_is_disconnected_not_obeyed() {
    // A fat sink name makes each alarm frame heavy, so an unread
    // subscriber connection exhausts the socket buffers quickly and
    // the server-side writer actually blocks (the precondition for the
    // hub slot overflowing).
    // Sized so the ~1000 alarms total well beyond what the kernel will
    // buffer for an unread connection (tcp_wmem max 4 MiB + a ~128 KiB
    // unread receive window), while one 8-alarm batch stays far under
    // MAX_FRAME.
    let fat_sink = format!("alarm-{}", "x".repeat(16 * 1024));
    let server = {
        let pool = SessionPool::builder().threads(4).max_sessions(1).build();
        let fat = fat_sink.clone();
        let builder = {
            // A moving average broadcasts every phase (a threshold
            // would only emit on crossings) — this sink is a firehose.
            let mut b = StreamRuntime::builder();
            let s1 = b.live_source("s1");
            b.add(&fat, MovingAverage::new(3), &[s1]);
            b.record_history(false).record_script(false)
        };
        let sessions = vec![pool.open("noisy", builder).unwrap()];
        WireServer::builder()
            .subscriber_buffer(8)
            .bind("127.0.0.1:0", pool, sessions)
            .unwrap()
    };
    let addr = server.local_addr().to_string();

    let mut lazy = WireClient::connect(&addr, "", "noisy", Role::Subscriber).unwrap();
    lazy.subscribe().unwrap();
    // ... and then it reads nothing at all while the firehose runs.

    let mut producer = WireClient::connect(&addr, "", "noisy", Role::Producer).unwrap();
    let mut pushed = 0u32;
    for round in 0..40 {
        let batch: Vec<Value> = (0..25)
            .map(|i| Value::Float((round * 25 + i) as f64))
            .collect();
        pushed += producer.push_batch(0, &batch).unwrap();
        producer.seal().unwrap();
    }
    assert_eq!(pushed, 1000, "retirement never wedged on the slow reader");
    producer.seal().unwrap();

    // Now the lazy reader finally drains: it gets some alarms, then the
    // server's verdict. (The disconnect may also surface as a raw EOF
    // if the Error frame raced the socket close.)
    let verdict = loop {
        match lazy.next_alarms() {
            Ok(alarms) => {
                for a in &alarms {
                    assert_eq!(a.sink, fat_sink);
                }
            }
            Err(e) => break e,
        }
    };
    match verdict {
        wire::WireError::Refused(reason) => {
            assert!(reason.contains("too slow"), "{reason}")
        }
        other => assert!(other.is_disconnect(), "unexpected error: {other}"),
    }

    // A fresh subscriber still gets served after the episode — once
    // the backlog has retired, so the firehose doesn't instantly
    // overflow this one too.
    {
        let t = server.tenant("noisy").unwrap();
        t.wait_idle().unwrap();
    }
    let mut fresh = WireClient::connect(&addr, "", "noisy", Role::Subscriber).unwrap();
    fresh.subscribe().unwrap();
    producer.push_batch(0, &[Value::Float(999.0)]).unwrap();
    producer.seal().unwrap();
    let alarms = fresh.next_alarms().unwrap();
    assert!(!alarms.is_empty());

    drop(fresh);
    for (name, report) in server.shutdown() {
        report.unwrap_or_else(|e| panic!("{name} closes cleanly: {e}"));
    }
}

/// Kill the server process-style (drop, no shutdown), rebind over the
/// same durable root: every tenant restores at its exact next phase
/// and keeps serving wire traffic.
#[test]
fn killed_server_restarts_over_durable_stores() {
    let root = test_dir("restart");
    let open_pool = || {
        SessionPool::builder()
            .threads(4)
            .max_sessions(2)
            .durable_root(&root)
            .build()
    };
    let open_sessions = |pool: &SessionPool| {
        ["alpha", "beta"]
            .iter()
            .map(|name| {
                pool.open(name.to_string(), tenant_builder().snapshot_every(4))
                    .unwrap()
            })
            .collect::<Vec<_>>()
    };

    // First incarnation: acked wire traffic, then a crash.
    let mut committed = Vec::new();
    {
        let pool = open_pool();
        let sessions = open_sessions(&pool);
        let server = WireServer::builder()
            .bind("127.0.0.1:0", pool, sessions)
            .unwrap();
        let addr = server.local_addr().to_string();
        for (i, tenant) in ["alpha", "beta"].into_iter().enumerate() {
            let mut client = WireClient::connect(&addr, "", tenant, Role::Producer).unwrap();
            let batch: Vec<Value> = (0..6 + i).map(|k| Value::Float((k * 3) as f64)).collect();
            client.push_batch(0, &batch).unwrap();
            client.push_batch(1, &batch).unwrap();
            client.seal().unwrap();
        }
        for tenant in ["alpha", "beta"] {
            let t = server.tenant(tenant).unwrap();
            t.wait_idle().unwrap();
            committed.push(t.admitted());
        }
        drop(server); // simulated crash: no clean close, sessions dropped
    }

    // Second incarnation: same root, same names — every tenant resumes
    // at its exact committed phase and accepts new wire pushes.
    let pool = open_pool();
    let sessions = open_sessions(&pool);
    for (s, want) in sessions.iter().zip(&committed) {
        assert_eq!(
            s.admitted(),
            *want,
            "{} must resume at its committed phase",
            s.name()
        );
    }
    let server = WireServer::builder()
        .bind("127.0.0.1:0", pool, sessions)
        .unwrap();
    let addr = server.local_addr().to_string();
    for tenant in ["alpha", "beta"] {
        let mut client = WireClient::connect(&addr, "", tenant, Role::Producer).unwrap();
        client.push_batch(0, &[Value::Float(100.0)]).unwrap();
        let phases = client.seal().unwrap();
        assert!(phases > 0);
    }
    for (i, (name, report)) in server.shutdown().into_iter().enumerate() {
        let report = report.unwrap_or_else(|e| panic!("{name} closes cleanly: {e}"));
        assert!(
            report.script.phases() > committed[i],
            "{name}: restored script spans the crash"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The served `/metrics` page carries the pool's tenant rows plus the
/// wire transport's own series, and `/healthz` aggregates a verdict —
/// the surface `ec doctor` reads.
#[test]
fn metrics_endpoint_serves_wire_series_and_health() {
    let pool = SessionPool::builder().threads(2).max_sessions(1).build();
    let sessions = vec![pool.open("obs".to_string(), tenant_builder()).unwrap()];
    let server = WireServer::builder()
        .metrics_addr("127.0.0.1:0")
        .bind("127.0.0.1:0", pool, sessions)
        .unwrap();
    let addr = server.local_addr().to_string();
    let metrics = server.metrics_addr().expect("metrics bound").to_string();

    let mut client = WireClient::connect(&addr, "", "obs", Role::Producer).unwrap();
    client
        .push_batch(0, &[Value::Float(1.0), Value::Float(2.0)])
        .unwrap();
    client.seal().unwrap();

    let page = ec_obs::http_get(&metrics, "/metrics").unwrap();
    ec_obs::validate_exposition(&page).unwrap();
    for series in [
        "ec_wire_connections_total",
        "ec_wire_frames_total",
        "ec_wire_events_total",
        "ec_session_events_per_sec",
    ] {
        assert!(page.contains(series), "missing {series} in:\n{page}");
    }
    let health = ec_obs::http_get(&metrics, "/healthz").unwrap();
    assert!(health.contains("\"verdict\""), "{health}");
    assert!(health.contains("\"obs\""), "{health}");

    // The wire-level metrics frame answers with the same tenant row.
    let row = client.metrics_json().unwrap();
    assert!(row.contains("\"name\":\"obs\""), "{row}");

    // A wire Shutdown frame flips stop_requested — the signal `ec
    // serve` polls to exit cleanly.
    client.shutdown_server().unwrap();
    assert!(server.stop_requested());
    for (name, report) in server.shutdown() {
        report.unwrap_or_else(|e| panic!("{name} closes cleanly: {e}"));
    }
}

/// Hellos with a bad token or an unknown tenant are refused with a
/// diagnostic; the refusal counter ticks.
#[test]
fn bad_hellos_are_refused() {
    let pool = SessionPool::builder().threads(2).max_sessions(1).build();
    let sessions = vec![pool.open("guarded".to_string(), tenant_builder()).unwrap()];
    let server = WireServer::builder()
        .token("sesame")
        .bind("127.0.0.1:0", pool, sessions)
        .unwrap();
    let addr = server.local_addr().to_string();

    let Err(err) = WireClient::connect(&addr, "wrong", "guarded", Role::Producer) else {
        panic!("a wrong token must be refused");
    };
    match err {
        wire::WireError::Refused(reason) => assert!(reason.contains("token"), "{reason}"),
        other => panic!("expected a refusal, got {other}"),
    }
    let Err(err) = WireClient::connect(&addr, "sesame", "nosuch", Role::Producer) else {
        panic!("an unknown tenant must be refused");
    };
    match err {
        wire::WireError::Refused(reason) => {
            assert!(reason.contains("unknown tenant"), "{reason}")
        }
        other => panic!("expected a refusal, got {other}"),
    }
    let ok = WireClient::connect(&addr, "sesame", "guarded", Role::Producer);
    assert!(ok.is_ok(), "the right token must still work");
    assert_eq!(server.stats().refused, 2);
    for (name, report) in server.shutdown() {
        report.unwrap_or_else(|e| panic!("{name} closes cleanly: {e}"));
    }
}

/// Protocol version 1 is retired: a peer announcing it is refused with
/// `WireError::Version(1)` by the server (which answers with its own
/// preamble and an `Error` frame carrying that refusal) and by the
/// client (which fails the connect).
#[test]
fn version_1_preamble_is_refused_by_server_and_client() {
    let server = serve(&["solo"], tenant_builder);
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut w = BufWriter::new(stream.try_clone().unwrap());
    let mut r = BufReader::new(stream);
    w.write_all(&wire::WIRE_MAGIC.to_le_bytes()).unwrap();
    w.write_all(&1u32.to_le_bytes()).unwrap();
    w.flush().unwrap();
    wire::read_preamble(&mut r).unwrap();
    match wire::read_frame(&mut r).unwrap() {
        Frame::Error { reason } => {
            assert_eq!(reason, wire::WireError::Version(1).to_string())
        }
        other => panic!("expected a version refusal, got {other:?}"),
    }
    assert_eq!(server.stats().refused, 1);
    for (name, report) in server.shutdown() {
        report.unwrap_or_else(|e| panic!("{name} closes cleanly: {e}"));
    }

    // A listener that reads the client's opening, answers with a
    // version-1 preamble, and holds the socket until the client hangs
    // up (closing first could reset the connection under the client).
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let old_server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        wire::read_preamble(&mut conn).unwrap();
        wire::read_frame(&mut conn).unwrap();
        let mut preamble = wire::WIRE_MAGIC.to_le_bytes().to_vec();
        preamble.extend(1u32.to_le_bytes());
        conn.write_all(&preamble).unwrap();
        let _ = std::io::copy(&mut conn, &mut std::io::sink());
    });
    match WireClient::connect(addr, "", "solo", Role::Producer) {
        Err(wire::WireError::Version(1)) => {}
        Err(other) => panic!("expected Version(1), got {other}"),
        Ok(_) => panic!("a version-1 server must be refused"),
    }
    old_server.join().unwrap();
}
