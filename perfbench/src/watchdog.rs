//! Deadlines for benchmark parts. A part runs on its own thread; if it
//! makes no progress (no push and no delivery) for [`STALL`], or misses
//! its overall deadline, the watchdog records a diagnosis from the
//! program's counters and gives the part up, leaving the wedged threads
//! behind until the process exits. The caller decides whether the part
//! is run again or its events count as failed.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type DiagFn = Box<dyn Fn() -> String + Send>;

/// A part that shows no progress for this long is hung. A lost wakeup
/// never recovers, while a healthy part pushes or delivers every few
/// milliseconds even at the lowest paced rate.
pub const STALL: Duration = Duration::from_secs(2);

/// What a running part shares with its watchdog: a way to describe the
/// program's state, how many events the part has pushed so far, and a
/// progress counter.
#[derive(Clone, Default)]
pub struct Watch {
    diag: Arc<Mutex<Option<DiagFn>>>,
    pub pushed: Arc<AtomicU64>,
    progress: Arc<AtomicU64>,
}

impl Watch {
    /// Installs the diagnosis for the program objects now running.
    pub fn set_diag(&self, f: impl Fn() -> String + Send + 'static) {
        *self.diag.lock().expect("watch lock") = Some(Box::new(f));
    }

    /// Drops the diagnosis (and the handles it holds) before teardown.
    pub fn clear_diag(&self) {
        self.diag.lock().expect("watch lock").take();
    }

    pub fn count(&self, events: u64) {
        self.pushed.fetch_add(events, Relaxed);
        self.tick();
    }

    /// Marks progress: a delivery, or a step of setup or teardown.
    pub fn tick(&self) {
        self.progress.fetch_add(1, Relaxed);
    }

    /// Runs the diagnosis on a helper thread, giving up after `limit`
    /// in case reading the counters blocks too.
    fn diagnose(&self, limit: Duration) -> String {
        let Some(f) = self.diag.lock().ok().and_then(|mut d| d.take()) else {
            return "no diagnosis installed (hung during setup)".into();
        };
        let (tx, rx) = mpsc::channel();
        let spawned = std::thread::Builder::new()
            .name("perfbench-diag".into())
            .spawn(move || {
                let _ = tx.send(f());
            });
        match spawned {
            Ok(_) => rx
                .recv_timeout(limit)
                .unwrap_or_else(|_| format!("diagnosis did not finish within {limit:?}")),
            Err(e) => format!("could not spawn diagnosis thread: {e}"),
        }
    }
}

/// How a guarded part ended.
pub enum Outcome<T> {
    /// Finished in time, having pushed this many events.
    Done(T, u64),
    /// Stalled, missed its deadline or panicked, having pushed `pushed`
    /// events.
    Failed {
        reason: String,
        diagnosis: String,
        pushed: u64,
        /// Made no progress for [`STALL`]: the program is wedged, not
        /// slow or broken.
        stalled: bool,
    },
}

/// Runs `f` on its own thread with a deadline, and gives up early when
/// it stalls.
pub fn guard<T: Send + 'static>(
    name: &str,
    deadline: Duration,
    f: impl FnOnce(Watch) -> T + Send + 'static,
) -> Outcome<T> {
    let watch = Watch::default();
    let (tx, rx) = mpsc::channel();
    let inner = watch.clone();
    let started = Instant::now();
    let handle = match std::thread::Builder::new()
        .name(format!("perfbench-{name}"))
        .spawn(move || {
            let _ = tx.send(f(inner));
        }) {
        Ok(h) => h,
        Err(e) => {
            return Outcome::Failed {
                reason: format!("could not spawn part thread: {e}"),
                diagnosis: String::new(),
                pushed: 0,
                stalled: false,
            }
        }
    };
    let mut seen = (watch.progress.load(Relaxed), Instant::now());
    let hung = |why: String, stalled| Outcome::Failed {
        reason: format!(
            "{why} (watchdog fired after {:.1}s)",
            started.elapsed().as_secs_f64()
        ),
        diagnosis: watch.diagnose(Duration::from_secs(5)),
        pushed: watch.pushed.load(Relaxed),
        stalled,
    };
    let result = loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(v) => break Ok(v),
            Err(RecvTimeoutError::Disconnected) => break Err(()),
            Err(RecvTimeoutError::Timeout) => {}
        }
        let now = Instant::now();
        let progress = watch.progress.load(Relaxed);
        if progress != seen.0 {
            seen = (progress, now);
        } else if now - seen.1 >= STALL {
            return hung(
                format!("made no progress for {:.1}s", STALL.as_secs_f64()),
                true,
            );
        }
        if now - started >= deadline {
            return hung(
                format!("missed its {:.1}s deadline", deadline.as_secs_f64()),
                false,
            );
        }
    };
    match result {
        Ok(v) => {
            let _ = handle.join();
            Outcome::Done(v, watch.pushed.load(Relaxed))
        }
        Err(()) => {
            let panic = match handle.join() {
                Err(p) => p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "unknown panic".into()),
                Ok(()) => "part thread ended without a result".into(),
            };
            Outcome::Failed {
                reason: format!("panicked: {panic}"),
                diagnosis: String::new(),
                pushed: watch.pushed.load(Relaxed),
                stalled: false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_hung_part_is_diagnosed_and_abandoned() {
        let t0 = Instant::now();
        let out = guard("hang", Duration::from_secs(3600), |w: Watch| {
            w.set_diag(|| "parks=3 wakes=1".to_string());
            w.count(42);
            std::thread::sleep(Duration::from_secs(3600));
        });
        assert!(t0.elapsed() < STALL + Duration::from_secs(5));
        match out {
            Outcome::Failed {
                reason,
                diagnosis,
                pushed,
                stalled,
            } => {
                assert!(stalled && reason.contains("no progress"), "{reason}");
                assert_eq!(diagnosis, "parks=3 wakes=1");
                assert_eq!(pushed, 42);
            }
            Outcome::Done(..) => panic!("should have been declared hung"),
        }
    }

    #[test]
    fn a_slow_part_that_progresses_runs_to_its_deadline() {
        let out = guard(
            "slow",
            Duration::from_millis(300) + STALL,
            |w: Watch| -> () {
                loop {
                    w.tick();
                    std::thread::sleep(Duration::from_millis(10));
                }
            },
        );
        match out {
            Outcome::Failed {
                reason, stalled, ..
            } => assert!(!stalled && reason.contains("deadline"), "{reason}"),
            Outcome::Done(..) => panic!("should have timed out"),
        }
    }

    #[test]
    fn a_finished_part_returns_its_value() {
        match guard("ok", Duration::from_secs(10), |_w: Watch| 7) {
            Outcome::Done(v, pushed) => assert_eq!((v, pushed), (7, 0)),
            Outcome::Failed { reason, .. } => panic!("{reason}"),
        }
    }
}
