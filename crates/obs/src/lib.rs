//! Observability primitives for the event-correlation stack.
//!
//! The paper's performance argument (§4) is about *distributions* — how
//! deep the phase pipeline runs, where the time between an epoch seal
//! and its retirement goes — but an engine under load cannot afford the
//! instrumentation cost of a general tracing framework. This crate is
//! the deliberately narrow substrate the rest of the workspace threads
//! through:
//!
//! * [`LogHistogram`] — a lock-free log2-bucketed histogram. One
//!   `leading_zeros` plus three relaxed atomic adds per `record`; p50 /
//!   p95 / p99 / max come out of a [`HistogramSnapshot`] after the
//!   fact. [`HistogramBank`] stripes one histogram per worker so the
//!   hot path never shares a cache line, merging at snapshot time.
//! * [`FlightRecorder`] — per-worker fixed-capacity ring buffers of
//!   timestamped [`SpanEvent`]s. Recording is one `Instant` read plus
//!   one ring write under an uncontended per-lane lock; the ring
//!   overwrites its oldest entries, so the recorder always holds the
//!   *newest* window of activity. [`FlightRecorder::chrome_trace`]
//!   renders the drained rings as Chrome `chrome://tracing` JSON.
//! * [`PromText`] — a tiny Prometheus text-exposition builder (plus
//!   [`validate_exposition`], used by tests and CI to keep the output
//!   well-formed), and [`MetricsServer`] — a minimal std-only TCP
//!   endpoint serving whatever render closures it is given (`/metrics`,
//!   and `/healthz` when a watchdog is wired in).
//! * [`HealthMonitor`] — a watchdog that turns raw progress counters
//!   (admitted/retired frontiers, source queue depths and waits,
//!   per-lane event totals) into a structured [`HealthReport`] with an
//!   Ok / Degraded / Stalled [`Verdict`] and blame-carrying reasons.
//!
//! Nothing here knows about engines or runtimes: `ec-core` and
//! `ec-runtime` own *what* is recorded; this crate owns *how cheaply*.

#![warn(missing_docs)]

mod health;
mod hist;
mod prom;
mod recorder;
mod serve;

pub use health::{
    HealthConfig, HealthMonitor, HealthReport, LaneHealth, LaneObs, Observation, SourceObs, Verdict,
};
pub use hist::{HistogramBank, HistogramSnapshot, LogHistogram};
pub use prom::{parse_sample, validate_exposition, PromText, Sample};
pub use recorder::{chrome_trace_from, validate_chrome_trace, FlightRecorder, SpanEvent, SpanKind};
pub use serve::{http_get, MetricsServer, RenderFn, Route, CONTENT_TYPE_JSON, CONTENT_TYPE_PROM};
