//! The three workloads: their graphs, their seeded inputs and their
//! frozen paced rates.

use crate::stats::mix;
use ec_core::{AlwaysEmit, Workload};
use ec_fusion::operators::aggregate::Aggregate;
use ec_fusion::operators::moving::MovingAverage;
use ec_fusion::operators::threshold::Threshold;
use ec_fusion::{CorrelatorBuilder, NodeHandle};
use ec_graph::generators;

/// Events buffered across all sources before an epoch seals.
pub const EPOCH: usize = 16;
/// Events per `PushBatch` frame on `serve`.
pub const BATCH: usize = 64;
/// Tenants (and producer connections) on `serve`.
pub const TENANTS: usize = 2;

/// `dag` shape: a `generators::layered` graph of this many layers of
/// this width, each vertex reading `DAG_FAN_IN` vertices of the layer
/// before. The shape is fixed; only the event stream follows the seed.
pub const DAG_LAYERS: usize = 6;
pub const DAG_WIDTH: usize = 4;
pub const DAG_FAN_IN: usize = 2;
const DAG_GRAPH_SEED: u64 = 11;
/// Synthetic work per `dag` operator execution (`ec_core::Workload`
/// iterations): a few µs, well above the scheduler's own cost.
pub const DAG_SPIN: u64 = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Stream,
    Dag,
    Serve,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Stream, Kind::Dag, Kind::Serve];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Stream => "stream",
            Kind::Dag => "dag",
            Kind::Serve => "serve",
        }
    }

    /// Producer lanes: one generator thread (and, on `serve`, one
    /// connection) each, driving one runtime or tenant.
    pub fn lanes(self) -> usize {
        match self {
            Kind::Serve => TENANTS,
            _ => 1,
        }
    }

    /// Events per push call: single pushes, or one wire frame.
    pub fn unit_len(self) -> usize {
        match self {
            Kind::Serve => BATCH,
            _ => 1,
        }
    }

    /// Events per lane pushed and drained before timing starts.
    pub fn warmup_events(self) -> u64 {
        match self {
            Kind::Stream => 32_768,
            Kind::Dag => 4_096,
            Kind::Serve => 16_384,
        }
    }

    /// The median saturated `events_per_s` this workload reached at the
    /// commit that defined the benchmark, on a 2-vCPU x86-64 VM. Frozen:
    /// it sizes the saturate part (a fixed number of events, which take
    /// about the part's window at that rate) and the paced rates, so
    /// every later commit is offered identical work and load.
    pub fn seed_rate(self) -> f64 {
        match self {
            Kind::Stream => 265_000.0,
            Kind::Dag => 36_800.0,
            Kind::Serve => 140_000.0,
        }
    }

    /// The paced rates `(low, high)` in events/s across all lanes: 20%
    /// and 60% of [`seed_rate`](Self::seed_rate).
    pub fn rates(self) -> (f64, f64) {
        (0.2 * self.seed_rate(), 0.6 * self.seed_rate())
    }
}

/// Wires `kind`'s graph. `source` adds one input source by name — a
/// live feed for the runtime, a replay of the committed script for the
/// oracle — so both runs build the identical graph.
///
/// Every graph ends in one `tap` sink that reads the live sources
/// directly, so it executes in every phase, plus the rest of the graph,
/// so its value depends on everything computed in that phase.
///
/// `spin` gives `dag`'s operators their synthetic work. The work
/// changes what an execution costs, never what it emits, so an oracle
/// that only checks outputs may leave it out.
pub fn wire(
    kind: Kind,
    b: &mut CorrelatorBuilder,
    spin: bool,
    mut source: impl FnMut(&mut CorrelatorBuilder, &str) -> NodeHandle,
) {
    let tap = || AlwaysEmit::new(Aggregate::sum());
    match kind {
        Kind::Stream | Kind::Serve => {
            let s1 = source(b, "s1");
            let s2 = source(b, "s2");
            let sum = b.add("sum", Aggregate::sum(), &[s1, s2]);
            let avg = b.add("avg", MovingAverage::new(8), &[sum]);
            let alarm = b.add("alarm", Threshold::above(1000.0), &[avg]);
            b.add("tap", tap(), &[s1, s2, avg, alarm]);
        }
        Kind::Dag => {
            let dag = generators::layered(DAG_LAYERS, DAG_WIDTH, DAG_FAN_IN, DAG_GRAPH_SEED);
            let mut nodes: Vec<NodeHandle> = Vec::new();
            for v in dag.vertices() {
                let node = if dag.is_source(v) {
                    source(b, dag.name(v))
                } else {
                    let inputs: Vec<NodeHandle> =
                        dag.preds(v).iter().map(|p| nodes[p.index()]).collect();
                    let iters = if spin { DAG_SPIN } else { 0 };
                    b.add(dag.name(v), Workload::new(Aggregate::sum(), iters), &inputs)
                };
                nodes.push(node);
            }
            // The tap reads every source and every vertex nothing else
            // reads, so each source reaches it and it fires every phase.
            let inputs: Vec<NodeHandle> = dag
                .vertices()
                .filter(|&v| dag.is_source(v) || dag.succs(v).is_empty())
                .map(|v| nodes[v.index()])
                .collect();
            b.add("tap", tap(), &inputs);
        }
    }
}

/// Live sources of `kind`'s graph, in wiring order.
pub fn source_count(kind: Kind) -> usize {
    match kind {
        Kind::Dag => DAG_WIDTH,
        _ => 2,
    }
}

/// The seeded event stream of one lane in one part: event `i` goes to
/// source `source(i)` with value `value(i)`. Stateless, so the oracle
/// check regenerates exactly what the generator pushed.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub kind: Kind,
    pub seed: u64,
}

impl Plan {
    pub fn new(kind: Kind, run_seed: u64, part: u64, lane: u64) -> Plan {
        Plan {
            kind,
            seed: mix(mix(run_seed ^ 0x5eed) ^ (part << 8) ^ lane),
        }
    }

    pub fn source(&self, i: u64) -> usize {
        match self.kind {
            // The single-producer workload alternates its two sources.
            Kind::Stream => (i % 2) as usize,
            // Sparse: each event picks one source at random.
            Kind::Dag => (mix(self.seed ^ i.wrapping_mul(0x9E37)) % DAG_WIDTH as u64) as usize,
            // A wire frame carries one source's events; frames alternate.
            Kind::Serve => ((i / BATCH as u64) % 2) as usize,
        }
    }

    pub fn value(&self, i: u64) -> f64 {
        (mix(self.seed.wrapping_add(i)) % 1000) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_is_deep_and_every_source_reaches_the_tap() {
        let mut b = CorrelatorBuilder::new();
        let mut sources = Vec::new();
        wire(Kind::Dag, &mut b, true, |b, name| {
            let (h, _w) = b.live_source(name);
            sources.push(h.vertex());
            h
        });
        assert_eq!(sources.len(), DAG_WIDTH);
        let dag = b.dag();
        assert_eq!(dag.vertices().count(), DAG_LAYERS * DAG_WIDTH + 1);
        let sinks: Vec<_> = dag
            .vertices()
            .filter(|&v| dag.succs(v).is_empty())
            .collect();
        assert_eq!(sinks.len(), 1, "the tap is the only sink");
        for s in sources {
            let mut seen = vec![s];
            let mut i = 0;
            while i < seen.len() {
                for &w in dag.succs(seen[i]) {
                    if !seen.contains(&w) {
                        seen.push(w);
                    }
                }
                i += 1;
            }
            assert!(seen.contains(&sinks[0]));
        }
    }

    #[test]
    fn plans_repeat_per_seed_and_differ_across_seeds() {
        let a = Plan::new(Kind::Dag, 1, 0, 0);
        let b = Plan::new(Kind::Dag, 2, 0, 0);
        let xs: Vec<_> = (0..64).map(|i| (a.source(i), a.value(i))).collect();
        let ys: Vec<_> = (0..64).map(|i| (a.source(i), a.value(i))).collect();
        let zs: Vec<_> = (0..64).map(|i| (b.source(i), b.value(i))).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        assert!((0..DAG_WIDTH).all(|s| xs.iter().any(|x| x.0 == s)));
    }
}
