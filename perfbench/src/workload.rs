//! The workloads: the graph each one generates, the engine configuration
//! and runtime that run it, and the check its output must pass. Why each
//! workload exists is recorded in README.md.

use std::path::Path;

use lazygraph::algorithms::{reference, PageRankData, PageRankDelta, Sssp};
use lazygraph::cluster::StatsSnapshot;
use lazygraph::engine::checkpoint::fnv1a64;
use lazygraph::engine::metrics::IterationRecord;
use lazygraph::engine::{run_on, EngineConfig, SimBreakdown, TransportKind, VertexProgram};
use lazygraph::graph::generators::{grid2d, rmat, Grid2dConfig, RmatConfig};
use lazygraph::graph::{Graph, GraphBuilder, VertexId};
use lazygraph::multiproc::{run_multiprocess_with, AlgoSpec, MpOptions};
use lazygraph::net::Wire;
use lazygraph::partition::DistributedGraph;

use crate::trace::{SpanId, Tracer};

/// Every workload runs on this many machines, each with one worker
/// thread, set explicitly so neither `LAZYGRAPH_THREADS` nor the host
/// size changes the work.
pub const MACHINES: usize = 4;
pub const THREADS_PER_MACHINE: usize = 1;

const PAGERANK_TOLERANCE: f64 = 1e-3;
/// Power-iteration sweeps of the PageRank reference, and the accepted
/// error `0.01·max(want, 1)`: the bound `tests/engine_correctness.rs` uses.
const PAGERANK_SWEEPS: usize = 150;
const PAGERANK_REL_ERR: f64 = 0.01;
const SSSP_SOURCE: u32 = 0;

pub enum Runtime {
    /// One process: [`run_on`] over a partition made in set-up.
    Threaded,
    /// `MACHINES` worker processes via [`run_multiprocess_with`]; each
    /// worker partitions the shipped graph inside the job.
    Multiprocess { checkpoint_every: u64 },
}

pub struct Workload {
    pub name: &'static str,
    /// The input is Graph500 R-MAT (a=0.57, b=c=0.19) with `2^scale`
    /// vertices and `edge_factor << scale` edges before self loops and
    /// duplicates are removed; every job runs PageRank-Delta on it.
    pub scale: u32,
    pub edge_factor: usize,
    /// Edge weights are drawn uniformly from `[lo, hi)`.
    pub weights: (f32, f32),
    /// How [`Workload::config`] builds its configuration, for provenance.
    pub config_name: &'static str,
    config: fn() -> EngineConfig,
    pub runtime: Runtime,
}

pub static WORKLOADS: [Workload; 2] = [
    Workload {
        name: "pagerank-rmat",
        scale: 14,
        edge_factor: 16,
        weights: (1.0, 9.0),
        config_name: "EngineConfig::lazygraph() transport=Tcp",
        config: || EngineConfig::lazygraph().with_transport(TransportKind::Tcp),
        runtime: Runtime::Threaded,
    },
    Workload {
        name: "pagerank-rmat-sync-mp",
        scale: 17,
        edge_factor: 16,
        weights: (1.0, 9.0),
        config_name: "EngineConfig::powergraph_sync() multiprocess checkpoint_every=8",
        config: EngineConfig::powergraph_sync,
        runtime: Runtime::Multiprocess {
            checkpoint_every: 8,
        },
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The engine configuration of every job, with the thread count pinned.
    pub fn config(&self, record_history: bool) -> EngineConfig {
        let mut cfg = (self.config)().with_threads(THREADS_PER_MACHINE);
        cfg.record_history = record_history;
        cfg
    }

    pub fn num_vertices(&self) -> usize {
        1 << self.scale
    }

    /// The input graph for `seed`, weights included.
    pub fn generate(&self, seed: u64) -> Graph {
        let g = rmat(RmatConfig::graph500(self.scale, self.edge_factor, seed));
        let mut b = GraphBuilder::new(g.num_vertices());
        b.extend(g.edges());
        let (lo, hi) = self.weights;
        // Salted so the weight stream is not the generator's own stream.
        b.randomize_weights(lo, hi, seed ^ 0x9e37_79b9_7f4a_7c15);
        b.build()
    }

    /// Whether set-up partitions (the multiprocess workers partition
    /// inside every job instead).
    pub fn partitions_in_setup(&self) -> bool {
        matches!(self.runtime, Runtime::Threaded)
    }

    pub fn mp_options(&self, checkpoints: bool) -> MpOptions {
        match self.runtime {
            Runtime::Multiprocess { checkpoint_every } if checkpoints => MpOptions {
                checkpoint_every,
                ..MpOptions::default()
            },
            _ => MpOptions::default(),
        }
    }
}

/// The ranks every job is checked against, computed once per run.
pub fn reference_ranks(graph: &Graph) -> Vec<f64> {
    reference::pagerank_power(graph, PAGERANK_SWEEPS)
}

/// Every rank within `0.01·max(want, 1)` of the power-iteration reference.
pub fn check_pagerank(got: &[PageRankData], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} ranks, expected {}", got.len(), want.len()));
    }
    match got
        .iter()
        .zip(want)
        .position(|(g, &w)| (g.rank - w).abs() >= PAGERANK_REL_ERR * w.max(1.0))
    {
        Some(v) => Err(format!(
            "vertex {v}: rank {} vs reference {}",
            got[v].rank, want[v]
        )),
        None => Ok(()),
    }
}

/// Every distance exactly equal to Dijkstra's.
pub fn check_sssp(got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} distances, expected {}", got.len(), want.len()));
    }
    match got
        .iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
    {
        Some(v) => Err(format!(
            "vertex {v}: distance {} vs reference {}",
            got[v], want[v]
        )),
        None => Ok(()),
    }
}

/// The counters one job returns, whichever runtime ran it.
#[derive(Clone, Debug, Default)]
pub struct JobCounters {
    pub iterations: u64,
    pub local_subrounds: u64,
    pub a2a_exchanges: u64,
    pub m2m_exchanges: u64,
    pub sim_time: f64,
    pub breakdown: SimBreakdown,
    pub stats: StatsSnapshot,
    pub converged: bool,
}

impl JobCounters {
    /// The counters that must repeat exactly for one seed, plus the digest
    /// of the vertex values. Pool, zero-copy and wall-clock telemetry are
    /// host-dependent and left out.
    pub fn fingerprint(&self, values_digest: u64) -> String {
        let s = &self.stats;
        format!(
            "sim_time={:016x} compute={:016x} comm={:016x} barrier={:016x} iterations={} \
             local_subrounds={} a2a={} m2m={} est_bytes={} items={} batches={} global_syncs={} \
             edges={} applies={} combined={} bytes_saved={} wire_bytes={} wire_frames={} \
             fold_runs={} snapshot_bytes={} values={values_digest:016x}",
            self.sim_time.to_bits(),
            self.breakdown.compute.to_bits(),
            self.breakdown.comm.to_bits(),
            self.breakdown.barrier.to_bits(),
            self.iterations,
            self.local_subrounds,
            self.a2a_exchanges,
            self.m2m_exchanges,
            s.total_est_bytes(),
            s.total_items(),
            s.total_batches(),
            s.global_syncs,
            s.edges_processed,
            s.applies,
            s.items_combined,
            s.bytes_saved,
            s.wire_bytes_sent,
            s.wire_frames_sent,
            s.fold_runs,
            s.snapshot_bytes,
        )
    }
}

/// What one set-up made: the loaded graph and, on the threaded runtime,
/// its partition.
pub struct SetUp {
    pub graph: Graph,
    pub dg: Option<DistributedGraph>,
}

/// What every job of a run reads besides its set-up.
pub struct Inputs<'a> {
    pub reference: &'a [f64],
    pub worker_bin: &'a Path,
}

/// One executed job.
pub struct Job {
    pub id: u32,
    /// Run with `record_history` on.
    pub traced: bool,
    /// Wall seconds of the system call, from the call until the values
    /// are collected.
    pub wall_s: f64,
    pub counters: Option<JobCounters>,
    /// Digest of the vertex values' wire encoding (floats as bit patterns).
    pub values_digest: Option<u64>,
    /// Deterministic counters and value digest; empty if the call failed.
    pub fingerprint: String,
    pub history: Vec<IterationRecord>,
    pub failure: Option<String>,
}

type CallResult<V> = Result<(Vec<V>, JobCounters, Vec<IterationRecord>), String>;

/// Runs one job of `w` under `cfg` and checks its output.
pub fn run_job(
    w: &Workload,
    setup: &SetUp,
    inp: &Inputs<'_>,
    cfg: &EngineConfig,
    mp: &MpOptions,
    tracer: &mut Tracer,
    id: u32,
) -> Job {
    let root = tracer.begin("bench.job", None, Some(id));
    let program = PageRankDelta {
        tolerance: PAGERANK_TOLERANCE,
    };
    let spec = AlgoSpec::PageRank {
        tolerance: PAGERANK_TOLERANCE,
    };
    let (wall_s, res) = call(w, setup, inp, cfg, mp, &program, &spec, tracer, root, id);
    let job = finish(res, wall_s, tracer, root, id, |v| {
        check_pagerank(v, inp.reference)
    });
    tracer.end(root);
    Job {
        traced: cfg.record_history,
        ..job
    }
}

#[allow(clippy::too_many_arguments)]
fn call<P: VertexProgram>(
    w: &Workload,
    setup: &SetUp,
    inp: &Inputs<'_>,
    cfg: &EngineConfig,
    mp: &MpOptions,
    program: &P,
    spec: &AlgoSpec,
    tracer: &mut Tracer,
    root: SpanId,
    id: u32,
) -> (f64, CallResult<P::VData>) {
    match w.runtime {
        Runtime::Threaded => {
            let Some(dg) = setup.dg.as_ref() else {
                return (0.0, Err("threaded workloads partition in set-up".into()));
            };
            let span = tracer.begin("engine.run_on", Some(root), Some(id));
            let res = run_on(dg, cfg, program);
            let wall = tracer.end(span);
            let res = res.map_err(|e| format!("run_on: {e}")).map(|r| {
                let m = r.metrics;
                let counters = JobCounters {
                    iterations: m.iterations,
                    local_subrounds: m.local_subrounds,
                    a2a_exchanges: m.a2a_exchanges,
                    m2m_exchanges: m.m2m_exchanges,
                    sim_time: m.sim_time,
                    breakdown: m.breakdown,
                    stats: m.stats,
                    converged: m.converged,
                };
                (r.values, counters, m.history)
            });
            (wall, res)
        }
        Runtime::Multiprocess { .. } => {
            let span = tracer.begin("multiproc.run_multiprocess_with", Some(root), Some(id));
            let res =
                run_multiprocess_with::<P>(&setup.graph, MACHINES, cfg, spec, inp.worker_bin, mp);
            let wall = tracer.end(span);
            let res = res
                .map_err(|e| format!("run_multiprocess_with: {e}"))
                .map(|o| {
                    let c = o.counters.unwrap_or_default();
                    let counters = JobCounters {
                        iterations: o.iterations,
                        local_subrounds: c.local_subrounds,
                        a2a_exchanges: c.a2a_exchanges,
                        m2m_exchanges: c.m2m_exchanges,
                        sim_time: o.sim_time,
                        breakdown: o.breakdown,
                        stats: o.stats,
                        converged: o.converged,
                    };
                    (o.values, counters, Vec::new())
                });
            (wall, res)
        }
    }
}

fn finish<V: Wire>(
    res: CallResult<V>,
    wall_s: f64,
    tracer: &mut Tracer,
    root: SpanId,
    id: u32,
    check: impl Fn(&[V]) -> Result<(), String>,
) -> Job {
    let mut job = Job {
        id,
        traced: false,
        wall_s,
        counters: None,
        values_digest: None,
        fingerprint: String::new(),
        history: Vec::new(),
        failure: None,
    };
    match res {
        Err(e) => job.failure = Some(e),
        Ok((values, counters, history)) => {
            let span = tracer.begin("algorithms.verify", Some(root), Some(id));
            let mut bytes = Vec::new();
            for v in &values {
                v.encode(&mut bytes);
            }
            let digest = fnv1a64(&bytes);
            job.values_digest = Some(digest);
            job.fingerprint = counters.fingerprint(digest);
            job.failure = if counters.converged {
                check(&values).err()
            } else {
                Some("did not converge".to_string())
            };
            tracer.end(span);
            job.counters = Some(counters);
            job.history = history;
        }
    }
    job
}

/// Side of the lattice the launch probe runs on: small enough that the
/// job's time is process spawn, mesh set-up and result collection.
const PROBE_SIDE: usize = 16;

/// One multiprocess SSSP job on a tiny lattice under the sync engine.
/// Returns its wall seconds and the output check.
pub fn launch_probe(worker_bin: &Path, tracer: &mut Tracer) -> (f64, Result<(), String>) {
    let graph = grid2d(Grid2dConfig::road(PROBE_SIDE, PROBE_SIDE, 0));
    let want = reference::dijkstra(&graph, VertexId(SSSP_SOURCE));
    let cfg = EngineConfig::powergraph_sync().with_threads(THREADS_PER_MACHINE);
    let spec = AlgoSpec::Sssp {
        source: SSSP_SOURCE,
    };
    let root = tracer.begin("multiproc.launch_probe", None, None);
    let span = tracer.begin("multiproc.run_multiprocess_with", Some(root), None);
    let res = run_multiprocess_with::<Sssp>(
        &graph,
        MACHINES,
        &cfg,
        &spec,
        worker_bin,
        &MpOptions::default(),
    );
    tracer.end(span);
    let wall = tracer.end(root);
    let checked = res
        .map_err(|e| format!("launch probe: {e}"))
        .and_then(|o| check_sssp(&o.values, &want));
    (wall, checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pagerank_check_uses_relative_bound_above_one() {
        let got = |r: f64| {
            [PageRankData {
                rank: r,
                pending: 0.0,
            }]
        };
        assert!(check_pagerank(&got(0.159), &[0.15]).is_ok());
        assert!(check_pagerank(&got(0.161), &[0.15]).is_err());
        assert!(check_pagerank(&got(209.0), &[210.0]).is_ok());
        assert!(check_pagerank(&got(207.0), &[210.0]).is_err());
        assert!(check_pagerank(&[], &[1.0]).is_err());
    }

    #[test]
    fn sssp_check_is_exact() {
        assert!(check_sssp(&[0.0, 3.5, f32::INFINITY], &[0.0, 3.5, f32::INFINITY]).is_ok());
        assert!(check_sssp(&[0.0, 3.5000002], &[0.0, 3.5]).is_err());
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert!(std::ptr::eq(Workload::by_name(w.name).unwrap(), w));
        }
        assert!(Workload::by_name("nope").is_none());
    }
}
