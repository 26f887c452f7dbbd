//! One run of one workload: generate the input from the seed, set up,
//! run one untimed warm-up job and then, for the given seconds, timed
//! jobs each followed by timed set-ups, check every job's output, and
//! print the metrics. The last line of standard output is the JSON
//! result. `run.py` builds this program and the worker binary and is the
//! way to run it; README.md describes the workloads and metrics.

mod stats;
mod trace;
mod workload;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lazygraph::engine::EngineConfig;
use lazygraph::graph::io::{load_edge_list, save_edge_list};
use lazygraph::graph::Graph;
use lazygraph::partition::{partition_graph_with, DistributedGraph};

use stats::{json_num, json_str, lower_quartile, mb, median, quartiles, ratio};
use trace::{SpanId, Tracer};
use workload::{
    launch_probe, reference_ranks, run_job, Inputs, Job, Runtime, SetUp, Workload, MACHINES,
    THREADS_PER_MACHINE,
};

/// Set-ups after every timed job. A set-up is a third of a job or less
/// and noisier, so it is sampled more often for a steady `setup_s` median.
const SETUPS_PER_JOB: usize = 2;
/// Multiprocess launch probes per traced run; `multiproc.launch_s` is
/// their median.
const LAUNCH_PROBES: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker_bin: PathBuf,
    work_dir: PathBuf,
    out_dir: PathBuf,
    git_rev: String,
    source_digest: String,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut worker_bin, mut work_dir, mut out_dir) = (None, None, None);
    let (mut git_rev, mut source_digest) = (None, None);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {val:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&val).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = val.parse::<u32>().map_err(|e| bad(&e))?;
                seconds = Some(f64::from(s.max(1)));
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--worker-bin" => worker_bin = Some(PathBuf::from(val)),
            "--work-dir" => work_dir = Some(PathBuf::from(val)),
            "--out-dir" => out_dir = Some(PathBuf::from(val)),
            "--git-rev" => git_rev = Some(val),
            "--source-digest" => source_digest = Some(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let need = |name: &str| format!("missing --{name}");
    Ok(Args {
        workload: workload.ok_or_else(|| need("workload"))?,
        seed: seed.ok_or_else(|| need("seed"))?,
        seconds: seconds.ok_or_else(|| need("seconds"))?,
        trace: trace.ok_or_else(|| need("trace"))?,
        worker_bin: worker_bin.ok_or_else(|| need("worker-bin"))?,
        work_dir: work_dir.ok_or_else(|| need("work-dir"))?,
        out_dir: out_dir.ok_or_else(|| need("out-dir"))?,
        git_rev: git_rev.ok_or_else(|| need("git-rev"))?,
        source_digest: source_digest.ok_or_else(|| need("source-digest"))?,
    })
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(|a| run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load(tracer: &mut Tracer, parent: SpanId, path: &Path, n: usize) -> Result<Graph, String> {
    let span = tracer.begin("graph.load_edge_list", Some(parent), None);
    let graph = load_edge_list(path, Some(n));
    tracer.end(span);
    graph.map_err(|e| format!("load_edge_list {}: {e}", path.display()))
}

fn partition(
    tracer: &mut Tracer,
    parent: SpanId,
    graph: &Graph,
    cfg: &EngineConfig,
) -> DistributedGraph {
    let span = tracer.begin("partition.partition_graph_with", Some(parent), None);
    let dg = partition_graph_with(
        graph,
        MACHINES,
        cfg.partition,
        &cfg.splitter,
        &cfg.hub_fanout,
        cfg.bidirectional,
    );
    tracer.end(span);
    dg
}

/// One set-up: load the edge list and, on the threaded runtime, partition
/// it. Appends its wall seconds to `setup_s`.
fn set_up(
    tracer: &mut Tracer,
    w: &Workload,
    cfg: &EngineConfig,
    path: &Path,
    setup_s: &mut Vec<f64>,
) -> Result<SetUp, String> {
    let span = tracer.begin("bench.setup", None, None);
    let graph = load(tracer, span, path, w.num_vertices())?;
    let dg = w
        .partitions_in_setup()
        .then(|| partition(tracer, span, &graph, cfg));
    setup_s.push(tracer.end(span));
    Ok(SetUp { graph, dg })
}

/// Max over mean of the edges stored per shard.
fn edge_imbalance(dg: &DistributedGraph) -> f64 {
    let edges: Vec<f64> = dg
        .shards
        .iter()
        .map(|s| s.num_local_edges() as f64)
        .collect();
    let mean = edges.iter().sum::<f64>() / edges.len().max(1) as f64;
    ratio(edges.iter().copied().fold(0.0, f64::max), mean)
}

/// Resets this process's peak resident set (VmHWM) to its current size.
fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Peak resident set (VmHWM) of this process, in bytes.
fn peak_rss_bytes() -> Result<u64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(x.name),
                json_num(x.value),
                json_str(x.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Marks every checked job whose deterministic fingerprint differs from
/// `want` as failed.
fn require_fingerprint(jobs: &mut [Job], want: &str, why: &str) {
    for job in jobs
        .iter_mut()
        .filter(|j| j.failure.is_none() && j.fingerprint != want)
    {
        job.failure = Some(why.to_string());
    }
}

/// Cross-run determinism: the first run of a seed in this build stores
/// the fingerprint of its (passing) warm-up job `jobs[0]`; every later run
/// must reproduce it.
fn check_against_earlier_runs(args: &Args, jobs: &mut [Job]) -> Result<(), String> {
    let first = jobs[0].fingerprint.clone();
    let digest: String = args.source_digest.chars().take(16).collect();
    let path = args.out_dir.join(format!(
        "det-{}-seed{}-{digest}.txt",
        args.workload.name, args.seed
    ));
    match fs::read_to_string(&path) {
        Ok(stored) => require_fingerprint(
            jobs,
            stored.trim_end(),
            "counters differ from an earlier run of this seed",
        ),
        Err(_) => {
            let tmp = path.with_extension("tmp");
            fs::write(&tmp, format!("{first}\n")).map_err(|e| format!("{}: {e}", tmp.display()))?;
            fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let mut tracer = Tracer::new();
    fs::create_dir_all(&args.work_dir).map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    fs::create_dir_all(&args.out_dir).map_err(|e| format!("{}: {e}", args.out_dir.display()))?;

    // The input comes from the seed and is written untimed; the system
    // under test reads only the file.
    let path = args
        .work_dir
        .join(format!("{}-seed{}.el", w.name, args.seed));
    save_edge_list(&w.generate(args.seed), &path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let file_bytes = fs::metadata(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();

    let cfg = w.config(false);
    let mut setup_s = Vec::new();
    let mut setup = set_up(&mut tracer, w, &cfg, &path, &mut setup_s)?;

    // The multiprocess workload partitions inside every job; a traced run
    // partitions once more, outside set-up, for the partition metrics.
    let (lambda, imbalance) = match &setup.dg {
        Some(dg) => (dg.lambda(), edge_imbalance(dg)),
        None if args.trace => {
            let span = tracer.begin("bench.partition_probe", None, None);
            let probe = partition(&mut tracer, span, &setup.graph, &cfg);
            tracer.end(span);
            (probe.lambda(), edge_imbalance(&probe))
        }
        None => (0.0, 0.0),
    };

    let span = tracer.begin("algorithms.reference", None, None);
    let reference = reference_ranks(&setup.graph);
    tracer.end(span);

    let mp = w.mp_options(true);
    let inputs = Inputs {
        reference: &reference,
        worker_bin: &args.worker_bin,
    };
    let mut jobs = vec![run_job(w, &setup, &inputs, &cfg, &mp, &mut tracer, 0)];
    // A traced run spends half its time on untraced jobs, for the tracing
    // overhead, and half on jobs with the per-round history recorded.
    let phases: &[(bool, f64)] = if args.trace {
        &[(false, args.seconds / 2.0), (true, args.seconds / 2.0)]
    } else {
        &[(false, args.seconds)]
    };
    // Every job is followed by set-ups, the last of which the next job runs
    // on, so the set-ups spread over the same window as the jobs.
    // The peak resident set of each job with its set-ups, in MB: a median
    // over these is steady where the peak of a whole run, the largest of
    // many allocator-dependent peaks, is not.
    let mut peak_rss_mb = Vec::new();
    for &(traced, secs) in phases {
        let job_cfg = w.config(traced);
        let start = tracer.elapsed_s();
        loop {
            let id = jobs.len() as u32;
            reset_peak_rss()?;
            jobs.push(run_job(w, &setup, &inputs, &job_cfg, &mp, &mut tracer, id));
            for _ in 0..SETUPS_PER_JOB {
                drop(setup); // free the previous set-up's graph before timing the next
                setup = set_up(&mut tracer, w, &cfg, &path, &mut setup_s)?;
            }
            peak_rss_mb.push(mb(peak_rss_bytes()?));
            if tracer.elapsed_s() - start >= secs {
                break;
            }
        }
    }
    fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let timed = jobs.len() - 1;

    if jobs[0].failure.is_none() {
        let first = jobs[0].fingerprint.clone();
        require_fingerprint(
            &mut jobs,
            &first,
            "counters or values differ from the warm-up job",
        );
        check_against_earlier_runs(args, &mut jobs)?;
    }

    // Probes of a traced run, checked but not timed as jobs.
    let mut probe_failures: Vec<String> = Vec::new();
    // As many checkpoint-free jobs as untraced timed ones, so the
    // checkpoint overhead is a difference of two medians of equal size.
    let mut no_ckpt_s = Vec::new();
    if args.trace && matches!(w.runtime, Runtime::Multiprocess { .. }) {
        for _ in jobs[1..].iter().filter(|j| !j.traced) {
            let id = (jobs.len() + no_ckpt_s.len()) as u32;
            let job = run_job(
                w,
                &setup,
                &inputs,
                &cfg,
                &w.mp_options(false),
                &mut tracer,
                id,
            );
            if let Some(e) = job.failure {
                probe_failures.push(e);
            } else if job.values_digest != jobs[0].values_digest {
                probe_failures
                    .push("values with checkpoints off differ from the warm-up job".into());
            }
            no_ckpt_s.push(job.wall_s);
        }
    }
    let mut launch_s = Vec::new();
    if args.trace {
        for _ in 0..LAUNCH_PROBES {
            let (wall, checked) = launch_probe(&args.worker_bin, &mut tracer);
            launch_s.push(wall);
            if let Err(e) = checked {
                probe_failures.push(e);
            }
        }
    }

    for job in &jobs {
        let status = job.failure.as_deref().unwrap_or("ok");
        let kind = if job.id == 0 {
            "warm-up"
        } else if job.traced {
            "traced"
        } else {
            "timed"
        };
        println!("job {:>3} {kind:<7} {:.4} s  {status}", job.id, job.wall_s);
    }
    for e in &probe_failures {
        println!("probe failed: {e}");
    }

    let attempted = jobs.len() + no_ckpt_s.len() + launch_s.len();
    let failed = jobs.iter().filter(|j| j.failure.is_some()).count() + probe_failures.len();
    // Wall times of the timed jobs that passed, traced or not.
    let ok_walls = |traced: bool| -> Vec<f64> {
        jobs[1..]
            .iter()
            .filter(|j| j.traced == traced && j.failure.is_none())
            .map(|j| j.wall_s)
            .collect()
    };
    // A shared host only ever adds time to a job, in bursts lasting many
    // jobs, so the job time is the lower quartile of the run's jobs: it
    // follows the job's own cost while up to three quarters are slowed.
    let untraced = ok_walls(false);
    let job_s = lower_quartile(&untraced);
    let (q1, q3) = quartiles(&untraced);
    println!(
        "job_s lower_quartile={job_s:.4} median={:.4} q1={q1:.4} q3={q3:.4} jobs={}",
        median(&untraced),
        untraced.len()
    );
    let (q1, q3) = quartiles(&setup_s);
    println!(
        "setup_s median={:.4} q1={q1:.4} q3={q3:.4} reps={}",
        median(&setup_s),
        setup_s.len()
    );

    let c = jobs
        .iter()
        .find_map(|j| j.counters.clone())
        .unwrap_or_default();
    let s = &c.stats;
    let provenance = format!(
        "{{\"workload\": {}, \"seed\": {}, \"git_rev\": {}, \"source_digest\": {}, \
         \"host_parallelism\": {}, \"vertices\": {}, \"edges\": {}, \"machines\": {MACHINES}, \
         \"threads_per_machine\": {THREADS_PER_MACHINE}, \"engine_config\": {}, \
         \"timed_jobs\": {timed}, \"run_seconds\": {}, \"trace\": {}}}",
        json_str(w.name),
        args.seed,
        json_str(&args.git_rev),
        json_str(&args.source_digest),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        setup.graph.num_vertices(),
        setup.graph.num_edges(),
        json_str(w.config_name),
        args.seconds,
        args.trace,
    );
    println!("provenance {provenance}");
    println!(
        "per job: job_s={job_s:.4} sim_s={} traffic_mb={} wire_mb={} global_syncs={}",
        json_num(c.sim_time),
        json_num(mb(s.total_est_bytes())),
        json_num(mb(s.wire_bytes_sent)),
        s.global_syncs
    );

    let metrics = if !args.trace {
        vec![
            m("setup_s", median(&setup_s), "s"),
            m("sim_s", c.sim_time, "s"),
            m("traffic_mb", mb(s.total_est_bytes()), "MB"),
            m("wire_mb", mb(s.wire_bytes_sent), "MB"),
            m("peak_rss_mb", median(&peak_rss_mb), "MB"),
            m(
                "ok_ratio",
                ratio((attempted - failed) as f64, attempted as f64),
                "ratio",
            ),
        ]
    } else {
        let load_s = median(&tracer.durations("graph.load_edge_list"));
        let traced_s = lower_quartile(&ok_walls(true));
        let edges = setup.graph.num_edges() as f64;
        vec![
            m("graph.load_s", load_s, "s"),
            m("graph.load_mb_per_s", ratio(mb(file_bytes), load_s), "MB/s"),
            m(
                "partition.s",
                median(&tracer.durations("partition.partition_graph_with")),
                "s",
            ),
            m("partition.lambda", lambda, "ratio"),
            m("partition.edge_imbalance", imbalance, "ratio"),
            m("engine.supersteps", c.iterations as f64, "count"),
            m("engine.local_subrounds", c.local_subrounds as f64, "count"),
            m("engine.a2a_exchanges", c.a2a_exchanges as f64, "count"),
            m("engine.m2m_exchanges", c.m2m_exchanges as f64, "count"),
            m("engine.edges_processed", s.edges_processed as f64, "count"),
            m("engine.applies", s.applies as f64, "count"),
            m(
                "engine.edge_work_ratio",
                ratio(s.edges_processed as f64, edges),
                "ratio",
            ),
            m(
                "engine.ns_per_edge",
                ratio(job_s * 1e9, s.edges_processed as f64),
                "ns",
            ),
            m("engine.sim_compute_s", c.breakdown.compute, "s"),
            m("engine.sim_comm_s", c.breakdown.comm, "s"),
            m("engine.sim_barrier_s", c.breakdown.barrier, "s"),
            m(
                "cluster.combine_ratio",
                ratio(
                    s.items_combined as f64,
                    (s.items_combined + s.total_items()) as f64,
                ),
                "ratio",
            ),
            m("cluster.global_syncs", s.global_syncs as f64, "count"),
            m("cluster.bytes_saved_mb", mb(s.bytes_saved), "MB"),
            m(
                "cluster.pool_hit_ratio",
                ratio(s.pool_hits as f64, (s.pool_hits + s.pool_misses) as f64),
                "ratio",
            ),
            m("cluster.fold_runs", s.fold_runs as f64, "count"),
            m("net.frames_sent", s.wire_frames_sent as f64, "count"),
            m(
                "net.bytes_per_frame",
                ratio(s.wire_bytes_sent as f64, s.wire_frames_sent as f64),
                "B",
            ),
            m(
                "net.framing_overhead",
                ratio(s.wire_bytes_sent as f64, s.total_est_bytes() as f64),
                "ratio",
            ),
            m(
                "net.zero_copy_ratio",
                ratio(s.zero_copy_frames as f64, s.wire_frames_recv as f64),
                "ratio",
            ),
            m("net.reconnects", s.reconnects as f64, "count"),
            m("checkpoint.snapshot_mb", mb(s.snapshot_bytes), "MB"),
            m(
                "checkpoint.overhead_s",
                if no_ckpt_s.is_empty() {
                    0.0
                } else {
                    job_s - lower_quartile(&no_ckpt_s)
                },
                "s",
            ),
            m("checkpoint.replay_rounds", s.replay_rounds as f64, "count"),
            m("multiproc.launch_s", median(&launch_s), "s"),
            m(
                "algorithms.verify_s",
                median(&tracer.durations("algorithms.verify")),
                "s",
            ),
            m("bench.job_s", job_s, "s"),
            m("bench.trace_overhead", ratio(traced_s, job_s), "ratio"),
        ]
    };
    for x in &metrics {
        println!("{:<28} {:>16} {}", x.name, json_num(x.value), x.unit);
    }
    let metrics = metrics_json(&metrics);

    if args.trace {
        let history: Vec<String> = jobs
            .iter()
            .filter(|j| !j.history.is_empty())
            .map(|j| {
                let rounds: Vec<String> = j
                    .history
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"iteration\": {}, \"pending\": {}, \"bytes\": {}, \"lazy_on\": {}, \
                             \"local_subrounds\": {}, \"used_m2m\": {}, \"sim_time\": {}}}",
                            r.iteration, r.pending, r.bytes, r.lazy_on, r.local_subrounds, r.used_m2m,
                            json_num(r.sim_time)
                        )
                    })
                    .collect();
                format!("{{\"job\": {}, \"rounds\": [\n{}\n]}}", j.id, rounds.join(",\n"))
            })
            .collect();
        let out = args
            .out_dir
            .join(format!("trace-{}-seed{}.json", w.name, args.seed));
        let doc = format!(
            "{{\"provenance\": {provenance},\n\"metrics\": {metrics},\n\"spans\": {},\n\"history\": [\n{}\n]}}\n",
            tracer.to_json(),
            history.join(",\n")
        );
        fs::write(&out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
        println!("trace written to {}", out.display());
    }

    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    const FULL: [&str; 18] = [
        "--workload",
        "pagerank-rmat",
        "--seed",
        "3",
        "--seconds",
        "10",
        "--trace",
        "1",
        "--worker-bin",
        "w",
        "--work-dir",
        "d",
        "--out-dir",
        "o",
        "--git-rev",
        "r",
        "--source-digest",
        "x",
    ];

    #[test]
    fn args_parse_and_reject() {
        let a = args(&FULL).unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("pagerank-rmat", 3, 10.0, true)
        );
        assert!(args(&FULL[2..]).is_err(), "missing --workload");
        let mut bad = FULL;
        bad[7] = "2";
        assert!(args(&bad).is_err(), "trace must be 0 or 1");
        bad = FULL;
        bad[1] = "pagerank";
        assert!(args(&bad).is_err(), "unknown workload");
        let mut extra: Vec<&str> = FULL.to_vec();
        extra.extend(["--threads", "4"]);
        assert!(args(&extra).is_err(), "unknown flag");
    }

    #[test]
    fn metrics_json_shape() {
        let j = metrics_json(&[m("job_s", 1.5, "s"), m("ok_ratio", 1.0, "ratio")]);
        assert_eq!(j, "{\"job_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"ok_ratio\": {\"value\": 1, \"unit\": \"ratio\"}}");
    }
}
