//! End-to-end and per-layer benchmark of the sann workspace.
//!
//! ```text
//! sann-e2e-bench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One run sets the workload up cold several times (datagen, ground truth,
//! index build, knob tuning), then measures for about `S` seconds: recall,
//! trace collection, an op stream of searches (and inserts), plan compile,
//! and repeated closed-loop replays at 1 and 64 simulated clients. Every
//! layer is reached through its public functions. The last line of stdout
//! is one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See README.md.

mod spans;
mod workload;

use sann_core::cast::{f64_from_u64, f64_from_usize, u64_from_usize};
use sann_core::{stats, Dataset, Result};
use sann_datagen::GroundTruth;
use sann_engine::{DeviceCostModel, Executor, QueryPlan, RunConfig, RunMetrics, Segment};
use sann_index::{FreshDiskAnnIndex, IoReq, QueryTrace, SearchOutput, SearchParams, VectorIndex};
use sann_obs::Phase;
use sann_vdb::Setup;
use spans::Spans;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
// sann-lint: allow(wall-clock) -- host-clock timer type; every read below is marked
use std::time::Instant;
use workload::{Seeds, Workload, CLIENTS, SEARCHES_PER_INSERT, SIM_CORES};

/// `k` of every search (the paper reports recall@10).
const K: usize = 10;

/// Recall target the knob is tuned to.
const RECALL_TARGET: f64 = 0.9;

/// Replay rounds at least; more run while `--seconds` lasts.
const MIN_ROUNDS: usize = 5;

/// Untraced/traced op-pass pairs that estimate the tracing overhead.
const OVERHEAD_PAIRS: usize = 3;

/// Where the traced run writes its spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Cold set-ups per run ([`Workload::setup_reps`]).
    setup_reps: usize,
}

fn parse_args(args: &[String]) -> std::result::Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!(
                    "unknown workload `{value}` (one of {})",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload: Workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        setup_reps: workload.setup_reps(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload NAME --seed N --seconds S --trace 0|1: {e}");
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::new(args.trace);
    let run = match run(&args, &mut spans) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(gate) = &run.gate {
        // A failed gate reports no numbers.
        eprintln!("correctness gate failed: {gate}");
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            run.attempted, run.failed
        );
        return ExitCode::FAILURE;
    }
    let metrics = if args.trace {
        let path = std::path::Path::new(TRACE_DIR).join(format!(
            "{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("cannot write spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("spans written to {}", path.display());
        per_layer(&run, &spans)
    } else {
        end_to_end(&run)
    };
    match render(&run, &metrics) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One cold set-up of the workload.
struct World {
    base: Dataset,
    queries: Dataset,
    stream: Dataset,
    setup: Setup,
    index: Box<dyn VectorIndex>,
    tuned_recall: f64,
    tune_steps: u64,
    truth: GroundTruth,
    fresh: Option<FreshDiskAnnIndex>,
}

/// Wraps an index to count the searches made through it (tuning steps).
struct CountingIndex<'a> {
    inner: &'a dyn VectorIndex,
    searches: AtomicU64,
}

impl VectorIndex for CountingIndex<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn is_storage_based(&self) -> bool {
        self.inner.is_storage_based()
    }
    fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<SearchOutput> {
        self.searches.fetch_add(1, Ordering::Relaxed);
        self.inner.search(query, k, params)
    }
    fn memory_bytes(&self) -> u64 {
        self.inner.memory_bytes()
    }
    fn storage_bytes(&self) -> u64 {
        self.inner.storage_bytes()
    }
}

fn cold_setup(w: Workload, seed: u64, spans: &mut Spans) -> Result<World> {
    let seeds = Seeds::new(seed);
    let spec = w.spec(seed);
    spans.span("setup", |s| {
        let (bundle, stream) = s.span("datagen.generate", |_| {
            let inserts = if w.writes() {
                w.op_passes() * spec.n_queries / SEARCHES_PER_INSERT
            } else {
                0
            };
            (
                spec.generate(),
                spec.model().generate_stream(inserts, seeds.stream),
            )
        });
        let truth = s.span("datagen.groundtruth", |_| {
            GroundTruth::bruteforce(&bundle.base, &bundle.queries, spec.metric, K)
        });
        let mut setup = Setup::new(w.kind(), bundle.base.len());
        setup.seed = seeds.build;
        let index = s.span("index.build", |_| {
            setup.build_index(&bundle.base, spec.metric)
        })?;
        let counted = CountingIndex {
            inner: index.as_ref(),
            searches: AtomicU64::new(0),
        };
        // Tuned on the full query set, so the recall measured later at the
        // tuned knob must equal the recall tuning reported.
        let tuned_recall = s.span("vdb.tune", |_| {
            setup.tune(&counted, &bundle.queries, &truth, RECALL_TARGET)
        })?;
        let tune_steps =
            counted.searches.load(Ordering::Relaxed) / u64_from_usize(bundle.queries.len());
        let fresh = if w.writes() {
            Some(s.span("index.fresh_build", |_| {
                FreshDiskAnnIndex::build(
                    &bundle.base,
                    spec.metric,
                    workload::fresh_config(seeds.build),
                )
            })?)
        } else {
            None
        };
        Ok(World {
            base: bundle.base,
            queries: bundle.queries,
            stream,
            setup,
            index,
            tuned_recall,
            tune_steps,
            truth,
            fresh,
        })
    })
}

/// One pass of the op stream: every query searched once, and on the
/// read-write workload an insert after every [`SEARCHES_PER_INSERT`]
/// searches. Pass `p` inserts the `p`-th slice of the insert stream.
#[derive(Default)]
struct Pass {
    /// Host CPU seconds of the pass.
    secs: f64,
    ops: u64,
    errors: u64,
    searches: Vec<QueryTrace>,
    inserts: Vec<(QueryTrace, Vec<IoReq>)>,
}

fn op_pass(
    world: &World,
    mut fresh: Option<&mut FreshDiskAnnIndex>,
    p: usize,
    spans: &mut Spans,
) -> Result<Pass> {
    let params = world.setup.params.search_params();
    let first_row = p * world.queries.len() / SEARCHES_PER_INSERT;
    let mut pass = Pass::default();
    let start = thread_cpu_secs()?;
    for (i, q) in world.queries.iter().enumerate() {
        pass.ops += 1;
        match spans.span("index.search", |_| world.index.search(q, K, &params)) {
            Ok(out) => pass.searches.push(out.trace),
            Err(e) => {
                eprintln!("search {i} failed: {e}");
                pass.errors += 1;
            }
        }
        let insert_due = (i + 1) % SEARCHES_PER_INSERT == 0;
        if let Some(index) = fresh.as_deref_mut().filter(|_| insert_due) {
            pass.ops += 1;
            let row = world.stream.row(first_row + i / SEARCHES_PER_INSERT);
            match spans.span("index.insert", |_| index.insert(row)) {
                Ok((_, trace)) => pass.inserts.push((trace, index.take_insert_writes())),
                Err(e) => {
                    eprintln!("insert {i} failed: {e}");
                    pass.errors += 1;
                }
            }
        }
    }
    pass.secs = thread_cpu_secs()? - start;
    Ok(pass)
}

/// CPU time the calling thread has run so far, seconds (Linux
/// `schedstat`). Time the thread waits for a core, or the host runs
/// another guest, does not count, so single-threaded phases time steadily
/// on a shared machine.
fn thread_cpu_secs() -> Result<f64> {
    // sann-lint: allow(wall-clock) -- host CPU clock of the benchmark thread; never enters simulated results
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")?;
    stat.split_whitespace()
        .next()
        .and_then(|ns| ns.parse::<u64>().ok())
        .map(|ns| f64_from_u64(ns) / 1e9)
        .ok_or_else(|| sann_core::Error::invalid_parameter("cpu clock", "malformed schedstat"))
}

/// One replay at one client count.
struct Replay {
    /// Host CPU seconds of `Executor::run`.
    secs: f64,
    metrics: RunMetrics,
}

/// Everything a run measured.
struct Run {
    gate: std::result::Result<(), String>,
    /// Search and insert calls the op passes made.
    attempted: u64,
    /// Of those, the calls that returned `Err`.
    failed: u64,
    /// Share of host ops and simulated queries (first replay round) that
    /// neither returned `Err` nor completed degraded.
    served_frac: f64,
    setup_secs: Vec<f64>,
    peak_rss_mib: f64,
    passes: Vec<Pass>,
    recall: f64,
    world: World,
    search_plans: Vec<QueryPlan>,
    /// Replay rounds; each holds one replay per entry of [`CLIENTS`].
    rounds: Vec<Vec<Replay>>,
    overhead_frac: f64,
}

impl Run {
    fn first(&self, clients_idx: usize) -> &RunMetrics {
        &self.rounds[0][clients_idx].metrics
    }
}

/// Failed correctness checks, collected so a run can name them all.
#[derive(Default)]
struct Gate(Vec<String>);

impl Gate {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// The measured part of a run after the first op pass: replay rounds and
/// the remaining op passes, taken one step at a time so that their samples
/// spread over the whole run, between the later set-ups too.
struct Measure<'a> {
    world: &'a World,
    fresh: Option<FreshDiskAnnIndex>,
    traces: &'a [QueryTrace],
    plans: Vec<QueryPlan>,
    executors: Vec<Executor>,
    op_passes: usize,
    passes: Vec<Pass>,
    rounds: Vec<Vec<Replay>>,
    /// Wall seconds spent measuring so far.
    secs: f64,
}

impl Measure<'_> {
    /// One replay round, then the next op pass if one is left.
    fn step(&mut self, gate: &mut Gate, spans: &mut Spans) -> Result<()> {
        // sann-lint: allow(wall-clock) -- host-clock measurement budget; never enters simulated results
        let start = Instant::now();
        let mut round = Vec::with_capacity(CLIENTS.len());
        for (ci, exec) in self.executors.iter().enumerate() {
            let name = if CLIENTS[ci] == 1 {
                "des.replay_c1"
            } else {
                "des.replay_c64"
            };
            let cpu_start = thread_cpu_secs()?;
            let metrics = spans.span(name, |_| exec.run(&self.plans));
            let secs = thread_cpu_secs()? - cpu_start;
            if let Some(first) = self.rounds.first() {
                gate.check(
                    first[ci].metrics.canonical_bytes() == metrics.canonical_bytes(),
                    || {
                        format!(
                            "replay at c{} is not byte-identical to its first replay",
                            CLIENTS[ci]
                        )
                    },
                );
            }
            let f = &metrics.fault;
            gate.check(f.ios_planned == f.ios_completed + f.ios_abandoned, || {
                format!(
                    "fault ledger at c{}: planned {} != completed {} + abandoned {}",
                    CLIENTS[ci], f.ios_planned, f.ios_completed, f.ios_abandoned
                )
            });
            round.push(Replay { secs, metrics });
        }
        self.rounds.push(round);
        if self.passes.len() < self.op_passes {
            let p = self.passes.len();
            let pass = op_pass(self.world, self.fresh.as_mut(), p, spans)?;
            gate.check(pass.searches == self.traces, || {
                format!("op pass {p} searched differently from Setup::traces")
            });
            self.passes.push(pass);
        }
        self.secs += start.elapsed().as_secs_f64();
        Ok(())
    }
}

/// One cold set-up, timed on the wall clock.
fn timed_setup(w: Workload, seed: u64, spans: &mut Spans) -> Result<(World, f64)> {
    // sann-lint: allow(wall-clock) -- host-clock set-up time; never enters simulated results
    let start = Instant::now();
    let world = cold_setup(w, seed, spans)?;
    let secs = start.elapsed().as_secs_f64();
    eprintln!("[bench] set-up: {secs:.3} s");
    Ok((world, secs))
}

fn run(args: &Args, spans: &mut Spans) -> Result<Run> {
    let w = args.workload;
    let mut gate = Gate::default();

    // Set-up, cold every time: nothing is read from `.sann-cache`.
    let (mut world, secs) = timed_setup(w, args.seed, spans)?;
    let mut setup_secs = vec![secs];
    // sann-lint: allow(wall-clock) -- host-clock measurement budget; never enters simulated results
    let start = Instant::now();

    let recall = spans.span("vdb.recall", |_| {
        world
            .setup
            .recall(world.index.as_ref(), &world.queries, &world.truth, K)
    })?;
    gate.check(recall >= world.tuned_recall && recall > 0.0, || {
        format!(
            "recall@10 {recall} is below the tuned recall {}",
            world.tuned_recall
        )
    });
    let traces = spans.span("vdb.traces", |_| {
        world.setup.traces(world.index.as_ref(), &world.queries, K)
    })?;
    let max_beam = if w.kind().is_storage_based() {
        world.setup.params.beam_width
    } else {
        0
    };
    for (i, t) in traces.iter().enumerate() {
        if let Err(e) = t.validate(max_beam) {
            gate.check(false, || format!("search trace {i} is invalid: {e}"));
        }
    }

    // The first op pass inserts into the freshly built index; its inserts
    // are the ones replayed.
    let mut fresh = world.fresh.take();
    let first = op_pass(&world, fresh.as_mut(), 0, spans)?;
    gate.check(first.searches == traces, || {
        "op pass 0 searched differently from Setup::traces".to_owned()
    });
    for (i, (t, _)) in first.inserts.iter().enumerate() {
        // Insert beams are capped in nodes, and a node record may straddle
        // two sectors, so only the request shape is checked.
        if let Err(e) = t.validate(0) {
            gate.check(false, || format!("insert trace {i} is invalid: {e}"));
        }
    }

    // Plans: searches, with one insert plan after every
    // SEARCHES_PER_INSERT searches (the op stream's order).
    let spec = w.spec(args.seed);
    let builder = sann_vdb::setup::calibrated_plan_builder(
        w.kind(),
        Setup::size_ratio(&spec),
        workload::SCALE,
    );
    let (search_plans, plans) = spans.span("plan.compile", |_| {
        let search_plans = builder.build_all(&traces);
        let mut plans = Vec::with_capacity(search_plans.len() + first.inserts.len());
        let mut inserts = first.inserts.iter();
        for (i, plan) in search_plans.iter().enumerate() {
            plans.push(plan.clone());
            if (i + 1) % SEARCHES_PER_INSERT == 0 {
                if let Some((trace, writes)) = inserts.next() {
                    let mut segments = builder.build(trace).segments().to_vec();
                    segments.push(Segment::write(writes.clone()));
                    plans.push(QueryPlan::new(segments));
                }
            }
        }
        (search_plans, plans)
    });

    let profile = w.kind().profile();
    let executors = CLIENTS
        .iter()
        .map(|&concurrency| {
            Executor::new(RunConfig {
                cores: SIM_CORES,
                concurrency,
                duration_us: w.sim_duration_us(),
                max_concurrent: profile.max_concurrent,
                cache_bytes: profile.cache_bytes,
                faults: profile.fault_config(w.fault_profile()),
                ..RunConfig::default()
            })
        })
        .collect();
    let mut measure = Measure {
        world: &world,
        fresh,
        traces: &traces,
        plans,
        executors,
        op_passes: w.op_passes(),
        passes: vec![first],
        rounds: Vec::new(),
        secs: start.elapsed().as_secs_f64(),
    };

    // The later set-ups, each followed by one measurement step; then steps
    // until the op passes are done and `--seconds` of measuring is spent.
    // Every replay must give the same canonical bytes as the first at its
    // client count.
    for rep in 1..args.setup_reps {
        let (built, secs) = timed_setup(w, args.seed, spans)?;
        setup_secs.push(secs);
        gate.check(
            built.setup.knob() == world.setup.knob() && built.tuned_recall == world.tuned_recall,
            || format!("set-up {rep} tuned differently from set-up 0"),
        );
        drop(built);
        measure.step(&mut gate, spans)?;
    }
    while measure.passes.len() < measure.op_passes
        || measure.rounds.len() < MIN_ROUNDS
        || measure.secs < args.seconds
    {
        measure.step(&mut gate, spans)?;
    }
    let Measure {
        passes,
        rounds,
        secs,
        ..
    } = measure;
    eprintln!(
        "[bench] measured {secs:.3} s: {} op passes {:?} CPU s, {} replay rounds",
        passes.len(),
        passes.iter().map(|p| p.secs).collect::<Vec<_>>(),
        rounds.len()
    );

    // Tracing overhead: alternate untraced and traced search-only passes.
    let mut overhead_frac = 0.0;
    if spans.enabled() {
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for _ in 0..OVERHEAD_PAIRS {
            spans.set_enabled(false);
            off.push(op_pass(&world, None, 0, spans)?.secs);
            spans.set_enabled(true);
            on.push(op_pass(&world, None, 0, spans)?.secs);
        }
        overhead_frac = median(&on) / median(&off) - 1.0;
    }

    let failed: u64 = passes.iter().map(|p| p.errors).sum();
    let attempted: u64 = passes.iter().map(|p| p.ops).sum();
    let degraded: u64 = rounds[0]
        .iter()
        .map(|r| r.metrics.fault.degraded_queries)
        .sum();
    let simulated: u64 = rounds[0].iter().map(|r| r.metrics.completed).sum();
    Ok(Run {
        gate: if gate.0.is_empty() {
            Ok(())
        } else {
            Err(gate.0.join("; "))
        },
        attempted,
        failed,
        served_frac: 1.0 - f64_from_u64(failed + degraded) / f64_from_u64(attempted + simulated),
        setup_secs,
        peak_rss_mib: peak_rss_mib()?,
        passes,
        recall,
        world,
        search_plans,
        rounds,
        overhead_frac,
    })
}

/// The process's peak resident set size, MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| sann_core::Error::invalid_parameter("rss", "no VmHWM in /proc/self/status"))
}

fn median(xs: &[f64]) -> f64 {
    stats::percentile(xs, 50.0)
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    (name.into(), value, unit)
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    let (c1, c64) = (run.first(0), run.first(1));
    let ledger = DeviceCostModel::samsung_990_pro().price(c64, SIM_CORES);
    vec![
        m("setup_s", median(&run.setup_secs), "s"),
        m("peak_rss_mib", run.peak_rss_mib, "MiB"),
        m("recall_at_10", run.recall, "fraction"),
        m("sim_qps_c64", c64.qps, "1/s"),
        m("sim_p50_us_c1", c1.p50_latency_us, "us"),
        m("sim_p99_us_c1", c1.p99_latency_us, "us"),
        m("sim_p50_us_c64", c64.p50_latency_us, "us"),
        m("sim_p99_us_c64", c64.p99_latency_us, "us"),
        m("usd_per_mquery", ledger.usd_per_million(), "USD/1M"),
        m("served_frac", run.served_frac, "fraction"),
    ]
}

fn per_layer(run: &Run, spans: &Spans) -> Vec<Metric> {
    let world = &run.world;
    let med = |name: &str| {
        let xs = spans.self_seconds(name);
        if xs.is_empty() {
            0.0
        } else {
            median(&xs)
        }
    };
    let pct_us = |name: &str, p: f64| {
        let xs: Vec<f64> = spans.self_seconds(name).iter().map(|s| s * 1e6).collect();
        if xs.is_empty() {
            0.0
        } else {
            stats::percentile(&xs, p)
        }
    };
    let traces = &run.passes[0].searches;
    let per_query = |f: &dyn Fn(&QueryTrace) -> u64| {
        f64_from_u64(traces.iter().map(f).sum()) / f64_from_usize(traces.len())
    };
    let plans = &run.search_plans;
    let gt_s = med("datagen.groundtruth");
    let (c1, c64) = (run.first(0), run.first(1));
    let secs_c = |ci: usize| {
        let xs: Vec<f64> = run.rounds.iter().map(|r| r[ci].secs).collect();
        median(&xs)
    };
    let ledger = DeviceCostModel::samsung_990_pro().price(c64, SIM_CORES);
    let per_m = |usd: f64| usd / f64_from_u64(c64.completed.max(1)) * 1e6;
    let mib = f64_from_u64(1 << 20);
    let fault = |get: &dyn Fn(&sann_engine::FaultStats) -> u64| {
        f64_from_u64(get(&c1.fault) + get(&c64.fault))
    };
    // Host throughput of the op stream and of the replays. On a shared host
    // these swing too far between runs to carry a bound, so they are
    // reported here rather than end to end.
    let ops_rate: Vec<f64> = run
        .passes
        .iter()
        .map(|p| f64_from_u64(p.ops) / p.secs)
        .collect();
    let replay_rate: Vec<f64> = run
        .rounds
        .iter()
        .map(|r| {
            let completed: u64 = r.iter().map(|x| x.metrics.completed).sum();
            let secs: f64 = r.iter().map(|x| x.secs).sum();
            f64_from_u64(completed) / secs
        })
        .collect();

    let mut out = vec![
        m("host_ops_per_s", median(&ops_rate), "1/s"),
        m("replay_queries_per_s", median(&replay_rate), "1/s"),
        m("datagen.generate_s", med("datagen.generate"), "s"),
        m("datagen.groundtruth_s", gt_s, "s"),
        m(
            "core.dist_per_s",
            f64_from_usize(world.queries.len() * world.base.len()) / gt_s,
            "1/s",
        ),
        m("index.build_s", med("index.build"), "s"),
        m("index.fresh_build_s", med("index.fresh_build"), "s"),
        m(
            "index.bytes_per_vector",
            f64_from_u64(world.index.memory_bytes() + world.index.storage_bytes())
                / f64_from_usize(world.index.len()),
            "B",
        ),
        m("vdb.tune_s", med("vdb.tune"), "s"),
        m("vdb.tune_steps", f64_from_u64(world.tune_steps), "count"),
        m("vdb.knob", f64_from_usize(world.setup.knob()), "count"),
        m("index.search_us_p50", pct_us("index.search", 50.0), "us"),
        m("index.search_us_p99", pct_us("index.search", 99.0), "us"),
        m("index.insert_us_p50", pct_us("index.insert", 50.0), "us"),
        m("index.insert_us_p99", pct_us("index.insert", 99.0), "us"),
        m(
            "index.dist_evals_per_query",
            per_query(&QueryTrace::compute_count),
            "count",
        ),
        m(
            "index.pq_lookups_per_query",
            per_query(&QueryTrace::pq_lookup_count),
            "count",
        ),
        m(
            "index.hops_per_query",
            per_query(&QueryTrace::hops),
            "count",
        ),
        m(
            "index.reads_per_query",
            per_query(&QueryTrace::io_count),
            "count",
        ),
        m(
            "index.read_kib_per_query",
            per_query(&QueryTrace::read_bytes) / 1024.0,
            "KiB",
        ),
        m("plan.compile_s", med("plan.compile"), "s"),
        m(
            "plan.cpu_us_per_query",
            plans.iter().map(QueryPlan::cpu_us).sum::<f64>() / f64_from_usize(plans.len()),
            "us",
        ),
        m(
            "plan.ios_per_query",
            f64_from_u64(plans.iter().map(QueryPlan::io_count).sum()) / f64_from_usize(plans.len()),
            "count",
        ),
        m("des.host_s_c1", secs_c(0), "s"),
        m("des.host_s_c64", secs_c(1), "s"),
        m("des.completed_c1", f64_from_u64(c1.completed), "count"),
        m("des.completed_c64", f64_from_u64(c64.completed), "count"),
        m("des.cpu_util_c64", c64.cpu_utilization, "fraction"),
    ];
    for (ci, metrics) in [c1, c64].into_iter().enumerate() {
        for phase in Phase::ALL {
            out.push(m(
                format!("des.{}_us_c{}", phase.name(), CLIENTS[ci]),
                metrics.phase_breakdown.mean_us(phase),
                "us",
            ));
        }
    }
    out.extend([
        m(
            "ssd.device_reads_per_query",
            f64_from_u64(c64.io_stats.reads) / f64_from_u64(c64.completed.max(1)),
            "count",
        ),
        m("ssd.read_amplification", c64.read_amplification(), "ratio"),
        m("ssd.queue_depth_c64", c64.device.mean_queue_depth, "count"),
        m("ssd.utilization_c64", c64.device.utilization, "fraction"),
        m("ssd.read_mib_s_c64", c64.mean_bandwidth_mib, "MiB/s"),
        m(
            "ssd.write_mib_s_c64",
            f64_from_u64(c64.io_stats.write_bytes) / mib / (c64.duration_us / 1e6),
            "MiB/s",
        ),
        m("ssd.hot_page_skew", c64.hot_page_skew, "fraction"),
        m(
            "fault.injected_errors",
            fault(&|f| f.injected_errors),
            "count",
        ),
        m("fault.retries", fault(&|f| f.retries), "count"),
        m(
            "fault.retry_exhausted",
            fault(&|f| f.retry_exhausted),
            "count",
        ),
        m("fault.hedges_issued", fault(&|f| f.hedges_issued), "count"),
        m(
            "fault.degraded_queries",
            fault(&|f| f.degraded_queries),
            "count",
        ),
        m("fault.ios_abandoned", fault(&|f| f.ios_abandoned), "count"),
        m(
            "ledger.capacity_usd_per_m",
            per_m(ledger.capacity_usd),
            "USD/1M",
        ),
        m("ledger.wear_usd_per_m", per_m(ledger.wear_usd), "USD/1M"),
        m(
            "ledger.energy_usd_per_m",
            per_m(ledger.energy_usd),
            "USD/1M",
        ),
        m("ledger.cpu_usd_per_m", per_m(ledger.cpu_usd), "USD/1M"),
        m("bench.trace_overhead_frac", run.overhead_frac, "fraction"),
    ]);
    out
}

/// Renders the result line; refuses names outside `[A-Za-z0-9_.-]+` and
/// values JSON cannot carry.
fn render(run: &Run, metrics: &[Metric]) -> std::result::Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !valid_name(name) {
            return Err(format!("bad metric name `{name}`"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        body.join(", ")
    ))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short run with one set-up; every correctness gate must pass.
    fn quick(workload: Workload, seed: u64, trace: bool) -> (Run, Spans) {
        let args = Args {
            workload,
            seed,
            seconds: 0.01,
            trace,
            setup_reps: 1,
        };
        let mut spans = Spans::new(trace);
        let run = run(&args, &mut spans).expect("run completes");
        assert_eq!(run.gate, Ok(()), "{}", workload.name());
        (run, spans)
    }

    /// Everything the simulated clock and the exact recall produced.
    fn simulated(run: &Run) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = run.rounds[0]
            .iter()
            .map(|r| r.metrics.canonical_bytes())
            .collect();
        out.push(run.recall.to_le_bytes().to_vec());
        out
    }

    /// Metric and workload names listed in BENCHMARK.json.
    fn declared_names() -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        json.split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn seed_decides_the_simulated_metrics() {
        let (a, _) = quick(Workload::HnswOpenai, 7, false);
        let (b, spans) = quick(Workload::HnswOpenai, 7, true);
        let (c, _) = quick(Workload::HnswOpenai, 8, false);
        assert_eq!(simulated(&a), simulated(&b), "same seed, traced or not");
        assert_ne!(simulated(&a), simulated(&c), "a second seed");

        let mut printed: Vec<String> = Workload::ALL.map(|w| w.name().to_owned()).to_vec();
        printed.extend(end_to_end(&a).into_iter().map(|(n, _, _)| n));
        printed.extend(per_layer(&b, &spans).into_iter().map(|(n, _, _)| n));
        assert!(printed.iter().all(|n| valid_name(n)), "{printed:?}");
        let mut declared = declared_names();
        printed.sort();
        declared.sort();
        assert_eq!(
            printed, declared,
            "BENCHMARK.json lists exactly the printed names"
        );

        // The memory-based workload never reaches the device.
        assert_eq!(a.first(1).io_stats.reads, 0);
    }

    #[test]
    fn read_write_workload_writes_and_retries() {
        let (run, _) = quick(Workload::DiskannRwFlaky, 1, false);
        let c64 = run.first(1);
        assert!(c64.io_stats.write_bytes > 0, "inserts write node records");
        assert!(c64.fault.retries > 0, "the flaky device makes reads retry");
        assert!(run.passes[0].inserts.len() * SEARCHES_PER_INSERT == run.world.queries.len());
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_name("des.queue_wait_us_c64"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name(""));
    }
}
