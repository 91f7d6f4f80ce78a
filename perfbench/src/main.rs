//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <plan-grid|serve-adapt|fleet-100k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs as repeated *passes*: a set-up (timed as
//! `setup_s`), then the timed calls into the stack. The first pass warms
//! process-wide caches and is not measured; passes repeat until
//! `--seconds` have been measured, and timings are medians over passes.
//! All three workloads are open-loop in virtual time and run as fast as
//! possible in wall time.
//!
//! With `--trace 0` the last line of stdout is a JSON object with every
//! end-to-end metric. With `--trace 1` untraced and traced passes
//! alternate; the object holds every per-layer metric, and the spans of
//! the traced passes are written as Chrome trace-event JSON (`--trace-out`,
//! default `$CARGO_TARGET_DIR/perfbench/` or `target/perfbench/`).
//!
//! Output checks — request conservation and `PlanInvariants` on every plan
//! in every pass; in a traced run, identical event-log and replay digests
//! across all passes, traced or not — set `correct` to false and the exit
//! code to 1. Untraced runs skip the event-log digests, which cost more wall
//! time than the runs they cover.

// Reading the wall clock is this binary's job; the repository-wide clippy
// ban on it protects the library crates' replayability, as in crates/bench.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod fleet;
mod plan_grid;
mod probe;
mod serve_adapt;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use exegpt::{Engine, PlanInvariants, Replan, ReplanDelta, Schedule, SchedulerOptions};
use exegpt_sim::Workload;

use probe::{CallStats, Probe};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Output-length drift applied before every timed replan: mean ×1.3.
const DRIFT_MEAN: f64 = 1.3;

/// The workload with its output-length mean scaled by [`DRIFT_MEAN`].
pub fn drifted(w: &Workload) -> Result<Workload, String> {
    let output = w.output().with_scaled_mean(DRIFT_MEAN).map_err(|e| e.to_string())?;
    Ok(Workload::new(w.input().clone(), output))
}

/// What one pass measured. Times are wall clock; everything else is
/// simulated and deterministic for a seed.
#[derive(Debug, Default)]
pub struct Pass {
    pub setup_s: f64,
    /// Cold full searches, milliseconds each.
    pub plan_ms: Vec<f64>,
    /// Drift replans, milliseconds each.
    pub replan_ms: Vec<f64>,
    /// Simulated requests completed by the run calls, and their wall time.
    pub completed: u64,
    pub run_s: f64,
    /// Requests sent, and those completed within their limit.
    pub sent: u64,
    pub met: u64,
    pub goodput_qps: f64,
    /// Operations attempted and failed (see METRICS.md).
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the pass's event logs and replay facts, when asked for.
    pub digest: Option<u64>,
    /// Output-check failures.
    pub violations: Vec<String>,
    /// Per-layer counts, by metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Per-call totals and heap peak, from the probe.
    pub calls: BTreeMap<&'static str, CallStats>,
    pub heap_peak: usize,
    /// Wall time of the whole pass.
    pub wall_s: f64,
}

/// Runs a workload's set-up under a span, recording its wall time.
pub fn set_up<T>(
    probe: &mut Probe,
    out: &mut Pass,
    setup: impl FnOnce(&mut Probe) -> Result<T, String>,
) -> Result<T, String> {
    let start = Instant::now();
    let value = probe.span("bench.setup", 0, setup);
    out.setup_s = start.elapsed().as_secs_f64();
    value
}

/// What changed before every timed replan: the output lengths drifted.
const DRIFT: ReplanDelta = ReplanDelta { gpu_delta: 0, workload_changed: true };

impl Pass {
    /// Adds `v` to the per-layer count `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// `PlanInvariants::check` on a plan, recorded as an output-check failure.
    pub fn check_plan(&mut self, engine: &Engine, plan: &Schedule, what: &str) {
        if let Err(report) = PlanInvariants::check(engine.simulator(), plan) {
            self.violations.push(format!(
                "{what} plan {} breaks invariants: {}",
                plan.config.describe(),
                report.violations().join("; ")
            ));
        }
    }

    /// Checks and counts a cold full search's plan.
    pub fn record_search(&mut self, engine: &Engine, plan: &Schedule) {
        self.check_plan(engine, plan, "search");
        self.add("core.evals", plan.evals as f64);
        self.add("core.cache_hits", plan.cache_hits as f64);
        let stats = engine.simulator().cache_stats();
        self.add("sim.cache_hits", stats.hits as f64);
        self.add("sim.cache_misses", stats.misses as f64);
    }

    /// Checks and counts a drift replan.
    pub fn record_replan(&mut self, engine: &Engine, replan: &Replan) {
        self.check_plan(engine, &replan.schedule, "replan");
        self.add("core.replan_fallbacks", f64::from(u8::from(replan.fell_back)));
        self.add("core.replan_neighborhood_tasks", replan.neighborhood_tasks as f64);
        self.add("core.replan_certified_tasks", replan.certified_tasks as f64);
    }
}

/// Times `reps` rounds of, for each `(engine, plan)` state, a cold full
/// search (on a fresh evaluation cache) and a drift replan from `plan` (on
/// a fresh drifted engine) — the plan latency of the deployments that
/// `serve-adapt` and `fleet-100k` set up.
pub fn time_plans(
    probe: &mut Probe,
    out: &mut Pass,
    states: &[(Engine, Schedule)],
    opts: &SchedulerOptions,
    reps: usize,
) -> Result<(), String> {
    let moved: Vec<Workload> =
        states.iter().map(|(e, _)| drifted(e.simulator().workload())).collect::<Result<_, _>>()?;
    for rep in 0..reps as u64 {
        for ((engine, plan), moved) in states.iter().zip(&moved) {
            let cold = engine.with_workload(engine.simulator().workload().clone());
            out.attempted += 1;
            let (s, secs) = probe.call("core.schedule", rep, || cold.schedule_with(opts));
            out.plan_ms.push(secs * 1e3);
            match s {
                Ok(s) => out.record_search(&cold, &s),
                Err(_) => out.failed += 1,
            }
            let warm = engine.with_workload(moved.clone());
            out.attempted += 1;
            let (r, secs) = probe.call("core.replan", rep, || warm.replan_from(plan, DRIFT, opts));
            out.replan_ms.push(secs * 1e3);
            match r {
                Ok(r) => out.record_replan(&warm, &r),
                Err(_) => out.failed += 1,
            }
        }
    }
    Ok(())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <plan-grid|serve-adapt|fleet-100k> --seed <n> \
                     --seconds <s> --trace <0|1> [--trace-out <file>]";

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, trace_out: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !matches!(args.workload.as_str(), "plan-grid" | "serve-adapt" | "fleet-100k") {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn run_pass(args: &Args, probe: &mut Probe) -> Result<Pass, String> {
    let (seed, digest) = (args.seed, args.trace);
    let start = Instant::now();
    let mut pass = probe.span("bench.pass", seed, |probe| match args.workload.as_str() {
        "plan-grid" => plan_grid::pass(seed, probe),
        "serve-adapt" => serve_adapt::pass(seed, probe, digest),
        _ => fleet::pass(seed, probe, digest),
    })?;
    pass.wall_s = start.elapsed().as_secs_f64();
    (pass.calls, pass.heap_peak) = probe.take_stats();
    let mut plans = pass.plan_ms.clone();
    eprintln!(
        "perfbench: pass {:.3}s, set-up {:.4}s, plan p50 {:.3}ms, {:.0} sim req/wall-s",
        pass.wall_s,
        pass.setup_s,
        median(&mut plans),
        ratio(pass.completed as f64, pass.run_s),
    );
    Ok(pass)
}

fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile (0 for an empty sample).
fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil().max(1.0) as usize;
    xs[rank.min(xs.len()) - 1]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(m, "{sep}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}");
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Every pass passed its own checks, and every digest taken is the same.
fn check_passes<'a>(passes: impl Iterator<Item = &'a Pass>) -> bool {
    let mut ok = true;
    let mut digest = None;
    for (i, p) in passes.enumerate() {
        for v in &p.violations {
            eprintln!("perfbench: pass {i}: check failed: {v}");
            ok = false;
        }
        let Some(d) = p.digest else { continue };
        let first = *digest.get_or_insert(d);
        if d != first {
            eprintln!("perfbench: pass {i}: digest {d:016x} differs from pass 0's {first:016x}");
            ok = false;
        }
    }
    ok
}

fn end_to_end(passes: &[Pass]) -> Vec<(&'static str, f64, &'static str)> {
    let per = |f: &dyn Fn(&Pass) -> f64| {
        let mut xs: Vec<f64> = passes.iter().map(f).collect();
        median(&mut xs)
    };
    // A quantile of each pass's calls, then the median over passes: a burst
    // of host noise that slows a few passes does not move it.
    let q = |f: &dyn Fn(&Pass) -> &Vec<f64>, q: f64| per(&|p| quantile(&mut f(p).clone(), q));
    let first = &passes[0];
    vec![
        ("setup_s", per(&|p| p.setup_s), "s"),
        ("plan_ms.p50", q(&|p| &p.plan_ms, 0.5), "ms"),
        ("plan_ms.p90", q(&|p| &p.plan_ms, 0.9), "ms"),
        ("replan_ms.p50", q(&|p| &p.replan_ms, 0.5), "ms"),
        ("replan_ms.p90", q(&|p| &p.replan_ms, 0.9), "ms"),
        ("sim_req_per_wall_s", per(&|p| ratio(p.completed as f64, p.run_s)), "1/s"),
        ("slo_attainment", ratio(first.met as f64, first.sent as f64), "fraction"),
        ("goodput_qps", first.goodput_qps, "1/s"),
        ("heap_peak_mb", per(&|p| p.heap_peak as f64 / 1e6), "MB"),
    ]
}

/// Per-layer metrics from the traced passes (`traced`) and their untraced
/// twins (`plain`). Times are self times per pass, averaged over passes.
fn per_layer(
    traced: &[Pass],
    plain: &[Pass],
    self_secs: &BTreeMap<&str, f64>,
) -> Vec<(&'static str, f64, &'static str)> {
    let n = traced.len() as f64;
    let first = &traced[0];
    let count = |name: &str| first.counts.get(name).copied().unwrap_or(0.0);
    let ms = |span: &str| self_secs.get(span).copied().unwrap_or(0.0) * 1e3 / n;
    let calls = |span: &str| first.calls.get(span).copied().unwrap_or_default();
    let wall = |ps: &[Pass]| ps.iter().map(|p| p.wall_s).sum::<f64>();
    let serve = calls("serve.run");
    let fleet = calls("fleet.run");
    let runner = calls("runner.run");
    let evaluate = calls("sim.evaluate");
    let hits = count("sim.cache_hits");
    let mut m = vec![
        ("failed_frac", ratio(first.failed as f64, first.attempted as f64), "fraction"),
        ("scenario.decode_ms", ms("scenario.decode"), "ms"),
        ("scenario.lower_ms", ms("scenario.lower"), "ms"),
        ("profiler.profile_ms", ms("profiler.profile"), "ms"),
        ("baselines.bounds_ms", ms("baselines.bounds"), "ms"),
        ("core.schedule_ms", ms("core.schedule"), "ms"),
        ("core.schedule_calls", calls("core.schedule").calls as f64, "count"),
        ("core.evals", count("core.evals"), "count"),
        ("core.cache_hits", count("core.cache_hits"), "count"),
        ("core.evals_per_s", ratio(count("core.evals"), ms("core.schedule") / 1e3), "1/s"),
        ("core.ns_cells", count("core.ns_cells"), "count"),
        ("core.replan_ms", ms("core.replan"), "ms"),
        ("core.replan_calls", calls("core.replan").calls as f64, "count"),
        ("core.replan_fallbacks", count("core.replan_fallbacks"), "count"),
        ("core.replan_neighborhood_tasks", count("core.replan_neighborhood_tasks"), "count"),
        ("core.replan_certified_tasks", count("core.replan_certified_tasks"), "count"),
        ("core.drift_full_ms", ms("core.drift_full"), "ms"),
        ("core.replan_speedup", ratio(ms("core.drift_full"), ms("core.replan")), "ratio"),
        ("core.replan_mismatch", count("core.replan_mismatch"), "count"),
        ("sim.evaluate_us", ratio(ms("sim.evaluate") * 1e3, evaluate.calls as f64), "us"),
        ("sim.cache_hit_rate", ratio(hits, hits + count("sim.cache_misses")), "fraction"),
        ("sim.fidelity_cells_p99_over_bound", count("sim.fidelity_cells_p99_over_bound"), "count"),
        ("sim.fidelity_throughput_ratio.min", count("sim.fidelity_throughput_ratio.min"), "ratio"),
        ("sim.fidelity_throughput_ratio.max", count("sim.fidelity_throughput_ratio.max"), "ratio"),
        ("runner.replay_ms", ms("runner.run"), "ms"),
        ("runner.queries", count("runner.queries"), "count"),
        ("runner.queries_per_s", ratio(count("runner.queries"), ms("runner.run") / 1e3), "1/s"),
        ("runner.allocs_per_query", ratio(runner.allocs as f64, count("runner.queries")), "count"),
        ("serve.run_ms", ms("serve.run"), "ms"),
        ("serve.allocs_per_req", ratio(serve.allocs as f64, count("serve.requests")), "count"),
        ("serve.alloc_bytes_per_req", ratio(serve.bytes as f64, count("serve.requests")), "B"),
        ("fleet.run_ms", ms("fleet.run"), "ms"),
        ("fleet.allocs_per_req", ratio(fleet.allocs as f64, count("fleet.requests")), "count"),
        ("fleet.alloc_bytes_per_req", ratio(fleet.bytes as f64, count("fleet.requests")), "B"),
        ("trace.overhead_frac", ratio(wall(traced), wall(plain)) - 1.0, "fraction"),
    ];
    for (name, unit) in [
        ("serve.max_rate_qps", "1/s"),
        ("serve.reschedules", "count"),
        ("serve.plan_swaps", "count"),
        ("serve.replans", "count"),
        ("serve.incremental_replans", "count"),
        ("serve.replan_fallbacks", "count"),
        ("serve.retries", "count"),
        ("serve.requests_lost", "count"),
        ("serve.queue_wait_p99_s", "s"),
        ("serve.ttft_p99_s", "s"),
        ("serve.kv_peak_bytes", "B"),
        ("fleet.dispatched", "count"),
        ("fleet.rerouted", "count"),
        ("fleet.rejected", "count"),
        ("fleet.lost", "count"),
        ("fleet.interactive_violations", "count"),
    ] {
        m.push((name, count(name), unit));
    }
    m
}

fn trace_path(args: &Args) -> PathBuf {
    args.trace_out.clone().unwrap_or_else(|| {
        let target =
            std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
        target.join("perfbench").join(format!("trace-{}-{}.json", args.workload, args.seed))
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let mut plain_probe = Probe::new(false);
    let mut traced_probe = Probe::new(true);
    // plain[0] is the warm-up pass: checked, never measured.
    let mut plain = vec![run_pass(args, &mut plain_probe)?];
    let mut traced = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || plain.len() < 3 {
        plain.push(run_pass(args, &mut plain_probe)?);
        if args.trace {
            traced.push(run_pass(args, &mut traced_probe)?);
        }
    }
    let correct = check_passes(plain.iter().chain(&traced));
    let measured = &plain[1..];
    let metrics = if args.trace {
        let path = trace_path(args);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, traced_probe.chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
        per_layer(&traced, measured, &traced_probe.self_secs())
    } else {
        end_to_end(measured)
    };
    Ok(Report {
        correct,
        attempted: measured.iter().map(|p| p.attempted).sum(),
        failed: measured.iter().map(|p| p.failed).sum(),
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
