//! `plan-grid`: the paper's planning path over the Figure 6 grid.
//!
//! Four deployments × tasks S/T/C1 × the three finite bounds derived from
//! the FasterTransformer latency sweep = 36 cells. Each cell runs a cold
//! full search on a fresh engine, replays the plan through the runner,
//! replans incrementally after an output-length drift (mean ×1.3) and
//! runs a cold full search on the drifted workload as the replan's
//! reference. Set-up is profiling plus the bound sweep, on a fresh
//! profile cache every pass.

use std::fmt::Write as _;
use std::sync::Arc;

use exegpt::{Engine, ScheduleError, SchedulerOptions};
use exegpt_baselines::FasterTransformer;
use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_profiler::{LayerProfile, ProfileCache, ProfileOptions};
use exegpt_runner::{RunOptions, Runner};
use exegpt_scenario::fnv1a;
use exegpt_sim::{Simulator, Workload};
use exegpt_units::Secs;
use exegpt_workload::Task;

use crate::probe::Probe;
use crate::{drifted, set_up, Pass, DRIFT};

/// Replayed queries per cell: enough for several steady-state decode
/// pools, as the Figure 6 measurements use.
const MIN_QUERIES: usize = 2_000;
const MAX_QUERIES: usize = 40_000;

struct Cell {
    system: usize,
    task: Task,
    bound: Secs,
    workload: Workload,
    drifted: Workload,
}

/// The Figure 6 deployments (Table 2 rows).
fn systems() -> Vec<(ModelConfig, ClusterSpec)> {
    let sub = |c: ClusterSpec, gpus| c.subcluster(gpus).expect("preset sub-cluster is valid");
    vec![
        (ModelConfig::t5_11b(), sub(ClusterSpec::a40_cluster(), 8)),
        (ModelConfig::opt_13b(), sub(ClusterSpec::a40_cluster(), 4)),
        (ModelConfig::gpt3_39b(), sub(ClusterSpec::a40_cluster(), 16)),
        (ModelConfig::gpt3_101b(), sub(ClusterSpec::a100_cluster(), 16)),
    ]
}

fn is_ns(e: &ScheduleError) -> bool {
    matches!(e, ScheduleError::NoFeasibleSchedule { .. })
}

/// Profiles every deployment and derives the cells' bounds.
fn setup(
    probe: &mut Probe,
    systems: &[(ModelConfig, ClusterSpec)],
) -> Result<(Vec<Arc<LayerProfile>>, Vec<Cell>), String> {
    let cache = ProfileCache::new();
    let mut profiles = Vec::new();
    for (i, (model, cluster)) in systems.iter().enumerate() {
        let (profile, _) = probe.call("profiler.profile", i as u64, || {
            cache.get_or_profile(model, cluster, &ProfileOptions::default())
        });
        profiles.push(profile.map_err(|e| format!("profiling {}: {e}", model.name()))?);
    }
    let mut cells = Vec::new();
    for (i, (model, cluster)) in systems.iter().enumerate() {
        for task in [Task::Summarization, Task::Translation, Task::ConversationalQa1] {
            let workload = task.workload().map_err(|e| e.to_string())?;
            let moved = drifted(&workload)?;
            let sim = Simulator::new(
                model.clone(),
                cluster.clone(),
                Arc::clone(&profiles[i]),
                workload.clone(),
            );
            let (sweep, _) = probe.call("baselines.bounds", cells.len() as u64, || {
                FasterTransformer::paper_default(sim).map(|ft| ft.latency_sweep())
            });
            let sweep = sweep.map_err(|e| format!("FT baseline for {}: {e}", model.name()))?;
            let bounds = exegpt_workload::latency_bounds(&sweep).unwrap_or([Secs::INFINITY; 4]);
            for bound in bounds.into_iter().filter(|b| b.is_finite()) {
                cells.push(Cell {
                    system: i,
                    task,
                    bound,
                    workload: workload.clone(),
                    drifted: moved.clone(),
                });
            }
        }
    }
    Ok((profiles, cells))
}

/// Replay fidelity and goodput over a pass's cells.
struct Tally {
    ratio_min: f64,
    ratio_max: f64,
    log_goodput: f64,
    feasible: u64,
}

pub fn pass(seed: u64, probe: &mut Probe) -> Result<Pass, String> {
    let systems = systems();
    let mut out = Pass::default();
    let (profiles, cells) = set_up(probe, &mut out, |probe| setup(probe, &systems))?;
    let mut t = Tally {
        ratio_min: f64::INFINITY,
        ratio_max: f64::NEG_INFINITY,
        log_goodput: 0.0,
        feasible: 0,
    };
    let mut log = String::new();
    for (id, cell) in cells.iter().enumerate() {
        let (model, cluster) = &systems[cell.system];
        let engine = Engine::builder()
            .model(model.clone())
            .cluster(cluster.clone())
            .workload(cell.workload.clone())
            .profile(Arc::clone(&profiles[cell.system]))
            .build()
            .map_err(|e| format!("engine for cell {id}: {e}"))?;
        let _ = write!(log, "{} {} {:?}:", model.name(), cell.task.id(), cell.bound.as_secs());
        probe.span("bench.cell", id as u64, |probe| {
            run_cell(probe, seed, id as u64, cell, &engine, &mut out, &mut t, &mut log)
        });
        log.push('\n');
    }
    out.digest = Some(fnv1a(&log));
    out.counts.insert("sim.fidelity_throughput_ratio.min", t.ratio_min);
    out.counts.insert("sim.fidelity_throughput_ratio.max", t.ratio_max);
    out.goodput_qps = if t.feasible > 0 { (t.log_goodput / t.feasible as f64).exp() } else { 0.0 };
    Ok(out)
}

/// One cell: cold search, cold estimate, replay, drift replan and the
/// drifted full search. Errors other than "no feasible schedule" count as
/// failed operations; the pass goes on with the next cell.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    probe: &mut Probe,
    seed: u64,
    id: u64,
    cell: &Cell,
    engine: &Engine,
    out: &mut Pass,
    t: &mut Tally,
    log: &mut String,
) {
    let opts = SchedulerOptions::bounded(cell.bound);
    out.attempted += 1;
    let (cold, secs) = probe.call("core.schedule", id, || engine.schedule_with(&opts));
    out.plan_ms.push(secs * 1e3);
    let plan = match cold {
        Ok(plan) => plan,
        Err(e) => {
            if is_ns(&e) {
                out.add("core.ns_cells", 1.0);
                log.push_str(" NS");
            } else {
                out.failed += 1;
                let _ = write!(log, " error {e}");
            }
            return;
        }
    };
    out.record_search(engine, &plan);
    let _ = write!(log, " plan {}", plan.config.describe());

    // A cold estimate of the chosen plan on a fresh evaluation cache.
    let fresh = engine.simulator().with_workload(cell.workload.clone());
    out.attempted += 1;
    let (est, _) = probe.call("sim.evaluate", id, || fresh.evaluate(&plan.config));
    if est.is_err() {
        out.failed += 1;
    }

    let n = (4 * plan.estimate.breakdown.decode_batch).clamp(MIN_QUERIES, MAX_QUERIES);
    let run_opts = RunOptions { num_queries: n, seed, warmup_frac: 0.25, ..RunOptions::default() };
    let runner = Runner::from_simulator(engine.simulator().clone());
    out.attempted += 1;
    let (replay, secs) = probe.call("runner.run", id, || runner.run(&plan.config, &run_opts));
    match replay {
        Ok(rep) => {
            out.run_s += secs;
            out.completed += rep.completed as u64;
            out.sent += n as u64;
            out.add("runner.queries", n as f64);
            let limit = cell.bound.as_secs();
            let met = rep.latencies.iter().filter(|&&l| l <= limit).count() as u64;
            out.met += met;
            if rep.completed != n {
                out.violations
                    .push(format!("cell {id}: replayed {n} queries, completed {}", rep.completed));
            }
            let makespan = rep.makespan.as_secs();
            if met > 0 && makespan > 0.0 {
                t.log_goodput += (met as f64 / makespan).ln();
                t.feasible += 1;
            }
            if rep.p99_latency() > limit {
                out.add("sim.fidelity_cells_p99_over_bound", 1.0);
            }
            let ratio = rep.throughput / plan.estimate.throughput;
            t.ratio_min = t.ratio_min.min(ratio);
            t.ratio_max = t.ratio_max.max(ratio);
            let _ = write!(
                log,
                " replay {} {} {:?} {:?}",
                rep.completed,
                rep.tokens_generated,
                makespan,
                rep.p99_latency()
            );
        }
        Err(e) => {
            out.failed += 1;
            let _ = write!(log, " replay error {e}");
        }
    }

    let drift_engine = engine.with_workload(cell.drifted.clone());
    out.attempted += 1;
    let (replan, secs) =
        probe.call("core.replan", id, || drift_engine.replan_from(&plan, DRIFT, &opts));
    out.replan_ms.push(secs * 1e3);
    let replan = match replan {
        Ok(r) => {
            out.record_replan(&drift_engine, &r);
            let _ = write!(log, " replan {}", r.schedule.config.describe());
            Some(r.schedule.config)
        }
        Err(e) => {
            out.failed += u64::from(!is_ns(&e));
            let _ = write!(log, " replan {e}");
            None
        }
    };

    let full_engine = engine.with_workload(cell.drifted.clone());
    out.attempted += 1;
    let (full, secs) = probe.call("core.drift_full", id, || full_engine.schedule_with(&opts));
    out.plan_ms.push(secs * 1e3);
    let full = match full {
        Ok(s) => {
            out.check_plan(&full_engine, &s, "drifted search");
            let _ = write!(log, " full {}", s.config.describe());
            Some(s.config)
        }
        Err(e) => {
            out.failed += u64::from(!is_ns(&e));
            let _ = write!(log, " full {e}");
            None
        }
    };
    out.add("core.replan_mismatch", f64::from(u8::from(replan != full)));
}
