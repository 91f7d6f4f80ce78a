//! `serve-adapt`: one adaptive OPT-13B/4xA40 replica under drift and
//! faults (`scenarios/serve-adapt.toml`), run at a ladder of fixed
//! arrival rates that spans the knee of its SLO attainment.
//!
//! Set-up decodes and lowers the scenario once per rung; the run phase is
//! one `ServeLoop::run` per rung. The lowered plan's cold search and
//! drift replan are timed too, so `plan_ms` and `replan_ms` describe this
//! deployment.

use std::fmt::Write as _;

use exegpt::{Engine, Schedule, SchedulerOptions};
use exegpt_scenario::{
    fnv1a, lower, ArrivalsConfig, Lowered, Mode, RateSpec, Scenario, ServeLowered,
};
use exegpt_serve::{ServeLoop, ServeReport};
use exegpt_sim::Workload;

use crate::probe::Probe;
use crate::{ratio, set_up, time_plans, Pass};

const SCENARIO: &str = include_str!("../scenarios/serve-adapt.toml");

/// Arrival rates as fractions of the plan's estimated capacity.
const LADDER: [f64; 6] = [0.2, 0.3, 0.35, 0.4, 0.5, 0.7];

/// Timed cold searches and drift replans per plan state and pass.
const PLAN_REPS: usize = 14;

/// A rung meets its target when this share of requests meets the SLO.
const ATTAINMENT_TARGET: f64 = 0.99;

/// Decodes the scenario with the seed and the rung's rate fraction set;
/// also returns the arrivals' output-length shift.
fn decode(seed: u64, frac: f64) -> Result<(Scenario, f64), String> {
    let mut scenario = Scenario::from_toml_str(SCENARIO).map_err(|e| e.to_string())?;
    scenario.seed = seed;
    let Mode::Serve(serve) = &mut scenario.mode else {
        return Err("serve-adapt.toml is not a serve scenario".to_string());
    };
    let ArrivalsConfig::PoissonWithShift {
        rate: RateSpec::CapacityFrac { frac: f, .. },
        scale_mean,
        ..
    } = &mut serve.arrivals
    else {
        return Err("serve-adapt.toml must use capacity_frac poisson_with_shift arrivals".into());
    };
    *f = frac;
    let shift = *scale_mean;
    Ok((scenario, shift))
}

/// The plan states a run visits — the base workload, the shifted one, and
/// the shifted one on the survivors of a GPU failure — each with its plan.
/// Timing all three makes `plan_ms` and `replan_ms` a mix of the searches
/// this deployment needs, not repeats of one search, whose p90 would only
/// measure host noise.
fn plan_states(
    s: &ServeLowered,
    shift: f64,
    opts: &SchedulerOptions,
) -> Result<Vec<(Engine, Schedule)>, String> {
    let base = s.engine.clone();
    let w = base.simulator().workload();
    let output = w.output().with_scaled_mean(shift).map_err(|e| e.to_string())?;
    let shifted = base.with_workload(Workload::new(w.input().clone(), output));
    let survivors = shifted.simulator().cluster().survivors(1).map_err(|e| e.to_string())?;
    let degraded = shifted.with_cluster(survivors);
    let mut states = vec![(base, s.schedule.clone())];
    for engine in [shifted, degraded] {
        let plan = engine.schedule_with(opts).map_err(|e| e.to_string())?;
        states.push((engine, plan));
    }
    Ok(states)
}

pub fn pass(seed: u64, probe: &mut Probe, digest: bool) -> Result<Pass, String> {
    let mut out = Pass::default();
    let (rungs, shift) = set_up(probe, &mut out, |probe| {
        let (mut rungs, mut shift) = (Vec::new(), 0.0);
        for (i, &frac) in LADDER.iter().enumerate() {
            let (decoded, _) = probe.call("scenario.decode", i as u64, || decode(seed, frac));
            let (scenario, scale) = decoded?;
            shift = scale;
            let (lowered, _) = probe.call("scenario.lower", i as u64, || lower(&scenario));
            match lowered.map_err(|e| e.to_string())? {
                Lowered::Serve(s) => rungs.push(s),
                _ => return Err("serve-adapt.toml did not lower to a serve run".to_string()),
            }
        }
        Ok((rungs, shift))
    })?;

    for s in &rungs {
        out.check_plan(&s.engine, &s.schedule, "lowered");
    }
    let opts = rungs[0].options.scheduler.clone();
    let states = plan_states(&rungs[0], shift, &opts)?;
    for (engine, plan) in &states {
        out.check_plan(engine, plan, "state");
    }
    time_plans(probe, &mut out, &states, &opts, PLAN_REPS)?;

    let mut log = String::new();
    let mut max_rate = 0.0f64;
    let mut makespan_total = 0.0f64;
    for (i, s) in rungs.into_iter().enumerate() {
        let sent = s.arrivals.len() as u64;
        let qps = LADDER[i] * s.schedule.estimate.throughput;
        let serve = ServeLoop::new(s.engine, &s.schedule.config, s.options)
            .map_err(|e| format!("rung {i}: {e}"))?;
        let (report, secs) = probe.call("serve.run", i as u64, || serve.run(s.arrivals));
        let report = report.map_err(|e| format!("rung {i}: {e}"))?;
        out.run_s += secs;
        out.completed += report.completed as u64;
        out.sent += sent;
        out.attempted += sent;
        out.failed += report.requests_lost as u64;
        let met = (report.slo.checked - report.slo.violations) as u64;
        out.met += met;
        makespan_total += report.makespan;
        if report.completed as u64 + report.requests_lost as u64 != sent {
            out.violations.push(format!(
                "rung {i}: sent {sent} != completed {} + lost {}",
                report.completed, report.requests_lost
            ));
        }
        if met as f64 >= ATTAINMENT_TARGET * sent as f64 {
            max_rate = max_rate.max(qps);
        }
        if digest {
            let d = probe.span("bench.digest", i as u64, |_| fnv1a(&report.events.to_jsonl()));
            let _ = writeln!(log, "{d:016x}");
        }
        tally(&mut out, &report);
    }
    out.goodput_qps = ratio(out.met as f64, makespan_total);
    out.counts.insert("serve.max_rate_qps", max_rate);
    out.counts.insert("serve.requests", out.sent as f64);
    out.digest = digest.then(|| fnv1a(&log));
    Ok(out)
}

/// Adds one serve report's counters to the pass: sums for counts, the
/// worst rung for percentiles and the KV peak.
pub fn tally(out: &mut Pass, r: &ServeReport) {
    let c = &mut out.counts;
    for (name, v) in [
        ("serve.reschedules", r.reschedules),
        ("serve.plan_swaps", r.plan_swaps),
        ("serve.replans", r.replans),
        ("serve.incremental_replans", r.incremental_replans),
        ("serve.replan_fallbacks", r.replan_fallbacks),
        ("serve.retries", r.retries),
        ("serve.requests_lost", r.requests_lost),
    ] {
        *c.entry(name).or_default() += v as f64;
    }
    for (name, v) in [
        ("serve.queue_wait_p99_s", r.queue_wait.as_ref().map(|s| s.p99)),
        ("serve.ttft_p99_s", r.ttft.as_ref().map(|s| s.p99)),
        ("serve.kv_peak_bytes", r.metrics.gauges.get("kv_peak_bytes").copied()),
    ] {
        let e = c.entry(name).or_default();
        *e = e.max(v.unwrap_or(0.0));
    }
}
