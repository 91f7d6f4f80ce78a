//! `fleet-100k`: the `fleet-loss` topology and tenants at 100k requests
//! (`scenarios/fleet-100k.toml`): four OPT-13B replicas on A40 and A100
//! pools under SLO-aware dispatch, a replica loss and a standby scale-up.
//!
//! Set-up decodes and lowers the scenario, which schedules both pools; the
//! run phase is one `Fleet::run` (through `FleetLowered::run`). The A40
//! pool's cold search and drift replan are timed too, so `plan_ms` and
//! `replan_ms` describe this deployment.

use std::fmt::Write as _;

use exegpt_scenario::{fnv1a, lower, lower_scheduler, Lowered, Scenario};
use exegpt_units::Secs;

use crate::probe::Probe;
use crate::serve_adapt::tally;
use crate::{ratio, set_up, time_plans, Pass};

const SCENARIO: &str = include_str!("../scenarios/fleet-100k.toml");

/// Timed cold searches and drift replans of the first pool, per pass.
/// One pool only, so the `plan_ms` sample is not a mix of two
/// deployments' search costs.
const PLAN_REPS: usize = 10;

pub fn pass(seed: u64, probe: &mut Probe, digest: bool) -> Result<Pass, String> {
    let mut out = Pass::default();
    let (scenario, lowered) = set_up(probe, &mut out, |probe| {
        let (scenario, _) = probe.call("scenario.decode", 0, || {
            Scenario::from_toml_str(SCENARIO).map(|mut s| {
                s.seed = seed;
                s
            })
        });
        let scenario = scenario.map_err(|e| e.to_string())?;
        let (lowered, _) = probe.call("scenario.lower", 0, || lower(&scenario));
        Ok((scenario, lowered.map_err(|e| e.to_string())?))
    })?;

    for (engine, plan) in lowered.plans() {
        out.check_plan(engine, plan, "lowered");
    }
    let Lowered::Fleet(fleet) = lowered else {
        return Err("fleet-100k.toml did not lower to a fleet run".to_string());
    };
    let bound = Secs::new(scenario.scheduler.latency_bound_secs);
    let opts = lower_scheduler(&scenario.scheduler, bound).map_err(|e| e.to_string())?;
    let (_, engine, plan) = fleet.pools.first().ok_or("fleet-100k.toml declares no pool")?;
    time_plans(probe, &mut out, &[(engine.clone(), plan.clone())], &opts, PLAN_REPS)?;

    let sent = fleet.trace.len() as u64;
    let (report, secs) = probe.call("fleet.run", 0, || fleet.run());
    let report = report.map_err(|e| e.to_string())?;
    out.run_s = secs;
    out.completed = report.completed as u64;
    out.sent = sent;
    out.attempted += sent;
    out.failed += (report.lost + report.rejected) as u64;
    if (report.completed + report.lost + report.rejected) as u64 != sent {
        out.violations.push(format!(
            "sent {sent} != completed {} + lost {} + rejected {}",
            report.completed, report.lost, report.rejected
        ));
    }
    let mut interactive_violations = 0;
    for t in &report.tenants {
        out.met += (t.completed - t.slo.violations) as u64;
        if t.class == "interactive" {
            interactive_violations += t.slo.violations;
        }
    }
    out.goodput_qps = ratio(out.met as f64, report.makespan);

    out.digest = digest.then(|| {
        probe.span("bench.digest", 0, |_| {
            let mut log = format!("{:016x}\n", fnv1a(&report.events.to_jsonl()));
            for s in report.replicas.iter().flat_map(|r| &r.reports) {
                let _ = writeln!(log, "{:016x}", fnv1a(&s.events.to_jsonl()));
            }
            fnv1a(&log)
        })
    });
    for s in report.replicas.iter().flat_map(|r| &r.reports) {
        tally(&mut out, s);
    }
    let c = &mut out.counts;
    c.insert("fleet.requests", sent as f64);
    c.insert("fleet.dispatched", report.dispatched as f64);
    c.insert("fleet.rerouted", report.rerouted as f64);
    c.insert("fleet.rejected", report.rejected as f64);
    c.insert("fleet.lost", report.lost as f64);
    c.insert("fleet.interactive_violations", interactive_violations as f64);
    Ok(out)
}
