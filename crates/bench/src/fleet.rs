//! Fleet-scale policy comparison (fleet fabric, DESIGN §9): the *same*
//! multi-tenant stream played through a heterogeneous fleet — two A40
//! replicas, one A100 replica, an A40 standby — once per dispatch policy.
//! Mid-run, one A40 replica is lost to a fleet fault and the standby is
//! scaled up to cover the gap, so every arm also exercises rerouting and
//! deploy-cost charging.
//!
//! Batch traffic is sized so a round-robin share overloads an A40 pool
//! (queueing blows interactive e2e past its budget) while load- and
//! SLO-aware policies keep every pool inside capacity — the per-tenant
//! violation table is the comparison an operator cares about. Each row
//! also carries the fabric's wall-clock cost as requests per wall second.
//!
//! Every arm runs the shipped `scenarios/fleet-loss.toml` (which also
//! recovers the lost replica at 90% of the horizon); only the request
//! count and the dispatch policy are set here.

use std::time::Instant;

use exegpt_fleet::{DispatchPolicy, FleetReport};
use exegpt_scenario::{lower, Lowered};
use serde::{Deserialize, Serialize};

use crate::scenarios::shipped;
use crate::table;

/// The fleet topology, tenants and faults every arm serves.
const FLEET_LOSS: &str = include_str!("../../../scenarios/fleet-loss.toml");
/// The dispatch policies compared, in table order.
const POLICIES: [DispatchPolicy; 4] = [
    DispatchPolicy::RoundRobin,
    DispatchPolicy::LeastOutstanding,
    DispatchPolicy::KvHeadroom,
    DispatchPolicy::SloAware,
];
/// Shortest stream on which the overloaded-A40 queues grow long enough
/// for the policies to separate on violations.
pub const MIN_STEADY_REQUESTS: usize = 4000;

/// One dispatch-policy arm of the comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Dispatch policy name.
    pub policy: String,
    /// Requests dispatched on first arrival.
    pub dispatched: usize,
    /// Re-dispatches after the replica loss.
    pub rerouted: usize,
    /// Requests completed fleet-wide.
    pub completed: usize,
    /// Requests lost (must stay 0: loss reroutes, it does not drop).
    pub lost: usize,
    /// SLO violations across the interactive tenants.
    pub interactive_violations: usize,
    /// Class-weighted violation rate over all tenants.
    pub weighted_violation_rate: f64,
    /// Virtual time of the last completion (seconds).
    pub makespan: f64,
    /// Requests pushed through the fabric per wall-clock second.
    pub wall_qps: f64,
}

fn row(report: &FleetReport, policy: &str, wall: f64) -> Row {
    Row {
        policy: policy.to_string(),
        dispatched: report.dispatched,
        rerouted: report.rerouted,
        completed: report.completed,
        lost: report.lost,
        interactive_violations: report
            .tenants
            .iter()
            .filter(|t| t.class == "interactive")
            .map(|t| t.slo.violations)
            .sum(),
        weighted_violation_rate: report.weighted_violation_rate,
        makespan: report.makespan,
        wall_qps: if wall > 0.0 { report.completed as f64 / wall } else { f64::INFINITY },
    }
}

/// Plays `total` requests through the fleet once per dispatch policy and
/// returns one row per policy.
// The bench crate is the one place wall-clock reads are in-policy (xlint
// D2 waiver): `wall_qps` is the measurement this module exists to take.
#[allow(clippy::disallowed_methods)]
pub fn generate(total: usize) -> Vec<Row> {
    let Lowered::Fleet(lowered) =
        lower(&shipped(FLEET_LOSS, total)).expect("fleet-loss.toml lowers")
    else {
        panic!("fleet-loss.toml is not a fleet scenario");
    };
    POLICIES
        .into_iter()
        .map(|policy| {
            let mut arm = lowered.clone();
            arm.options.policy = policy;
            let start = Instant::now();
            let report = arm.run().expect("fleet run completes");
            row(&report, policy.name(), start.elapsed().as_secs_f64())
        })
        .collect()
}

/// Renders the rows as the policy comparison table.
pub fn render(rows: &[Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                r.dispatched.to_string(),
                r.rerouted.to_string(),
                r.completed.to_string(),
                r.lost.to_string(),
                r.interactive_violations.to_string(),
                format!("{:.1}%", 100.0 * r.weighted_violation_rate),
                format!("{:.0}", r.makespan),
                format!("{:.0}", r.wall_qps),
            ]
        })
        .collect();
    format!(
        "Fleet dispatch policies: 2xA40 + A100 + standby, mid-run replica loss, OPT-13B task T\n{}",
        table::render(
            &[
                "policy",
                "dispatched",
                "rerouted",
                "served",
                "lost",
                "interactive viol",
                "weighted viol",
                "makespan s",
                "wall q/s",
            ],
            &body,
        )
    )
}
