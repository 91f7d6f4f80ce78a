//! Figure 11 end-to-end through the serving loop (§7.6): a mid-run
//! output-distribution shift served once with the stale schedule (static
//! arm) and once with online drift detection + live rescheduling
//! (adaptive arm), on the *same* arrival stream.
//!
//! Unlike [`crate::fig11`], which compares steady-state schedules via the
//! offline runner, this scenario plays a timed Poisson arrival stream
//! through `exegpt-serve` and reports what an operator would see: SLO
//! violation rate, tail latency, and the number/cost of live plan swaps.
//!
//! Both arms are the shipped scenario files `scenarios/serve-shift.toml`
//! (adaptive) and `scenarios/serve-shift-static.toml` (static); only the
//! request count is set here.
//!
//! The separation between the arms needs a steady-state pipeline; with
//! fewer than ~2000 requests the run is transient-dominated and both arms
//! look alike (see `EXPERIMENTS.md`).

use exegpt_scenario::{ArrivalsConfig, Mode, Scenario};
use exegpt_serve::ServeReport;
use serde::{Deserialize, Serialize};

use crate::scenarios::{lower_serve, shipped};
use crate::table;

/// The adaptive arm's scenario file.
const ADAPTIVE: &str = include_str!("../../../scenarios/serve-shift.toml");
/// The arms, in table order: name and scenario file.
const ARMS: [(&str, &str); 2] = [
    ("static", include_str!("../../../scenarios/serve-shift-static.toml")),
    ("adaptive", ADAPTIVE),
];
/// Shortest stream that reaches pipeline steady state (the bounded plan
/// keeps ~500 queries in flight; shorter runs are transient-dominated).
pub const MIN_STEADY_REQUESTS: usize = 2000;

/// One serving arm of the comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// `static` (stale plan throughout) or `adaptive` (live rescheduling).
    pub arm: String,
    /// Requests served to completion.
    pub completed: usize,
    /// Completions per virtual second.
    pub throughput: f64,
    /// Fraction of completions violating the end-to-end SLO.
    pub violation_rate: f64,
    /// 99th-percentile end-to-end latency (seconds).
    pub p99_e2e: Option<f64>,
    /// Live reschedules triggered by the drift detector.
    pub reschedules: usize,
    /// Plan swaps installed at phase boundaries.
    pub plan_swaps: usize,
    /// Virtual seconds spent redeploying across all swaps.
    pub swap_cost: f64,
    /// Schedule in force when the run ended.
    pub final_schedule: String,
}

fn row(arm: &str, r: &ServeReport) -> Row {
    Row {
        arm: arm.to_string(),
        completed: r.completed,
        throughput: r.throughput,
        violation_rate: r.slo.violation_rate(),
        p99_e2e: r.e2e.as_ref().map(|s| s.p99),
        reschedules: r.reschedules,
        plan_swaps: r.plan_swaps,
        swap_cost: r.swap_cost,
        final_schedule: r.final_schedule.clone(),
    }
}

/// Serves `total` requests of the shipped drift stream (mean shift after
/// the first quarter) through the static and adaptive arms and returns
/// one row per arm.
pub fn generate(total: usize) -> Vec<Row> {
    ARMS.iter()
        .map(|(arm, toml)| {
            let report = lower_serve(&shipped(toml, total)).run().expect("serving completes");
            row(arm, &report)
        })
        .collect()
}

/// The table title, read off the adaptive arm's file so the two cannot
/// drift.
fn title() -> String {
    let scenario = Scenario::from_toml_str(ADAPTIVE).expect("shipped scenario decodes");
    let Mode::Serve(cfg) = scenario.mode else {
        panic!("serve-shift.toml is a serve scenario");
    };
    let ArrivalsConfig::PoissonWithShift { scale_mean, .. } = cfg.arrivals else {
        panic!("serve-shift.toml shifts its arrival stream");
    };
    let slo = cfg.slo.e2e_secs.expect("serve-shift.toml sets an e2e SLO");
    format!("Figure 11 (end-to-end serving): ×{scale_mean} mean shift, OPT-13B task T, SLO {slo}s")
}

/// Renders the rows as the comparison table.
pub fn render(rows: &[Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.arm.clone(),
                r.completed.to_string(),
                format!("{:.2}", r.throughput),
                format!("{:.1}%", 100.0 * r.violation_rate),
                table::opt_f64(r.p99_e2e),
                r.reschedules.to_string(),
                r.plan_swaps.to_string(),
                format!("{:.1}", r.swap_cost),
                r.final_schedule.clone(),
            ]
        })
        .collect();
    format!(
        "{}\n{}",
        title(),
        table::render(
            &[
                "arm",
                "served",
                "tput q/s",
                "SLO viol",
                "p99 e2e",
                "resched",
                "swaps",
                "swap s",
                "final schedule",
            ],
            &body,
        )
    )
}
