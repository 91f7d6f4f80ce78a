//! Graceful degradation under a mid-run straggler (fault model, DESIGN §7):
//! the *same* faulty arrival stream served twice. The "tolerate" arm keeps
//! the straggling device (eviction threshold set unreachably high), so
//! every phase dilates with it until it recovers; the "degrade" arm
//! confirms the straggler, evicts it, and replans onto the three healthy
//! survivors. The comparison an operator cares about is the SLO-violation
//! rate on identical traffic and identical faults.
//!
//! Offered load sits at 70% of healthy capacity: a 3× straggler drags the
//! tolerated cluster to ~1/3 of capacity (saturated — queueing blows the
//! tail), while the evicted topology retains 3/4 of it (still keeping up).
//!
//! Both arms run the shipped `scenarios/serve-straggler.toml`; the
//! tolerate arm only raises its eviction threshold out of reach.

use exegpt_scenario::{FaultKindConfig, Mode, Scenario, ServeLowered};
use exegpt_serve::ServeReport;
use serde::{Deserialize, Serialize};

use crate::scenarios::{lower_serve, shipped};
use crate::table;

/// The straggler scenario both arms serve.
const STRAGGLER: &str = include_str!("../../../scenarios/serve-straggler.toml");
/// Shortest stream whose straggler window spans enough phases for the
/// arms to separate (shorter runs are transient-dominated).
pub const MIN_STEADY_REQUESTS: usize = 2000;

/// One serving arm of the comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// `tolerate` (straggler kept, phases dilate) or `degrade` (straggler
    /// evicted, replan onto survivors).
    pub arm: String,
    /// Requests served to completion.
    pub completed: usize,
    /// Completions per virtual second.
    pub throughput: f64,
    /// Fraction of completions violating the end-to-end SLO.
    pub violation_rate: f64,
    /// 99th-percentile end-to-end latency (seconds).
    pub p99_e2e: Option<f64>,
    /// Stragglers confirmed by the detector.
    pub stragglers: usize,
    /// Fault-driven replans (eviction and recovery).
    pub replans: usize,
    /// Requests dropped (graceful degradation must keep this at 0).
    pub lost: usize,
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
        stragglers: r.stragglers_detected,
        replans: r.replans,
        lost: r.requests_lost,
        final_schedule: r.final_schedule.clone(),
    }
}

/// Serves `total` requests through both arms — a 3× straggler from 30% to
/// 90% of the arrival window — and returns one row per arm.
pub fn generate(total: usize) -> Vec<Row> {
    // Degrade: default policy — a 3× straggler crosses the 2× threshold
    // and is evicted; the loop replans onto the 3-GPU surviving topology.
    let degrade = lower_serve(&shipped(STRAGGLER, total));
    // Tolerate: the same lowered run with the eviction threshold out of
    // reach, so the confirmed straggler stays and dilates every phase it
    // touches.
    let mut tolerate = degrade.clone();
    tolerate.options.faults.as_mut().expect("serve-straggler.toml injects faults").evict_slowdown =
        1e6;
    let run = |arm: ServeLowered| arm.run().expect("serving completes");
    vec![row("tolerate", &run(tolerate)), row("degrade", &run(degrade))]
}

/// The table title, read off the shipped file so the two cannot drift.
fn title() -> String {
    let scenario = Scenario::from_toml_str(STRAGGLER).expect("shipped scenario decodes");
    let Mode::Serve(cfg) = scenario.mode else {
        panic!("serve-straggler.toml is a serve scenario");
    };
    let factor = cfg
        .faults
        .iter()
        .flat_map(|f| &f.events)
        .find_map(|e| match e.kind {
            FaultKindConfig::GpuSlowdown { factor, .. } => Some(factor),
            _ => None,
        })
        .expect("serve-straggler.toml slows a GPU");
    let slo = cfg.slo.e2e_secs.expect("serve-straggler.toml sets an e2e SLO");
    format!("Graceful degradation: ×{factor} straggler, OPT-13B task T, SLO {slo}s")
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
                r.stragglers.to_string(),
                r.replans.to_string(),
                r.lost.to_string(),
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
                "stragglers",
                "replans",
                "lost",
                "final schedule",
            ],
            &body,
        )
    )
}
