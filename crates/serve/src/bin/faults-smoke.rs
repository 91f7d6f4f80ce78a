//! CI smoke run for fault injection and graceful degradation.
//!
//! Serves a Poisson stream through the adaptive loop while a seeded
//! [`exegpt_faults::FaultSchedule`] kills a device mid-run, slows another,
//! and recovers both. Asserts the degradation invariants (failure detected,
//! replan onto survivors, zero lost requests, recovery restores the
//! original plan) and prints a deterministic digest of the event log so CI
//! can pin byte-determinism across runs. Exits non-zero on any violation.

use exegpt::Engine;
use exegpt_cluster::ClusterSpec;
use exegpt_dist::digest::fnv1a;
use exegpt_faults::{FaultEvent, FaultKind, FaultSchedule};
use exegpt_model::ModelConfig;
use exegpt_serve::{
    FaultOptions, ServeLoop, ServeOptions, ServeReport, SloTargets, StragglerOptions,
};
use exegpt_units::Secs;
use exegpt_workload::{PoissonStream, Task, TimedRequest};

fn serve(
    engine: &Engine,
    cfg: &exegpt::ScheduleConfig,
    arrivals: &[TimedRequest],
    opts: &ServeOptions,
) -> Result<ServeReport, Box<dyn std::error::Error>> {
    Ok(ServeLoop::new(engine.clone(), cfg, opts.clone())?.run(arrivals.to_vec())?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let total: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("usage: faults-smoke [num_requests]"))
        .unwrap_or(800);

    let workload = Task::Translation.workload()?;
    let engine = Engine::builder()
        .model(ModelConfig::opt_13b())
        .cluster(ClusterSpec::a40_cluster().subcluster(4)?)
        .workload(workload.clone())
        .build()?;
    let schedule = engine.schedule(Secs::new(30.0))?;
    println!("schedule: {}", schedule.config.describe());

    let rate = 0.6 * schedule.estimate.throughput;
    let arrivals: Vec<TimedRequest> = PoissonStream::new(&workload, rate, 7).take(total).collect();
    let horizon = arrivals.last().map(|r| r.arrival).unwrap_or(0.0);

    // One device dies a quarter into the arrival window; another straggles
    // at 3x (above the eviction threshold) from 40% in. Both recover
    // during the backlog drain (the degraded cluster runs well past the
    // last arrival), so the smoke exercises failover, straggler eviction,
    // staged recovery and the verbatim plan restore.
    let faults = FaultSchedule::new(vec![
        FaultEvent { t: 0.25 * horizon, kind: FaultKind::GpuFail { gpu: 3 } },
        FaultEvent { t: 0.40 * horizon, kind: FaultKind::GpuSlowdown { gpu: 1, factor: 3.0 } },
        FaultEvent { t: 1.20 * horizon, kind: FaultKind::GpuRecover { gpu: 1 } },
        FaultEvent { t: 1.40 * horizon, kind: FaultKind::GpuRecover { gpu: 3 } },
    ])?;
    let opts = ServeOptions {
        slo: SloTargets { ttft: None, per_token: None, e2e: Some(schedule.estimate.latency * 4.0) },
        faults: Some(FaultOptions {
            schedule: faults,
            // Backlogged phases are long; two dilated phases are enough
            // evidence here (the default debounce of 3 suits short phases).
            straggler: StragglerOptions { rel_threshold: 1.25, consecutive: 2 },
            ..FaultOptions::default()
        }),
        // Drift adaptation off: the degraded period builds a backlog whose
        // drain is output-length-biased, which would trigger drift
        // reschedules and obscure the fault path this smoke pins down.
        adaptive: false,
        ..ServeOptions::default()
    };

    let report = serve(&engine, &schedule.config, &arrivals, &opts)?;
    let replay = serve(&engine, &schedule.config, &arrivals, &opts)?;

    println!(
        "completed={} events={} faults={} detected={} stragglers={} replans={} retries={} lost={} final={}",
        report.completed,
        report.events.len(),
        report.faults_injected,
        report.faults_detected,
        report.stragglers_detected,
        report.replans,
        report.retries,
        report.requests_lost,
        report.final_schedule,
    );

    // Archive the log first (even a failing run is worth diffing in CI).
    let jsonl = report.events.to_jsonl();
    if let Some(path) = std::env::var_os("FAULTS_SMOKE_LOG") {
        std::fs::write(&path, &jsonl)?;
        println!("event log written to {}", std::path::Path::new(&path).display());
    }

    // Degradation invariants (the point of this smoke run).
    assert_eq!(report.faults_injected, 4, "every scheduled fault fires");
    assert_eq!(report.faults_detected, 1, "the failure is detected exactly once");
    assert_eq!(report.stragglers_detected, 1, "the straggler is confirmed exactly once");
    assert!(report.replans >= 3, "failover, eviction and recovery all replan");
    assert_eq!(report.requests_lost, 0, "graceful degradation loses nothing");
    assert_eq!(report.completed, total, "every request completes");
    assert_eq!(
        report.final_schedule,
        schedule.config.describe(),
        "recovery restores the original plan"
    );
    assert!(report.slo.is_consistent(), "SLO accounting inconsistent: {:?}", report.slo);

    // Byte-determinism: an identical replay produces an identical log.
    assert_eq!(jsonl, replay.events.to_jsonl(), "replay must be byte-identical");
    println!("event-log digest: {:016x} ({} events)", fnv1a(&jsonl), report.events.len());
    println!("faults-smoke OK");
    Ok(())
}
