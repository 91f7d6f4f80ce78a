//! CI smoke run for the fleet fabric.
//!
//! Builds a seeded heterogeneous fleet — two A40 replicas, one A100
//! replica, and an A40 standby — and plays a ≥100k-request multi-tenant
//! trace through it while a fleet-level fault kills one A40 replica
//! mid-run and a scripted scale-up deploys the standby to cover the gap.
//! Asserts the fleet invariants (zero lost requests, full conservation
//! through routing and replica loss, byte-identical reruns) and that
//! SLO-aware dispatch strictly beats round-robin on per-tenant violations
//! over the *same* request stream. Exits non-zero on any violation.

use exegpt::Engine;
use exegpt_cluster::ClusterSpec;
use exegpt_dist::digest::fnv1a;
use exegpt_faults::{FaultEvent, FaultKind, FaultSchedule};
use exegpt_fleet::{
    DispatchPolicy, Fleet, FleetOptions, FleetReport, ReplicaSpec, ScaleAction, ScaleEvent,
    SloClass,
};
use exegpt_model::ModelConfig;
use exegpt_serve::ServeOptions;
use exegpt_units::Secs;
use exegpt_workload::{multi_tenant_trace, ArrivalProcess, Task, TenantRequest, TenantSpec};

/// The fleet digest covers the fabric log plus every replica session log,
/// so any nondeterminism anywhere in the stack shows up.
fn fleet_digest(report: &FleetReport) -> u64 {
    let mut all = report.events.to_jsonl();
    for r in &report.replicas {
        for s in &r.reports {
            all.push_str(&s.events.to_jsonl());
        }
    }
    fnv1a(&all)
}

/// Everything about the scenario that is fixed across the policy arms.
struct Setup {
    a40: Engine,
    a40_cfg: exegpt::ScheduleConfig,
    a100: Engine,
    a100_cfg: exegpt::ScheduleConfig,
    classes: Vec<SloClass>,
    faults: FaultSchedule,
    scale: Vec<ScaleEvent>,
}

fn build_fleet(s: &Setup, policy: DispatchPolicy) -> Result<Fleet, Box<dyn std::error::Error>> {
    let opts = ServeOptions { adaptive: false, ..ServeOptions::default() };
    let specs = vec![
        ReplicaSpec::new("a40-0", s.a40.clone(), s.a40_cfg, opts.clone())?,
        ReplicaSpec::new("a40-1", s.a40.clone(), s.a40_cfg, opts.clone())?,
        ReplicaSpec::new("a100-0", s.a100.clone(), s.a100_cfg, opts.clone())?,
        ReplicaSpec::new("a40-standby", s.a40.clone(), s.a40_cfg, opts)?.standby(),
    ];
    Ok(Fleet::new(
        specs,
        FleetOptions {
            policy,
            classes: s.classes.clone(),
            faults: Some(s.faults.clone()),
            scale: s.scale.clone(),
        },
    )?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let total: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("usage: fleet-smoke [num_requests]"))
        .unwrap_or(100_000);

    let workload = Task::Translation.workload()?;
    let a40 = Engine::builder()
        .model(ModelConfig::opt_13b())
        .cluster(ClusterSpec::a40_cluster().subcluster(4)?)
        .workload(workload.clone())
        .build()?;
    let a100 = Engine::builder()
        .model(ModelConfig::opt_13b())
        .cluster(ClusterSpec::a100_cluster().subcluster(4)?)
        .workload(workload.clone())
        .build()?;
    let a40_plan = a40.schedule(Secs::INFINITY)?;
    let a100_plan = a100.schedule(Secs::INFINITY)?;
    let (lat40, lat100) =
        (a40_plan.estimate.latency.as_secs(), a100_plan.estimate.latency.as_secs());
    println!(
        "a40 plan: {} (latency {lat40:.2}s, {:.1} q/s)  a100 plan: {} (latency {lat100:.2}s, {:.1} q/s)",
        a40_plan.config.describe(),
        a40_plan.estimate.throughput,
        a100_plan.config.describe(),
        a100_plan.estimate.throughput,
    );

    // The interactive budget sits between the two pools' plan latencies:
    // the A100 replica qualifies, the A40s do not — so SLO-aware routing
    // has a real decision to make and round-robin a real mistake to commit.
    let fast = lat40.min(lat100);
    let slow = lat40.max(lat100);
    let interactive_e2e = 0.5 * (fast + slow);
    let classes = vec![
        SloClass::interactive("interactive", Secs::new(interactive_e2e)),
        SloClass::batch("batch"),
    ];
    let fast_thr = a40_plan.estimate.throughput.max(a100_plan.estimate.throughput);
    let slow_thr = a40_plan.estimate.throughput.min(a100_plan.estimate.throughput);
    let tenants = vec![
        // Two interactive tenants together at ~35% of the fast pool.
        TenantSpec {
            tenant: 0,
            class: 0,
            process: ArrivalProcess::Poisson { rate_qps: 0.20 * fast_thr },
        },
        TenantSpec {
            tenant: 1,
            class: 0,
            process: ArrivalProcess::Poisson { rate_qps: 0.15 * fast_thr },
        },
        // Batch traffic heavy enough that a round-robin share overloads an
        // A40 pool (queues grow, e2e blows past the interactive budget)
        // while adaptive policies keep every pool inside its capacity.
        TenantSpec {
            tenant: 2,
            class: 1,
            process: ArrivalProcess::Poisson { rate_qps: 1.80 * slow_thr },
        },
        TenantSpec {
            tenant: 3,
            class: 1,
            process: ArrivalProcess::Bursty {
                rate_burst: 1.20 * slow_thr,
                rate_lull: 0.40 * slow_thr,
                dwell_burst: 20.0,
                dwell_lull: 60.0,
            },
        },
    ];
    let trace = multi_tenant_trace(&workload, &tenants, total, 7);
    let horizon = trace.last().map(|r| r.request.arrival).unwrap_or(0.0);
    println!("trace: {} requests over {:.0}s", trace.len(), horizon);

    // Replica 1 (an A40) dies halfway through; the standby is scaled up
    // shortly after to restore capacity.
    let faults = FaultSchedule::new(vec![FaultEvent {
        t: 0.50 * horizon,
        kind: FaultKind::GpuFail { gpu: 1 },
    }])?;
    let scale = vec![ScaleEvent { t: 0.55 * horizon, action: ScaleAction::Up { replica: 3 } }];

    let setup = Setup {
        a40,
        a40_cfg: a40_plan.config,
        a100,
        a100_cfg: a100_plan.config,
        classes,
        faults,
        scale,
    };
    let run = |policy: DispatchPolicy,
               trace: Vec<TenantRequest>|
     -> Result<FleetReport, Box<dyn std::error::Error>> {
        Ok(build_fleet(&setup, policy)?.run(trace)?)
    };

    let rr = run(DispatchPolicy::RoundRobin, trace.clone())?;
    let slo = run(DispatchPolicy::SloAware, trace.clone())?;
    let replay = run(DispatchPolicy::SloAware, trace)?;

    for (name, r) in [("round_robin", &rr), ("slo_aware", &slo)] {
        println!(
            "{name}: dispatched={} rerouted={} rejected={} completed={} lost={} \
             weighted_violation_rate={:.4} makespan={:.0}s",
            r.dispatched,
            r.rerouted,
            r.rejected,
            r.completed,
            r.lost,
            r.weighted_violation_rate,
            r.makespan,
        );
        for t in &r.tenants {
            println!(
                "  tenant {} ({}): dispatched={} rerouted={} completed={} violations={}",
                t.tenant, t.class, t.dispatched, t.rerouted, t.completed, t.slo.violations
            );
        }
        for (k, s) in &r.metrics.summaries {
            if k.ends_with("e2e") || k == "queue_wait" {
                println!(
                    "  {k}: n={} mean={:.2} p50={:.2} p95={:.2} p99={:.2} max={:.2}",
                    s.count, s.mean, s.p50, s.p95, s.p99, s.max
                );
            }
        }
    }

    // Archive a JSON summary first (even a failing run is worth diffing).
    if let Some(path) = std::env::var_os("FLEET_SMOKE_JSON") {
        #[derive(serde::Serialize)]
        struct Arm {
            weighted_violation_rate: f64,
            tenants: Vec<exegpt_fleet::TenantReport>,
            digest: String,
        }
        #[derive(serde::Serialize)]
        struct Summary {
            requests: usize,
            round_robin: Arm,
            slo_aware: Arm,
        }
        let arm = |r: &FleetReport| Arm {
            weighted_violation_rate: r.weighted_violation_rate,
            tenants: r.tenants.clone(),
            digest: format!("{:016x}", fleet_digest(r)),
        };
        let summary = Summary { requests: total, round_robin: arm(&rr), slo_aware: arm(&slo) };
        std::fs::write(&path, serde_json::to_string_pretty(&summary)?)?;
        println!("summary written to {}", std::path::Path::new(&path).display());
    }

    // Fleet invariants (the point of this smoke run).
    for (name, r) in [("round_robin", &rr), ("slo_aware", &slo)] {
        assert_eq!(r.lost, 0, "{name}: replica loss must not lose requests");
        assert_eq!(r.rejected, 0, "{name}: survivors must absorb all arrivals");
        assert_eq!(r.dispatched, total, "{name}: every request dispatched exactly once");
        assert_eq!(r.completed, total, "{name}: every request completes");
        assert!(r.rerouted > 0, "{name}: the replica loss must strand work to reroute");
        let by_tenant: usize = r.tenants.iter().map(|t| t.completed).sum();
        assert_eq!(by_tenant, total, "{name}: per-tenant accounting conserves requests");
        assert!(
            r.tenants.iter().all(|t| t.slo.is_consistent()),
            "{name}: SLO accounting inconsistent"
        );
    }

    // Byte-determinism: an identical replay produces identical logs
    // (fabric log and every replica session log).
    assert_eq!(
        fleet_digest(&slo),
        fleet_digest(&replay),
        "slo-aware replay must be byte-identical"
    );

    // SLO-aware dispatch strictly beats round-robin on the same stream.
    let violations = |r: &FleetReport| -> usize {
        r.tenants.iter().filter(|t| t.class == "interactive").map(|t| t.slo.violations).sum()
    };
    let (v_rr, v_slo) = (violations(&rr), violations(&slo));
    println!("interactive violations: round_robin={v_rr} slo_aware={v_slo}");
    assert!(v_slo < v_rr, "slo-aware routing must strictly beat round-robin ({v_slo} vs {v_rr})");

    println!("fleet digest: {:016x}", fleet_digest(&slo));
    println!("fleet-smoke OK");
    Ok(())
}
