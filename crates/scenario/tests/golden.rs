//! Golden replay tests over the shipped scenario files: every file
//! reproduces its committed digest, the digest index stays in lockstep
//! with the files, and the claims each file exists to demonstrate hold.
//! Invariants true of *every* scenario (nothing lost, everything
//! completed, consistent SLO accounting, byte-identical replay) are
//! checked by the `scenario-smoke` CI gate instead.

use std::path::{Path, PathBuf};

use exegpt_fleet::FleetReport;
use exegpt_scenario::{format_digest, lower, run, toml, Lowered, Mode, Report, Scenario};
use exegpt_serve::ServeReport;
use serde::Value;

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn load(name: &str) -> Scenario {
    Scenario::load(&scenarios_dir().join(name)).expect("shipped scenario loads")
}

/// The shipped scenario files, in file-name order.
fn shipped_files() -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios dir exists")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".toml") && n != "GOLDENS.toml")
        .collect();
    files.sort();
    files
}

/// `GOLDENS.toml` as (file name, digest) pairs.
fn goldens() -> Vec<(String, Value)> {
    let text = std::fs::read_to_string(scenarios_dir().join("GOLDENS.toml")).expect("goldens");
    let Value::Object(entries) = toml::parse(&text).expect("goldens parse") else {
        panic!("GOLDENS.toml must be a table");
    };
    entries
}

fn serve(scenario: &Scenario) -> ServeReport {
    match run(scenario).expect("scenario runs").report {
        Report::Serve(report) => *report,
        _ => panic!("`{}` must yield a serve report", scenario.name),
    }
}

fn fleet(scenario: &Scenario) -> FleetReport {
    match run(scenario).expect("scenario runs").report {
        Report::Fleet(report) => report,
        _ => panic!("`{}` must yield a fleet report", scenario.name),
    }
}

/// Every shipped file's run reproduces the digest committed for it.
#[test]
fn shipped_scenarios_reproduce_their_golden_digests() {
    let goldens = goldens();
    for name in shipped_files() {
        let outcome = run(&load(&name)).expect("shipped scenario runs");
        let want = goldens.iter().find(|(n, _)| *n == name).map(|(_, d)| d);
        assert_eq!(
            want,
            Some(&Value::Str(format_digest(outcome.digest))),
            "{name}: event-log digest drifted from GOLDENS.toml"
        );
    }
}

/// `GOLDENS.toml` names exactly the shipped scenario files, each with a
/// well-formed 16-hex-digit digest, and every shipped file validates.
#[test]
fn goldens_index_matches_shipped_scenarios() {
    let files = shipped_files();
    assert!(!files.is_empty(), "shipped scenarios must exist");

    for name in &files {
        let scenario = load(name);
        scenario.validate().expect("shipped scenario validates");
    }

    let entries = goldens();
    let mut locked: Vec<String> = entries.iter().map(|(k, _)| k.clone()).collect();
    locked.sort();
    assert_eq!(locked, files, "GOLDENS.toml must lock exactly the shipped scenarios");
    for (name, digest) in &entries {
        let Value::Str(d) = digest else {
            panic!("golden `{name}` must be a string digest");
        };
        assert_eq!(d.len(), 16, "golden `{name}` must be a 64-bit hex digest");
        assert!(
            d.chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()),
            "golden `{name}` must be lowercase hex"
        );
    }
}

/// `serve-faults.toml`: the failure and the straggler are each detected
/// once, failover, eviction and recovery all replan, and recovery
/// reinstalls the original plan.
#[test]
fn serve_faults_detects_replans_and_restores_the_plan() {
    let scenario = load("serve-faults.toml");
    let Lowered::Serve(lowered) = lower(&scenario).expect("serve-faults lowers") else {
        panic!("serve-faults.toml must lower to a serve run");
    };
    let original = lowered.schedule.config.describe();
    let report = lowered.run().expect("serve-faults runs");
    assert_eq!(report.faults_injected, 4, "every scheduled fault fires");
    assert_eq!(report.faults_detected, 1, "the failure is detected exactly once");
    assert_eq!(report.stragglers_detected, 1, "the straggler is confirmed exactly once");
    assert!(report.replans >= 3, "failover, eviction and recovery all replan");
    assert_eq!(report.final_schedule, original, "recovery restores the original plan");
}

/// `fleet-loss.toml`: under both round-robin and SLO-aware dispatch the
/// replica loss strands work that is rerouted without losing, rejecting
/// or double-counting a request, and SLO-aware dispatch strictly beats
/// round-robin on interactive violations over the same stream and faults.
#[test]
fn fleet_loss_slo_aware_beats_round_robin() {
    let interactive_violations = |r: &FleetReport| -> usize {
        r.tenants.iter().filter(|t| t.class == "interactive").map(|t| t.slo.violations).sum()
    };
    let slo_aware = load("fleet-loss.toml");
    let mut round_robin = slo_aware.clone();
    let Mode::Fleet(cfg) = &mut round_robin.mode else {
        panic!("fleet-loss.toml must be a fleet scenario");
    };
    cfg.policy = "round_robin".to_string();
    let total = cfg.total;

    let slo = fleet(&slo_aware);
    let rr = fleet(&round_robin);
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
    let (v_slo, v_rr) = (interactive_violations(&slo), interactive_violations(&rr));
    assert!(v_slo < v_rr, "slo-aware must strictly beat round-robin ({v_slo} vs {v_rr})");
}

/// `serve-shift.toml` vs `serve-shift-static.toml`: live rescheduling
/// strictly lowers the SLO-violation rate on the same shifted stream.
#[test]
fn serve_shift_adaptive_beats_static() {
    let adaptive = serve(&load("serve-shift.toml"));
    let frozen = serve(&load("serve-shift-static.toml"));
    assert!(adaptive.events.len() >= 2000, "{} events", adaptive.events.len());
    assert!(
        adaptive.slo.violation_rate() < frozen.slo.violation_rate(),
        "adaptive {} vs static {}",
        adaptive.slo.violation_rate(),
        frozen.slo.violation_rate()
    );
}

/// `serve-straggler.toml`: evicting the straggler (the default policy)
/// strictly lowers the SLO-violation rate against tolerating it, and
/// loses nothing.
#[test]
fn serve_straggler_degrade_beats_tolerate() {
    let degrade = load("serve-straggler.toml");
    let mut tolerate = degrade.clone();
    let Mode::Serve(cfg) = &mut tolerate.mode else {
        panic!("serve-straggler.toml must be a serve scenario");
    };
    cfg.faults.as_mut().expect("serve-straggler.toml injects faults").evict_slowdown = Some(1e6);

    let degrade = serve(&degrade);
    let tolerate = serve(&tolerate);
    assert_eq!(degrade.requests_lost, 0, "graceful degradation loses nothing");
    assert!(
        degrade.slo.violation_rate() < tolerate.slo.violation_rate(),
        "degrade {} vs tolerate {}",
        degrade.slo.violation_rate(),
        tolerate.slo.violation_rate()
    );
}
