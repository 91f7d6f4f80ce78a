//! Byte locks on the metrics snapshots: the `serde_json` rendering of the
//! `MetricsSnapshot` a shipped serve and fleet scenario produce must match
//! the committed fixture byte for byte. The goldens in `GOLDENS.toml`
//! cover the event logs; these cover the counters, gauges and histogram
//! summaries that reports and downstream tools read by name.

use std::path::{Path, PathBuf};

use exegpt_scenario::{run, Report, Scenario};
use exegpt_serve::MetricsSnapshot;

fn manifest_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn snapshot_of(scenario: &str) -> MetricsSnapshot {
    let s = Scenario::load(&manifest_path("../../scenarios").join(scenario))
        .expect("shipped scenario loads");
    match run(&s).expect("scenario runs").report {
        Report::Serve(r) => r.metrics,
        Report::Fleet(r) => r.metrics,
        Report::Replay(_) => panic!("{scenario} is a replay scenario"),
    }
}

fn assert_matches_fixture(scenario: &str, fixture: &str) {
    let json = serde_json::to_string_pretty(&snapshot_of(scenario)).expect("serializes") + "\n";
    let path = manifest_path("tests/fixtures").join(fixture);
    let want = std::fs::read_to_string(&path).expect("fixture exists");
    assert!(json == want, "{scenario}: metrics snapshot differs from {}", path.display());
}

#[test]
fn serve_shift_metrics_snapshot_is_byte_identical() {
    assert_matches_fixture("serve-shift.toml", "serve-shift.metrics.json");
}

#[test]
fn fleet_loss_metrics_snapshot_is_byte_identical() {
    assert_matches_fixture("fleet-loss.toml", "fleet-loss.metrics.json");
}
