//! Negative-parse suite: malformed configs come back as structured
//! errors naming the offending key path — never as panics.

use exegpt_scenario::arbitrary::{arbitrary_scenario, mutate_invalid, overlapping_faults_tree};
use exegpt_scenario::{Scenario, ScenarioError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MINIMAL_SERVE: &str = r#"
name = "minimal"

[model]
preset = "opt-13b"

[cluster]
preset = "a40"
gpus = 4

[workload]
kind = "task"
task = "translation"

[scheduler]
latency_bound_secs = 30.0

[serve]
total = 100

[serve.arrivals]
kind = "poisson"

[serve.arrivals.rate]
kind = "qps"
qps = 5.0

[serve.slo]
e2e_secs = 60.0
"#;

fn parsed(text: &str) -> Scenario {
    Scenario::from_toml_str(text).expect("baseline config parses")
}

/// The error for `text`, asserting there is one.
fn error_of(text: &str) -> ScenarioError {
    Scenario::from_toml_str(text).expect_err("malformed config must be rejected")
}

#[test]
fn baseline_config_is_valid() {
    let s = parsed(MINIMAL_SERVE);
    assert_eq!(s.name, "minimal");
}

#[test]
fn unknown_enum_tag_names_the_kind_path() {
    let text = MINIMAL_SERVE.replace("kind = \"task\"", "kind = \"mystery\"");
    let err = error_of(&text);
    assert_eq!(err.key_path(), Some("workload.kind"));
    assert!(err.to_string().contains("mystery"), "message must quote the bad tag: {err}");
}

#[test]
fn negative_rate_names_the_rate_path() {
    let text = MINIMAL_SERVE.replace("qps = 5.0", "qps = -5.0");
    let err = error_of(&text);
    assert_eq!(err.key_path(), Some("serve.arrivals.rate.qps"));
}

#[test]
fn empty_gpu_pool_names_the_cluster_path() {
    let text = MINIMAL_SERVE.replace("gpus = 4", "gpus = 0");
    let err = error_of(&text);
    assert_eq!(err.key_path(), Some("cluster.gpus"));
}

#[test]
fn unknown_key_names_the_injected_path() {
    let text = MINIMAL_SERVE
        .replace("latency_bound_secs = 30.0", "latency_bound_secs = 30.0\nwarp_speed = true");
    let err = error_of(&text);
    assert_eq!(err.key_path(), Some("scheduler.warp_speed"));
}

#[test]
fn wrong_type_names_the_field_path() {
    let text = MINIMAL_SERVE.replace("total = 100", "total = \"lots\"");
    let err = error_of(&text);
    assert_eq!(err.key_path(), Some("serve.total"));
}

#[test]
fn missing_mode_is_reported_at_the_root() {
    let text: String = MINIMAL_SERVE
        .lines()
        .take_while(|l| !l.starts_with("[serve]"))
        .collect::<Vec<_>>()
        .join("\n");
    let err = error_of(&text);
    assert!(
        err.to_string().contains("[serve], [fleet] or [replay]"),
        "must explain the missing mode: {err}"
    );
}

#[test]
fn overlapping_fault_windows_name_the_second_event() {
    let text = format!(
        "{MINIMAL_SERVE}\n\
         [[serve.faults.events]]\n\
         t_frac = 0.2\n\
         kind = \"gpu_fail\"\n\
         gpu = 1\n\n\
         [[serve.faults.events]]\n\
         t_frac = 0.4\n\
         kind = \"gpu_slowdown\"\n\
         gpu = 1\n\
         factor = 2.0\n"
    );
    let err = error_of(&text);
    assert_eq!(err.key_path(), Some("serve.faults.events[1]"));
    assert!(
        err.to_string().contains("overlapping fault windows"),
        "message must explain the overlap: {err}"
    );
}

#[test]
fn fault_recover_without_open_window_is_rejected() {
    let text = format!(
        "{MINIMAL_SERVE}\n\
         [[serve.faults.events]]\n\
         t_frac = 0.2\n\
         kind = \"gpu_recover\"\n\
         gpu = 2\n"
    );
    let err = error_of(&text);
    assert_eq!(err.key_path(), Some("serve.faults.events[0]"));
}

#[test]
fn serve_faults_out_of_order_across_time_kinds_are_rejected() {
    // The `t_secs` event between them must not hide that the second
    // `t_frac` event precedes the first.
    let text = format!(
        "{MINIMAL_SERVE}\n\
         [[serve.faults.events]]\n\
         t_frac = 0.5\n\
         kind = \"gpu_fail\"\n\
         gpu = 1\n\n\
         [[serve.faults.events]]\n\
         t_secs = 1.0\n\
         kind = \"link_degrade\"\n\
         bw_factor = 0.5\n\
         latency_add_secs = 0.0\n\n\
         [[serve.faults.events]]\n\
         t_frac = 0.2\n\
         kind = \"gpu_recover\"\n\
         gpu = 1\n"
    );
    let err = error_of(&text);
    assert_eq!(err.key_path(), Some("serve.faults.events[2]"));
    assert!(err.to_string().contains("time order"), "message must explain the order: {err}");
}

#[test]
fn fleet_faults_out_of_order_are_rejected() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/fleet-loss.toml");
    let shipped = std::fs::read_to_string(path).expect("shipped fleet-loss.toml");
    let swapped = shipped.replacen("t_frac = 0.50", "t_frac = 0.90", 1).replacen(
        "t_frac = 0.90\naction = \"recover\"",
        "t_frac = 0.20\naction = \"recover\"",
        1,
    );
    assert_ne!(swapped, shipped, "the fault times were rewritten");
    let err = error_of(&swapped);
    assert_eq!(err.key_path(), Some("fleet.faults[1]"));
    assert!(err.to_string().contains("time order"), "message must explain the order: {err}");
}

#[test]
fn toml_syntax_errors_carry_the_line() {
    let err = error_of("name = \"x\"\nmodel = [unterminated");
    let ScenarioError::Syntax { line, .. } = err else {
        panic!("expected a syntax error, got {err}");
    };
    assert_eq!(line, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every documented corruption of a valid scenario is rejected with a
    /// structured error naming the expected key path — and never panics.
    #[test]
    fn mutated_configs_fail_with_the_expected_path(seed in 0u64..1u64 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = arbitrary_scenario(&mut rng);
        let (tree, expected) = mutate_invalid(&mut rng, &scenario);
        let result = Scenario::decode(&tree).and_then(|s| s.validate().map(|()| s));
        match result {
            Ok(_) => panic!("corruption at `{expected}` was accepted"),
            Err(err) => {
                prop_assert_eq!(
                    err.key_path(), Some(expected.as_str()),
                    "wrong path for corruption: {}", err
                );
            }
        }
    }

    /// Overlapping fault windows injected into any serve scenario are
    /// rejected at the second event's path.
    #[test]
    fn injected_overlapping_windows_are_rejected(seed in 0u64..1u64 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = arbitrary_scenario(&mut rng);
        if let Some((tree, expected)) = overlapping_faults_tree(&scenario) {
            let result = Scenario::decode(&tree).and_then(|s| s.validate().map(|()| s));
            match result {
                Ok(_) => panic!("overlapping windows were accepted"),
                Err(err) => {
                    prop_assert_eq!(err.key_path(), Some(expected.as_str()));
                    prop_assert!(
                        err.to_string().contains("overlapping fault windows"),
                        "message must explain the overlap: {}", err
                    );
                }
            }
        }
    }

    /// Rendering a corrupted tree back to TOML and re-parsing still fails
    /// with a structured error (the whole text path is panic-free: a panic
    /// anywhere here fails the test).
    #[test]
    fn corrupted_trees_never_panic_through_the_text_path(seed in 0u64..1u64 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = arbitrary_scenario(&mut rng);
        let (tree, _) = mutate_invalid(&mut rng, &scenario);
        if let Ok(text) = exegpt_scenario::toml::render(&tree) {
            prop_assert!(
                Scenario::from_toml_str(&text).is_err(),
                "corrupted config must not re-parse cleanly:\n{}", text
            );
        }
    }
}
