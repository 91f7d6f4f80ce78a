//! CI smoke gate for the shipped scenario configs.
//!
//! ```text
//! scenario-smoke [scenarios-dir] [--write-goldens]
//! ```
//!
//! Runs every `*.toml` under the scenarios directory (default
//! `scenarios/`, next to the workspace root) in file-name order, twice,
//! and fails the gate when
//!
//! * the replay's FNV-1a event-log digest differs from the first run's;
//! * a run breaks an invariant every scenario must keep (see
//!   [`broken_invariants`]): a lost or unfinished request, a fleet request
//!   not dispatched exactly once or unaccounted for per tenant, or SLO
//!   accounting that is inconsistent or skips a completion;
//! * the digest drifts from the committed golden in `GOLDENS.toml`, a new
//!   config has no golden, or a golden's config vanished.
//!
//! `--write-goldens` regenerates the golden file instead of comparing
//! (for intentional behavior changes; the diff then documents the move).
//! Claims about one scenario (arm A beats arm B, a fault is detected) are
//! tests over the shipped files in `crates/scenario/tests/golden.rs`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use exegpt_scenario::{format_digest, run, toml, Mode, Report, Scenario};
use exegpt_serve::SloOutcome;
use serde::Value;

/// The number of requests (or replayed queries) the scenario asks for.
fn requested(scenario: &Scenario) -> usize {
    match &scenario.mode {
        Mode::Serve(cfg) => cfg.total,
        Mode::Fleet(cfg) => cfg.total,
        Mode::Replay(cfg) => cfg.num_queries,
    }
}

/// Checks `slo` covers exactly `completed` requests, consistently.
fn slo_problems(who: &str, slo: &SloOutcome, completed: usize, out: &mut Vec<String>) {
    if !slo.is_consistent() {
        out.push(format!("{who}SLO accounting inconsistent: {slo:?}"));
    }
    if slo.checked != completed {
        out.push(format!("{who}{} SLO checks for {completed} completions", slo.checked));
    }
}

/// The invariants every shipped scenario keeps, whatever it models; one
/// message per broken invariant.
fn broken_invariants(scenario: &Scenario, report: &Report) -> Vec<String> {
    let total = requested(scenario);
    let mut out = Vec::new();
    let mut expect = |ok: bool, why: String| {
        if !ok {
            out.push(why);
        }
    };
    match report {
        Report::Serve(r) => {
            expect(r.requests_lost == 0, format!("{} requests lost", r.requests_lost));
            expect(r.completed == total, format!("{} of {total} requests completed", r.completed));
            expect(
                r.makespan > 0.0 && r.throughput > 0.0,
                format!("makespan {} s, throughput {} q/s", r.makespan, r.throughput),
            );
            if let (Some(ttft), Some(e2e)) = (&r.ttft, &r.e2e) {
                expect(
                    ttft.mean <= e2e.mean,
                    format!("mean TTFT {} s exceeds mean e2e {} s", ttft.mean, e2e.mean),
                );
            }
            slo_problems("", &r.slo, r.completed, &mut out);
        }
        Report::Fleet(r) => {
            expect(r.lost == 0, format!("{} requests lost", r.lost));
            expect(r.rejected == 0, format!("{} requests rejected", r.rejected));
            expect(
                r.dispatched == total,
                format!("{} of {total} requests dispatched", r.dispatched),
            );
            expect(r.completed == total, format!("{} of {total} requests completed", r.completed));
            let by_tenant: usize = r.tenants.iter().map(|t| t.completed).sum();
            expect(by_tenant == total, format!("tenants account for {by_tenant} of {total}"));
            for t in &r.tenants {
                slo_problems(&format!("tenant {}: ", t.tenant), &t.slo, t.completed, &mut out);
            }
        }
        Report::Replay(r) => {
            expect(r.completed == total, format!("{} of {total} queries completed", r.completed));
        }
    }
    out
}

/// Loads `GOLDENS.toml` as (file name, digest hex) pairs, in file order.
fn load_goldens(path: &Path) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let value = toml::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    let Value::Object(fields) = value else {
        return Err(format!("{}: expected a table of file = digest", path.display()));
    };
    fields
        .into_iter()
        .map(|(k, v)| match v {
            Value::Str(s) => Ok((k, s)),
            other => Err(format!(
                "{}: golden `{k}` must be a digest string, found {}",
                path.display(),
                other.type_name()
            )),
        })
        .collect()
}

fn render_goldens(goldens: &[(String, String)]) -> String {
    let mut out = String::from(
        "# FNV-1a event-log digests of the shipped scenarios, locked by CI.\n\
         # Regenerate with: cargo run --release --bin scenario-smoke -- scenarios --write-goldens\n",
    );
    for (name, digest) in goldens {
        out.push_str(&format!("\"{name}\" = \"{digest}\"\n"));
    }
    out
}

fn main() -> ExitCode {
    let mut dir = PathBuf::from("scenarios");
    let mut write = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--write-goldens" => write = true,
            other if other.starts_with('-') => {
                eprintln!("usage: scenario-smoke [scenarios-dir] [--write-goldens]");
                return ExitCode::FAILURE;
            }
            other => dir = PathBuf::from(other),
        }
    }

    let mut files: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "toml"))
            .filter(|p| p.file_name().is_some_and(|n| n != "GOLDENS.toml"))
            .collect(),
        Err(e) => {
            eprintln!("scenario-smoke: reading {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    files.sort();
    if files.is_empty() {
        eprintln!("scenario-smoke: no *.toml scenarios under {}", dir.display());
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    let mut fresh: Vec<(String, String)> = Vec::new();
    for path in &files {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let scenario = match Scenario::load(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("scenario-smoke: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let outcome = match run(&scenario) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("scenario-smoke: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", outcome.summary);
        match run(&scenario) {
            Ok(replay) if replay.digest == outcome.digest => {}
            Ok(replay) => {
                eprintln!(
                    "scenario-smoke: {name}: replay digest {} != first run {}",
                    format_digest(replay.digest),
                    format_digest(outcome.digest)
                );
                failed = true;
            }
            Err(e) => {
                eprintln!("scenario-smoke: {name}: replay: {e}");
                failed = true;
            }
        }
        for why in broken_invariants(&scenario, &outcome.report) {
            eprintln!("scenario-smoke: {name}: {why}");
            failed = true;
        }
        fresh.push((name, format_digest(outcome.digest)));
    }
    if failed {
        eprintln!("scenario-smoke FAILED");
        return ExitCode::FAILURE;
    }

    let goldens_path = dir.join("GOLDENS.toml");
    if write {
        if let Err(e) = std::fs::write(&goldens_path, render_goldens(&fresh)) {
            eprintln!("scenario-smoke: writing {}: {e}", goldens_path.display());
            return ExitCode::FAILURE;
        }
        println!("goldens written to {}", goldens_path.display());
        return ExitCode::SUCCESS;
    }

    let committed = match load_goldens(&goldens_path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("scenario-smoke: {e}");
            eprintln!("hint: bootstrap with scenario-smoke {} --write-goldens", dir.display());
            return ExitCode::FAILURE;
        }
    };

    for (name, digest) in &fresh {
        match committed.iter().find(|(n, _)| n == name) {
            Some((_, want)) if want == digest => {}
            Some((_, want)) => {
                eprintln!("scenario-smoke: {name}: digest {digest} != golden {want}");
                failed = true;
            }
            None => {
                eprintln!("scenario-smoke: {name}: no committed golden");
                failed = true;
            }
        }
    }
    for (name, _) in &committed {
        if !fresh.iter().any(|(n, _)| n == name) {
            eprintln!("scenario-smoke: golden `{name}` has no scenario file");
            failed = true;
        }
    }

    if failed {
        eprintln!("scenario-smoke FAILED");
        return ExitCode::FAILURE;
    }
    println!("scenario-smoke OK ({} scenarios)", fresh.len());
    ExitCode::SUCCESS
}
