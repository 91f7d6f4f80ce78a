//! Deterministic allocation budget of the serve and fleet hot paths.
//!
//! A counting global allocator tallies heap allocations made while
//! `FleetLowered::run` and `ServeLowered::run` execute (set-up and
//! lowering are excluded). Allocation counts are a pure function of the
//! code and the seed, so the budgets are exact gates, not timing
//! heuristics: a per-request `String` key or `Vec` slipping back into the
//! loop shows up as a whole extra allocation per request.
//!
//! The serving-loop budget is per request; a run that replans in the loop
//! also gets a fixed allowance per replan search, which allocates in the
//! scheduler rather than in the loop. Everything runs inside one `#[test]`
//! so no other test thread allocates while a window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use exegpt_scenario::{lower, Lowered, Scenario};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting successful allocations.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter only
// observes that a call happened.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

fn lowered(name: &str) -> Lowered {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios").join(name);
    let scenario = Scenario::load(&path).expect("shipped scenario loads");
    lower(&scenario).expect("scenario lowers")
}

/// One run's allocations, requests and in-loop replan searches.
struct Tally {
    allocs: usize,
    requests: usize,
    replans: usize,
}

impl Tally {
    fn per_request(&self) -> f64 {
        self.allocs as f64 / self.requests as f64
    }
}

fn fleet_run(name: &str) -> Tally {
    let Lowered::Fleet(fleet) = lowered(name) else { panic!("{name} lowers to a fleet run") };
    let requests = fleet.trace.len();
    let (report, allocs) = counted(|| fleet.run());
    let report = report.expect("fleet scenario runs");
    assert_eq!(report.completed, requests, "{name}: every request completes");
    Tally { allocs, requests, replans: 0 }
}

fn serve_run(name: &str) -> Tally {
    let Lowered::Serve(serve) = lowered(name) else { panic!("{name} lowers to a serve run") };
    let requests = serve.arrivals.len();
    let (report, allocs) = counted(|| serve.run());
    let report = report.expect("serve scenario runs");
    assert_eq!(report.completed, requests, "{name}: every request completes");
    Tally { allocs, requests, replans: report.reschedules + report.replans }
}

/// Allocations allowed per request in the fleet run.
const FLEET_PER_REQUEST: f64 = 5.0;
/// Allocations allowed per request in the serving loop.
const SERVE_PER_REQUEST: f64 = 3.0;
/// Allocations allowed per in-loop replan. A drift replan runs an
/// incremental scheduler search on a fresh evaluation cache; the scheduler
/// and simulator allocate per evaluation (about 23k per replan on
/// serve-shift), a cost outside the serving loop that this allowance keeps
/// from growing unnoticed.
const PER_REPLAN: usize = 24_000;

#[test]
fn serve_and_fleet_runs_stay_within_their_allocation_budgets() {
    let fleet = fleet_run("fleet-loss.toml");
    // The same arrivals through the loop with adaptation off: no replan
    // searches, so every allocation is the loop's own.
    let fixed = serve_run("serve-shift-static.toml");
    let adaptive = serve_run("serve-shift.toml");
    for (name, t) in
        [("fleet-loss", &fleet), ("serve-shift-static", &fixed), ("serve-shift", &adaptive)]
    {
        eprintln!(
            "{name}: {} allocations, {} requests, {} replans, {:.2} per request",
            t.allocs,
            t.requests,
            t.replans,
            t.per_request()
        );
    }
    assert!(
        fleet.per_request() <= FLEET_PER_REQUEST,
        "fleet-loss: {:.2} allocations per request (budget {FLEET_PER_REQUEST})",
        fleet.per_request()
    );
    assert!(
        fixed.per_request() <= SERVE_PER_REQUEST,
        "serve-shift-static: {:.2} allocations per request (budget {SERVE_PER_REQUEST})",
        fixed.per_request()
    );
    let budget =
        SERVE_PER_REQUEST * adaptive.requests as f64 + (PER_REPLAN * adaptive.replans) as f64;
    assert!(
        adaptive.allocs as f64 <= budget,
        "serve-shift: {} allocations over {} requests and {} replans (budget {budget})",
        adaptive.allocs,
        adaptive.requests,
        adaptive.replans
    );
}
