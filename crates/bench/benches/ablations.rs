//! Ablations of the design choices DESIGN.md calls out (beyond the paper's
//! own figures):
//!
//! 1. Early termination + cache compaction (ExeGPT RRA) versus fixed-batch
//!    decoding to the batch maximum (FT) at a *matched* admission batch —
//!    isolating the paper's diminishing-batch argument from batch sizing.
//! 2. Dynamic workload adjustment (§5.2) on/off: effect on encoder
//!    stage-time spread.
//! 3. KV reservation disciplines: peak cache bytes under up-front,
//!    incremental, and paged policies at matched load.

use criterion::{criterion_group, Criterion};
use exegpt::{RraConfig, ScheduleConfig, TpConfig};
use exegpt_baselines::FasterTransformer;
use exegpt_bench::scenarios::opt_4xa40;
use exegpt_runner::{KvTracker, ReservePolicy, RunOptions, Runner};
use exegpt_workload::Task;

fn print_ablations() {
    let system = opt_4xa40();
    let sim = system.simulator_for(Task::Translation);
    println!("Ablations (OPT-13B / 4xA40, task T)");

    // 1. Early termination at a matched resident batch: RRA's steady pool
    //    size B_D is handed to FT as its static batch, so both keep the
    //    same number of queries resident; only the termination/refill
    //    policy differs.
    let runner = Runner::from_simulator(sim.clone());
    let cfg16 = RraConfig::new(16, 16, TpConfig::none());
    let pool = sim.evaluate_rra(&cfg16).expect("feasible").breakdown.decode_batch;
    let rra = runner
        .run(
            &ScheduleConfig::Rra(cfg16),
            &RunOptions { num_queries: 4 * pool, warmup_frac: 0.25, ..Default::default() },
        )
        .expect("runs");
    let ft = FasterTransformer::paper_default(sim.clone()).expect("grid builds");
    let ft_rep = ft
        .run(pool, &RunOptions { num_queries: 4 * pool, warmup_frac: 0.25, ..Default::default() })
        .expect("runs");
    println!(
        "  early termination at matched resident batch {pool}: \
         ExeGPT-RRA {:.2} q/s vs FT fixed-batch {:.2} q/s ({:.2}x)",
        rra.throughput,
        ft_rep.throughput,
        rra.throughput / ft_rep.throughput
    );

    // 2. Dynamic adjustment on/off.
    let cfg = ScheduleConfig::Rra(RraConfig::new(16, 16, TpConfig::none()));
    let with = runner
        .run(&cfg, &RunOptions { num_queries: 600, adjust_threshold: 0.15, ..Default::default() })
        .expect("runs");
    let without = runner
        .run(&cfg, &RunOptions { num_queries: 600, adjust_threshold: 2.0, ..Default::default() })
        .expect("runs");
    let spread = |r: &exegpt_runner::RunReport| {
        let (mean, half) = r.encoder_stage_stats();
        if mean > 0.0 {
            100.0 * half / mean
        } else {
            0.0
        }
    };
    println!(
        "  dynamic adjustment: encoder stage spread ±{:.1}% (on) vs ±{:.1}% (off)",
        spread(&with),
        spread(&without)
    );

    // 3. KV disciplines at matched load (tracked in tokens: 256 queries,
    //    input 128, actual output 128, declared maximum 320).
    let mut results = Vec::new();
    for (name, policy) in [
        ("up-front", ReservePolicy::UpFront),
        ("incremental", ReservePolicy::Incremental),
        ("paged(16)", ReservePolicy::Paged { page_tokens: 16 }),
    ] {
        let mut kv = KvTracker::new(1, u64::MAX >> 1, policy);
        for id in 0..256u64 {
            let _ = kv.try_admit(id, 128, 320);
            let _ = kv.grow(id, 128);
        }
        results.push(format!("{name} {}k tokens", kv.peak_bytes() / 1000));
    }
    println!("  kv peak at matched load (256 queries): {}", results.join(", "));
    println!();
}

fn bench_kernel(c: &mut Criterion) {
    let runner = Runner::from_simulator(opt_4xa40().simulator_for(Task::Translation));
    let cfg = ScheduleConfig::Rra(RraConfig::new(16, 16, TpConfig::none()));
    c.bench_function("ablations/replay_with_adjustment", |b| {
        b.iter(|| {
            runner.run(&cfg, &RunOptions { num_queries: 200, ..Default::default() }).expect("runs")
        })
    });
    c.bench_function("ablations/replay_without_adjustment", |b| {
        b.iter(|| {
            runner
                .run(
                    &cfg,
                    &RunOptions { num_queries: 200, adjust_threshold: 2.0, ..Default::default() },
                )
                .expect("runs")
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_kernel
}

fn main() {
    print_ablations();
    benches();
    Criterion::default().configure_from_args().final_summary();
}
