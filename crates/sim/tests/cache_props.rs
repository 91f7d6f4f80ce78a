//! Property coverage of the evaluation cache: memoized results must be
//! bit-identical to freshly computed ones, for both schedule families and
//! for infeasible configurations (whose errors are memoized too), and a
//! cluster or workload swap must start from an empty cache.

use std::sync::{Arc, OnceLock};

use exegpt_cluster::ClusterSpec;
use exegpt_dist::LengthDist;
use exegpt_model::ModelConfig;
use exegpt_profiler::{ProfileOptions, Profiler};
use exegpt_sim::{
    Estimate, RraConfig, ScheduleConfig, SimError, Simulator, TpConfig, WaaConfig, WaaVariant,
    Workload,
};
use exegpt_units::Secs;
use proptest::prelude::*;

/// OPT-13B on four A40s serving task S, profiled once for the whole suite.
fn simulator() -> &'static Simulator {
    static SIM: OnceLock<Simulator> = OnceLock::new();
    SIM.get_or_init(|| {
        let model = ModelConfig::opt_13b();
        let cluster = ClusterSpec::a40_cluster().subcluster(4).expect("fits");
        let profile = Profiler::new(model.clone(), cluster.clone())
            .run(&ProfileOptions::default())
            .expect("profiles");
        let workload = Workload::new(
            LengthDist::truncated_normal(256.0, 252.0, 512).expect("valid"),
            LengthDist::truncated_normal(32.0, 13.0, 80).expect("valid"),
        );
        Simulator::new(model, cluster, Arc::new(profile), workload)
    })
}

fn tp_strategy() -> impl Strategy<Value = TpConfig> {
    prop_oneof![
        Just(TpConfig::none()),
        Just(TpConfig { degree: 2, gpus: 2 }),
        Just(TpConfig { degree: 2, gpus: 4 }),
        Just(TpConfig { degree: 4, gpus: 4 }),
    ]
}

fn config_strategy() -> impl Strategy<Value = ScheduleConfig> {
    let rra = (1usize..=48, 1usize..=64, tp_strategy())
        .prop_map(|(b_e, n_d, tp)| ScheduleConfig::Rra(RraConfig::new(b_e, n_d, tp)));
    let variant = prop_oneof![Just(WaaVariant::Compute), Just(WaaVariant::Memory)];
    let waa = (1usize..=8, 1usize..=4, tp_strategy(), variant)
        .prop_map(|(b_e, b_m, tp, v)| ScheduleConfig::Waa(WaaConfig::new(b_e, b_m, tp, v)));
    prop_oneof![rra, waa]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn cached_estimates_are_bit_identical_to_fresh_ones(
        cfgs in prop::collection::vec(config_strategy(), 10),
    ) {
        // One simulator accumulates cache entries across the whole case;
        // each configuration is also evaluated on a cache-free twin.
        let warm = simulator().with_workload(simulator().workload().clone());
        for cfg in &cfgs {
            let first = warm.evaluate(cfg);
            let second = warm.evaluate(cfg); // must be served by the memo
            let cold = warm.with_workload(warm.workload().clone()).evaluate(cfg);
            match (first, second, cold) {
                (Ok(a), Ok(b), Ok(c)) => {
                    prop_assert_eq!(&a, &b);
                    prop_assert_eq!(&a, &c);
                    // Byte-level identity, not approximate agreement: the
                    // serializer prints shortest-round-trip floats, so equal
                    // strings mean equal bits.
                    let ja = serde_json::to_string(&a).expect("serializes");
                    prop_assert_eq!(&ja, &serde_json::to_string(&b).expect("serializes"));
                    prop_assert_eq!(&ja, &serde_json::to_string(&c).expect("serializes"));
                }
                (Err(_), Err(_), Err(_)) => {}
                (a, b, c) => prop_assert!(
                    false,
                    "cache changed feasibility for {:?}: {:?} / {:?} / {:?}",
                    cfg, a, b, c
                ),
            }
        }
        let stats = warm.cache_stats();
        prop_assert!(
            stats.hits >= cfgs.len(),
            "every repeated lookup must hit: {:?}",
            stats
        );
        prop_assert!(stats.misses <= cfgs.len());
    }
}

/// Cluster sequences a simulator walks through `with_cluster`: each shape a
/// fault or a recovery can produce, ending on the cluster under test.
fn cluster_path_strategy() -> impl Strategy<Value = Vec<ClusterSpec>> {
    let base = simulator().cluster().clone();
    let slowed = base.with_gpu(base.gpu().slowed(2.0).expect("valid"));
    let degraded = base.with_links(
        base.intra().degraded(0.5, Secs::ZERO).expect("valid"),
        base.inter().degraded(0.5, Secs::new(1e-5)).expect("valid"),
    );
    let round_trip = vec![base.survivors(1).expect("a GPU survives"), base.clone()];
    prop_oneof![
        (1usize..=3).prop_map(move |k| vec![base.survivors(k).expect("a GPU survives")]),
        Just(vec![slowed]),
        Just(vec![degraded]),
        Just(round_trip),
    ]
}

/// Byte-level rendering of one evaluation: the serializer prints
/// shortest-round-trip floats, so equal strings mean equal bits.
fn render(result: Result<Estimate, SimError>) -> String {
    match result {
        Ok(est) => serde_json::to_string(&est).expect("serializes"),
        Err(e) => format!("error: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn with_cluster_matches_a_fresh_simulator(
        path in cluster_path_strategy(),
        cfgs in prop::collection::vec(config_strategy(), 6),
    ) {
        // Warm the origin first: a swap that carried its cache over would
        // replay these estimates on the new topology.
        let origin = simulator().with_workload(simulator().workload().clone());
        let warm: Vec<String> = cfgs.iter().map(|cfg| render(origin.evaluate(cfg))).collect();
        let mut swapped = origin.clone();
        for cluster in &path {
            swapped = swapped.with_cluster(cluster.clone());
            let stats = swapped.cache_stats();
            prop_assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        }
        let fresh = Simulator::new(
            origin.model().clone(),
            swapped.cluster().clone(),
            Arc::clone(origin.profile()),
            origin.workload().clone(),
        );
        for (cfg, warm) in cfgs.iter().zip(&warm) {
            let got = render(swapped.evaluate(cfg));
            prop_assert_eq!(&got, &render(fresh.evaluate(cfg)), "{:?} on {:?}", cfg, path);
            if swapped.cluster() == origin.cluster() {
                prop_assert_eq!(&got, warm, "a round trip must restore {:?}", cfg);
            }
        }
    }
}

#[test]
fn with_workload_does_not_leak_cached_estimates() {
    let sim = simulator().with_workload(simulator().workload().clone());
    let cfg = RraConfig::new(16, 16, TpConfig::none());
    let short = sim.evaluate_rra(&cfg).expect("feasible");

    // Same config under a shifted workload: were the cache carried across
    // `with_workload`, the stale estimate would be returned verbatim.
    let shifted = sim.with_workload(Workload::new(
        LengthDist::truncated_normal(128.0, 81.0, 256).expect("valid"),
        LengthDist::truncated_normal(128.0, 68.0, 320).expect("valid"),
    ));
    assert_eq!(shifted.cache_stats().hits + shifted.cache_stats().misses, 0);
    let long = shifted.evaluate_rra(&cfg).expect("feasible");
    assert_ne!(short, long, "4x longer outputs must change the estimate");
    assert!(long.latency > short.latency);
}
