//! Global dispatch policies.
//!
//! The router sees, at every arrival, one [`Candidate`] per routable
//! replica: its queue depth, KV headroom, and the installed plan's
//! estimated latency. All policies are pure functions of the candidate
//! list (plus one `u64` of round-robin state), with explicit total-order
//! tie-breaking on replica id — routing is deterministic by construction.

use crate::slo::SloClass;

/// How arrivals are spread across replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Cycle through routable replicas in id order.
    RoundRobin,
    /// Fewest outstanding requests (queued + in flight), ties to the
    /// lowest replica id.
    LeastOutstanding,
    /// Most unreserved KV-cache bytes on the bottleneck GPU, ties to the
    /// lowest replica id — keeps admission from stalling on a cache-full
    /// replica while another sits empty.
    KvHeadroom,
    /// SLO-aware: replicas whose plan latency fits the tenant's end-to-end
    /// target are preferred (least-outstanding among them); if none
    /// qualifies, the fastest replica takes it.
    SloAware,
}

impl DispatchPolicy {
    /// Stable lower-case name (metric keys, CLI args).
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round_robin",
            DispatchPolicy::LeastOutstanding => "least_outstanding",
            DispatchPolicy::KvHeadroom => "kv_headroom",
            DispatchPolicy::SloAware => "slo_aware",
        }
    }
}

/// One routable replica's dispatch signals at an arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Replica id.
    pub replica: usize,
    /// Requests queued or in flight on the replica.
    pub outstanding: usize,
    /// Unreserved KV-cache bytes on the replica's bottleneck GPU.
    pub headroom_bytes: u64,
    /// The replica plan's estimated per-request latency (seconds).
    pub plan_latency: f64,
}

/// The global router: one policy plus its (round-robin) state.
#[derive(Debug, Clone)]
pub struct Router {
    policy: DispatchPolicy,
    rr_next: u64,
}

impl Router {
    /// A router dispatching under `policy`.
    pub fn new(policy: DispatchPolicy) -> Self {
        Self { policy, rr_next: 0 }
    }

    /// Picks the replica for a request of `class` among `candidates`
    /// (routable replicas in ascending id order) and returns its entry.
    /// Returns `None` only when no replica is routable. Ties go to the
    /// lowest replica id: `min_by*` keep the first of equal elements.
    pub fn choose<'c>(
        &mut self,
        class: &SloClass,
        candidates: &'c [Candidate],
    ) -> Option<&'c Candidate> {
        if candidates.is_empty() {
            return None;
        }
        match self.policy {
            DispatchPolicy::RoundRobin => {
                let idx = (self.rr_next % candidates.len() as u64) as usize;
                self.rr_next = self.rr_next.wrapping_add(1);
                candidates.get(idx)
            }
            DispatchPolicy::LeastOutstanding => candidates.iter().min_by_key(|c| c.outstanding),
            DispatchPolicy::KvHeadroom => {
                candidates.iter().min_by_key(|c| std::cmp::Reverse(c.headroom_bytes))
            }
            DispatchPolicy::SloAware => {
                // A replica "qualifies" when its plan latency fits the
                // class's end-to-end budget; an unconstrained class
                // qualifies everyone.
                let fits = |c: &&Candidate| match class.targets.e2e {
                    Some(bound) => c.plan_latency <= bound.as_secs(),
                    None => true,
                };
                candidates.iter().filter(fits).min_by_key(|c| c.outstanding).or_else(|| {
                    // Nothing fits: damage control — the fastest replica.
                    candidates.iter().min_by(|a, b| a.plan_latency.total_cmp(&b.plan_latency))
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exegpt_units::Secs;

    fn cands() -> Vec<Candidate> {
        vec![
            Candidate { replica: 0, outstanding: 5, headroom_bytes: 100, plan_latency: 4.0 },
            Candidate { replica: 1, outstanding: 2, headroom_bytes: 900, plan_latency: 9.0 },
            Candidate { replica: 2, outstanding: 2, headroom_bytes: 400, plan_latency: 1.5 },
        ]
    }

    /// The chosen replica id, for readable assertions.
    fn pick(r: &mut Router, class: &SloClass, cands: &[Candidate]) -> Option<usize> {
        r.choose(class, cands).map(|c| c.replica)
    }

    #[test]
    fn round_robin_cycles_in_id_order() {
        let mut r = Router::new(DispatchPolicy::RoundRobin);
        let batch = SloClass::batch("b");
        let picks: Vec<_> = (0..6).filter_map(|_| pick(&mut r, &batch, &cands())).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_outstanding_breaks_ties_on_id() {
        let mut r = Router::new(DispatchPolicy::LeastOutstanding);
        assert_eq!(pick(&mut r, &SloClass::batch("b"), &cands()), Some(1));
    }

    #[test]
    fn kv_headroom_prefers_the_roomiest() {
        let mut r = Router::new(DispatchPolicy::KvHeadroom);
        assert_eq!(pick(&mut r, &SloClass::batch("b"), &cands()), Some(1));
        // Ties go to the lowest id.
        let tied = [cands()[2], Candidate { replica: 3, ..cands()[2] }];
        assert_eq!(pick(&mut r, &SloClass::batch("b"), &tied), Some(2));
    }

    #[test]
    fn slo_aware_routes_tight_deadlines_to_fitting_replicas() {
        let mut r = Router::new(DispatchPolicy::SloAware);
        // Budget 2s: only replica 2 fits.
        let tight = SloClass::interactive("chat", Secs::new(2.0));
        assert_eq!(pick(&mut r, &tight, &cands()), Some(2));
        // Budget 5s: replicas 0 and 2 fit; 2 has fewer outstanding.
        let mid = SloClass::interactive("qa", Secs::new(5.0));
        assert_eq!(pick(&mut r, &mid, &cands()), Some(2));
        // Budget 1s: nothing fits; the fastest (2) takes it.
        let impossible = SloClass::interactive("rt", Secs::new(1.0));
        assert_eq!(pick(&mut r, &impossible, &cands()), Some(2));
        // Unconstrained: plain least-outstanding (tie → lowest id).
        assert_eq!(pick(&mut r, &SloClass::batch("b"), &cands()), Some(1));
    }

    /// Every policy returns an element *of the slice it was given*, so a
    /// caller can never be handed a replica it has no candidate for.
    fn assert_choice_is_in_slice(policy: DispatchPolicy) {
        let mut r = Router::new(policy);
        let classes = [
            SloClass::batch("b"),
            SloClass::interactive("chat", Secs::new(2.0)),
            SloClass::interactive("rt", Secs::new(1.0)),
        ];
        let all = cands();
        for n in 1..=all.len() {
            // Non-contiguous ids too: the replica id is not an index.
            for slice in [&all[..n], &all[all.len() - n..]] {
                for class in &classes {
                    for _ in 0..n {
                        let c = r.choose(class, slice).expect("a non-empty slice is routable");
                        assert!(
                            slice.iter().any(|s| std::ptr::eq(s, c)),
                            "{policy:?} returned a candidate outside the slice"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn round_robin_choice_is_in_the_slice() {
        assert_choice_is_in_slice(DispatchPolicy::RoundRobin);
    }

    #[test]
    fn least_outstanding_choice_is_in_the_slice() {
        assert_choice_is_in_slice(DispatchPolicy::LeastOutstanding);
    }

    #[test]
    fn kv_headroom_choice_is_in_the_slice() {
        assert_choice_is_in_slice(DispatchPolicy::KvHeadroom);
    }

    #[test]
    fn slo_aware_choice_is_in_the_slice() {
        assert_choice_is_in_slice(DispatchPolicy::SloAware);
    }

    #[test]
    fn empty_candidate_list_is_unroutable() {
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastOutstanding,
            DispatchPolicy::KvHeadroom,
            DispatchPolicy::SloAware,
        ] {
            let mut r = Router::new(policy);
            assert!(r.choose(&SloClass::batch("b"), &[]).is_none());
        }
    }
}
