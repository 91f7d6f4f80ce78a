//! Property-based invariants of the KV-cache tracker: no leaks, no
//! double-accounting, capacity always respected, under arbitrary
//! admit/grow/release interleavings and all three disciplines; and exact
//! agreement with the floating-point pricing the tracker used to apply.

// Test-only bookkeeping; xlint skips tests and clippy should too.
#![allow(clippy::disallowed_types)]

use std::collections::BTreeMap;

use exegpt_runner::{KvTracker, ReservePolicy, Slab};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Admit { id: u64, input: usize, max_out: usize },
    Grow { id: u64, tokens: usize },
    Release { id: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..16, 1usize..200, 0usize..300).prop_map(|(id, input, max_out)| Op::Admit {
            id,
            input,
            max_out
        }),
        (0u64..16, 1usize..50).prop_map(|(id, tokens)| Op::Grow { id, tokens }),
        (0u64..16).prop_map(|id| Op::Release { id }),
    ]
}

fn arb_policy() -> impl Strategy<Value = ReservePolicy> {
    prop_oneof![
        Just(ReservePolicy::UpFront),
        Just(ReservePolicy::Incremental),
        Just(ReservePolicy::Paged { page_tokens: 16 }),
        Just(ReservePolicy::Paged { page_tokens: 1 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Capacity is never exceeded; releasing everything returns to zero;
    /// the peak is the running maximum.
    #[test]
    fn tracker_conserves_bytes(
        ops in prop::collection::vec(arb_op(), 1..120),
        policy in arb_policy(),
        capacity in 1_000u64..100_000,
    ) {
        let mut kv = KvTracker::new(1, capacity, policy);
        let mut live: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut peak_seen = 0u64;
        for op in ops {
            match op {
                Op::Admit { id, input, max_out } => {
                    if !live.contains(&id) && kv.try_admit(id, input, max_out) {
                        live.insert(id);
                    }
                }
                Op::Grow { id, tokens } => {
                    let _ = kv.grow(id, tokens);
                }
                Op::Release { id } => {
                    kv.release(id);
                    live.remove(&id);
                }
            }
            prop_assert!(kv.used_bytes() <= capacity, "capacity exceeded");
            peak_seen = peak_seen.max(kv.used_bytes());
            prop_assert_eq!(kv.peak_bytes(), peak_seen);
            prop_assert_eq!(kv.resident(), live.len());
        }
        for id in live {
            kv.release(id);
        }
        prop_assert_eq!(kv.used_bytes(), 0, "bytes leaked after releasing all");
    }

    /// Paged reservations are always at least the incremental ones and
    /// waste at most one page per resident query.
    #[test]
    fn paging_overhead_is_bounded(
        admissions in prop::collection::vec((1usize..300, 0usize..100), 1..32),
        page in 1usize..64,
    ) {
        let mut paged = KvTracker::new(1, u64::MAX >> 1, ReservePolicy::Paged { page_tokens: page });
        let mut incr = KvTracker::new(1, u64::MAX >> 1, ReservePolicy::Incremental);
        for (i, &(input, growth)) in admissions.iter().enumerate() {
            let id = i as u64;
            prop_assert!(paged.try_admit(id, input, 0));
            prop_assert!(incr.try_admit(id, input, 0));
            prop_assert!(paged.grow(id, growth));
            prop_assert!(incr.grow(id, growth));
        }
        let n = admissions.len() as u64;
        prop_assert!(paged.used_bytes() >= incr.used_bytes());
        prop_assert!(
            paged.used_bytes() <= incr.used_bytes() + n * page as u64,
            "paged {} vs incr {} with {} queries of page {page}",
            paged.used_bytes(),
            incr.used_bytes(),
            n
        );
    }

    /// Integer pricing is exact: against a reference tracker that prices
    /// with the former `ceil(reserved · bpt)` in `f64`, every admission,
    /// growth and bulk-growth outcome, `used_bytes` and `peak_bytes` agree
    /// for any integral bytes-per-token; and `used_bytes` is always the sum
    /// of the resident entries' reserved bytes.
    #[test]
    fn integer_pricing_matches_the_f64_formula(
        ops in prop::collection::vec(arb_exact_op(), 1..160),
        policy in prop_oneof![
            Just(ReservePolicy::Incremental),
            (1usize..64).prop_map(|page_tokens| ReservePolicy::Paged { page_tokens }),
        ],
        bpt in 1u64..(1 << 20),
        capacity_tokens in 100u64..5_000,
    ) {
        let capacity = capacity_tokens * bpt;
        let mut kv = KvTracker::new(bpt, capacity, policy);
        let mut reference = F64Tracker::new(bpt, capacity, policy);
        for op in ops {
            match op {
                ExactOp::Admit { id, input } => {
                    if !reference.resident(id) {
                        prop_assert_eq!(kv.try_admit(id, input, 0), reference.try_admit(id, input));
                    }
                }
                ExactOp::AdmitUnchecked { id, tokens } => {
                    if !reference.resident(id) {
                        kv.admit_unchecked(id, tokens);
                        reference.admit_unchecked(id, tokens);
                    }
                }
                ExactOp::Grow { id, tokens } => {
                    prop_assert_eq!(kv.grow(id, tokens), reference.grow(id, tokens));
                }
                ExactOp::GrowAll { tokens } => {
                    prop_assert_eq!(kv.grow_all(tokens), reference.grow_all(tokens));
                }
                ExactOp::Release { id } => {
                    kv.release(id);
                    reference.release(id);
                }
            }
            prop_assert_eq!(kv.used_bytes(), reference.used);
            prop_assert_eq!(kv.peak_bytes(), reference.peak);
            prop_assert_eq!(kv.resident(), reference.index.len());
            let resident_bytes: u64 = reference
                .entries
                .iter()
                .map(|(_, &(_, held))| reserved_tokens(policy, held) as u64 * bpt)
                .sum();
            prop_assert_eq!(kv.used_bytes(), resident_bytes);
        }
    }
}

#[derive(Debug, Clone)]
enum ExactOp {
    Admit { id: u64, input: usize },
    AdmitUnchecked { id: u64, tokens: usize },
    Grow { id: u64, tokens: usize },
    GrowAll { tokens: usize },
    Release { id: u64 },
}

fn arb_exact_op() -> impl Strategy<Value = ExactOp> {
    prop_oneof![
        (0u64..24, 1usize..400).prop_map(|(id, input)| ExactOp::Admit { id, input }),
        (0u64..24, 1usize..400).prop_map(|(id, tokens)| ExactOp::AdmitUnchecked { id, tokens }),
        (0u64..24, 1usize..50).prop_map(|(id, tokens)| ExactOp::Grow { id, tokens }),
        (1usize..40).prop_map(|tokens| ExactOp::GrowAll { tokens }),
        (0u64..24).prop_map(|id| ExactOp::Release { id }),
    ]
}

fn reserved_tokens(policy: ReservePolicy, held: usize) -> usize {
    match policy {
        ReservePolicy::UpFront | ReservePolicy::Incremental => held,
        ReservePolicy::Paged { page_tokens } => held.div_ceil(page_tokens) * page_tokens,
    }
}

/// The tracker as it priced entries before integer accounting: the same
/// slot-order arena and skip-on-overflow rules, with each reservation
/// priced as `ceil(reserved_tokens · bytes_per_token)` in `f64`.
struct F64Tracker {
    bytes_per_token: f64,
    capacity: u64,
    policy: ReservePolicy,
    entries: Slab<(u64, usize)>,
    index: BTreeMap<u64, usize>,
    used: u64,
    peak: u64,
}

impl F64Tracker {
    fn new(bytes_per_token: u64, capacity: u64, policy: ReservePolicy) -> Self {
        Self {
            bytes_per_token: bytes_per_token as f64,
            capacity,
            policy,
            entries: Slab::new(),
            index: BTreeMap::new(),
            used: 0,
            peak: 0,
        }
    }

    fn price(&self, held: usize) -> u64 {
        (reserved_tokens(self.policy, held) as f64 * self.bytes_per_token).ceil() as u64
    }

    fn resident(&self, id: u64) -> bool {
        self.index.contains_key(&id)
    }

    fn charge(&mut self, add: u64) {
        self.used += add;
        self.peak = self.peak.max(self.used);
    }

    fn try_admit(&mut self, id: u64, input: usize) -> bool {
        let add = self.price(input);
        if self.used + add > self.capacity {
            return false;
        }
        self.admit_unchecked(id, input);
        true
    }

    fn admit_unchecked(&mut self, id: u64, tokens: usize) {
        let add = self.price(tokens);
        self.index.insert(id, self.entries.insert((id, tokens)));
        self.charge(add);
    }

    fn grow(&mut self, id: u64, tokens: usize) -> bool {
        let Some(&slot) = self.index.get(&id) else { return false };
        let held = self.entries.get(slot).expect("indexed slot is live").1;
        let add = self.price(held + tokens) - self.price(held);
        if self.used + add > self.capacity {
            return false;
        }
        if let Some(entry) = self.entries.get_mut(slot) {
            entry.1 += tokens;
        }
        self.charge(add);
        true
    }

    fn grow_all(&mut self, tokens: usize) -> usize {
        let slots: Vec<usize> = self.entries.iter().map(|(slot, _)| slot).collect();
        let mut grown = 0;
        for slot in slots {
            let held = self.entries.get(slot).expect("live slot").1;
            let add = self.price(held + tokens) - self.price(held);
            if self.used + add > self.capacity {
                continue;
            }
            if let Some(entry) = self.entries.get_mut(slot) {
                entry.1 += tokens;
            }
            self.used += add;
            grown += 1;
        }
        self.peak = self.peak.max(self.used);
        grown
    }

    fn release(&mut self, id: u64) {
        if let Some(slot) = self.index.remove(&id) {
            if let Some((_, held)) = self.entries.remove(slot) {
                self.used = self.used.saturating_sub(self.price(held));
            }
        }
    }
}
