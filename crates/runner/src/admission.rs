//! Per-phase dynamic admission (§5.2) shared by the RRA and WAA replays.

use exegpt::DynamicAdjuster;
use exegpt_workload::TimedRequest;

use crate::kv::KvTracker;

/// Admission buffers hoisted out of a replay loop, so an encode phase
/// allocates nothing once they have grown to the run's high-water mark.
#[derive(Debug, Default)]
pub(crate) struct Admission {
    lens: Vec<usize>,
    selected: Vec<usize>,
    /// Requests admitted by the last [`admit`](Self::admit), in queue order.
    pub(crate) admitted: Vec<TimedRequest>,
}

impl Admission {
    /// Selects a batch from the arrived prefix of the arrival-sorted
    /// `pending` queue, admits it into `kv` up to the first overflow (the
    /// cache is full: stop admitting this phase), and removes the admitted
    /// requests from `pending` in place, keeping the rest in order.
    /// Returns the length of the arrived prefix.
    pub(crate) fn admit(
        &mut self,
        pending: &mut Vec<TimedRequest>,
        t: f64,
        adjuster: &DynamicAdjuster,
        pool_len: usize,
        scheduled_b_d: usize,
        kv: &mut KvTracker,
    ) -> usize {
        let arrived = pending.partition_point(|r| r.arrival <= t);
        self.lens.clear();
        self.lens.extend(pending[..arrived].iter().map(|r| r.request.input_len));
        adjuster.select_batch_into(&self.lens, pool_len, scheduled_b_d, &mut self.selected);
        self.admitted.clear();
        for &idx in &self.selected {
            let req = pending[idx];
            if !kv.try_admit(req.request.id, req.request.input_len, 0) {
                break;
            }
            self.admitted.push(req);
        }
        // `selected` is ascending, so the admitted indices are its prefix.
        let taken = &self.selected[..self.admitted.len()];
        if !taken.is_empty() {
            let (mut i, mut k) = (0, 0);
            pending.retain(|_| {
                let keep = taken.get(k) != Some(&i);
                k += usize::from(!keep);
                i += 1;
                keep
            });
        }
        arrived
    }

    /// Input lengths of the requests admitted by the last
    /// [`admit`](Self::admit).
    pub(crate) fn admitted_lens(&mut self) -> &[usize] {
        self.lens.clear();
        self.lens.extend(self.admitted.iter().map(|r| r.request.input_len));
        &self.lens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::ReservePolicy;
    use exegpt_workload::Request;

    fn queue(lens: &[usize], arrived: usize) -> Vec<TimedRequest> {
        lens.iter()
            .enumerate()
            .map(|(i, &input_len)| TimedRequest {
                request: Request { id: i as u64, input_len, output_len: 1 },
                arrival: if i < arrived { 0.0 } else { 1.0 },
            })
            .collect()
    }

    fn ids(reqs: &[TimedRequest]) -> Vec<u64> {
        reqs.iter().map(|r| r.request.id).collect()
    }

    #[test]
    fn lookahead_admission_compacts_pending_in_order() {
        let adj = DynamicAdjuster::new(4, 100.0, 0.1);
        let mut kv = KvTracker::new(1, 10_000, ReservePolicy::Incremental);
        // Greedy takes 0 and 1, lookahead skips 2 and 3 for 4; request 6
        // has not arrived.
        let mut pending = queue(&[150, 150, 400, 400, 90, 100, 10], 6);
        let mut admission = Admission::default();
        assert_eq!(admission.admit(&mut pending, 0.0, &adj, 0, 0, &mut kv), 6);
        assert_eq!(ids(&admission.admitted), vec![0, 1, 4]);
        assert_eq!(admission.admitted_lens(), &[150, 150, 90]);
        assert_eq!(ids(&pending), vec![2, 3, 5, 6]);
        assert_eq!(kv.used_bytes(), 390);
    }

    #[test]
    fn admission_stops_at_the_first_kv_overflow() {
        let adj = DynamicAdjuster::new(4, 100.0, 0.1);
        let mut kv = KvTracker::new(1, 200, ReservePolicy::Incremental);
        let mut pending = queue(&[150, 150, 400, 400, 90], 5);
        let mut admission = Admission::default();
        admission.admit(&mut pending, 0.0, &adj, 0, 0, &mut kv);
        assert_eq!(ids(&admission.admitted), vec![0], "1 overflows; 4 is not tried");
        assert_eq!(ids(&pending), vec![1, 2, 3, 4]);
    }
}
