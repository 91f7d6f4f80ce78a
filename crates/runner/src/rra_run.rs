//! Discrete-event replay of an RRA schedule.

use exegpt_dist::CompletionDist;
use exegpt_sim::{RraConfig, ScheduleConfig, Simulator};
use exegpt_units::Secs;
use exegpt_workload::{PoissonStream, Request, RequestStream, TimedRequest};

use crate::admission::Admission;
use crate::error::RunError;
use crate::exec::PhaseExecutor;
use crate::report::RunReport;
use crate::runner::{windowed_throughput, RunOptions};
use crate::trace::{SpanKind, Trace};

struct Active {
    req: Request,
    progress: usize,
    t_encoded: f64,
    arrival: f64,
}

pub(crate) fn run(
    sim: &Simulator,
    cfg: &RraConfig,
    opts: &RunOptions,
) -> Result<RunReport, RunError> {
    // The simulator's feasibility checks and derived pool size apply as-is.
    let exec = PhaseExecutor::new(sim, &ScheduleConfig::Rra(*cfg))?;
    let scheduled_b_d = exec.scheduled_decode_batch();
    let w = sim.workload();
    let mut kv = exec.kv_tracker();

    let adjuster = exec.adjuster(opts.adjust_threshold);
    let _ = CompletionDist::new(w.output(), cfg.n_d); // distribution sanity only

    let stream_workload = opts.request_workload.as_ref().unwrap_or(w);
    // FIFO queue (front = oldest), sorted by arrival time.
    let mut pending: Vec<TimedRequest> = match opts.arrival_rate {
        Some(rate) => {
            PoissonStream::new(stream_workload, rate, opts.seed).take(opts.num_queries).collect()
        }
        None => RequestStream::new(stream_workload, opts.seed)
            .take(opts.num_queries)
            .map(|request| TimedRequest { request, arrival: 0.0 })
            .collect(),
    };

    let mut pool: Vec<Active> = Vec::new();
    let mut admission = Admission::default();
    let mut t = 0.0f64;
    let mut latencies = Vec::with_capacity(opts.num_queries);
    let mut sojourns = Vec::new();
    let mut completion_times = Vec::with_capacity(opts.num_queries);
    let mut enc_stage_times = Vec::new();
    let mut dec_stage_times = Vec::new();
    let mut tokens: u64 = 0;
    let mut trace = opts.record_trace.then(Trace::new);

    while latencies.len() < opts.num_queries {
        // ---- Encoding phase: dynamic admission (§5.2) -------------------
        // Only queries that have arrived are admissible (prefix: the queue
        // is arrival-sorted).
        let arrived =
            admission.admit(&mut pending, t, &adjuster, pool.len(), scheduled_b_d, &mut kv);
        if admission.admitted.is_empty() && pool.is_empty() {
            if pending.is_empty() {
                break;
            }
            if arrived == 0 {
                // Idle: nothing has arrived yet; advance to the next arrival.
                t = pending[0].arrival;
                continue;
            }
            return Err(RunError::Stalled {
                why: format!(
                    "query {} ({} input tokens) cannot fit in the kv cache",
                    pending[0].request.id, pending[0].request.input_len
                ),
            });
        }

        if !admission.admitted.is_empty() {
            let enc = exec.encode_timing(admission.admitted_lens())?;
            enc_stage_times.push(enc.bottleneck.as_secs());
            let t_start = t;
            t += enc.total.as_secs();
            if let Some(tr) = trace.as_mut() {
                tr.record("workers", SpanKind::Encode, t_start, t, admission.admitted.len());
            }
            for tr in admission.admitted.drain(..) {
                pool.push(Active {
                    req: tr.request,
                    progress: 0,
                    t_encoded: t_start,
                    arrival: tr.arrival,
                });
            }
        }

        // ---- Decoding phase: N_D iterations with early termination ------
        let m_d = exec.decode_parallelism(pool.len());
        let dec_phase_start = t;
        let dec_phase_batch = pool.len();
        for u in 0..cfg.n_d {
            if pool.is_empty() {
                break;
            }
            let active = pool.len() as f64;
            let ctx: f64 =
                pool.iter().map(|a| (a.req.input_len + a.progress) as f64).sum::<f64>() / active;
            let dec = exec.decode_timing(m_d, pool.len(), ctx, u == 0)?;
            dec_stage_times.push(dec.bottleneck.as_secs());
            t += dec.total.as_secs();
            tokens += pool.len() as u64;

            // Advance and early-terminate (with cache compaction). During
            // an RRA decode iteration the resident set is exactly the pool,
            // so KV growth is one bulk arena scan instead of a tree lookup
            // per query.
            kv.grow_all(1);
            let mut i = 0;
            while i < pool.len() {
                pool[i].progress += 1;
                if pool[i].progress >= pool[i].req.output_len {
                    let done = pool.swap_remove(i);
                    kv.release(done.req.id);
                    latencies.push(t - done.t_encoded);
                    if opts.arrival_rate.is_some() {
                        sojourns.push(t - done.arrival);
                    }
                    completion_times.push(t);
                } else {
                    i += 1;
                }
            }
        }
        if let Some(tr) = trace.as_mut() {
            tr.record("workers", SpanKind::Decode, dec_phase_start, t, dec_phase_batch);
        }
    }

    let (throughput, makespan) = windowed_throughput(&completion_times, opts.warmup_frac);
    Ok(RunReport {
        completed: latencies.len(),
        tokens_generated: tokens,
        makespan: Secs::new(makespan),
        throughput,
        latencies,
        encoder_stage_times: enc_stage_times,
        decoder_stage_times: dec_stage_times,
        peak_kv_bytes: kv.peak_bytes(),
        param_bytes: exec.param_bytes(),
        trace,
        sojourn_times: sojourns,
    })
}
