//! Discrete-event replay of a WAA schedule.
//!
//! The encode and decode groups run as coupled pipelines; the replay steps
//! in *rounds*, one decoding iteration of the pool per round, with one
//! encoder hand-over (batch + KV transfer via CPU staging) joining the pool
//! at each round boundary.

use exegpt_sim::{ScheduleConfig, Simulator, WaaConfig};
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
    cfg: &WaaConfig,
    opts: &RunOptions,
) -> Result<RunReport, RunError> {
    let exec = PhaseExecutor::new(sim, &ScheduleConfig::Waa(*cfg))?;
    let scheduled_b_d = exec.scheduled_decode_batch();
    let w = sim.workload();
    let mut kv = exec.kv_tracker();

    let adjuster = exec.adjuster(opts.adjust_threshold);

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
        // ---- Encoder side of this round ---------------------------------
        // Only queries that have arrived are admissible (prefix: the queue
        // is arrival-sorted).
        let arrived =
            admission.admit(&mut pending, t, &adjuster, pool.len(), scheduled_b_d, &mut kv);
        if admission.admitted.is_empty() && pool.is_empty() {
            if pending.is_empty() {
                break;
            }
            if arrived == 0 {
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

        let (p_enc, enc_tokens) = if admission.admitted.is_empty() {
            (0.0, 0.0)
        } else {
            let enc = exec.encode_timing(admission.admitted_lens())?;
            enc_stage_times.push(enc.bottleneck.as_secs());
            (enc.bottleneck.as_secs(), enc.tokens)
        };

        // ---- Decoder side of this round ----------------------------------
        let p_dec = if pool.is_empty() {
            0.0
        } else {
            let active = pool.len() as f64;
            let ctx: f64 =
                pool.iter().map(|a| (a.req.input_len + a.progress) as f64).sum::<f64>() / active;
            let b_m = exec.decode_parallelism(pool.len());
            let dec = exec.decode_timing(b_m, pool.len(), ctx, false)?;
            dec_stage_times.push(dec.bottleneck.as_secs());
            dec.total.as_secs()
        };

        // ---- Round boundary: handover + advance ---------------------------
        let t_kv = exec.handover_time(enc_tokens).as_secs();
        let round = p_enc.max(p_dec).max(t_kv);
        let t_start = t;
        t += round;
        if let Some(tr) = trace.as_mut() {
            let n_enc = admission.admitted.len();
            tr.record("encoders", SpanKind::Encode, t_start, t_start + p_enc, n_enc);
            tr.record("decoders", SpanKind::Decode, t_start, t_start + p_dec, pool.len());
            tr.record("handover", SpanKind::KvTransfer, t_start, t_start + t_kv, n_enc);
        }
        if !pool.is_empty() {
            tokens += pool.len() as u64;
            let mut i = 0;
            while i < pool.len() {
                pool[i].progress += 1;
                kv.grow_or_clamp(pool[i].req.id, 1);
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
        for tr in admission.admitted.drain(..) {
            pool.push(Active {
                req: tr.request,
                progress: 0,
                t_encoded: t_start,
                arrival: tr.arrival,
            });
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
