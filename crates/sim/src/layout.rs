//! Pipeline layout: mapping GPUs to stages under partial tensor parallelism.

use exegpt_dist::convert::{lossless_f64, trunc_usize, widen_u64};
use serde::{Deserialize, Serialize};

use crate::config::TpConfig;
use crate::error::SimError;

/// One pipeline stage: a single GPU or a fused tensor-parallel group.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    /// Tensor-parallel degree inside the stage (1 for a single GPU).
    pub tp: usize,
    /// First GPU id (within the pipeline's GPU range) of this stage.
    pub first_gpu: usize,
    /// Number of GPUs in the stage (= `tp`).
    pub gpus: usize,
    /// Relative processing speed of the stage (single GPU = 1.0).
    pub speed: f64,
}

/// The pipeline structure induced by a GPU count and a partial-TP setting
/// (paper Figure 4d): `tp.gpus / tp.degree` fused stages followed by
/// `n_gpus − tp.gpus` single-GPU stages.
///
/// Layers are allocated to stages proportionally to measured stage speed so
/// that stage times balance; [`PipelineLayout::allocate_layers`] performs
/// the integer split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineLayout {
    stages: Vec<Stage>,
    gpus_per_node: usize,
}

impl PipelineLayout {
    /// Builds the stage structure for `n_gpus` GPUs under `tp`.
    ///
    /// `tp_speedup` is the measured relative speed of a fused stage versus a
    /// single GPU (i.e. `t_layer(tp=1) / t_layer(tp=degree)` at the
    /// schedule's operating point); it sizes the layer allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `n_gpus == 0`, the TP group
    /// size does not divide `tp.gpus`, or `tp.gpus > n_gpus`.
    pub fn build(
        n_gpus: usize,
        tp: TpConfig,
        tp_speedup: f64,
        gpus_per_node: usize,
    ) -> Result<Self, SimError> {
        if n_gpus == 0 {
            return Err(SimError::InvalidConfig {
                what: "n_gpus",
                why: "pipeline needs at least one gpu".to_string(),
            });
        }
        let mut stages = Vec::new();
        let mut next_gpu = 0usize;
        if !tp.is_none() {
            if !tp.gpus.is_multiple_of(tp.degree) {
                return Err(SimError::InvalidConfig {
                    what: "tp",
                    why: format!("{} gpus is not a multiple of degree {}", tp.gpus, tp.degree),
                });
            }
            if tp.gpus > n_gpus {
                return Err(SimError::InvalidConfig {
                    what: "tp",
                    why: format!("tp covers {} gpus but the pipeline has {n_gpus}", tp.gpus),
                });
            }
            #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must be rejected too
            if !(tp_speedup > 0.0) {
                return Err(SimError::InvalidConfig {
                    what: "tp_speedup",
                    why: "must be positive".to_string(),
                });
            }
            for _ in 0..tp.gpus / tp.degree {
                stages.push(Stage {
                    tp: tp.degree,
                    first_gpu: next_gpu,
                    gpus: tp.degree,
                    speed: tp_speedup,
                });
                next_gpu += tp.degree;
            }
        }
        while next_gpu < n_gpus {
            stages.push(Stage { tp: 1, first_gpu: next_gpu, gpus: 1, speed: 1.0 });
            next_gpu += 1;
        }
        Ok(Self { stages, gpus_per_node: gpus_per_node.max(1) })
    }

    /// Number of pipeline stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total GPUs across all stages.
    pub fn total_gpus(&self) -> usize {
        self.stages.iter().map(|s| s.gpus).sum()
    }

    /// The stages in pipeline order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Whether the handoff between stage `i` and `i + 1` stays inside one
    /// node (GPU ids are assigned contiguously from the pipeline's base).
    pub fn boundary_intra_node(&self, i: usize) -> bool {
        if i + 1 >= self.stages.len() {
            return true;
        }
        let a = self.stages[i].first_gpu + self.stages[i].gpus - 1;
        let b = self.stages[i + 1].first_gpu;
        a / self.gpus_per_node == b / self.gpus_per_node
    }

    /// KV-cache bytes per cached token on the bottleneck GPU: the maximum
    /// over stages of `kv_bytes_per_layer · layers[i] / tp`, where
    /// `layers[i]` is stage `i`'s layer count. Exact integer arithmetic;
    /// when a stage's TP degree does not divide its bytes the quotient
    /// rounds up (a rank never holds less than its share).
    pub fn bottleneck_kv_bytes_per_token(&self, layers: &[usize], kv_bytes_per_layer: u64) -> u64 {
        layers
            .iter()
            .zip(&self.stages)
            .map(|(&l, s)| (kv_bytes_per_layer * widen_u64(l)).div_ceil(widen_u64(s.tp)))
            .max()
            .unwrap_or(0)
    }

    /// Splits `total_layers` across stages proportionally to stage speed
    /// (largest-remainder rounding, every stage at least one layer).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if there are fewer layers than
    /// stages.
    pub fn allocate_layers(&self, total_layers: usize) -> Result<Vec<usize>, SimError> {
        let n = self.stages.len();
        if total_layers < n {
            return Err(SimError::InvalidConfig {
                what: "layers",
                why: format!("{total_layers} layers cannot fill {n} stages"),
            });
        }
        let speed_sum: f64 = self.stages.iter().map(|s| s.speed).sum();
        // Give every stage one layer up front, split the rest by speed.
        let spare = total_layers - n;
        let ideal: Vec<f64> =
            self.stages.iter().map(|s| lossless_f64(spare) * s.speed / speed_sum).collect();
        let mut counts: Vec<usize> = ideal.iter().map(|&x| trunc_usize(x)).collect();
        let mut assigned: usize = counts.iter().sum();
        // Largest remainders get the leftover layers.
        let mut rema: Vec<(usize, f64)> =
            ideal.iter().enumerate().map(|(i, &x)| (i, x - x.floor())).collect();
        rema.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut k = 0;
        while assigned < spare {
            counts[rema[k % n].0] += 1;
            assigned += 1;
            k += 1;
        }
        for c in &mut counts {
            *c += 1;
        }
        Ok(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_tp_is_one_stage_per_gpu() {
        let l = PipelineLayout::build(4, TpConfig::none(), 1.0, 8).expect("valid");
        assert_eq!(l.num_stages(), 4);
        assert!(l.stages().iter().all(|s| s.tp == 1 && s.gpus == 1));
        assert_eq!(l.total_gpus(), 4);
    }

    #[test]
    fn partial_tp_reduces_stage_count() {
        // 8 GPUs, TP=2 on 4 of them: 2 fused stages + 4 singles = 6 stages.
        let l = PipelineLayout::build(8, TpConfig { degree: 2, gpus: 4 }, 1.8, 8).expect("valid");
        assert_eq!(l.num_stages(), 6);
        assert_eq!(l.total_gpus(), 8);
        assert_eq!(l.stages()[0].tp, 2);
        assert_eq!(l.stages()[2].tp, 1);
    }

    #[test]
    fn full_tp_is_single_stage() {
        let l = PipelineLayout::build(4, TpConfig::full(4, 4), 3.2, 8).expect("valid");
        assert_eq!(l.num_stages(), 1);
    }

    #[test]
    fn rejects_bad_tp() {
        assert!(PipelineLayout::build(0, TpConfig::none(), 1.0, 8).is_err());
        assert!(PipelineLayout::build(8, TpConfig { degree: 2, gpus: 3 }, 1.5, 8).is_err());
        assert!(PipelineLayout::build(4, TpConfig { degree: 2, gpus: 8 }, 1.5, 8).is_err());
        assert!(PipelineLayout::build(4, TpConfig { degree: 2, gpus: 2 }, 0.0, 8).is_err());
    }

    #[test]
    fn layer_allocation_is_exact_and_positive() {
        let l = PipelineLayout::build(8, TpConfig { degree: 4, gpus: 4 }, 3.0, 8).expect("valid");
        // 1 fused stage (speed 3) + 4 singles = 5 stages.
        let alloc = l.allocate_layers(40).expect("enough layers");
        assert_eq!(alloc.iter().sum::<usize>(), 40);
        assert!(alloc.iter().all(|&c| c >= 1));
        // The fused stage gets roughly 3x the layers of a single stage.
        assert!(alloc[0] > 2 * alloc[1]);
    }

    #[test]
    fn too_few_layers_is_an_error() {
        let l = PipelineLayout::build(8, TpConfig::none(), 1.0, 8).expect("valid");
        assert!(l.allocate_layers(7).is_err());
        assert!(l.allocate_layers(8).is_ok());
    }

    #[test]
    fn boundary_node_detection() {
        let l = PipelineLayout::build(16, TpConfig::none(), 1.0, 8).expect("valid");
        assert!(l.boundary_intra_node(0));
        assert!(l.boundary_intra_node(6));
        assert!(!l.boundary_intra_node(7), "gpu7 -> gpu8 crosses nodes");
        assert!(l.boundary_intra_node(15), "past the end counts as intra");
    }

    /// The f64 formula the runner and baselines priced KV with before the
    /// integer one: `kv · max(l / tp)`.
    fn f64_bytes_per_token(l: &PipelineLayout, layers: &[usize], kv: u64) -> f64 {
        let worst = layers
            .iter()
            .zip(l.stages())
            .map(|(&n, s)| n as f64 / s.tp as f64)
            .fold(0.0f64, f64::max);
        kv as f64 * worst
    }

    #[test]
    fn bottleneck_kv_bytes_match_the_f64_formula_when_tp_divides() {
        // Per-layer KV sizes of OPT-13B (2·5120·2) and GPT-3 39B (2·8192·2),
        // both divisible by every TP degree below.
        for kv in [20_480u64, 32_768] {
            for (gpus, tp, speedup) in [
                (4, TpConfig::none(), 1.0),
                (4, TpConfig::full(4, 4), 3.2),
                (8, TpConfig { degree: 2, gpus: 4 }, 1.8),
                (8, TpConfig { degree: 4, gpus: 4 }, 3.0),
                (16, TpConfig { degree: 8, gpus: 16 }, 6.0),
            ] {
                let l = PipelineLayout::build(gpus, tp, speedup, 8).expect("valid");
                for total in [40, 41, 48, 96] {
                    let layers = l.allocate_layers(total).expect("fits");
                    let exact = l.bottleneck_kv_bytes_per_token(&layers, kv);
                    assert_eq!(exact as f64, f64_bytes_per_token(&l, &layers, kv));
                }
            }
        }
    }

    #[test]
    fn bottleneck_kv_bytes_round_up_when_tp_does_not_divide() {
        // One TP-3 stage holding 1 layer of 10 bytes: 10/3 rounds up to 4.
        let l = PipelineLayout::build(3, TpConfig::full(3, 3), 2.5, 8).expect("valid");
        assert_eq!(l.bottleneck_kv_bytes_per_token(&[1], 10), 4);
        assert_eq!(l.bottleneck_kv_bytes_per_token(&[3], 10), 10, "exact when it divides");
        // A TP-2 stage beside single-GPU stages: the max is over stages.
        let l = PipelineLayout::build(3, TpConfig { degree: 2, gpus: 2 }, 1.8, 8).expect("valid");
        assert_eq!(l.bottleneck_kv_bytes_per_token(&[3, 1], 5), 8, "ceil(15/2) beats 5");
        assert_eq!(l.bottleneck_kv_bytes_per_token(&[1, 3], 5), 15);
    }

    #[test]
    fn even_split_when_speeds_equal() {
        let l = PipelineLayout::build(4, TpConfig::none(), 1.0, 8).expect("valid");
        assert_eq!(l.allocate_layers(40).expect("fits"), vec![10, 10, 10, 10]);
        let alloc = l.allocate_layers(42).expect("fits");
        assert_eq!(alloc.iter().sum::<usize>(), 42);
        assert!(alloc.iter().all(|&c| c == 10 || c == 11));
    }
}
