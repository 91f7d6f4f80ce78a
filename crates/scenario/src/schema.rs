//! The declarative scenario schema.
//!
//! A [`Scenario`] is a complete, self-contained description of a run:
//! model, cluster (or per-pool clusters for a fleet), workload
//! distributions, scheduler constraints, arrival process, SLO targets,
//! fault schedule, and the seed. Every type derives `Serialize` and
//! `Deserialize`: the `#[serde(...)]` attributes are the file format
//! (`kind`-tagged tables, defaults, flattened `t_secs`/`t_frac` and mode
//! sections, unknown keys rejected), and every decode error names the
//! offending key path. [`Scenario::validate`] then enforces the semantic
//! rules (positive rates, non-empty GPU pools, time-ordered and
//! non-overlapping fault windows, resolvable cross-references) before
//! lowering is attempted.
//!
//! Serialization is canonical: every concrete field is emitted, optional
//! fields only when present, so `decode(to_value(s)) == s` exactly — the
//! identity the round-trip property suite pins for both TOML and JSON.

use serde::{Deserialize, Serialize, Value};

use crate::error::ScenarioError;

/// Known model presets, in `ModelConfig` constructor order.
pub const MODEL_PRESETS: &[&str] =
    &["t5-11b", "ul2-20b", "opt-13b", "gpt3-39b", "gpt3-101b", "gpt3-175b", "gpt3-341b"];

/// Known cluster presets.
pub const CLUSTER_PRESETS: &[&str] = &["a40", "a100"];

/// Known workload tasks (Table 3 of the paper).
pub const TASKS: &[&str] = &[
    "summarization",
    "translation",
    "code_generation",
    "conversational_qa1",
    "conversational_qa2",
];

/// Known scheduler policies.
pub const POLICIES: &[&str] = &["rra", "waa_compute", "waa_memory"];

/// Known fleet dispatch policies.
pub const DISPATCH_POLICIES: &[&str] =
    &["round_robin", "least_outstanding", "kv_headroom", "slo_aware"];

/// Builds a [`ScenarioError::Validate`] at `path`.
fn validate_err(path: &str, why: impl Into<String>) -> ScenarioError {
    ScenarioError::Validate { path: path.to_string(), why: why.into() }
}

/// Joins a parent path and a key into `parent.key` (or `key` at the root).
fn join(parent: &str, key: &str) -> String {
    if parent.is_empty() {
        key.to_string()
    } else {
        format!("{parent}.{key}")
    }
}

/// Joins a parent path and an index into `parent[i]`.
fn join_index(parent: &str, index: usize) -> String {
    format!("{parent}[{index}]")
}

fn default_true() -> bool {
    true
}

fn default_capacity_of() -> String {
    "base".to_string()
}

fn require_finite(x: f64, path: &str, what: &str) -> Result<(), ScenarioError> {
    if x.is_finite() {
        Ok(())
    } else {
        Err(validate_err(path, format!("{what} must be finite, got {x}")))
    }
}

fn require_pos(x: f64, path: &str, what: &str) -> Result<(), ScenarioError> {
    require_finite(x, path, what)?;
    if x > 0.0 {
        Ok(())
    } else {
        Err(validate_err(path, format!("{what} must be positive, got {x}")))
    }
}

// --- scenario root -------------------------------------------------------

/// A complete declarative run description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Scenario {
    /// Scenario name (reports, logs).
    pub name: String,
    /// Seed for every stochastic choice in the run.
    #[serde(default)]
    pub seed: u64,
    /// The model.
    pub model: ModelSpec,
    /// The cluster (required for serve/replay; fleets declare per-pool
    /// clusters instead).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub cluster: Option<ClusterConfig>,
    /// Input/output length distributions.
    pub workload: WorkloadConfig,
    /// Scheduler constraints and tolerances.
    pub scheduler: SchedulerConfig,
    /// What to run: exactly one of serve, fleet, or replay.
    #[serde(flatten)]
    pub mode: Mode,
}

/// The execution mode, written as exactly one top-level `[serve]`,
/// `[fleet]` or `[replay]` section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Mode {
    /// A single-replica online serving run.
    Serve(ServeConfig),
    /// A multi-replica fleet run.
    Fleet(FleetConfig),
    /// An offline replay through the runner.
    Replay(ReplayConfig),
}

impl Scenario {
    /// Decodes a scenario from a parsed value tree.
    ///
    /// # Errors
    ///
    /// Returns a parse error naming the offending key path.
    pub fn decode(v: &Value) -> Result<Self, ScenarioError> {
        Scenario::from_value(v).map_err(|e| ScenarioError::Parse { path: e.path, why: e.message })
    }

    /// Checks every semantic rule the schema cannot express.
    ///
    /// # Errors
    ///
    /// Returns a validation error naming the offending key path.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(validate_err("name", "must not be empty"));
        }
        self.model.validate("model")?;
        if let Some(c) = &self.cluster {
            c.validate("cluster")?;
        }
        self.workload.validate("workload")?;
        self.scheduler.validate("scheduler")?;
        match &self.mode {
            Mode::Serve(c) => {
                if self.cluster.is_none() {
                    return Err(validate_err("cluster", "serve mode requires a cluster"));
                }
                c.validate("serve")
            }
            Mode::Fleet(c) => {
                if self.cluster.is_some() {
                    return Err(validate_err(
                        "cluster",
                        "fleet mode declares clusters per pool; remove the top-level cluster",
                    ));
                }
                c.validate("fleet")
            }
            Mode::Replay(c) => {
                if self.cluster.is_none() {
                    return Err(validate_err("cluster", "replay mode requires a cluster"));
                }
                c.validate("replay")
            }
        }
    }
}

// --- model / cluster -----------------------------------------------------

/// The model to deploy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ModelSpec {
    /// One of [`MODEL_PRESETS`].
    pub preset: String,
}

impl ModelSpec {
    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        if MODEL_PRESETS.contains(&self.preset.as_str()) {
            Ok(())
        } else {
            Err(validate_err(
                &join(path, "preset"),
                format!(
                    "unknown model preset `{}`; expected one of {}",
                    self.preset,
                    MODEL_PRESETS.join(", ")
                ),
            ))
        }
    }
}

/// A GPU pool: a preset cluster, optionally narrowed to its first `gpus`
/// devices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ClusterConfig {
    /// One of [`CLUSTER_PRESETS`] (`a40` = 6×8 A40, `a100` = 2×8 A100).
    pub preset: String,
    /// Take the first `gpus` devices (omit for the full cluster).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub gpus: Option<usize>,
}

impl ClusterConfig {
    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        if !CLUSTER_PRESETS.contains(&self.preset.as_str()) {
            return Err(validate_err(
                &join(path, "preset"),
                format!(
                    "unknown cluster preset `{}`; expected one of {}",
                    self.preset,
                    CLUSTER_PRESETS.join(", ")
                ),
            ));
        }
        if self.gpus == Some(0) {
            return Err(validate_err(&join(path, "gpus"), "empty GPU pool: need at least 1"));
        }
        Ok(())
    }
}

// --- workload ------------------------------------------------------------

/// Input/output length distributions: a named paper task (optionally
/// rescaled) or fully custom distributions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case", deny_unknown_fields)]
pub enum WorkloadConfig {
    /// A Table 3 task, with optional output-mean/std rescaling (drift
    /// studies).
    Task {
        /// One of [`TASKS`].
        task: String,
        /// Scale the output mean by this factor.
        #[serde(skip_serializing_if = "Option::is_none")]
        scale_mean: Option<f64>,
        /// Scale the output std by this factor.
        #[serde(skip_serializing_if = "Option::is_none")]
        scale_std: Option<f64>,
    },
    /// Explicit distributions for both sides.
    Custom {
        /// Input (prompt) length distribution.
        input: LengthDistConfig,
        /// Output (generation) length distribution.
        output: LengthDistConfig,
    },
}

impl WorkloadConfig {
    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        match self {
            WorkloadConfig::Task { task, scale_mean, scale_std } => {
                if !TASKS.contains(&task.as_str()) {
                    return Err(validate_err(
                        &join(path, "task"),
                        format!("unknown task `{task}`; expected one of {}", TASKS.join(", ")),
                    ));
                }
                if let Some(k) = scale_mean {
                    require_pos(*k, &join(path, "scale_mean"), "scale factor")?;
                }
                if let Some(k) = scale_std {
                    require_pos(*k, &join(path, "scale_std"), "scale factor")?;
                }
                Ok(())
            }
            WorkloadConfig::Custom { input, output } => {
                input.validate(&join(path, "input"))?;
                output.validate(&join(path, "output"))
            }
        }
    }
}

/// A token-length distribution, mirroring `exegpt_dist::LengthDist`
/// constructors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case", deny_unknown_fields)]
pub enum LengthDistConfig {
    /// Normal truncated to `[1, max_len]`.
    TruncatedNormal {
        /// Mean length (tokens).
        mean: f64,
        /// Standard deviation (tokens).
        std: f64,
        /// Hard length cap.
        max_len: usize,
    },
    /// Skew-normal truncated to `[1, max_len]`.
    SkewNormal {
        /// Location-scale mean (tokens).
        mean: f64,
        /// Scale (tokens).
        std: f64,
        /// Skewness parameter.
        skewness: f64,
        /// Hard length cap.
        max_len: usize,
    },
    /// Log-normal truncated to `[1, max_len]`.
    LogNormal {
        /// Mean length (tokens).
        mean: f64,
        /// Standard deviation (tokens).
        std: f64,
        /// Hard length cap.
        max_len: usize,
    },
    /// Every request has exactly `len` tokens.
    PointMass {
        /// The fixed length.
        len: usize,
        /// Hard length cap (support upper bound).
        max_len: usize,
    },
}

impl LengthDistConfig {
    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        let check_cap = |max_len: usize| {
            if max_len == 0 {
                Err(validate_err(&join(path, "max_len"), "must be at least 1"))
            } else {
                Ok(())
            }
        };
        match self {
            LengthDistConfig::TruncatedNormal { mean, std, max_len }
            | LengthDistConfig::LogNormal { mean, std, max_len } => {
                require_pos(*mean, &join(path, "mean"), "mean length")?;
                require_pos(*std, &join(path, "std"), "standard deviation")?;
                check_cap(*max_len)
            }
            LengthDistConfig::SkewNormal { mean, std, skewness, max_len } => {
                require_pos(*mean, &join(path, "mean"), "mean length")?;
                require_pos(*std, &join(path, "std"), "standard deviation")?;
                require_finite(*skewness, &join(path, "skewness"), "skewness")?;
                check_cap(*max_len)
            }
            LengthDistConfig::PointMass { len, max_len } => {
                check_cap(*max_len)?;
                if *len == 0 {
                    return Err(validate_err(&join(path, "len"), "must be at least 1"));
                }
                if len > max_len {
                    return Err(validate_err(
                        &join(path, "len"),
                        format!("exceeds max_len ({len} > {max_len})"),
                    ));
                }
                Ok(())
            }
        }
    }
}

// --- scheduler -----------------------------------------------------------

/// Scheduler constraints and search tolerances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SchedulerConfig {
    /// Latency bound in seconds (`inf` = unconstrained).
    pub latency_bound_secs: f64,
    /// Latency tolerance ε_L as a fraction of the bound (default 0.05).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub eps_latency_frac: Option<f64>,
    /// Throughput tolerance ε_T (default 0.02).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub eps_throughput_frac: Option<f64>,
    /// Policies to search, a subset of [`POLICIES`] (default all).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub policies: Option<Vec<String>>,
}

impl SchedulerConfig {
    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        let bound_path = join(path, "latency_bound_secs");
        if self.latency_bound_secs.is_nan() || self.latency_bound_secs <= 0.0 {
            return Err(validate_err(
                &bound_path,
                format!("must be positive (inf allowed), got {}", self.latency_bound_secs),
            ));
        }
        for (key, frac) in [
            ("eps_latency_frac", self.eps_latency_frac),
            ("eps_throughput_frac", self.eps_throughput_frac),
        ] {
            if let Some(x) = frac {
                let p = join(path, key);
                require_finite(x, &p, "tolerance")?;
                if !(0.0..1.0).contains(&x) {
                    return Err(validate_err(&p, format!("must be in [0, 1), got {x}")));
                }
            }
        }
        if let Some(policies) = &self.policies {
            let p = join(path, "policies");
            if policies.is_empty() {
                return Err(validate_err(&p, "must name at least one policy"));
            }
            for (i, name) in policies.iter().enumerate() {
                if !POLICIES.contains(&name.as_str()) {
                    return Err(validate_err(
                        &join_index(&p, i),
                        format!("unknown policy `{name}`; expected one of {}", POLICIES.join(", ")),
                    ));
                }
                if policies[..i].contains(name) {
                    return Err(validate_err(
                        &join_index(&p, i),
                        format!("policy `{name}` listed twice"),
                    ));
                }
            }
        }
        Ok(())
    }
}

// --- shared specs --------------------------------------------------------

/// An offered-load specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case", deny_unknown_fields)]
pub enum RateSpec {
    /// An absolute rate in queries per second.
    Qps {
        /// Queries per second.
        qps: f64,
    },
    /// A fraction of the scheduled plan's estimated throughput (serve
    /// mode). `of = "shifted"` evaluates the plan under the post-shift
    /// workload (only meaningful with `poisson_with_shift` arrivals).
    CapacityFrac {
        /// Fraction of the plan's capacity (0, 1].
        frac: f64,
        /// `base` or `shifted`.
        #[serde(default = "default_capacity_of")]
        of: String,
    },
    /// A fraction of a pool's plan throughput (fleet mode). `pool` is
    /// `fastest`, `slowest`, or a pool name.
    PoolCapacityFrac {
        /// Fraction of the pool's capacity.
        frac: f64,
        /// `fastest`, `slowest`, or a declared pool name.
        pool: String,
    },
}

impl RateSpec {
    /// Mode-independent value checks; mode-specific variant restrictions
    /// live with the mode validators.
    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        match self {
            RateSpec::Qps { qps } => require_pos(*qps, &join(path, "qps"), "arrival rate"),
            RateSpec::CapacityFrac { frac, of } => {
                require_pos(*frac, &join(path, "frac"), "capacity fraction")?;
                if of != "base" && of != "shifted" {
                    return Err(validate_err(
                        &join(path, "of"),
                        format!("must be `base` or `shifted`, got `{of}`"),
                    ));
                }
                Ok(())
            }
            RateSpec::PoolCapacityFrac { frac, .. } => {
                require_pos(*frac, &join(path, "frac"), "capacity fraction")
            }
        }
    }
}

/// A point on the run's virtual clock: absolute seconds, or a fraction of
/// the trace horizon (last arrival time; fractions above 1 land in the
/// backlog drain after the last arrival).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TimeSpec {
    /// Absolute virtual seconds.
    #[serde(rename = "t_secs")]
    Secs(f64),
    /// Fraction of the trace horizon (≥ 0).
    #[serde(rename = "t_frac")]
    HorizonFrac(f64),
}

impl TimeSpec {
    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        match self {
            TimeSpec::Secs(s) => {
                let p = join(path, "t_secs");
                require_finite(*s, &p, "time")?;
                if *s < 0.0 {
                    return Err(validate_err(&p, format!("must be >= 0, got {s}")));
                }
                Ok(())
            }
            TimeSpec::HorizonFrac(f) => {
                let p = join(path, "t_frac");
                require_finite(*f, &p, "horizon fraction")?;
                if *f < 0.0 {
                    return Err(validate_err(&p, format!("must be >= 0, got {f}")));
                }
                Ok(())
            }
        }
    }
}

// --- serve mode ----------------------------------------------------------

/// A single-replica online serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ServeConfig {
    /// Requests in the arrival stream.
    pub total: usize,
    /// Live drift-triggered rescheduling on (`false` = static plan).
    #[serde(default = "default_true")]
    pub adaptive: bool,
    /// §5.2 dynamic-adjustment threshold (default 0.15).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub adjust_threshold: Option<f64>,
    /// Warm-started incremental replanning (default true).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub incremental_replan: Option<bool>,
    /// The arrival process.
    pub arrivals: ArrivalsConfig,
    /// Per-request latency targets.
    pub slo: SloConfig,
    /// Drift-detector tuning (defaults when omitted).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub drift: Option<DriftConfig>,
    /// Fault injection (off when omitted).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub faults: Option<FaultsConfig>,
}

impl ServeConfig {
    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        if self.total == 0 {
            return Err(validate_err(&join(path, "total"), "must be at least 1"));
        }
        if let Some(x) = self.adjust_threshold {
            require_pos(x, &join(path, "adjust_threshold"), "threshold")?;
        }
        self.arrivals.validate(&join(path, "arrivals"))?;
        self.slo.validate(&join(path, "slo"))?;
        if let Some(d) = &self.drift {
            d.validate(&join(path, "drift"))?;
        }
        if let Some(f) = &self.faults {
            f.validate(&join(path, "faults"))?;
        }
        Ok(())
    }
}

/// The serve-mode arrival process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case", deny_unknown_fields)]
pub enum ArrivalsConfig {
    /// Stationary Poisson arrivals.
    Poisson {
        /// Offered load.
        rate: RateSpec,
    },
    /// Two-phase Markov-modulated Poisson arrivals.
    Bursty {
        /// Offered load in the burst phase.
        rate_burst: RateSpec,
        /// Offered load in the lull phase.
        rate_lull: RateSpec,
        /// Mean burst dwell (virtual seconds).
        dwell_burst_secs: f64,
        /// Mean lull dwell (virtual seconds).
        dwell_lull_secs: f64,
    },
    /// Poisson arrivals whose output distribution shifts mid-stream (the
    /// Figure 11 drift scenario).
    PoissonWithShift {
        /// Offered load (held across the shift).
        rate: RateSpec,
        /// Fraction of the stream served before the shift.
        shift_after_frac: f64,
        /// Output-mean scale factor after the shift.
        scale_mean: f64,
        /// Output-std scale factor after the shift.
        #[serde(skip_serializing_if = "Option::is_none")]
        scale_std: Option<f64>,
    },
}

impl ArrivalsConfig {
    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        let no_pool = |rate: &RateSpec, rate_path: &str| -> Result<(), ScenarioError> {
            if matches!(rate, RateSpec::PoolCapacityFrac { .. }) {
                return Err(validate_err(
                    &join(rate_path, "kind"),
                    "pool_capacity_frac rates are fleet-only; use qps or capacity_frac",
                ));
            }
            Ok(())
        };
        let no_shifted = |rate: &RateSpec, rate_path: &str| -> Result<(), ScenarioError> {
            if matches!(rate, RateSpec::CapacityFrac { of, .. } if of == "shifted") {
                return Err(validate_err(
                    &join(rate_path, "of"),
                    "`shifted` needs poisson_with_shift arrivals (nothing shifts here)",
                ));
            }
            Ok(())
        };
        match self {
            ArrivalsConfig::Poisson { rate } => {
                let p = join(path, "rate");
                rate.validate(&p)?;
                no_pool(rate, &p)?;
                no_shifted(rate, &p)
            }
            ArrivalsConfig::Bursty { rate_burst, rate_lull, dwell_burst_secs, dwell_lull_secs } => {
                for (key, rate) in [("rate_burst", rate_burst), ("rate_lull", rate_lull)] {
                    let p = join(path, key);
                    rate.validate(&p)?;
                    no_pool(rate, &p)?;
                    no_shifted(rate, &p)?;
                }
                require_pos(*dwell_burst_secs, &join(path, "dwell_burst_secs"), "dwell")?;
                require_pos(*dwell_lull_secs, &join(path, "dwell_lull_secs"), "dwell")
            }
            ArrivalsConfig::PoissonWithShift { rate, shift_after_frac, scale_mean, scale_std } => {
                let p = join(path, "rate");
                rate.validate(&p)?;
                no_pool(rate, &p)?;
                let sp = join(path, "shift_after_frac");
                require_finite(*shift_after_frac, &sp, "shift point")?;
                if !(0.0..=1.0).contains(shift_after_frac) {
                    return Err(validate_err(
                        &sp,
                        format!("must be in [0, 1], got {shift_after_frac}"),
                    ));
                }
                require_pos(*scale_mean, &join(path, "scale_mean"), "scale factor")?;
                if let Some(k) = scale_std {
                    require_pos(*k, &join(path, "scale_std"), "scale factor")?;
                }
                Ok(())
            }
        }
    }
}

/// Per-request latency targets (omitted = unconstrained).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SloConfig {
    /// Max time to first token (seconds).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub ttft_secs: Option<f64>,
    /// Max per-generated-token latency (seconds).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub per_token_secs: Option<f64>,
    /// Max end-to-end latency (seconds).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub e2e_secs: Option<f64>,
}

impl SloConfig {
    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        for (key, v) in [
            ("ttft_secs", self.ttft_secs),
            ("per_token_secs", self.per_token_secs),
            ("e2e_secs", self.e2e_secs),
        ] {
            if let Some(x) = v {
                require_pos(x, &join(path, key), "SLO target")?;
            }
        }
        Ok(())
    }
}

/// Drift-detector tuning (mirrors `exegpt_serve::DriftOptions`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DriftConfig {
    /// Sliding-window capacity in completed requests.
    pub window: usize,
    /// Minimum window occupancy before checks fire.
    pub min_samples: usize,
    /// Completions between checks.
    pub check_every: usize,
    /// Relative mean shift that counts as a hit.
    pub rel_threshold: f64,
    /// Consecutive hits to declare drift.
    pub consecutive: usize,
}

impl DriftConfig {
    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        for (key, n) in [
            ("window", self.window),
            ("min_samples", self.min_samples),
            ("check_every", self.check_every),
            ("consecutive", self.consecutive),
        ] {
            if n == 0 {
                return Err(validate_err(&join(path, key), "must be at least 1"));
            }
        }
        if self.min_samples > self.window {
            return Err(validate_err(
                &join(path, "min_samples"),
                format!("exceeds window ({} > {})", self.min_samples, self.window),
            ));
        }
        require_pos(self.rel_threshold, &join(path, "rel_threshold"), "threshold")
    }
}

/// Fault injection: tuning plus a schedule of device events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultsConfig {
    /// Heartbeat timeout before a failure is detected (default 0.5).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub detection_delay_secs: Option<f64>,
    /// Straggler slowdown at or above which eviction beats tolerance
    /// (default 2.0).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub evict_slowdown: Option<f64>,
    /// Retry budget per request (default 5).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub max_retries: Option<usize>,
    /// Exponential retry backoff base (default 0.25).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub backoff_base_secs: Option<f64>,
    /// Observed/expected ratio counting as a straggler hit (default 1.25).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub straggler_rel_threshold: Option<f64>,
    /// Consecutive hits to confirm a straggler (default 3).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub straggler_consecutive: Option<usize>,
    /// The device events, in activation-time order.
    pub events: Vec<FaultEventConfig>,
}

impl FaultsConfig {
    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        if let Some(x) = self.detection_delay_secs {
            let p = join(path, "detection_delay_secs");
            require_finite(x, &p, "delay")?;
            if x < 0.0 {
                return Err(validate_err(&p, format!("must be >= 0, got {x}")));
            }
        }
        if let Some(x) = self.evict_slowdown {
            let p = join(path, "evict_slowdown");
            require_finite(x, &p, "slowdown")?;
            if x < 1.0 {
                return Err(validate_err(&p, format!("must be >= 1, got {x}")));
            }
        }
        if let Some(x) = self.backoff_base_secs {
            let p = join(path, "backoff_base_secs");
            require_finite(x, &p, "backoff")?;
            if x < 0.0 {
                return Err(validate_err(&p, format!("must be >= 0, got {x}")));
            }
        }
        if let Some(x) = self.straggler_rel_threshold {
            let p = join(path, "straggler_rel_threshold");
            require_finite(x, &p, "threshold")?;
            if x <= 1.0 {
                return Err(validate_err(&p, format!("must be > 1, got {x}")));
            }
        }
        if self.straggler_consecutive == Some(0) {
            return Err(validate_err(&join(path, "straggler_consecutive"), "must be at least 1"));
        }
        let events_path = join(path, "events");
        for (i, e) in self.events.iter().enumerate() {
            e.validate(&join_index(&events_path, i))?;
        }
        let windows = self.events.iter().map(|e| {
            let window = match &e.kind {
                FaultKindConfig::GpuFail { gpu } | FaultKindConfig::GpuSlowdown { gpu, .. } => {
                    Window::Open(format!("gpu {gpu}"))
                }
                FaultKindConfig::GpuRecover { gpu } => Window::Close(format!("gpu {gpu}")),
                FaultKindConfig::LinkDegrade { .. } => Window::Neither,
            };
            (&e.at, window)
        });
        validate_windows(windows, &events_path, "gpu_recover")
    }
}

/// What one fault event does to its device's fault window.
enum Window {
    /// Opens a window on the named device (`gpu_fail`, `gpu_slowdown`,
    /// fleet `fail`).
    Open(String),
    /// Closes the named device's window (`gpu_recover`, fleet `recover`).
    Close(String),
    /// Touches no window (`link_degrade`).
    Neither,
}

/// Walks a fault list (`serve.faults.events` or `fleet.faults`) in listed
/// order. Each event must not precede the latest earlier event with the
/// same kind of time — `t_secs` and `t_frac` are not comparable before the
/// horizon is known — and windows must not overlap: no `Open` on a device
/// whose window is open, no `Close` without one. `recover` names the
/// closing action in messages.
fn validate_windows<'a>(
    events: impl Iterator<Item = (&'a TimeSpec, Window)>,
    path: &str,
    recover: &str,
) -> Result<(), ScenarioError> {
    let mut open: Vec<String> = Vec::new();
    let (mut last_secs, mut last_frac) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for (i, (at, window)) in events.enumerate() {
        let p = join_index(path, i);
        let (last, t) = match at {
            TimeSpec::Secs(t) => (&mut last_secs, *t),
            TimeSpec::HorizonFrac(t) => (&mut last_frac, *t),
        };
        if t < *last {
            return Err(validate_err(&p, "events must be listed in time order"));
        }
        *last = t;
        match window {
            Window::Open(device) if open.contains(&device) => {
                return Err(validate_err(
                    &p,
                    format!(
                        "overlapping fault windows on {device}: \
                         previous fault has no {recover} before this one"
                    ),
                ));
            }
            Window::Open(device) => open.push(device),
            Window::Close(device) => match open.iter().position(|d| *d == device) {
                Some(at) => {
                    open.remove(at);
                }
                None => {
                    return Err(validate_err(
                        &p,
                        format!("{recover} for {device} with no open fault window"),
                    ))
                }
            },
            Window::Neither => {}
        }
    }
    Ok(())
}

/// One scheduled device event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultEventConfig {
    /// When the fault activates.
    #[serde(flatten)]
    pub at: TimeSpec,
    /// What happens.
    #[serde(flatten)]
    pub kind: FaultKindConfig,
}

/// The device-event alternatives (mirrors `exegpt_faults::FaultKind`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum FaultKindConfig {
    /// The device dies until recovered.
    GpuFail {
        /// Dense device index.
        gpu: usize,
    },
    /// The device runs `factor`× slower.
    GpuSlowdown {
        /// Dense device index.
        gpu: usize,
        /// Slowdown factor (≥ 1).
        factor: f64,
    },
    /// Cluster-wide link degradation.
    LinkDegrade {
        /// Bandwidth scale in (0, 1].
        bw_factor: f64,
        /// Added per-transfer latency (seconds, ≥ 0).
        latency_add_secs: f64,
    },
    /// The device heals.
    GpuRecover {
        /// Dense device index.
        gpu: usize,
    },
}

impl FaultEventConfig {
    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        self.at.validate(path)?;
        match &self.kind {
            FaultKindConfig::GpuFail { .. } | FaultKindConfig::GpuRecover { .. } => Ok(()),
            FaultKindConfig::GpuSlowdown { factor, .. } => {
                let p = join(path, "factor");
                require_finite(*factor, &p, "slowdown factor")?;
                if *factor < 1.0 {
                    return Err(validate_err(&p, format!("must be >= 1, got {factor}")));
                }
                Ok(())
            }
            FaultKindConfig::LinkDegrade { bw_factor, latency_add_secs } => {
                let p = join(path, "bw_factor");
                require_finite(*bw_factor, &p, "bandwidth factor")?;
                if !(*bw_factor > 0.0 && *bw_factor <= 1.0) {
                    return Err(validate_err(&p, format!("must be in (0, 1], got {bw_factor}")));
                }
                let p = join(path, "latency_add_secs");
                require_finite(*latency_add_secs, &p, "added latency")?;
                if *latency_add_secs < 0.0 {
                    return Err(validate_err(&p, format!("must be >= 0, got {latency_add_secs}")));
                }
                Ok(())
            }
        }
    }
}

// --- fleet mode ----------------------------------------------------------

/// A multi-replica fleet run behind a global router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FleetConfig {
    /// Requests in the multi-tenant trace.
    pub total: usize,
    /// One of [`DISPATCH_POLICIES`].
    pub policy: String,
    /// GPU pools replicas deploy onto.
    pub pools: Vec<PoolConfig>,
    /// The replicas.
    pub replicas: Vec<ReplicaConfig>,
    /// SLO classes (tenants reference them by name).
    pub classes: Vec<ClassConfig>,
    /// The tenants.
    pub tenants: Vec<TenantConfig>,
    /// Fleet-level replica faults.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub faults: Vec<FleetFaultConfig>,
    /// Scripted autoscaling actions.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub scale: Vec<ScaleConfig>,
}

impl FleetConfig {
    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        if self.total == 0 {
            return Err(validate_err(&join(path, "total"), "must be at least 1"));
        }
        if !DISPATCH_POLICIES.contains(&self.policy.as_str()) {
            return Err(validate_err(
                &join(path, "policy"),
                format!(
                    "unknown policy `{}`; expected one of {}",
                    self.policy,
                    DISPATCH_POLICIES.join(", ")
                ),
            ));
        }
        let pools_path = join(path, "pools");
        if self.pools.is_empty() {
            return Err(validate_err(&pools_path, "must declare at least one pool"));
        }
        for (i, pool) in self.pools.iter().enumerate() {
            let p = join_index(&pools_path, i);
            pool.validate(&p)?;
            if self.pools[..i].iter().any(|other| other.name == pool.name) {
                return Err(validate_err(
                    &join(&p, "name"),
                    format!("pool `{}` declared twice", pool.name),
                ));
            }
        }
        let replicas_path = join(path, "replicas");
        if self.replicas.is_empty() {
            return Err(validate_err(&replicas_path, "must declare at least one replica"));
        }
        for (i, r) in self.replicas.iter().enumerate() {
            let p = join_index(&replicas_path, i);
            if r.name.is_empty() {
                return Err(validate_err(&join(&p, "name"), "must not be empty"));
            }
            if self.replicas[..i].iter().any(|other| other.name == r.name) {
                return Err(validate_err(
                    &join(&p, "name"),
                    format!("replica `{}` declared twice", r.name),
                ));
            }
            if !self.pools.iter().any(|pool| pool.name == r.pool) {
                return Err(validate_err(&join(&p, "pool"), format!("unknown pool `{}`", r.pool)));
            }
        }
        if self.replicas.iter().all(|r| r.standby) {
            return Err(validate_err(&replicas_path, "every replica is standby"));
        }
        let classes_path = join(path, "classes");
        if self.classes.is_empty() {
            return Err(validate_err(&classes_path, "must declare at least one class"));
        }
        for (i, c) in self.classes.iter().enumerate() {
            let p = join_index(&classes_path, i);
            c.validate(&p)?;
            if self.classes[..i].iter().any(|other| other.name == c.name) {
                return Err(validate_err(
                    &join(&p, "name"),
                    format!("class `{}` declared twice", c.name),
                ));
            }
        }
        let tenants_path = join(path, "tenants");
        if self.tenants.is_empty() {
            return Err(validate_err(&tenants_path, "must declare at least one tenant"));
        }
        for (i, t) in self.tenants.iter().enumerate() {
            let p = join_index(&tenants_path, i);
            t.validate(&p, &self.pools)?;
            if self.tenants[..i].iter().any(|other| other.tenant == t.tenant) {
                return Err(validate_err(
                    &join(&p, "tenant"),
                    format!("tenant id {} declared twice", t.tenant),
                ));
            }
            if !self.classes.iter().any(|c| c.name == t.class) {
                return Err(validate_err(
                    &join(&p, "class"),
                    format!("unknown class `{}`", t.class),
                ));
            }
        }
        let faults_path = join(path, "faults");
        for (i, f) in self.faults.iter().enumerate() {
            let p = join_index(&faults_path, i);
            f.at.validate(&p)?;
            if !self.replicas.iter().any(|r| r.name == f.replica) {
                return Err(validate_err(
                    &join(&p, "replica"),
                    format!("unknown replica `{}`", f.replica),
                ));
            }
            if f.action != "fail" && f.action != "recover" {
                return Err(validate_err(
                    &join(&p, "action"),
                    format!("must be `fail` or `recover`, got `{}`", f.action),
                ));
            }
        }
        let windows = self.faults.iter().map(|f| {
            let replica = format!("replica `{}`", f.replica);
            let window =
                if f.action == "fail" { Window::Open(replica) } else { Window::Close(replica) };
            (&f.at, window)
        });
        validate_windows(windows, &faults_path, "recover")?;
        let scale_path = join(path, "scale");
        for (i, s) in self.scale.iter().enumerate() {
            let p = join_index(&scale_path, i);
            s.at.validate(&p)?;
            if !self.replicas.iter().any(|r| r.name == s.replica) {
                return Err(validate_err(
                    &join(&p, "replica"),
                    format!("unknown replica `{}`", s.replica),
                ));
            }
            if s.action != "up" && s.action != "down" {
                return Err(validate_err(
                    &join(&p, "action"),
                    format!("must be `up` or `down`, got `{}`", s.action),
                ));
            }
        }
        Ok(())
    }
}

/// A GPU pool a fleet deploys replicas onto.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PoolConfig {
    /// Pool name (replicas reference it).
    pub name: String,
    /// The pool's cluster.
    pub cluster: ClusterConfig,
    /// Latency bound for this pool's schedule (default: the scenario's
    /// scheduler bound).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub latency_bound_secs: Option<f64>,
}

impl PoolConfig {
    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(validate_err(&join(path, "name"), "must not be empty"));
        }
        self.cluster.validate(&join(path, "cluster"))?;
        if let Some(b) = self.latency_bound_secs {
            if b.is_nan() || b <= 0.0 {
                return Err(validate_err(
                    &join(path, "latency_bound_secs"),
                    format!("must be positive (inf allowed), got {b}"),
                ));
            }
        }
        Ok(())
    }
}

/// One fleet replica.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ReplicaConfig {
    /// Replica name (faults and scale events reference it).
    pub name: String,
    /// The pool it deploys onto.
    pub pool: String,
    /// Start as a standby (not routable until scaled up).
    #[serde(default)]
    pub standby: bool,
}

/// An SLO class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ClassConfig {
    /// Class name (tenants reference it).
    pub name: String,
    /// Weight in the fleet's weighted violation rate.
    pub weight: f64,
    /// End-to-end target (omit for best-effort).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub e2e: Option<E2eSpec>,
}

impl ClassConfig {
    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(validate_err(&join(path, "name"), "must not be empty"));
        }
        let p = join(path, "weight");
        require_finite(self.weight, &p, "weight")?;
        if self.weight < 0.0 {
            return Err(validate_err(&p, format!("must be >= 0, got {}", self.weight)));
        }
        if let Some(e2e) = &self.e2e {
            e2e.validate(&join(path, "e2e"))?;
        }
        Ok(())
    }
}

/// An end-to-end SLO target: a concrete bound, or the midpoint of the
/// fleet's plan latencies (the bound that separates fast pools from slow
/// ones, whatever the profile says).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case", deny_unknown_fields)]
pub enum E2eSpec {
    /// A concrete bound in seconds.
    Secs {
        /// The bound.
        secs: f64,
    },
    /// Halfway between the fastest and slowest pool's plan latency.
    PlanLatencyMidpoint,
}

impl E2eSpec {
    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        match self {
            E2eSpec::Secs { secs } => require_pos(*secs, &join(path, "secs"), "SLO target"),
            E2eSpec::PlanLatencyMidpoint => Ok(()),
        }
    }
}

/// One tenant's traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TenantConfig {
    /// Tenant id (unique).
    pub tenant: u32,
    /// SLO class, by name.
    pub class: String,
    /// The tenant's arrival process.
    pub arrivals: TenantArrivals,
}

/// A tenant's arrival process (fleet traces have no mid-stream shift).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case", deny_unknown_fields)]
pub enum TenantArrivals {
    /// Stationary Poisson arrivals.
    Poisson {
        /// Offered load.
        rate: RateSpec,
    },
    /// Two-phase bursty arrivals.
    Bursty {
        /// Offered load in the burst phase.
        rate_burst: RateSpec,
        /// Offered load in the lull phase.
        rate_lull: RateSpec,
        /// Mean burst dwell (virtual seconds).
        dwell_burst_secs: f64,
        /// Mean lull dwell (virtual seconds).
        dwell_lull_secs: f64,
    },
}

impl TenantConfig {
    fn validate(&self, path: &str, pools: &[PoolConfig]) -> Result<(), ScenarioError> {
        self.arrivals.validate(&join(path, "arrivals"), pools)
    }
}

impl TenantArrivals {
    fn validate(&self, path: &str, pools: &[PoolConfig]) -> Result<(), ScenarioError> {
        let check_rate = |rate: &RateSpec, rate_path: &str| -> Result<(), ScenarioError> {
            rate.validate(rate_path)?;
            match rate {
                RateSpec::CapacityFrac { .. } => Err(validate_err(
                    &join(rate_path, "kind"),
                    "capacity_frac rates are serve-only; use qps or pool_capacity_frac",
                )),
                RateSpec::PoolCapacityFrac { pool, .. } => {
                    if pool == "fastest"
                        || pool == "slowest"
                        || pools.iter().any(|p| p.name == *pool)
                    {
                        Ok(())
                    } else {
                        Err(validate_err(
                            &join(rate_path, "pool"),
                            format!("unknown pool `{pool}` (and not `fastest`/`slowest`)"),
                        ))
                    }
                }
                RateSpec::Qps { .. } => Ok(()),
            }
        };
        match self {
            TenantArrivals::Poisson { rate } => check_rate(rate, &join(path, "rate")),
            TenantArrivals::Bursty { rate_burst, rate_lull, dwell_burst_secs, dwell_lull_secs } => {
                check_rate(rate_burst, &join(path, "rate_burst"))?;
                check_rate(rate_lull, &join(path, "rate_lull"))?;
                require_pos(*dwell_burst_secs, &join(path, "dwell_burst_secs"), "dwell")?;
                require_pos(*dwell_lull_secs, &join(path, "dwell_lull_secs"), "dwell")
            }
        }
    }
}

/// A fleet-level replica fault: the whole replica is lost (or redeployed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FleetFaultConfig {
    /// When it happens.
    #[serde(flatten)]
    pub at: TimeSpec,
    /// `fail` or `recover`.
    pub action: String,
    /// The replica, by name.
    pub replica: String,
}

/// A scripted autoscaling action.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScaleConfig {
    /// When it happens.
    #[serde(flatten)]
    pub at: TimeSpec,
    /// `up` or `down`.
    pub action: String,
    /// The replica, by name.
    pub replica: String,
}

// --- replay mode ---------------------------------------------------------

/// An offline replay through the runner: schedule once, then play
/// `num_queries` sampled requests (optionally drifted) against the plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ReplayConfig {
    /// Queries to replay.
    pub num_queries: usize,
    /// Scale the replayed traffic's output mean (drift studies).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub scale_mean: Option<f64>,
    /// Scale the replayed traffic's output std.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub scale_std: Option<f64>,
}

impl ReplayConfig {
    fn validate(&self, path: &str) -> Result<(), ScenarioError> {
        if self.num_queries == 0 {
            return Err(validate_err(&join(path, "num_queries"), "must be at least 1"));
        }
        if let Some(k) = self.scale_mean {
            require_pos(k, &join(path, "scale_mean"), "scale factor")?;
        }
        if let Some(k) = self.scale_std {
            require_pos(k, &join(path, "scale_std"), "scale factor")?;
        }
        Ok(())
    }
}
