//! Serving configuration.

use dlrm_adaptive::CodecProfile;
use dlrm_comm::{NetworkConfig, Topology};
use dlrm_compress::CompressorKind;
use dlrm_grad::GradCodecKind;
use dlrm_trainer::ExecutorSetting;

/// How cross-rank embedding fetches travel.
#[derive(Debug, Clone, PartialEq)]
pub enum FetchSetting {
    /// Raw `f32` rows on the wire (the no-compression baseline).
    Raw,
    /// Rows encoded with a `dlrm-grad` codec. The codec must decode
    /// **pointwise** — each value's round-trip independent of its stream
    /// neighbours — so a cached row equals a freshly fetched one bitwise;
    /// [`ServeConfig::validate`] rejects codecs that couple neighbours
    /// (top-k, the Lorenzo-predicting SZ-like backend).
    Compressed {
        /// The fetch codec.
        codec: GradCodecKind,
    },
}

impl FetchSetting {
    /// Compressed fetch with the paper's hybrid compressor at `eb`.
    pub fn hybrid(eb: f32) -> Self {
        Self::Compressed {
            codec: GradCodecKind::ErrorBounded {
                compressor: CompressorKind::OursHybrid,
                error_bound: eb,
            },
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> String {
        match self {
            Self::Raw => "raw".to_string(),
            Self::Compressed { codec } => codec.label(),
        }
    }

    /// The codec kind the wire actually runs. `Raw` — and any error-bounded
    /// setting at `eb == 0` (lossless by definition, and the pointwise
    /// quantizer rejects a zero bound) — resolve to the identity codec, which
    /// is what makes "compressed fetch at eb=0 ≡ raw fetch" hold bitwise.
    pub fn resolved_kind(&self) -> GradCodecKind {
        match self {
            Self::Raw => GradCodecKind::Identity,
            Self::Compressed { codec } => match codec {
                GradCodecKind::ErrorBounded { error_bound, .. } if *error_bound == 0.0 => {
                    GradCodecKind::Identity
                }
                GradCodecKind::Lattice { error_bound } if *error_bound == 0.0 => {
                    GradCodecKind::Identity
                }
                other => other.clone(),
            },
        }
    }
}

/// Closed-loop codec adaptation for the fetch path (the PR 5 controller
/// re-pointed at serving traffic).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeAdaptive {
    /// Batch windows per controller observation window.
    pub window: usize,
    /// Relative Equation-2 advantage required before a table switches codec.
    pub hysteresis: f64,
    /// Candidate compressors probed on live fetch payloads each window.
    pub candidates: Vec<CompressorKind>,
}

impl ServeAdaptive {
    /// Controller every `window` batch windows with default candidates.
    pub fn new(window: usize, hysteresis: f64) -> Self {
        Self {
            window,
            hysteresis,
            candidates: vec![
                CompressorKind::Fp16,
                CompressorKind::FzLike,
                CompressorKind::OursHybrid,
            ],
        }
    }

    /// Replace the candidate set (builder-style).
    pub fn with_candidates(mut self, candidates: Vec<CompressorKind>) -> Self {
        self.candidates = candidates;
        self
    }
}

/// Full description of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Ranks the executor spawns.
    pub world: usize,
    /// Frontend/partition ranks (`None` = every rank). Extra ranks beyond
    /// the partition own no tables and serve no traffic, so every modeled
    /// number in the report is a pure function of the partition — that is
    /// what the cross-world determinism test pins.
    pub frontends: Option<usize>,
    /// Total inference requests to serve.
    pub requests: usize,
    /// Requests coalesced into one batch window (globally, across
    /// frontends).
    pub window: usize,
    /// Batch windows excluded from the steady-state allocation ledger while
    /// pools and scratch warm up.
    pub warmup_windows: usize,
    /// Per-frontend hot-row cache capacity in rows (`0` disables caching).
    pub cache_rows: usize,
    /// Cross-rank fetch transport.
    pub fetch: FetchSetting,
    /// The modeled network.
    pub network: NetworkConfig,
    /// Optional node-aware topology; pair charges then ride the tiered cost
    /// model instead of the flat α–β model.
    pub topology: Option<Topology>,
    /// Sequential (deterministic-clock) or threaded (real wall) execution.
    pub executor: ExecutorSetting,
    /// Pace the executor's wire with modeled time (meaningful wall QPS).
    pub realtime_wire: bool,
    /// Optional per-window codec re-selection.
    pub adaptive: Option<ServeAdaptive>,
    /// Deterministic codec throughputs used for modeled codec charges.
    pub profile: CodecProfile,
    /// Modeled request arrival rate (requests/second) driving queueing
    /// latency.
    pub arrival_qps: f64,
    /// Modeled host gather bandwidth (bytes/s) for local lookups, cache
    /// copies and row stores.
    pub host_gather_bandwidth: f64,
    /// Modeled MLP throughput (flops/s).
    pub mlp_flops: f64,
    /// Seed of the model weights (stands in for "the trained state" when no
    /// checkpoint is restored).
    pub model_seed: u64,
    /// Seed of the request stream.
    pub seed: u64,
}

impl ServeConfig {
    /// Small deterministic baseline used by tests: 4 ranks, compressed
    /// hybrid fetches, caching on, sequential executor.
    pub fn small_test() -> Self {
        Self {
            world: 4,
            frontends: None,
            requests: 2048,
            window: 64,
            warmup_windows: 4,
            cache_rows: 256,
            fetch: FetchSetting::hybrid(0.05),
            network: NetworkConfig::paper_figure11(),
            topology: None,
            executor: ExecutorSetting::Sequential,
            realtime_wire: false,
            adaptive: None,
            profile: CodecProfile::paper_reference(),
            arrival_qps: 50_000.0,
            host_gather_bandwidth: 24e9,
            mlp_flops: 5e12,
            model_seed: 20_240_614,
            seed: 777,
        }
    }

    /// Frontend count after defaulting.
    pub fn frontend_count(&self) -> usize {
        self.frontends.unwrap_or(self.world)
    }

    /// Number of batch windows the run executes.
    pub fn num_windows(&self) -> usize {
        self.requests.div_ceil(self.window)
    }

    /// Check the configuration for contradictions.
    pub fn validate(&self) -> Result<(), String> {
        if self.world == 0 {
            return Err("world must be positive".into());
        }
        let frontends = self.frontend_count();
        if frontends == 0 || frontends > self.world {
            return Err(format!(
                "frontends must be in 1..=world ({} of {})",
                frontends, self.world
            ));
        }
        if self.requests == 0 || self.window == 0 {
            return Err("requests and window must be positive".into());
        }
        if !(self.arrival_qps.is_finite() && self.arrival_qps > 0.0) {
            return Err(format!(
                "arrival_qps must be positive: {}",
                self.arrival_qps
            ));
        }
        if !(self.host_gather_bandwidth > 0.0 && self.mlp_flops > 0.0) {
            return Err("host_gather_bandwidth and mlp_flops must be positive".into());
        }
        if let Some(topo) = &self.topology {
            if topo.world() != self.world {
                return Err(format!(
                    "topology world {} != executor world {}",
                    topo.world(),
                    self.world
                ));
            }
        }
        if let FetchSetting::Compressed { codec } = &self.fetch {
            match codec {
                GradCodecKind::TopK { .. } => {
                    return Err(
                        "top-k fetch codec: a row's decode depends on the rest of the stream, \
                         which breaks the cache-transparency invariant"
                            .into(),
                    );
                }
                GradCodecKind::ErrorBounded {
                    compressor: CompressorKind::SzLike,
                    ..
                } => {
                    return Err(
                        "SZ-like fetch codec: Lorenzo prediction couples neighbouring rows, \
                         which breaks the cache-transparency invariant"
                            .into(),
                    );
                }
                GradCodecKind::ErrorBounded { error_bound, .. }
                | GradCodecKind::Lattice { error_bound }
                    if !error_bound.is_finite() || *error_bound < 0.0 =>
                {
                    return Err(format!("fetch error bound must be >= 0: {error_bound}"));
                }
                _ => {}
            }
        }
        if let Some(adaptive) = &self.adaptive {
            if adaptive.window == 0 {
                return Err("adaptive window must be positive".into());
            }
            if !(adaptive.hysteresis.is_finite() && adaptive.hysteresis >= 0.0) {
                return Err(format!(
                    "adaptive hysteresis must be >= 0: {}",
                    adaptive.hysteresis
                ));
            }
            if adaptive.candidates.is_empty() {
                return Err("adaptive candidates must not be empty".into());
            }
            if adaptive.candidates.contains(&CompressorKind::SzLike) {
                return Err("adaptive candidates must not include SZ-like (see fetch rule)".into());
            }
            match &self.fetch {
                FetchSetting::Compressed {
                    codec: GradCodecKind::ErrorBounded { error_bound, .. },
                } if *error_bound > 0.0 => {}
                _ => {
                    return Err(
                        "adaptive serving requires an error-bounded compressed fetch \
                         (the controller switches compressors per table)"
                            .into(),
                    );
                }
            }
        }
        Ok(())
    }
}
