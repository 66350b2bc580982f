//! Closed-loop **runtime adaptive controller**: Equation-2 selection re-run
//! *during* training from live measurements.
//!
//! The offline analysis ([`crate::analysis`]) picks one codec and one
//! error-bound class per table before iteration 0 and never looks back; the
//! [`crate::decay`] schedule is a fixed function of the iteration counter.
//! Nothing reacts to what training actually observes — yet the conditions
//! Equation 2 depends on all move at runtime: the wire bandwidth drifts
//! (congestion, co-tenants, degraded links), traffic skew shifts the
//! per-table compression ratios, and the loss curve tells you how much
//! error the optimizer currently tolerates.
//!
//! A [`RuntimeController`] closes the loop. Once per *window* of iterations
//! it ingests a [`WindowObservation`] — measured per-table compression
//! ratios, fresh candidate-codec ratios probed on live payloads, the
//! effective wire bandwidth derived from the communication ledger, and the
//! window's mean loss — and emits a [`Reselection`]: per-table codec
//! revisions (Equation-2 selection at the *observed* bandwidth, guarded by
//! hysteresis so selection doesn't thrash) and an error-bound scale driven
//! by the loss-plateau signal.
//!
//! The controller is **deterministic**: its decisions are pure functions of
//! the observations and its configuration (codec throughputs come from a
//! fixed [`CodecProfile`], optionally calibrated by the *measured*
//! throughput of the codecs currently running — which is itself
//! deterministic whenever codec time is charged analytically). Every rank of
//! an SPMD trainer can therefore run an identical controller on identical
//! gathered observations and arrive at identical revisions, which is what
//! keeps a mid-run codec switch consistent between the rank that compresses
//! a table and the ranks that decompress it. The gathered inputs have one
//! format for training and serving alike: each rank encodes a
//! [`WindowShare`], every rank decodes all of them (a total decoder with a
//! typed [`ShareError`]) and [`WindowShare::fold`]s them into the
//! observation.
//!
//! ```
//! use dlrm_adaptive::controller::{
//!     ControllerConfig, RuntimeController, TableObservation, WindowObservation,
//! };
//! use dlrm_compress::CompressorKind;
//!
//! // One table, two candidate codecs, starting on the cheap fp16 cast.
//! let config = ControllerConfig::new(4, 0.1)
//!     .with_candidates(vec![CompressorKind::Fp16, CompressorKind::OursHybrid]);
//! let mut ctl = RuntimeController::new(config, vec![CompressorKind::Fp16]);
//!
//! let observe = |bandwidth: f64, iteration: usize| WindowObservation {
//!     iteration,
//!     effective_bandwidth: bandwidth,
//!     mean_loss: 0.5,
//!     measured_compress_throughput: 0.0, // no calibration
//!     tables: vec![TableObservation {
//!         table_id: 0,
//!         original_bytes: 1 << 20,
//!         compressed_bytes: 1 << 19,
//!         candidate_ratios: vec![2.0, 12.0], // fp16 vs hybrid on a fresh sample
//!     }],
//! };
//!
//! // On a 60 GB/s link the hybrid codec cannot pay for itself: no switch.
//! let fast = ctl.observe(&observe(60e9, 4));
//! assert!(fast.switches.is_empty());
//!
//! // The fabric drifts down to 2 GB/s: Equation 2 now favours the heavy
//! // codec by far more than the hysteresis margin — one reselection step.
//! let slow = ctl.observe(&observe(2e9, 8));
//! assert_eq!(slow.switches.len(), 1);
//! assert_eq!(slow.switches[0].to, CompressorKind::OursHybrid);
//! assert_eq!(ctl.current(0), CompressorKind::OursHybrid);
//! assert_eq!(ctl.log().len(), 2);
//! ```

use crate::speedup::{estimate_speedup, Dataflow, SpeedupInputs};
use dlrm_compress::{CompressScratch, Compressor, CompressorKind};

/// Reference `(compress, decompress)` throughputs per codec, in bytes/s —
/// the deterministic stand-in for "measured codec throughput" that keeps
/// controller decisions reproducible and identical across ranks.
///
/// The defaults ([`CodecProfile::paper_reference`]) are GPU-scale figures
/// anchored on the paper's measurements (the hybrid's 40.5 / 205.4 GB/s);
/// the surrounding entries follow the relative ordering of Figure 11. A
/// [`WindowObservation`] may carry the live measured throughput of the
/// currently-running codecs, which the controller uses to *calibrate* the
/// whole profile (scale it so the profile agrees with what was measured).
#[derive(Debug, Clone, PartialEq)]
pub struct CodecProfile {
    entries: Vec<(CompressorKind, (f64, f64))>,
}

impl CodecProfile {
    /// GPU-scale reference throughputs anchored on the paper's hybrid
    /// measurements.
    pub fn paper_reference() -> Self {
        Self {
            entries: vec![
                (CompressorKind::OursHybrid, (40.5e9, 205.4e9)),
                (CompressorKind::OursVector, (45.0e9, 210.0e9)),
                (CompressorKind::OursHuffman, (38.0e9, 200.0e9)),
                (CompressorKind::SzLike, (60.0e9, 120.0e9)),
                (CompressorKind::FzLike, (136.0e9, 136.0e9)),
                (CompressorKind::Lz4Like, (20.0e9, 80.0e9)),
                (CompressorKind::DeflateLike, (10.0e9, 40.0e9)),
                (CompressorKind::Fp16, (300.0e9, 300.0e9)),
                (CompressorKind::Fp8, (300.0e9, 300.0e9)),
            ],
        }
    }

    /// Every codec at the same `(compress, decompress)` throughput — useful
    /// when selection should rank on ratio alone.
    pub fn uniform(compress: f64, decompress: f64) -> Self {
        assert!(
            compress > 0.0 && decompress > 0.0,
            "throughputs must be positive"
        );
        Self {
            entries: CompressorKind::all()
                .iter()
                .map(|&k| (k, (compress, decompress)))
                .collect(),
        }
    }

    /// Override one codec's throughputs (builder-style).
    pub fn with(mut self, kind: CompressorKind, compress: f64, decompress: f64) -> Self {
        assert!(
            compress > 0.0 && decompress > 0.0,
            "throughputs must be positive"
        );
        match self.entries.iter_mut().find(|(k, _)| *k == kind) {
            Some(e) => e.1 = (compress, decompress),
            None => self.entries.push((kind, (compress, decompress))),
        }
        self
    }

    /// `(compress, decompress)` throughput of `kind`; falls back to the
    /// hybrid's paper figures for a codec without an entry.
    pub fn throughput(&self, kind: CompressorKind) -> (f64, f64) {
        self.entries
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, t)| *t)
            .unwrap_or((40.5e9, 205.4e9))
    }
}

/// Loss-plateau-driven error-bound control: when a window's mean loss stops
/// improving, the controller assumes training entered a phase where
/// compression error has become the binding constraint and *tightens* the
/// error bound (scales every table's bound down); when the loss resumes
/// improving it relaxes the scale back toward 1. The scale multiplies the
/// decay schedule's bound, so iteration-wise decay and runtime control
/// compose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlateauEbControl {
    /// Relative per-window loss improvement below which the window counts as
    /// plateaued, e.g. `0.02` = less than 2% improvement.
    pub plateau_threshold: f64,
    /// Multiplier applied to the error-bound scale on a plateau (and divided
    /// back out on recovery). Must be in `(0, 1)`.
    pub tighten_factor: f32,
    /// Floor of the error-bound scale.
    pub min_scale: f32,
}

impl Default for PlateauEbControl {
    fn default() -> Self {
        Self {
            plateau_threshold: 0.02,
            tighten_factor: 0.5,
            min_scale: 0.25,
        }
    }
}

/// Static configuration of a [`RuntimeController`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// Iterations per observation window (one [`WindowObservation`] is
    /// expected per window).
    pub window: usize,
    /// Relative Equation-2 advantage a challenger codec must have over the
    /// incumbent before a table switches (e.g. `0.1` = 10% better). This is
    /// what keeps selection from thrashing when two codecs sit near the
    /// crossover bandwidth.
    pub hysteresis: f64,
    /// Candidate codecs, probed on fresh payloads each window.
    /// [`TableObservation::candidate_ratios`] must follow this order.
    pub candidates: Vec<CompressorKind>,
    /// Reference codec throughputs used by the Equation-2 estimates.
    pub profile: CodecProfile,
    /// Rank codecs with the overlapped Equation-2 variant (codec time that
    /// hides behind the wire is not penalised).
    pub overlapped: bool,
    /// Loss-plateau-driven error-bound control; `None` leaves error bounds
    /// to the decay schedule alone.
    pub eb_control: Option<PlateauEbControl>,
}

impl ControllerConfig {
    /// A controller over the default candidate set (fp16 cast, FZ-like, the
    /// paper's hybrid) with the paper-reference throughput profile.
    pub fn new(window: usize, hysteresis: f64) -> Self {
        Self {
            window,
            hysteresis,
            candidates: vec![
                CompressorKind::Fp16,
                CompressorKind::FzLike,
                CompressorKind::OursHybrid,
            ],
            profile: CodecProfile::paper_reference(),
            overlapped: false,
            eb_control: None,
        }
    }

    /// Builder: replace the candidate set.
    pub fn with_candidates(mut self, candidates: Vec<CompressorKind>) -> Self {
        self.candidates = candidates;
        self
    }

    /// Builder: replace the throughput profile.
    pub fn with_profile(mut self, profile: CodecProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Builder: rank with the overlapped Equation-2 estimate.
    pub fn with_overlap(mut self, overlapped: bool) -> Self {
        self.overlapped = overlapped;
        self
    }

    /// Builder: enable loss-plateau error-bound control.
    pub fn with_eb_control(mut self, eb_control: PlateauEbControl) -> Self {
        self.eb_control = Some(eb_control);
        self
    }

    /// Structural validation.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("controller window must be at least one iteration".into());
        }
        if !(self.hysteresis >= 0.0 && self.hysteresis.is_finite()) {
            return Err("hysteresis must be finite and non-negative".into());
        }
        if self.candidates.is_empty() {
            return Err("controller needs at least one candidate codec".into());
        }
        if let Some(ebc) = &self.eb_control {
            if !(ebc.plateau_threshold >= 0.0 && ebc.plateau_threshold.is_finite()) {
                return Err("plateau threshold must be finite and non-negative".into());
            }
            if !(ebc.tighten_factor > 0.0 && ebc.tighten_factor < 1.0) {
                return Err("tighten factor must be in (0, 1)".into());
            }
            if !(ebc.min_scale > 0.0 && ebc.min_scale <= 1.0) {
                return Err("min scale must be in (0, 1]".into());
            }
        }
        Ok(())
    }
}

/// One table's share of a window observation.
#[derive(Debug, Clone, PartialEq)]
pub struct TableObservation {
    /// Table id.
    pub table_id: usize,
    /// Uncompressed payload bytes this table moved during the window.
    pub original_bytes: u64,
    /// Compressed payload bytes this table moved during the window.
    pub compressed_bytes: u64,
    /// Compression ratio of each configured candidate codec on a fresh
    /// sample of this table's live payload, in
    /// [`ControllerConfig::candidates`] order.
    pub candidate_ratios: Vec<f64>,
}

impl TableObservation {
    /// Measured compression ratio of the currently-running codec over the
    /// window (1.0 when nothing moved).
    pub fn measured_ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            1.0
        } else {
            self.original_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

/// Everything the controller sees about one window of training.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowObservation {
    /// Iteration at which the window ended (the reselection point).
    pub iteration: usize,
    /// Effective wire bandwidth (bytes/s) observed over the window — on a
    /// hierarchical cluster, the bottleneck (inter-node) tier.
    pub effective_bandwidth: f64,
    /// Mean training loss over the window (the loss-plateau signal).
    pub mean_loss: f64,
    /// Measured aggregate compression throughput (bytes/s) of the codecs
    /// that actually ran during the window; `<= 0` disables profile
    /// calibration.
    pub measured_compress_throughput: f64,
    /// Per-table observations, sorted by table id.
    pub tables: Vec<TableObservation>,
}

/// Rows of live payload sampled per owned table to probe the candidate
/// codecs: a bounded sample keeps the probe's cost constant in the batch
/// size (the offline analysis samples too).
pub const PROBE_ROWS: usize = 32;

/// Compression ratio of each candidate codec on `sample` (row-major, `dim`
/// wide) at error bound `eb`, in candidate order — the runtime analogue of
/// Algorithm 2's offline sampling. `out` is the reused output buffer.
///
/// # Panics
/// Panics if a candidate cannot compress `sample` (non-finite values).
pub fn probe_candidates(
    candidates: &[Box<dyn Compressor>],
    sample: &[f32],
    dim: usize,
    eb: f32,
    scratch: &mut CompressScratch,
    out: &mut Vec<u8>,
) -> Vec<f64> {
    candidates
        .iter()
        .map(|codec| {
            out.clear();
            codec
                .compress_into(sample, dim, eb, scratch, out)
                .expect("candidate probe of finite data compresses");
            (sample.len() * 4) as f64 / out.len().max(1) as f64
        })
        .collect()
}

/// One rank's measurements over one controller window. At a window boundary
/// every rank all-gathers its share and [`WindowShare::fold`]s all of them,
/// in rank order, into the [`WindowObservation`] its controller replica
/// decides on — identical inputs on every rank, hence identical decisions.
///
/// Wire format, little-endian 8-byte words: `loss_sum`, `loss_n`,
/// `wire_bytes`, `wire_seconds`, `codec_bytes`, `codec_seconds`, the table
/// count, then per table its id, original and compressed bytes and one ratio
/// per candidate codec.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowShare {
    /// Sum and count of the window's loss signal.
    pub loss_sum: f64,
    pub loss_n: u64,
    /// Bottleneck-tier wire bytes and the β seconds charged for them (their
    /// quotient is the effective bandwidth the controller reselects against).
    pub wire_bytes: f64,
    pub wire_seconds: f64,
    /// Bytes the running codecs compressed and the seconds charged for them
    /// (their quotient calibrates the throughput profile).
    pub codec_bytes: f64,
    pub codec_seconds: f64,
    /// One entry per table this rank owns.
    pub tables: Vec<TableObservation>,
}

/// Bytes that do not decode as a [`WindowShare`].
///
/// `needed > available`: the bytes end before the field (or, after the table
/// count, the tables) that starts at `offset`. `needed == 0`: `available`
/// bytes trail the last table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShareError {
    /// Byte offset where the failed read started.
    pub offset: usize,
    /// Bytes the format requires at `offset`.
    pub needed: usize,
    /// Bytes present from `offset` on.
    pub available: usize,
}

impl std::fmt::Display for ShareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (needed, offset, available) = (self.needed, self.offset, self.available);
        if needed == 0 {
            write!(f, "{available} trailing bytes at offset {offset}")
        } else {
            write!(
                f,
                "need {needed} bytes at offset {offset}, have {available}"
            )
        }
    }
}

impl std::error::Error for ShareError {}

impl WindowShare {
    /// Encoded bytes of the six scalars and the table count.
    const HEADER_BYTES: usize = 7 * 8;

    /// Encoded bytes of a share over `tables` tables and `candidates`
    /// candidate codecs — exact, so a lease of this size never grows.
    pub fn encoded_len(tables: usize, candidates: usize) -> usize {
        Self::HEADER_BYTES + tables * (3 + candidates) * 8
    }

    /// Append the wire encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let header = [
            self.loss_sum.to_bits(),
            self.loss_n,
            self.wire_bytes.to_bits(),
            self.wire_seconds.to_bits(),
            self.codec_bytes.to_bits(),
            self.codec_seconds.to_bits(),
            self.tables.len() as u64,
        ];
        let tables = self.tables.iter().flat_map(|t| {
            [t.table_id as u64, t.original_bytes, t.compressed_bytes]
                .into_iter()
                .chain(t.candidate_ratios.iter().map(|r| r.to_bits()))
        });
        for word in header.into_iter().chain(tables) {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }

    /// Decode a share whose tables carry `candidates` ratios each. Total:
    /// bytes that end early (a truncated header, or fewer tables than the
    /// count announces) or run on past the last table are a [`ShareError`],
    /// never a panic, and nothing is allocated before the length checks out.
    pub fn decode(bytes: &[u8], candidates: usize) -> Result<Self, ShareError> {
        let error = |offset: usize, needed| {
            let available = bytes.len() - offset;
            Err(ShareError {
                offset,
                needed,
                available,
            })
        };
        let (words, _) = bytes.as_chunks::<8>();
        let Some((header, body)) = words.split_first_chunk::<7>() else {
            return error(0, Self::HEADER_BYTES);
        };
        let u = |w: &[u8; 8]| u64::from_le_bytes(*w);
        let f = |w: &[u8; 8]| f64::from_le_bytes(*w);
        let entry = 3 + candidates;
        let (at, available) = (Self::HEADER_BYTES, bytes.len() - Self::HEADER_BYTES);
        let needed = usize::try_from(u(&header[6]))
            .ok()
            .and_then(|count| count.checked_mul(entry * 8))
            .unwrap_or(usize::MAX);
        if needed > available {
            return error(at, needed);
        }
        if needed < available {
            return error(at + needed, 0);
        }
        Ok(WindowShare {
            loss_sum: f(&header[0]),
            loss_n: u(&header[1]),
            wire_bytes: f(&header[2]),
            wire_seconds: f(&header[3]),
            codec_bytes: f(&header[4]),
            codec_seconds: f(&header[5]),
            tables: (body.chunks_exact(entry))
                .map(|t| TableObservation {
                    table_id: u(&t[0]) as usize,
                    original_bytes: u(&t[1]),
                    compressed_bytes: u(&t[2]),
                    candidate_ratios: t[3..].iter().map(f).collect(),
                })
                .collect(),
        })
    }

    /// Fold every rank's share, in rank order, into the window's
    /// observation: scalars summed, tables sorted by id. The effective
    /// bandwidth falls back to `fallback_bandwidth` when the window charged
    /// no wire time, and `mean_loss` turns the summed loss signal
    /// `(sum, count)` into the plateau signal.
    pub fn fold(
        shares: impl IntoIterator<Item = WindowShare>,
        iteration: usize,
        fallback_bandwidth: f64,
        mean_loss: impl FnOnce(f64, u64) -> f64,
    ) -> WindowObservation {
        let mut sum = WindowShare::default();
        for share in shares {
            sum.loss_sum += share.loss_sum;
            sum.loss_n += share.loss_n;
            sum.wire_bytes += share.wire_bytes;
            sum.wire_seconds += share.wire_seconds;
            sum.codec_bytes += share.codec_bytes;
            sum.codec_seconds += share.codec_seconds;
            sum.tables.extend(share.tables);
        }
        sum.tables.sort_by_key(|t| t.table_id);
        let rate = |bytes: f64, seconds: f64| (seconds > 0.0).then(|| bytes / seconds);
        WindowObservation {
            iteration,
            effective_bandwidth: rate(sum.wire_bytes, sum.wire_seconds)
                .unwrap_or(fallback_bandwidth),
            mean_loss: mean_loss(sum.loss_sum, sum.loss_n),
            measured_compress_throughput: rate(sum.codec_bytes, sum.codec_seconds).unwrap_or(0.0),
            tables: sum.tables,
        }
    }
}

/// One table's codec switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableRevision {
    /// Table id.
    pub table_id: usize,
    /// Codec the table ran during the window.
    pub from: CompressorKind,
    /// Codec selected for the next window.
    pub to: CompressorKind,
    /// Equation-2 estimate of the selected codec at the observed bandwidth.
    pub estimated_speedup: f64,
    /// Equation-2 estimate of the incumbent at the observed bandwidth.
    pub incumbent_speedup: f64,
}

/// One entry of the controller's reselection log: what it saw and what it
/// decided at one window boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Reselection {
    /// Zero-based reselection counter.
    pub index: usize,
    /// Iteration at which the revisions take effect.
    pub iteration: usize,
    /// Effective wire bandwidth the decision used.
    pub effective_bandwidth: f64,
    /// Mean loss of the window.
    pub mean_loss: f64,
    /// Whether the loss-plateau signal fired (always `false` without
    /// [`ControllerConfig::eb_control`]).
    pub plateaued: bool,
    /// Error-bound scale in effect after this reselection (multiplies every
    /// table's scheduled bound; 1.0 without eb control).
    pub eb_scale: f32,
    /// Tables whose codec changed (empty when selection held steady).
    pub switches: Vec<TableRevision>,
    /// Whether the window ran in degraded mode (a fault-plan straggler was
    /// active), which drops the hysteresis guard — see
    /// [`RuntimeController::observe_degraded`].
    pub degraded: bool,
}

/// The closed-loop controller. See the [module docs](self) for the design
/// and a worked reselection step.
#[derive(Debug, Clone)]
pub struct RuntimeController {
    config: ControllerConfig,
    current: Vec<CompressorKind>,
    eb_scale: f32,
    prev_loss: Option<f64>,
    log: Vec<Reselection>,
}

impl RuntimeController {
    /// A controller over `initial` per-table selections (one entry per
    /// table, the codecs the run starts on).
    ///
    /// # Panics
    /// Panics if the configuration fails [`ControllerConfig::validate`] or
    /// `initial` is empty.
    pub fn new(config: ControllerConfig, initial: Vec<CompressorKind>) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid controller config: {e}");
        }
        assert!(!initial.is_empty(), "controller needs at least one table");
        Self {
            config,
            current: initial,
            eb_scale: 1.0,
            prev_loss: None,
            log: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The codec currently selected for `table`.
    pub fn current(&self, table: usize) -> CompressorKind {
        self.current[table]
    }

    /// The error-bound scale currently in effect (1.0 without eb control).
    pub fn eb_scale(&self) -> f32 {
        self.eb_scale
    }

    /// The full reselection log, in observation order.
    pub fn log(&self) -> &[Reselection] {
        &self.log
    }

    /// Number of tables whose codec ever switched.
    pub fn total_switches(&self) -> usize {
        self.log.iter().map(|r| r.switches.len()).sum()
    }

    /// Equation-2 estimate for one `(ratio, kind)` pair at `bandwidth`,
    /// under this controller's profile, calibration and overlap mode.
    fn speedup(&self, ratio: f64, kind: CompressorKind, bandwidth: f64, calibration: f64) -> f64 {
        let (tc, td) = self.config.profile.throughput(kind);
        estimate_speedup(
            SpeedupInputs {
                ratio: ratio.max(1e-6),
                compress_throughput: tc * calibration,
                decompress_throughput: td * calibration,
                bandwidth: bandwidth.max(1.0),
            },
            Dataflow::AllToAll {
                overlapped: self.config.overlapped,
            },
        )
    }

    /// Profile calibration factor from the window's measured aggregate
    /// compression throughput: the ratio of what was measured to what the
    /// profile predicts for the codecs that actually ran (byte-weighted
    /// harmonic aggregate), clamped to one order of magnitude either way.
    fn calibration(&self, obs: &WindowObservation) -> f64 {
        if obs.measured_compress_throughput <= 0.0 {
            return 1.0;
        }
        let mut bytes = 0.0f64;
        let mut seconds = 0.0f64;
        for t in &obs.tables {
            let (tc, _) = self.config.profile.throughput(self.current[t.table_id]);
            bytes += t.original_bytes as f64;
            seconds += t.original_bytes as f64 / tc;
        }
        if seconds <= 0.0 {
            return 1.0;
        }
        let expected = bytes / seconds;
        (obs.measured_compress_throughput / expected).clamp(0.1, 10.0)
    }

    /// Ingest one window observation and decide: per-table codec revisions
    /// (with hysteresis) and the error-bound scale (with the loss-plateau
    /// signal). Applies the revisions to the
    /// controller's state, appends to the log, and returns the entry.
    ///
    /// Deterministic: the same sequence of observations always produces the
    /// same log.
    ///
    /// # Panics
    /// Panics if a table id is out of range or a candidate-ratio list does
    /// not match the configured candidate count.
    pub fn observe(&mut self, obs: &WindowObservation) -> Reselection {
        self.observe_degraded(obs, false)
    }

    /// [`RuntimeController::observe`] with a degraded-mode flag. While a
    /// fault-plan straggler is slowing the collective, waiting out the
    /// hysteresis band just prolongs the pain — the bandwidth drop is known
    /// to be real (scheduled), not noise. Degraded windows therefore rank
    /// candidates with the hysteresis guard dropped to zero, shifting to
    /// heavier compression the moment Equation 2 favours it; healthy
    /// windows behave exactly as [`RuntimeController::observe`].
    pub fn observe_degraded(&mut self, obs: &WindowObservation, degraded: bool) -> Reselection {
        let hysteresis = if degraded {
            0.0
        } else {
            self.config.hysteresis
        };
        let calibration = self.calibration(obs);
        let bw = obs.effective_bandwidth;
        let mut switches = Vec::new();
        for t in &obs.tables {
            assert!(t.table_id < self.current.len(), "table id out of range");
            assert_eq!(
                t.candidate_ratios.len(),
                self.config.candidates.len(),
                "candidate ratios must match the configured candidates"
            );
            let incumbent = self.current[t.table_id];
            // The incumbent's estimate uses its fresh-sample ratio when it is
            // among the candidates (apples to apples), else the ratio it
            // actually achieved over the window.
            let incumbent_speedup =
                match self.config.candidates.iter().position(|&k| k == incumbent) {
                    Some(i) => self.speedup(t.candidate_ratios[i], incumbent, bw, calibration),
                    None => self.speedup(t.measured_ratio(), incumbent, bw, calibration),
                };
            let best = self
                .config
                .candidates
                .iter()
                .zip(&t.candidate_ratios)
                .map(|(&kind, &ratio)| (kind, self.speedup(ratio, kind, bw, calibration)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("at least one candidate");
            if best.0 != incumbent && best.1 > incumbent_speedup * (1.0 + hysteresis) {
                switches.push(TableRevision {
                    table_id: t.table_id,
                    from: incumbent,
                    to: best.0,
                    estimated_speedup: best.1,
                    incumbent_speedup,
                });
                self.current[t.table_id] = best.0;
            }
        }

        // Loss-plateau error-bound control.
        let mut plateaued = false;
        if let Some(ebc) = self.config.eb_control {
            if let Some(prev) = self.prev_loss {
                let improvement = (prev - obs.mean_loss) / prev.abs().max(1e-9);
                plateaued = improvement < ebc.plateau_threshold;
            }
            if plateaued {
                self.eb_scale = (self.eb_scale * ebc.tighten_factor).max(ebc.min_scale);
            } else if self.eb_scale < 1.0 {
                self.eb_scale = (self.eb_scale / ebc.tighten_factor).min(1.0);
            }
        }
        self.prev_loss = Some(obs.mean_loss);

        let entry = Reselection {
            index: self.log.len(),
            iteration: obs.iteration,
            effective_bandwidth: bw,
            mean_loss: obs.mean_loss,
            plateaued,
            eb_scale: self.eb_scale,
            switches,
            degraded,
        };
        self.log.push(entry.clone());
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(id: usize, ratios: &[f64]) -> TableObservation {
        TableObservation {
            table_id: id,
            original_bytes: 1 << 20,
            compressed_bytes: 1 << 18,
            candidate_ratios: ratios.to_vec(),
        }
    }

    fn obs(
        iteration: usize,
        bw: f64,
        loss: f64,
        tables: Vec<TableObservation>,
    ) -> WindowObservation {
        WindowObservation {
            iteration,
            effective_bandwidth: bw,
            mean_loss: loss,
            measured_compress_throughput: 0.0,
            tables,
        }
    }

    /// A valid two-table share over three candidate codecs.
    fn two_table_share() -> WindowShare {
        WindowShare {
            loss_sum: 1.5,
            loss_n: 3,
            wire_bytes: 4096.0,
            wire_seconds: 2e-6,
            codec_bytes: 8192.0,
            codec_seconds: 3e-7,
            tables: vec![
                TableObservation {
                    table_id: 7,
                    original_bytes: 1 << 12,
                    compressed_bytes: 1 << 10,
                    candidate_ratios: vec![2.0, 5.5, 11.25],
                },
                table(2, &[2.0, 3.0, 4.0]),
            ],
        }
    }

    /// Decode under `catch_unwind`, so a panicking decoder fails the test
    /// with the input that broke it.
    fn decode(bytes: &[u8], candidates: usize) -> Result<WindowShare, ShareError> {
        std::panic::catch_unwind(|| WindowShare::decode(bytes, candidates))
            .unwrap_or_else(|_| panic!("decode panicked on {} bytes", bytes.len()))
    }

    #[test]
    fn window_share_roundtrips_in_the_fixed_word_layout() {
        let share = two_table_share();
        let mut bytes = Vec::new();
        share.encode_into(&mut bytes);
        assert_eq!(bytes.len(), WindowShare::encoded_len(2, 3));
        assert_eq!(bytes.len(), 56 + 2 * (3 + 3) * 8);
        let word = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        assert_eq!(word(0), 1.5f64.to_bits());
        assert_eq!(word(1), 3, "loss count");
        assert_eq!(word(6), 2, "table count");
        assert_eq!((word(7), word(8), word(9)), (7, 1 << 12, 1 << 10));
        assert_eq!(word(10), 2.0f64.to_bits());
        assert_eq!(decode(&bytes, 3), Ok(share));
    }

    #[test]
    fn window_share_decoder_is_total() {
        let mut bytes = Vec::new();
        two_table_share().encode_into(&mut bytes);
        // Every strict prefix: a truncated header or truncated tables.
        for len in 0..bytes.len() {
            let e = decode(&bytes[..len], 3).expect_err("a strict prefix decoded");
            assert!(e.needed > e.available, "prefix {len}: {e}");
            assert_eq!(e.offset, if len < 56 { 0 } else { 56 }, "prefix {len}: {e}");
        }
        // A table count one too many, and an absurd one: nothing to read.
        for count in [3u64, u64::MAX] {
            let mut bad = bytes.clone();
            bad[48..56].copy_from_slice(&count.to_le_bytes());
            let e = decode(&bad, 3).expect_err("an overcounted share decoded");
            assert_eq!((e.offset, e.available), (56, bytes.len() - 56), "{e}");
            assert!(e.needed > e.available, "{e}");
        }
        // Trailing bytes past the last table.
        let mut long = bytes.clone();
        long.extend_from_slice(&[0xAB; 5]);
        let e = decode(&long, 3).expect_err("trailing bytes decoded");
        assert_eq!(
            e,
            ShareError {
                offset: bytes.len(),
                needed: 0,
                available: 5
            }
        );
        assert_eq!(
            e.to_string(),
            format!("5 trailing bytes at offset {}", bytes.len())
        );
        // A candidate-count mismatch misreads the per-table stride either way.
        let short = decode(&bytes, 2).expect_err("fewer candidates decoded");
        assert_eq!((short.offset, short.needed), (56 + 2 * 5 * 8, 0));
        let wide = decode(&bytes, 4).expect_err("more candidates decoded");
        assert_eq!((wide.offset, wide.needed), (56, 2 * 7 * 8));
        assert!(wide.to_string().contains("at offset 56"), "{wide}");
    }

    #[test]
    fn fold_sums_shares_in_rank_order_and_sorts_tables() {
        let a = two_table_share();
        let mut b = WindowShare {
            wire_bytes: 1024.0,
            wire_seconds: 1e-6,
            tables: vec![table(4, &[1.0, 1.0, 1.0])],
            ..WindowShare::default()
        };
        b.loss_sum = 0.5;
        b.loss_n = 1;
        let obs = WindowShare::fold([a.clone(), b.clone()], 9, 1e9, |sum, n| {
            assert_eq!((sum, n), (2.0, 4));
            sum / n as f64
        });
        assert_eq!(obs.iteration, 9);
        assert_eq!(obs.mean_loss, 0.5);
        assert_eq!(obs.effective_bandwidth, (4096.0 + 1024.0) / (2e-6 + 1e-6));
        assert_eq!(obs.measured_compress_throughput, 8192.0 / 3e-7);
        let ids: Vec<usize> = obs.tables.iter().map(|t| t.table_id).collect();
        assert_eq!(ids, [2, 4, 7]);
        // A window that charged no wire (or codec) time falls back.
        let idle = WindowShare::fold([WindowShare::default()], 3, 1e9, |_, _| 0.0);
        assert_eq!(idle.effective_bandwidth, 1e9);
        assert_eq!(idle.measured_compress_throughput, 0.0);
        assert!(idle.tables.is_empty());
    }

    #[test]
    fn probe_reports_one_ratio_per_candidate() {
        let candidates: Vec<Box<dyn Compressor>> =
            [CompressorKind::Fp16, CompressorKind::OursHybrid]
                .iter()
                .map(|k| k.build())
                .collect();
        let sample: Vec<f32> = (0..PROBE_ROWS * 8).map(|i| (i % 5) as f32 * 0.25).collect();
        let (mut scratch, mut out) = (CompressScratch::new(), Vec::new());
        let ratios = probe_candidates(&candidates, &sample, 8, 0.01, &mut scratch, &mut out);
        assert_eq!(ratios.len(), 2);
        assert!(
            (ratios[0] - 2.0).abs() < 0.1,
            "fp16 is a fixed 2x: {ratios:?}"
        );
        assert!(
            ratios[1] > ratios[0],
            "repeated rows favour the hybrid: {ratios:?}"
        );
    }

    fn two_codec_config(hysteresis: f64) -> ControllerConfig {
        ControllerConfig::new(4, hysteresis)
            .with_candidates(vec![CompressorKind::Fp16, CompressorKind::OursHybrid])
    }

    #[test]
    fn selection_follows_the_observed_bandwidth() {
        let mut ctl = RuntimeController::new(two_codec_config(0.1), vec![CompressorKind::Fp16]);
        // Fast fabric: the fp16 cast holds.
        let r = ctl.observe(&obs(4, 60e9, 0.6, vec![table(0, &[2.0, 12.0])]));
        assert!(r.switches.is_empty());
        assert_eq!(ctl.current(0), CompressorKind::Fp16);
        // Drifted fabric: heavy compression wins, one switch.
        let r = ctl.observe(&obs(8, 2e9, 0.55, vec![table(0, &[2.0, 12.0])]));
        assert_eq!(r.switches.len(), 1);
        assert_eq!(r.switches[0].from, CompressorKind::Fp16);
        assert_eq!(r.switches[0].to, CompressorKind::OursHybrid);
        assert!(r.switches[0].estimated_speedup > r.switches[0].incumbent_speedup);
        // Same conditions again: selection holds (no thrash).
        let r = ctl.observe(&obs(12, 2e9, 0.5, vec![table(0, &[2.0, 12.0])]));
        assert!(r.switches.is_empty());
        assert_eq!(ctl.total_switches(), 1);
    }

    #[test]
    fn hysteresis_suppresses_marginal_switches() {
        // Near the crossover, a small advantage must not flip the table
        // (at 17 GB/s the hybrid leads the fp16 cast by only ~5%).
        let bw = 17e9;
        let mut free = RuntimeController::new(two_codec_config(0.0), vec![CompressorKind::Fp16]);
        let r_free = free.observe(&obs(4, bw, 0.5, vec![table(0, &[2.0, 12.0])]));
        // Without hysteresis this bandwidth flips to the hybrid…
        assert_eq!(r_free.switches.len(), 1);
        // …but a 10% hysteresis band holds the incumbent.
        let mut guarded = RuntimeController::new(two_codec_config(0.1), vec![CompressorKind::Fp16]);
        let r_guarded = guarded.observe(&obs(4, bw, 0.5, vec![table(0, &[2.0, 12.0])]));
        assert!(r_guarded.switches.is_empty());
    }

    #[test]
    fn degraded_mode_drops_the_hysteresis_guard() {
        // Same marginal-advantage bandwidth as the hysteresis test: a
        // healthy window holds the incumbent, a degraded window switches
        // immediately (and records that it ran degraded).
        let bw = 17e9;
        let mut ctl = RuntimeController::new(two_codec_config(0.1), vec![CompressorKind::Fp16]);
        let healthy = ctl.observe_degraded(&obs(4, bw, 0.5, vec![table(0, &[2.0, 12.0])]), false);
        assert!(healthy.switches.is_empty());
        assert!(!healthy.degraded);
        let degraded = ctl.observe_degraded(&obs(8, bw, 0.5, vec![table(0, &[2.0, 12.0])]), true);
        assert_eq!(degraded.switches.len(), 1);
        assert_eq!(degraded.switches[0].to, CompressorKind::OursHybrid);
        assert!(degraded.degraded);
    }

    #[test]
    fn per_table_ratios_drive_per_table_decisions() {
        let mut ctl = RuntimeController::new(
            two_codec_config(0.1),
            vec![CompressorKind::Fp16, CompressorKind::Fp16],
        );
        // Table 0 homogenizes (ratio 15), table 1 does not (ratio 2.1): at a
        // mid fabric only table 0 is worth the heavy codec.
        let r = ctl.observe(&obs(
            4,
            4e9,
            0.5,
            vec![table(0, &[2.0, 15.0]), table(1, &[2.0, 2.1])],
        ));
        assert_eq!(r.switches.len(), 1);
        assert_eq!(r.switches[0].table_id, 0);
        assert_eq!(ctl.current(0), CompressorKind::OursHybrid);
        assert_eq!(ctl.current(1), CompressorKind::Fp16);
    }

    #[test]
    fn determinism_same_observations_same_log() {
        let run = || {
            let mut ctl = RuntimeController::new(two_codec_config(0.1), vec![CompressorKind::Fp16]);
            for (i, bw) in [(4usize, 60e9), (8, 2e9), (12, 2e9), (16, 60e9)] {
                ctl.observe(&obs(
                    i,
                    bw,
                    0.5 - i as f64 * 0.01,
                    vec![table(0, &[2.0, 12.0])],
                ));
            }
            ctl.log().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn plateau_tightens_then_recovery_relaxes_the_error_bound() {
        let config = two_codec_config(0.1).with_eb_control(PlateauEbControl {
            plateau_threshold: 0.02,
            tighten_factor: 0.5,
            min_scale: 0.25,
        });
        let mut ctl = RuntimeController::new(config, vec![CompressorKind::Fp16]);
        // First window: no previous loss, nothing fires.
        let r = ctl.observe(&obs(4, 60e9, 1.0, vec![table(0, &[2.0, 12.0])]));
        assert!(!r.plateaued);
        assert_eq!(r.eb_scale, 1.0);
        // Loss stalls: plateau, bound tightens.
        let r = ctl.observe(&obs(8, 60e9, 0.999, vec![table(0, &[2.0, 12.0])]));
        assert!(r.plateaued);
        assert_eq!(r.eb_scale, 0.5);
        // Stalls again: tightens to the floor.
        let r = ctl.observe(&obs(12, 60e9, 0.998, vec![table(0, &[2.0, 12.0])]));
        assert_eq!(r.eb_scale, 0.25);
        let r = ctl.observe(&obs(16, 60e9, 0.9975, vec![table(0, &[2.0, 12.0])]));
        assert_eq!(r.eb_scale, 0.25, "scale must respect the floor");
        // Loss falls hard: the scale relaxes back toward 1.
        let r = ctl.observe(&obs(20, 60e9, 0.5, vec![table(0, &[2.0, 12.0])]));
        assert!(!r.plateaued);
        assert_eq!(r.eb_scale, 0.5);
        let r = ctl.observe(&obs(24, 60e9, 0.25, vec![table(0, &[2.0, 12.0])]));
        assert_eq!(r.eb_scale, 1.0);
    }

    #[test]
    fn calibration_scales_the_profile_with_measured_throughput() {
        // A machine 100x slower than the profile (clamped to 10x): at a
        // bandwidth where the uncalibrated profile would switch to the
        // hybrid, the calibrated controller knows the codec cannot keep up.
        let mut o = obs(4, 4e9, 0.5, vec![table(0, &[2.0, 12.0])]);
        o.measured_compress_throughput = 3e9; // fp16 profile says 300e9
        let mut calibrated =
            RuntimeController::new(two_codec_config(0.1), vec![CompressorKind::Fp16]);
        let r = calibrated.observe(&o);
        assert!(
            r.switches.is_empty(),
            "calibrated controller must not switch: {:?}",
            r.switches
        );
        let mut uncalibrated =
            RuntimeController::new(two_codec_config(0.1), vec![CompressorKind::Fp16]);
        let mut o2 = o.clone();
        o2.measured_compress_throughput = 0.0;
        assert_eq!(uncalibrated.observe(&o2).switches.len(), 1);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(ControllerConfig::new(0, 0.1).validate().is_err());
        assert!(ControllerConfig::new(4, -1.0).validate().is_err());
        assert!(ControllerConfig::new(4, 0.1)
            .with_candidates(vec![])
            .validate()
            .is_err());
        assert!(ControllerConfig::new(4, 0.1)
            .with_eb_control(PlateauEbControl {
                plateau_threshold: 0.02,
                tighten_factor: 1.5,
                min_scale: 0.25,
            })
            .validate()
            .is_err());
        assert!(ControllerConfig::new(4, 0.1).validate().is_ok());
    }
}
