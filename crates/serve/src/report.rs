//! The serving run's outcome.

use dlrm_adaptive::Reselection;

/// Everything one serving run produced: throughput, tail latency, cache and
/// fetch statistics, the controller's reselection log, and the raw
/// per-request responses (for bit-identity assertions).
///
/// Every field except `wall_seconds` / `wall_qps` is **deterministic**: a
/// pure function of `(dataset, partition, seeds, config)` — independent of
/// executor mode, wire pacing, wall clock and host load. That split is what
/// [`Self::fingerprint`] hashes and the determinism regression suite pins.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Dataset preset name.
    pub dataset: String,
    /// Executor ranks.
    pub world: usize,
    /// Frontend (partition) ranks actually serving traffic.
    pub frontends: usize,
    /// Requests served.
    pub requests: usize,
    /// Requests per batch window.
    pub window: usize,
    /// Batch windows executed.
    pub windows: usize,
    /// Per-frontend hot-row cache capacity in rows.
    pub cache_rows: usize,
    /// Fetch transport label.
    pub fetch: String,
    /// Executor label ("sequential" / "threaded").
    pub executor: String,
    /// Modeled arrival rate (requests/s).
    pub arrival_qps: f64,
    /// Modeled end-to-end seconds (last window's finish time).
    pub modeled_seconds: f64,
    /// Requests divided by modeled makespan.
    pub modeled_qps: f64,
    /// Wall-clock seconds of the executor run (spawn to join).
    pub wall_seconds: f64,
    /// Requests divided by wall seconds.
    pub wall_qps: f64,
    /// Median per-request modeled latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-request modeled latency, milliseconds
    /// (nearest-rank over the sorted per-request latency vector).
    pub p99_ms: f64,
    /// Mean per-request modeled latency, milliseconds (reported for
    /// context; percentiles are never derived from it).
    pub mean_ms: f64,
    /// Worst per-request modeled latency, milliseconds.
    pub max_ms: f64,
    /// Cache probe hits across frontends.
    pub cache_hits: u64,
    /// Cache probe misses across frontends.
    pub cache_misses: u64,
    /// Cache evictions across frontends.
    pub cache_evictions: u64,
    /// Fetched rows the cache's admission gate refused across frontends
    /// (answered, not kept).
    pub cache_rejections: u64,
    /// Cache flushes on codec switches across frontends.
    pub cache_flushes: u64,
    /// `hits / (hits + misses)`, `0` when the cache is off.
    pub hit_rate: f64,
    /// Embedding rows answered from the frontend's own shard.
    pub local_rows: u64,
    /// Embedding rows moved across ranks (after coalescing).
    pub fetched_rows: u64,
    /// Raw bytes of the fetched rows (`rows × dim × 4`).
    pub fetch_raw_bytes: u64,
    /// Encoded payload bytes on the wire (including frame headers).
    pub fetch_wire_bytes: u64,
    /// Request-direction wire bytes (coalesced key lists).
    pub request_wire_bytes: u64,
    /// `fetch_raw_bytes / fetch_wire_bytes` (`1` when nothing moved).
    pub fetch_ratio: f64,
    /// The controller's reselection log (empty when adaptation is off).
    pub reselections: Vec<Reselection>,
    /// Total per-table codec switches across the run.
    pub codec_switches: usize,
    /// Per-table codec labels after the run.
    pub final_codecs: Vec<String>,
    /// Pool/scratch bytes allocated after the warm-up windows (must be 0 in
    /// the steady state).
    pub steady_state_allocated_bytes: u64,
    /// Summed per-phase modeled seconds across ranks, `(phase, seconds)`.
    pub phase_seconds: Vec<(String, f64)>,
    /// Raw CTR logits, one per request, request order.
    pub responses: Vec<f32>,
    /// Whether the model state came from a restored checkpoint.
    pub from_checkpoint: bool,
    /// Optional provenance note (e.g. the training run the state came from).
    pub provenance: Option<String>,
}

impl ServingReport {
    /// FNV-1a hash over every deterministic field (responses bitwise,
    /// modeled latency/throughput bitwise, cache/fetch counters, reselection
    /// decisions). Wall-clock fields are excluded by construction.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        eat(self.requests as u64);
        eat(self.windows as u64);
        eat(self.frontends as u64);
        eat(self.modeled_seconds.to_bits());
        eat(self.modeled_qps.to_bits());
        eat(self.p50_ms.to_bits());
        eat(self.p99_ms.to_bits());
        eat(self.mean_ms.to_bits());
        eat(self.max_ms.to_bits());
        eat(self.cache_hits);
        eat(self.cache_misses);
        eat(self.cache_evictions);
        eat(self.cache_rejections);
        eat(self.cache_flushes);
        eat(self.local_rows);
        eat(self.fetched_rows);
        eat(self.fetch_raw_bytes);
        eat(self.fetch_wire_bytes);
        eat(self.request_wire_bytes);
        eat(self.codec_switches as u64);
        for r in &self.responses {
            eat(r.to_bits() as u64);
        }
        for resel in &self.reselections {
            eat(resel.iteration as u64);
            for s in &resel.switches {
                eat(s.table_id as u64);
            }
        }
        for label in &self.final_codecs {
            for b in label.as_bytes() {
                eat(*b as u64);
            }
        }
        h
    }

    /// The response logits as raw bit patterns (bit-identity assertions).
    pub fn response_bits(&self) -> Vec<u32> {
        self.responses.iter().map(|v| v.to_bits()).collect()
    }
}
