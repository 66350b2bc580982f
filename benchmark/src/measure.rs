//! The untraced pass: alternating (short, long) run pairs timed from
//! outside, the end-to-end metrics they give, and the output checks.

use crate::workloads::{
    configure, dataset, execute, Job, Report, RunResult, Scale, Sizes, Workload,
};
use dlrm_comm::phase;
use dlrm_data::DatasetConfig;
use dlrm_trainer::{CompressionSetting, ExecutorSetting, OverlapSetting};
use std::time::Instant;

/// Most pairs one run takes, whatever `--seconds` says.
const MAX_PAIRS: usize = 25;
/// How far the adaptive run's final loss may sit from the uncompressed
/// run's (the paper's "minimal accuracy impact").
const LOSS_TOLERANCE: f64 = 0.01;

/// Counts of operations attempted and failed, with a line per failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one output check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Count `attempted` operations of which `failed` did not complete.
    pub fn ops(&mut self, attempted: usize, failed: usize, what: impl FnOnce() -> String) {
        self.attempted += attempted as u64;
        if failed > 0 {
            self.failed += failed as u64;
            self.failures.push(what());
        }
    }
}

/// A metric value with the spread of the samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Stat {
    /// A single measured or counted value.
    pub fn exact(value: f64) -> Stat {
        Stat {
            value,
            min: value,
            max: value,
            n: 1,
        }
    }

    /// Median, min and max of `samples`; NaN when there are none, which the
    /// caller's finite-value check then reports.
    pub fn of(samples: &[f64]) -> Stat {
        if samples.is_empty() {
            return Stat::exact(f64::NAN);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Stat {
            value: median_sorted(&sorted),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Stat::of(samples).value
}

/// What the checks and the deterministic metrics need from one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Facts {
    /// Closed-loop steps completed (iterations or batch windows).
    pub steps: usize,
    pub finite: bool,
    pub steady_alloc_bytes: u64,
    /// Final training loss; 0 for serving (see [`fidelity_loss`]).
    pub loss: f64,
    /// Serving response fingerprint; 0 for training.
    pub fingerprint: u64,
    pub dense_ratio: f64,
    pub homo_combines: u64,
}

const WIRE_PHASES: &[&str] = &[phase::FWD_A2A, phase::BWD_A2A, phase::ALLREDUCE];

pub fn facts(report: &Report) -> Facts {
    match report {
        Report::Train(r) => Facts {
            steps: r.accuracy_curve.len(),
            finite: r.accuracy_curve.iter().all(|m| m.loss.is_finite())
                && r.final_metrics.loss.is_finite(),
            steady_alloc_bytes: r.steady_state_allocated_bytes,
            loss: r.final_metrics.loss,
            fingerprint: 0,
            dense_ratio: r.dense_ratio,
            homo_combines: r.homo_combines,
        },
        Report::Serve(r) => Facts {
            steps: r.windows,
            finite: r.responses.len() == r.requests && r.responses.iter().all(|v| v.is_finite()),
            steady_alloc_bytes: r.steady_state_allocated_bytes,
            loss: 0.0,
            fingerprint: r.fingerprint(),
            dense_ratio: 1.0,
            homo_combines: 0,
        },
    }
}

/// Wire MB one step moves: the busiest rank's sent + received bytes over the
/// two all-to-alls and the all-reduce per iteration, or request + fetch bytes
/// per serving batch window. Not part of [`Facts`]: the adaptive plan picks
/// codecs by *measured* throughput, so two builds of it from one seed can
/// differ in a table's codec and, by under 1 %, in bytes.
pub fn wire_mb_per_step(report: &Report) -> f64 {
    match report {
        Report::Train(r) => {
            let wire: u64 = WIRE_PHASES.iter().map(|p| r.breakdown.bytes(p)).sum();
            wire as f64 / r.iterations.max(1) as f64 / 1e6
        }
        Report::Serve(r) => {
            (r.fetch_wire_bytes + r.request_wire_bytes) as f64 / r.windows.max(1) as f64 / 1e6
        }
    }
}

/// The modeled clock's prediction for one step, ms: modeled seconds per
/// iteration (α–β wire and codec charges plus the measured compute the
/// ledger scales), or serving's modeled p99 request latency.
pub fn model_ms(report: &Report) -> f64 {
    match report {
        Report::Train(r) => r.total_seconds / r.iterations.max(1) as f64 * 1e3,
        Report::Serve(r) => r.p99_ms,
    }
}

/// Run once and count it: the run's steps as operations, plus the
/// finite-output and zero-steady-allocation checks.
pub fn checked_run(
    workload: Workload,
    sizes: &Sizes,
    dataset: &DatasetConfig,
    job: &Job,
    len: usize,
    traced: bool,
    tally: &mut Tally,
) -> (RunResult, Option<Facts>) {
    let run = execute(dataset, job, len, traced);
    let want = sizes.steps(workload, len);
    let facts = match &run.report {
        Ok(report) => {
            let f = facts(report);
            tally.ops(want, want.saturating_sub(f.steps), || {
                format!("run of {len} completed {} of {want} steps", f.steps)
            });
            tally.check(f.finite, || "non-finite loss or logit".to_string());
            tally.check(f.steady_alloc_bytes == 0, || {
                format!("steady_state_allocated_bytes = {}", f.steady_alloc_bytes)
            });
            Some(f)
        }
        Err(msg) => {
            tally.ops(want, want, || format!("run of {len} panicked: {msg}"));
            None
        }
    };
    (run, facts)
}

/// Serving's stand-in for the training loss: mean absolute deviation of the
/// compressed-fetch logits from a raw-fetch run of the same request stream —
/// what the lossy fetch costs in answer fidelity.
pub fn fidelity_loss(dataset: &DatasetConfig, job: &Job, len: usize, lossy: &Report) -> f64 {
    let (Job::Serve(cfg), Report::Serve(lossy)) = (job, lossy) else {
        return f64::NAN;
    };
    let mut raw_cfg = cfg.clone();
    raw_cfg.fetch = dlrm_serve::FetchSetting::Raw;
    match execute(dataset, &Job::Serve(raw_cfg), len, false).report {
        Ok(Report::Serve(raw)) if raw.responses.len() == lossy.responses.len() => {
            let sum: f64 = raw
                .responses
                .iter()
                .zip(&lossy.responses)
                .map(|(a, b)| (*a as f64 - *b as f64).abs())
                .sum();
            sum / raw.responses.len().max(1) as f64
        }
        _ => f64::NAN,
    }
}

/// Final loss of the same training job with compression off, on an instant
/// wire (the wire policy never changes numerics) — the reference the
/// adaptive run's accuracy is held against.
fn uncompressed_reference_loss(dataset: &DatasetConfig, job: &Job, len: usize) -> f64 {
    let Job::Train(cfg) = job else {
        return f64::NAN;
    };
    let mut raw = cfg.clone();
    raw.compression = CompressionSetting::None;
    raw.overlap = OverlapSetting::Off;
    raw.realtime_wire = false;
    raw.executor = ExecutorSetting::Threaded;
    match execute(dataset, &Job::Train(raw), len, false).report {
        Ok(Report::Train(r)) => r.final_metrics.loss,
        _ => f64::NAN,
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced pass of one workload: a discarded warm-up, then (short,
/// long) pairs in alternating order until `seconds` are used, reported as
/// every end-to-end metric.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    tally: &mut Tally,
) -> Vec<(&'static str, Stat)> {
    let sizes = Sizes::of(workload, scale);
    let min_pairs = if scale == Scale::Quick { 1 } else { 3 };
    let began = Instant::now();

    // Warm-up (discarded): page in the binary, the allocator and the
    // dataset tables. Serving's fidelity reference rides on it.
    let ds = dataset(scale);
    let job = configure(workload, &ds, seed, scale);
    let (warm, _) = checked_run(workload, &sizes, &ds, &job, sizes.short, false, tally);
    let fidelity = match &warm.report {
        Ok(report) if !workload.is_training() => fidelity_loss(&ds, &job, sizes.short, report),
        _ => f64::NAN,
    };

    let mut rate = Vec::new();
    let mut setup = Vec::new();
    let mut longs: Vec<Facts> = Vec::new();
    let mut modeled = Vec::new();
    let mut wire = Vec::new();
    let mut pair_s = 0.0f64;
    let measuring = Instant::now();
    while setup.len() < MAX_PAIRS {
        let done = setup.len();
        if done >= min_pairs && measuring.elapsed().as_secs_f64() + pair_s / done as f64 > seconds {
            break;
        }
        let pair_began = Instant::now();
        let t0 = Instant::now();
        let ds = dataset(scale);
        let job = configure(workload, &ds, seed, scale);
        let build_s = t0.elapsed().as_secs_f64();
        // Alternate which run of the pair goes first, so drift within a
        // pair cancels across pairs.
        let order = if done % 2 == 0 {
            [sizes.short, sizes.long]
        } else {
            [sizes.long, sizes.short]
        };
        let mut wall = [0.0f64; 2];
        let mut long_facts = None;
        for len in order {
            let (run, f) = checked_run(workload, &sizes, &ds, &job, len, false, tally);
            let slot = usize::from(len == sizes.long);
            wall[slot] = run.wall_s;
            if len == sizes.long {
                long_facts = f;
                modeled.extend(run.report.as_ref().ok().map(model_ms));
                wire.extend(run.report.as_ref().ok().map(wire_mb_per_step));
            }
        }
        let steps = (sizes.steps(workload, sizes.long) - sizes.steps(workload, sizes.short)) as f64;
        let dt = wall[1] - wall[0];
        tally.check(dt > 0.0, || {
            format!(
                "long run ({:.4}s) not slower than short ({:.4}s)",
                wall[1], wall[0]
            )
        });
        if dt > 0.0 {
            rate.push(steps / dt);
        }
        setup.push(build_s + wall[0]);
        longs.extend(long_facts);
        pair_s += pair_began.elapsed().as_secs_f64();
    }

    let Some(first) = longs.first().copied() else {
        tally.check(false, || "no long run completed".to_string());
        return Vec::new();
    };
    if let Some(other) = longs.iter().find(|f| **f != first) {
        tally.check(false, || {
            format!("long runs of one seed disagree: {first:?} vs {other:?}")
        });
    }
    match workload {
        Workload::TrainHierInstant => {
            tally.check(first.dense_ratio > 1.0, || {
                format!("dense_ratio = {} (want > 1)", first.dense_ratio)
            });
            tally.check(first.homo_combines > 0, || "homo_combines = 0".to_string());
        }
        Workload::TrainAdaptivePaced => {
            let reference = uncompressed_reference_loss(&ds, &job, sizes.long);
            // The tiny preset's 6-iteration runs are too short for the bound
            // to mean anything; it is held at full scale only.
            let tolerance = if scale == Scale::Quick {
                0.1
            } else {
                LOSS_TOLERANCE
            };
            tally.check((first.loss - reference).abs() <= tolerance, || {
                format!(
                    "final loss {} is more than {tolerance} from the uncompressed {reference}",
                    first.loss
                )
            });
        }
        Workload::TrainRawPaced | Workload::ServeZipf => {}
    }

    let loss = if workload.is_training() {
        first.loss
    } else {
        fidelity
    };
    tally.check(loss.is_finite() && loss > 0.0, || {
        format!("final_loss = {loss}")
    });
    let rate = Stat::of(&rate);
    let per_step = sizes.samples_per_step(workload) as f64;
    let qps = Stat {
        value: rate.value * per_step,
        min: rate.min * per_step,
        max: rate.max * per_step,
        n: rate.n,
    };
    eprintln!(
        "[{}] {} pairs in {:.1}s (warm-up included)",
        workload.name(),
        rate.n,
        began.elapsed().as_secs_f64()
    );
    vec![
        ("iters_per_s", rate),
        ("serve_qps", qps),
        ("setup_s", Stat::of(&setup)),
        ("final_loss", Stat::exact(loss)),
        ("wire_mb_per_iter", Stat::of(&wire)),
        ("serve_p99_model_ms", Stat::of(&modeled)),
        ("peak_rss_mb", Stat::exact(peak_rss_mb())),
    ]
}
