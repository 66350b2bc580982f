//! The four workloads: what each configures and how one run of it executes.
//!
//! All four share the dataset preset, world 4 and global batch 512, so their
//! numbers compare; they differ in which comm, codec and model paths they
//! drive (see `spec::WORKLOADS` for the one-line reason each exists).

use dlrm_comm::{NetworkConfig, Topology};
use dlrm_compress::CompressorKind;
use dlrm_data::{presets, DatasetConfig};
use dlrm_serve::{run_serving, FetchSetting, ServeConfig, ServingReport};
use dlrm_trainer::plan::paper_default_plan;
use dlrm_trainer::{
    run_training, CompressionSetting, DenseCompression, ExecutorSetting, ObsSetting,
    OverlapSetting, TopologySetting, TrainerConfig, TrainingReport,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Ranks in every workload: the smallest world with a 2x2 hierarchy.
pub const WORLD: usize = 4;
/// The paced all-to-all link of the two `*_paced` workloads, bytes/s.
pub const PACED_BANDWIDTH: f64 = 1e7;
/// Initial / stable phase lengths the adaptive plan's decay schedule uses.
const PLAN_PHASES: (usize, usize) = (4, 8);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainRawPaced,
    TrainAdaptivePaced,
    TrainHierInstant,
    ServeZipf,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TrainRawPaced,
        Workload::TrainAdaptivePaced,
        Workload::TrainHierInstant,
        Workload::ServeZipf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainRawPaced => "train_raw_paced",
            Workload::TrainAdaptivePaced => "train_adaptive_paced",
            Workload::TrainHierInstant => "train_hier_instant",
            Workload::ServeZipf => "serve_zipf",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_training(self) -> bool {
        self != Workload::ServeZipf
    }
}

/// Full scale, or the tiny preset `run --quick` and the smoke test use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

/// Sizes that depend on the scale.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub global_batch: usize,
    /// Serving batch window, requests.
    pub window: usize,
    pub cache_rows: usize,
    /// Iterations (training) or requests (serving) of the short run.
    pub short: usize,
    /// Iterations or requests of the long run.
    pub long: usize,
}

impl Sizes {
    pub fn of(workload: Workload, scale: Scale) -> Sizes {
        let (global_batch, window, cache_rows) = match scale {
            Scale::Full => (512, 256, 8192),
            Scale::Quick => (64, 32, 256),
        };
        let (short, long) = match (workload, scale) {
            (Workload::ServeZipf, Scale::Full) => (4096, 53_248),
            (Workload::ServeZipf, Scale::Quick) => (256, 1024),
            (Workload::TrainHierInstant, Scale::Full) => (4, 24),
            (_, Scale::Full) => (4, 20),
            (_, Scale::Quick) => (2, 6),
        };
        Sizes {
            global_batch,
            window,
            cache_rows,
            short,
            long,
        }
    }

    /// Samples one closed-loop step consumes: a training iteration's global
    /// batch, or a serving batch window.
    pub fn samples_per_step(&self, workload: Workload) -> usize {
        if workload.is_training() {
            self.global_batch
        } else {
            self.window
        }
    }

    /// Closed-loop steps in a run of `len` iterations or requests.
    pub fn steps(&self, workload: Workload, len: usize) -> usize {
        if workload.is_training() {
            len
        } else {
            len.div_ceil(self.window)
        }
    }
}

/// The 2x2 hierarchy of `train_hier_instant`.
pub fn hier_topology() -> Topology {
    Topology::new(
        2,
        2,
        NetworkConfig::nvlink_intra_node(),
        NetworkConfig {
            alltoall_bandwidth: 4e9,
            allreduce_bandwidth: 4e9,
            latency: 20e-6,
        },
    )
}

/// A configured workload, ready to run at any length.
#[derive(Debug, Clone)]
pub enum Job {
    Train(TrainerConfig),
    Serve(ServeConfig),
}

pub fn dataset(scale: Scale) -> DatasetConfig {
    match scale {
        Scale::Full => presets::criteo_kaggle_like(),
        Scale::Quick => presets::tiny(),
    }
}

/// Build the workload's configuration from the seed — for
/// `train_adaptive_paced` this runs the offline analysis that produces the
/// compression plan, which is why construction is part of `setup_s`.
pub fn configure(workload: Workload, dataset: &DatasetConfig, seed: u64, scale: Scale) -> Job {
    let sizes = Sizes::of(workload, scale);
    if workload == Workload::ServeZipf {
        let mut cfg = ServeConfig::small_test();
        cfg.world = WORLD;
        cfg.window = sizes.window;
        cfg.warmup_windows = 4;
        cfg.cache_rows = sizes.cache_rows;
        cfg.fetch = FetchSetting::hybrid(0.05);
        cfg.network = NetworkConfig::paper_figure11();
        cfg.executor = ExecutorSetting::Threaded;
        cfg.realtime_wire = false;
        cfg.arrival_qps = 2e7;
        cfg.seed = seed;
        return Job::Serve(cfg);
    }
    let mut cfg = TrainerConfig::small_test(CompressionSetting::None);
    cfg.world = WORLD;
    cfg.global_batch = sizes.global_batch;
    cfg.learning_rate = 0.05;
    cfg.compute_time_scale = 1.0;
    cfg.device_throughput = Some((0.5e9, 2e9));
    cfg.obs = ObsSetting::Off;
    cfg.seed = seed;
    match workload {
        Workload::TrainRawPaced | Workload::TrainAdaptivePaced => {
            cfg.network = NetworkConfig::alltoall_bound(PACED_BANDWIDTH);
            cfg.executor = ExecutorSetting::Threaded;
            cfg.realtime_wire = true;
            if workload == Workload::TrainAdaptivePaced {
                cfg.overlap = OverlapSetting::DoubleBuffered;
                let plan = paper_default_plan(
                    dataset,
                    PLAN_PHASES.0,
                    PLAN_PHASES.1,
                    PACED_BANDWIDTH,
                    seed,
                )
                .expect("offline analysis of the preset succeeds");
                cfg.compression = CompressionSetting::Adaptive(plan);
            }
        }
        Workload::TrainHierInstant => {
            cfg.topology = TopologySetting::Hierarchical(hier_topology());
            cfg.executor = ExecutorSetting::Sequential;
            cfg.realtime_wire = false;
            cfg.compression = CompressionSetting::fixed(0.02, CompressorKind::OursHybrid);
            cfg.dense_compression = DenseCompression::lattice_ef(1e-3);
        }
        Workload::ServeZipf => unreachable!("handled above"),
    }
    Job::Train(cfg)
}

/// What one run produced.
pub enum Report {
    Train(Box<TrainingReport>),
    Serve(Box<ServingReport>),
}

/// One run of a job: the outer wall around `run_training` / `run_serving`
/// and the report, or the panic message if the run died.
pub struct RunResult {
    pub wall_s: f64,
    pub report: Result<Report, String>,
}

/// Run `job` for `len` iterations (training) or requests (serving), with the
/// program's own tracing on or off.
pub fn execute(dataset: &DatasetConfig, job: &Job, len: usize, traced: bool) -> RunResult {
    let started = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| match job {
        Job::Train(cfg) => {
            let mut cfg = cfg.clone();
            cfg.iterations = len;
            cfg.obs = if traced {
                ObsSetting::On
            } else {
                ObsSetting::Off
            };
            Report::Train(Box::new(run_training(dataset, &cfg)))
        }
        Job::Serve(cfg) => {
            let mut cfg = cfg.clone();
            cfg.requests = len;
            Report::Serve(Box::new(run_serving(dataset, &cfg)))
        }
    }))
    .map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "run panicked".to_string())
    });
    RunResult {
        wall_s: started.elapsed().as_secs_f64(),
        report,
    }
}
