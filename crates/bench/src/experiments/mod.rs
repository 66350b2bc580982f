//! Experiment registry: one entry per table/figure of the paper (plus the
//! ablations), each producing a plain-text report.

pub mod accuracy;
pub mod breakdown;
pub mod buffer_opt;
pub mod compressors;
pub mod decay;
pub mod meta;

use crate::workloads::Scale;

/// Options shared by every experiment run.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Run scale (quick for CI, full for the paper-scale numbers).
    pub scale: Scale,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self { scale: Scale::Full }
    }
}

impl ExpOptions {
    /// Quick-scale options (used by integration tests and `--quick`).
    pub fn quick() -> Self {
        Self {
            scale: Scale::Quick,
        }
    }
}

/// A registered experiment.
pub struct Experiment {
    /// The paper artifact's identifier, as the CLI takes it (`fig11`,
    /// `tab5`, `abl2`, …).
    pub id: &'static str,
    /// What the corresponding paper artifact shows.
    pub title: &'static str,
    /// Run the experiment and return its text report.
    pub run: fn(&ExpOptions) -> String,
}

/// Every experiment, in the order the paper presents its evaluation.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig1",
            title: "Training-time breakdown of uncompressed DLRM (all-to-all dominates)",
            run: breakdown::fig1,
        },
        Experiment {
            id: "fig5",
            title: "Accuracy and compression ratio for different error-bound decay functions",
            run: decay::fig5,
        },
        Experiment {
            id: "fig6",
            title: "Embedding-table sizes of the Kaggle-like and Terabyte-like presets",
            run: meta::fig6,
        },
        Experiment {
            id: "fig8",
            title: "Accuracy and delta accuracy: FP32 vs FP16 vs FP8 vs error-bounded lossy",
            run: accuracy::fig8,
        },
        Experiment {
            id: "fig9",
            title: "Accuracy and compression ratio with table-wise error-bound configuration",
            run: accuracy::fig9,
        },
        Experiment {
            id: "fig10",
            title: "Accuracy and compression ratio: gradual decay vs abrupt drop",
            run: decay::fig10,
        },
        Experiment {
            id: "fig11",
            title: "Compression ratio, throughput and communication speedup of all compressors",
            run: compressors::fig11,
        },
        Experiment {
            id: "fig12",
            title: "End-to-end training-time breakdown with and without compression",
            run: breakdown::fig12,
        },
        Experiment {
            id: "fig13",
            title: "Data features of two representative embedding tables",
            run: compressors::fig13,
        },
        Experiment {
            id: "fig14",
            title: "Value distribution of representative tables across training phases",
            run: compressors::fig14,
        },
        Experiment {
            id: "fig15",
            title: "Buffer optimization speedup vs chunk count",
            run: buffer_opt::fig15,
        },
        Experiment {
            id: "tab1",
            title: "Characteristics of representative embedding tables",
            run: meta::tab1,
        },
        Experiment {
            id: "tab2",
            title: "L/M/S classification of all embedding tables",
            run: meta::tab2,
        },
        Experiment {
            id: "tab3",
            title: "Ranked homogenization index, Kaggle-like preset",
            run: meta::tab3,
        },
        Experiment {
            id: "tab4",
            title: "Ranked homogenization index, Terabyte-like preset",
            run: meta::tab4,
        },
        Experiment {
            id: "tab5",
            title: "Per-table compression ratio of every compressor",
            run: compressors::tab5,
        },
        Experiment {
            id: "tab6",
            title: "Vector-LZ compression-ratio improvement vs window size",
            run: compressors::tab6,
        },
        Experiment {
            id: "abl2",
            title: "Ablation: Lorenzo prediction hurts on homogenized tables",
            run: compressors::abl2,
        },
        Experiment {
            id: "abl3",
            title: "Ablation: compressor-selection model vs fixed back-end",
            run: compressors::abl3,
        },
    ]
}

/// Run one experiment by id.
pub fn run_by_id(id: &str, opts: &ExpOptions) -> Option<String> {
    registry()
        .into_iter()
        .find(|e| e.id.eq_ignore_ascii_case(id))
        .map(|e| (e.run)(opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_holds_exactly_the_papers_figures_tables_and_ablations() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        assert_eq!(
            ids,
            [
                "fig1", "fig5", "fig6", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
                "fig14", "fig15", "tab1", "tab2", "tab3", "tab4", "tab5", "tab6", "abl2", "abl3",
            ]
        );
    }

    #[test]
    fn unknown_id_returns_none() {
        assert!(run_by_id("nope", &ExpOptions::quick()).is_none());
    }
}
