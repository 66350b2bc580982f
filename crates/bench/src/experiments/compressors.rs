//! Compression-performance experiments: Figure 11, Tables V and VI,
//! Figures 13 and 14, and the prediction/selection ablations.

use super::ExpOptions;
use crate::format::{f2, ratio, TextTable};
use crate::workloads::{self, Scale, PAPER_BANDWIDTH};
use dlrm_adaptive::homo;
use dlrm_adaptive::speedup::{estimate_speedup, Dataflow, SpeedupInputs};
use dlrm_compress::registry::HybridCompressor;
use dlrm_compress::vlz::{self, VlzConfig};
use dlrm_compress::{measure_roundtrip, CompressionReport, Compressor, CompressorKind};
use dlrm_data::{DatasetConfig, SyntheticCriteo};
use dlrm_model::{Dlrm, DlrmConfig};
use dlrm_tensor::stats::Histogram;

fn presets_for(scale: Scale) -> Vec<DatasetConfig> {
    match scale {
        Scale::Quick => vec![dlrm_data::presets::tiny()],
        Scale::Full => workloads::both_presets(),
    }
}

/// Aggregate a compressor's behaviour over every table of a preset.
fn aggregate_over_tables(
    comp: &dyn Compressor,
    samples: &[Vec<f32>],
    dim: usize,
    eb: f32,
) -> CompressionReport {
    let mut original = 0usize;
    let mut compressed = 0usize;
    let mut compress_s = 0.0;
    let mut decompress_s = 0.0;
    let mut max_err = 0.0f32;
    for sample in samples {
        let r = measure_roundtrip(comp, sample, dim, eb).expect("roundtrip");
        original += r.original_bytes;
        compressed += r.compressed_bytes;
        compress_s += r.compress_seconds;
        decompress_s += r.decompress_seconds;
        max_err = max_err.max(r.max_abs_error);
    }
    CompressionReport {
        compressor: comp.name().to_string(),
        original_bytes: original,
        compressed_bytes: compressed,
        ratio: original as f64 / compressed.max(1) as f64,
        compress_seconds: compress_s,
        decompress_seconds: decompress_s,
        compress_throughput: original as f64 / compress_s.max(1e-9),
        decompress_throughput: original as f64 / decompress_s.max(1e-9),
        max_abs_error: max_err,
        error_bound: eb,
    }
}

/// The plain (non-overlapped) all-to-all the figures' estimates assume.
const SEQUENTIAL_A2A: Dataflow = Dataflow::AllToAll { overlapped: false };

/// Figure 11: average compression ratio, throughput and estimated all-to-all
/// speedup of every compressor on both presets (batch 128 / 2048, B = 4 GB/s).
pub fn fig11(opts: &ExpOptions) -> String {
    let mut out = String::from(
        "Figure 11 — compression ratio, throughput, and communication speedup\n(all-to-all bandwidth 4 GB/s; throughputs are this machine's CPU, the paper's are A100 kernels)\n\n",
    );
    for dataset in presets_for(opts.scale) {
        let samples = workloads::sampled_traffic(&dataset, opts.scale, 21);
        let dim = dataset.embedding_dim;
        let mut table = TextTable::new(vec![
            "compressor",
            "avg CR",
            "comp GB/s",
            "decomp GB/s",
            "est. a2a speedup",
            "est. overlapped",
        ]);
        for &kind in CompressorKind::all() {
            let comp = kind.build();
            let report = aggregate_over_tables(comp.as_ref(), &samples, dim, 0.01);
            let inputs = SpeedupInputs::from_report(&report, PAPER_BANDWIDTH);
            let est = estimate_speedup(inputs, SEQUENTIAL_A2A);
            let est_overlapped = estimate_speedup(inputs, Dataflow::AllToAll { overlapped: true });
            table.row(vec![
                kind.label().to_string(),
                ratio(report.ratio),
                f2(report.compress_gbps()),
                f2(report.decompress_gbps()),
                ratio(est),
                ratio(est_overlapped),
            ]);
        }
        out.push_str(&format!("dataset: {}\n{}\n", dataset.name, table.render()));
    }
    out
}

/// Table V: per-table compression ratio of every compressor.
pub fn tab5(opts: &ExpOptions) -> String {
    let mut out = String::from(
        "Table V — per-table compression ratio (rows: tables, columns: compressors)\n\n",
    );
    let kinds = [
        CompressorKind::SzLike,
        CompressorKind::FzLike,
        CompressorKind::OursVector,
        CompressorKind::OursHuffman,
        CompressorKind::Lz4Like,
        CompressorKind::DeflateLike,
        CompressorKind::OursHybrid,
    ];
    for dataset in presets_for(opts.scale) {
        let samples = workloads::sampled_traffic(&dataset, opts.scale, 21);
        let dim = dataset.embedding_dim;
        let mut header: Vec<String> = vec!["table".to_string()];
        header.extend(kinds.iter().map(|k| k.label().to_string()));
        let mut table = TextTable::new(header);
        let mut best_count = vec![0usize; kinds.len()];
        for (t, sample) in samples.iter().enumerate() {
            let ratios: Vec<f64> = kinds
                .iter()
                .map(|k| {
                    let comp = k.build();
                    let bytes = comp.compress(sample, dim, 0.01).expect("compress").len();
                    (sample.len() * 4) as f64 / bytes.max(1) as f64
                })
                .collect();
            let best = ratios
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0);
            best_count[best] += 1;
            let mut row = vec![t.to_string()];
            row.extend(ratios.iter().map(|r| f2(*r)));
            table.row(row);
        }
        out.push_str(&format!(
            "dataset: {} (eb 0.01)\n{}",
            dataset.name,
            table.render()
        ));
        let winners: Vec<String> = kinds
            .iter()
            .zip(best_count.iter())
            .map(|(k, c)| format!("{}={}", k.label(), c))
            .collect();
        out.push_str(&format!("tables won: {}\n\n", winners.join(", ")));
    }
    out
}

/// Table VI: vector-LZ compression-ratio improvement vs window size.
pub fn tab6(opts: &ExpOptions) -> String {
    let windows = [32usize, 64, 128, 255];
    let mut out = String::from(
        "Table VI — vector-LZ compression ratio vs window size (normalised to window 32)\n\n",
    );
    for dataset in presets_for(opts.scale) {
        let samples = workloads::sampled_traffic(&dataset, opts.scale, 33);
        let dim = dataset.embedding_dim;
        let mut header = vec!["window".to_string()];
        header.push("absolute CR".to_string());
        header.push("normalised".to_string());
        let mut table = TextTable::new(header);
        let mut baseline = 0.0f64;
        for (i, &w) in windows.iter().enumerate() {
            let comp = HybridCompressor::with_window(w);
            let mut orig = 0usize;
            let mut compr = 0usize;
            for sample in &samples {
                let bytes = Compressor::compress(&comp, sample, dim, 0.01)
                    .expect("compress")
                    .len();
                orig += sample.len() * 4;
                compr += bytes;
            }
            let cr = orig as f64 / compr.max(1) as f64;
            if i == 0 {
                baseline = cr;
            }
            table.row(vec![w.to_string(), f2(cr), ratio(cr / baseline)]);
        }
        out.push_str(&format!("dataset: {}\n{}\n", dataset.name, table.render()));
    }
    out
}

/// Figure 13: matched-pattern counts and value histograms of two
/// representative tables (one LZ-friendly, one entropy-friendly).
pub fn fig13(opts: &ExpOptions) -> String {
    let dataset = workloads::preset_at(opts.scale, "terabyte");
    let samples = workloads::sampled_traffic(&dataset, opts.scale, 44);
    let dim = dataset.embedding_dim;
    // Pick the most and least homogenizing tables as the two representatives.
    let mut etas: Vec<(usize, f64)> = samples
        .iter()
        .enumerate()
        .map(|(t, s)| (t, homo::homogenization_index(s, dim, 0.01).expect("finite")))
        .collect();
    etas.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let lz_friendly = etas.first().map(|&(t, _)| t).unwrap_or(0);
    let entropy_friendly = etas.last().map(|&(t, _)| t).unwrap_or(0);

    let mut out = format!(
        "Figure 13 — data features of two representative EMB tables ({})\n\n",
        dataset.name
    );
    for (label, t) in [
        ("repeat-heavy", lz_friendly),
        ("spread-out", entropy_friendly),
    ] {
        let sample = &samples[t];
        let stats = vlz::match_stats(sample, dim, 0.01, VlzConfig::default()).expect("stats");
        let hist = Histogram::auto(sample, 32);
        out.push_str(&format!(
            "table {t} ({label}): vectors={} matched_patterns={} distinct_quantized={} value-entropy={:.2} bits\n  histogram {}\n",
            stats.vectors,
            stats.matched,
            stats.distinct_quantized,
            hist.entropy_bits(),
            hist.sparkline()
        ));
        let vlz_cr = {
            let bytes = vlz::compress(sample, dim, 0.01, VlzConfig::default())
                .expect("vlz")
                .len();
            (sample.len() * 4) as f64 / bytes as f64
        };
        let huff_cr = {
            let comp = CompressorKind::OursHuffman.build();
            let bytes = comp.compress(sample, dim, 0.01).expect("huffman").len();
            (sample.len() * 4) as f64 / bytes as f64
        };
        out.push_str(&format!(
            "  vector-LZ CR {} vs entropy CR {}\n\n",
            ratio(vlz_cr),
            ratio(huff_cr)
        ));
    }
    out
}

/// Figure 14: value distributions of representative tables at different
/// training phases (early / middle / late), taken from a real training run.
pub fn fig14(opts: &ExpOptions) -> String {
    let dataset = match opts.scale {
        Scale::Quick => dlrm_data::presets::tiny(),
        Scale::Full => dlrm_data::presets::criteo_kaggle_like(),
    };
    let iterations = match opts.scale {
        Scale::Quick => 12,
        Scale::Full => 60,
    };
    let mut model = Dlrm::new(DlrmConfig::from_dataset(&dataset), 5);
    let mut gen = SyntheticCriteo::new(dataset.clone(), 5);
    let batch_size = dataset.default_batch_size.min(128);
    let snapshots = [0usize, iterations / 2, iterations - 1];
    let tables_to_show: Vec<usize> = vec![0, dataset.num_tables() / 2];

    let mut out = format!(
        "Figure 14 — lookup value distribution across training phases ({}, {} iterations)\n\n",
        dataset.name, iterations
    );
    for iter in 0..iterations {
        let batch = gen.next_batch(batch_size);
        if snapshots.contains(&iter) {
            for &t in &tables_to_show {
                let lookups = model.lookup(t, &batch.sparse[t]);
                let hist = Histogram::auto(lookups.as_slice(), 32);
                out.push_str(&format!(
                    "iter {iter:>4} table {t}: entropy {:.2} bits  {}\n",
                    hist.entropy_bits(),
                    hist.sparkline()
                ));
            }
        }
        model.train_step(&batch, 0.05);
    }
    out.push_str("\n(The distribution shape stays stable across phases, which is why the\ncompression ratio stays flat over training — Section IV-C of the paper.)\n");
    out
}

/// Ablation: Lorenzo prediction hurts on homogenized (repeat-heavy) tables.
pub fn abl2(opts: &ExpOptions) -> String {
    let mut out = String::from(
        "Ablation 2 — prediction (sz-like) vs no-prediction hybrid on homogenized tables\n\n",
    );
    for dataset in presets_for(opts.scale) {
        let samples = workloads::sampled_traffic(&dataset, opts.scale, 21);
        let dim = dataset.embedding_dim;
        let sz = CompressorKind::SzLike.build();
        let ours = CompressorKind::OursHybrid.build();
        let mut table = TextTable::new(vec!["table", "eta", "sz-like CR", "ours CR", "ours/sz"]);
        for (t, sample) in samples.iter().enumerate() {
            let eta = homo::homogenization_index(sample, dim, 0.01).expect("finite");
            if eta < 0.5 {
                continue;
            }
            let sz_cr = (sample.len() * 4) as f64
                / sz.compress(sample, dim, 0.01).expect("sz").len() as f64;
            let ours_cr = (sample.len() * 4) as f64
                / ours.compress(sample, dim, 0.01).expect("ours").len() as f64;
            table.row(vec![
                t.to_string(),
                f2(eta),
                f2(sz_cr),
                f2(ours_cr),
                ratio(ours_cr / sz_cr),
            ]);
        }
        if table.is_empty() {
            out.push_str(&format!(
                "dataset: {} — no tables with eta > 0.5 in this sample\n\n",
                dataset.name
            ));
        } else {
            out.push_str(&format!("dataset: {}\n{}\n", dataset.name, table.render()));
        }
    }
    out
}

/// Ablation: the Equation-2 selection model vs always-LZ / always-Huffman.
pub fn abl3(opts: &ExpOptions) -> String {
    let mut out = String::from(
        "Ablation 3 — per-table compressor selection (Eq. 2) vs fixed back-end, at 4 GB/s\n\n",
    );
    for dataset in presets_for(opts.scale) {
        let samples = workloads::sampled_traffic(&dataset, opts.scale, 21);
        let dim = dataset.embedding_dim;
        type SelectionStrategy = Box<dyn Fn(&Vec<f32>) -> CompressorKind>;
        let strategies: Vec<(&str, SelectionStrategy)> = vec![
            (
                "always vector-LZ",
                Box::new(|_: &Vec<f32>| CompressorKind::OursVector),
            ),
            (
                "always Huffman",
                Box::new(|_: &Vec<f32>| CompressorKind::OursHuffman),
            ),
            (
                "selected per table",
                Box::new(move |sample: &Vec<f32>| {
                    [CompressorKind::OursVector, CompressorKind::OursHuffman]
                        .iter()
                        .map(|&k| {
                            let comp = k.build();
                            let report =
                                measure_roundtrip(comp.as_ref(), sample, dim, 0.01).expect("rt");
                            let inputs = SpeedupInputs::from_report(&report, PAPER_BANDWIDTH);
                            (k, estimate_speedup(inputs, SEQUENTIAL_A2A))
                        })
                        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                        .expect("two candidates")
                        .0
                }),
            ),
        ];
        let mut table = TextTable::new(vec!["strategy", "overall CR", "est. a2a speedup"]);
        for (name, pick) in &strategies {
            let mut orig = 0usize;
            let mut comp_bytes = 0usize;
            let mut comp_s = 0.0;
            let mut decomp_s = 0.0;
            for sample in &samples {
                let kind = pick(sample);
                let comp = kind.build();
                let r = measure_roundtrip(comp.as_ref(), sample, dim, 0.01).expect("rt");
                orig += r.original_bytes;
                comp_bytes += r.compressed_bytes;
                comp_s += r.compress_seconds;
                decomp_s += r.decompress_seconds;
            }
            let cr = orig as f64 / comp_bytes.max(1) as f64;
            let est = estimate_speedup(
                SpeedupInputs {
                    ratio: cr,
                    compress_throughput: orig as f64 / comp_s.max(1e-9),
                    decompress_throughput: orig as f64 / decomp_s.max(1e-9),
                    bandwidth: PAPER_BANDWIDTH,
                },
                SEQUENTIAL_A2A,
            );
            table.row(vec![name.to_string(), f2(cr), ratio(est)]);
        }
        out.push_str(&format!("dataset: {}\n{}\n", dataset.name, table.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_reports_render() {
        let opts = ExpOptions::quick();
        for report in [fig11(&opts), tab6(&opts), fig13(&opts), abl2(&opts)] {
            assert!(report.len() > 80, "report too short:\n{report}");
        }
    }

    #[test]
    fn tab5_contains_every_table_row() {
        let opts = ExpOptions::quick();
        let report = tab5(&opts);
        assert!(report.contains("tables won"));
    }
}
