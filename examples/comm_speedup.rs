//! All-to-all communication speedup as a function of network bandwidth:
//! the Equation-2 model evaluated with measured compressor statistics, plus a
//! verification run on the simulated cluster.
//!
//! Run with:
//! ```text
//! cargo run --release --example comm_speedup
//! ```

use dlrm_lossy_comm::adaptive::speedup::{estimate_speedup, Dataflow, SpeedupInputs};
use dlrm_lossy_comm::comm::{NetworkConfig, SimCluster};
use dlrm_lossy_comm::compress::{measure_roundtrip, CompressorKind};
use dlrm_lossy_comm::data::{presets, EmbeddingTrafficGenerator};

fn main() {
    let dataset = presets::criteo_terabyte_like();
    let dim = dataset.embedding_dim;
    let mut traffic = EmbeddingTrafficGenerator::new(dataset.clone(), 3);

    // Aggregate traffic over every table (one batch each) to get the average
    // compressor behaviour on this dataset.
    let mut payload = Vec::new();
    for t in 0..dataset.num_tables() {
        payload.extend(traffic.lookup_batch(t, 256).into_vec());
    }
    let compressor = CompressorKind::OursHybrid.build();
    let report = measure_roundtrip(compressor.as_ref(), &payload, dim, 0.01).expect("round trip");
    println!(
        "hybrid compressor on {}: ratio {:.2}x, compress {:.2} MB/s, decompress {:.2} MB/s (CPU)\n",
        dataset.name,
        report.ratio,
        report.compress_throughput / 1e6,
        report.decompress_throughput / 1e6
    );

    println!("Equation-2 all-to-all speedup vs network bandwidth");
    println!("(using the paper's reported GPU codec throughputs of 40.5 / 205.4 GB/s):");
    println!("{:>14} {:>12}", "bandwidth", "speedup");
    for gbps in [1.0f64, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
        let s = estimate_speedup(
            SpeedupInputs {
                ratio: report.ratio,
                compress_throughput: 40.5e9,
                decompress_throughput: 205.4e9,
                bandwidth: gbps * 1e9,
            },
            Dataflow::AllToAll { overlapped: false },
        );
        println!("{:>11} GB/s {:>11.2}x", gbps, s);
    }

    // Cross-check with the simulated cluster: move the same payload raw and
    // compressed through an 8-rank all-to-all and compare modelled times.
    let world = 8;
    let compressed = compressor.compress(&payload, dim, 0.01).expect("compress");
    let raw_bytes: Vec<u8> = payload.iter().flat_map(|v| v.to_le_bytes()).collect();
    println!("\nsimulated {world}-rank all-to-all at 4 GB/s (α–β model):");
    for (name, bytes) in [
        ("raw fp32", raw_bytes.len()),
        ("compressed", compressed.len()),
    ] {
        let chunk = bytes / world;
        let cluster = SimCluster::new(world, NetworkConfig::default());
        let times = cluster.run(move |ctx| {
            let mut send: Vec<_> = (0..world)
                .map(|_| ctx.pool().adopt(vec![0u8; chunk]))
                .collect();
            let stats = ctx.all_to_all_pooled(&mut send, &mut Vec::new());
            ctx.cost_model().alltoall_time(stats.sent, stats.received)
        });
        let slowest = times.into_iter().fold(0.0f64, f64::max);
        println!(
            "  {name:<12} {:>10} bytes/rank  modelled time {:.6} s",
            chunk, slowest
        );
    }
}
