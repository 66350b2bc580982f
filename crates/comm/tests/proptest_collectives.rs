//! Property-based tests of the simulated collectives: all-to-all delivers a
//! correct permutation for arbitrary chunk sizes, the variable-size variant
//! reports sizes faithfully, all-reduce equals a sequential sum on every
//! rank, the compressed all-reduce with a lossless codec is bit-identical to
//! the plain one, and the hierarchical all-to-all delivers payloads
//! bit-identical to the flat collective for arbitrary node shapes.

use dlrm_comm::{
    ExchangeBytes, NetworkConfig, PooledBuf, RawF32Codec, ReduceScratch, SimCluster, Topology,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_to_all_is_a_correct_exchange_for_arbitrary_sizes(
        world in 1usize..6,
        sizes in prop::collection::vec(0usize..200, 36),
    ) {
        let sizes = std::sync::Arc::new(sizes);
        let cluster = SimCluster::new(world, NetworkConfig::infinite());
        let sizes_for_ranks = std::sync::Arc::clone(&sizes);
        let results = cluster.run(move |ctx| {
            let me = ctx.rank();
            let chunks: Vec<Vec<u8>> = (0..world)
                .map(|dst| {
                    let len = sizes_for_ranks[(me * world + dst) % sizes_for_ranks.len()];
                    vec![(me as u8) ^ (dst as u8); len]
                })
                .collect();
            let (received, _) = ctx.all_to_all_bytes(chunks);
            (me, received)
        });
        for (me, received) in results {
            for (src, chunk) in received.iter().enumerate() {
                let expected_len = sizes[(src * world + me) % sizes.len()];
                prop_assert_eq!(chunk.len(), expected_len);
                prop_assert!(chunk.iter().all(|&b| b == (src as u8) ^ (me as u8)));
            }
        }
    }

    #[test]
    fn variable_all_to_all_metadata_matches_payloads(
        world in 1usize..5,
        base in 0usize..64,
    ) {
        let cluster = SimCluster::new(world, NetworkConfig::infinite());
        cluster.run(move |ctx| {
            let mut send: Vec<_> = (0..world)
                .map(|dst| ctx.pool().adopt(vec![7u8; base + ctx.rank() * 3 + dst]))
                .collect();
            let tags: Vec<u32> = (0..world).map(|d| d as u32 + 100).collect();
            let (mut payloads, mut metadata) = (Vec::new(), Vec::new());
            ctx.all_to_all_var_pooled(&mut send, &mut payloads, &tags, &mut metadata);
            for (src, payload) in payloads.iter().enumerate() {
                assert_eq!(metadata[src].0, payload.len());
                assert_eq!(metadata[src].1, ctx.rank() as u32 + 100);
                assert_eq!(payload.len(), base + src * 3 + ctx.rank());
            }
        });
    }

    #[test]
    fn all_reduce_equals_sequential_sum(
        world in 1usize..6,
        values in prop::collection::vec(-100.0f32..100.0, 1..64),
    ) {
        let len = values.len();
        let values = std::sync::Arc::new(values);
        let cluster = SimCluster::new(world, NetworkConfig::infinite());
        let vals = std::sync::Arc::clone(&values);
        let results = cluster.run(move |ctx| {
            // Rank r contributes values rotated by r so ranks differ.
            let mut data: Vec<f32> = (0..len)
                .map(|i| vals[(i + ctx.rank()) % len])
                .collect();
            ctx.all_reduce_sum(&mut data);
            data
        });
        // Expected: sum over ranks of the rotated vectors.
        let mut expected = vec![0.0f32; len];
        for r in 0..world {
            for (i, e) in expected.iter_mut().enumerate() {
                *e += values[(i + r) % len];
            }
        }
        for result in results {
            for (a, b) in result.iter().zip(expected.iter()) {
                prop_assert!((a - b).abs() <= 1e-3 * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    fn compressed_all_reduce_with_lossless_codec_is_bit_identical(
        world in 1usize..6,
        values in prop::collection::vec(-100.0f32..100.0, 0..96),
    ) {
        // Satellite acceptance: `all_reduce_compressed` with the identity
        // codec must match `all_reduce_sum` bit for bit on every rank —
        // arbitrary vector lengths (empty shards included) and world sizes.
        let len = values.len();
        let values = std::sync::Arc::new(values);
        let cluster = SimCluster::new(world, NetworkConfig::infinite());
        let vals = std::sync::Arc::clone(&values);
        let results = cluster.run(move |ctx| {
            let contribution: Vec<f32> = (0..len)
                .map(|i| vals[(i + ctx.rank()) % len.max(1)] * (1.0 + ctx.rank() as f32 * 0.125))
                .collect();
            let mut plain = contribution.clone();
            let plain_stats = ctx.all_reduce_sum(&mut plain);
            let mut compressed = contribution;
            let mut scratch = ReduceScratch::new();
            let stats = ctx.all_reduce_compressed(
                &mut compressed,
                &mut RawF32Codec,
                &mut scratch,
            );
            (plain, plain_stats, compressed, stats)
        });
        let reference = &results[0].0;
        for (rank, (plain, plain_stats, compressed, stats)) in results.iter().enumerate() {
            for (i, (a, b)) in plain.iter().zip(compressed.iter()).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "rank {} element {}: {} vs {}",
                    rank, i, a, b
                );
            }
            // Bit-identical across ranks as well.
            for (a, b) in compressed.iter().zip(reference.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            // The raw codec's wire bytes ARE the raw bytes, and match the
            // plain collective's accounting.
            prop_assert_eq!(stats.wire, stats.raw);
            prop_assert_eq!(&stats.wire, plain_stats);
        }
    }

    #[test]
    fn hierarchical_all_to_all_is_bit_identical_to_flat(
        nodes in 1usize..5,
        ranks_per_node in 1usize..5,
        sizes in prop::collection::vec(0usize..200, 36),
        salt in 0u8..255,
    ) {
        // Tentpole acceptance: for arbitrary world shapes — the degenerate
        // `nodes == 1` and `ranks_per_node == 1` cases included — the
        // two-level collective must deliver exactly the bytes the flat
        // pooled all-to-all delivers; only the route differs.
        let net = NetworkConfig::infinite();
        let topo = Topology::new(nodes, ranks_per_node, net, net);
        let world = topo.world();
        let sizes = std::sync::Arc::new(sizes);
        let cluster = SimCluster::new(world, net);
        let sizes_for_ranks = std::sync::Arc::clone(&sizes);
        let results = cluster.run(move |ctx| {
            let me = ctx.rank();
            let payload = |src: usize, dst: usize| -> Vec<u8> {
                let len = sizes_for_ranks[(src * 31 + dst * 7) % sizes_for_ranks.len()];
                (0..len)
                    .map(|i| {
                        (src as u8)
                            .wrapping_mul(37)
                            .wrapping_add((dst as u8).wrapping_mul(11))
                            ^ (i as u8)
                            ^ salt
                    })
                    .collect()
            };
            let build = |ctx: &dlrm_comm::RankCtx| -> Vec<PooledBuf> {
                (0..world)
                    .map(|d| {
                        let p = payload(me, d);
                        let mut b = ctx.take_buf(p.len().max(1));
                        b.extend_from_slice(&p);
                        b
                    })
                    .collect()
            };
            let mut send = build(&ctx);
            let mut flat_recv: Vec<PooledBuf> = Vec::new();
            ctx.all_to_all_pooled(&mut send, &mut flat_recv);
            let mut send = build(&ctx);
            let mut hier_recv: Vec<PooledBuf> = Vec::new();
            let bytes = ctx.all_to_all_hier_pooled(&topo, &mut send, &mut hier_recv);
            let flat: Vec<Vec<u8>> = flat_recv.drain(..).map(PooledBuf::into_vec).collect();
            let hier: Vec<Vec<u8>> = hier_recv.drain(..).map(PooledBuf::into_vec).collect();
            (me, flat, hier, bytes)
        });
        for (me, flat, hier, bytes) in results {
            for (src, (f, h)) in flat.iter().zip(hier.iter()).enumerate() {
                prop_assert_eq!(
                    f, h,
                    "rank {} received different bytes from {} ({}x{})",
                    me, src, nodes, ranks_per_node
                );
            }
            // Tier invariants of the degenerate shapes.
            if nodes == 1 {
                prop_assert_eq!(bytes.exchange, ExchangeBytes::default());
                prop_assert_eq!(bytes.scatter, ExchangeBytes::default());
            }
            if ranks_per_node == 1 {
                prop_assert_eq!(bytes.gather, ExchangeBytes::default());
                prop_assert_eq!(bytes.scatter, ExchangeBytes::default());
            }
            if !topo.is_leader(me) {
                prop_assert_eq!(bytes.exchange, ExchangeBytes::default());
            }
        }
    }
}
