//! Thread-per-rank simulated cluster and its collective operations.
//!
//! [`SimCluster::run`] spawns one OS thread per rank and hands each a
//! [`RankCtx`] providing the collectives a hybrid-parallel DLRM needs. The
//! program is SPMD: every rank must call the same sequence of collectives
//! (as with MPI/NCCL), and because each ordered `(src, dst)` pair has its own
//! FIFO channel, matching sends and receives line up without message tags.
//!
//! Collectives move real buffers; they also *return* the number of bytes the
//! calling rank sent and received so the caller can charge virtual time via
//! [`crate::cost::CostModel`].
//!
//! Every message travels as a [`PooledBuf`] leased from the sending rank's
//! [`BufferPool`]: when the receiver drops (or returns) its lease, the
//! buffer's storage recycles to the sender's pool for the next iteration, so
//! the steady-state exchange allocates nothing. The `*_pooled` collectives
//! expose this directly through caller-owned send/recv containers; the
//! classic `Vec<u8>`-based entry points remain as thin wrappers.

use crate::cost::{CostModel, NetworkConfig};
use crate::fabric::{run_on_mesh, Fabric, GatePolicy, WirePolicy};
use crate::pool::{BufferPool, PooledBuf};
use crate::reduce::{
    shard_range, RawF32Codec, ReduceCodec, ReduceScratch, ReduceStats, TieredReduceStats,
};
use crate::topology::{HierExchangeBytes, Topology};
use std::cell::RefCell;
use std::ops::Range;

/// Bytes of metadata exchanged per peer in the metadata phase of a
/// variable-size all-to-all (compressed size + compressor id + flags).
pub const METADATA_RECORD_BYTES: usize = 16;

/// Bytes of the self-describing header prefixed to every chunk of the
/// *chunked* all-to-all: `[payload_len u64][tag u32][reserved u32]`. Same
/// size and content as a metadata record — the chunked collective inlines
/// the metadata into each chunk instead of running a separate metadata
/// phase, as a streaming pipeline must (the sizes are only known chunk by
/// chunk).
pub const CHUNK_HEADER_BYTES: usize = 16;

/// Bytes of the `[src u32][dst u32][len u32]` frame prefixed to every chunk
/// carried inside a hierarchical-all-to-all bundle (bundles additionally
/// carry a 4-byte entry count), so relaying leaders can split aggregated
/// node-pair payloads back into per-rank chunks.
pub const HIER_ENTRY_HEADER_BYTES: usize = 12;

/// A simulated cluster of `world` ranks.
#[derive(Debug, Clone, Copy)]
pub struct SimCluster {
    world: usize,
    network: NetworkConfig,
}

impl SimCluster {
    /// Create a cluster with `world` ranks over the given network.
    pub fn new(world: usize, network: NetworkConfig) -> Self {
        assert!(world > 0, "cluster needs at least one rank");
        Self { world, network }
    }

    /// Number of ranks.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Run `f` on every rank concurrently and collect the per-rank results in
    /// rank order.
    ///
    /// Runs free-running threads over an instant wire — the
    /// correctness-oriented defaults. Experiments that need serialized
    /// scheduling or a wall-clock-paced wire drive
    /// [`run_on_mesh`] (or `dlrm-exec`'s
    /// executor) directly.
    ///
    /// # Panics
    /// Panics if any rank's closure panics (the panic is propagated).
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(RankCtx) -> T + Send + Sync + 'static,
    {
        run_on_mesh(
            self.world,
            self.network,
            GatePolicy::FreeRunning,
            WirePolicy::Instant,
            f,
        )
    }
}

/// Byte accounting returned by every collective, for cost-model charging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExchangeBytes {
    /// Total bytes this rank sent to its peers (excluding the local copy).
    pub sent: usize,
    /// Total bytes this rank received from its peers (excluding the local copy).
    pub received: usize,
}

/// Reusable containers for the collectives' internal message handles, so a
/// steady-state caller allocates nothing per call. Interior state of
/// [`RankCtx`] (each rank thread owns its ctx exclusively).
#[derive(Debug, Default)]
struct CollectiveScratch {
    bufs_a: Vec<PooledBuf>,
    bufs_b: Vec<PooledBuf>,
    /// Per-destination "chunk sent" flags of an in-flight chunked all-to-all.
    sent_flags: Vec<bool>,
    /// Per-source "chunk received" flags of an in-flight chunked all-to-all.
    recv_flags: Vec<bool>,
    /// Float/byte staging of [`RankCtx::all_reduce_sum`]'s reduce-scatter +
    /// all-gather schedule.
    reduce: ReduceScratch,
    /// Per-source assembly slots of the hierarchical all-to-all.
    slots: Vec<Option<PooledBuf>>,
    /// Reusable length staging of the hierarchical all-to-all (chunk sizes,
    /// then per-member scatter-bundle sizes).
    lens: Vec<usize>,
}

/// Per-rank handle to the simulated cluster.
pub struct RankCtx {
    rank: usize,
    world: usize,
    /// The wire every collective moves bytes over. See
    /// [`crate::fabric::ChannelFabric`] for the one backend.
    fabric: Box<dyn Fabric>,
    pool: BufferPool,
    cost: CostModel,
    scratch: RefCell<CollectiveScratch>,
}

impl RankCtx {
    /// Build a rank context over an existing fabric endpoint — the
    /// constructor `dlrm-exec`'s executor (and any future backend) uses.
    /// `network` drives the α–β cost model the collectives charge virtual
    /// time against; `pool` backs every buffer this rank leases.
    pub fn from_fabric(fabric: Box<dyn Fabric>, network: NetworkConfig, pool: BufferPool) -> Self {
        Self {
            rank: fabric.rank(),
            world: fabric.world(),
            fabric,
            pool,
            cost: CostModel::new(network),
            scratch: RefCell::new(CollectiveScratch::default()),
        }
    }

    /// This rank's id, in `[0, world)`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the cluster.
    pub fn world(&self) -> usize {
        self.world
    }

    /// The α–β cost model of the cluster's network.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// The point-to-point fabric under this rank's collectives.
    pub fn fabric(&self) -> &dyn Fabric {
        self.fabric.as_ref()
    }

    /// This rank's buffer pool backing every collective it initiates.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Lease a cleared send buffer with at least `capacity` bytes from this
    /// rank's pool.
    pub fn take_buf(&self, capacity: usize) -> PooledBuf {
        self.pool.take(capacity)
    }

    /// Synchronise all ranks.
    pub fn barrier(&self) {
        self.fabric.barrier();
    }

    /// Zero-allocation all-to-all: drains the `send` container (entry `d`
    /// goes to rank `d`) and refills `recv` so its entry `s` is the chunk
    /// received from rank `s`. The local chunk is moved, not copied. Both
    /// containers keep their capacity, and every chunk is a pool lease, so a
    /// steady-state caller allocates nothing.
    ///
    /// # Panics
    /// Panics if `send.len() != world`.
    pub fn all_to_all_pooled(
        &self,
        send: &mut Vec<PooledBuf>,
        recv: &mut Vec<PooledBuf>,
    ) -> ExchangeBytes {
        assert_eq!(
            send.len(),
            self.world,
            "all_to_all needs exactly one chunk per rank"
        );
        let mut stats = ExchangeBytes::default();
        // Keep the local chunk aside, send the rest.
        let mut local: Option<PooledBuf> = None;
        for (dst, chunk) in send.drain(..).enumerate() {
            if dst == self.rank {
                local = Some(chunk);
            } else {
                stats.sent += chunk.len();
                self.fabric.send(dst, chunk);
            }
        }
        recv.clear();
        recv.reserve(self.world);
        for src in 0..self.world {
            if src == self.rank {
                recv.push(local.take().expect("local chunk present"));
            } else {
                let chunk = self.fabric.recv(src);
                stats.received += chunk.len();
                recv.push(chunk);
            }
        }
        stats
    }

    /// All-to-all over byte chunks: `chunks[d]` goes to rank `d`; the return
    /// value's entry `s` is the chunk received from rank `s` (the local chunk
    /// is moved, not copied through a channel).
    ///
    /// # Panics
    /// Panics if `chunks.len() != world`.
    pub fn all_to_all_bytes(&self, chunks: Vec<Vec<u8>>) -> (Vec<Vec<u8>>, ExchangeBytes) {
        let mut send: Vec<PooledBuf> = chunks.into_iter().map(|c| self.pool.adopt(c)).collect();
        let mut recv = Vec::with_capacity(self.world);
        let stats = self.all_to_all_pooled(&mut send, &mut recv);
        (recv.into_iter().map(PooledBuf::into_vec).collect(), stats)
    }

    /// Zero-allocation variable-size all-to-all as the paper's pipeline
    /// performs it: a metadata phase announcing each chunk's size (and
    /// compressor id), then the payload phase. Functionally the sizes are
    /// implicit in the channel messages; the explicit metadata exchange
    /// exists so its cost can be charged and so receivers could pre-allocate,
    /// as a real NCCL implementation must.
    ///
    /// Drains `send`, refills `recv` (chunk from rank `s` at entry `s`) and
    /// refills `records` with the metadata record `(payload_len, tag)` from
    /// each source. Metadata messages ride pool leases, so the steady state
    /// allocates nothing.
    pub fn all_to_all_var_pooled(
        &self,
        send: &mut Vec<PooledBuf>,
        recv: &mut Vec<PooledBuf>,
        tags: &[u32],
        records: &mut Vec<(usize, u32)>,
    ) -> ExchangeBytes {
        assert_eq!(send.len(), self.world);
        assert_eq!(tags.len(), self.world);
        // Metadata phase (reusable containers come from the ctx scratch).
        let mut scratch = self.scratch.borrow_mut();
        let mut meta_send = std::mem::take(&mut scratch.bufs_a);
        let mut meta_recv = std::mem::take(&mut scratch.bufs_b);
        drop(scratch);
        meta_send.clear();
        for (chunk, &tag) in send.iter().zip(tags.iter()) {
            let mut m = self.pool.take(METADATA_RECORD_BYTES);
            m.extend_from_slice(&(chunk.len() as u64).to_le_bytes());
            m.extend_from_slice(&tag.to_le_bytes());
            m.resize(METADATA_RECORD_BYTES, 0);
            meta_send.push(m);
        }
        let meta_stats = self.all_to_all_pooled(&mut meta_send, &mut meta_recv);
        records.clear();
        records.reserve(self.world);
        records.extend(meta_recv.iter().map(|m| {
            let len = u64::from_le_bytes(m[0..8].try_into().expect("8 bytes")) as usize;
            let tag = u32::from_le_bytes(m[8..12].try_into().expect("4 bytes"));
            (len, tag)
        }));
        meta_recv.clear(); // release metadata leases back to the pool
        let mut scratch = self.scratch.borrow_mut();
        scratch.bufs_a = meta_send;
        scratch.bufs_b = meta_recv;
        drop(scratch);

        // Payload phase.
        let payload_stats = self.all_to_all_pooled(send, recv);
        // Cross-check the announced sizes — a mismatch means ranks diverged.
        for (src, payload) in recv.iter().enumerate() {
            assert_eq!(
                records[src].0,
                payload.len(),
                "rank {}: metadata from {src} disagrees with payload size",
                self.rank
            );
        }
        ExchangeBytes {
            sent: meta_stats.sent + payload_stats.sent,
            received: meta_stats.received + payload_stats.received,
        }
    }

    /// Lease a send buffer for the chunked all-to-all: the first
    /// [`CHUNK_HEADER_BYTES`] are reserved (zeroed) for the self-describing
    /// header that [`ChunkedAllToAll::send`] back-patches; the payload is
    /// appended after them.
    pub fn take_chunk_buf(&self, capacity: usize) -> PooledBuf {
        let mut buf = self.pool.take(capacity.max(CHUNK_HEADER_BYTES));
        buf.extend_from_slice(&[0u8; CHUNK_HEADER_BYTES]);
        buf
    }

    /// Start a non-blocking chunked all-to-all. See [`ChunkedAllToAll`].
    ///
    /// Exactly one chunk must be sent to and received from every rank
    /// (including this one — the local chunk is moved, not copied) before
    /// [`ChunkedAllToAll::finish`] is called.
    pub fn begin_chunked(&self) -> ChunkedAllToAll<'_> {
        let mut scratch = self.scratch.borrow_mut();
        let mut sent = std::mem::take(&mut scratch.sent_flags);
        let mut received = std::mem::take(&mut scratch.recv_flags);
        drop(scratch);
        sent.clear();
        sent.resize(self.world, false);
        received.clear();
        received.resize(self.world, false);
        ChunkedAllToAll {
            ctx: self,
            stats: ExchangeBytes::default(),
            local: None,
            sent,
            received,
            finished: false,
        }
    }

    /// Chunked all-to-all over header-prefixed chunks (each built with
    /// [`RankCtx::take_chunk_buf`]): drains `send` (entry `d` to rank `d`),
    /// refills `recv` so entry `s` is the chunk received from rank `s` —
    /// *with its header still in place*, payload at
    /// `&chunk[CHUNK_HEADER_BYTES..]` — and refills `records` with each
    /// source's `(payload_len, tag)`.
    ///
    /// Unlike [`RankCtx::all_to_all_var_pooled`] there is no separate
    /// metadata phase: every chunk carries its own 16-byte header, so total
    /// bytes on the wire are identical, but sizes arrive streamed with the
    /// chunks. All sends are issued before any receive completes; a caller
    /// that wants true compress/transfer interleaving drives
    /// [`ChunkedAllToAll`] directly.
    pub fn all_to_all_chunked(
        &self,
        send: &mut Vec<PooledBuf>,
        recv: &mut Vec<PooledBuf>,
        tags: &[u32],
        records: &mut Vec<(usize, u32)>,
    ) -> ExchangeBytes {
        assert_eq!(send.len(), self.world);
        assert_eq!(tags.len(), self.world);
        let mut exchange = self.begin_chunked();
        for (dst, chunk) in send.drain(..).enumerate() {
            exchange.send(dst, chunk, tags[dst]);
        }
        recv.clear();
        recv.reserve(self.world);
        records.clear();
        records.reserve(self.world);
        for src in 0..self.world {
            let (chunk, payload_len, tag) = exchange.recv(src);
            records.push((payload_len, tag));
            recv.push(chunk);
        }
        exchange.finish()
    }

    /// Two-level hierarchical all-to-all over a node-aware [`Topology`]:
    /// same-node chunks move directly over the intra tier, inter-node-bound
    /// chunks are **gathered onto the node's leader**, exchanged between
    /// leaders as one aggregated bundle per node pair, and **scattered** to
    /// their destination ranks — the message pattern of a real two-level
    /// NCCL/MPI all-to-all, where only leaders touch the fabric.
    ///
    /// Drains `send` (entry `d` to rank `d`) and refills `recv` so entry `s`
    /// holds exactly the bytes rank `s` sent — **bit-identical** to
    /// [`RankCtx::all_to_all_pooled`] (property-tested); only the route, the
    /// per-tier wire volume and therefore the modeled time change. Chunks
    /// inside bundles are framed with [`HIER_ENTRY_HEADER_BYTES`] headers so
    /// leaders can relay payloads they cannot interpret (e.g. compressed
    /// blocks) verbatim.
    ///
    /// Returns per-phase byte accounting ([`HierExchangeBytes`]): gather and
    /// scatter ride the intra tier, the leader exchange the fabric — the
    /// inputs of [`crate::topology::TieredCostModel::hier_alltoall_time`].
    /// All bundles and delivered chunks ride pool leases sized exactly, so a
    /// steady-state caller (with warmed spares parked) allocates nothing.
    ///
    /// Degenerate shapes hold: `nodes == 1` performs only direct intra sends
    /// (no bundling), `ranks_per_node == 1` makes every rank a leader (no
    /// gather/scatter).
    ///
    /// # Panics
    /// Panics if `topo.world() != world` or `send.len() != world`.
    // Rank ids index channels AND assembly slots together; range loops over
    // rank ranges read better than enumerate/skip/take chains here.
    #[allow(clippy::needless_range_loop)]
    pub fn all_to_all_hier_pooled(
        &self,
        topo: &Topology,
        send: &mut Vec<PooledBuf>,
        recv: &mut Vec<PooledBuf>,
    ) -> HierExchangeBytes {
        assert_eq!(
            topo.world(),
            self.world,
            "topology does not match the cluster's world"
        );
        assert_eq!(
            send.len(),
            self.world,
            "all_to_all needs exactly one chunk per rank"
        );
        let world = self.world;
        let rank = self.rank;
        let rpn = topo.ranks_per_node();
        let nodes = topo.nodes();
        let my_node = topo.node_of(rank);
        let node_first = my_node * rpn;
        let leader = topo.leader_of(rank);
        let am_leader = rank == leader;
        let mut bytes = HierExchangeBytes::default();

        let mut scratch = self.scratch.borrow_mut();
        let mut slots = std::mem::take(&mut scratch.slots);
        let mut bufs_a = std::mem::take(&mut scratch.bufs_a);
        let mut bufs_b = std::mem::take(&mut scratch.bufs_b);
        let mut lens = std::mem::take(&mut scratch.lens);
        drop(scratch);
        slots.clear();
        slots.resize_with(world, || None);
        bufs_a.clear();
        bufs_b.clear();
        lens.clear();
        lens.extend(send.iter().map(|c| c.len()));

        // ── Phase A sends, in destination order (so every channel's message
        // sequence is the one the matching receive schedule below expects):
        // the local chunk is kept, same-node chunks are posted directly,
        // and inter-node chunks are bundled — members frame one bundle per
        // remote node for their leader, the leader parks its own (bufs_b,
        // ascending destination order) for the exchange bundles it builds.
        {
            let mut chunks = send.drain(..);
            for dst_node in 0..nodes {
                let first = dst_node * rpn;
                if dst_node == my_node {
                    for dst in first..first + rpn {
                        let chunk = chunks.next().expect("one chunk per destination");
                        if dst == rank {
                            slots[dst] = Some(chunk);
                        } else {
                            bytes.gather.sent += chunk.len();
                            self.fabric.send(dst, chunk);
                        }
                    }
                } else if am_leader {
                    bufs_b.extend(
                        (first..first + rpn)
                            .map(|_| chunks.next().expect("one chunk per destination")),
                    );
                } else {
                    let total = 4
                        + (first..first + rpn)
                            .map(|d| HIER_ENTRY_HEADER_BYTES + lens[d])
                            .sum::<usize>();
                    let mut bundle = self.pool.take(total);
                    bundle.extend_from_slice(&(rpn as u32).to_le_bytes());
                    for dst in first..first + rpn {
                        let chunk = chunks.next().expect("one chunk per destination");
                        write_hier_entry(&mut bundle, rank, dst, &chunk);
                    }
                    bytes.gather.sent += bundle.len();
                    self.fabric.send(leader, bundle);
                }
            }
        }

        if am_leader {
            // ── Leader: walk nodes in the same ascending order every member
            // used when sending, so FIFO channels line up — direct chunks at
            // my node's slot, one member segment per remote node otherwise,
            // aggregated (with this leader's own parked chunks) into one
            // exchange bundle per node pair.
            let mut remote_idx = 0usize; // run index into bufs_b
            for dst_node in 0..nodes {
                if dst_node == my_node {
                    for src in node_first + 1..node_first + rpn {
                        let chunk = self.fabric.recv(src);
                        bytes.gather.received += chunk.len();
                        slots[src] = Some(chunk);
                    }
                    continue;
                }
                bufs_a.clear();
                for src in node_first + 1..node_first + rpn {
                    let seg = self.fabric.recv(src);
                    bytes.gather.received += seg.len();
                    bufs_a.push(seg);
                }
                let own = &bufs_b[remote_idx * rpn..(remote_idx + 1) * rpn];
                let own_len: usize = own.iter().map(|c| HIER_ENTRY_HEADER_BYTES + c.len()).sum();
                let seg_len: usize = bufs_a.iter().map(|s| s.len() - 4).sum();
                let mut bundle = self.pool.take(4 + own_len + seg_len);
                bundle.extend_from_slice(&((rpn * rpn) as u32).to_le_bytes());
                for (j, chunk) in own.iter().enumerate() {
                    write_hier_entry(&mut bundle, rank, dst_node * rpn + j, chunk);
                }
                for seg in &bufs_a {
                    let count = u32::from_le_bytes(seg[0..4].try_into().expect("4 bytes")) as usize;
                    assert_eq!(count, rpn, "member segment with the wrong entry count");
                    bundle.extend_from_slice(&seg[4..]);
                }
                bufs_a.clear(); // recycle member segments to their pools
                bytes.exchange.sent += bundle.len();
                self.fabric.send(topo.leader_of_node(dst_node), bundle);
                remote_idx += 1;
            }
            bufs_b.clear(); // own inter chunks were copied into bundles

            // ── Phase B receive + phase C: collect every remote leader's
            // bundle, size the per-member scatter bundles exactly (pass 1),
            // then deliver (pass 2) — own chunks into slots, the rest framed
            // onward to their destination rank. A single-node topology has
            // neither phase.
            if nodes > 1 {
                let sources = (0..nodes)
                    .filter(|&n| n != my_node)
                    .map(|n| topo.leader_of_node(n));
                for src in sources.clone() {
                    let bundle = self.fabric.recv(src);
                    bytes.exchange.received += bundle.len();
                    bufs_a.push(bundle);
                }
                lens.clear();
                lens.resize(rpn, 0);
                for (bundle, src) in bufs_a.iter().zip(sources.clone()) {
                    for (_, dst, payload) in bundle_entries(rank, src, bundle) {
                        assert!(
                            topo.node_of(dst) == my_node,
                            "rank {rank}: bundle entry for foreign rank {dst}"
                        );
                        if dst != rank {
                            lens[dst - node_first] += HIER_ENTRY_HEADER_BYTES + payload.len();
                        }
                    }
                }
                for local in 1..rpn {
                    let mut b = self.pool.take(4 + lens[local]);
                    b.extend_from_slice(&((world - rpn) as u32).to_le_bytes());
                    bufs_b.push(b);
                }
                for (bundle, from) in bufs_a.iter().zip(sources) {
                    for (src, dst, payload) in bundle_entries(rank, from, bundle) {
                        if dst == rank {
                            let mut chunk = self.pool.take(payload.len());
                            chunk.extend_from_slice(payload);
                            slots[src] = Some(chunk);
                        } else {
                            write_hier_entry(&mut bufs_b[dst - node_first - 1], src, dst, payload);
                        }
                    }
                }
                bufs_a.clear(); // recycle the inbound bundles to their leaders
                for (local, bundle) in (1..rpn).zip(bufs_b.drain(..)) {
                    bytes.scatter.sent += bundle.len();
                    self.fabric.send(node_first + local, bundle);
                }
            }
        } else {
            // ── Member: direct chunks from every same-node peer (each
            // peer's first message on its channel), then the leader's
            // scatter bundle (the leader's second message) carrying every
            // inter-node chunk destined here.
            for src in node_first..node_first + rpn {
                if src == rank {
                    continue;
                }
                let chunk = self.fabric.recv(src);
                bytes.gather.received += chunk.len();
                slots[src] = Some(chunk);
            }
            if nodes > 1 {
                let bundle = self.fabric.recv(leader);
                bytes.scatter.received += bundle.len();
                let entries = bundle_entries(rank, leader, &bundle);
                // The framing is checked, so the count field is present.
                let count = u32::from_le_bytes(bundle[0..4].try_into().expect("4 bytes")) as usize;
                assert_eq!(count, world - rpn, "scatter bundle with wrong entry count");
                for (src, dst, payload) in entries {
                    assert_eq!(dst, rank, "misrouted scatter entry");
                    let mut chunk = self.pool.take(payload.len());
                    chunk.extend_from_slice(payload);
                    slots[src] = Some(chunk);
                }
            }
        }

        recv.clear();
        recv.reserve(world);
        for (s, slot) in slots.iter_mut().enumerate() {
            recv.push(
                slot.take()
                    .unwrap_or_else(|| panic!("rank {rank}: no chunk received from {s}")),
            );
        }

        let mut scratch = self.scratch.borrow_mut();
        scratch.slots = slots;
        scratch.bufs_a = bufs_a;
        scratch.bufs_b = bufs_b;
        scratch.lens = lens;
        bytes
    }

    /// All-gather: every rank contributes one byte chunk and receives all
    /// chunks in rank order.
    pub fn all_gather_bytes(&self, chunk: Vec<u8>) -> (Vec<Vec<u8>>, ExchangeBytes) {
        let mut send: Vec<PooledBuf> = Vec::with_capacity(self.world);
        for _ in 0..self.world {
            let mut b = self.pool.take(chunk.len());
            b.extend_from_slice(&chunk);
            send.push(b);
        }
        let mut recv = Vec::with_capacity(self.world);
        let stats = self.all_to_all_pooled(&mut send, &mut recv);
        (recv.into_iter().map(PooledBuf::into_vec).collect(), stats)
    }

    /// Sum-all-reduce over an `f32` vector: every rank ends with the
    /// element-wise sum, accumulated in rank order, so the result is
    /// bit-identical on every rank and to a full-replication schedule's.
    ///
    /// Runs as a **reduce-scatter + all-gather**: each element is summed
    /// once, on the rank owning its shard, so a rank moves `2·(P−1)/P` of the
    /// vector — the volume [`CostModel::allreduce_time`]'s ring formula
    /// assumes. All transfers ride pool leases, so the steady state
    /// allocates nothing.
    pub fn all_reduce_sum(&self, data: &mut [f32]) -> ExchangeBytes {
        let mut scratch = self.scratch.borrow_mut();
        let mut reduce = std::mem::take(&mut scratch.reduce);
        drop(scratch);
        let stats = self.all_reduce_compressed(data, &mut RawF32Codec, &mut reduce);
        self.scratch.borrow_mut().reduce = reduce;
        stats.wire
    }

    /// Sum-all-reduce whose hops carry `codec`-encoded shards: a
    /// reduce-scatter + all-gather ([`shard_range`] split) where every
    /// contribution goes straight to its shard's owner, which folds them in
    /// rank order — **decoded and added**, then re-encoded once, or, for a
    /// codec that [`ReduceCodec::is_homomorphic`], **combined in the
    /// compressed domain** with no owner decodes or re-encode (counted in
    /// [`ReduceStats::combines`]). The owner round-trips its reduced shard
    /// through the codec, so every rank ends with bit-identical values, and
    /// a lossless codec reproduces [`RankCtx::all_reduce_sum`] bit for bit.
    /// A combine fold encodes the owner's own contribution too, so a lossy
    /// homomorphic codec quantizes `world` contributions, not `world − 1`.
    ///
    /// The codec's `offset` argument tells stateful codecs (error feedback)
    /// which elements a shard covers. Returns the wire bytes and the raw
    /// bytes the same schedule would have moved uncompressed. Pool leases and
    /// `scratch` make the steady state allocation-free.
    pub fn all_reduce_compressed<C: ReduceCodec + ?Sized>(
        &self,
        data: &mut [f32],
        codec: &mut C,
        scratch: &mut ReduceScratch,
    ) -> ReduceStats {
        self.all_reduce_sharded(data, codec, scratch, Route::Direct(None))
            .stats
    }

    /// [`RankCtx::all_reduce_compressed`] with per-tier byte accounting over
    /// a node-aware [`Topology`]: the same direct route, wire bytes and
    /// reduced values (bit for bit), with each hop's wire bytes also
    /// bucketed by the tier its `(src, dst)` pair crosses — what
    /// [`crate::topology::TieredCostModel::allreduce_tier_times`] charges.
    /// Homomorphic codecs stay on the direct route here as well.
    pub fn all_reduce_compressed_tiered<C: ReduceCodec + ?Sized>(
        &self,
        data: &mut [f32],
        codec: &mut C,
        scratch: &mut ReduceScratch,
        topo: &Topology,
    ) -> TieredReduceStats {
        self.all_reduce_sharded(data, codec, scratch, Route::Direct(Some(topo)))
    }

    /// Leader-combined hierarchical all-reduce, for homomorphic codecs only:
    /// [`RankCtx::all_reduce_compressed_tiered`] over the **relayed** route.
    /// Members hand remote-node contributions to their node leader, which
    /// combines them into one aggregate per destination shard, so the
    /// reduce-scatter crosses the fabric once per node pair instead of once
    /// per rank pair; the all-gather fans the reduced shards back out
    /// through one leader bundle per node pair.
    ///
    /// An owner folds its node in rank order, then the remote node
    /// aggregates in node order: bit-identical to the direct route for an
    /// associative, commutative combine (the integer lattice), the same sum
    /// re-parenthesised for an f32 one. Degenerate shapes (one node, or one
    /// rank per node) take the direct route, which they match hop for hop.
    ///
    /// # Panics
    /// Panics if the topology's world disagrees with the cluster's or the
    /// codec is not homomorphic.
    pub fn all_reduce_homomorphic_hier<C: ReduceCodec + ?Sized>(
        &self,
        data: &mut [f32],
        codec: &mut C,
        scratch: &mut ReduceScratch,
        topo: &Topology,
    ) -> TieredReduceStats {
        assert!(
            codec.is_homomorphic(),
            "leader-combined all-reduce requires a homomorphic codec"
        );
        let route = if topo.is_single_tier() || topo.ranks_per_node() == 1 {
            Route::Direct(Some(topo))
        } else {
            Route::Relayed(topo)
        };
        self.all_reduce_sharded(data, codec, scratch, route)
    }

    /// The one sharded reduce-scatter + all-gather behind every all-reduce
    /// entry point: `route` decides where a contribution travels, and
    /// [`ReduceCodec::is_homomorphic`] decides the fold — decode-and-add
    /// into `accum` then re-encode once, or combine while encoded.
    ///
    /// The direct route is one group of every rank; the relayed route groups
    /// ranks by node, with node leaders (local rank 0) building, exchanging
    /// and fanning out one bundle per node pair. Every rank walks nodes in
    /// ascending order, so each FIFO channel drains in the order its
    /// receiver expects. An owner folds its group in rank order, the group's
    /// first rank seeding a combine fold, then the remote node aggregates in
    /// ascending node order, each folded in rank order at its leader.
    fn all_reduce_sharded<C: ReduceCodec + ?Sized>(
        &self,
        data: &mut [f32],
        codec: &mut C,
        scratch: &mut ReduceScratch,
        route: Route<'_>,
    ) -> TieredReduceStats {
        let (world, rank) = (self.world, self.rank);
        let (topo, rpn) = match route {
            Route::Direct(topo) => (topo, world),
            Route::Relayed(topo) => (Some(topo), topo.ranks_per_node()),
        };
        assert!(
            topo.is_none_or(|t| t.world() == world),
            "topology does not match the cluster's world"
        );
        let homomorphic = codec.is_homomorphic();
        if world == 1 {
            return TieredReduceStats::default();
        }
        let ReduceScratch {
            accum,
            decode,
            encoded,
            own_enc,
            accs,
        } = scratch;
        let mut s = Sharded {
            ctx: self,
            codec,
            topo,
            len: data.len(),
            stage: decode,
            out: TieredReduceStats::default(),
        };
        let (nodes, my_node, leader) = (world / rpn, rank / rpn, rank / rpn * rpn);
        let am_leader = nodes > 1 && rank == leader;
        let group = |node: usize| node * rpn..(node + 1) * rpn;
        let remote_nodes = || (0..nodes).filter(move |&n| n != my_node);
        let own = s.range(rank);

        // ── Reduce-scatter posts: own-group shards go straight to their
        // owner; a relayed member bundles each remote node's shards for its
        // leader, which keeps its own for the node aggregates below.
        for dst_node in 0..nodes {
            if dst_node == my_node {
                for dst in group(dst_node).filter(|&d| d != rank) {
                    let mut buf = self.pool.take(s.max_encoded(dst));
                    s.encode_shard(dst, &data[s.range(dst)], &mut buf);
                    s.post(dst, buf, s.range(dst).len());
                }
            } else if !am_leader {
                let mut bundle = s.bundle(group(dst_node));
                for dst in group(dst_node) {
                    own_enc.clear();
                    s.encode_shard(dst, &data[s.range(dst)], own_enc);
                    write_hier_entry(&mut bundle, rank, dst, own_enc);
                }
                s.post(leader, bundle, s.span(group(dst_node)));
            }
        }

        // ── Own-group fold, drained in the senders' node order: a relayed
        // leader meets each member's remote-node bundles around the direct
        // chunk for its own shard, folds them into one aggregate per
        // destination shard (seeded by its own contribution) and ships it.
        if homomorphic {
            own_enc.clear();
            s.encode_shard(rank, &data[own.clone()], own_enc);
        } else {
            accum.clear();
            accum.resize(own.len(), 0.0);
        }
        for dst_node in 0..nodes {
            if dst_node == my_node {
                for src in group(my_node) {
                    let chunk = (src != rank).then(|| s.recv(src, own.len()));
                    if homomorphic {
                        let payload = chunk.as_ref().map_or(&own_enc[..], |c| &c[..]);
                        s.fold_contribution(encoded, src == leader, rank, src, payload);
                        continue;
                    }
                    let shard = match &chunk {
                        Some(chunk) => s.decode_shard(rank, src, chunk),
                        None => &data[own.clone()],
                    };
                    for (a, &v) in accum.iter_mut().zip(shard) {
                        *a += v;
                    }
                }
            } else if am_leader {
                accs.resize(rpn, Vec::new());
                for (acc, dst) in accs.iter_mut().zip(group(dst_node)) {
                    acc.clear();
                    s.encode_shard(dst, &data[s.range(dst)], acc);
                }
                for src in group(my_node).filter(|&r| r != rank) {
                    let bundle = s.recv(src, s.span(group(dst_node)));
                    for (from, dst, payload) in bundle_entries(rank, src, &bundle) {
                        let acc = &mut accs[dst - dst_node * rpn];
                        s.fold_contribution(acc, false, dst, from, payload);
                    }
                }
                let mut bundle = s.bundle(group(dst_node));
                for (acc, dst) in accs.iter().zip(group(dst_node)) {
                    write_hier_entry(&mut bundle, rank, dst, acc);
                }
                s.post(dst_node * rpn, bundle, s.span(group(dst_node)));
            }
        }

        // ── Remote node aggregates, in node order: a leader folds its own
        // shard's entry and forwards the rest; members fold what it forwards.
        for src_node in remote_nodes() {
            if !am_leader {
                let chunk = s.recv(leader, own.len());
                s.fold_contribution(encoded, false, rank, leader, &chunk);
                continue;
            }
            let bundle = s.recv(src_node * rpn, s.span(group(my_node)));
            for (from, dst, payload) in bundle_entries(rank, src_node * rpn, &bundle) {
                if dst == rank {
                    s.fold_contribution(encoded, false, rank, from, payload);
                } else {
                    s.post_copy(dst, s.max_encoded(dst), payload, s.range(dst).len());
                }
            }
        }
        if !homomorphic {
            encoded.clear();
            s.encode_shard(rank, accum, encoded);
        }

        // ── All-gather: the reduced own shard goes to every own-group peer
        // and round-trips through the codec here, so this rank holds the
        // values its peers decode. A relayed leader bundles its node's
        // reduced shards once per remote node and fans remote bundles out.
        for dst in group(my_node).filter(|&d| d != rank) {
            s.post_copy(dst, s.max_encoded(rank), encoded, own.len());
        }
        data[own].copy_from_slice(s.decode_shard(rank, rank, encoded));
        // Gather bundles have room for rank 0's (the largest) shard per entry.
        let gather_cap = 4 + rpn * (HIER_ENTRY_HEADER_BYTES + s.max_encoded(0));
        let mut gathered = am_leader.then(|| {
            let mut bundle = self.pool.take(gather_cap);
            bundle.extend_from_slice(&(rpn as u32).to_le_bytes());
            write_hier_entry(&mut bundle, rank, rank, encoded);
            bundle
        });
        for src in group(my_node).filter(|&r| r != rank) {
            let chunk = s.recv(src, s.range(src).len());
            if let Some(bundle) = gathered.as_mut() {
                write_hier_entry(bundle, src, src, &chunk);
            }
            data[s.range(src)].copy_from_slice(s.decode_shard(src, src, &chunk));
        }
        for dst_node in remote_nodes() {
            if let Some(bundle) = &gathered {
                s.post_copy(dst_node * rpn, gather_cap, bundle, s.span(group(my_node)));
            }
        }
        for src_node in remote_nodes() {
            let from = if am_leader { src_node * rpn } else { leader };
            let bundle = s.recv(from, s.span(group(src_node)));
            for dst in group(my_node).filter(|&d| am_leader && d != rank) {
                s.post_copy(dst, gather_cap, &bundle, s.span(group(src_node)));
            }
            for (src, _, payload) in bundle_entries(rank, from, &bundle) {
                data[s.range(src)].copy_from_slice(s.decode_shard(src, src, payload));
            }
        }
        s.out
    }
}

/// Where a sharded all-reduce's contributions travel.
enum Route<'t> {
    /// Peer → owner; wire bytes are bucketed by tier when a topology is given.
    Direct(Option<&'t Topology>),
    /// Remote-node contributions combine at the sender's node leader, and
    /// leaders exchange and fan out one bundle per node pair.
    Relayed(&'t Topology),
}

/// One rank's sharded all-reduce in flight: the codec, tier map, decode
/// staging and running accounting every hop of either route shares.
struct Sharded<'a, C: ?Sized> {
    ctx: &'a RankCtx,
    codec: &'a mut C,
    topo: Option<&'a Topology>,
    len: usize,
    stage: &'a mut Vec<f32>,
    out: TieredReduceStats,
}

impl<C: ReduceCodec + ?Sized> Sharded<'_, C> {
    /// Element range of `owner`'s shard.
    fn range(&self, owner: usize) -> Range<usize> {
        shard_range(self.len, self.ctx.world, owner)
    }

    /// Elements the contiguous shards of `owners` cover together.
    fn span(&self, owners: Range<usize>) -> usize {
        self.range(owners.end - 1).end - self.range(owners.start).start
    }

    /// Worst-case encoded size of `owner`'s shard, which sizes every lease:
    /// variable-size payloads (the sum sketch) grow over training, and
    /// current-length leases would need new pool classes after warm-up.
    fn max_encoded(&self, owner: usize) -> usize {
        self.codec.max_encoded_bytes(self.range(owner).len())
    }

    /// A bundle lease for one entry per rank of `owners`, count written.
    fn bundle(&self, owners: Range<usize>) -> PooledBuf {
        let payloads: usize = owners.clone().map(|o| self.max_encoded(o)).sum();
        let cap = 4 + owners.len() * HIER_ENTRY_HEADER_BYTES + payloads;
        let mut bundle = self.ctx.pool.take(cap);
        bundle.extend_from_slice(&(owners.len() as u32).to_le_bytes());
        bundle
    }

    /// Send `buf` to `dst`, recording its wire bytes by tier and the `raw`
    /// f32 elements it stands for.
    fn post(&mut self, dst: usize, buf: PooledBuf, raw: usize) {
        let tier = self.topo.map(|t| t.tier_of(self.ctx.rank, dst));
        self.out.record_sent(tier, buf.len());
        self.out.stats.raw.sent += raw * 4;
        self.ctx.fabric.send(dst, buf);
    }

    /// [`Sharded::post`] a copy of `bytes` in a lease of `cap` bytes.
    fn post_copy(&mut self, dst: usize, cap: usize, bytes: &[u8], raw: usize) {
        let mut buf = self.ctx.pool.take(cap);
        buf.extend_from_slice(bytes);
        self.post(dst, buf, raw);
    }

    /// Receive from `src`, recording what [`Sharded::post`] records.
    fn recv(&mut self, src: usize, raw: usize) -> PooledBuf {
        let buf = self.ctx.fabric.recv(src);
        let tier = self.topo.map(|t| t.tier_of(self.ctx.rank, src));
        self.out.record_received(tier, buf.len());
        self.out.stats.raw.received += raw * 4;
        buf
    }

    /// Append the encoding of `shard`, `owner`'s shard, to `out`.
    fn encode_shard(&mut self, owner: usize, shard: &[f32], out: &mut Vec<u8>) {
        self.codec.encode_into(self.range(owner).start, shard, out);
        self.out.stats.encoded_bytes += shard.len() * 4;
    }

    /// Fold `src`'s encoded contribution to `owner`'s shard into `acc`: the
    /// first contribution in fold order seeds it, later ones are combined.
    fn fold_contribution(
        &mut self,
        acc: &mut Vec<u8>,
        first: bool,
        owner: usize,
        src: usize,
        bytes: &[u8],
    ) {
        if first {
            acc.clear();
            acc.extend_from_slice(bytes);
            return;
        }
        self.out.stats.combines += 1;
        self.out.stats.combined_bytes += bytes.len();
        let (offset, rank) = (self.range(owner).start, self.ctx.rank);
        if let Err(e) = self.codec.combine(offset, acc, bytes) {
            panic!("rank {rank}: combining shard {owner} from {src}: {e}");
        }
    }

    /// Decode `owner`'s shard, as sent by `src`, into the staging buffer.
    fn decode_shard(&mut self, owner: usize, src: usize, bytes: &[u8]) -> &[f32] {
        let (range, rank) = (self.range(owner), self.ctx.rank);
        self.stage.clear();
        if let Err(e) = self.codec.decode_into(range.start, bytes, self.stage) {
            panic!("rank {rank}: decoding shard {owner} from {src}: {e}");
        }
        self.out.stats.decoded_bytes += range.len() * 4;
        assert_eq!(
            self.stage.len(),
            range.len(),
            "rank {rank}: shard {owner} from {src}: wrong decoded size"
        );
        self.stage
    }
}

/// Append one `[src u32][dst u32][len u32][payload]` entry to a
/// hierarchical-all-to-all bundle.
fn write_hier_entry(bundle: &mut PooledBuf, src: usize, dst: usize, payload: &[u8]) {
    bundle.extend_from_slice(&(src as u32).to_le_bytes());
    bundle.extend_from_slice(&(dst as u32).to_le_bytes());
    bundle.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bundle.extend_from_slice(payload);
}

/// A hierarchical bundle whose framing runs past its end: the entry count,
/// an entry header or a payload starting at byte `offset` does not fit in
/// the bundle's `len` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BundleOverrun {
    offset: usize,
    len: usize,
}

impl std::fmt::Display for BundleOverrun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self { offset, len } = self;
        write!(
            f,
            "bundle framing at byte {offset} overruns its {len} bytes"
        )
    }
}

/// Walk a hierarchical bundle's `[count u32]` + entry stream, yielding
/// `(src, dst, payload)` with payloads borrowed from `bundle`. The whole
/// framing is checked before the first entry is yielded.
fn hier_entries(
    bundle: &[u8],
) -> Result<impl Iterator<Item = (usize, usize, &[u8])>, BundleOverrun> {
    let overrun = |offset| BundleOverrun {
        offset,
        len: bundle.len(),
    };
    let word = move |at: usize| {
        let bytes = bundle.get(at..at + 4)?;
        Some(u32::from_le_bytes(bytes.try_into().expect("4 bytes")) as usize)
    };
    let count = word(0).ok_or(overrun(0))?;
    let mut end = 4;
    for _ in 0..count {
        let len = word(end + 8).ok_or(overrun(end))?;
        end += HIER_ENTRY_HEADER_BYTES;
        if len > bundle.len() - end {
            return Err(overrun(end));
        }
        end += len;
    }
    let mut pos = 4;
    Ok((0..count).map(move |_| {
        let field = |at| word(at).expect("framing checked");
        let (src, dst, len) = (field(pos), field(pos + 4), field(pos + 8));
        pos += HIER_ENTRY_HEADER_BYTES + len;
        (src, dst, &bundle[pos - len..pos])
    }))
}

/// [`hier_entries`] for a collective on `rank`: a bundle from `src` whose
/// framing overruns is one panic naming both ranks and the byte offset.
fn bundle_entries(
    rank: usize,
    src: usize,
    bundle: &[u8],
) -> impl Iterator<Item = (usize, usize, &[u8])> {
    hier_entries(bundle).unwrap_or_else(|e| panic!("rank {rank}: bundle from {src}: {e}"))
}

/// Handle of an in-flight non-blocking chunked all-to-all.
///
/// Created by [`RankCtx::begin_chunked`]. The sender side is a *begin-send*:
/// [`ChunkedAllToAll::send`] back-patches the chunk's header and posts it to
/// the destination's FIFO without blocking, so the caller can go compress
/// the next chunk while this one is (virtually) on the wire — the paper's
/// double-buffered pipeline. The receiver side offers both *poll-complete*
/// ([`ChunkedAllToAll::try_recv`]) and blocking completion
/// ([`ChunkedAllToAll::recv`]).
///
/// [`ChunkedAllToAll::finish`] asserts the exchange is complete (every rank
/// sent to and received from) and returns the byte accounting. All internal
/// state lives in reusable per-rank scratch, so a steady-state caller
/// allocates nothing.
pub struct ChunkedAllToAll<'a> {
    ctx: &'a RankCtx,
    stats: ExchangeBytes,
    /// The local chunk is moved, not sent through a channel.
    local: Option<PooledBuf>,
    sent: Vec<bool>,
    received: Vec<bool>,
    finished: bool,
}

impl ChunkedAllToAll<'_> {
    /// Begin-send `chunk` to `dst`, tagging its header with `tag`. The chunk
    /// must have been built with [`RankCtx::take_chunk_buf`] (its first
    /// [`CHUNK_HEADER_BYTES`] are the header placeholder); this call
    /// back-patches the payload length and tag, then posts the chunk without
    /// blocking. Sending to this rank itself parks the chunk locally.
    ///
    /// # Panics
    /// Panics if a chunk was already sent to `dst` or the chunk is shorter
    /// than its header.
    pub fn send(&mut self, dst: usize, mut chunk: PooledBuf, tag: u32) {
        assert!(
            chunk.len() >= CHUNK_HEADER_BYTES,
            "chunk is missing its header placeholder (use take_chunk_buf)"
        );
        assert!(
            !std::mem::replace(&mut self.sent[dst], true),
            "rank {}: chunk for {dst} sent twice",
            self.ctx.rank
        );
        let payload_len = (chunk.len() - CHUNK_HEADER_BYTES) as u64;
        chunk[0..8].copy_from_slice(&payload_len.to_le_bytes());
        chunk[8..12].copy_from_slice(&tag.to_le_bytes());
        chunk[12..16].copy_from_slice(&[0u8; 4]);
        if dst == self.ctx.rank {
            self.local = Some(chunk);
        } else {
            self.stats.sent += chunk.len();
            self.ctx.fabric.send(dst, chunk);
        }
    }

    /// Poll for the chunk from `src`: returns `Some((chunk, payload_len,
    /// tag))` if it has arrived, `None` if it is still in flight. The
    /// payload sits at `&chunk[CHUNK_HEADER_BYTES..]`.
    ///
    /// The caller tracks which sources have completed (e.g. a shrinking
    /// pending list): polling `src == rank()` before the local chunk was
    /// sent also reports `None` (nothing can be in flight yet).
    ///
    /// # Panics
    /// Panics if the chunk from `src` was already received — a completed
    /// source must not be polled again.
    pub fn try_recv(&mut self, src: usize) -> Option<(PooledBuf, usize, u32)> {
        assert!(!self.received[src], "chunk from {src} already received");
        let chunk = if src == self.ctx.rank {
            self.local.take()?
        } else {
            self.ctx.fabric.try_recv(src)?
        };
        Some(self.complete_recv(src, chunk))
    }

    /// Block until the chunk from `src` arrives and return `(chunk,
    /// payload_len, tag)`. The payload sits at
    /// `&chunk[CHUNK_HEADER_BYTES..]`.
    ///
    /// # Panics
    /// Panics if the chunk from `src` was already received, or when
    /// completing the local chunk before it was sent.
    pub fn recv(&mut self, src: usize) -> (PooledBuf, usize, u32) {
        assert!(!self.received[src], "chunk from {src} already received");
        let chunk = if src == self.ctx.rank {
            self.local.take().expect("local chunk was never sent")
        } else {
            self.ctx.fabric.recv(src)
        };
        self.complete_recv(src, chunk)
    }

    fn complete_recv(&mut self, src: usize, chunk: PooledBuf) -> (PooledBuf, usize, u32) {
        self.received[src] = true;
        if src != self.ctx.rank {
            self.stats.received += chunk.len();
        }
        let payload_len = u64::from_le_bytes(chunk[0..8].try_into().expect("8 bytes")) as usize;
        let tag = u32::from_le_bytes(chunk[8..12].try_into().expect("4 bytes"));
        assert_eq!(
            payload_len,
            chunk.len() - CHUNK_HEADER_BYTES,
            "rank {}: chunk header from {src} disagrees with chunk size",
            self.ctx.rank
        );
        (chunk, payload_len, tag)
    }

    /// Complete the collective: asserts every chunk was sent and received
    /// and returns the byte totals (headers included — the same bytes the
    /// two-phase variable all-to-all moves as metadata plus payload).
    pub fn finish(&mut self) -> ExchangeBytes {
        assert!(!self.finished, "chunked all-to-all finished twice");
        for dst in 0..self.ctx.world {
            assert!(self.sent[dst], "no chunk was sent to rank {dst}");
            assert!(self.received[dst], "no chunk was received from {dst}");
        }
        self.finished = true;
        self.stats
    }
}

impl Drop for ChunkedAllToAll<'_> {
    fn drop(&mut self) {
        // Return the flag storage to the rank's scratch so the next
        // collective reuses it (whether or not finish() ran — an unwinding
        // rank must not poison the scratch).
        let mut scratch = self.ctx.scratch.borrow_mut();
        scratch.sent_flags = std::mem::take(&mut self.sent);
        scratch.recv_flags = std::mem::take(&mut self.received);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(world: usize) -> SimCluster {
        SimCluster::new(world, NetworkConfig::infinite())
    }

    #[test]
    fn all_to_all_permutes_chunks_correctly() {
        let world = 4;
        let results = cluster(world).run(move |ctx| {
            let chunks: Vec<Vec<u8>> = (0..world)
                .map(|dst| vec![ctx.rank() as u8, dst as u8])
                .collect();
            let (received, stats) = ctx.all_to_all_bytes(chunks);
            // Chunk from src must be [src, my_rank].
            for (src, chunk) in received.iter().enumerate() {
                assert_eq!(chunk.as_slice(), &[src as u8, ctx.rank() as u8]);
            }
            stats
        });
        for stats in results {
            assert_eq!(stats.sent, 2 * 3);
            assert_eq!(stats.received, 2 * 3);
        }
    }

    #[test]
    fn all_to_all_var_reports_sizes_and_tags() {
        let world = 3;
        cluster(world).run(move |ctx| {
            let mut send: Vec<PooledBuf> = (0..world)
                .map(|dst| ctx.pool().adopt(vec![0xAB; ctx.rank() * 10 + dst + 1]))
                .collect();
            let tags: Vec<u32> = (0..world)
                .map(|dst| (ctx.rank() * 100 + dst) as u32)
                .collect();
            let (mut payloads, mut metadata) = (Vec::new(), Vec::new());
            ctx.all_to_all_var_pooled(&mut send, &mut payloads, &tags, &mut metadata);
            for (src, payload) in payloads.iter().enumerate() {
                assert_eq!(payload.len(), src * 10 + ctx.rank() + 1);
                assert_eq!(metadata[src].0, payload.len());
                assert_eq!(metadata[src].1, (src * 100 + ctx.rank()) as u32);
            }
        });
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        let world = 5;
        let results = cluster(world).run(move |ctx| {
            let mut data = vec![ctx.rank() as f32, 1.0, -2.0 * ctx.rank() as f32];
            ctx.all_reduce_sum(&mut data);
            data
        });
        let expected = vec![0.0 + 1.0 + 2.0 + 3.0 + 4.0, 5.0, -2.0 * 10.0];
        for r in results {
            assert_eq!(r, expected);
        }
    }

    #[test]
    fn all_reduce_is_identical_on_every_rank() {
        let world = 4;
        let results = cluster(world).run(move |ctx| {
            let mut data: Vec<f32> = (0..64)
                .map(|i| ((ctx.rank() * 64 + i) as f32 * 0.37).sin())
                .collect();
            ctx.all_reduce_sum(&mut data);
            data
        });
        for r in &results[1..] {
            assert_eq!(r, &results[0], "all-reduce results diverged across ranks");
        }
    }

    #[test]
    fn single_rank_cluster_degenerates_gracefully() {
        let results = cluster(1).run(|ctx| {
            let (recv, stats) = ctx.all_to_all_bytes(vec![vec![1, 2, 3]]);
            assert_eq!(recv, vec![vec![1, 2, 3]]);
            assert_eq!(stats.sent, 0);
            let mut v = vec![5.0f32];
            ctx.all_reduce_sum(&mut v);
            assert_eq!(v, vec![5.0]);
            ctx.rank()
        });
        assert_eq!(results, vec![0]);
    }

    #[test]
    fn many_ranks_heavy_traffic_completes() {
        // Stress the channel mesh with 16 ranks and multiple rounds.
        let world = 16;
        let results = cluster(world).run(move |ctx| {
            let mut checksum = 0u64;
            for round in 0..5u8 {
                let chunks: Vec<Vec<u8>> = (0..world)
                    .map(|dst| vec![round ^ ctx.rank() as u8 ^ dst as u8; 257])
                    .collect();
                let (received, _) = ctx.all_to_all_bytes(chunks);
                for (src, chunk) in received.iter().enumerate() {
                    assert_eq!(chunk[0], round ^ src as u8 ^ ctx.rank() as u8);
                    checksum += chunk.iter().map(|&b| b as u64).sum::<u64>();
                }
                ctx.barrier();
            }
            checksum
        });
        // All ranks see the same total traffic pattern by symmetry of the xor.
        assert_eq!(results.len(), world);
    }

    #[test]
    #[should_panic]
    fn wrong_chunk_count_panics() {
        cluster(2).run(|ctx| {
            let _ = ctx.all_to_all_bytes(vec![vec![1u8]]); // only one chunk for world=2
        });
    }

    #[test]
    fn pooled_all_to_all_stops_allocating_after_warmup() {
        let world = 4;
        let results = cluster(world).run(move |ctx| {
            let mut send: Vec<crate::pool::PooledBuf> = Vec::new();
            let mut recv: Vec<crate::pool::PooledBuf> = Vec::new();
            let mut records = Vec::new();
            let tags = vec![7u32; world];
            let fill = |ctx: &RankCtx, send: &mut Vec<crate::pool::PooledBuf>, round: u8| {
                for dst in 0..world {
                    let mut b = ctx.take_buf(512);
                    b.extend(std::iter::repeat_n(round ^ dst as u8, 256 + dst * 16));
                    send.push(b);
                }
            };
            // Warm-up rounds grow pool and containers to working size; then
            // park enough spare leases that no interleaving of rank threads
            // can catch the pool empty mid-round.
            for round in 0..3u8 {
                fill(&ctx, &mut send, round);
                ctx.all_to_all_var_pooled(&mut send, &mut recv, &tags, &mut records);
                recv.clear();
            }
            let spares: Vec<crate::pool::PooledBuf> =
                (0..4 * world).map(|_| ctx.take_buf(1024)).collect();
            drop(spares);
            ctx.barrier();
            let warm = ctx.pool().stats();
            for round in 3..23u8 {
                fill(&ctx, &mut send, round);
                ctx.all_to_all_var_pooled(&mut send, &mut recv, &tags, &mut records);
                for (src, chunk) in recv.iter().enumerate() {
                    assert_eq!(chunk[0], round ^ ctx.rank() as u8);
                    assert_eq!(chunk.len(), 256 + ctx.rank() * 16);
                    assert_eq!(records[src].0, chunk.len());
                }
                recv.clear();
            }
            ctx.barrier();
            let end = ctx.pool().stats();
            end.since(&warm)
        });
        // The pool is shared: after the barrier-fenced warm-up, the combined
        // steady-state rounds must be allocation-free on every rank.
        for delta in results {
            assert_eq!(delta.allocations, 0, "steady state allocated: {delta:?}");
            assert!(delta.reuses > 0);
        }
    }

    #[test]
    fn chunked_all_to_all_permutes_chunks_and_parses_headers() {
        let world = 4;
        cluster(world).run(move |ctx| {
            let mut send: Vec<PooledBuf> = Vec::new();
            let mut recv: Vec<PooledBuf> = Vec::new();
            let mut records = Vec::new();
            for dst in 0..world {
                let mut b = ctx.take_chunk_buf(64);
                b.extend(std::iter::repeat_n(
                    0xC0 ^ ctx.rank() as u8 ^ dst as u8,
                    dst + 1,
                ));
                send.push(b);
            }
            let tags: Vec<u32> = (0..world).map(|d| (ctx.rank() * 10 + d) as u32).collect();
            let stats = ctx.all_to_all_chunked(&mut send, &mut recv, &tags, &mut records);
            for (src, chunk) in recv.iter().enumerate() {
                let payload = &chunk[CHUNK_HEADER_BYTES..];
                assert_eq!(payload.len(), ctx.rank() + 1);
                assert!(payload
                    .iter()
                    .all(|&b| b == 0xC0 ^ src as u8 ^ ctx.rank() as u8));
                assert_eq!(
                    records[src],
                    (payload.len(), (src * 10 + ctx.rank()) as u32)
                );
            }
            // Bytes on the wire: payload + one 16-byte header per peer, each
            // direction — exactly what the two-phase variable all-to-all
            // counts as payload + metadata.
            let expected_sent: usize = (0..world)
                .filter(|&d| d != ctx.rank())
                .map(|d| d + 1 + CHUNK_HEADER_BYTES)
                .sum();
            assert_eq!(stats.sent, expected_sent);
        });
    }

    #[test]
    fn chunked_handle_supports_begin_send_and_poll_complete() {
        let world = 3;
        cluster(world).run(move |ctx| {
            let mut exchange = ctx.begin_chunked();
            // Begin-send all chunks without blocking.
            for dst in 0..world {
                let mut b = ctx.take_chunk_buf(32);
                b.extend_from_slice(&[ctx.rank() as u8; 5]);
                exchange.send(dst, b, 7);
            }
            // Poll-complete in whatever order the chunks arrive.
            let mut pending: Vec<usize> = (0..world).collect();
            let mut seen = 0usize;
            while !pending.is_empty() {
                pending.retain(|&src| match exchange.try_recv(src) {
                    Some((chunk, payload_len, tag)) => {
                        assert_eq!(payload_len, 5);
                        assert_eq!(tag, 7);
                        assert_eq!(chunk[CHUNK_HEADER_BYTES], src as u8);
                        seen += 1;
                        false
                    }
                    None => true,
                });
            }
            assert_eq!(seen, world);
            let stats = exchange.finish();
            assert_eq!(stats.received, (world - 1) * (5 + CHUNK_HEADER_BYTES));
        });
    }

    #[test]
    fn chunked_all_to_all_matches_var_byte_accounting() {
        let world = 4;
        cluster(world).run(move |ctx| {
            let tags = vec![3u32; world];
            let mut records = Vec::new();
            // Variable-size path.
            let mut send: Vec<PooledBuf> = (0..world)
                .map(|d| ctx.pool().adopt(vec![1u8; 10 + d]))
                .collect();
            let mut recv = Vec::new();
            let var_stats = ctx.all_to_all_var_pooled(&mut send, &mut recv, &tags, &mut records);
            // Chunked path with the same payloads.
            let mut send: Vec<PooledBuf> = (0..world)
                .map(|d| {
                    let mut b = ctx.take_chunk_buf(64);
                    b.extend(std::iter::repeat_n(1u8, 10 + d));
                    b
                })
                .collect();
            let mut recv = Vec::new();
            let chunked_stats = ctx.all_to_all_chunked(&mut send, &mut recv, &tags, &mut records);
            assert_eq!(var_stats, chunked_stats);
        });
    }

    #[test]
    fn chunked_all_to_all_stops_allocating_after_warmup() {
        let world = 4;
        let results = cluster(world).run(move |ctx| {
            let mut send: Vec<PooledBuf> = Vec::new();
            let mut recv: Vec<PooledBuf> = Vec::new();
            let mut records = Vec::new();
            let tags = vec![0u32; world];
            let fill = |ctx: &RankCtx, send: &mut Vec<PooledBuf>, round: u8| {
                for dst in 0..world {
                    let mut b = ctx.take_chunk_buf(512);
                    b.extend(std::iter::repeat_n(round ^ dst as u8, 128 + dst * 8));
                    send.push(b);
                }
            };
            for round in 0..3u8 {
                fill(&ctx, &mut send, round);
                ctx.all_to_all_chunked(&mut send, &mut recv, &tags, &mut records);
                recv.clear();
            }
            let spares: Vec<PooledBuf> = (0..4 * world).map(|_| ctx.take_buf(1024)).collect();
            drop(spares);
            ctx.barrier();
            let warm = ctx.pool().stats();
            for round in 3..23u8 {
                fill(&ctx, &mut send, round);
                ctx.all_to_all_chunked(&mut send, &mut recv, &tags, &mut records);
                for (src, chunk) in recv.iter().enumerate() {
                    assert_eq!(chunk[CHUNK_HEADER_BYTES], round ^ ctx.rank() as u8);
                    assert_eq!(records[src].0, 128 + ctx.rank() * 8);
                }
                recv.clear();
            }
            ctx.barrier();
            ctx.pool().stats().since(&warm)
        });
        for delta in results {
            assert_eq!(delta.allocations, 0, "steady state allocated: {delta:?}");
            assert!(delta.reuses > 0);
        }
    }

    #[test]
    #[should_panic]
    fn chunked_finish_before_completion_panics() {
        cluster(2).run(|ctx| {
            let mut exchange = ctx.begin_chunked();
            exchange.send(ctx.rank(), ctx.take_chunk_buf(16), 0);
            let _ = exchange.finish(); // never sent to / received from the peer
        });
    }

    #[test]
    fn all_reduce_matches_full_replication_reference_bitwise() {
        // The pre-reduce-scatter schedule summed every element in rank order
        // on every rank; the reference below is that computation performed
        // serially. The restructured collective must reproduce it bit for
        // bit on every rank.
        let world = 5;
        let len = 37; // not divisible by world: shards are uneven
        let contribution =
            move |rank: usize, i: usize| ((rank * len + i) as f32 * 0.37).sin() * 0.25 - 0.1;
        let mut expected = vec![0.0f32; len];
        for r in 0..world {
            for (i, e) in expected.iter_mut().enumerate() {
                *e += contribution(r, i);
            }
        }
        let results = cluster(world).run(move |ctx| {
            let mut data: Vec<f32> = (0..len).map(|i| contribution(ctx.rank(), i)).collect();
            ctx.all_reduce_sum(&mut data);
            data
        });
        for (rank, r) in results.iter().enumerate() {
            for (i, (a, b)) in r.iter().zip(expected.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "rank {rank} element {i}: {a} vs reference {b}"
                );
            }
        }
    }

    #[test]
    fn all_reduce_traffic_matches_ring_formula_volume() {
        // Satellite fix: a rank must move 2·(P−1)/P of the vector, not
        // (P−1)·V — so ExchangeBytes agrees with CostModel::allreduce_time.
        let world = 4;
        let len = 1024; // divisible by world: exact ring volume
        let results = cluster(world).run(move |ctx| {
            let mut data = vec![1.0f32; len];
            ctx.all_reduce_sum(&mut data)
        });
        let expected = 2 * (world - 1) * (len / world) * 4;
        for stats in results {
            assert_eq!(stats.sent, expected);
            assert_eq!(stats.received, expected);
        }
        // And the wire-time charge for that volume is exactly the ring
        // formula's time.
        let cost = NetworkConfig::default().cost_model();
        let wire = cost.allreduce_wire_time(expected, expected, world);
        let ring = cost.allreduce_time(len * 4, world);
        assert!((wire - ring).abs() < 1e-15, "wire {wire} vs ring {ring}");
    }

    #[test]
    fn compressed_all_reduce_reports_raw_and_wire_bytes() {
        // HalfCodec halves every payload, which is enough to check
        // accounting; values are powers of two so the truncation is exact.
        let world = 4;
        let len = 64;
        let results = cluster(world).run(move |ctx| {
            let mut data = vec![2.0f32; len];
            let mut scratch = crate::reduce::ReduceScratch::new();
            let stats = ctx.all_reduce_compressed(&mut data, &mut HalfCodec, &mut scratch);
            (data, stats)
        });
        for (data, stats) in results {
            assert!(data.iter().all(|&v| v == 8.0), "sum of 2.0 over 4 ranks");
            assert_eq!(stats.raw.sent, 2 * (world - 1) * (len / world) * 4);
            assert_eq!(stats.wire.sent * 2, stats.raw.sent);
            assert!((stats.ratio() - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn compressed_all_reduce_handles_short_vectors_and_world_one() {
        // len < world: some shards are empty.
        let world = 4;
        let results = cluster(world).run(move |ctx| {
            let mut data = vec![ctx.rank() as f32 + 1.0, -1.0];
            ctx.all_reduce_sum(&mut data);
            data
        });
        for r in results {
            assert_eq!(r, vec![1.0 + 2.0 + 3.0 + 4.0, -4.0]);
        }
        cluster(1).run(|ctx| {
            let mut data = vec![3.5f32; 8];
            let mut scratch = crate::reduce::ReduceScratch::new();
            let stats =
                ctx.all_reduce_compressed(&mut data, &mut crate::reduce::RawF32Codec, &mut scratch);
            assert_eq!(stats, crate::reduce::ReduceStats::default());
            assert!(data.iter().all(|&v| v == 3.5));
        });
    }

    fn hier_topo(nodes: usize, rpn: usize) -> Topology {
        Topology::new(
            nodes,
            rpn,
            NetworkConfig::infinite(),
            NetworkConfig::infinite(),
        )
    }

    /// Deterministic test chunk for the (src, dst) pair.
    fn hier_chunk(src: usize, dst: usize) -> Vec<u8> {
        let len = (src * 13 + dst * 5) % 97;
        (0..len)
            .map(|i| (src as u8) ^ (dst as u8).wrapping_mul(7) ^ (i as u8))
            .collect()
    }

    #[test]
    fn hier_entries_rejects_every_truncation_and_an_overclaimed_count() {
        // A leader-exchange bundle of a 2×2 topology: node 0 → node 1.
        let pairs = [(0, 2), (0, 3), (1, 2), (1, 3)];
        let mut bundle = BufferPool::new().take(256);
        bundle.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        for (src, dst) in pairs {
            write_hier_entry(&mut bundle, src, dst, &hier_chunk(src, dst));
        }
        let entries: Vec<_> = hier_entries(&bundle).expect("valid bundle").collect();
        assert_eq!(entries.len(), pairs.len());
        for ((src, dst, payload), (s, d)) in entries.into_iter().zip(pairs) {
            assert_eq!((src, dst, payload), (s, d, hier_chunk(s, d).as_slice()));
        }
        for cut in 0..bundle.len() {
            let err = hier_entries(&bundle[..cut]).err();
            let err = err.unwrap_or_else(|| panic!("{cut}-byte prefix accepted"));
            assert_eq!(err.len, cut);
            assert!(err.offset <= cut, "{cut}: {err}");
        }
        let mut over = bundle.to_vec();
        over[0..4].copy_from_slice(&(pairs.len() as u32 + 1).to_le_bytes());
        let err = hier_entries(&over)
            .err()
            .expect("overclaimed count accepted");
        assert_eq!(
            err,
            BundleOverrun {
                offset: bundle.len(),
                len: bundle.len()
            }
        );
    }

    #[test]
    fn hier_all_to_all_delivers_and_accounts_by_tier() {
        let topo = hier_topo(2, 2);
        let world = topo.world();
        let results = cluster(world).run(move |ctx| {
            let me = ctx.rank();
            let mut send: Vec<PooledBuf> = (0..world)
                .map(|d| {
                    let payload = hier_chunk(me, d);
                    let mut b = ctx.take_buf(payload.len().max(1));
                    b.extend_from_slice(&payload);
                    b
                })
                .collect();
            let mut recv = Vec::new();
            let bytes = ctx.all_to_all_hier_pooled(&topo, &mut send, &mut recv);
            for (src, chunk) in recv.iter().enumerate() {
                assert_eq!(
                    chunk.as_slice(),
                    hier_chunk(src, me).as_slice(),
                    "rank {me}: wrong chunk from {src}"
                );
            }
            bytes
        });
        for (rank, bytes) in results.iter().enumerate() {
            if topo.is_leader(rank) {
                // Leaders drive the fabric and feed their members.
                assert!(
                    bytes.exchange.sent > 0 && bytes.exchange.received > 0,
                    "{rank}"
                );
                assert!(bytes.scatter.sent > 0, "{rank}");
                assert_eq!(bytes.scatter.received, 0, "{rank}");
            } else {
                // Members never touch the fabric directly.
                assert_eq!(bytes.exchange, ExchangeBytes::default(), "{rank}");
                assert!(bytes.scatter.received > 0, "{rank}");
                assert_eq!(bytes.scatter.sent, 0, "{rank}");
                assert!(bytes.gather.sent > 0, "{rank}");
            }
        }
        // The fabric carries every cross-node payload byte exactly once,
        // plus one 4-byte count and per-chunk 12-byte frames per bundle.
        let payload_across: usize = (0..world)
            .flat_map(|s| (0..world).map(move |d| (s, d)))
            .filter(|&(s, d)| !topo.same_node(s, d))
            .map(|(s, d)| hier_chunk(s, d).len())
            .sum();
        let framing = 2 * (4 + 4 * HIER_ENTRY_HEADER_BYTES); // one 4-entry bundle per leader
        let fabric_sent: usize = results.iter().map(|b| b.exchange.sent).sum();
        assert_eq!(fabric_sent, payload_across + framing);
    }

    #[test]
    fn hier_all_to_all_degenerate_shapes_match_flat() {
        // nodes == 1 (single tier) and ranks_per_node == 1 (all leaders)
        // must both deliver exactly what the flat collective delivers.
        for (nodes, rpn) in [(1usize, 4usize), (4, 1), (3, 2)] {
            let topo = hier_topo(nodes, rpn);
            let world = topo.world();
            cluster(world).run(move |ctx| {
                let me = ctx.rank();
                let build = |ctx: &RankCtx| -> Vec<PooledBuf> {
                    (0..world)
                        .map(|d| {
                            let payload = hier_chunk(me, d);
                            let mut b = ctx.take_buf(payload.len().max(1));
                            b.extend_from_slice(&payload);
                            b
                        })
                        .collect()
                };
                let mut send = build(&ctx);
                let mut flat_recv = Vec::new();
                ctx.all_to_all_pooled(&mut send, &mut flat_recv);
                let mut send = build(&ctx);
                let mut hier_recv = Vec::new();
                let bytes = ctx.all_to_all_hier_pooled(&topo, &mut send, &mut hier_recv);
                for (src, (flat, hier)) in flat_recv.iter().zip(hier_recv.iter()).enumerate() {
                    assert_eq!(
                        flat.as_slice(),
                        hier.as_slice(),
                        "({nodes}x{rpn}) rank {me}: chunk from {src} differs"
                    );
                }
                if nodes == 1 {
                    assert_eq!(bytes.exchange, ExchangeBytes::default());
                    assert_eq!(bytes.scatter, ExchangeBytes::default());
                }
                if rpn == 1 {
                    assert_eq!(bytes.gather, ExchangeBytes::default());
                    assert_eq!(bytes.scatter, ExchangeBytes::default());
                }
            });
        }
    }

    #[test]
    fn tiered_all_reduce_buckets_wire_bytes_and_stays_bit_identical() {
        let topo = hier_topo(2, 2);
        let world = topo.world();
        let len = 37;
        let results = cluster(world).run(move |ctx| {
            let contribution: Vec<f32> = (0..len)
                .map(|i| ((ctx.rank() * len + i) as f32 * 0.41).sin())
                .collect();
            let mut plain = contribution.clone();
            ctx.all_reduce_sum(&mut plain);
            let mut tiered_data = contribution;
            let mut scratch = crate::reduce::ReduceScratch::new();
            let stats = ctx.all_reduce_compressed_tiered(
                &mut tiered_data,
                &mut RawF32Codec,
                &mut scratch,
                &topo,
            );
            (plain, tiered_data, stats)
        });
        for (rank, (plain, tiered_data, stats)) in results.iter().enumerate() {
            for (a, b) in plain.iter().zip(tiered_data.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "rank {rank} diverged");
            }
            // Every wire byte lands in exactly one tier bucket…
            assert_eq!(stats.intra.sent + stats.inter.sent, stats.stats.wire.sent);
            assert_eq!(
                stats.intra.received + stats.inter.received,
                stats.stats.wire.received
            );
            // …and with the raw codec the buckets match the analytic raw
            // schedule exactly.
            let (intra, inter) = crate::reduce::allreduce_tier_bytes(len, &topo, rank);
            assert_eq!(stats.intra, intra, "rank {rank}");
            assert_eq!(stats.inter, inter, "rank {rank}");
        }
    }

    /// Lossy non-homomorphic test codec: truncates each f32 to its high half
    /// (fp16-ish), so every payload is half the raw size.
    struct HalfCodec;
    impl crate::reduce::ReduceCodec for HalfCodec {
        fn encode_into(&mut self, _o: usize, data: &[f32], out: &mut Vec<u8>) {
            for v in data {
                out.extend_from_slice(&v.to_le_bytes()[2..4]);
            }
        }
        fn decode_into(
            &mut self,
            _o: usize,
            bytes: &[u8],
            out: &mut Vec<f32>,
        ) -> Result<(), crate::reduce::ReduceError> {
            out.extend(
                bytes
                    .chunks_exact(2)
                    .map(|b| f32::from_le_bytes([0, 0, b[0], b[1]])),
            );
            Ok(())
        }
        fn max_encoded_bytes(&self, len: usize) -> usize {
            len * 2
        }
    }

    /// Lossless homomorphic test codec: raw f32 stream whose combine sums
    /// elementwise in the f32 domain. The flat owner fold runs in rank
    /// order, so the result is bit-identical to [`RankCtx::all_reduce_sum`].
    struct SumF32Codec;
    impl crate::reduce::ReduceCodec for SumF32Codec {
        fn encode_into(&mut self, _o: usize, data: &[f32], out: &mut Vec<u8>) {
            for v in data {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        fn decode_into(
            &mut self,
            _o: usize,
            bytes: &[u8],
            out: &mut Vec<f32>,
        ) -> Result<(), crate::reduce::ReduceError> {
            if !bytes.len().is_multiple_of(4) {
                return Err(crate::reduce::ReduceError::Truncated {
                    needed: bytes.len().div_ceil(4) * 4,
                    got: bytes.len(),
                });
            }
            out.extend(
                bytes
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes"))),
            );
            Ok(())
        }
        fn max_encoded_bytes(&self, len: usize) -> usize {
            len * 4
        }
        fn is_homomorphic(&self) -> bool {
            true
        }
        fn combine(
            &mut self,
            _o: usize,
            acc: &mut Vec<u8>,
            other: &[u8],
        ) -> Result<(), crate::reduce::ReduceError> {
            if acc.len() != other.len() {
                return Err(crate::reduce::ReduceError::ShardMismatch {
                    expected: acc.len(),
                    got: other.len(),
                });
            }
            for (a, b) in acc.chunks_exact_mut(4).zip(other.chunks_exact(4)) {
                let s = f32::from_le_bytes(a.try_into().expect("4 bytes"))
                    + f32::from_le_bytes(b.try_into().expect("4 bytes"));
                a.copy_from_slice(&s.to_le_bytes());
            }
            Ok(())
        }
    }

    /// Integer-lattice test codec (the shape `dlrm-grad`'s lattice takes):
    /// f32 → i32 at a fixed scale, combine adds codes. Integer addition is
    /// associative and commutative, so every combine order — flat rank
    /// order or the hierarchical node-grouped order — produces the same
    /// stream bit for bit.
    struct I32LatticeCodec;
    const LATTICE_SCALE: f32 = 1024.0;
    impl crate::reduce::ReduceCodec for I32LatticeCodec {
        fn encode_into(&mut self, _o: usize, data: &[f32], out: &mut Vec<u8>) {
            for v in data {
                out.extend_from_slice(&((v * LATTICE_SCALE).round() as i32).to_le_bytes());
            }
        }
        fn decode_into(
            &mut self,
            _o: usize,
            bytes: &[u8],
            out: &mut Vec<f32>,
        ) -> Result<(), crate::reduce::ReduceError> {
            if !bytes.len().is_multiple_of(4) {
                return Err(crate::reduce::ReduceError::Truncated {
                    needed: bytes.len().div_ceil(4) * 4,
                    got: bytes.len(),
                });
            }
            out.extend(bytes.chunks_exact(4).map(|b| {
                i32::from_le_bytes(b.try_into().expect("4 bytes")) as f32 / LATTICE_SCALE
            }));
            Ok(())
        }
        fn max_encoded_bytes(&self, len: usize) -> usize {
            len * 4
        }
        fn is_homomorphic(&self) -> bool {
            true
        }
        fn combine(
            &mut self,
            _o: usize,
            acc: &mut Vec<u8>,
            other: &[u8],
        ) -> Result<(), crate::reduce::ReduceError> {
            if acc.len() != other.len() {
                return Err(crate::reduce::ReduceError::ShardMismatch {
                    expected: acc.len(),
                    got: other.len(),
                });
            }
            for (a, b) in acc.chunks_exact_mut(4).zip(other.chunks_exact(4)) {
                let s = i32::from_le_bytes(a.try_into().expect("4 bytes"))
                    .wrapping_add(i32::from_le_bytes(b.try_into().expect("4 bytes")));
                a.copy_from_slice(&s.to_le_bytes());
            }
            Ok(())
        }
    }

    #[test]
    fn homomorphic_all_reduce_matches_the_sum_and_skips_owner_decodes() {
        let world = 5;
        let len = 41;
        let results = cluster(world).run(move |ctx| {
            let contribution: Vec<f32> = (0..len)
                .map(|i| ((ctx.rank() * len + i) as f32 * 0.37).sin())
                .collect();
            let mut plain = contribution.clone();
            ctx.all_reduce_sum(&mut plain);
            let mut homo = contribution;
            let mut scratch = crate::reduce::ReduceScratch::new();
            let stats = ctx.all_reduce_compressed(&mut homo, &mut SumF32Codec, &mut scratch);
            (plain, homo, stats)
        });
        for (rank, (plain, homo, stats)) in results.iter().enumerate() {
            // Lossless combine in rank order ⇒ bit-identical to the plain
            // rank-order sum.
            for (a, b) in plain.iter().zip(homo.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "rank {rank} diverged");
            }
            // The owner folded world − 1 contributions in the compressed
            // domain instead of decoding them…
            assert_eq!(stats.combines, world - 1, "rank {rank}");
            let own = shard_range(len, world, rank).len();
            assert_eq!(stats.combined_bytes, (world - 1) * own * 4, "rank {rank}");
            // …so only the own-shard round-trip and the gathered shards are
            // decoded: exactly the vector once, vs (world − 1)·own extra on
            // the classic path.
            assert_eq!(stats.decoded_bytes, len * 4, "rank {rank}");
            assert_eq!(stats.encoded_bytes, len * 4, "rank {rank}");
        }
    }

    #[test]
    fn homomorphic_hier_matches_flat_bitwise_and_cuts_inter_volume() {
        // 2 nodes × 3 ranks: leaders fold member contributions into one
        // node aggregate per destination shard, so the fabric carries one
        // combined payload per node pair instead of rpn per rank pair.
        let topo = hier_topo(2, 3);
        let world = topo.world();
        let len = 300;
        let results = cluster(world).run(move |ctx| {
            let contribution: Vec<f32> = (0..len)
                .map(|i| (((ctx.rank() * len + i) % 512) as f32 - 256.0) / LATTICE_SCALE)
                .collect();
            let mut flat = contribution.clone();
            let mut scratch = crate::reduce::ReduceScratch::new();
            ctx.all_reduce_compressed(&mut flat, &mut I32LatticeCodec, &mut scratch);
            let mut hier = contribution.clone();
            let mut scratch = crate::reduce::ReduceScratch::new();
            let homo_stats = ctx.all_reduce_homomorphic_hier(
                &mut hier,
                &mut I32LatticeCodec,
                &mut scratch,
                &topo,
            );
            let mut classic = contribution;
            let mut scratch = crate::reduce::ReduceScratch::new();
            let classic_stats = ctx.all_reduce_compressed_tiered(
                &mut classic,
                &mut I32LatticeCodec,
                &mut scratch,
                &topo,
            );
            (flat, hier, classic, homo_stats, classic_stats)
        });
        let mut homo_inter = 0usize;
        let mut classic_inter = 0usize;
        for (rank, (flat, hier, classic, homo_stats, classic_stats)) in results.iter().enumerate() {
            // The lattice combine is associative and commutative, so the
            // node-grouped fold reproduces the flat fold bit for bit — and
            // the classic decode → reduce → re-encode schedule too (exact
            // integer arithmetic end to end on these inputs).
            for ((a, b), c) in flat.iter().zip(hier.iter()).zip(classic.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "rank {rank}: hier diverged");
                assert_eq!(a.to_bits(), c.to_bits(), "rank {rank}: classic diverged");
            }
            assert!(homo_stats.stats.combines > 0, "rank {rank}");
            // Tier buckets still partition the wire bytes.
            assert_eq!(
                homo_stats.intra.sent + homo_stats.inter.sent,
                homo_stats.stats.wire.sent,
                "rank {rank}"
            );
            homo_inter += homo_stats.inter.sent;
            classic_inter += classic_stats.inter.sent;
        }
        // Leader bundles collapse rpn contributions into one aggregate per
        // node pair: the fabric volume drops by nearly rpn× (bundle headers
        // cost a few bytes back).
        assert!(
            (homo_inter as f64) < classic_inter as f64 / 2.0,
            "leader combine did not cut inter-tier volume: {homo_inter} vs {classic_inter}"
        );
    }

    #[test]
    fn homomorphic_hier_degenerate_shapes_match_flat() {
        for (nodes, rpn) in [(1, 4), (4, 1)] {
            let topo = hier_topo(nodes, rpn);
            let world = topo.world();
            let len = 23;
            let results = cluster(world).run(move |ctx| {
                let contribution: Vec<f32> = (0..len)
                    .map(|i| (((ctx.rank() + 3) * (i + 7)) % 64) as f32 / LATTICE_SCALE)
                    .collect();
                let mut flat = contribution.clone();
                let mut scratch = crate::reduce::ReduceScratch::new();
                ctx.all_reduce_compressed(&mut flat, &mut I32LatticeCodec, &mut scratch);
                let mut hier = contribution;
                let mut scratch = crate::reduce::ReduceScratch::new();
                ctx.all_reduce_homomorphic_hier(
                    &mut hier,
                    &mut I32LatticeCodec,
                    &mut scratch,
                    &topo,
                );
                (flat, hier)
            });
            for (rank, (flat, hier)) in results.iter().enumerate() {
                for (a, b) in flat.iter().zip(hier.iter()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "rank {rank} diverged on {nodes}x{rpn}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn homomorphic_hier_rejects_non_homomorphic_codecs() {
        let topo = hier_topo(2, 2);
        cluster(topo.world()).run(move |ctx| {
            let mut data = vec![1.0f32; 16];
            let mut scratch = crate::reduce::ReduceScratch::new();
            let _ = ctx.all_reduce_homomorphic_hier(
                &mut data,
                &mut crate::reduce::RawF32Codec,
                &mut scratch,
                &topo,
            );
        });
    }

    #[test]
    fn homomorphic_hier_stops_allocating_after_warmup() {
        let topo = hier_topo(2, 2);
        let world = topo.world();
        let len = 257;
        let results = cluster(world).run(move |ctx| {
            let mut scratch = crate::reduce::ReduceScratch::new();
            let contribution: Vec<f32> =
                (0..len).map(|i| (i % 96) as f32 / LATTICE_SCALE).collect();
            let mut data = contribution.clone();
            for _ in 0..3 {
                data.copy_from_slice(&contribution);
                ctx.all_reduce_homomorphic_hier(
                    &mut data,
                    &mut I32LatticeCodec,
                    &mut scratch,
                    &topo,
                );
            }
            let spares: Vec<PooledBuf> = (0..6 * world).map(|_| ctx.take_buf(8192)).collect();
            drop(spares);
            ctx.barrier();
            let warm = ctx.pool().stats();
            for _ in 0..10 {
                data.copy_from_slice(&contribution);
                ctx.all_reduce_homomorphic_hier(
                    &mut data,
                    &mut I32LatticeCodec,
                    &mut scratch,
                    &topo,
                );
            }
            ctx.barrier();
            ctx.pool().stats().since(&warm)
        });
        for delta in results {
            assert_eq!(delta.allocations, 0, "steady state allocated: {delta:?}");
            assert!(delta.reuses > 0);
        }
    }

    #[test]
    fn hier_all_to_all_stops_allocating_after_warmup() {
        let topo = hier_topo(2, 2);
        let world = topo.world();
        let results = cluster(world).run(move |ctx| {
            let mut send: Vec<PooledBuf> = Vec::new();
            let mut recv: Vec<PooledBuf> = Vec::new();
            let fill = |ctx: &RankCtx, send: &mut Vec<PooledBuf>, round: u8| {
                for dst in 0..world {
                    let mut b = ctx.take_buf(512);
                    b.extend(std::iter::repeat_n(round ^ dst as u8, 128 + dst * 8));
                    send.push(b);
                }
            };
            for round in 0..3u8 {
                fill(&ctx, &mut send, round);
                ctx.all_to_all_hier_pooled(&topo, &mut send, &mut recv);
                recv.clear();
            }
            // Bundles are bigger than chunks: park spares sized for the
            // largest lease any phase takes.
            let spares: Vec<PooledBuf> = (0..6 * world).map(|_| ctx.take_buf(4096)).collect();
            drop(spares);
            ctx.barrier();
            let warm = ctx.pool().stats();
            for round in 3..23u8 {
                fill(&ctx, &mut send, round);
                ctx.all_to_all_hier_pooled(&topo, &mut send, &mut recv);
                for (src, chunk) in recv.iter().enumerate() {
                    assert_eq!(chunk.len(), 128 + ctx.rank() * 8);
                    assert_eq!(chunk[0], round ^ ctx.rank() as u8, "from {src}");
                }
                recv.clear();
            }
            ctx.barrier();
            ctx.pool().stats().since(&warm)
        });
        for delta in results {
            assert_eq!(delta.allocations, 0, "steady state allocated: {delta:?}");
            assert!(delta.reuses > 0);
        }
    }

    #[test]
    #[should_panic]
    fn hier_all_to_all_rejects_mismatched_topology() {
        cluster(3).run(|ctx| {
            let topo = hier_topo(2, 2); // world 4 != cluster world 3
            let mut send: Vec<PooledBuf> = (0..3).map(|_| ctx.take_buf(8)).collect();
            let mut recv = Vec::new();
            let _ = ctx.all_to_all_hier_pooled(&topo, &mut send, &mut recv);
        });
    }

    #[test]
    fn all_reduce_recycles_buffers() {
        let world = 3;
        cluster(world).run(move |ctx| {
            let mut data = vec![ctx.rank() as f32; 1024];
            for _ in 0..2 {
                ctx.all_reduce_sum(&mut data);
            }
            // Park spare leases so no thread interleaving can catch the pool
            // empty mid-round.
            let spares: Vec<crate::pool::PooledBuf> =
                (0..4 * world).map(|_| ctx.take_buf(4096)).collect();
            drop(spares);
            ctx.barrier();
            let warm = ctx.pool().stats();
            for _ in 0..10 {
                ctx.all_reduce_sum(&mut data);
            }
            ctx.barrier();
            let delta = ctx.pool().stats().since(&warm);
            assert_eq!(delta.allocations, 0, "steady state allocated: {delta:?}");
        });
    }

    /// 64-bit FNV-1a over a byte stream.
    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// One rank's fingerprint of a reduce: the result's bits and every
    /// [`TieredReduceStats`] field.
    fn reduce_fingerprint(data: &[f32], t: &TieredReduceStats) -> u64 {
        let s = &t.stats;
        let fields = [
            s.wire.sent,
            s.wire.received,
            s.raw.sent,
            s.raw.received,
            s.combines,
            s.combined_bytes,
            s.encoded_bytes,
            s.decoded_bytes,
            t.intra.sent,
            t.intra.received,
            t.inter.sent,
            t.inter.received,
        ];
        fnv1a(
            data.iter()
                .flat_map(|v| v.to_bits().to_le_bytes())
                .chain(fields.iter().flat_map(|&f| (f as u64).to_le_bytes())),
        )
    }

    /// One golden-table row: `entry codec NODESxRPN len: per-rank prints`.
    fn golden_reduce_row(
        entry: &'static str,
        codec: &'static str,
        (nodes, rpn): (usize, usize),
        len: usize,
    ) -> String {
        let topo = hier_topo(nodes, rpn);
        let prints = cluster(topo.world()).run(move |ctx| {
            let mut data: Vec<f32> = (0..len)
                .map(|i| ((ctx.rank() * len + i) as f32 * 0.37).sin())
                .collect();
            let mut scratch = ReduceScratch::new();
            let mut codec: Box<dyn ReduceCodec> = match codec {
                "raw" => Box::new(RawF32Codec),
                "half" => Box::new(HalfCodec),
                "lattice" => Box::new(I32LatticeCodec),
                _ => Box::new(SumF32Codec),
            };
            let codec = codec.as_mut();
            let stats = match entry {
                "compressed" => TieredReduceStats {
                    stats: ctx.all_reduce_compressed(&mut data, codec, &mut scratch),
                    ..Default::default()
                },
                "tiered" => ctx.all_reduce_compressed_tiered(&mut data, codec, &mut scratch, &topo),
                _ => ctx.all_reduce_homomorphic_hier(&mut data, codec, &mut scratch, &topo),
            };
            reduce_fingerprint(&data, &stats)
        });
        let prints: Vec<String> = prints.iter().map(|p| format!("{p:016x}")).collect();
        format!("{entry} {codec} {nodes}x{rpn} {len}: {}", prints.join(" "))
    }

    /// Every all-reduce entry × codec × shape × length, fingerprinted per
    /// rank before the direct and leader-combined schedules were merged. The
    /// f32-summing `sum` codec is order-sensitive, so its `homomorphic_hier`
    /// rows also pin the relayed route's fold order.
    const GOLDEN_REDUCE: &str = "\
compressed raw 2x2 41: 835fa6d1b7f48b3c 228aeba615604488 228aeba615604488 228aeba615604488
compressed raw 2x2 300: 346870499b018a86 346870499b018a86 346870499b018a86 346870499b018a86
compressed raw 2x3 41: 0a59962926eb5e7f 0a59962926eb5e7f 0a59962926eb5e7f 0a59962926eb5e7f 0a59962926eb5e7f 24688720e12f8923
compressed raw 2x3 300: 479d1ad6bc4545cd 479d1ad6bc4545cd 479d1ad6bc4545cd 479d1ad6bc4545cd 479d1ad6bc4545cd 479d1ad6bc4545cd
compressed raw 3x2 41: 0a59962926eb5e7f 0a59962926eb5e7f 0a59962926eb5e7f 0a59962926eb5e7f 0a59962926eb5e7f 24688720e12f8923
compressed raw 3x2 300: 479d1ad6bc4545cd 479d1ad6bc4545cd 479d1ad6bc4545cd 479d1ad6bc4545cd 479d1ad6bc4545cd 479d1ad6bc4545cd
compressed raw 1x4 41: 835fa6d1b7f48b3c 228aeba615604488 228aeba615604488 228aeba615604488
compressed raw 1x4 300: 346870499b018a86 346870499b018a86 346870499b018a86 346870499b018a86
compressed raw 4x1 41: 835fa6d1b7f48b3c 228aeba615604488 228aeba615604488 228aeba615604488
compressed raw 4x1 300: 346870499b018a86 346870499b018a86 346870499b018a86 346870499b018a86
compressed half 2x2 41: 2720a2147e4e8152 d575a1d5b9f4ee7e d575a1d5b9f4ee7e d575a1d5b9f4ee7e
compressed half 2x2 300: 4bf01b89073f5138 4bf01b89073f5138 4bf01b89073f5138 4bf01b89073f5138
compressed half 2x3 41: 690802b31d73edce 690802b31d73edce 690802b31d73edce 690802b31d73edce 690802b31d73edce f6156f404bea446a
compressed half 2x3 300: 0419241dcd125a42 0419241dcd125a42 0419241dcd125a42 0419241dcd125a42 0419241dcd125a42 0419241dcd125a42
compressed half 3x2 41: 690802b31d73edce 690802b31d73edce 690802b31d73edce 690802b31d73edce 690802b31d73edce f6156f404bea446a
compressed half 3x2 300: 0419241dcd125a42 0419241dcd125a42 0419241dcd125a42 0419241dcd125a42 0419241dcd125a42 0419241dcd125a42
compressed half 1x4 41: 2720a2147e4e8152 d575a1d5b9f4ee7e d575a1d5b9f4ee7e d575a1d5b9f4ee7e
compressed half 1x4 300: 4bf01b89073f5138 4bf01b89073f5138 4bf01b89073f5138 4bf01b89073f5138
compressed half 4x1 41: 2720a2147e4e8152 d575a1d5b9f4ee7e d575a1d5b9f4ee7e d575a1d5b9f4ee7e
compressed half 4x1 300: 4bf01b89073f5138 4bf01b89073f5138 4bf01b89073f5138 4bf01b89073f5138
compressed lattice 2x2 41: 99b8bcdfb57314ac 6dfb0b80a7d2a7d0 6dfb0b80a7d2a7d0 6dfb0b80a7d2a7d0
compressed lattice 2x2 300: 2261c804bf8a9258 2261c804bf8a9258 2261c804bf8a9258 2261c804bf8a9258
compressed lattice 2x3 41: b5c3a6e20a4737b7 b5c3a6e20a4737b7 b5c3a6e20a4737b7 b5c3a6e20a4737b7 b5c3a6e20a4737b7 1654cf03902ad4a3
compressed lattice 2x3 300: 9350c547edd3fd08 9350c547edd3fd08 9350c547edd3fd08 9350c547edd3fd08 9350c547edd3fd08 9350c547edd3fd08
compressed lattice 3x2 41: b5c3a6e20a4737b7 b5c3a6e20a4737b7 b5c3a6e20a4737b7 b5c3a6e20a4737b7 b5c3a6e20a4737b7 1654cf03902ad4a3
compressed lattice 3x2 300: 9350c547edd3fd08 9350c547edd3fd08 9350c547edd3fd08 9350c547edd3fd08 9350c547edd3fd08 9350c547edd3fd08
compressed lattice 1x4 41: 99b8bcdfb57314ac 6dfb0b80a7d2a7d0 6dfb0b80a7d2a7d0 6dfb0b80a7d2a7d0
compressed lattice 1x4 300: 2261c804bf8a9258 2261c804bf8a9258 2261c804bf8a9258 2261c804bf8a9258
compressed lattice 4x1 41: 99b8bcdfb57314ac 6dfb0b80a7d2a7d0 6dfb0b80a7d2a7d0 6dfb0b80a7d2a7d0
compressed lattice 4x1 300: 2261c804bf8a9258 2261c804bf8a9258 2261c804bf8a9258 2261c804bf8a9258
compressed sum 2x2 41: 2768bd12b7a6655c 29f41e9276ba7320 29f41e9276ba7320 29f41e9276ba7320
compressed sum 2x2 300: 5870c4f9a8a0ba18 5870c4f9a8a0ba18 5870c4f9a8a0ba18 5870c4f9a8a0ba18
compressed sum 2x3 41: a0998b09ba3345f9 a0998b09ba3345f9 a0998b09ba3345f9 a0998b09ba3345f9 a0998b09ba3345f9 b2d60ca8222d440d
compressed sum 2x3 300: 9bffd1a475bafbdd 9bffd1a475bafbdd 9bffd1a475bafbdd 9bffd1a475bafbdd 9bffd1a475bafbdd 9bffd1a475bafbdd
compressed sum 3x2 41: a0998b09ba3345f9 a0998b09ba3345f9 a0998b09ba3345f9 a0998b09ba3345f9 a0998b09ba3345f9 b2d60ca8222d440d
compressed sum 3x2 300: 9bffd1a475bafbdd 9bffd1a475bafbdd 9bffd1a475bafbdd 9bffd1a475bafbdd 9bffd1a475bafbdd 9bffd1a475bafbdd
compressed sum 1x4 41: 2768bd12b7a6655c 29f41e9276ba7320 29f41e9276ba7320 29f41e9276ba7320
compressed sum 1x4 300: 5870c4f9a8a0ba18 5870c4f9a8a0ba18 5870c4f9a8a0ba18 5870c4f9a8a0ba18
compressed sum 4x1 41: 2768bd12b7a6655c 29f41e9276ba7320 29f41e9276ba7320 29f41e9276ba7320
compressed sum 4x1 300: 5870c4f9a8a0ba18 5870c4f9a8a0ba18 5870c4f9a8a0ba18 5870c4f9a8a0ba18
tiered raw 2x2 41: 4cda99c8e3f9f2bc 36b34f1e7f0d5b08 7de69b5bf45afa08 7de69b5bf45afa08
tiered raw 2x2 300: 6db878284f28a786 6db878284f28a786 6db878284f28a786 6db878284f28a786
tiered raw 2x3 41: 238f30e7c6c131ff 238f30e7c6c131ff 238f30e7c6c131ff dc5be4aa517392ff dc5be4aa517392ff d8b19624ead311e3
tiered raw 2x3 300: f6202251a42faf2d f6202251a42faf2d f6202251a42faf2d f6202251a42faf2d f6202251a42faf2d f6202251a42faf2d
tiered raw 3x2 41: 64f345bfaa590cbf 64f345bfaa590cbf 64f345bfaa590cbf 64f345bfaa590cbf eab81988e81931ff 0ecbf7524dc02063
tiered raw 3x2 300: f8b4a58ab061824d f8b4a58ab061824d f8b4a58ab061824d f8b4a58ab061824d f8b4a58ab061824d f8b4a58ab061824d
tiered raw 1x4 41: 56a8a2f01450f3bc 0a953be5e8e1da08 0a953be5e8e1da08 0a953be5e8e1da08
tiered raw 1x4 300: db7d6d95994e3fa6 db7d6d95994e3fa6 db7d6d95994e3fa6 db7d6d95994e3fa6
tiered raw 4x1 41: 45144151eb72d3bc e79c31a6c4507a08 e79c31a6c4507a08 e79c31a6c4507a08
tiered raw 4x1 300: ca3b222a75d7f7a6 ca3b222a75d7f7a6 ca3b222a75d7f7a6 ca3b222a75d7f7a6
tiered half 2x2 41: 737794c5b0763912 ca6c54230faa83be a8bce5f13feb733e a8bce5f13feb733e
tiered half 2x2 300: bc36623f037c6728 bc36623f037c6728 bc36623f037c6728 bc36623f037c6728
tiered half 2x3 41: d40c241763ff208e d40c241763ff208e d40c241763ff208e b0727df8a958510e b0727df8a958510e 64e173014effde2a
tiered half 2x3 300: ed2e279b3fbe7832 ed2e279b3fbe7832 ed2e279b3fbe7832 ed2e279b3fbe7832 ed2e279b3fbe7832 ed2e279b3fbe7832
tiered half 3x2 41: 4334030b3cda3c8e 4334030b3cda3c8e 4334030b3cda3c8e 4334030b3cda3c8e 200434cd86ed310e 2bee8fafe864acaa
tiered half 3x2 300: b49819d08a3f05a2 b49819d08a3f05a2 b49819d08a3f05a2 b49819d08a3f05a2 b49819d08a3f05a2 b49819d08a3f05a2
tiered half 1x4 41: 18d932b66b79b892 b51706645513e33e b51706645513e33e b51706645513e33e
tiered half 1x4 300: d0c5c79c3585bdd8 d0c5c79c3585bdd8 d0c5c79c3585bdd8 d0c5c79c3585bdd8
tiered half 4x1 41: 06a2f1b948b1e892 f3e21acbd7f0b33e f3e21acbd7f0b33e f3e21acbd7f0b33e
tiered half 4x1 300: 235cf1f1d46595d8 235cf1f1d46595d8 235cf1f1d46595d8 235cf1f1d46595d8
tiered lattice 2x2 41: 3231b6519765a22c 537d642999c9ea50 9ab0b0670f178950 9ab0b0670f178950
tiered lattice 2x2 300: 0e2243383532b018 0e2243383532b018 0e2243383532b018 0e2243383532b018
tiered lattice 2x3 41: cd3d1ae3ef4abd37 cd3d1ae3ef4abd37 cd3d1ae3ef4abd37 7523c51f2aeee037 7523c51f2aeee037 cdec9d0fbf9c7d63
tiered lattice 2x3 300: 68dc02e4c690fdc8 68dc02e4c690fdc8 68dc02e4c690fdc8 68dc02e4c690fdc8 68dc02e4c690fdc8 68dc02e4c690fdc8
tiered lattice 3x2 41: 046d6b7d775bd7f7 046d6b7d775bd7f7 046d6b7d775bd7f7 046d6b7d775bd7f7 90a65ae3e2be7d37 f9951053011dcde3
tiered lattice 3x2 300: 66f79a01c4343128 66f79a01c4343128 66f79a01c4343128 66f79a01c4343128 66f79a01c4343128 66f79a01c4343128
tiered lattice 1x4 41: 921943753704212c 275f50f1039e6950 275f50f1039e6950 275f50f1039e6950
tiered lattice 1x4 300: 60a72c2cfbab44e8 60a72c2cfbab44e8 60a72c2cfbab44e8 60a72c2cfbab44e8
tiered lattice 4x1 41: 58887038c7dd012c 30fb1a1c3f220950 30fb1a1c3f220950 30fb1a1c3f220950
tiered lattice 4x1 300: 3a9e17efe09a20e8 3a9e17efe09a20e8 3a9e17efe09a20e8 3a9e17efe09a20e8
tiered sum 2x2 41: 99328a5926f444dc 39fa1340b125e1a0 7d58efa450a402a0 7d58efa450a402a0
tiered sum 2x2 300: 977d1eaad3be08d8 977d1eaad3be08d8 977d1eaad3be08d8 977d1eaad3be08d8
tiered sum 2x3 41: 869b0abd548f1cf9 869b0abd548f1cf9 869b0abd548f1cf9 b8aa05b8a0453bf9 b8aa05b8a0453bf9 fbd627ad278ad04d
tiered sum 2x3 300: f5ed881a9e4df87d f5ed881a9e4df87d f5ed881a9e4df87d f5ed881a9e4df87d f5ed881a9e4df87d f5ed881a9e4df87d
tiered sum 3x2 41: fdea2c13072a54b9 fdea2c13072a54b9 fdea2c13072a54b9 fdea2c13072a54b9 eeaae9510eb2fbf9 a7c8381a7a65e2cd
tiered sum 3x2 300: ceb3379070b8ec1d ceb3379070b8ec1d ceb3379070b8ec1d ceb3379070b8ec1d ceb3379070b8ec1d ceb3379070b8ec1d
tiered sum 1x4 41: 4e6f4e77b0ed45dc 66182679475162a0 66182679475162a0 66182679475162a0
tiered sum 1x4 300: 96b62921e4c16ca8 96b62921e4c16ca8 96b62921e4c16ca8 96b62921e4c16ca8
tiered sum 4x1 41: e849a7d0e1b125dc e70e85ef209982a0 e70e85ef209982a0 e70e85ef209982a0
tiered sum 4x1 300: 70ad14e4c9b048a8 70ad14e4c9b048a8 70ad14e4c9b048a8 70ad14e4c9b048a8
homomorphic_hier lattice 2x2 41: 9255030353afc1cf 09957dfe12c9da51 ce6f15bb1bd46a43 09957dfe12c9da51
homomorphic_hier lattice 2x2 300: 489cf49325d6a5d5 02b632992d44b689 489cf49325d6a5d5 02b632992d44b689
homomorphic_hier lattice 2x3 41: b125044263c4e30b 007c354aad8e4d15 007c354aad8e4d15 e6f50e9ee81dc6f7 007c354aad8e4d15 ec37daf154510d8d
homomorphic_hier lattice 2x3 300: c292895ed5758af4 e46fe7e38375b7fc e46fe7e38375b7fc c292895ed5758af4 e46fe7e38375b7fc e46fe7e38375b7fc
homomorphic_hier lattice 3x2 41: 086aad978c556476 ab1cb35956660c81 086aad978c556476 ab1cb35956660c81 172062c34fb5ff4a c884126db5b40b0d
homomorphic_hier lattice 3x2 300: 9a0ce991ccc51d12 065f8ac4f98f257f 9a0ce991ccc51d12 065f8ac4f98f257f 9a0ce991ccc51d12 065f8ac4f98f257f
homomorphic_hier lattice 1x4 41: 921943753704212c 275f50f1039e6950 275f50f1039e6950 275f50f1039e6950
homomorphic_hier lattice 1x4 300: 60a72c2cfbab44e8 60a72c2cfbab44e8 60a72c2cfbab44e8 60a72c2cfbab44e8
homomorphic_hier lattice 4x1 41: 58887038c7dd012c 30fb1a1c3f220950 30fb1a1c3f220950 30fb1a1c3f220950
homomorphic_hier lattice 4x1 300: 3a9e17efe09a20e8 3a9e17efe09a20e8 3a9e17efe09a20e8 3a9e17efe09a20e8
homomorphic_hier sum 2x2 41: b699567f4c20a08d 66feadbf20d00b1b fb89c2b4ef844901 66feadbf20d00b1b
homomorphic_hier sum 2x2 300: df271d3f6de0034a 38f7aeccc9051bb2 df271d3f6de0034a 38f7aeccc9051bb2
homomorphic_hier sum 2x3 41: f9b7720b3322aa45 30558b6105f24e73 30558b6105f24e73 82b95b835ba5f0c9 30558b6105f24e73 d5ee1b4a510684ab
homomorphic_hier sum 2x3 300: 52ddbb1c72bfa8f2 7d9701c7292441da 7d9701c7292441da 52ddbb1c72bfa8f2 7d9701c7292441da 7d9701c7292441da
homomorphic_hier sum 3x2 41: 37f27cd093ec9d39 db2227dab46b489e 37f27cd093ec9d39 db2227dab46b489e 75009b23fc75a50d 6f20960c419e4c12
homomorphic_hier sum 3x2 300: fb1f12782a4a983e 194b899c38c1b22b fb1f12782a4a983e 194b899c38c1b22b fb1f12782a4a983e 194b899c38c1b22b
homomorphic_hier sum 1x4 41: 4e6f4e77b0ed45dc 66182679475162a0 66182679475162a0 66182679475162a0
homomorphic_hier sum 1x4 300: 96b62921e4c16ca8 96b62921e4c16ca8 96b62921e4c16ca8 96b62921e4c16ca8
homomorphic_hier sum 4x1 41: e849a7d0e1b125dc e70e85ef209982a0 e70e85ef209982a0 e70e85ef209982a0
homomorphic_hier sum 4x1 300: 70ad14e4c9b048a8 70ad14e4c9b048a8 70ad14e4c9b048a8 70ad14e4c9b048a8
";

    #[test]
    fn golden_reduce_table_is_unchanged() {
        let mut rows = Vec::new();
        for entry in ["compressed", "tiered", "homomorphic_hier"] {
            for codec in ["raw", "half", "lattice", "sum"] {
                if entry == "homomorphic_hier" && matches!(codec, "raw" | "half") {
                    continue;
                }
                for shape in [(2, 2), (2, 3), (3, 2), (1, 4), (4, 1)] {
                    for len in [41, 300] {
                        rows.push(golden_reduce_row(entry, codec, shape, len));
                    }
                }
            }
        }
        let golden: Vec<&str> = GOLDEN_REDUCE.lines().collect();
        for (row, want) in rows.iter().zip(&golden) {
            assert_eq!(row, want, "golden reduce row changed");
        }
        assert_eq!(
            rows.len(),
            golden.len(),
            "golden reduce table size; computed:\n{}",
            rows.join("\n")
        );
    }
}
