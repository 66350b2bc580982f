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
use crate::topology::{HierExchangeBytes, Tier, Topology};
use std::cell::RefCell;

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
                for src_node in (0..nodes).filter(|&n| n != my_node) {
                    let bundle = self.fabric.recv(topo.leader_of_node(src_node));
                    bytes.exchange.received += bundle.len();
                    bufs_a.push(bundle);
                }
                lens.clear();
                lens.resize(rpn, 0);
                for bundle in &bufs_a {
                    for (_src, dst, payload) in hier_entries(bundle) {
                        let dst = dst as usize;
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
                for bundle in &bufs_a {
                    for (src, dst, payload) in hier_entries(bundle) {
                        let (src, dst) = (src as usize, dst as usize);
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
                let count = u32::from_le_bytes(bundle[0..4].try_into().expect("4 bytes")) as usize;
                assert_eq!(count, world - rpn, "scatter bundle with wrong entry count");
                for (src, dst, payload) in hier_entries(&bundle) {
                    assert_eq!(dst as usize, rank, "misrouted scatter entry");
                    let mut chunk = self.pool.take(payload.len());
                    chunk.extend_from_slice(payload);
                    slots[src as usize] = Some(chunk);
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

    /// Sum-all-reduce over an `f32` vector. Every rank ends with the
    /// element-wise sum across ranks; summation is performed in rank order so
    /// the result is bit-identical on every rank.
    ///
    /// Runs as a **reduce-scatter + all-gather**: each element's sum is
    /// computed once, on the rank owning its shard, and distributed — so a
    /// rank's traffic is `2·(P−1)/P` of the vector, exactly the volume
    /// [`CostModel::allreduce_time`]'s ring formula assumes (the former
    /// full-replication schedule moved `(P−1)·V` per rank while the ledger
    /// charged ring time). Because every element is still accumulated in
    /// rank order 0..P, the result is bit-for-bit identical to the
    /// full-replication schedule's.
    ///
    /// All transfers ride pool leases, so the steady state allocates nothing.
    pub fn all_reduce_sum(&self, data: &mut [f32]) -> ExchangeBytes {
        let mut scratch = self.scratch.borrow_mut();
        let mut reduce = std::mem::take(&mut scratch.reduce);
        drop(scratch);
        let stats = self.all_reduce_compressed(data, &mut RawF32Codec, &mut reduce);
        self.scratch.borrow_mut().reduce = reduce;
        stats.wire
    }

    /// Sum-all-reduce whose hops carry `codec`-encoded shards: a
    /// reduce-scatter + all-gather schedule ([`shard_range`] split) where
    /// each contribution is **decoded → reduced → re-encoded** on the shard's
    /// owner. The owner round-trips its own reduced shard through the codec
    /// before use, so every rank ends with bit-identical values — and with a
    /// lossless codec ([`RawF32Codec`]) the result is bit-identical to
    /// [`RankCtx::all_reduce_sum`] (rank-order summation per element).
    ///
    /// When the codec advertises [`ReduceCodec::is_homomorphic`], the owner
    /// instead **combines the encoded contributions in the compressed
    /// domain** (in the same rank order) and forwards the combined encoding
    /// during the all-gather: `world − 1` decodes and the re-encode vanish
    /// from every owner's critical path, which the returned
    /// [`ReduceStats::combines`]/[`ReduceStats::combined_bytes`] account
    /// for. The owner's own contribution is then also routed through the
    /// codec (it must enter the lattice like everyone else's), so a lossy
    /// homomorphic codec quantizes `world` contributions where the classic
    /// path quantizes `world − 1`; a lossless homomorphic codec still
    /// reproduces [`RankCtx::all_reduce_sum`] bit for bit.
    ///
    /// The codec's `offset` argument tells stateful codecs (error feedback)
    /// which elements of the full vector a shard covers. Returns wire bytes
    /// (encoded) alongside the raw bytes the same schedule would have moved
    /// uncompressed. Pool leases and `scratch` make the steady state
    /// allocation-free.
    pub fn all_reduce_compressed<C: ReduceCodec + ?Sized>(
        &self,
        data: &mut [f32],
        codec: &mut C,
        scratch: &mut ReduceScratch,
    ) -> ReduceStats {
        self.all_reduce_impl(data, codec, scratch, None).stats
    }

    /// [`RankCtx::all_reduce_compressed`] with per-tier byte accounting over
    /// a node-aware [`Topology`]: the schedule, the wire bytes and the
    /// reduced values are **identical** (rank-order summation per element —
    /// bit-for-bit the flat collective's result); the returned
    /// [`TieredReduceStats`] additionally buckets each hop's wire bytes by
    /// the tier the `(src, dst)` pair crosses, which is what
    /// [`crate::topology::TieredCostModel::allreduce_tier_times`] charges.
    pub fn all_reduce_compressed_tiered<C: ReduceCodec + ?Sized>(
        &self,
        data: &mut [f32],
        codec: &mut C,
        scratch: &mut ReduceScratch,
        topo: &Topology,
    ) -> TieredReduceStats {
        assert_eq!(
            topo.world(),
            self.world,
            "topology does not match the cluster's world"
        );
        self.all_reduce_impl(data, codec, scratch, Some(topo))
    }

    /// Leader-combined hierarchical all-reduce, for homomorphic codecs only:
    /// the same sharded sum as [`RankCtx::all_reduce_compressed_tiered`],
    /// but members hand their encoded contributions to their node leader,
    /// which **combines them in the compressed domain** into one
    /// node-aggregate per destination shard before the fabric hop — the
    /// reduce-scatter crosses the fabric once per node pair instead of once
    /// per rank pair (`ranks_per_node×` less inter-tier volume), and the
    /// all-gather fans reduced shards back out through one leader bundle per
    /// node pair.
    ///
    /// Contributions fold in a node-grouped order (within-node rank order,
    /// then node aggregates in node order). For a codec whose combine is
    /// associative and commutative — the integer-lattice codec — the result
    /// is bit-identical to the flat combine schedule; for an order-sensitive
    /// f32-summing combine it is the same sum under a different
    /// parenthesisation, still within the codec's stated bound.
    ///
    /// Degenerate shapes (single node, or one rank per node) fall back to
    /// the flat combine schedule, which they match hop for hop.
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
        assert_eq!(
            topo.world(),
            self.world,
            "topology does not match the cluster's world"
        );
        assert!(
            codec.is_homomorphic(),
            "leader-combined all-reduce requires a homomorphic codec"
        );
        if topo.is_single_tier() || topo.ranks_per_node() == 1 {
            return self.all_reduce_impl(data, codec, scratch, Some(topo));
        }
        let world = self.world;
        let rank = self.rank;
        let nodes = topo.nodes();
        let rpn = topo.ranks_per_node();
        let my_node = topo.node_of(rank);
        let leader = topo.leader_of(rank);
        let am_leader = rank == leader;
        let node_ranks = |n: usize| (n * rpn)..((n + 1) * rpn);
        let mut out = TieredReduceStats::default();

        // ── Reduce-scatter, phase 1: post contributions. Same-node shards go
        // straight to their owner; remote-node shards go to the local leader
        // as one bundle per remote node (leaders keep their own remote
        // contributions for the combine below). Send order is dst-node
        // ascending on every rank, so each FIFO channel drains in a globally
        // agreed order.
        for dst_node in 0..nodes {
            if dst_node == my_node {
                for dst in node_ranks(dst_node) {
                    if dst == rank {
                        continue;
                    }
                    let range = shard_range(data.len(), world, dst);
                    let shard = &data[range.clone()];
                    let mut buf = self.pool.take(codec.max_encoded_bytes(shard.len()));
                    codec.encode_into(range.start, shard, &mut buf);
                    out.stats.encoded_bytes += shard.len() * 4;
                    out.record_sent(Some(Tier::Intra), buf.len());
                    out.stats.raw.sent += shard.len() * 4;
                    self.fabric.send(dst, buf);
                }
            } else if !am_leader {
                let mut cap = 4 + rpn * HIER_ENTRY_HEADER_BYTES;
                for dst in node_ranks(dst_node) {
                    cap += codec.max_encoded_bytes(shard_range(data.len(), world, dst).len());
                }
                let mut bundle = self.pool.take(cap);
                bundle.extend_from_slice(&(rpn as u32).to_le_bytes());
                for dst in node_ranks(dst_node) {
                    let range = shard_range(data.len(), world, dst);
                    scratch.own_enc.clear();
                    codec.encode_into(range.start, &data[range.clone()], &mut scratch.own_enc);
                    out.stats.encoded_bytes += range.len() * 4;
                    write_hier_entry(&mut bundle, rank, dst, &scratch.own_enc);
                    out.stats.raw.sent += range.len() * 4;
                }
                out.record_sent(Some(Tier::Intra), bundle.len());
                self.fabric.send(leader, bundle);
            }
        }

        // Seed the own-shard accumulator with this rank's own encoded
        // contribution (folded at its in-node rank position below).
        let own = shard_range(data.len(), world, rank);
        scratch.own_enc.clear();
        codec.encode_into(own.start, &data[own.clone()], &mut scratch.own_enc);
        out.stats.encoded_bytes += own.len() * 4;
        scratch.encoded.clear();

        // ── Reduce-scatter, phase 2: fold same-node contributions in
        // in-node rank order. Leaders additionally combine each member
        // bundle into per-destination node aggregates and exchange them
        // leader-to-leader; members receive their shard's node aggregates
        // from their leader.
        if am_leader {
            // Drain member channels in the members' send order (dst-node
            // ascending): the direct chunk for this leader's own shard sits
            // at the my-node position between the remote-node bundles.
            for dst_node in 0..nodes {
                if dst_node == my_node {
                    // Own-shard contributions: self first (the leader is the
                    // lowest in-node rank), then members in rank order.
                    scratch.encoded.extend_from_slice(&scratch.own_enc);
                    for src in node_ranks(my_node) {
                        if src == rank {
                            continue;
                        }
                        let chunk = self.fabric.recv(src);
                        out.record_received(Some(Tier::Intra), chunk.len());
                        out.stats.raw.received += own.len() * 4;
                        out.stats.combines += 1;
                        out.stats.combined_bytes += chunk.len();
                        codec
                            .combine(own.start, &mut scratch.encoded, &chunk)
                            .unwrap_or_else(|e| {
                                panic!("rank {rank}: combining own-shard chunk from {src}: {e}")
                            });
                    }
                } else {
                    // Node aggregates for dst_node's shards: seed each
                    // accumulator with this leader's own contribution, fold
                    // member bundles in rank order, ship one bundle to the
                    // destination leader.
                    scratch.accs.resize(rpn, Vec::new());
                    for (slot, dst) in node_ranks(dst_node).enumerate() {
                        let range = shard_range(data.len(), world, dst);
                        let acc = &mut scratch.accs[slot];
                        acc.clear();
                        codec.encode_into(range.start, &data[range.clone()], acc);
                        out.stats.encoded_bytes += range.len() * 4;
                    }
                    for src in node_ranks(my_node) {
                        if src == rank {
                            continue;
                        }
                        let bundle = self.fabric.recv(src);
                        out.record_received(Some(Tier::Intra), bundle.len());
                        for (entry_src, dst, payload) in hier_entries(&bundle) {
                            let slot = dst as usize - dst_node * rpn;
                            let range = shard_range(data.len(), world, dst as usize);
                            out.stats.raw.received += range.len() * 4;
                            out.stats.combines += 1;
                            out.stats.combined_bytes += payload.len();
                            codec
                                .combine(range.start, &mut scratch.accs[slot], payload)
                                .unwrap_or_else(|e| {
                                    panic!(
                                        "rank {rank}: combining contribution \
                                         {entry_src}→{dst}: {e}"
                                    )
                                });
                        }
                    }
                    // Worst-case lease: variable-size payloads (the sum
                    // sketch) grow over training, and a current-length cap
                    // would demand ever-larger pool classes after warm-up.
                    let cap = 4 + node_ranks(dst_node)
                        .map(|dst| {
                            HIER_ENTRY_HEADER_BYTES
                                + codec.max_encoded_bytes(shard_range(data.len(), world, dst).len())
                        })
                        .sum::<usize>();
                    let mut bundle = self.pool.take(cap);
                    bundle.extend_from_slice(&(rpn as u32).to_le_bytes());
                    for (slot, dst) in node_ranks(dst_node).enumerate() {
                        write_hier_entry(&mut bundle, rank, dst, &scratch.accs[slot]);
                        out.stats.raw.sent += shard_range(data.len(), world, dst).len() * 4;
                    }
                    out.record_sent(Some(Tier::Inter), bundle.len());
                    self.fabric.send(topo.leader_of_node(dst_node), bundle);
                }
            }
            // Fold the remote node aggregates for this leader's own shard
            // and forward members theirs.
            for src_node in 0..nodes {
                if src_node == my_node {
                    continue;
                }
                let bundle = self.fabric.recv(topo.leader_of_node(src_node));
                out.record_received(Some(Tier::Inter), bundle.len());
                for (_, dst, payload) in hier_entries(&bundle) {
                    let range = shard_range(data.len(), world, dst as usize);
                    out.stats.raw.received += range.len() * 4;
                    if dst as usize == rank {
                        out.stats.combines += 1;
                        out.stats.combined_bytes += payload.len();
                        codec
                            .combine(own.start, &mut scratch.encoded, payload)
                            .unwrap_or_else(|e| {
                                panic!("rank {rank}: combining node {src_node} aggregate: {e}")
                            });
                    } else {
                        let mut buf = self.pool.take(codec.max_encoded_bytes(range.len()));
                        buf.extend_from_slice(payload);
                        out.record_sent(Some(Tier::Intra), buf.len());
                        out.stats.raw.sent += range.len() * 4;
                        self.fabric.send(dst as usize, buf);
                    }
                }
            }
        } else {
            // Members: fold same-node direct contributions in in-node rank
            // order, then the node aggregates their leader forwards.
            for src in node_ranks(my_node) {
                if src == rank {
                    if scratch.encoded.is_empty() {
                        scratch.encoded.extend_from_slice(&scratch.own_enc);
                    } else {
                        out.stats.combines += 1;
                        out.stats.combined_bytes += scratch.own_enc.len();
                        codec
                            .combine(own.start, &mut scratch.encoded, &scratch.own_enc)
                            .unwrap_or_else(|e| {
                                panic!("rank {rank}: combining own contribution: {e}")
                            });
                    }
                    continue;
                }
                let chunk = self.fabric.recv(src);
                out.record_received(Some(Tier::Intra), chunk.len());
                out.stats.raw.received += own.len() * 4;
                if scratch.encoded.is_empty() {
                    scratch.encoded.extend_from_slice(&chunk);
                } else {
                    out.stats.combines += 1;
                    out.stats.combined_bytes += chunk.len();
                    codec
                        .combine(own.start, &mut scratch.encoded, &chunk)
                        .unwrap_or_else(|e| {
                            panic!("rank {rank}: combining own-shard chunk from {src}: {e}")
                        });
                }
            }
            for src_node in 0..nodes {
                if src_node == my_node {
                    continue;
                }
                let chunk = self.fabric.recv(leader);
                out.record_received(Some(Tier::Intra), chunk.len());
                out.stats.raw.received += own.len() * 4;
                out.stats.combines += 1;
                out.stats.combined_bytes += chunk.len();
                codec
                    .combine(own.start, &mut scratch.encoded, &chunk)
                    .unwrap_or_else(|e| {
                        panic!("rank {rank}: combining node {src_node} aggregate: {e}")
                    });
            }
        }

        // ── All-gather: the combined own shard goes to every same-node peer
        // directly; across the fabric, each leader ships one bundle of its
        // node's reduced shards per remote node and fans received bundles
        // out to its members.
        for dst in node_ranks(my_node) {
            if dst == rank {
                continue;
            }
            let mut buf = self.pool.take(codec.max_encoded_bytes(own.len()));
            buf.extend_from_slice(&scratch.encoded);
            out.record_sent(Some(Tier::Intra), buf.len());
            out.stats.raw.sent += own.len() * 4;
            self.fabric.send(dst, buf);
        }
        // Own shard round-trips through the codec like everyone else's copy.
        scratch.decode.clear();
        codec
            .decode_into(own.start, &scratch.encoded, &mut scratch.decode)
            .unwrap_or_else(|e| panic!("rank {rank}: decoding own reduced shard: {e}"));
        out.stats.decoded_bytes += own.len() * 4;
        assert_eq!(scratch.decode.len(), own.len(), "own shard round-trip size");
        data[own.clone()].copy_from_slice(&scratch.decode);

        // Lease size covering any rank's reduced encoded shard (rank 0 owns
        // the largest shard), for the all-gather leader bundles.
        let max_shard = shard_range(data.len(), world, 0).len();
        let gather_bundle_cap =
            4 + rpn * (HIER_ENTRY_HEADER_BYTES + codec.max_encoded_bytes(max_shard));

        let mut decode_shard = |ctx_rank: usize,
                                src: usize,
                                payload: &[u8],
                                data: &mut [f32],
                                scratch_decode: &mut Vec<f32>,
                                out: &mut TieredReduceStats| {
            let range = shard_range(data.len(), world, src);
            out.stats.raw.received += range.len() * 4;
            scratch_decode.clear();
            codec
                .decode_into(range.start, payload, scratch_decode)
                .unwrap_or_else(|e| {
                    panic!("rank {ctx_rank}: decoding reduced shard from {src}: {e}")
                });
            out.stats.decoded_bytes += range.len() * 4;
            assert_eq!(
                scratch_decode.len(),
                range.len(),
                "rank {ctx_rank}: reduced shard from {src} decoded to the wrong size",
            );
            data[range].copy_from_slice(scratch_decode);
        };

        if am_leader {
            // Gather the node's reduced shards (members' arrive on the same
            // channels as their reduce-scatter traffic, fully drained
            // above), bundling them for the remote leaders.
            let mut bundle = self.pool.take(gather_bundle_cap);
            bundle.extend_from_slice(&(rpn as u32).to_le_bytes());
            write_hier_entry(&mut bundle, rank, rank, &scratch.encoded);
            for src in node_ranks(my_node) {
                if src == rank {
                    continue;
                }
                let chunk = self.fabric.recv(src);
                out.record_received(Some(Tier::Intra), chunk.len());
                write_hier_entry(&mut bundle, src, src, &chunk);
                decode_shard(rank, src, &chunk, data, &mut scratch.decode, &mut out);
            }
            for dst_node in 0..nodes {
                if dst_node == my_node {
                    continue;
                }
                let mut copy = self.pool.take(gather_bundle_cap);
                copy.extend_from_slice(&bundle);
                out.record_sent(Some(Tier::Inter), copy.len());
                for src in node_ranks(my_node) {
                    out.stats.raw.sent += shard_range(data.len(), world, src).len() * 4;
                }
                self.fabric.send(topo.leader_of_node(dst_node), copy);
            }
            for src_node in 0..nodes {
                if src_node == my_node {
                    continue;
                }
                let bundle = self.fabric.recv(topo.leader_of_node(src_node));
                out.record_received(Some(Tier::Inter), bundle.len());
                for dst in node_ranks(my_node) {
                    if dst == rank {
                        continue;
                    }
                    let mut copy = self.pool.take(gather_bundle_cap);
                    copy.extend_from_slice(&bundle);
                    out.record_sent(Some(Tier::Intra), copy.len());
                    for src in node_ranks(src_node) {
                        out.stats.raw.sent += shard_range(data.len(), world, src).len() * 4;
                    }
                    self.fabric.send(dst, copy);
                }
                for (src, _, payload) in hier_entries(&bundle) {
                    decode_shard(
                        rank,
                        src as usize,
                        payload,
                        data,
                        &mut scratch.decode,
                        &mut out,
                    );
                }
            }
        } else {
            // Members: same-node reduced shards arrive directly, remote ones
            // as forwarded leader bundles in node order.
            for src in node_ranks(my_node) {
                if src == rank {
                    continue;
                }
                let chunk = self.fabric.recv(src);
                out.record_received(Some(Tier::Intra), chunk.len());
                decode_shard(rank, src, &chunk, data, &mut scratch.decode, &mut out);
            }
            for src_node in 0..nodes {
                if src_node == my_node {
                    continue;
                }
                let bundle = self.fabric.recv(leader);
                out.record_received(Some(Tier::Intra), bundle.len());
                for (src, _, payload) in hier_entries(&bundle) {
                    decode_shard(
                        rank,
                        src as usize,
                        payload,
                        data,
                        &mut scratch.decode,
                        &mut out,
                    );
                }
            }
        }
        out
    }

    fn all_reduce_impl<C: ReduceCodec + ?Sized>(
        &self,
        data: &mut [f32],
        codec: &mut C,
        scratch: &mut ReduceScratch,
        topo: Option<&Topology>,
    ) -> TieredReduceStats {
        let world = self.world;
        let mut out = TieredReduceStats::default();
        // The tier a hop to/from `peer` crosses (`None` without a topology —
        // wire bytes then land only in the untiered totals).
        let tier_of = |peer: usize| topo.map(|t| t.tier_of(self.rank, peer));
        if world == 1 {
            return out;
        }

        // ── Reduce-scatter: encode each peer's shard and post it.
        for dst in 0..world {
            if dst == self.rank {
                continue;
            }
            let range = shard_range(data.len(), world, dst);
            let shard = &data[range.clone()];
            let mut buf = self.pool.take(codec.max_encoded_bytes(shard.len()));
            codec.encode_into(range.start, shard, &mut buf);
            out.stats.encoded_bytes += shard.len() * 4;
            out.record_sent(tier_of(dst), buf.len());
            out.stats.raw.sent += shard.len() * 4;
            self.fabric.send(dst, buf);
        }

        // Own shard: fold every rank's contribution in rank order
        // (bit-identity across ranks and with the uncompressed schedule).
        // A homomorphic codec folds in the compressed domain — the encoded
        // accumulator in `scratch.encoded` goes straight out in the
        // all-gather, skipping `world − 1` decodes and the re-encode; the
        // classic path decodes into `scratch.accum` and re-encodes once.
        let own = shard_range(data.len(), world, self.rank);
        if codec.is_homomorphic() {
            scratch.own_enc.clear();
            codec.encode_into(own.start, &data[own.clone()], &mut scratch.own_enc);
            out.stats.encoded_bytes += own.len() * 4;
            scratch.encoded.clear();
            for src in 0..world {
                if src == self.rank {
                    if src == 0 {
                        scratch.encoded.extend_from_slice(&scratch.own_enc);
                    } else {
                        out.stats.combines += 1;
                        out.stats.combined_bytes += scratch.own_enc.len();
                        codec
                            .combine(own.start, &mut scratch.encoded, &scratch.own_enc)
                            .unwrap_or_else(|e| {
                                panic!("rank {}: combining own contribution: {e}", self.rank)
                            });
                    }
                } else {
                    let chunk = self.fabric.recv(src);
                    out.record_received(tier_of(src), chunk.len());
                    out.stats.raw.received += own.len() * 4;
                    if src == 0 {
                        scratch.encoded.extend_from_slice(&chunk);
                    } else {
                        out.stats.combines += 1;
                        out.stats.combined_bytes += chunk.len();
                        codec
                            .combine(own.start, &mut scratch.encoded, &chunk)
                            .unwrap_or_else(|e| {
                                panic!("rank {}: combining shard from {src}: {e}", self.rank)
                            });
                    }
                }
            }
        } else {
            scratch.accum.clear();
            scratch.accum.resize(own.len(), 0.0);
            for src in 0..world {
                if src == self.rank {
                    for (a, &v) in scratch.accum.iter_mut().zip(&data[own.clone()]) {
                        *a += v;
                    }
                } else {
                    let chunk = self.fabric.recv(src);
                    out.record_received(tier_of(src), chunk.len());
                    out.stats.raw.received += own.len() * 4;
                    scratch.decode.clear();
                    codec
                        .decode_into(own.start, &chunk, &mut scratch.decode)
                        .unwrap_or_else(|e| {
                            panic!("rank {}: decoding shard from {src}: {e}", self.rank)
                        });
                    out.stats.decoded_bytes += own.len() * 4;
                    assert_eq!(
                        scratch.decode.len(),
                        own.len(),
                        "rank {}: shard from {src} decoded to the wrong size",
                        self.rank
                    );
                    for (a, &v) in scratch.accum.iter_mut().zip(scratch.decode.iter()) {
                        *a += v;
                    }
                }
            }
            // Re-encode the reduced shard once for the all-gather.
            scratch.encoded.clear();
            codec.encode_into(own.start, &scratch.accum, &mut scratch.encoded);
            out.stats.encoded_bytes += own.len() * 4;
        }

        // ── All-gather: the reduced encoded shard goes to every peer.
        for dst in 0..world {
            if dst == self.rank {
                continue;
            }
            // Worst-case lease, not current-length: variable-size payloads
            // (the sum sketch) grow over training, and a current-length cap
            // would demand a fresh pool class after warm-up.
            let mut buf = self.pool.take(codec.max_encoded_bytes(own.len()));
            buf.extend_from_slice(&scratch.encoded);
            out.record_sent(tier_of(dst), buf.len());
            out.stats.raw.sent += own.len() * 4;
            self.fabric.send(dst, buf);
        }
        // Round-trip the own shard through the codec so this rank holds the
        // same (possibly lossy) values its peers will decode.
        scratch.decode.clear();
        codec
            .decode_into(own.start, &scratch.encoded, &mut scratch.decode)
            .unwrap_or_else(|e| panic!("rank {}: decoding own reduced shard: {e}", self.rank));
        out.stats.decoded_bytes += own.len() * 4;
        assert_eq!(scratch.decode.len(), own.len(), "own shard round-trip size");
        data[own].copy_from_slice(&scratch.decode);
        for src in 0..world {
            if src == self.rank {
                continue;
            }
            let chunk = self.fabric.recv(src);
            out.record_received(tier_of(src), chunk.len());
            let range = shard_range(data.len(), world, src);
            out.stats.raw.received += range.len() * 4;
            scratch.decode.clear();
            codec
                .decode_into(range.start, &chunk, &mut scratch.decode)
                .unwrap_or_else(|e| {
                    panic!("rank {}: decoding reduced shard from {src}: {e}", self.rank)
                });
            out.stats.decoded_bytes += range.len() * 4;
            assert_eq!(
                scratch.decode.len(),
                range.len(),
                "rank {}: reduced shard from {src} decoded to the wrong size",
                self.rank
            );
            data[range].copy_from_slice(&scratch.decode);
        }
        out
    }

    /// Broadcast a byte buffer from `root` to every rank.
    pub fn broadcast_bytes(&self, buffer: Vec<u8>, root: usize) -> (Vec<u8>, ExchangeBytes) {
        let mut stats = ExchangeBytes::default();
        if self.world == 1 {
            return (buffer, stats);
        }
        if self.rank == root {
            for dst in 0..self.world {
                if dst != root {
                    let mut b = self.pool.take(buffer.len());
                    b.extend_from_slice(&buffer);
                    stats.sent += b.len();
                    self.fabric.send(dst, b);
                }
            }
            (buffer, stats)
        } else {
            let received = self.fabric.recv(root);
            stats.received += received.len();
            (received.into_vec(), stats)
        }
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

/// Walk a hierarchical bundle's `[count u32]` + entry stream, yielding
/// `(src, dst, payload)` with payloads borrowed from `bundle`.
fn hier_entries(bundle: &[u8]) -> impl Iterator<Item = (u32, u32, &[u8])> {
    let count = u32::from_le_bytes(bundle[0..4].try_into().expect("entry count")) as usize;
    let mut pos = 4usize;
    (0..count).map(move |_| {
        let src = u32::from_le_bytes(bundle[pos..pos + 4].try_into().expect("src"));
        let dst = u32::from_le_bytes(bundle[pos + 4..pos + 8].try_into().expect("dst"));
        let len = u32::from_le_bytes(bundle[pos + 8..pos + 12].try_into().expect("len")) as usize;
        pos += HIER_ENTRY_HEADER_BYTES;
        let payload = &bundle[pos..pos + len];
        pos += len;
        (src, dst, payload)
    })
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
    fn broadcast_delivers_root_buffer() {
        let world = 4;
        let results = cluster(world).run(move |ctx| {
            let buffer = if ctx.rank() == 2 {
                vec![9, 9, 9]
            } else {
                vec![ctx.rank() as u8]
            };
            let (received, _) = ctx.broadcast_bytes(buffer, 2);
            received
        });
        for r in results {
            assert_eq!(r, vec![9, 9, 9]);
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
        // A codec that halves every payload (truncates to fp16-ish by
        // dropping the low half of each f32) is enough to check accounting;
        // values are powers of two so the truncation is exact.
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
}
