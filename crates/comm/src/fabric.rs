//! The wire under the collectives: a point-to-point message fabric plus the
//! execution policies that turn the simulated cluster into a *real-time*
//! one.
//!
//! [`RankCtx`]'s collectives consume exactly four
//! primitives — `send_on` a [`Link`] class, blocking `recv`, non-blocking
//! `try_recv`, and `barrier` — captured here as the [`Fabric`] trait. The
//! one backend, [`ChannelFabric`], runs them over the vendored crossbeam
//! channels (one FIFO per ordered `(src, dst)` pair) and layers two
//! orthogonal policies on top:
//!
//! * [`GatePolicy`] — whether rank threads run freely
//!   ([`GatePolicy::FreeRunning`], the default: real concurrency, one OS
//!   thread per rank) or take turns under a [`SerialGate`]
//!   ([`GatePolicy::Serialized`]): at most one rank makes progress at any
//!   instant, the honest single-core baseline that wall-clock speedups are
//!   measured against. The gate's token is released only while a rank is
//!   *blocked* (an empty-channel `recv`, a `barrier`), so serialized
//!   execution interleaves ranks exactly where the free-running execution
//!   would block — numerics are identical, only the schedule differs.
//!
//! * [`WirePolicy`] — whether messages are delivered instantly
//!   ([`WirePolicy::Instant`], the default: correctness-only simulation) or
//!   paced by the α–β [`CostModel`] ([`WirePolicy::Modeled`]): each message
//!   is sent on a [`Link`] class and becomes *ready* only
//!   `latency + bytes/bandwidth(link)` after its sender's egress queue for
//!   that class frees up, with real wall-clock sleeps covering the
//!   remainder at receive time. Under the serial gate the pacing sleep holds
//!   the token (nothing overlaps a serialized wire); free-running threads
//!   sleep without the token, so other ranks' codec work proceeds while a
//!   payload is in flight — the overlap the paper's pipeline is built
//!   around, observable in wall-clock time even on a single core.
//!
//! ## Modeled-vs-wall contract
//!
//! Each link class has its own egress queue and its own bandwidth, as the
//! virtual ledger charges each collective on its own link: every
//! all-to-all (and the controller's all-gather) rides [`Link::AllToAll`] at
//! `alltoall_bandwidth`, the dense all-reduce rides [`Link::AllReduce`] at
//! `allreduce_bandwidth`, and a message on one queue never waits behind the
//! other's. The pacing model charges α per *message* on the sender's
//! serialized queue, while the ledger charges α once per collective and
//! takes the max of the send/receive directions. Wall wire time therefore
//! tracks, but does not exactly equal, modeled wire time (expect an extra
//! `(world − 2)·α` per collective and egress-only serialization). Tiers are
//! not paced: under a topology every message rides the flat network's two
//! queues. The cross-validation lives in
//! `TrainingReport::modeled_vs_wall_ratio`.

use crate::cost::{CostModel, Link, NetworkConfig};
use crate::pool::{BufferPool, PooledBuf};
use crate::RankCtx;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How rank threads are scheduled relative to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GatePolicy {
    /// All rank threads run concurrently (one OS thread per rank).
    #[default]
    FreeRunning,
    /// Rank threads take turns under a [`SerialGate`]: at most one runs at
    /// any instant. The single-core wall-clock baseline.
    Serialized,
}

/// How message delivery time relates to wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WirePolicy {
    /// Messages are available to the receiver as soon as they are sent.
    #[default]
    Instant,
    /// Messages become available [`CostModel::message_time`] — `latency +
    /// bytes/bandwidth` of their [`Link`] class — after the sender's egress
    /// queue for that class frees up; receivers sleep off any remainder.
    /// Each class has its own queue and its own bandwidth. Makes wire time
    /// *real*.
    Modeled,
}

/// A turn-taking token shared by every rank of a serialized mesh.
///
/// Exactly one thread holds the token at a time; [`ChannelFabric`] releases
/// it around every operation that blocks (empty-channel receives, barriers)
/// and re-acquires it before returning to the caller, so the serialized
/// schedule interleaves ranks precisely at the points where a concurrent
/// schedule would context-switch.
#[derive(Debug, Default)]
pub struct SerialGate {
    held: Mutex<bool>,
    turn: Condvar,
}

impl SerialGate {
    /// Create a gate with the token free.
    pub fn new() -> Self {
        Self::default()
    }

    /// Block until the token is free, then take it.
    pub fn acquire(&self) {
        let mut held = self.held.lock().expect("gate poisoned");
        while *held {
            held = self.turn.wait(held).expect("gate poisoned");
        }
        *held = true;
    }

    /// Release the token and wake one waiter.
    pub fn release(&self) {
        *self.held.lock().expect("gate poisoned") = false;
        self.turn.notify_one();
    }
}

/// A message in flight: the payload plus the instant the modeled wire
/// finishes delivering it (`None` under [`WirePolicy::Instant`]).
#[derive(Debug)]
struct Parcel {
    buf: PooledBuf,
    ready_at: Option<Instant>,
}

/// The exchange primitives [`RankCtx`]'s collectives are
/// built from. One implementation exists — [`ChannelFabric`] — but the
/// trait is the seam a future process- or RDMA-backed wire would plug into.
pub trait Fabric: Send {
    /// This endpoint's rank id.
    fn rank(&self) -> usize;
    /// Number of ranks on the fabric.
    fn world(&self) -> usize;
    /// Post `buf` to `dst` on `link`'s egress queue without blocking.
    ///
    /// # Panics
    /// Panics if `dst`'s endpoint has been dropped ("peer rank hung up").
    fn send_on(&self, dst: usize, buf: PooledBuf, link: Link);
    /// [`Fabric::send_on`] the all-to-all link, which every collective but
    /// the all-reduce rides.
    ///
    /// # Panics
    /// Panics if `dst`'s endpoint has been dropped ("peer rank hung up").
    fn send(&self, dst: usize, buf: PooledBuf) {
        self.send_on(dst, buf, Link::AllToAll);
    }
    /// Block until the next message from `src` is delivered.
    ///
    /// # Panics
    /// Panics if `src`'s endpoint is gone with no message in flight.
    fn recv(&self, src: usize) -> PooledBuf;
    /// Poll for the next message from `src`: `None` while it is still in
    /// flight (not yet sent, or sent but not yet deliverable under the wire
    /// policy).
    ///
    /// # Panics
    /// Panics if `src`'s endpoint is gone with no message in flight.
    fn try_recv(&self, src: usize) -> Option<PooledBuf>;
    /// Synchronise all ranks on the fabric.
    fn barrier(&self);
    /// Number of messages addressed to this rank that are posted but not
    /// yet consumed — queued in channels plus staged parcels still inside
    /// their modeled flight time. A racy snapshot meant for observability
    /// sampling at exchange boundaries, not for control flow. Backends
    /// without queue introspection may report 0.
    fn pending_depth(&self) -> usize {
        0
    }
}

/// Crossbeam-channel backend of [`Fabric`]: a matrix of per-`(src, dst)`
/// FIFOs, a shared [`Barrier`], an optional [`SerialGate`], and an optional
/// α–β-paced wire. Build one endpoint per rank with [`ChannelFabric::mesh`].
pub struct ChannelFabric {
    rank: usize,
    world: usize,
    /// senders[dst] — channel to each destination (index `rank` is a
    /// self-loop that is never used; local chunks move without a channel).
    senders: Vec<Sender<Parcel>>,
    /// receivers[src] — channel from each source.
    receivers: Vec<Receiver<Parcel>>,
    barrier: Arc<Barrier>,
    gate: Option<Arc<SerialGate>>,
    /// `Some` under [`WirePolicy::Modeled`]: the cost model pacing delivery.
    wire: Option<CostModel>,
    /// When this rank's modeled egress queue of each [`Link`] class next
    /// frees up: a class's messages ride its queue one after another, as on
    /// a real NIC, and never wait behind the other class's.
    link_free_at: [Cell<Instant>; 2],
    /// Per-source parcel that has arrived but is still inside its modeled
    /// flight time — `try_recv` must not deliver it early.
    staged: RefCell<Vec<Option<Parcel>>>,
}

impl ChannelFabric {
    /// Build a fully-connected mesh of `world` endpoints over `network`.
    ///
    /// # Panics
    /// Panics if `world == 0`.
    pub fn mesh(
        world: usize,
        network: NetworkConfig,
        gate: GatePolicy,
        wire: WirePolicy,
    ) -> Vec<ChannelFabric> {
        assert!(world > 0, "mesh needs at least one rank");
        // channels[src][dst]: matrix of FIFO links.
        let mut senders: Vec<Vec<Option<Sender<Parcel>>>> = (0..world)
            .map(|_| (0..world).map(|_| None).collect())
            .collect();
        let mut receivers: Vec<Vec<Option<Receiver<Parcel>>>> = (0..world)
            .map(|_| (0..world).map(|_| None).collect())
            .collect();
        for (src, sender_row) in senders.iter_mut().enumerate() {
            for (dst, sender_slot) in sender_row.iter_mut().enumerate() {
                let (tx, rx) = unbounded();
                *sender_slot = Some(tx);
                receivers[dst][src] = Some(rx);
            }
        }
        let barrier = Arc::new(Barrier::new(world));
        let shared_gate = match gate {
            GatePolicy::FreeRunning => None,
            GatePolicy::Serialized => Some(Arc::new(SerialGate::new())),
        };
        let cost = match wire {
            WirePolicy::Instant => None,
            WirePolicy::Modeled => Some(CostModel::new(network)),
        };
        let now = Instant::now();
        (0..world)
            .map(|rank| ChannelFabric {
                rank,
                world,
                senders: senders[rank]
                    .iter_mut()
                    .map(|s| s.take().expect("sender present"))
                    .collect(),
                receivers: receivers[rank]
                    .iter_mut()
                    .map(|r| r.take().expect("receiver present"))
                    .collect(),
                barrier: Arc::clone(&barrier),
                gate: shared_gate.clone(),
                wire: cost,
                link_free_at: [Cell::new(now), Cell::new(now)],
                staged: RefCell::new((0..world).map(|_| None).collect()),
            })
            .collect()
    }

    /// The serial gate shared by this mesh, if it runs serialized. The
    /// executor wraps each rank's closure in `acquire`/`release` of this
    /// handle so ranks hold the token while they compute.
    pub fn gate_handle(&self) -> Option<Arc<SerialGate>> {
        self.gate.clone()
    }

    /// Sleep off whatever remains of a parcel's modeled flight time. Under
    /// the serial gate the caller holds the token here — a serialized wire
    /// overlaps with nothing.
    fn pace(&self, ready_at: Option<Instant>) {
        if let Some(t) = ready_at {
            let now = Instant::now();
            if t > now {
                thread::sleep(t - now);
            }
        }
    }

    /// Take the next parcel from `src`, releasing the serial-gate token
    /// while (and only while) actually blocked on an empty channel.
    fn obtain(&self, src: usize) -> Parcel {
        if let Some(parcel) = self.staged.borrow_mut()[src].take() {
            return parcel;
        }
        match self.receivers[src].try_recv() {
            Ok(parcel) => return parcel,
            Err(TryRecvError::Disconnected) => panic!("peer rank hung up"),
            Err(TryRecvError::Empty) => {}
        }
        if let Some(gate) = &self.gate {
            gate.release();
            let got = self.receivers[src].recv();
            gate.acquire();
            got.expect("peer rank hung up")
        } else {
            self.receivers[src].recv().expect("peer rank hung up")
        }
    }
}

impl Fabric for ChannelFabric {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn send_on(&self, dst: usize, buf: PooledBuf, link: Link) {
        let ready_at = self.wire.map(|cost| {
            let free_at = &self.link_free_at[link as usize];
            let start = free_at.get().max(Instant::now());
            let done = start + Duration::from_secs_f64(cost.message_time(link, buf.len()));
            free_at.set(done);
            done
        });
        self.senders[dst]
            .send(Parcel { buf, ready_at })
            .expect("peer rank hung up");
    }

    fn recv(&self, src: usize) -> PooledBuf {
        let parcel = self.obtain(src);
        self.pace(parcel.ready_at);
        parcel.buf
    }

    fn try_recv(&self, src: usize) -> Option<PooledBuf> {
        let mut staged = self.staged.borrow_mut();
        if staged[src].is_none() {
            match self.receivers[src].try_recv() {
                Ok(parcel) => staged[src] = Some(parcel),
                Err(TryRecvError::Empty) => return None,
                Err(TryRecvError::Disconnected) => panic!("peer rank hung up"),
            }
        }
        let deliverable = staged[src]
            .as_ref()
            .expect("parcel staged")
            .ready_at
            .is_none_or(|t| Instant::now() >= t);
        if deliverable {
            staged[src].take().map(|p| p.buf)
        } else {
            None
        }
    }

    fn barrier(&self) {
        if let Some(gate) = &self.gate {
            gate.release();
            self.barrier.wait();
            gate.acquire();
        } else {
            self.barrier.wait();
        }
    }

    fn pending_depth(&self) -> usize {
        let staged = self.staged.borrow();
        self.receivers
            .iter()
            .enumerate()
            .filter(|(src, _)| *src != self.rank)
            .map(|(src, rx)| rx.len() + usize::from(staged[src].is_some()))
            .sum()
    }
}

/// Spawn one named OS thread per rank over a fresh [`ChannelFabric`] mesh,
/// run `f` on each rank's [`RankCtx`], and collect the
/// results in rank order. Under [`GatePolicy::Serialized`] each thread holds
/// the gate token for the whole closure, minus the blocking windows the
/// fabric releases it around.
///
/// This is the one spawn loop in the workspace: `SimCluster::run` calls it
/// with the default policies, `dlrm-exec`'s executor with whatever the
/// experiment asks for.
///
/// # Panics
/// Panics if any rank's closure panics (the panic is propagated).
pub fn run_on_mesh<T, F>(
    world: usize,
    network: NetworkConfig,
    gate: GatePolicy,
    wire: WirePolicy,
    f: F,
) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(RankCtx) -> T + Send + Sync + 'static,
{
    let fabrics = ChannelFabric::mesh(world, network, gate, wire);
    let f = Arc::new(f);
    let mut handles = Vec::with_capacity(world);
    for (rank, fabric) in fabrics.into_iter().enumerate() {
        let f = Arc::clone(&f);
        handles.push(
            thread::Builder::new()
                .name(format!("rank-{rank}"))
                .spawn(move || {
                    let turn = fabric.gate_handle();
                    let ctx = RankCtx::from_fabric(Box::new(fabric), network, BufferPool::new());
                    if let Some(gate) = &turn {
                        gate.acquire();
                    }
                    let out = f(ctx);
                    if let Some(gate) = &turn {
                        gate.release();
                    }
                    out
                })
                .expect("spawn rank thread"),
        );
    }
    handles
        .into_iter()
        .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn fill(ctx: &RankCtx, bytes: usize) -> PooledBuf {
        let mut b = ctx.take_buf(bytes);
        b.resize(bytes, ctx.rank() as u8);
        b
    }

    #[test]
    fn mesh_delivers_point_to_point_in_fifo_order() {
        let results = run_on_mesh(
            2,
            NetworkConfig::infinite(),
            GatePolicy::FreeRunning,
            WirePolicy::Instant,
            |ctx| {
                if ctx.rank() == 0 {
                    for len in [1usize, 3, 2] {
                        let b = fill(&ctx, len);
                        ctx.fabric().send(1, b);
                    }
                    vec![]
                } else {
                    (0..3).map(|_| ctx.fabric().recv(0).len()).collect()
                }
            },
        );
        assert_eq!(results[1], vec![1, 3, 2]);
    }

    #[test]
    fn pending_depth_counts_posted_but_unconsumed_messages() {
        let depths = run_on_mesh(
            2,
            NetworkConfig::infinite(),
            GatePolicy::FreeRunning,
            WirePolicy::Instant,
            |ctx| {
                if ctx.rank() == 0 {
                    for _ in 0..3 {
                        let b = fill(&ctx, 8);
                        ctx.fabric().send(1, b);
                    }
                    ctx.barrier(); // messages are definitely posted now
                    ctx.barrier(); // wait for rank 1 to sample
                    0
                } else {
                    ctx.barrier();
                    let before = ctx.fabric().pending_depth();
                    ctx.barrier();
                    for _ in 0..3 {
                        ctx.fabric().recv(0);
                    }
                    let after = ctx.fabric().pending_depth();
                    assert_eq!(after, 0);
                    before
                }
            },
        );
        assert_eq!(depths[1], 3);
    }

    #[test]
    fn serialized_gate_admits_one_rank_at_a_time() {
        static ACTIVE: AtomicUsize = AtomicUsize::new(0);
        static OBSERVED_MAX: AtomicUsize = AtomicUsize::new(0);
        run_on_mesh(
            4,
            NetworkConfig::infinite(),
            GatePolicy::Serialized,
            WirePolicy::Instant,
            |ctx| {
                for _ in 0..50 {
                    let now = ACTIVE.fetch_add(1, Ordering::SeqCst) + 1;
                    OBSERVED_MAX.fetch_max(now, Ordering::SeqCst);
                    std::hint::black_box(vec![0u8; 256]);
                    ACTIVE.fetch_sub(1, Ordering::SeqCst);
                    ctx.barrier();
                }
            },
        );
        assert_eq!(
            OBSERVED_MAX.load(Ordering::SeqCst),
            1,
            "two ranks were inside the gated section simultaneously"
        );
    }

    #[test]
    fn serialized_all_to_all_matches_free_running() {
        let all_to_all = |ctx: RankCtx| {
            let world = ctx.world();
            let mut send: Vec<_> = (0..world)
                .map(|dst| ctx.pool().adopt(vec![(ctx.rank() * 10 + dst) as u8; 4]))
                .collect();
            let mut recv = Vec::new();
            ctx.all_to_all_pooled(&mut send, &mut recv);
            recv.into_iter()
                .map(PooledBuf::into_vec)
                .collect::<Vec<_>>()
        };
        let free = run_on_mesh(
            4,
            NetworkConfig::infinite(),
            GatePolicy::FreeRunning,
            WirePolicy::Instant,
            all_to_all,
        );
        let gated = run_on_mesh(
            4,
            NetworkConfig::infinite(),
            GatePolicy::Serialized,
            WirePolicy::Instant,
            all_to_all,
        );
        assert_eq!(free, gated);
    }

    #[test]
    fn modeled_wire_paces_delivery() {
        // 100 KB over 1 MB/s ≈ 100 ms on the wire.
        let network = NetworkConfig {
            alltoall_bandwidth: 1e6,
            allreduce_bandwidth: 1e6,
            latency: 0.0,
        };
        let elapsed = run_on_mesh(
            2,
            network,
            GatePolicy::FreeRunning,
            WirePolicy::Modeled,
            |ctx| {
                let t0 = Instant::now();
                if ctx.rank() == 0 {
                    let b = fill(&ctx, 100_000);
                    ctx.fabric().send(1, b);
                } else {
                    let b = ctx.fabric().recv(0);
                    assert_eq!(b.len(), 100_000);
                }
                ctx.barrier();
                t0.elapsed().as_secs_f64()
            },
        );
        assert!(
            elapsed[1] >= 0.09,
            "receiver finished in {}s — wire was not paced",
            elapsed[1]
        );
    }

    /// Seconds rank 1 waits, from a shared barrier, for one `bytes`-long
    /// message rank 0 sends it on `link` over a paced `network`.
    fn paced_delivery(network: NetworkConfig, link: Link, bytes: usize) -> f64 {
        let elapsed = run_on_mesh(
            2,
            network,
            GatePolicy::FreeRunning,
            WirePolicy::Modeled,
            move |ctx| {
                ctx.barrier();
                let t0 = Instant::now();
                if ctx.rank() == 0 {
                    ctx.fabric().send_on(1, fill(&ctx, bytes), link);
                } else {
                    assert_eq!(ctx.fabric().recv(0).len(), bytes);
                }
                t0.elapsed().as_secs_f64()
            },
        );
        elapsed[1]
    }

    #[test]
    fn each_link_is_paced_at_its_own_bandwidth() {
        // 100 KB: ≈ 100 ms at 1 MB/s, ≈ 0.1 ms at 1 GB/s.
        let alltoall_bound = NetworkConfig {
            alltoall_bandwidth: 1e6,
            allreduce_bandwidth: 1e9,
            latency: 0.0,
        };
        let reduce = paced_delivery(alltoall_bound, Link::AllReduce, 100_000);
        assert!(
            reduce < 0.02,
            "all-reduce message paced at the a2a link ({reduce}s)"
        );
        let exchange = paced_delivery(alltoall_bound, Link::AllToAll, 100_000);
        assert!(
            exchange >= 0.09,
            "all-to-all message was not paced ({exchange}s)"
        );
    }

    #[test]
    fn swapping_the_bandwidths_swaps_the_pacing() {
        let allreduce_bound = NetworkConfig {
            alltoall_bandwidth: 1e9,
            allreduce_bandwidth: 1e6,
            latency: 0.0,
        };
        let exchange = paced_delivery(allreduce_bound, Link::AllToAll, 100_000);
        assert!(
            exchange < 0.02,
            "all-to-all message paced at the all-reduce link ({exchange}s)"
        );
        let reduce = paced_delivery(allreduce_bound, Link::AllReduce, 100_000);
        assert!(
            reduce >= 0.09,
            "all-reduce message was not paced ({reduce}s)"
        );
    }

    #[test]
    fn link_classes_have_independent_egress_queues() {
        // Rank 0 fills its all-to-all queue for ≈ 50 ms, then posts a small
        // all-reduce message: that one must not wait behind the exchange.
        let network = NetworkConfig {
            alltoall_bandwidth: 1e6,
            allreduce_bandwidth: 1e6,
            latency: 0.0,
        };
        let elapsed = run_on_mesh(
            3,
            network,
            GatePolicy::FreeRunning,
            WirePolicy::Modeled,
            |ctx| {
                ctx.barrier();
                let t0 = Instant::now();
                match ctx.rank() {
                    0 => {
                        ctx.fabric().send_on(1, fill(&ctx, 50_000), Link::AllToAll);
                        ctx.fabric().send_on(2, fill(&ctx, 100), Link::AllReduce);
                    }
                    1 => assert_eq!(ctx.fabric().recv(0).len(), 50_000),
                    _ => assert_eq!(ctx.fabric().recv(0).len(), 100),
                }
                t0.elapsed().as_secs_f64()
            },
        );
        assert!(
            elapsed[2] < 0.02,
            "all-reduce message queued behind the all-to-all ({}s)",
            elapsed[2]
        );
        assert!(
            elapsed[1] >= 0.045,
            "all-to-all message was not paced ({}s)",
            elapsed[1]
        );
    }

    #[test]
    fn modeled_try_recv_reports_in_flight_until_ready() {
        let network = NetworkConfig {
            alltoall_bandwidth: 1e6,
            allreduce_bandwidth: 1e6,
            latency: 0.0,
        };
        let saw_in_flight = run_on_mesh(
            2,
            network,
            GatePolicy::FreeRunning,
            WirePolicy::Modeled,
            |ctx| {
                if ctx.rank() == 0 {
                    let b = fill(&ctx, 50_000); // ≈ 50 ms in flight
                    ctx.fabric().send(1, b);
                    ctx.barrier();
                    false
                } else {
                    ctx.barrier(); // the parcel is definitely posted now
                    let in_flight = ctx.fabric().try_recv(0).is_none();
                    let b = ctx.fabric().recv(0);
                    assert_eq!(b.len(), 50_000);
                    in_flight
                }
            },
        );
        assert!(
            saw_in_flight[1],
            "try_recv delivered a parcel that was still inside its flight time"
        );
    }

    #[test]
    fn egress_link_serializes_back_to_back_sends() {
        // Two 50 KB messages at 1 MB/s: the second rides the link after the
        // first, so its delivery lands ≈ 100 ms after the sends.
        let network = NetworkConfig {
            alltoall_bandwidth: 1e6,
            allreduce_bandwidth: 1e6,
            latency: 0.0,
        };
        let elapsed = run_on_mesh(
            2,
            network,
            GatePolicy::FreeRunning,
            WirePolicy::Modeled,
            |ctx| {
                let t0 = Instant::now();
                if ctx.rank() == 0 {
                    ctx.fabric().send(1, fill(&ctx, 50_000));
                    ctx.fabric().send(1, fill(&ctx, 50_000));
                } else {
                    ctx.fabric().recv(0);
                    ctx.fabric().recv(0);
                }
                ctx.barrier();
                t0.elapsed().as_secs_f64()
            },
        );
        assert!(
            elapsed[1] >= 0.09,
            "second message did not wait for the egress link ({}s)",
            elapsed[1]
        );
    }
}
