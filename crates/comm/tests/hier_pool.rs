//! The hierarchical all-to-all's pool demand does not depend on thread
//! timing: after warm-up it allocates nothing, whatever order the ranks
//! reach it in during warm-up and afterwards.
//!
//! The replay mirrors the benchmark's all-to-all layer: equal payload
//! chunks taken from each rank's pool, a barrier, the collective, the
//! received leases dropped — under the serial gate, with no spare leases
//! parked. Tokens on the fabric sequence the ranks' entry into each call,
//! and every entry order is tried, during warm-up and after it. A leader
//! hands its exchange bundle to the remote leader, which drops it back into
//! the sender's pool at a moment the entry order decides; the sender's
//! later takes in the same call must not depend on whether it is back.

use dlrm_comm::fabric::run_on_mesh;
use dlrm_comm::{BufferPool, GatePolicy, NetworkConfig, PooledBuf, RankCtx, Topology, WirePolicy};

const WORLD: usize = 4;
/// Odd, so no request lands on a power of two.
const PAYLOAD: usize = 8547;
const WARM_ROUNDS: usize = 2;

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for at in 0..=rest.len() {
            let mut p = rest.clone();
            p.insert(at, n - 1);
            out.push(p);
        }
    }
    out
}

/// Run `call` once this rank's turn in `order` comes: wait for the token
/// of the rank before it, and pass the token on just before calling. Under
/// the serial gate the next rank then runs once this one first blocks.
fn enter_in_order<T>(ctx: &RankCtx, order: &[usize], call: impl FnOnce() -> T) -> T {
    let at = order
        .iter()
        .position(|&r| r == ctx.rank())
        .expect("every rank has a turn");
    if at > 0 {
        drop(ctx.fabric().recv(order[at - 1]));
    }
    if let Some(&next) = order.get(at + 1) {
        // An empty lease from a throwaway pool: the token moves nothing
        // through the rank's own pool.
        ctx.fabric().send(next, BufferPool::new().adopt(Vec::new()));
    }
    call()
}

#[test]
fn hier_all_to_all_allocates_nothing_after_warm_up_in_any_entry_order() {
    let topo = Topology::new(
        2,
        2,
        NetworkConfig::nvlink_intra_node(),
        NetworkConfig::paper_figure11(),
    );
    let orders = permutations(WORLD);
    for warm_order in &orders {
        let schedule: Vec<Vec<usize>> = std::iter::repeat_n(warm_order.clone(), WARM_ROUNDS)
            .chain(orders.iter().cloned())
            .collect();
        let steady = run_on_mesh(
            WORLD,
            NetworkConfig::infinite(),
            GatePolicy::Serialized,
            WirePolicy::Instant,
            move |ctx| {
                let mut send: Vec<PooledBuf> = Vec::with_capacity(WORLD);
                let mut recv: Vec<PooledBuf> = Vec::with_capacity(WORLD);
                let mut mark = ctx.pool().stats();
                for (round, order) in schedule.iter().enumerate() {
                    ctx.barrier();
                    if round == WARM_ROUNDS {
                        mark = ctx.pool().stats();
                    }
                    for dst in 0..WORLD {
                        let mut chunk = ctx.take_buf(PAYLOAD);
                        chunk.resize(PAYLOAD, (round * WORLD + dst) as u8);
                        send.push(chunk);
                    }
                    ctx.barrier();
                    enter_in_order(&ctx, order, || {
                        ctx.all_to_all_hier_pooled(&topo, &mut send, &mut recv)
                    });
                    for (src, chunk) in recv.iter().enumerate() {
                        assert_eq!(chunk.len(), PAYLOAD, "from {src}");
                        assert_eq!(chunk[0], (round * WORLD + ctx.rank()) as u8, "from {src}");
                    }
                    recv.clear();
                }
                ctx.barrier();
                ctx.pool().stats().since(&mark).allocated_bytes
            },
        );
        assert_eq!(
            steady,
            vec![0; WORLD],
            "steady-state pool bytes per rank after warming up in entry order {warm_order:?}"
        );
    }
}
