//! Virtual NCCL: rendezvous collectives between worker threads.
//!
//! Each parallel group (TP / PP / DP / micro-DP) in the multi-controller
//! runtime is backed by a [`CommGroup`]: a shared-memory rendezvous that
//! every member thread enters with its contribution and leaves with the
//! full set of contributions. On top of it, [`Communicator`] implements
//! the typed collectives (all-gather, all-reduce, reduce-scatter,
//! broadcast, gather, scatter, barrier) and charges each rank's
//! [`VirtualClock`] the analytic cost from [`CommCostModel`], so the
//! functional runtime and the analytic simulators agree on timing.
//!
//! Point-to-point transfers (used by inter-node data resharding, paper
//! §4.1 step ⑥) go through [`P2pNetwork`], which models GPU-to-GPU pulls
//! without a central bottleneck.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use crate::clock::VirtualClock;
use crate::cost::{CollectiveKind, CommCostModel};
use crate::topology::{ClusterSpec, DeviceId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Filling,
    Draining,
}

struct RoundState {
    phase: Phase,
    arrived: usize,
    departed: usize,
    slots: Vec<Option<Box<dyn Any + Send>>>,
    result: Option<Arc<dyn Any + Send + Sync>>,
    /// Once set, every present and future `exchange` on the group aborts
    /// by unwinding with a [`CollectiveAbort`] payload instead of
    /// blocking on members that will never arrive.
    poisoned: Option<Arc<str>>,
    /// Lifecycle auditor (audit builds): which ranks are currently inside
    /// `exchange`. A rank re-entering before its previous collective
    /// finished would corrupt the rendezvous round — the same misuse that
    /// hangs or corrupts a real NCCL communicator.
    #[cfg(feature = "audit")]
    in_flight: Vec<bool>,
}

/// Panic payload thrown out of [`CommGroup::exchange`] when the group
/// has been poisoned (a member died or was killed by fault injection).
///
/// This is the simulated analogue of `ncclCommAbort`: surviving ranks
/// blocked in a rendezvous are woken and unwind with this payload, which
/// the runtime layer catches and converts into a peer-failure error
/// rather than letting the collective deadlock.
#[derive(Debug, Clone)]
pub struct CollectiveAbort {
    /// Human-readable description of the originating failure.
    pub reason: String,
}

struct GroupInner {
    devices: Vec<DeviceId>,
    state: Mutex<RoundState>,
    cv: Condvar,
}

/// A rendezvous communication group over a fixed, ordered set of devices.
///
/// Cloning the handle shares the group; every member must call each
/// collective exactly once per round, in the same order, or the group
/// deadlocks (the same contract NCCL imposes).
#[derive(Clone)]
pub struct CommGroup {
    inner: Arc<GroupInner>,
}

impl CommGroup {
    /// Creates a group over `devices`; member local ranks are positions in
    /// this list.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn new(devices: Vec<DeviceId>) -> Self {
        assert!(!devices.is_empty(), "CommGroup must have at least one member");
        let n = devices.len();
        CommGroup {
            inner: Arc::new(GroupInner {
                devices,
                state: Mutex::new(RoundState {
                    phase: Phase::Filling,
                    arrived: 0,
                    departed: 0,
                    slots: (0..n).map(|_| None).collect(),
                    result: None,
                    poisoned: None,
                    #[cfg(feature = "audit")]
                    in_flight: vec![false; n],
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.inner.devices.len()
    }

    /// Ordered member device list.
    pub fn devices(&self) -> &[DeviceId] {
        &self.inner.devices
    }

    /// Poisons the group: every member currently blocked in
    /// [`CommGroup::exchange`] is woken and unwinds with a
    /// [`CollectiveAbort`]; every later `exchange` aborts immediately.
    ///
    /// Poisoning is permanent and idempotent (the first reason wins) —
    /// recovery means spawning a fresh worker group with fresh groups,
    /// exactly as NCCL requires a new communicator after `commAbort`.
    pub fn poison(&self, reason: &str) {
        let mut st = self.inner.state.lock();
        if st.poisoned.is_none() {
            st.poisoned = Some(Arc::from(reason));
        }
        self.inner.cv.notify_all();
    }

    /// The poison reason, if the group has been poisoned.
    pub fn poisoned(&self) -> Option<String> {
        self.inner.state.lock().poisoned.as_ref().map(|r| r.to_string())
    }

    /// Deposits `value` for `rank` and returns all members' values in rank
    /// order once every member has arrived.
    ///
    /// This is the primitive every collective is built from. The returned
    /// `Arc` is shared by all members; values are cloned out lazily by the
    /// typed wrappers.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range or deposits twice in one round.
    pub fn exchange<T: Clone + Send + Sync + 'static>(&self, rank: usize, value: T) -> Arc<Vec<T>> {
        fn abort_if_poisoned(st: &RoundState) {
            if let Some(r) = &st.poisoned {
                // An expected unwind, not a bug: skip the panic hook
                // (and its backtrace) that `panic_any` would run.
                std::panic::resume_unwind(Box::new(CollectiveAbort { reason: r.to_string() }));
            }
        }
        let inner = &*self.inner;
        let n = inner.devices.len();
        assert!(rank < n, "rank {rank} out of range for group of {n}");
        let mut st = inner.state.lock();
        abort_if_poisoned(&st);
        #[cfg(feature = "audit")]
        {
            assert!(
                !st.in_flight[rank],
                "audit: rank {rank} issued overlapping collectives on one group \
                 (previous exchange has not completed)"
            );
            st.in_flight[rank] = true;
        }
        // Wait out the drain of the previous round.
        while st.phase == Phase::Draining {
            inner.cv.wait(&mut st);
            abort_if_poisoned(&st);
        }
        assert!(st.slots[rank].is_none(), "rank {rank} deposited twice in one round");
        st.slots[rank] = Some(Box::new(value));
        st.arrived += 1;
        if st.arrived == n {
            let vals: Vec<T> = st
                .slots
                .iter_mut()
                .map(|s| {
                    *s.take()
                        .expect("slot must be filled")
                        .downcast::<T>()
                        .expect("all members of a round must exchange the same type")
                })
                .collect();
            st.result = Some(Arc::new(vals));
            st.phase = Phase::Draining;
            inner.cv.notify_all();
        } else {
            while st.phase == Phase::Filling {
                inner.cv.wait(&mut st);
                abort_if_poisoned(&st);
            }
        }
        let arc: Arc<dyn Any + Send + Sync> =
            st.result.as_ref().expect("result must be set in draining phase").clone();
        #[cfg(feature = "audit")]
        {
            st.in_flight[rank] = false;
        }
        st.departed += 1;
        if st.departed == n {
            st.phase = Phase::Filling;
            st.arrived = 0;
            st.departed = 0;
            st.result = None;
            inner.cv.notify_all();
        }
        drop(st);
        arc.downcast::<Vec<T>>().expect("all members of a round must exchange the same type")
    }
}

/// A per-rank handle over a [`CommGroup`] with timing semantics.
pub struct Communicator {
    group: CommGroup,
    rank: usize,
    cluster: Arc<ClusterSpec>,
    cost: CommCostModel,
    /// Collective rounds completed through *this handle*. SPMD members
    /// of a group call collectives in lockstep, so every member's local
    /// count agrees after each round — `(collective_tag, round)` is a
    /// deterministic cross-rank name for one collective instance, which
    /// hf-insight uses to stitch membership edges into the span graph.
    rounds: std::sync::atomic::AtomicU64,
    /// Lifecycle auditor (audit builds): set once this handle observes a
    /// [`CollectiveAbort`]. NCCL requires a fresh communicator after
    /// `commAbort`; issuing another collective through an aborted handle
    /// is a use-after-abort bug, not a recoverable condition.
    #[cfg(feature = "audit")]
    aborted: std::sync::atomic::AtomicBool,
}

impl Communicator {
    /// Binds local `rank` of `group` on `cluster` with cost model `cost`.
    pub fn new(
        group: CommGroup,
        rank: usize,
        cluster: Arc<ClusterSpec>,
        cost: CommCostModel,
    ) -> Self {
        assert!(rank < group.size());
        Communicator {
            group,
            rank,
            cluster,
            cost,
            rounds: std::sync::atomic::AtomicU64::new(0),
            #[cfg(feature = "audit")]
            aborted: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Collective rounds completed through this handle so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Deterministic cross-rank name for this communicator: the ordered
    /// device list of the group. Combined with [`Communicator::rounds`]
    /// it names one collective instance (`tag@round`) identically on
    /// every member — the basis for collective-membership edges in the
    /// causal span graph.
    pub fn collective_tag(&self) -> String {
        let ids: Vec<String> = self.group.devices().iter().map(|d| d.0.to_string()).collect();
        ids.join("-")
    }

    /// This rank's position in the group.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of group members.
    pub fn size(&self) -> usize {
        self.group.size()
    }

    /// The underlying group.
    pub fn group(&self) -> &CommGroup {
        &self.group
    }

    fn charge(&self, clock: &mut VirtualClock, times: &[f64], kind: CollectiveKind, bytes: f64) {
        let start = times.iter().cloned().fold(0.0_f64, f64::max);
        let cost = self.cost.collective_time(&self.cluster, self.group.devices(), kind, bytes);
        clock.sync_to(start + cost);
    }

    /// Raw exchange of arbitrary values plus clock synchronization with an
    /// explicit collective kind and payload size (used by higher layers
    /// that move non-f32 payloads, e.g. `DataProto` batches).
    pub fn exchange_timed<T: Clone + Send + Sync + 'static>(
        &self,
        clock: &mut VirtualClock,
        value: T,
        kind: CollectiveKind,
        total_bytes: f64,
    ) -> Arc<Vec<T>> {
        #[cfg(feature = "audit")]
        let all = {
            use std::sync::atomic::Ordering;
            assert!(
                !self.aborted.load(Ordering::Relaxed),
                "audit: rank {} issued a collective on a communicator that already \
                 observed a CollectiveAbort (a fresh communicator is required)",
                self.rank
            );
            let now = clock.now();
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.group.exchange(self.rank, (now, value))
            })) {
                Ok(all) => all,
                Err(payload) => {
                    self.aborted.store(true, Ordering::Relaxed);
                    std::panic::resume_unwind(payload);
                }
            }
        };
        #[cfg(not(feature = "audit"))]
        let all = self.group.exchange(self.rank, (clock.now(), value));
        let times: Vec<f64> = all.iter().map(|(t, _)| *t).collect();
        self.charge(clock, &times, kind, total_bytes);
        self.rounds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let vals: Vec<T> = all.iter().map(|(_, v)| v.clone()).collect();
        Arc::new(vals)
    }

    /// Ring all-gather: returns the concatenation of all ranks' buffers in
    /// rank order.
    pub fn all_gather(&self, clock: &mut VirtualClock, data: &[f32]) -> Vec<f32> {
        let parts = self.exchange_timed(
            clock,
            data.to_vec(),
            CollectiveKind::AllGather,
            0.0, // placeholder, recomputed below
        );
        // Recharge with the true aggregated size (cheap: charge() above used
        // zero bytes; add the true cost delta here by charging again with the
        // aggregate minus zero). To keep charging exact we compute the full
        // aggregate and charge once: redo via direct sum.
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let cost_full = self.cost.collective_time(
            &self.cluster,
            self.group.devices(),
            CollectiveKind::AllGather,
            (total * 4) as f64,
        );
        clock.advance(cost_full);
        let mut out = Vec::with_capacity(total);
        for p in parts.iter() {
            out.extend_from_slice(p);
        }
        out
    }

    /// Ring all-reduce (sum). All buffers must be the same length.
    ///
    /// Rank contributions combine in a balanced pairwise tree (not a
    /// left fold), so for power-of-two group sizes the float association
    /// is the same at every size — the keystone of the cross-layout
    /// bit-parity contract `hf-audit` enforces: summing 8 per-row
    /// gradients on one rank gives the exact bytes of tree-summing 4+4
    /// on two ranks and all-reducing, as long as each rank also
    /// tree-sums its local rows.
    ///
    /// # Panics
    ///
    /// Panics if member buffer lengths differ.
    pub fn all_reduce_sum(&self, clock: &mut VirtualClock, data: &[f32]) -> Vec<f32> {
        let parts = self.exchange_timed(
            clock,
            data.to_vec(),
            CollectiveKind::AllReduce,
            (data.len() * 4) as f64,
        );
        let len = parts[0].len();
        for p in parts.iter() {
            assert_eq!(p.len(), len, "all_reduce buffers must have equal length");
        }
        tree_sum_parts(parts.as_slice().to_vec())
    }

    /// Ring reduce-scatter (sum): rank `i` receives the `i`-th equal chunk
    /// of the elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length is not divisible by the group size.
    pub fn reduce_scatter_sum(&self, clock: &mut VirtualClock, data: &[f32]) -> Vec<f32> {
        let n = self.size();
        assert_eq!(data.len() % n, 0, "reduce_scatter length must divide evenly");
        let summed = {
            let parts = self.exchange_timed(
                clock,
                data.to_vec(),
                CollectiveKind::ReduceScatter,
                (data.len() * 4) as f64,
            );
            let len = parts[0].len();
            for p in parts.iter() {
                assert_eq!(p.len(), len);
            }
            // Balanced pairwise tree, matching all_reduce_sum (see there)
            // so ZeRO sharded updates reproduce replicated ones bitwise.
            tree_sum_parts(parts.as_slice().to_vec())
        };
        let chunk = summed.len() / n;
        summed[self.rank * chunk..(self.rank + 1) * chunk].to_vec()
    }

    /// Broadcast from `root`; only the root's `data` is used.
    ///
    /// # Panics
    ///
    /// Panics if the root passed `None`.
    pub fn broadcast(
        &self,
        clock: &mut VirtualClock,
        root: usize,
        data: Option<Vec<f32>>,
    ) -> Vec<f32> {
        let parts = self.exchange_timed(clock, data, CollectiveKind::Broadcast, 0.0);
        let payload = parts[root].as_ref().expect("broadcast root must supply data").clone();
        let cost = self.cost.collective_time(
            &self.cluster,
            self.group.devices(),
            CollectiveKind::Broadcast,
            (payload.len() * 4) as f64,
        );
        clock.advance(cost);
        payload
    }

    /// Gather to `root`: the root receives every rank's buffer; other ranks
    /// receive `None`.
    pub fn gather(
        &self,
        clock: &mut VirtualClock,
        root: usize,
        data: &[f32],
    ) -> Option<Vec<Vec<f32>>> {
        let parts = self.exchange_timed(
            clock,
            data.to_vec(),
            CollectiveKind::Gather,
            (data.len() * 4 * self.size()) as f64,
        );
        if self.rank == root {
            Some(parts.iter().cloned().collect())
        } else {
            None
        }
    }

    /// Scatter from `root`: the root supplies one chunk per rank.
    ///
    /// # Panics
    ///
    /// Panics if the root passed `None` or the wrong number of chunks.
    pub fn scatter(
        &self,
        clock: &mut VirtualClock,
        root: usize,
        chunks: Option<Vec<Vec<f32>>>,
    ) -> Vec<f32> {
        let parts = self.exchange_timed(clock, chunks, CollectiveKind::Scatter, 0.0);
        let all = parts[root].as_ref().expect("scatter root must supply chunks");
        assert_eq!(all.len(), self.size(), "scatter needs one chunk per rank");
        let total: usize = all.iter().map(|c| c.len() * 4).sum();
        let cost = self.cost.collective_time(
            &self.cluster,
            self.group.devices(),
            CollectiveKind::Scatter,
            total as f64,
        );
        clock.advance(cost);
        all[self.rank].clone()
    }

    /// Barrier: synchronizes virtual clocks to the group maximum.
    pub fn barrier(&self, clock: &mut VirtualClock) {
        let _ = self.exchange_timed(clock, (), CollectiveKind::AllGather, 0.0);
    }
}

/// Balanced pairwise-tree elementwise sum of equal-length vectors; an
/// odd tail carries up a level unchanged.
///
/// This is the association `all_reduce_sum` / `reduce_scatter_sum` use
/// to combine rank contributions, exported so workers can sum per-row
/// gradients the same way: for a power-of-two global row count split
/// into equal power-of-two chunks, local-tree + rank-tree composes into
/// the single-rank global tree, which is what makes DP gradient
/// reductions bit-identical across layouts (the hf-audit contract).
///
/// # Panics
///
/// Panics if `parts` is empty.
pub fn tree_sum_parts(mut parts: Vec<Vec<f32>>) -> Vec<f32> {
    assert!(!parts.is_empty(), "tree_sum_parts of no parts");
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut it = parts.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                for (x, y) in a.iter_mut().zip(b.iter()) {
                    *x += y;
                }
            }
            next.push(a);
        }
        parts = next;
    }
    parts.pop().expect("one part remains")
}

type P2pMsg = (f64, Box<dyn Any + Send>);
type P2pLinks = HashMap<(DeviceId, DeviceId), (Sender<P2pMsg>, Receiver<P2pMsg>)>;

/// Mesh of point-to-point channels between devices, created on demand.
///
/// Models the direct GPU-to-GPU pulls of the transfer protocols: "the
/// actual data transfer only occurs between GPUs, avoiding any central
/// bottleneck" (paper §4.1).
#[derive(Clone)]
pub struct P2pNetwork {
    cluster: Arc<ClusterSpec>,
    cost: CommCostModel,
    links: Arc<Mutex<P2pLinks>>,
}

impl P2pNetwork {
    /// Creates an empty mesh over `cluster`.
    pub fn new(cluster: Arc<ClusterSpec>, cost: CommCostModel) -> Self {
        P2pNetwork { cluster, cost, links: Arc::new(Mutex::new(HashMap::new())) }
    }

    fn link(&self, src: DeviceId, dst: DeviceId) -> (Sender<P2pMsg>, Receiver<P2pMsg>) {
        let mut links = self.links.lock();
        links.entry((src, dst)).or_insert_with(unbounded).clone()
    }

    /// Sends `value` (`bytes` on the wire) from `src` to `dst`; the message
    /// arrives at `send_time + p2p_cost`.
    pub fn send<T: Send + 'static>(
        &self,
        clock: &VirtualClock,
        src: DeviceId,
        dst: DeviceId,
        value: T,
        bytes: f64,
    ) {
        let arrival = clock.now() + self.cost.p2p_time(&self.cluster, src, dst, bytes);
        let (tx, _) = self.link(src, dst);
        tx.send((arrival, Box::new(value))).expect("p2p channel closed");
    }

    /// Receives the next message on the `src → dst` link, advancing the
    /// receiver's clock to the arrival time.
    ///
    /// # Panics
    ///
    /// Panics if the message type does not match `T`.
    pub fn recv<T: Send + 'static>(
        &self,
        clock: &mut VirtualClock,
        src: DeviceId,
        dst: DeviceId,
    ) -> T {
        let (_, rx) = self.link(src, dst);
        let (arrival, boxed) = rx.recv().expect("p2p channel closed");
        clock.sync_to(arrival);
        *boxed.downcast::<T>().expect("p2p message type mismatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn harness(n: usize) -> (CommGroup, Arc<ClusterSpec>, CommCostModel) {
        let group = CommGroup::new((0..n).map(DeviceId).collect());
        let cluster = Arc::new(ClusterSpec::a100_cluster(n.div_ceil(8)));
        (group, cluster, CommCostModel::default())
    }

    fn run_ranks<F, R>(n: usize, f: F) -> Vec<R>
    where
        F: Fn(usize, Communicator) -> R + Send + Sync + 'static,
        R: Send + 'static,
    {
        let (group, cluster, cost) = harness(n);
        let f = Arc::new(f);
        let handles: Vec<_> = (0..n)
            .map(|r| {
                let comm = Communicator::new(group.clone(), r, cluster.clone(), cost.clone());
                let f = f.clone();
                thread::spawn(move || f(r, comm))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        let outs = run_ranks(4, |r, comm| {
            let mut clock = VirtualClock::new();
            comm.all_gather(&mut clock, &[r as f32, r as f32 + 0.5])
        });
        for out in outs {
            assert_eq!(out, vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]);
        }
    }

    #[test]
    fn all_reduce_sums_elementwise() {
        let outs = run_ranks(4, |r, comm| {
            let mut clock = VirtualClock::new();
            comm.all_reduce_sum(&mut clock, &[r as f32, 1.0])
        });
        for out in outs {
            assert_eq!(out, vec![6.0, 4.0]);
        }
    }

    #[test]
    fn reduce_scatter_gives_each_rank_its_chunk() {
        let outs = run_ranks(2, |_, comm| {
            let mut clock = VirtualClock::new();
            comm.reduce_scatter_sum(&mut clock, &[1.0, 2.0, 3.0, 4.0])
        });
        assert_eq!(outs[0], vec![2.0, 4.0]);
        assert_eq!(outs[1], vec![6.0, 8.0]);
    }

    #[test]
    fn broadcast_replicates_root_buffer() {
        let outs = run_ranks(3, |r, comm| {
            let mut clock = VirtualClock::new();
            let data = if r == 1 { Some(vec![7.0, 8.0]) } else { None };
            comm.broadcast(&mut clock, 1, data)
        });
        for out in outs {
            assert_eq!(out, vec![7.0, 8.0]);
        }
    }

    #[test]
    fn gather_and_scatter_round_trip() {
        let outs = run_ranks(3, |r, comm| {
            let mut clock = VirtualClock::new();
            let gathered = comm.gather(&mut clock, 0, &[r as f32]);
            let chunks = gathered.map(|g| {
                g.into_iter()
                    .map(|mut c| {
                        c[0] *= 10.0;
                        c
                    })
                    .collect::<Vec<_>>()
            });
            comm.scatter(&mut clock, 0, chunks)
        });
        assert_eq!(outs[0], vec![0.0]);
        assert_eq!(outs[1], vec![10.0]);
        assert_eq!(outs[2], vec![20.0]);
    }

    #[test]
    fn clocks_synchronize_to_slowest_rank() {
        let outs = run_ranks(4, |r, comm| {
            let mut clock = VirtualClock::new();
            clock.advance(r as f64); // rank 3 is slowest at t=3
            comm.barrier(&mut clock);
            clock.now()
        });
        for t in outs {
            assert!(t >= 3.0, "clock {t} must reach the slowest rank");
        }
    }

    #[test]
    fn group_supports_repeated_rounds() {
        let outs = run_ranks(3, |r, comm| {
            let mut clock = VirtualClock::new();
            let mut acc = 0.0;
            for round in 0..50 {
                let s = comm.all_reduce_sum(&mut clock, &[(r + round) as f32]);
                acc += s[0];
            }
            acc
        });
        // Each round sums to 3*round + 3; total = sum_{0..50} (3 round + 3).
        let expect: f32 = (0..50).map(|x| 3.0 * x as f32 + 3.0).sum();
        for o in outs {
            assert!((o - expect).abs() < 1e-3);
        }
    }

    #[test]
    fn poison_unblocks_waiters_with_collective_abort() {
        // One member enters the rendezvous and blocks (its peer never
        // arrives); poisoning the group must wake it with a
        // CollectiveAbort payload instead of leaving it blocked forever.
        let group = CommGroup::new(vec![DeviceId(0), DeviceId(1)]);
        let waiter_group = group.clone();
        let waiter = thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                waiter_group.exchange(0, 1.0f32);
            }))
        });
        // Give the waiter time to block in the filling phase.
        thread::sleep(std::time::Duration::from_millis(30));
        group.poison("rank 1 died");
        let res = waiter.join().unwrap();
        let payload = res.expect_err("waiter must unwind");
        let abort = payload.downcast_ref::<CollectiveAbort>().expect("CollectiveAbort payload");
        assert!(abort.reason.contains("rank 1 died"));
        assert_eq!(group.poisoned().as_deref(), Some("rank 1 died"));
    }

    #[test]
    fn poisoned_group_aborts_future_exchanges_immediately() {
        let group = CommGroup::new(vec![DeviceId(0), DeviceId(1)]);
        group.poison("injected kill");
        group.poison("second reason is ignored");
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            group.exchange(1, 7u32);
        }));
        let payload = res.expect_err("exchange on a poisoned group must abort");
        let abort = payload.downcast_ref::<CollectiveAbort>().expect("CollectiveAbort payload");
        assert_eq!(abort.reason, "injected kill");
    }

    #[test]
    fn p2p_transfers_value_and_time() {
        let cluster = Arc::new(ClusterSpec::a100_cluster(2));
        let net = P2pNetwork::new(cluster, CommCostModel::default());
        let net2 = net.clone();
        let sender = thread::spawn(move || {
            let mut clock = VirtualClock::new();
            clock.advance(1.0);
            net2.send(&clock, DeviceId(0), DeviceId(8), vec![42.0f32], 4.0e9);
        });
        let mut clock = VirtualClock::new();
        let v: Vec<f32> = net.recv(&mut clock, DeviceId(0), DeviceId(8));
        sender.join().unwrap();
        assert_eq!(v, vec![42.0]);
        // 4 GB over a cross-machine link must take noticeable virtual time.
        assert!(clock.now() > 1.0);
    }
}

#[cfg(test)]
mod p2p_tests {
    use super::*;
    use std::thread;

    #[test]
    fn p2p_messages_preserve_fifo_order_per_link() {
        let cluster = Arc::new(ClusterSpec::a100_cluster(1));
        let net = P2pNetwork::new(cluster, CommCostModel::default());
        let tx_net = net.clone();
        let sender = thread::spawn(move || {
            let mut clock = VirtualClock::new();
            for i in 0..20u32 {
                clock.advance(0.1);
                tx_net.send(&clock, DeviceId(0), DeviceId(1), i, 1024.0);
            }
        });
        let mut clock = VirtualClock::new();
        for expect in 0..20u32 {
            let got: u32 = net.recv(&mut clock, DeviceId(0), DeviceId(1));
            assert_eq!(got, expect, "FIFO order per link");
        }
        sender.join().unwrap();
        // Arrival times are monotone, so the receiver's clock advanced to
        // at least the last send time.
        assert!(clock.now() >= 2.0);
    }

    #[test]
    fn p2p_links_are_independent() {
        let cluster = Arc::new(ClusterSpec::a100_cluster(1));
        let net = P2pNetwork::new(cluster, CommCostModel::default());
        let clock = VirtualClock::new();
        net.send(&clock, DeviceId(0), DeviceId(1), "a", 8.0);
        net.send(&clock, DeviceId(1), DeviceId(0), "b", 8.0);
        let mut c1 = VirtualClock::new();
        let mut c2 = VirtualClock::new();
        let b: &str = net.recv(&mut c2, DeviceId(1), DeviceId(0));
        let a: &str = net.recv(&mut c1, DeviceId(0), DeviceId(1));
        assert_eq!((a, b), ("a", "b"));
    }
}
