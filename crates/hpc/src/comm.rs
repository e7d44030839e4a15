//! An MPI-like communicator over crossbeam channels.
//!
//! Each simulated rank owns a [`RankCtx`]: matched point-to-point `send`/
//! `recv` plus the collectives the simulators need (barrier, broadcast,
//! gather, scatter, allreduce, all-to-all). Messages are typed
//! (`Box<dyn Any>` under the hood, downcast on receive) and each transfer is
//! charged the interconnect cost of the sender/receiver placement, so
//! communication overheads grow realistically as ranks spill across LLC
//! domains and nodes.
//!
//! Deadlock hygiene: all sends are buffered (never block), and every receive
//! carries a generous timeout that panics with a diagnostic instead of
//! hanging a test suite.

use crate::topology::{CoreId, InterconnectModel, NodeSpec};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Receive timeout after which a rank assumes the program deadlocked.
const RECV_DEADLINE: Duration = Duration::from_secs(120);

/// Tag bit reserved for internal collective traffic; user tags must stay
/// below this.
const COLLECTIVE_BIT: u64 = 1 << 63;

/// Types that can travel between ranks. `wire_bytes` is what the
/// interconnect model charges for the transfer.
pub trait Message: Send + 'static {
    /// Serialized size in bytes for the cost model.
    fn wire_bytes(&self) -> usize {
        std::mem::size_of_val(self)
    }
}

macro_rules! impl_message_scalar {
    ($($t:ty),*) => {
        $(impl Message for $t {})*
    };
}
impl_message_scalar!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool, char, ());

impl Message for String {
    fn wire_bytes(&self) -> usize {
        self.len()
    }
}

impl<T: Copy + Send + 'static> Message for Vec<T> {
    fn wire_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

impl<A: Message + Copy, B: Message + Copy> Message for (A, B) {
    fn wire_bytes(&self) -> usize {
        self.0.wire_bytes() + self.1.wire_bytes()
    }
}

struct Envelope {
    src: usize,
    tag: u64,
    deliver_at: Instant,
    payload: Box<dyn Any + Send>,
}

struct Shared {
    senders: Vec<Sender<Envelope>>,
    placement: Vec<CoreId>,
    spec: NodeSpec,
    model: InterconnectModel,
}

/// Handle to the communicator world; cheap to clone.
#[derive(Clone)]
pub struct Communicator {
    shared: Arc<Shared>,
}

impl Communicator {
    /// Creates a world of `placement.len()` ranks with the given physical
    /// placement and cost model, returning one [`RankCtx`] per rank.
    pub fn create(
        placement: Vec<CoreId>,
        spec: NodeSpec,
        model: InterconnectModel,
    ) -> Vec<RankCtx> {
        let n = placement.len();
        assert!(n > 0, "communicator needs at least one rank");
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let shared = Arc::new(Shared {
            senders,
            placement,
            spec,
            model,
        });
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| RankCtx {
                rank,
                comm: Communicator {
                    shared: Arc::clone(&shared),
                },
                rx,
                stash: VecDeque::new(),
                coll_seq: 0,
                sent_msgs: Cell::new(0),
                sent_bytes: Cell::new(0),
            })
            .collect()
    }

    /// Convenience world for tests: `n` ranks packed on node 0, free
    /// communication.
    pub fn test_world(n: usize) -> Vec<RankCtx> {
        let spec = NodeSpec::frontier();
        let placement = (0..n).map(|i| CoreId { node: 0, core: i }).collect();
        Self::create(placement, spec, InterconnectModel::free())
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.shared.senders.len()
    }
}

/// Per-rank endpoint: owns this rank's inbox and sequence counters, so it is
/// deliberately `!Sync` — exactly one thread drives a rank.
pub struct RankCtx {
    rank: usize,
    comm: Communicator,
    rx: Receiver<Envelope>,
    stash: VecDeque<Envelope>,
    coll_seq: u64,
    sent_msgs: Cell<u64>,
    sent_bytes: Cell<u64>,
}

impl RankCtx {
    /// This rank's index.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    #[inline]
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The physical core this rank is pinned to.
    pub fn placement(&self) -> CoreId {
        self.comm.shared.placement[self.rank]
    }

    /// A clone of the world handle (for spawning helpers or logging).
    pub fn world(&self) -> Communicator {
        self.comm.clone()
    }

    /// Sends `value` to `dest` with a user `tag`. Buffered: never blocks.
    ///
    /// # Panics
    /// Panics when `tag` intrudes on the reserved collective tag space or
    /// `dest` is out of range.
    pub fn send<T: Message>(&self, dest: usize, tag: u64, value: T) {
        assert!(tag & COLLECTIVE_BIT == 0, "tag {tag:#x} is reserved");
        self.send_raw(dest, tag, value);
    }

    fn send_raw<T: Message>(&self, dest: usize, tag: u64, value: T) {
        let shared = &self.comm.shared;
        assert!(dest < shared.senders.len(), "send to out-of-range rank {dest}");
        let bytes = value.wire_bytes();
        self.sent_msgs.set(self.sent_msgs.get() + 1);
        self.sent_bytes.set(self.sent_bytes.get() + bytes as u64);
        let delay = shared.model.transfer_time(
            &shared.spec,
            shared.placement[self.rank],
            shared.placement[dest],
            bytes,
        );
        let env = Envelope {
            src: self.rank,
            tag,
            deliver_at: Instant::now() + delay,
            payload: Box::new(value),
        };
        // Receiver endpoints only close when the rank thread has finished;
        // sending to a finished rank is a program bug worth loud failure.
        shared.senders[dest]
            .send(env)
            .expect("send to a rank whose context was dropped");
    }

    /// Point-to-point messages posted by this rank so far (including the
    /// internal traffic of collectives). Deltas around a communication
    /// phase give that phase's message count.
    pub fn sent_messages(&self) -> u64 {
        self.sent_msgs.get()
    }

    /// Payload bytes posted by this rank so far, as charged by the
    /// interconnect cost model. Deltas around a phase give its volume.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes.get()
    }

    /// Receives the next message from `src` carrying `tag`, blocking until
    /// it arrives (and until its modeled transfer delay has elapsed).
    ///
    /// # Panics
    /// Panics on type mismatch or after a 120 s deadlock deadline.
    pub fn recv<T: Message>(&mut self, src: usize, tag: u64) -> T {
        assert!(tag & COLLECTIVE_BIT == 0, "tag {tag:#x} is reserved");
        self.recv_raw(src, tag)
    }

    fn recv_raw<T: Message>(&mut self, src: usize, tag: u64) -> T {
        // Check the stash of earlier out-of-order arrivals first.
        if let Some(pos) = self
            .stash
            .iter()
            .position(|e| e.src == src && e.tag == tag)
        {
            let env = self.stash.remove(pos).unwrap();
            return Self::open(env);
        }
        let deadline = Instant::now() + RECV_DEADLINE;
        loop {
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .unwrap_or(Duration::ZERO);
            match self.rx.recv_timeout(remaining) {
                Ok(env) => {
                    if env.src == src && env.tag == tag {
                        return Self::open(env);
                    }
                    self.stash.push_back(env);
                }
                Err(_) => panic!(
                    "rank {} deadlocked waiting for (src={src}, tag={tag:#x}); \
                     stash holds {} unmatched messages",
                    self.rank,
                    self.stash.len()
                ),
            }
        }
    }

    fn open<T: Message>(env: Envelope) -> T {
        // Model the wire time: the message "arrives" only at deliver_at.
        let now = Instant::now();
        if env.deliver_at > now {
            std::thread::sleep(env.deliver_at - now);
        }
        *env.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "message type mismatch: expected {}",
                std::any::type_name::<T>()
            )
        })
    }

    fn next_collective_tag(&mut self) -> u64 {
        let tag = COLLECTIVE_BIT | self.coll_seq;
        self.coll_seq += 1;
        tag
    }

    /// Synchronizes all ranks (dissemination barrier, O(log p) rounds).
    pub fn barrier(&mut self) {
        let n = self.size();
        let base = self.next_collective_tag();
        let mut step = 1usize;
        let mut round = 0u64;
        while step < n {
            let to = (self.rank + step) % n;
            let from = (self.rank + n - step) % n;
            self.send_raw(to, base ^ (round << 32), ());
            let () = self.recv_raw(from, base ^ (round << 32));
            step <<= 1;
            round += 1;
        }
    }

    /// Broadcasts `value` from `root` to every rank; each rank returns the
    /// broadcast value. Non-root callers pass `None`.
    pub fn bcast<T: Message + Clone>(&mut self, root: usize, value: Option<T>) -> T {
        let tag = self.next_collective_tag();
        if self.rank == root {
            let v = value.expect("bcast root must supply a value");
            for dest in 0..self.size() {
                if dest != root {
                    self.send_raw(dest, tag, v.clone());
                }
            }
            v
        } else {
            self.recv_raw(root, tag)
        }
    }

    /// Gathers one value per rank to `root` (rank order). Non-root ranks
    /// get `None`.
    pub fn gather<T: Message>(&mut self, root: usize, value: T) -> Option<Vec<T>> {
        let tag = self.next_collective_tag();
        if self.rank == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[self.rank] = Some(value);
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = Some(self.recv_raw(src, tag));
                }
            }
            Some(out.into_iter().map(Option::unwrap).collect())
        } else {
            self.send_raw(root, tag, value);
            None
        }
    }

    /// Reduces one value per rank with `op` at rank 0 and broadcasts the
    /// result back to everyone.
    pub fn allreduce<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Message + Clone,
        F: Fn(T, T) -> T,
    {
        let gathered = self.gather(0, value);
        let reduced = gathered.map(|vs| {
            let mut it = vs.into_iter();
            let first = it.next().expect("non-empty world");
            it.fold(first, &op)
        });
        self.bcast(0, reduced)
    }

    /// Sum-allreduce over f64, the most common reduction in the simulators.
    pub fn allreduce_sum(&mut self, value: f64) -> f64 {
        self.allreduce(value, |a, b| a + b)
    }

    /// Elementwise sum-allreduce over equal-length vectors.
    pub fn allreduce_sum_vec(&mut self, value: Vec<f64>) -> Vec<f64> {
        self.allreduce(value, |mut a, b| {
            assert_eq!(a.len(), b.len(), "allreduce_sum_vec length mismatch");
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            a
        })
    }

    /// Personalized all-to-all: `sends[j]` goes to rank `j`; returns the
    /// rank-ordered vector of values received (MPI_Alltoall). Used by
    /// redistribution steps that reshard data across the world.
    pub fn alltoall<T: Message>(&mut self, sends: Vec<T>) -> Vec<T> {
        assert_eq!(
            sends.len(),
            self.size(),
            "alltoall needs one payload per rank"
        );
        let tag = self.next_collective_tag();
        let me = self.rank();
        let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
        for (dest, value) in sends.into_iter().enumerate() {
            if dest == me {
                out[me] = Some(value);
            } else {
                self.send_raw(dest, tag, value);
            }
        }
        for (src, slot) in out.iter_mut().enumerate() {
            if src != me {
                *slot = Some(self.recv_raw(src, tag));
            }
        }
        out.into_iter().map(Option::unwrap).collect()
    }

    /// Sparse personalized all-to-all with variable-length payloads
    /// (MPI_Alltoallv with message coalescing). `sends` lists
    /// `(dest, payload)` pairs, at most one per destination; only
    /// non-empty payloads travel. One dense `u64` count header per rank
    /// (the coalesced metadata exchange) tells every rank which peers to
    /// expect, then payloads move as buffered non-blocking sends.
    /// Returns the received `(src, payload)` pairs in rank order,
    /// omitting peers that sent nothing. Collective: every rank must
    /// call it, even with an empty `sends`.
    pub fn sparse_alltoallv<T: Copy + Send + 'static>(
        &mut self,
        sends: Vec<(usize, Vec<T>)>,
    ) -> Vec<(usize, Vec<T>)> {
        let n = self.size();
        let me = self.rank;
        let mut counts = vec![0u64; n];
        let mut seen = vec![false; n];
        for (dest, payload) in &sends {
            assert!(*dest < n, "sparse_alltoallv to out-of-range rank {dest}");
            assert!(!seen[*dest], "sparse_alltoallv: duplicate destination {dest}");
            seen[*dest] = true;
            counts[*dest] = payload.len() as u64;
        }
        let incoming = self.alltoall(counts);
        let tag = self.next_collective_tag();
        let mut self_payload = None;
        for (dest, payload) in sends {
            if payload.is_empty() {
                // An empty send must be skipped, not posted: the peer will
                // not receive it, and an orphaned envelope would shadow a
                // later same-tag message.
                continue;
            }
            if dest == me {
                self_payload = Some(payload);
            } else {
                self.send_raw(dest, tag, payload);
            }
        }
        let mut out = Vec::new();
        for (src, &expect) in incoming.iter().enumerate() {
            if src == me {
                if let Some(p) = self_payload.take() {
                    out.push((me, p));
                }
            } else if expect > 0 {
                let payload: Vec<T> = self.recv_raw(src, tag);
                debug_assert_eq!(payload.len() as u64, expect, "count header mismatch");
                out.push((src, payload));
            }
        }
        out
    }

    /// Scatters `chunks[i]` from `root` to rank `i`; returns this rank's chunk.
    pub fn scatter<T: Message>(&mut self, root: usize, chunks: Option<Vec<T>>) -> T {
        let tag = self.next_collective_tag();
        if self.rank == root {
            let chunks = chunks.expect("scatter root must supply chunks");
            assert_eq!(chunks.len(), self.size(), "scatter needs one chunk per rank");
            let mut mine = None;
            for (dest, chunk) in chunks.into_iter().enumerate() {
                if dest == root {
                    mine = Some(chunk);
                } else {
                    self.send_raw(dest, tag, chunk);
                }
            }
            mine.unwrap()
        } else {
            self.recv_raw(root, tag)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Runs `f(rank_ctx)` on `n` rank threads and returns results in rank order.
    fn run_world<R: Send + 'static>(
        n: usize,
        f: impl Fn(RankCtx) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let f = Arc::new(f);
        let handles: Vec<_> = Communicator::test_world(n)
            .into_iter()
            .map(|ctx| {
                let f = Arc::clone(&f);
                thread::spawn(move || f(ctx))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn point_to_point_round_trip() {
        let results = run_world(2, |mut ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, vec![1.0f64, 2.0, 3.0]);
                0.0
            } else {
                let v: Vec<f64> = ctx.recv(0, 7);
                v.iter().sum()
            }
        });
        assert_eq!(results[1], 6.0);
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let results = run_world(2, |mut ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, 10u64);
                ctx.send(1, 2, 20u64);
                0
            } else {
                // Receive in reverse send order.
                let b: u64 = ctx.recv(0, 2);
                let a: u64 = ctx.recv(0, 1);
                a + 2 * b
            }
        });
        assert_eq!(results[1], 50);
    }

    #[test]
    fn barrier_all_sizes() {
        for n in [1usize, 2, 3, 5, 8] {
            let results = run_world(n, |mut ctx| {
                ctx.barrier();
                ctx.barrier();
                ctx.rank()
            });
            assert_eq!(results.len(), n);
        }
    }

    #[test]
    fn bcast_delivers_to_all() {
        let results = run_world(4, |mut ctx| {
            let v = if ctx.rank() == 2 {
                ctx.bcast(2, Some(vec![9u8, 9, 9]))
            } else {
                ctx.bcast::<Vec<u8>>(2, None)
            };
            v.len()
        });
        assert!(results.iter().all(|&l| l == 3));
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let results = run_world(4, |mut ctx| ctx.gather(0, ctx.rank() as u64 * 10));
        assert_eq!(results[0], Some(vec![0, 10, 20, 30]));
        assert!(results[1..].iter().all(Option::is_none));
    }

    #[test]
    fn allreduce_sum_matches() {
        let results = run_world(5, |mut ctx| ctx.allreduce_sum(ctx.rank() as f64));
        assert!(results.iter().all(|&s| s == 10.0));
    }

    #[test]
    fn allreduce_sum_vec_elementwise() {
        let results = run_world(3, |mut ctx| {
            ctx.allreduce_sum_vec(vec![ctx.rank() as f64, 1.0])
        });
        assert!(results.iter().all(|v| v == &vec![3.0, 3.0]));
    }

    #[test]
    fn alltoall_transposes_payloads() {
        // Rank r sends (r*10 + dest) to dest; so dest receives src*10+dest.
        let results = run_world(3, |mut ctx| {
            let sends: Vec<u64> = (0..3).map(|d| ctx.rank() as u64 * 10 + d as u64).collect();
            ctx.alltoall(sends)
        });
        assert_eq!(results[0], vec![0, 10, 20]);
        assert_eq!(results[1], vec![1, 11, 21]);
        assert_eq!(results[2], vec![2, 12, 22]);
    }

    #[test]
    fn scatter_distributes_chunks() {
        let results = run_world(3, |mut ctx| {
            let chunks = if ctx.rank() == 0 {
                Some(vec![vec![0u8], vec![1u8], vec![2u8]])
            } else {
                None
            };
            ctx.scatter(0, chunks)
        });
        assert_eq!(results, vec![vec![0u8], vec![1u8], vec![2u8]]);
    }

    #[test]
    fn collectives_compose_in_sequence() {
        // Exercises the per-rank collective sequence numbers: mixing
        // different collectives must not cross wires.
        let results = run_world(4, |mut ctx| {
            ctx.barrier();
            let s = ctx.allreduce_sum(1.0);
            let b: u64 = ctx.bcast(0, if ctx.rank() == 0 { Some(42) } else { None });
            ctx.barrier();
            (s, b)
        });
        assert!(results.iter().all(|&(s, b)| s == 4.0 && b == 42));
    }

    #[test]
    fn sparse_alltoallv_moves_only_nonempty_payloads() {
        // Ring pattern with one empty send and one self send: rank r sends
        // [r; r+1] to (r+1) % n, rank 2 also sends to itself, rank 0's
        // second payload is empty and must not travel.
        let results = run_world(3, |mut ctx| {
            let r = ctx.rank();
            let mut sends = vec![((r + 1) % 3, vec![r as u64; r + 1])];
            if r == 2 {
                sends.push((2, vec![42u64]));
            }
            if r == 0 {
                sends.push((2, Vec::new()));
            }
            ctx.sparse_alltoallv(sends)
        });
        assert_eq!(results[0], vec![(2, vec![2, 2, 2])]);
        assert_eq!(results[1], vec![(0, vec![0])]);
        assert_eq!(results[2], vec![(1, vec![1, 1]), (2, vec![42])]);
    }

    #[test]
    fn sparse_alltoallv_all_empty_is_safe() {
        // A collective round where nobody sends anything must complete and
        // leave later typed traffic unpoisoned.
        let results = run_world(3, |mut ctx| {
            let got = ctx.sparse_alltoallv::<u64>(Vec::new());
            let sum = ctx.allreduce_sum(ctx.rank() as f64);
            (got.len(), sum)
        });
        assert!(results.iter().all(|&(l, s)| l == 0 && s == 3.0));
    }

    #[test]
    fn byte_counters_track_posted_traffic() {
        let results = run_world(2, |mut ctx| {
            let before_msgs = ctx.sent_messages();
            let before_bytes = ctx.sent_bytes();
            let peer = 1 - ctx.rank();
            ctx.send(peer, 3, vec![0u8; 64]);
            let _: Vec<u8> = ctx.recv(peer, 3);
            (
                ctx.sent_messages() - before_msgs,
                ctx.sent_bytes() - before_bytes,
            )
        });
        for &(msgs, bytes) in &results {
            assert_eq!(msgs, 1);
            assert_eq!(bytes, 64);
        }
    }

    #[test]
    fn modeled_delay_is_observed() {
        use crate::topology::ClusterSpec;
        let spec = NodeSpec::frontier();
        let mut model = InterconnectModel::free();
        model.inter_node_latency = Duration::from_millis(30);
        let cluster = ClusterSpec {
            nodes: 2,
            node: spec,
            interconnect: model,
        };
        let placement = vec![CoreId { node: 0, core: 0 }, CoreId { node: 1, core: 0 }];
        let ctxs = Communicator::create(placement, cluster.node, cluster.interconnect);
        let start = Instant::now();
        let handles: Vec<_> = ctxs
            .into_iter()
            .map(|mut ctx| {
                thread::spawn(move || {
                    if ctx.rank() == 0 {
                        ctx.send(1, 0, 1u64);
                    } else {
                        let _: u64 = ctx.recv(0, 0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn user_tags_cannot_use_collective_space() {
        let mut ctxs = Communicator::test_world(2);
        let ctx = &mut ctxs[0];
        ctx.send(1, COLLECTIVE_BIT | 1, 0u64);
    }

    #[test]
    fn message_wire_bytes() {
        assert_eq!(1.0f64.wire_bytes(), 8);
        assert_eq!(vec![0u8; 100].wire_bytes(), 100);
        assert_eq!(vec![0f64; 10].wire_bytes(), 80);
        assert_eq!("abc".to_string().wire_bytes(), 3);
    }
}
