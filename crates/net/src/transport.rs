//! The transport seam: how envelopes move between protocol state machines.
//!
//! The paper specifies its protocol independently of the wire (Section 8
//! assumes only point-to-point FIFO channels and reliability for the DSM
//! class). The reproduction historically had exactly one message plane —
//! the deterministic discrete-event [`Network`](crate::Network) — and the
//! cluster driver was welded to it. This module abstracts the seam:
//!
//! * [`Transport`] is the object-safe contract a message plane offers a
//!   *running* cluster: hand over an envelope, poll a node's inbox,
//!   account full application of a delivery. The deterministic simulator
//!   keeps its richer mutable API (fault injection needs it); the trait
//!   covers what per-node drivers need, which is deliberately little.
//! * [`ChannelTransport`] is the real-parallelism implementation: one
//!   lock-free-facade channel per `(src, dst)` link (FIFO per link, no
//!   global order — exactly the loosely-coupled model), shared by any
//!   number of sending threads, and polled by whichever thread applies the
//!   destination node's inbox — its driver, or a mutator waiting there for
//!   a grant. Appliers must serialize the pop with the apply (the parallel
//!   runtime pops under the node's lock), or per-link FIFO is lost between
//!   pop and apply.
//!
//! Quiescence is race-free by construction: [`Transport::in_flight`]
//! counts *send → fully-applied* (not send → received), and an applier
//! only calls [`Transport::ack_delivered`] after the dispatch completed under
//! the receiving node's lock. `in_flight() == 0` therefore means "no
//! message exists that could still change protocol state".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bmx_common::NodeId;
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::network::{Envelope, MsgClass};

/// What a message plane owes a running cluster. Object-safe and `&self`
/// throughout: transports are shared across node driver threads.
pub trait Transport<M>: Send + Sync {
    /// Accepts `env` for delivery to `env.dst`. FIFO per `(src, dst)`.
    fn send_env(&self, env: Envelope<M>);

    /// Pops the next pending envelope addressed to `dst`, if any.
    /// Links into `dst` are polled fairly; per-link order is preserved.
    fn try_recv(&self, dst: NodeId) -> Option<Envelope<M>>;

    /// Accounts one previously popped envelope as *fully applied* (or
    /// deliberately discarded). Callers must pair every successful
    /// [`Transport::try_recv`] with exactly one ack, after the dispatch
    /// finished — this is what makes [`Transport::in_flight`] a sound
    /// quiescence barrier.
    fn ack_delivered(&self);

    /// Envelopes sent and not yet fully applied.
    fn in_flight(&self) -> u64;

    /// Envelopes [`Transport::try_recv`] can pop for `dst` right now:
    /// exact whenever no send or pop is mid-call. A sequentially
    /// consistent load, so a poller can pair it with a store of its own in
    /// a handshake against the sender's increment, which lands after the
    /// push and is sequentially consistent too. While a pop races the push
    /// of the same envelope the count can read one high, or wrap below
    /// zero; both read as "look again".
    fn queued(&self, dst: NodeId) -> u64;

    /// Envelopes accepted so far for `class`.
    fn sent(&self, class: MsgClass) -> u64;

    /// Envelopes discarded whole (shutdown drop policy) for `class`.
    fn dropped(&self, class: MsgClass) -> u64;

    /// Accounts an envelope discarded whole (shutdown drop policy, or a
    /// crashed node's purged inbox). Pair with
    /// [`Transport::ack_delivered`] like a delivery, so `in_flight`
    /// still converges to zero.
    fn note_dropped(&self, class: MsgClass);

    /// Total envelopes accepted across all classes.
    fn sent_total(&self) -> u64 {
        MsgClass::ALL.iter().map(|&c| self.sent(c)).sum()
    }

    /// Total envelopes discarded across all classes.
    fn dropped_total(&self) -> u64 {
        MsgClass::ALL.iter().map(|&c| self.dropped(c)).sum()
    }
}

struct Inbox<M> {
    /// One receiver per sending node, same index as `links[src]`.
    from: Vec<Receiver<Envelope<M>>>,
    /// Round-robin cursor, for fair link polling.
    cursor: usize,
}

/// A counter on a cache line of its own.
#[repr(align(128))]
#[derive(Default)]
struct Padded(AtomicU64);

/// Crossbeam-channel message plane for the parallel runtime: `n*n`
/// unbounded FIFO links. Senders are lock-free from any thread. Each
/// node's inbox sits behind a mutex that keeps the API `&self`; its
/// appliers already hold the node's own lock when they pop, so it is
/// never contended.
pub struct ChannelTransport<M> {
    /// `links[src][dst]`: the sending half of each directed link.
    links: Vec<Vec<Sender<Envelope<M>>>>,
    /// `inboxes[dst]`: the receiving halves, per source.
    inboxes: Vec<Mutex<Inbox<M>>>,
    /// Per-(src,dst) FIFO sequence counters (flattened `src * n + dst`).
    seqs: Vec<AtomicU64>,
    /// `queued[dst]`: envelopes on the links into `dst`, counted at the
    /// channel push and pop ([`Transport::queued`]). One line per node:
    /// senders to one node never write another's.
    queued: Box<[Padded]>,
    in_flight: AtomicU64,
    sent: [AtomicU64; 4],
    dropped: [AtomicU64; 4],
    nodes: usize,
}

impl<M: Send> ChannelTransport<M> {
    /// Builds the full mesh for an `n`-node cluster.
    pub fn new(n: usize) -> Self {
        let mut links: Vec<Vec<Sender<Envelope<M>>>> = Vec::with_capacity(n);
        let mut inboxes = Vec::with_capacity(n);
        let mut rx_grid: Vec<Vec<Receiver<Envelope<M>>>> = (0..n).map(|_| Vec::new()).collect();
        for _src in 0..n {
            let mut row = Vec::with_capacity(n);
            for (dst, dst_rxs) in rx_grid.iter_mut().enumerate() {
                let (tx, rx) = unbounded();
                row.push(tx);
                let _ = dst;
                dst_rxs.push(rx);
            }
            links.push(row);
        }
        for from in rx_grid {
            inboxes.push(Mutex::new(Inbox { from, cursor: 0 }));
        }
        ChannelTransport {
            links,
            inboxes,
            seqs: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
            queued: (0..n).map(|_| Padded::default()).collect(),
            in_flight: AtomicU64::new(0),
            sent: Default::default(),
            dropped: Default::default(),
            nodes: n,
        }
    }

    /// Number of nodes in the mesh.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Mints the next per-link FIFO sequence number (1-based, matching the
    /// simulator's numbering).
    pub fn next_seq(&self, src: NodeId, dst: NodeId) -> u64 {
        let idx = src.0 as usize * self.nodes + dst.0 as usize;
        self.seqs[idx].fetch_add(1, Ordering::Relaxed) + 1
    }
}

impl<M: Send> Transport<M> for ChannelTransport<M> {
    fn send_env(&self, env: Envelope<M>) {
        self.sent[env.class.index()].fetch_add(1, Ordering::Relaxed);
        // Increment before the channel push: a receiver that pops the
        // envelope must always observe in_flight >= 1 until it acks.
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let (src, dst) = (env.src.0 as usize, env.dst.0 as usize);
        if self.links[src][dst].send(env).is_err() {
            // Receiver side already torn down (shutdown race): the message
            // can never be applied; account it as dropped whole.
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        // After the push: a poller that reads the count can pop what it
        // counts.
        self.queued[dst].0.fetch_add(1, Ordering::SeqCst);
    }

    fn try_recv(&self, dst: NodeId) -> Option<Envelope<M>> {
        let d = dst.0 as usize;
        let mut inbox = self.inboxes[d].lock().expect("inbox mutex");
        let n = inbox.from.len();
        let start = inbox.cursor;
        inbox.cursor = start.wrapping_add(1);
        let env = (0..n).find_map(|i| inbox.from[(start + i) % n].try_recv())?;
        self.queued[d].0.fetch_sub(1, Ordering::SeqCst);
        Some(env)
    }

    fn queued(&self, dst: NodeId) -> u64 {
        self.queued[dst.0 as usize].0.load(Ordering::SeqCst)
    }

    fn ack_delivered(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    fn sent(&self, class: MsgClass) -> u64 {
        self.sent[class.index()].load(Ordering::Relaxed)
    }

    fn dropped(&self, class: MsgClass) -> u64 {
        self.dropped[class.index()].load(Ordering::Relaxed)
    }

    fn note_dropped(&self, class: MsgClass) {
        self.dropped[class.index()].fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmx_common::MsgSeq;

    fn env(src: u32, dst: u32, seq: u64, v: u64) -> Envelope<u64> {
        Envelope {
            src: NodeId(src),
            dst: NodeId(dst),
            seq: MsgSeq(seq),
            class: MsgClass::Dsm,
            lamport: 0,
            span: 0,
            payload: v,
        }
    }

    #[test]
    fn per_link_fifo_is_preserved() {
        let t: ChannelTransport<u64> = ChannelTransport::new(3);
        for i in 0..10 {
            t.send_env(env(0, 2, t.next_seq(NodeId(0), NodeId(2)), i));
        }
        let mut got = Vec::new();
        while let Some(e) = t.try_recv(NodeId(2)) {
            got.push(e.payload);
            t.ack_delivered();
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn in_flight_counts_until_ack_not_until_recv() {
        let t: ChannelTransport<u64> = ChannelTransport::new(2);
        t.send_env(env(0, 1, 1, 7));
        assert_eq!(t.in_flight(), 1);
        let e = t.try_recv(NodeId(1)).expect("queued");
        assert_eq!(e.payload, 7);
        assert_eq!(
            t.in_flight(),
            1,
            "popped but not applied is still in flight"
        );
        t.ack_delivered();
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn fair_polling_drains_every_source() {
        let t: ChannelTransport<u64> = ChannelTransport::new(4);
        for src in 0..3u32 {
            for i in 0..5 {
                t.send_env(env(src, 3, i + 1, u64::from(src) * 100 + i));
            }
        }
        let mut per_src = [0usize; 3];
        while let Some(e) = t.try_recv(NodeId(3)) {
            per_src[e.src.0 as usize] += 1;
            t.ack_delivered();
        }
        assert_eq!(per_src, [5, 5, 5]);
    }

    #[test]
    fn concurrent_senders_one_receiver() {
        let t = std::sync::Arc::new(ChannelTransport::<u64>::new(2));
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let t = std::sync::Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    t.send_env(env(0, 1, t.next_seq(NodeId(0), NodeId(1)), w * 1000 + i));
                }
            }));
        }
        let recv = {
            let t = std::sync::Arc::clone(&t);
            std::thread::spawn(move || {
                let mut got = 0u64;
                let mut idle = 0;
                while got < 1000 {
                    match t.try_recv(NodeId(1)) {
                        Some(_) => {
                            t.ack_delivered();
                            got += 1;
                            idle = 0;
                        }
                        None => {
                            idle += 1;
                            assert!(idle < 1_000_000, "receiver starved");
                            std::thread::yield_now();
                        }
                    }
                }
                got
            })
        };
        for h in handles {
            h.join().expect("sender");
        }
        assert_eq!(recv.join().expect("receiver"), 1000);
        assert_eq!(t.in_flight(), 0);
        assert_eq!(t.sent(MsgClass::Dsm), 1000);
    }
}
