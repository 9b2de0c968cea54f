//! §5 — the Atomic Broadcast protocol.
//!
//! Write operations are disseminated by **causal broadcast** (cheap), while
//! commit requests go through **atomic broadcast**: every site delivers
//! them in the same total order. Because each site applies the same
//! deterministic **certification** rule to the same sequence, all sites
//! reach the same verdict with *no acknowledgements at all* — the paper's
//! headline result.
//!
//! Certification: the commit request carries, for every key the transaction
//! read or wrote, the identity of the committed version current at the
//! origin when the request was broadcast. A site processing the request at
//! its slot in the total order commits the transaction iff every one of
//! those versions is still current — i.e. no transaction that committed
//! earlier in the total order overwrote them (first-committer-wins on both
//! read-write and write-write conflicts). Committed write sets are applied
//! immediately in delivery order; conflicting *local* transactions still in
//! their read phase are wounded — this is the one protocol in which
//! read-only transactions can abort, the price of acknowledgement-free
//! commitment (experiment F5 measures it).
//!
//! Commit requests are processed strictly in total order; a request whose
//! causally-broadcast writes have not all arrived stalls the queue (they
//! arrive shortly — both primitives run on the same FIFO links).

use crate::metrics::AbortReason;
use crate::payload::{AbcastImpl, Payload, ReplicaMsg, TxnPriority};
use crate::protocols::driver::{Cx, ProtoSnapshot, Protocol, Work};
use crate::state::{txn_ref, EventBuf};
use bcastdb_broadcast::atomic::{AtomicBcast, IsisAbcast, Output, SequencerAbcast};
use bcastdb_broadcast::causal::{self, CausalBcast};
use bcastdb_broadcast::ring::RingAbcast;
use bcastdb_db::lock::LockMode;
use bcastdb_db::sg::ObservedVersion;
use bcastdb_db::{Key, TxnId};
use bcastdb_sim::telemetry::TraceEvent;
use bcastdb_sim::{Sample, SiteId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// One of the atomic-broadcast engines, selected by [`AbcastImpl`].
///
/// All engines carry `Arc<Payload>` so their holdback/pending buffers and
/// the per-destination fan-out share one payload allocation per broadcast.
#[derive(Debug)]
enum Abcast {
    Seq(SequencerAbcast<Arc<Payload>>),
    Isis(IsisAbcast<Arc<Payload>>),
    // Boxed: the ring engine's repair/pipeline state dwarfs the other
    // variants (clippy::large_enum_variant).
    Ring(Box<RingAbcast<Arc<Payload>>>),
}

/// A commit request waiting in (or at the head of) the certification queue.
#[derive(Debug, Clone)]
struct PendingCert {
    txn: TxnId,
    prio: TxnPriority,
    n_writes: usize,
    read_versions: Vec<(Key, ObservedVersion)>,
    write_versions: Vec<(Key, ObservedVersion)>,
}

/// State-transfer snapshot of the atomic protocol's engines and version
/// directory.
#[derive(Debug, Clone)]
pub struct AbSnapshot {
    causal: bcastdb_broadcast::VectorClock,
    seq: Option<u64>,
    isis: Option<(u64, u64)>,
    ring: Option<(u64, Vec<(SiteId, u64)>)>,
    latest_writer: BTreeMap<Key, TxnId>,
}

/// The atomic-broadcast replication protocol at one site.
#[derive(Debug)]
pub struct AtomicProto {
    cb: CausalBcast<Arc<Payload>>,
    ab: Abcast,
    /// Commit requests in total order, certified strictly head-first.
    cert_queue: VecDeque<PendingCert>,
    /// The version directory: last committed writer of every key, updated
    /// at every certification in total order. Unlike the store (which only
    /// holds replicated keys), every site maintains the full directory —
    /// it is what keeps certification deterministic under partial
    /// replication.
    latest_writer: BTreeMap<Key, TxnId>,
}

impl AtomicProto {
    /// Creates the protocol instance for site `me` of `n`, using the given
    /// atomic-broadcast implementation.
    pub fn new(me: SiteId, n: usize, imp: AbcastImpl) -> Self {
        AtomicProto {
            // The atomic protocol never serves retransmissions from its
            // causal stream, so skip the per-message archive clone.
            cb: CausalBcast::new(me, n).without_archive(),
            ab: match imp {
                AbcastImpl::Sequencer => Abcast::Seq(SequencerAbcast::new(me, n)),
                AbcastImpl::Isis => Abcast::Isis(IsisAbcast::new(me, n)),
                AbcastImpl::Ring => Abcast::Ring(Box::new(RingAbcast::new(me, n))),
            },
            cert_queue: VecDeque::new(),
            latest_writer: BTreeMap::new(),
        }
    }

    /// Routes one atomic-broadcast engine's output: wires wrapped by
    /// `wrap` to the effects, deliveries into the work queue.
    fn route_total<W>(cx: &mut Cx<'_>, out: Output<Arc<Payload>, W>, wrap: fn(W) -> ReplicaMsg) {
        for ob in out.outbound {
            cx.fx.send(ob.dest, wrap(ob.wire));
        }
        for d in out.deliveries {
            cx.work.push_back(Work::TotalDeliver(d));
        }
    }

    fn abcast(&mut self, cx: &mut Cx<'_>, payload: Payload) {
        // The single payload allocation of this broadcast.
        let payload = Arc::new(payload);
        match &mut self.ab {
            Abcast::Seq(ab) => Self::route_total(cx, ab.broadcast(payload).1, ReplicaMsg::ASeq),
            Abcast::Isis(ab) => Self::route_total(cx, ab.broadcast(payload).1, ReplicaMsg::AIsis),
            Abcast::Ring(ab) => Self::route_total(cx, ab.broadcast(payload).1, ReplicaMsg::ARing),
        }
    }

    fn on_causal_deliver(&mut self, cx: &mut Cx<'_>, d: causal::Delivery<Arc<Payload>>) {
        if let Payload::Write {
            txn, prio, op, of, ..
        } = &*d.payload
        {
            let (txn, prio, of) = (*txn, *prio, *of);
            if cx.st.decided.contains_key(&txn) {
                return;
            }
            // Record the op only — no locks; applies happen in total order.
            let entry = cx.st.remote_entry(txn, prio);
            entry.ops.push(op.clone());
            entry.n_writes = Some(of);
            // A commit request stalled on this write set may now proceed.
            self.drain_cert_queue(cx);
        }
    }

    fn on_total_deliver(
        &mut self,
        cx: &mut Cx<'_>,
        d: bcastdb_broadcast::atomic::TotalDelivery<Arc<Payload>>,
    ) {
        if let Payload::CommitReq {
            txn,
            prio,
            n_writes,
            read_versions,
            write_versions,
        } = &*d.payload
        {
            let txn = *txn;
            let gseq = d.gseq;
            let (me, now) = (cx.st.me, cx.now);
            cx.st.tracer.emit(|| TraceEvent::TotalOrder {
                at: now,
                site: me,
                txn: txn_ref(txn),
                gseq,
            });
            self.cert_queue.push_back(PendingCert {
                txn,
                prio: *prio,
                n_writes: *n_writes,
                read_versions: read_versions.clone(),
                write_versions: write_versions.clone(),
            });
            self.drain_cert_queue(cx);
        }
    }

    /// Certifies queued commit requests strictly in total order; stalls
    /// when the head's write set is not fully delivered yet. Requests of
    /// transactions already decided (their origin departed) are dropped.
    fn drain_cert_queue(&mut self, cx: &mut Cx<'_>) {
        while let Some(head) = self.cert_queue.front() {
            let txn = head.txn;
            if cx.st.decided.contains_key(&txn) {
                self.cert_queue.pop_front();
                continue;
            }
            let ops_ready = head.n_writes == 0
                || cx
                    .st
                    .remote
                    .get(&txn)
                    .is_some_and(|e| e.ops.len() == head.n_writes);
            if !ops_ready {
                return; // stall: causal writes still in flight
            }
            let head = self.cert_queue.pop_front().expect("front checked");
            // Make sure an entry exists even for write-free transactions.
            let entry = cx.st.remote_entry(txn, head.prio);
            if entry.n_writes.is_none() {
                entry.n_writes = Some(0);
            }
            let pass = head
                .read_versions
                .iter()
                .chain(head.write_versions.iter())
                .all(|(key, expected)| self.latest_writer.get(key).copied() == *expected);
            cx.st.trace_vote(txn, pass, cx.now);
            if pass {
                self.wound_conflicting_readers(cx, txn);
                // Advance the version directory in total order (all keys,
                // held here or not).
                if let Some(entry) = cx.st.remote.get(&txn) {
                    for op in &entry.ops {
                        self.latest_writer.insert(op.key.clone(), txn);
                    }
                }
                cx.commit(txn);
            } else {
                cx.abort(txn, AbortReason::Certification);
            }
        }
    }

    /// Aborts local transactions still holding read locks on keys the
    /// committing transaction `txn` writes. This protocol's applies never
    /// wait — that is what keeps them acknowledgement-free — so conflicting
    /// local readers (read-only included) are wounded.
    fn wound_conflicting_readers(&mut self, cx: &mut Cx<'_>, txn: TxnId) {
        let write_keys: Vec<Key> = cx
            .st
            .remote
            .get(&txn)
            .map(|e| e.ops.iter().map(|o| o.key.clone()).collect())
            .unwrap_or_default();
        for key in write_keys {
            let holders = cx.st.locks.holders(&key);
            for (holder, mode) in holders {
                if mode == LockMode::Shared && holder != txn && cx.st.local.contains_key(&holder) {
                    cx.abort_local(holder, AbortReason::Wounded);
                }
            }
        }
    }
}

impl Protocol for AtomicProto {
    fn on_wire(&mut self, cx: &mut Cx<'_>, from: SiteId, msg: ReplicaMsg) {
        // Wires of a backend this site does not run are strays: dropped.
        match (msg, &mut self.ab) {
            (ReplicaMsg::C(wire), _) => {
                let out = self.cb.on_wire(from, wire);
                cx.route_causal(out);
            }
            (ReplicaMsg::ASeq(wire), Abcast::Seq(ab)) => {
                Self::route_total(cx, ab.on_wire(from, wire), ReplicaMsg::ASeq)
            }
            (ReplicaMsg::AIsis(wire), Abcast::Isis(ab)) => {
                Self::route_total(cx, ab.on_wire(from, wire), ReplicaMsg::AIsis)
            }
            (ReplicaMsg::ARing(wire), Abcast::Ring(ab)) => {
                Self::route_total(cx, ab.on_wire(from, wire), ReplicaMsg::ARing)
            }
            _ => {}
        }
    }

    /// Write operations are disseminated by causal broadcast. The first one
    /// ends the read phase: certification validates the reads from here on
    /// (through the version vectors in the commit request), so the read
    /// locks are released before it goes out.
    fn bcast_write(&mut self, cx: &mut Cx<'_>, write: Payload) {
        if let Payload::Write { txn, index: 0, .. } = write {
            let granted = cx.st.locks.release_all(txn);
            let mut events = EventBuf::new();
            cx.st.process_grants(granted, cx.now, &mut events);
            cx.push_events(events);
        }
        let (_, out) = self.cb.broadcast(Arc::new(write));
        cx.route_causal(out);
    }

    /// Atomically broadcasts the commit request with the version snapshot
    /// taken now: its slot in the total order validates it.
    fn request_commit(&mut self, cx: &mut Cx<'_>, id: TxnId) {
        let Some(local) = cx.st.local.get(&id) else {
            return;
        };
        let read_versions = local.reads_observed.clone();
        let write_versions: Vec<(Key, ObservedVersion)> = local
            .spec
            .writes()
            .iter()
            .map(|w| (w.key.clone(), self.latest_writer.get(&w.key).copied()))
            .collect();
        if let Some(req) = cx.commit_request(id, read_versions, write_versions) {
            self.abcast(cx, req);
        }
    }

    /// No lock-driven machinery in this protocol: applies are immediate and
    /// certification replaces voting.
    fn handle(&mut self, cx: &mut Cx<'_>, item: Work) {
        match item {
            Work::CausalDeliver(d) => self.on_causal_deliver(cx, d),
            Work::TotalDeliver(d) => self.on_total_deliver(cx, d),
            _ => {}
        }
    }

    /// The sequencer moves to the view coordinator; the ring recomputes
    /// successors and starts its repair round, keyed by the view id.
    fn on_view(&mut self, cx: &mut Cx<'_>, view_id: u64) {
        match &mut self.ab {
            Abcast::Seq(ab) => {
                if let Some(&coord) = cx.view.members().iter().next() {
                    ab.set_sequencer(coord);
                }
            }
            Abcast::Ring(ab) => {
                let roster: Vec<SiteId> = cx.view.members().iter().copied().collect();
                let out = ab.set_ring(&roster, view_id);
                Self::route_total(cx, out, ReplicaMsg::ARing);
            }
            Abcast::Isis(_) => {}
        }
    }

    /// Aborting the departed origins' transactions (their commit requests
    /// may never be ordered) can unblock the certification queue.
    fn after_view(&mut self, cx: &mut Cx<'_>) {
        self.drain_cert_queue(cx);
    }

    /// Engine snapshots for state transfer: the causal clock plus the
    /// sequencer delivery watermark, the ISIS `(lamport, delivered)` pair,
    /// or the ring `(watermark, per-origin sequence floors)` pair.
    fn snapshot(&self) -> ProtoSnapshot {
        let (seq, isis, ring) = match &self.ab {
            Abcast::Seq(a) => (Some(a.delivered_watermark()), None, None),
            Abcast::Isis(a) => (None, Some((a.lamport(), a.delivered_count())), None),
            Abcast::Ring(a) => (None, None, Some((a.delivered_watermark(), a.seq_floors()))),
        };
        ProtoSnapshot::Atomic(AbSnapshot {
            causal: self.cb.clock().clone(),
            seq,
            isis,
            ring,
            latest_writer: self.latest_writer.clone(),
        })
    }

    /// The ring engine only fast-forwards its counters here; its membership
    /// (and the repair round that refills undelivered payloads) is
    /// installed by the view change that readmits this site.
    fn resume(&mut self, snap: &ProtoSnapshot, view: &BTreeSet<SiteId>) {
        let ProtoSnapshot::Atomic(donor) = snap else {
            return;
        };
        self.cb.resume_from(&donor.causal);
        match (&mut self.ab, donor.seq, donor.isis, &donor.ring) {
            (Abcast::Seq(a), Some(w), _, _) => a.resume_from(w),
            (Abcast::Isis(a), _, Some((l, d)), _) => a.resume_from(l, d),
            (Abcast::Ring(a), _, _, Some((w, floors))) => a.resume_from(*w, floors),
            _ => {}
        }
        self.latest_writer = donor.latest_writer.clone();
        self.cert_queue.clear();
        if let (Abcast::Seq(a), Some(&coord)) = (&mut self.ab, view.iter().next()) {
            a.set_sequencer(coord);
        }
    }

    /// Ring-backend pipeline gauges, only present when the ring runs —
    /// other backends keep their metrics output byte-identical.
    fn gauges(&self, me: SiteId, sample: &mut Sample) {
        if let Abcast::Ring(a) = &self.ab {
            sample.set_site(me, "ring.inflight", a.inflight());
            sample.set_site(me, "ring.forwarded", a.forwarded_count());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NodeConfig;
    use crate::payload::ProtocolKind;
    use crate::protocols::rig::Rig;
    use bcastdb_db::TxnSpec;

    fn rig(n: usize, abcast: AbcastImpl) -> Rig {
        Rig::with(
            n,
            NodeConfig {
                protocol: ProtocolKind::AtomicBcast,
                abcast,
                ..NodeConfig::default()
            },
        )
    }

    #[test]
    fn commits_with_no_acknowledgement_traffic() {
        for imp in [AbcastImpl::Sequencer, AbcastImpl::Isis, AbcastImpl::Ring] {
            let mut rig = rig(3, imp);
            let id = rig.submit(1, 1, TxnSpec::new().write("x", 4));
            rig.settle();
            for (i, st) in rig.states.iter().enumerate() {
                assert_eq!(st.decided.get(&id), Some(&true), "{imp:?} site {i}");
                assert_eq!(st.store.value(&"x".into()), 4, "{imp:?} site {i}");
                // No votes, no NACK bookkeeping.
                assert!(st.remote[&id].votes_yes.is_empty());
                assert!(st.remote[&id].my_vote.is_none());
            }
        }
    }

    #[test]
    fn certification_aborts_the_later_conflicting_writer() {
        let mut rig = rig(3, AbcastImpl::Sequencer);
        // Both broadcast against the same (initial) version of x without
        // seeing each other: the one ordered second fails certification.
        let a = rig.submit(0, 10, TxnSpec::new().write("x", 1));
        let b = rig.submit(1, 20, TxnSpec::new().write("x", 2));
        rig.settle();
        let (winner, loser) = if rig.states[0].decided[&a] {
            (a, b)
        } else {
            (b, a)
        };
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(st.decided.get(&winner), Some(&true), "site {i}");
            assert_eq!(st.decided.get(&loser), Some(&false), "site {i}");
        }
        // The abort is a certification failure at the origin.
        let origin = &rig.states[loser.origin.0];
        assert_eq!(origin.metrics.counters.get("abort_certification"), 1);
    }

    #[test]
    fn stale_read_fails_certification() {
        let mut rig = rig(3, AbcastImpl::Sequencer);
        // T reads x (initial version) at site 2 but its commit request is
        // ordered after W's commit of x: the read-version check fails.
        let t = {
            // Begin T's read phase but do not finish the write phase yet:
            // craft by submitting with a read of x and a write of y, while
            // W's commit slips in between T's read and T's ordering slot.
            // With the in-memory rig everything is instantaneous, so order
            // the wires manually: submit W first but deliver T's commit
            // request last.
            let w = rig.submit(0, 10, TxnSpec::new().write("x", 7));
            let t = rig.submit(2, 20, TxnSpec::new().read("x").write("y", 1));
            // T read the initial version of x (W not yet delivered), and
            // its commit request is sequenced after W's.
            rig.settle();
            assert!(rig.states[0].decided[&w], "w committed");
            t
        };
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(
                st.decided.get(&t),
                Some(&false),
                "site {i}: stale read must fail certification"
            );
        }
    }

    #[test]
    fn applies_follow_total_order_on_every_site() {
        let mut rig = rig(4, AbcastImpl::Isis);
        let mut ids = Vec::new();
        for i in 0..4 {
            ids.push(rig.submit(
                i,
                10 + i as u64,
                TxnSpec::new().write(format!("k{i}").as_str(), i as i64),
            ));
        }
        rig.settle();
        // Disjoint keys: all four commit, and every site installed each key
        // exactly once.
        for st in &rig.states {
            for (i, id) in ids.iter().enumerate() {
                assert_eq!(st.decided.get(id), Some(&true));
                assert_eq!(st.store.value(&format!("k{i}").into()), i as i64);
            }
        }
    }
}
