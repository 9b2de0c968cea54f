//! §3 — the Reliable Broadcast protocol.
//!
//! Write operations and the commit request are **reliably broadcast**
//! (FIFO per origin, so the commit request arrives after the writes at
//! every site). Commitment is **decentralized two-phase commit** \[Ske82\]:
//! every site broadcasts its YES/NO vote to all sites, and each site
//! decides locally once it has heard from the whole view.
//!
//! Deadlock freedom comes from the priority conflict policy in the shared
//! state layer (wound-wait by default): conflicting update transactions
//! never form waiting cycles, and a site that wounds a transaction simply
//! votes NO — the decentralized votes make site-local wounds globally
//! visible. Read-only transactions execute entirely locally, never
//! broadcast anything, and are never aborted.

use crate::metrics::AbortReason;
use crate::payload::{Payload, ReplicaMsg, TxnPriority};
use crate::protocols::driver::{Cx, ProtoSnapshot, Protocol, Work};
use crate::protocols::{Effects, RetransmitBackoff};
use crate::state::{EventBuf, LocalEvent, SiteState};
use bcastdb_broadcast::reliable::{self, ReliableBcast};
use bcastdb_db::TxnId;
use bcastdb_sim::SiteId;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The reliable-broadcast replication protocol at one site.
///
/// The broadcast engine is instantiated with `Arc<Payload>` so its archive,
/// holdback, and per-destination fan-out share one payload allocation per
/// broadcast instead of deep-cloning it N−1 times.
#[derive(Debug)]
pub struct ReliableProto {
    rb: ReliableBcast<Arc<Payload>>,
    /// Loss-recovery mode: the broadcast layer relays first copies, and
    /// ticks solicit retransmissions while transactions are undecided.
    relay: bool,
    /// Cadence control of the periodic `RSync` solicitation.
    backoff: RetransmitBackoff,
    /// Delivery watermarks at the last solicitation, the progress signal
    /// that resets the backoff.
    last_watermarks: Vec<u64>,
}

impl ReliableProto {
    /// Creates the protocol instance for site `me` of `n`. With `relay`,
    /// the broadcast layer re-forwards first copies so agreement survives
    /// message loss (at `O(N²)` message cost); `backoff` switches the
    /// periodic `RSync` solicitation from every tick to bounded exponential
    /// backoff with deterministic jitter.
    pub fn new(me: SiteId, n: usize, relay: bool, backoff: bool) -> Self {
        let rb = ReliableBcast::new(me, n);
        let mut p = ReliableProto {
            // Without loss recovery nobody ever sends a sync round, so no
            // retransmission is ever requested: skip the per-message
            // archive insert.
            rb: if relay {
                rb.with_relay()
            } else {
                rb.without_archive()
            },
            relay,
            backoff: RetransmitBackoff::new(me),
            last_watermarks: Vec::new(),
        };
        if backoff {
            p.backoff.enable();
        }
        p
    }

    /// Handles a peer's loss-recovery sync: retransmit archived messages
    /// the peer is missing (its duplicate suppression absorbs extras).
    fn on_sync(&mut self, fx: &mut Effects, from: SiteId, watermarks: &[u64]) {
        // Answer only for our own messages: one authoritative responder per
        // gap keeps lossy-mode recovery traffic linear.
        let me = self.rb.me();
        for wire in self.rb.retransmissions_for(watermarks, 32) {
            if wire.id.origin == me {
                fx.send_to(from, ReplicaMsg::R(wire));
            }
        }
    }

    /// Publishes our delivery watermarks so peers can fill our gaps. With
    /// backoff enabled, the solicitation cadence doubles while the
    /// watermarks stand still and snaps back to every tick the moment they
    /// move.
    fn solicit(&mut self, fx: &mut Effects) {
        let marks = self.rb.watermarks();
        if marks != self.last_watermarks {
            self.backoff.reset();
            self.last_watermarks = marks.clone();
        }
        if self.backoff.due() {
            fx.send_others(ReplicaMsg::RSync(marks));
        }
    }

    /// Broadcasts `payload`, routing wire traffic to the effects and the
    /// local self-delivery into the work queue.
    fn bcast(&mut self, cx: &mut Cx<'_>, payload: Payload) {
        // The single payload allocation of this broadcast: every wire copy
        // and archive entry from here on is a refcount bump.
        let (_, out) = self.rb.broadcast(Arc::new(payload));
        Self::route(cx, out);
    }

    fn route(cx: &mut Cx<'_>, out: reliable::Output<Arc<Payload>>) {
        for ob in out.outbound {
            cx.fx.send(ob.dest, ReplicaMsg::R(ob.wire));
        }
        for d in out.deliveries {
            cx.work.push_back(Work::Deliver(d.payload));
        }
    }

    fn on_deliver(&mut self, cx: &mut Cx<'_>, payload: Arc<Payload>) {
        match &*payload {
            Payload::Write {
                txn, prio, op, of, ..
            } => {
                let mut events = EventBuf::new();
                cx.st
                    .deliver_write_op(*txn, *prio, op.clone(), *of, cx.now, &mut events);
                cx.push_events(events);
            }
            &Payload::CommitReq {
                txn,
                prio,
                n_writes,
                ..
            } => {
                if cx.st.decided.contains_key(&txn) {
                    return;
                }
                let entry = cx.st.remote_entry(txn, prio);
                entry.commit_req_seen = true;
                entry.n_writes = Some(n_writes);
                // THE GATE (mirror of the causal protocol's): conflicts
                // between this writer and *local readers* must be settled
                // now, or the site's vote could wait on a reader that —
                // across sites — waits back on this writer. Read-only
                // readers veto the writer (they are never aborted); update
                // readers still in their read phase are wounded; readers
                // that already broadcast are governed by the priority
                // rules, which votes make globally visible.
                if cx.gate_local_readers(txn, false) {
                    let mut events = EventBuf::new();
                    cx.st.doom_remote(txn, AbortReason::Wounded, &mut events);
                    cx.push_events(events);
                }
                self.maybe_vote(cx, txn);
            }
            &Payload::Vote { txn, site, yes } => {
                if cx.st.decided.contains_key(&txn) {
                    return;
                }
                // A vote can arrive before any write op (no cross-origin
                // ordering).
                let entry = cx.st.remote_entry(txn, TxnPriority::placeholder(txn));
                if yes {
                    entry.votes_yes.insert(site);
                } else {
                    entry.votes_no.insert(site);
                }
                self.decide(cx, txn);
            }
            &Payload::AbortDecision { txn } => {
                let reason = cx
                    .st
                    .remote
                    .get(&txn)
                    .and_then(|e| e.doomed)
                    .unwrap_or(AbortReason::Wounded);
                cx.abort(txn, reason);
            }
            Payload::Nack { .. } | Payload::Null => {
                // Not used by this protocol.
            }
        }
    }

    /// Casts this site's vote for `txn` if the commit request has been
    /// delivered and the outcome here is known.
    fn maybe_vote(&mut self, cx: &mut Cx<'_>, txn: TxnId) {
        if cx.st.decided.contains_key(&txn) {
            return;
        }
        let Some(entry) = cx.st.remote.get_mut(&txn) else {
            return;
        };
        if !entry.commit_req_seen || entry.my_vote.is_some() {
            return;
        }
        let yes = if entry.doomed.is_some() {
            false
        } else if entry.fully_prepared() {
            true
        } else {
            return; // still waiting for locks or write ops
        };
        entry.my_vote = Some(yes);
        cx.st.trace_vote(txn, yes, cx.now);
        if yes {
            // Older transactions queued behind this now-prepared holder
            // must not wait for an irrevocable vote: doom them here (we
            // vote NO for them when their commit requests arrive).
            let mut events = EventBuf::new();
            cx.st.doom_older_waiters_behind(txn, &mut events);
            cx.push_events(events);
        }
        let site = cx.st.me;
        self.bcast(cx, Payload::Vote { txn, site, yes });
    }
}

impl Protocol for ReliableProto {
    fn on_wire(&mut self, cx: &mut Cx<'_>, from: SiteId, msg: ReplicaMsg) {
        match msg {
            ReplicaMsg::R(wire) => {
                let out = self.rb.on_wire(from, wire);
                Self::route(cx, out);
            }
            ReplicaMsg::RSync(watermarks) => self.on_sync(cx.fx, from, &watermarks),
            _ => {}
        }
    }

    fn bcast_write(&mut self, cx: &mut Cx<'_>, write: Payload) {
        self.bcast(cx, write);
    }

    /// The commit request goes out right behind the writes: FIFO delivers
    /// them in this order everywhere.
    fn request_commit(&mut self, cx: &mut Cx<'_>, id: TxnId) {
        if let Some(req) = cx.commit_request(id, Vec::new(), Vec::new()) {
            self.bcast(cx, req);
        }
    }

    fn handle(&mut self, cx: &mut Cx<'_>, item: Work) {
        match item {
            Work::Deliver(payload) => self.on_deliver(cx, payload),
            Work::Event(LocalEvent::RemotePrepared(id)) => self.maybe_vote(cx, id),
            Work::Event(LocalEvent::RemoteDoomed(id, _reason)) => {
                if id.origin == cx.st.me {
                    // Our own transaction was condemned here: abort it
                    // globally right away rather than waiting for the vote
                    // round.
                    self.bcast(cx, Payload::AbortDecision { txn: id });
                } else {
                    self.maybe_vote(cx, id);
                }
            }
            _ => {}
        }
    }

    /// Decides `txn` once the view's votes are in (decentralized 2PC: each
    /// site decides independently from the same votes).
    ///
    /// With fast commit on, a transaction whose only missing voters are
    /// *suspected* sites is decided speculatively from the surviving quorum
    /// (our own YES among it) when nobody voted NO — the decision a view
    /// change would reach anyway, taken one failure-detection round
    /// earlier. A conflicting NO that lands before the speculative decision
    /// always wins; one that lands after is ignored (the decision is
    /// final).
    fn decide(&mut self, cx: &mut Cx<'_>, txn: TxnId) {
        if cx.st.decided.contains_key(&txn) {
            return;
        }
        let Some(entry) = cx.st.remote.get(&txn) else {
            return;
        };
        let voted_yes = |s: &SiteId| entry.votes_yes.contains(s);
        if !entry.votes_no.is_empty() {
            let reason = entry.doomed.unwrap_or(AbortReason::NegativeVote);
            cx.abort(txn, reason);
        } else if cx.view.all(voted_yes) {
            cx.commit(txn);
        } else if entry.my_vote == Some(true) && cx.view.fast_quorum(voted_yes) {
            // Our own YES is in: the local write set is complete and
            // prepared, so the commit can apply here immediately.
            cx.st.trace_fast_decide(txn, cx.now);
            cx.st.trace_decided(txn, true, cx.now);
            cx.commit(txn);
        }
    }

    /// Loss-recovery mode: solicit retransmissions while undecided.
    fn on_tick(&mut self, cx: &mut Cx<'_>) {
        if self.wants_tick(cx.st) {
            self.solicit(cx.fx);
        }
    }

    fn wants_tick(&self, st: &SiteState) -> bool {
        self.relay && st.has_undecided()
    }

    fn snapshot(&self) -> ProtoSnapshot {
        ProtoSnapshot::Reliable(self.rb.watermarks())
    }

    fn resume(&mut self, snap: &ProtoSnapshot, _view: &BTreeSet<SiteId>) {
        if let ProtoSnapshot::Reliable(watermarks) = snap {
            self.rb.resume_from(watermarks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::ProtocolKind;
    use crate::protocols::rig::Rig;
    use bcastdb_db::TxnSpec;
    use bcastdb_sim::SimTime;

    fn rig(n: usize) -> Rig {
        Rig::new(n, ProtocolKind::ReliableBcast)
    }

    #[test]
    fn uncontended_txn_collects_all_votes_and_commits_everywhere() {
        let mut rig = rig(3);
        let id = rig.submit(0, 0, TxnSpec::new().write("x", 7));
        rig.settle();
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(st.decided.get(&id), Some(&true), "site {i}");
            assert_eq!(st.store.value(&bcastdb_db::Key::new("x")), 7, "site {i}");
            let e = &st.remote[&id];
            assert_eq!(e.votes_yes.len(), 3, "site {i} saw all votes");
            assert_eq!(e.my_vote, Some(true), "site {i} voted yes");
        }
    }

    #[test]
    fn gate_vetoes_writer_conflicting_with_read_only_reader() {
        let mut rig = rig(2);
        // A read-only transaction at site 1 holds S("x") and is blocked on a
        // second key held exclusively, so it stays live.
        let blocker = TxnId::new(SiteId(0), 99);
        let mut events = EventBuf::new();
        rig.states[1].deliver_write_op(
            blocker,
            crate::payload::TxnPriority {
                ts: 0,
                origin: SiteId(0),
                num: 99,
            },
            bcastdb_db::WriteOp {
                key: "y".into(),
                value: 1,
            },
            2, // claims two writes so it never prepares/terminates
            SimTime::ZERO,
            &mut events,
        );
        let (ro, ev) =
            rig.states[1].begin_txn(SimTime::from_micros(5), TxnSpec::new().read("x").read("y"));
        assert!(ev.is_empty(), "reader parked on y");
        // Site 0 submits a writer of "x": its commit request reaches site 1
        // while the read-only reader holds S(x) → site 1 vetoes (votes NO).
        let w = rig.submit(0, 0, TxnSpec::new().write("x", 3));
        rig.settle();
        assert_eq!(rig.states[0].decided.get(&w), Some(&false), "writer vetoed");
        assert!(
            !rig.states[1].decided.contains_key(&ro),
            "read-only reader survives"
        );
        let e = &rig.states[1].remote[&w];
        assert_eq!(e.my_vote, Some(false), "site 1 cast the NO vote");
    }

    #[test]
    fn one_no_vote_aborts_globally() {
        let mut rig = rig(3);
        let id = rig.submit(0, 0, TxnSpec::new().write("x", 1));
        // Pre-doom the transaction at site 2 before its wires arrive.
        {
            let st = &mut rig.states[2];
            let e = st.remote_entry(
                id,
                crate::payload::TxnPriority {
                    ts: 0,
                    origin: SiteId(0),
                    num: 1,
                },
            );
            e.doomed = Some(AbortReason::Wounded);
        }
        rig.settle();
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(st.decided.get(&id), Some(&false), "site {i} aborted");
            assert_eq!(
                st.store.read(&"x".into()).writer,
                None,
                "site {i}: no install"
            );
        }
    }

    #[test]
    fn relay_sync_cadence_backs_off_and_resets_on_progress() {
        use bcastdb_broadcast::msg::MsgId;

        let ticks = |p: &mut ReliableProto, n: usize| -> usize {
            let mut sent = 0;
            for _ in 0..n {
                let mut fx = Effects::new();
                p.solicit(&mut fx);
                sent += fx.sends.len();
            }
            sent
        };

        // Without backoff (the default), every tick solicits.
        let mut plain = ReliableProto::new(SiteId(0), 3, true, false);
        assert_eq!(ticks(&mut plain, 64), 64);

        // With backoff, a stalled site solicits exponentially more rarely.
        let mut p = ReliableProto::new(SiteId(0), 3, true, true);
        let stalled = ticks(&mut p, 64);
        assert!(
            (1..16).contains(&stalled),
            "64 stalled ticks must coalesce into a handful of syncs, got {stalled}"
        );

        // Progress (a delivery advancing the watermarks) snaps the cadence
        // back to the very next tick.
        let _ = p.rb.on_wire(
            SiteId(1),
            reliable::Wire {
                id: MsgId {
                    origin: SiteId(1),
                    seq: 1,
                },
                payload: std::sync::Arc::new(Payload::Null),
            },
        );
        let mut fx = Effects::new();
        p.solicit(&mut fx);
        assert_eq!(fx.sends.len(), 1, "post-progress tick solicits again");
    }

    #[test]
    fn fifo_guarantees_ops_before_commit_request() {
        // The commit request never outruns the writes: by the time any site
        // votes, its write set is complete.
        let mut rig = rig(4);
        let id = rig.submit(
            1,
            1,
            TxnSpec::new().write("a", 1).write("b", 2).write("c", 3),
        );
        rig.settle();
        for st in &rig.states {
            let e = &st.remote[&id];
            assert_eq!(e.ops.len(), 3);
            assert_eq!(e.n_writes, Some(3));
            assert_eq!(st.decided.get(&id), Some(&true));
        }
    }
}
