//! §2 — the point-to-point read-one write-all baseline.
//!
//! The protocol the paper starts from: every write operation is sent to
//! every site individually, and "the transaction issuing the write
//! operation remains blocked until acknowledgments have been received from
//! all sites". After the last write is acknowledged, commitment is
//! decentralized 2PC \[Ske82\]: the origin sends commit requests, every site
//! sends its vote to every site, each site decides locally.
//!
//! Two costs the broadcast protocols remove are deliberately present here:
//!
//! - **per-operation acknowledgement rounds** — write latency grows with
//!   `2 · writes · one-way-delay`;
//! - **distributed deadlock** — conflicting writers queue with no global
//!   priority, so cross-site waiting cycles form; the origin breaks them
//!   with a timeout abort (counted as [`AbortReason::Timeout`]).

use crate::metrics::AbortReason;
use crate::payload::{P2pMsg, Payload, ReplicaMsg, TxnPriority};
use crate::protocols::driver::{Cx, ProtoSnapshot, Protocol, Work};
use crate::state::{EventBuf, LocalEvent, SiteState};
use bcastdb_db::{TxnId, WriteOp};
use bcastdb_sim::{SimDuration, SimTime, SiteId};
use std::collections::{BTreeMap, BTreeSet};

/// Origin-side write-phase bookkeeping.
#[derive(Debug, Clone)]
struct Driving {
    prio: TxnPriority,
    writes: Vec<WriteOp>,
    /// Index of the operation currently awaiting acknowledgements.
    current_op: usize,
    /// Sites that acked the current op (own grant included). A set, not
    /// a counter: a network-duplicated WriteAck must not double-count
    /// one site and advance the op early.
    acked: BTreeSet<SiteId>,
    /// When the write phase started (timeout baseline).
    started: SimTime,
    commit_sent: bool,
}

/// The point-to-point baseline protocol at one site.
#[derive(Debug)]
pub struct P2pProto {
    /// Abort a write phase that exceeds this age (deadlock resolution).
    pub timeout: SimDuration,
    driving: BTreeMap<TxnId, Driving>,
    /// Keys whose queued grant should trigger an ack to the origin:
    /// `(txn, key) → op index`.
    pending_acks: BTreeMap<(TxnId, bcastdb_db::Key), usize>,
}

impl P2pProto {
    /// Creates the protocol instance.
    pub fn new(timeout: SimDuration) -> Self {
        P2pProto {
            timeout,
            driving: BTreeMap::new(),
            pending_acks: BTreeMap::new(),
        }
    }

    /// Sends `msg` to every site, queuing this site's copy for local
    /// processing through the same path.
    fn send_all(cx: &mut Cx<'_>, msg: P2pMsg) {
        let me = cx.st.me;
        for site in (0..cx.st.n).map(SiteId) {
            if site == me {
                cx.work.push_back(Work::P2p(me, msg.clone()));
            } else {
                cx.fx.send_to(site, ReplicaMsg::P2p(msg.clone()));
            }
        }
    }

    /// Sends the current write op to every site (including processing it
    /// locally) and waits for all acknowledgements before the next op.
    fn issue_current_op(&mut self, cx: &mut Cx<'_>, id: TxnId) {
        let Some(d) = self.driving.get_mut(&id) else {
            return;
        };
        if d.current_op < d.writes.len() {
            let op = d.writes[d.current_op].clone();
            let index = d.current_op;
            Self::send_all(cx, P2pMsg::Write { txn: id, op, index });
        } else if !d.commit_sent {
            d.commit_sent = true;
            cx.st.trace_commit_req_out(id, cx.now);
            let writes = d.writes.clone();
            Self::send_all(cx, P2pMsg::CommitReq { txn: id, writes });
        }
    }

    fn on_p2p(&mut self, cx: &mut Cx<'_>, from: SiteId, msg: P2pMsg) {
        match msg {
            P2pMsg::Write { txn, op, index } => {
                if cx.st.decided.contains_key(&txn) {
                    return;
                }
                // Ops are issued one at a time over FIFO links, so a fresh
                // op always has `index == ops.len()`. Anything below that
                // is a network duplicate: delivering it again would corrupt
                // the `ops.len() == n_writes` prepare accounting (and a dup
                // landing after the commit request would reset `n_writes`
                // to the sentinel, wedging the vote). Just re-ack if the
                // lock is held — the origin's ack set dedups.
                if cx.st.remote.get(&txn).is_some_and(|e| index < e.ops.len()) {
                    if Self::granted(cx.st, txn, &op.key) {
                        Self::emit_ack(cx, txn, index);
                    }
                    return;
                }
                let prio = self
                    .driving
                    .get(&txn)
                    .map(|d| d.prio)
                    .unwrap_or(TxnPriority::placeholder(txn));
                let key = op.key.clone();
                let mut events = EventBuf::new();
                // `of` is unknown at remote sites until the commit request;
                // use a sentinel larger than any index so fully_prepared
                // stays false until then.
                cx.st
                    .deliver_write_op(txn, prio, op, usize::MAX, cx.now, &mut events);
                cx.push_events(events);
                // Ack now if granted (or if we do not replicate the key —
                // nothing to lock), otherwise when the queue grants it.
                if Self::granted(cx.st, txn, &key) {
                    Self::emit_ack(cx, txn, index);
                } else {
                    self.pending_acks.insert((txn, key), index);
                }
            }
            P2pMsg::WriteAck { txn, index } => self.record_ack(cx, from, txn, index),
            P2pMsg::CommitReq { txn, writes } => {
                if cx.st.decided.contains_key(&txn) {
                    return;
                }
                let prio = self
                    .driving
                    .get(&txn)
                    .map(|d| d.prio)
                    .unwrap_or(TxnPriority::placeholder(txn));
                let entry = cx.st.remote_entry(txn, prio);
                entry.commit_req_seen = true;
                entry.n_writes = Some(writes.len());
                // Writes arrived (and were acked) before the commit request
                // on FIFO links, so the site is prepared: vote YES to all.
                entry.my_vote = Some(true);
                cx.st.trace_vote(txn, true, cx.now);
                let site = cx.st.me;
                Self::send_all(
                    cx,
                    P2pMsg::Vote {
                        txn,
                        site,
                        yes: true,
                    },
                );
            }
            P2pMsg::Vote { txn, site, yes } => {
                if cx.st.decided.contains_key(&txn) {
                    return;
                }
                let n = cx.st.n;
                let entry = cx.st.remote_entry(txn, TxnPriority::placeholder(txn));
                if yes {
                    entry.votes_yes.insert(site);
                } else {
                    entry.votes_no.insert(site);
                }
                let all_yes = (0..n).all(|s| entry.votes_yes.contains(&SiteId(s)));
                if !entry.votes_no.is_empty() {
                    cx.abort(txn, AbortReason::NegativeVote);
                    self.driving.remove(&txn);
                } else if all_yes && entry.fully_prepared() {
                    cx.commit(txn);
                    self.driving.remove(&txn);
                }
            }
            P2pMsg::Abort { txn } => {
                cx.abort(txn, AbortReason::Timeout);
                self.driving.remove(&txn);
            }
        }
    }

    /// Whether `key` of `txn` holds its lock here (or needs none: this site
    /// does not replicate it).
    fn granted(st: &SiteState, txn: TxnId, key: &bcastdb_db::Key) -> bool {
        st.remote
            .get(&txn)
            .is_some_and(|e| e.keys_granted.contains(key))
            || !st.placement.is_holder(st.me, key, st.n)
    }

    /// Sends (or locally records) the acknowledgement that `index` of
    /// `txn` holds its lock at this site.
    fn emit_ack(cx: &mut Cx<'_>, txn: TxnId, index: usize) {
        let ack = P2pMsg::WriteAck { txn, index };
        if txn.origin == cx.st.me {
            cx.work.push_back(Work::P2p(cx.st.me, ack));
        } else {
            cx.fx.send_to(txn.origin, ReplicaMsg::P2p(ack));
        }
    }

    /// Origin side: counts acknowledgements for the current op; when all
    /// sites acked, moves to the next op (or the commit phase).
    fn record_ack(&mut self, cx: &mut Cx<'_>, from: SiteId, txn: TxnId, index: usize) {
        let Some(d) = self.driving.get_mut(&txn) else {
            return;
        };
        if index != d.current_op {
            return; // stale ack for an op already completed
        }
        d.acked.insert(from);
        if d.acked.len() >= cx.st.n {
            d.current_op += 1;
            d.acked.clear();
            self.issue_current_op(cx, txn);
        }
    }
}

impl Protocol for P2pProto {
    fn on_wire(&mut self, cx: &mut Cx<'_>, from: SiteId, msg: ReplicaMsg) {
        if let ReplicaMsg::P2p(msg) = msg {
            cx.work.push_back(Work::P2p(from, msg));
        }
    }

    /// The first write starts the whole write phase: the baseline sends one
    /// operation at a time and issues the next only once every site has
    /// acknowledged the current one.
    fn bcast_write(&mut self, cx: &mut Cx<'_>, write: Payload) {
        let Payload::Write {
            txn,
            prio,
            index: 0,
            ..
        } = write
        else {
            return;
        };
        let Some(local) = cx.st.local.get(&txn) else {
            return;
        };
        let writes = local.spec.writes().to_vec();
        self.driving.insert(
            txn,
            Driving {
                prio,
                writes,
                current_op: 0,
                acked: BTreeSet::new(),
                started: cx.now,
                commit_sent: false,
            },
        );
        self.issue_current_op(cx, txn);
    }

    /// The commit requests follow the last write's acknowledgements.
    fn request_commit(&mut self, _cx: &mut Cx<'_>, _id: TxnId) {}

    fn handle(&mut self, cx: &mut Cx<'_>, item: Work) {
        match item {
            Work::P2p(from, msg) => self.on_p2p(cx, from, msg),
            Work::Event(LocalEvent::RemoteKeyGranted(txn, key)) => {
                // A queued write lock came through: acknowledge it.
                if let Some(index) = self.pending_acks.remove(&(txn, key)) {
                    Self::emit_ack(cx, txn, index);
                }
            }
            Work::Event(LocalEvent::RemoteDoomed(..)) => {
                // Wounding is disabled for the baseline (wound_remote and
                // wound_local_readers are false); nothing can be doomed.
                debug_assert!(false, "baseline must not doom transactions");
            }
            _ => {}
        }
    }

    /// Aborts write phases that have exceeded the deadlock timeout.
    fn on_tick(&mut self, cx: &mut Cx<'_>) {
        let stuck: Vec<TxnId> = self
            .driving
            .iter()
            .filter(|(txn, d)| {
                // Once the commit requests are out every site votes YES
                // (all writes were acknowledged), so the decision is
                // assured — aborting then could split the replicas.
                !d.commit_sent
                    && !cx.st.decided.contains_key(txn)
                    && cx.now.saturating_since(d.started) > self.timeout
            })
            .map(|(&txn, _)| txn)
            .collect();
        for txn in stuck {
            self.driving.remove(&txn);
            for site in (0..cx.st.n).map(SiteId) {
                if site != cx.st.me {
                    cx.fx.send_to(site, ReplicaMsg::P2p(P2pMsg::Abort { txn }));
                }
            }
            cx.abort(txn, AbortReason::Timeout);
        }
    }

    fn wants_tick(&self, st: &SiteState) -> bool {
        st.has_undecided()
    }

    fn settles_each_view_abort(&self) -> bool {
        true
    }

    fn paces_writes(&self) -> bool {
        false
    }

    /// Drops stale driving state; the transferred store and decision map
    /// carry the outcomes.
    fn resume(&mut self, _snap: &ProtoSnapshot, _view: &BTreeSet<SiteId>) {
        self.driving.clear();
        self.pending_acks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::ProtocolKind;
    use crate::protocols::rig::{Rig, Wire};
    use bcastdb_db::TxnSpec;

    fn issued(rig: &Rig, k: usize) -> bool {
        rig.wires.iter().any(
            |(_, _, m)| matches!(m, ReplicaMsg::P2p(P2pMsg::Write { index, .. }) if *index == k),
        )
    }

    fn take(rig: &mut Rig, pred: impl Fn(&Wire) -> bool) -> Wire {
        let pos = rig.wires.iter().position(pred).expect("wire queued");
        rig.wires.remove(pos).expect("position is in range")
    }

    #[test]
    fn uncontended_txn_commits_everywhere() {
        let mut rig = Rig::new(3, ProtocolKind::PointToPoint);
        let id = rig.submit(0, 0, TxnSpec::new().write("x", 7).write("y", 8));
        rig.settle();
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(st.decided.get(&id), Some(&true), "site {i}");
            assert_eq!(st.store.value(&"x".into()), 7, "site {i}");
            assert_eq!(st.store.value(&"y".into()), 8, "site {i}");
        }
    }

    #[test]
    fn next_write_waits_for_every_ack_and_duplicate_acks_do_not_count() {
        let mut rig = Rig::new(3, ProtocolKind::PointToPoint);
        let id = rig.submit(0, 0, TxnSpec::new().write("a", 1).write("b", 2));
        assert!(issued(&rig, 0), "op 0 goes out at once");
        assert!(!issued(&rig, 1), "op 1 waits for op 0's acks");
        // Site 1 takes op 0 and acks it; the network duplicates the ack.
        let write = take(&mut rig, |(_, to, _)| *to == SiteId(1));
        rig.deliver(write);
        let ack = take(&mut rig, |(_, _, m)| {
            matches!(m, ReplicaMsg::P2p(P2pMsg::WriteAck { index: 0, .. }))
        });
        rig.deliver(ack.clone());
        rig.deliver(ack);
        assert!(
            !issued(&rig, 1),
            "two copies of site 1's ack do not stand in for site 2's"
        );
        // Site 2's ack completes op 0.
        let write = take(&mut rig, |(_, to, _)| *to == SiteId(2));
        rig.deliver(write);
        let ack = take(&mut rig, |(_, _, m)| {
            matches!(m, ReplicaMsg::P2p(P2pMsg::WriteAck { index: 0, .. }))
        });
        rig.deliver(ack);
        assert!(issued(&rig, 1), "every site acked op 0: op 1 goes out");
        rig.settle();
        for st in &rig.states {
            assert_eq!(st.decided.get(&id), Some(&true));
        }
    }
}
