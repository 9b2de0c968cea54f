//! §4 — the Causal Broadcast protocol with implicit acknowledgements.
//!
//! Write operations and commit requests travel by **causal broadcast**, and
//! the vector clocks of deliveries are exposed to this layer (the paper
//! names this as a requirement on the communication layer). Two ideas from
//! the paper replace the explicit vote round of §3:
//!
//! 1. **Implicit positive acknowledgements.** After a site `q` delivers
//!    `commit-req(T)`, *any* subsequent message from `q` carries a vector
//!    clock whose `T.origin` component covers the commit request — proof
//!    that `q` saw it. A site commits `T` once it holds such proof from
//!    every view member and has delivered no NACK. Quiet sites would stall
//!    this, so sites with undecided transactions emit **null messages**
//!    (heartbeats) — the paper's suggested mitigation, measured in
//!    experiment F4.
//! 2. **Early conflict detection.** Two write sets whose vector clocks are
//!    *concurrent* conflict irreconcilably if they overlap; every site
//!    detects this independently from the exposed clocks and aborts the
//!    younger transaction — no communication needed (a NACK is still sent
//!    to accelerate the abort at sites that have not yet seen both).
//!
//! Safety of the implicit ack (why no site can commit `T` and later learn
//! of a concurrent conflicting winner): any transaction concurrent with `T`
//! was broadcast by its origin *before* that origin delivered
//! `commit-req(T)`, hence before the origin's acknowledging message; causal
//! (FIFO per sender) delivery puts those writes before the ack at every
//! site. Collecting acks from the full view therefore closes `T`'s
//! concurrency window — the commit evaluation sees every candidate.
//!
//! Conflicts *ordered* by causality queue in causal order (identical at all
//! sites, and acyclic — so no deadlock). Broadcast transactions are never
//! wounded site-locally here: unlike §3 there is no vote with which to
//! publish a wound, so a site-local wound could contradict an
//! already-emitted implicit ack.

use crate::metrics::AbortReason;
use crate::payload::{Payload, ReplicaMsg, TxnPriority};
use crate::protocols::driver::{Cx, ProtoSnapshot, Protocol, Work};
use crate::protocols::RetransmitBackoff;
use crate::state::{EventBuf, LocalEvent, SiteState};
use bcastdb_broadcast::causal::{self, CausalBcast};
use bcastdb_broadcast::VectorClock;
use bcastdb_db::{Key, TxnId};
use bcastdb_sim::{Sample, SiteId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Index entries before the first [`CausalProto::prune`] sweep.
const FIRST_PRUNE: usize = 64;

/// Causal-protocol bookkeeping for one broadcast transaction.
#[derive(Debug, Clone, Default)]
struct CbTxn {
    /// Vector clock of each delivered write operation, by key. Concurrency
    /// is classified **per operation**: a transaction's operations are
    /// broadcast individually and are not a causal unit — one op can
    /// causally precede a peer while the next is concurrent with it.
    write_ops: BTreeMap<Key, VectorClock>,
    /// `commit-req`'s component at the origin; acks must cover this.
    cr_seq: Option<u64>,
    /// Sites whose delivery of the commit request is proven.
    acked: BTreeSet<SiteId>,
    /// Sites that explicitly rejected the transaction.
    nacked: BTreeSet<SiteId>,
    /// Commit decided; applied when locks are all granted.
    commit_pending: bool,
}

/// The causal-broadcast replication protocol at one site.
///
/// The broadcast engine is instantiated with `Arc<Payload>` so its archive,
/// pending set, and per-destination fan-out share one payload allocation
/// per broadcast instead of deep-cloning it N−1 times.
#[derive(Debug)]
pub struct CausalProto {
    cb: CausalBcast<Arc<Payload>>,
    info: BTreeMap<TxnId, CbTxn>,
    /// Emit a null message on ticks while transactions are undecided.
    null_messages: bool,
    /// Loss-recovery mode: retransmit archived messages to lagging peers.
    recover_losses: bool,
    /// This site's clock at its most recent broadcast: the evidence other
    /// sites hold about what we have delivered. If it does not cover a
    /// delivered commit request, our implicit acknowledgement has not been
    /// published yet and a null message is due.
    last_bcast_vc: VectorClock,
    /// Transactions whose commit request is delivered but whose outcome is
    /// not yet in `st.decided` — the only transactions a new implicit
    /// acknowledgement can advance. `info` also holds decided transactions
    /// until their write-op clocks fall below the stability floor (see
    /// [`CausalProto::prune`]), so the per-delivery ack scan walks this
    /// smaller index instead; entries are dropped lazily once the decision
    /// lands.
    ack_waiting: BTreeSet<TxnId>,
    /// Per-origin maximum commit-request sequence delivered so far.
    /// `cr_seq` values from one origin only grow, so "some delivered
    /// commit request is not covered by our last broadcast" reduces to
    /// comparing this clock against `last_bcast_vc` — O(n) per tick
    /// instead of a scan over every transaction ever seen.
    max_cr_seq: VectorClock,
    /// Per-key writer index: `t` is listed under `k` exactly when
    /// `info[t].write_ops` holds `k`. Concurrency classification — early
    /// detection on a delivered write and the decision rule — checks only
    /// the peers listed under its own keys. A list that empties is kept,
    /// so a key written again costs no allocation.
    writers: BTreeMap<Key, Vec<TxnId>>,
    /// Total length of the `writers` lists.
    indexed: usize,
    /// `indexed` at which the next [`CausalProto::prune`] sweep runs: at
    /// least one entry per key and twice what the last sweep left, so a
    /// sweep costs O(1) amortised per delivered write.
    prune_at: usize,
    /// Clock of the last delivery from each of the n sites, recorded from
    /// the first sweep on (empty before it, so short runs never pay for
    /// it). Their component-wise minimum is the causal stability floor:
    /// causal delivery is FIFO per origin, so every later delivery
    /// dominates it. Sites not heard from since recording began hold the
    /// floor at zero.
    last_delivered: Vec<VectorClock>,
    /// Cadence control of the periodic null/gap-report broadcast.
    backoff: RetransmitBackoff,
    /// `(sum of remote clock components, pending holes)` at the last tick —
    /// the progress signal that resets the backoff. Our own component is
    /// excluded: each null we send self-delivers, and counting that as
    /// progress would keep the cadence pinned at every tick.
    last_progress: (u64, usize),
}

impl CausalProto {
    /// Creates the protocol instance for site `me` of `n`. With `relay`,
    /// the broadcast layer relays first copies and lost messages are
    /// recovered; `null_messages` emits null messages on ticks while
    /// transactions are undecided; `backoff` switches that periodic
    /// null/gap-report broadcast from every tick to bounded exponential
    /// backoff with deterministic jitter.
    pub fn new(me: SiteId, n: usize, relay: bool, null_messages: bool, backoff: bool) -> Self {
        let cb = CausalBcast::new(me, n);
        let mut p = CausalProto {
            // Without loss recovery nobody ever asks this engine for
            // retransmissions, so skip the per-message archive clone.
            cb: if relay {
                cb.with_relay()
            } else {
                cb.without_archive()
            },
            info: BTreeMap::new(),
            null_messages,
            recover_losses: relay,
            last_bcast_vc: VectorClock::new(n),
            ack_waiting: BTreeSet::new(),
            max_cr_seq: VectorClock::new(n),
            writers: BTreeMap::new(),
            indexed: 0,
            prune_at: FIRST_PRUNE,
            last_delivered: Vec::new(),
            backoff: RetransmitBackoff::new(me),
            last_progress: (0, 0),
        };
        if backoff {
            p.backoff.enable();
        }
        p
    }

    fn has_unpublished_ack(&self) -> bool {
        self.max_cr_seq
            .iter()
            .any(|(origin, k)| self.last_bcast_vc.get(origin) < k)
    }

    fn bcast(&mut self, cx: &mut Cx<'_>, payload: Payload) {
        // The single payload allocation of this broadcast: every wire copy
        // and archive entry from here on is a refcount bump.
        let (_, out) = self.cb.broadcast(Arc::new(payload));
        self.last_bcast_vc.copy_from(self.cb.clock());
        cx.route_causal(out);
    }

    /// Final step of a write phase: runs the origin-side reader gate and,
    /// if the transaction is still viable, broadcasts the commit request.
    fn finish_write(&mut self, cx: &mut Cx<'_>, id: TxnId) {
        if cx.st.decided.contains_key(&id) {
            return; // doomed by early conflict detection meanwhile
        }
        // Origin-side gate: settle conflicts with our own local readers
        // *before* the commit request exists anywhere.
        self.gate(cx, id);
        if cx.st.decided.contains_key(&id) {
            return; // the gate vetoed us (read-only conflict)
        }
        if let Some(req) = cx.commit_request(id, Vec::new(), Vec::new()) {
            self.bcast(cx, req);
        }
    }

    fn on_deliver(&mut self, cx: &mut Cx<'_>, d: causal::Delivery<Arc<Payload>>) {
        let sender = d.id.origin;
        if let Some(last) = self.last_delivered.get_mut(sender.0) {
            last.copy_from(&d.vc);
        }
        // A NACK must take effect before the same message is credited as
        // its sender's implicit acknowledgement — otherwise the NACK's own
        // clock could complete the ack set and commit the transaction it
        // rejects. A late NACK for a decided transaction changes nothing
        // and must not bring back its pruned bookkeeping.
        if let Payload::Nack { txn, site } = &*d.payload {
            if !cx.st.decided.contains_key(txn) {
                self.info.entry(*txn).or_default().nacked.insert(*site);
            }
        }
        // Every delivery is a potential implicit acknowledgement: the
        // sender's clock proves which commit requests it had delivered.
        self.absorb_implicit_acks(cx, sender, &d.vc);

        match &*d.payload {
            Payload::Write {
                txn, prio, op, of, ..
            } => {
                self.on_write(cx, *txn, *prio, op.clone(), *of, d.vc);
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
                let info = self.info.entry(txn).or_default();
                let cr_seq = d.vc.get(txn.origin);
                info.cr_seq = Some(cr_seq);
                if cr_seq > self.max_cr_seq.get(txn.origin) {
                    self.max_cr_seq.set(txn.origin, cr_seq);
                }
                self.ack_waiting.insert(txn);
                // The sender trivially acknowledged its own request, and we
                // just delivered it ourselves.
                info.acked.insert(txn.origin);
                info.acked.insert(cx.st.me);
                // THE GATE. From this instant on, our outgoing traffic is an
                // implicit YES — so any conflict with a live local reader
                // must be settled *now*, while no other site can yet hold
                // our acknowledgement (everything we broadcast so far
                // causally precedes this commit request). An update reader
                // that already broadcast its own writes vetoes the writer
                // too: its reads are validated by the locks it holds until
                // its own commitment.
                self.gate(cx, txn);
                self.decide(cx, txn);
            }
            &Payload::Nack { txn, .. } => self.decide(cx, txn),
            Payload::Null => {}
            Payload::Vote { .. } | Payload::AbortDecision { .. } => {
                // Not used by this protocol.
            }
        }
    }

    /// Records implicit acks proven by a message from `sender` stamped
    /// `vc`, and re-evaluates the transactions whose ack sets changed.
    fn absorb_implicit_acks(&mut self, cx: &mut Cx<'_>, sender: SiteId, vc: &VectorClock) {
        // Walk the undecided index, not the full `info` map: transactions
        // whose commit request has not been delivered have no ack set to
        // advance, and decided ones (pruned lazily here) are settled.
        let mut candidates: Vec<TxnId> = Vec::new();
        let mut settled: Vec<TxnId> = Vec::new();
        for &txn in &self.ack_waiting {
            if cx.st.decided.contains_key(&txn) {
                settled.push(txn);
                continue;
            }
            let Some(info) = self.info.get(&txn) else {
                settled.push(txn);
                continue;
            };
            if info
                .cr_seq
                .is_some_and(|k| vc.get(txn.origin) >= k && !info.acked.contains(&sender))
            {
                candidates.push(txn);
            }
        }
        for txn in settled {
            self.ack_waiting.remove(&txn);
        }
        for txn in candidates {
            self.info
                .get_mut(&txn)
                .expect("candidate")
                .acked
                .insert(sender);
            self.decide(cx, txn);
        }
    }

    /// Handles a delivered write: classify against other broadcast
    /// transactions, abort concurrent losers, then lock.
    fn on_write(
        &mut self,
        cx: &mut Cx<'_>,
        txn: TxnId,
        prio: TxnPriority,
        op: bcastdb_db::WriteOp,
        of: usize,
        vc: VectorClock,
    ) {
        if self.indexed >= self.prune_at {
            self.prune(&cx.st.decided);
        }
        let ops = &mut self.info.entry(txn).or_default().write_ops;
        if ops.insert(op.key.clone(), vc).is_none() {
            match self.writers.get_mut(&op.key) {
                Some(list) => list.push(txn),
                None => {
                    self.writers.insert(op.key.clone(), vec![txn]);
                }
            }
            self.indexed += 1;
        }
        let vc = &self.info[&txn].write_ops[&op.key];
        // Early conflict detection: another *operation* on the same key
        // whose clock is concurrent with this one means the two
        // transactions conflict irreconcilably. Only undecided writers can
        // conflict; losers are aborted in transaction order.
        let mut peers: Vec<(TxnId, TxnPriority)> = Vec::new();
        for &peer in &self.writers[&op.key] {
            if peer == txn
                || !self.info[&peer].write_ops[&op.key].concurrent_with(vc)
                || cx.st.decided.contains_key(&peer)
            {
                continue;
            }
            if let Some(entry) = cx.st.remote.get(&peer) {
                peers.push((peer, entry.prio));
            }
        }
        peers.sort_unstable_by_key(|&(peer, _)| peer);
        let mut doomed_self = false;
        for (peer, peer_prio) in peers {
            let loser = if prio.older_than(&peer_prio) {
                peer
            } else {
                txn
            };
            if loser == txn {
                doomed_self = true;
            }
            self.abort_with_nack(cx, loser);
        }
        if doomed_self || cx.st.decided.contains_key(&txn) {
            return; // no point acquiring locks for a dead transaction
        }
        let mut events = EventBuf::new();
        cx.st
            .deliver_write_op(txn, prio, op, of, cx.now, &mut events);
        cx.push_events(events);
    }

    /// Drops the index entries no verdict can depend on again, then the
    /// `info` of decided transactions left without any. An entry of `p`
    /// under `k` goes only when
    /// - `p` is decided;
    /// - its clock is at or below the causal stability floor, so every
    ///   later delivery dominates it and none can be concurrent with it;
    /// - no undecided writer of `k` is concurrent with it: a decided older
    ///   peer still makes a younger concurrent writer lose.
    fn prune(&mut self, decided: &BTreeMap<TxnId, bool>) {
        if self.last_delivered.is_empty() {
            let n = self.max_cr_seq.len();
            self.last_delivered = vec![VectorClock::new(n); n];
        }
        let last = &self.last_delivered;
        let below_floor = |vc: &VectorClock| last.iter().all(|l| vc.dominated_by(l));
        for (key, list) in &mut self.writers {
            // In place: the undecided-writer test reads the list itself.
            let mut i = 0;
            while i < list.len() {
                let p = list[i];
                let clock = |t: &TxnId| &self.info[t].write_ops[key];
                let stable = decided.contains_key(&p) && {
                    let pvc = clock(&p);
                    below_floor(pvc)
                        && !list
                            .iter()
                            .any(|q| !decided.contains_key(q) && clock(q).concurrent_with(pvc))
                };
                if stable {
                    list.swap_remove(i);
                    self.indexed -= 1;
                    let info = self.info.get_mut(&p).expect("indexed");
                    info.write_ops.remove(key);
                } else {
                    i += 1;
                }
            }
        }
        self.info
            .retain(|t, info| !info.write_ops.is_empty() || !decided.contains_key(t));
        self.prune_at = (2 * self.indexed).max(self.indexed + self.writers.len());
    }

    /// Live protocol state: `info` entries plus index entries.
    fn live(&self) -> usize {
        self.info.len() + self.indexed
    }

    /// Runs the local-reader gate for `txn` before this site's implicit
    /// acknowledgement of it can circulate: any reader past its read phase
    /// vetoes the writer, since a site-local wound cannot be published
    /// without votes.
    fn gate(&mut self, cx: &mut Cx<'_>, txn: TxnId) {
        if cx.gate_local_readers(txn, true) {
            self.abort_with_nack(cx, txn);
        }
    }

    /// Aborts `txn` locally (the deterministic rule makes every site reach
    /// the same verdict) and broadcasts a NACK to accelerate the others.
    fn abort_with_nack(&mut self, cx: &mut Cx<'_>, txn: TxnId) {
        if cx.st.decided.contains_key(&txn) {
            return;
        }
        let me = cx.st.me;
        if self.info.entry(txn).or_default().nacked.insert(me) {
            cx.st.trace_vote(txn, false, cx.now);
            self.bcast(cx, Payload::Nack { txn, site: me });
        }
        cx.abort(txn, AbortReason::ConcurrentConflict);
    }
}

impl Protocol for CausalProto {
    fn on_wire(&mut self, cx: &mut Cx<'_>, from: SiteId, msg: ReplicaMsg) {
        let wire = match msg {
            ReplicaMsg::C(wire) => {
                // In loss-recovery mode a *null* message doubles as a gap
                // report: its clock reveals what its origin had delivered,
                // so ship it anything we have that it lacks. Only direct
                // (unrelayed, unretransmitted) nulls trigger this —
                // reacting to every wire would let stale retransmitted
                // clocks solicit retransmissions of their own, a storm that
                // never drains.
                if self.recover_losses
                    && from == wire.id.origin
                    && matches!(*wire.payload, Payload::Null)
                {
                    // Only our *own* missing messages are retransmitted
                    // from here: with every site answering for every gap, a
                    // lossy cluster floods itself — one authoritative
                    // responder per message is enough (the origin always
                    // has its own archive).
                    let me = self.cb.me();
                    for w in self.cb.retransmissions_for(&wire.vc, 16) {
                        if w.id.origin == me {
                            cx.fx.send_to(from, ReplicaMsg::CRetrans(w));
                        }
                    }
                }
                wire
            }
            // A retransmitted wire: identical processing, but never treated
            // as a live gap report (its clock is historical).
            ReplicaMsg::CRetrans(wire) => wire,
            _ => return,
        };
        let out = self.cb.on_wire(from, wire);
        cx.route_causal(out);
    }

    fn bcast_write(&mut self, cx: &mut Cx<'_>, write: Payload) {
        self.bcast(cx, write);
    }

    /// The commit request is NOT broadcast here: the self-deliveries of our
    /// own write operations (queued ahead in the work queue) may detect a
    /// concurrent conflict and doom this transaction, and the origin's
    /// reader gate must also run first. Once a remote site delivers the
    /// commit request it may decide immediately (with N = 2 its ack set
    /// completes on the spot), so every origin-side veto must precede the
    /// request on the wire.
    fn request_commit(&mut self, cx: &mut Cx<'_>, id: TxnId) {
        cx.work.push_back(Work::FinishWrite(id));
    }

    fn handle(&mut self, cx: &mut Cx<'_>, item: Work) {
        match item {
            Work::CausalDeliver(d) => self.on_deliver(cx, d),
            Work::FinishWrite(id) => self.finish_write(cx, id),
            // Locks complete: if the commit was already decided, apply.
            Work::Event(LocalEvent::RemotePrepared(id))
                if self.info.get(&id).is_some_and(|i| i.commit_pending) =>
            {
                cx.commit(id)
            }
            Work::Event(LocalEvent::RemoteDoomed(..)) => {
                // Cannot happen: wound_remote is disabled for this protocol
                // (site-local wounds cannot be published without votes).
                debug_assert!(
                    false,
                    "causal protocol must not doom broadcast transactions"
                );
            }
            _ => {}
        }
    }

    /// Commits `txn` if (a) acks cover the view, (b) nobody NACKed, and
    /// (c) the deterministic concurrency evaluation finds no older
    /// concurrent conflicting peer. Aborts on NACK.
    fn decide(&mut self, cx: &mut Cx<'_>, txn: TxnId) {
        if cx.st.decided.contains_key(&txn) {
            return;
        }
        let Some(info) = self.info.get(&txn) else {
            return;
        };
        if !info.nacked.is_empty() {
            cx.abort(txn, AbortReason::ConcurrentConflict);
            return;
        }
        if info.cr_seq.is_none() {
            return;
        }
        let acked = |s: &SiteId| info.acked.contains(s);
        let full_view_acked = cx.view.all(acked);
        // Speculative fast path: every member whose acknowledgement is
        // still missing is suspected crashed, and the surviving ackers are
        // a strict majority of the view. Their acks close the concurrency
        // window for every *surviving* origin (causal order puts an
        // origin's concurrent writes before its ack), and anything the
        // suspect broadcast before falling silent arrived long ago — the
        // suspicion timeout dwarfs the link latency. So the deterministic
        // evaluation below sees every candidate, exactly as if the view
        // change evicting the suspect had already been installed.
        let fast = !full_view_acked && cx.view.fast_quorum(acked);
        if !full_view_acked && !fast {
            return;
        }
        let Some(entry) = cx.st.remote.get(&txn) else {
            return;
        };
        if entry.n_writes != Some(entry.ops.len()) {
            return; // write set incomplete (cannot happen with FIFO, but be safe)
        }
        // Deterministic evaluation: the ack set closes the concurrency
        // window, so every concurrent conflicting candidate operation is
        // already delivered here. An older peer — decided or not — with a
        // same-key operation concurrent with ours → we abort. Only peers
        // the writer index lists under our keys can qualify.
        let my_prio = entry.prio;
        let loses = info.write_ops.iter().any(|(key, my_vc)| {
            self.writers[key].iter().any(|peer| {
                *peer != txn
                    && self.info[peer].write_ops[key].concurrent_with(my_vc)
                    && cx
                        .st
                        .remote
                        .get(peer)
                        .is_some_and(|p| p.prio.older_than(&my_prio))
            })
        });
        if loses {
            cx.st.trace_decided(txn, false, cx.now);
            cx.abort(txn, AbortReason::ConcurrentConflict);
        } else {
            let prepared = entry.fully_prepared();
            // The implicit-acknowledgement wait ends here: the ack set is
            // complete and the verdict is fixed, whether or not the lock
            // queue lets us apply yet.
            if fast {
                cx.st.trace_fast_decide(txn, cx.now);
            }
            cx.st.trace_decided(txn, true, cx.now);
            if prepared {
                cx.commit(txn);
            } else {
                // Application waits for the lock queue (causal order
                // guarantees every site installs in the same order).
                self.info.get_mut(&txn).expect("present").commit_pending = true;
            }
        }
    }

    /// Emits a null message while this site owes the cluster evidence — an
    /// unpublished implicit acknowledgement, or liveness for transactions
    /// still undecided here (the paper's keep-alive mitigation for quiet
    /// sites).
    fn on_tick(&mut self, cx: &mut Cx<'_>) {
        if !self.wants_tick(cx.st) {
            return;
        }
        // Progress check for the backoff cadence: a remote clock component
        // moving or a pending hole closing means the last solicitation (or
        // regular traffic) worked — go back to every-tick.
        let me = self.cb.me();
        let remote: u64 = self
            .cb
            .clock()
            .iter()
            .filter(|&(s, _)| s != me)
            .map(|(_, k)| k)
            .sum();
        let progress = (remote, self.cb.pending_len());
        if progress != self.last_progress {
            self.backoff.reset();
            self.last_progress = progress;
        }
        if self.backoff.due() {
            self.bcast(cx, Payload::Null);
        }
    }

    /// True while this site still owes the cluster a message: either a
    /// transaction known here is undecided, or a delivered commit request
    /// has not yet been covered by any of our broadcasts (its implicit
    /// acknowledgement is unpublished).
    fn wants_tick(&self, st: &SiteState) -> bool {
        self.null_messages
            && (st.has_undecided()
                || self.has_unpublished_ack()
                // Loss recovery: holes in the causal stream block
                // deliveries we may not even know about; keep advertising
                // our clock so peers can fill the gaps.
                || (self.recover_losses && self.cb.pending_len() > 0))
    }

    fn gauges(&self, me: SiteId, sample: &mut Sample) {
        sample.set_site(me, "causal.live", self.live() as u64);
    }

    fn snapshot(&self) -> ProtoSnapshot {
        ProtoSnapshot::Causal(self.cb.clock().clone())
    }

    fn resume(&mut self, snap: &ProtoSnapshot, _view: &BTreeSet<SiteId>) {
        if let ProtoSnapshot::Causal(donor_clock) = snap {
            self.cb.resume_from(donor_clock);
            self.last_bcast_vc = self.cb.clock().clone();
            self.info.clear();
            self.ack_waiting.clear();
            let n = self.max_cr_seq.len();
            self.max_cr_seq = VectorClock::new(n);
            self.writers.clear();
            self.indexed = 0;
            self.prune_at = FIRST_PRUNE;
            self.last_delivered.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NodeConfig;
    use crate::payload::ProtocolKind;
    use crate::protocols::rig::Rig;
    use crate::protocols::Effects;
    use bcastdb_db::TxnSpec;
    use bcastdb_sim::SimTime;

    fn rig(n: usize) -> Rig {
        Rig::new(n, ProtocolKind::CausalBcast)
    }

    #[test]
    fn null_cadence_backs_off_and_resets_on_remote_progress() {
        use bcastdb_broadcast::msg::MsgId;

        let mut rig = Rig::with(
            3,
            NodeConfig {
                protocol: ProtocolKind::CausalBcast,
                relay: true,
                retransmit_backoff: true,
                ..NodeConfig::default()
            },
        );
        // An undecided local transaction keeps ticks wanted forever (its
        // peers never answer in this rig — a stalled cluster).
        rig.submit(0, 0, TxnSpec::new().write("x", 1));
        let (d, st) = (&mut rig.drivers[0], &mut rig.states[0]);
        assert!(d.wants_tick(st));

        let mut fired = 0;
        for _ in 0..64 {
            let mut fx = Effects::new();
            d.on_tick(st, &mut fx, SimTime::from_micros(50));
            if !fx.sends.is_empty() {
                fired += 1;
            }
        }
        assert!(
            (1..16).contains(&fired),
            "64 stalled ticks must coalesce into a handful of nulls \
             (own null self-deliveries are not progress), got {fired}"
        );

        // A remote delivery is progress: the next tick fires again.
        let mut vc = VectorClock::new(3);
        vc.set(SiteId(1), 1);
        let mut fx = Effects::new();
        d.on_msg(
            st,
            &mut fx,
            SimTime::from_micros(60),
            SiteId(1),
            ReplicaMsg::C(causal::Wire {
                id: MsgId {
                    origin: SiteId(1),
                    seq: 1,
                },
                vc,
                payload: std::sync::Arc::new(Payload::Null),
            }),
        );
        let mut fx = Effects::new();
        d.on_tick(st, &mut fx, SimTime::from_micros(70));
        assert!(!fx.sends.is_empty(), "post-progress tick emits again");
    }

    #[test]
    fn commit_through_implicit_acknowledgements_only() {
        let mut rig = rig(3);
        let id = rig.submit(0, 1, TxnSpec::new().write("x", 9));
        rig.settle();
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(st.decided.get(&id), Some(&true), "site {i}");
            assert_eq!(st.store.value(&"x".into()), 9, "site {i}");
        }
        // No votes exist in this protocol: the remote entries never carry
        // any.
        for st in &rig.states {
            assert!(st.remote[&id].votes_yes.is_empty());
            assert!(st.remote[&id].my_vote.is_none());
        }
    }

    #[test]
    fn concurrent_conflicting_writers_lose_younger() {
        let mut rig = rig(3);
        // Both broadcast before seeing each other: concurrent by
        // construction (no wires delivered in between).
        let older = rig.submit(0, 10, TxnSpec::new().write("x", 1));
        let younger = rig.submit(1, 20, TxnSpec::new().write("x", 2));
        rig.settle();
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(st.decided.get(&older), Some(&true), "older commits at {i}");
            assert_eq!(
                st.decided.get(&younger),
                Some(&false),
                "younger aborts at {i}"
            );
            assert_eq!(st.store.value(&"x".into()), 1, "older's write wins at {i}");
        }
    }

    #[test]
    fn causally_ordered_writers_both_commit_in_order() {
        let mut rig = rig(3);
        let first = rig.submit(0, 10, TxnSpec::new().write("x", 1));
        rig.settle(); // first fully delivered before the second starts
        let second = rig.submit(1, 20, TxnSpec::new().write("x", 2));
        rig.settle();
        for st in &rig.states {
            assert_eq!(st.decided.get(&first), Some(&true));
            assert_eq!(st.decided.get(&second), Some(&true));
            assert_eq!(
                st.store.install_order(&"x".into()),
                &[first, second],
                "causal order = install order"
            );
        }
    }

    /// Runs `f` on the protocol at `site` and queues what it sends.
    fn at(rig: &mut Rig, site: usize, f: impl FnOnce(&mut CausalProto, &mut Cx<'_>)) {
        let mut fx = Effects::new();
        rig.drivers[site].with_proto(&mut rig.states[site], &mut fx, SimTime::from_micros(3), f);
        rig.absorb(SiteId(site), fx);
    }

    /// Runs a prune sweep at `site` now, whatever the cadence says.
    fn sweep(rig: &mut Rig, site: usize) {
        at(rig, site, |p, cx| p.prune(&cx.st.decided));
    }

    #[test]
    fn decided_older_peer_still_beats_a_later_delivered_concurrent_writer() {
        let mut rig = rig(3);
        // Concurrent by construction; site 1 sees nothing of `older` until
        // the end.
        let older = rig.submit(0, 10, TxnSpec::new().write("x", 1));
        let younger = rig.submit(1, 20, TxnSpec::new().write("x", 2));
        for site in [0, 2] {
            sweep(&mut rig, site); // starts recording delivered clocks
        }
        // Site 2 delivers `older` and rejects it; its NACK aborts `older`
        // at site 0 too.
        rig.deliver_link(0, 2);
        at(&mut rig, 2, |p, cx| p.abort_with_nack(cx, older));
        rig.deliver_link(2, 0);
        // The decided `older` must survive a sweep: site 1 has not
        // delivered it, so its clock is not below the stability floor.
        for site in [0, 2] {
            sweep(&mut rig, site);
        }
        // Only now does `younger`'s write reach sites 0 and 2, where
        // `older` is decided: early detection passes it over.
        rig.deliver_link(1, 0);
        rig.deliver_link(1, 2);
        for site in [0, 2] {
            assert_eq!(rig.states[site].decided.get(&older), Some(&false));
            assert!(!rig.states[site].decided.contains_key(&younger));
        }
        // Site 0's null completes site 2's ack set for `younger` before any
        // NACK of it exists: the decision rule alone must reject it.
        rig.tick(0);
        rig.deliver_link(0, 2);
        assert_eq!(rig.states[2].decided.get(&younger), Some(&false));
        rig.settle();
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(st.decided.get(&older), Some(&false), "older at {i}");
            assert_eq!(st.decided.get(&younger), Some(&false), "younger at {i}");
            assert_eq!(st.store.value(&"x".into()), 0, "nothing installed at {i}");
        }
    }

    #[test]
    fn stable_decided_peer_stays_indexed_while_a_concurrent_writer_is_undecided() {
        use bcastdb_broadcast::msg::MsgId;

        let mut rig = rig(3);
        let older = rig.submit(0, 10, TxnSpec::new().write("x", 1));
        let younger = rig.submit(1, 20, TxnSpec::new().write("x", 2));
        sweep(&mut rig, 2); // starts recording delivered clocks
        rig.deliver_link(0, 2);
        at(&mut rig, 2, |p, cx| p.abort_with_nack(cx, older));
        rig.deliver_link(1, 2);
        // Site 1 vouches for `older` ([2,3,1] covers its write [1,0,0])
        // without rejecting `younger` — as when `younger` lost at its
        // origin by the decision rule, which sends no NACK.
        let mut vc = VectorClock::new(3);
        for (s, k) in [(0, 2), (1, 3), (2, 1)] {
            vc.set(SiteId(s), k);
        }
        let null = ReplicaMsg::C(causal::Wire {
            id: MsgId {
                origin: SiteId(1),
                seq: 3,
            },
            vc,
            payload: Arc::new(Payload::Null),
        });
        rig.deliver((SiteId(1), SiteId(2), null));
        // `older` is decided and below the floor at site 2, but the
        // undecided `younger` is concurrent with it: the sweep keeps it.
        sweep(&mut rig, 2);
        assert!(!rig.states[2].decided.contains_key(&younger));
        // Site 0 rejects `older` too, then acknowledges `younger`.
        rig.deliver_link(2, 0);
        rig.deliver_link(1, 0);
        rig.tick(0);
        rig.deliver_link(0, 2);
        assert_eq!(rig.states[2].decided.get(&younger), Some(&false));
    }

    /// The largest `info` plus writer-index size over all sites.
    fn max_live(rig: &mut Rig) -> usize {
        let mut max = 0;
        for site in 0..rig.states.len() {
            at(rig, site, |p, _| max = max.max(p.live()));
        }
        max
    }

    #[test]
    fn live_state_stays_flat_over_settled_rounds() {
        let mut rig = rig(3);
        let mut peak = [0; 3];
        for round in 0..300u64 {
            // Two concurrent writers of `x` (one aborts) beside a writer of
            // its own key.
            let ts = 3 * round;
            rig.submit(0, ts + 1, TxnSpec::new().write("x", 1));
            rig.submit(1, ts + 2, TxnSpec::new().write("x", 2).write("y", 2));
            let key = format!("k{}", round % 4);
            rig.submit(2, ts + 3, TxnSpec::new().write(key.as_str(), 3));
            rig.settle();
            assert!(!rig.states.iter().any(|st| st.has_undecided()));
            let live = max_live(&mut rig);
            let third = (round / 100) as usize;
            peak[third] = peak[third].max(live);
        }
        // 900 transactions went through each site; what is kept is set by
        // the key count and the prune cadence, not by history.
        assert!(peak[1] <= 40, "live state {peak:?}");
        assert!(peak[2] <= peak[1], "live state grew: {peak:?}");
    }

    #[test]
    fn nack_aborts_at_every_site() {
        let mut rig = rig(3);
        let id = rig.submit(0, 1, TxnSpec::new().write("x", 5));
        // Site 2 rejects it out-of-band before settling.
        at(&mut rig, 2, |p, cx| p.abort_with_nack(cx, id));
        rig.settle();
        for (i, st) in rig.states.iter().enumerate() {
            assert_eq!(
                st.decided.get(&id),
                Some(&false),
                "site {i} aborted on NACK"
            );
        }
    }
}
