//! The transaction driver: the skeleton every protocol engine shares.
//!
//! The paper's protocols differ only in the broadcast primitive and the
//! commit decision (DESIGN.md §2). Everything else a site does for a
//! transaction is written once here:
//!
//! - the work queue: every entry point takes the reusable queue, lets a
//!   hook or a state transition fill it, and [`TxnDriver::pump`] drains it
//!   to a fixed point in FIFO order;
//! - write pacing: a local transaction's write set goes out in one step, or
//!   one operation per think-time step, and its commit request follows;
//! - the view and the failure detector's suspicions, with the sweep over
//!   undecided transactions that a view change or a fresh suspicion runs;
//! - the local-reader gate the reliable and causal protocols run around a
//!   commit request.
//!
//! A protocol supplies the [`Protocol`] hooks. Work order is part of their
//! contract: the simulator is deterministic, so the order in which the
//! queue hands out events and deliveries fixes every outcome.

use crate::engine::NodeConfig;
use crate::metrics::AbortReason;
use crate::payload::{P2pMsg, Payload, ProtocolKind, ReplicaMsg};
use crate::protocols::atomic::{AbSnapshot, AtomicProto};
use crate::protocols::causal::CausalProto;
use crate::protocols::p2p::P2pProto;
use crate::protocols::reliable::ReliableProto;
use crate::protocols::Effects;
use crate::state::{EventBuf, LocalEvent, LocalPhase, SiteState};
use bcastdb_broadcast::atomic::TotalDelivery;
use bcastdb_broadcast::{causal, VectorClock};
use bcastdb_db::lock::LockMode;
use bcastdb_db::sg::ObservedVersion;
use bcastdb_db::{Key, TxnId};
use bcastdb_sim::{Sample, SimTime, SiteId};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// One unit of pending protocol work.
#[derive(Debug)]
pub(crate) enum Work {
    /// An event of a shared state transition.
    Event(LocalEvent),
    /// A reliable-broadcast (FIFO) delivery.
    Deliver(Arc<Payload>),
    /// A causal delivery, with the vector clock it exposes.
    CausalDeliver(causal::Delivery<Arc<Payload>>),
    /// A total-order delivery.
    TotalDeliver(TotalDelivery<Arc<Payload>>),
    /// Causal protocol: a local write set is out and self-delivered; gate
    /// local readers, then broadcast the commit request or give up.
    FinishWrite(TxnId),
    /// A point-to-point message, from a peer or addressed to this site.
    P2p(SiteId, P2pMsg),
}

/// Protocol state a recovering replica takes over from its donor.
#[derive(Debug, Clone)]
pub(crate) enum ProtoSnapshot {
    /// The baseline keeps nothing across a state transfer.
    Empty,
    /// Per-origin reliable-broadcast delivery watermarks.
    Reliable(Vec<u64>),
    /// The causal engine's delivered-messages clock.
    Causal(VectorClock),
    /// The atomic protocol's engines and version directory.
    Atomic(AbSnapshot),
}

/// The installed view and the failure detector's suspicions, as the commit
/// decisions see them.
#[derive(Debug)]
pub(crate) struct View {
    members: BTreeSet<SiteId>,
    /// View members the local failure detector currently suspects
    /// (refreshed on every membership tick).
    suspected: BTreeSet<SiteId>,
    /// Speculative fast commit (Emerson & Ezhilchelvan): decide from the
    /// surviving quorum once every missing member is suspected, instead of
    /// waiting for the view change that evicts it.
    fast_commit: bool,
}

impl View {
    /// The installed view's members.
    pub(crate) fn members(&self) -> &BTreeSet<SiteId> {
        &self.members
    }

    /// True iff every member has `answered`.
    pub(crate) fn all(&self, answered: impl Fn(&SiteId) -> bool) -> bool {
        self.members.iter().all(answered)
    }

    /// The fast-commit quorum: fast commit is on, every member that has not
    /// `answered` is suspected, and those that have are a strict majority
    /// of the view, so no other view can decide differently.
    pub(crate) fn fast_quorum(&self, answered: impl Fn(&SiteId) -> bool) -> bool {
        self.fast_commit
            && self
                .members
                .iter()
                .all(|s| answered(s) || self.suspected.contains(s))
            && 2 * self.members.iter().filter(|s| answered(s)).count() > self.members.len()
    }
}

/// What a hook may touch while the driver runs it.
pub(crate) struct Cx<'a> {
    pub(crate) st: &'a mut SiteState,
    pub(crate) fx: &'a mut Effects,
    pub(crate) now: SimTime,
    pub(crate) view: &'a View,
    pub(crate) work: &'a mut VecDeque<Work>,
}

impl<'a> Cx<'a> {
    fn new(
        st: &'a mut SiteState,
        fx: &'a mut Effects,
        now: SimTime,
        view: &'a View,
        work: &'a mut VecDeque<Work>,
    ) -> Self {
        Cx {
            st,
            fx,
            now,
            view,
            work,
        }
    }

    /// Queues the events of a state transition.
    pub(crate) fn push_events(&mut self, events: EventBuf) {
        self.work.extend(events.into_iter().map(Work::Event));
    }

    /// Routes a causal-broadcast step: wires to the effects, deliveries
    /// into the work queue.
    pub(crate) fn route_causal(&mut self, out: causal::Output<Arc<Payload>>) {
        for ob in out.outbound {
            self.fx.send(ob.dest, ReplicaMsg::C(ob.wire));
        }
        for d in out.deliveries {
            self.work.push_back(Work::CausalDeliver(d));
        }
    }

    /// Commits `txn` at this site.
    pub(crate) fn commit(&mut self, txn: TxnId) {
        let mut events = EventBuf::new();
        self.st.apply_commit(txn, self.now, &mut events);
        self.push_events(events);
    }

    /// Aborts `txn` at this site (a no-op once it is decided).
    pub(crate) fn abort(&mut self, txn: TxnId, reason: AbortReason) {
        let mut events = EventBuf::new();
        self.st
            .apply_remote_abort(txn, reason, self.now, &mut events);
        self.push_events(events);
    }

    /// Aborts the local transaction `txn`, in any phase.
    pub(crate) fn abort_local(&mut self, txn: TxnId, reason: AbortReason) {
        let mut events = EventBuf::new();
        self.st.abort_local(txn, reason, self.now, &mut events);
        self.push_events(events);
    }

    /// Builds the commit request of the local transaction `id` and traces
    /// it leaving: the caller broadcasts it next.
    pub(crate) fn commit_request(
        &mut self,
        id: TxnId,
        read_versions: Vec<(Key, ObservedVersion)>,
        write_versions: Vec<(Key, ObservedVersion)>,
    ) -> Option<Payload> {
        let local = self.st.local.get(&id)?;
        let req = Payload::CommitReq {
            txn: id,
            prio: local.prio,
            n_writes: local.spec.writes().len(),
            read_versions,
            write_versions,
        };
        self.st.trace_commit_req_out(id, self.now);
        Some(req)
    }

    /// The local-reader gate: settles conflicts between the writer `txn`,
    /// whose commit request is being delivered (or, at its origin, is about
    /// to go out), and the local readers holding shared locks on its write
    /// keys, before this site's vote or implicit acknowledgement can wait
    /// on them — such a wait can close a cycle across sites that no local
    /// waits-for graph sees. An update reader still in its read phase is
    /// wounded (purely local, always safe). Returns whether the writer must
    /// be vetoed: always for a read-only reader, which these protocols
    /// never abort, and for an update reader past its read phase iff
    /// `write_phase_vetoes`.
    pub(crate) fn gate_local_readers(&mut self, txn: TxnId, write_phase_vetoes: bool) -> bool {
        let write_keys: Vec<Key> = self
            .st
            .remote
            .get(&txn)
            .map(|e| e.ops.iter().map(|o| o.key.clone()).collect())
            .unwrap_or_default();
        let mut veto = false;
        let mut wound: Vec<TxnId> = Vec::new();
        for key in &write_keys {
            for (holder, mode) in self.st.locks.holders(key) {
                if holder == txn || mode != LockMode::Shared {
                    continue;
                }
                let Some(local) = self.st.local.get(&holder) else {
                    continue; // not a local transaction (or already gone)
                };
                if local.spec.is_read_only() {
                    veto = true;
                } else if matches!(local.phase, LocalPhase::AcquiringReads { .. }) {
                    wound.push(holder);
                } else if write_phase_vetoes {
                    veto = true;
                }
            }
        }
        for reader in wound {
            self.abort_local(reader, AbortReason::Wounded);
        }
        veto
    }
}

/// The per-protocol part of transaction processing: the broadcast
/// primitive and the commit decision.
pub(crate) trait Protocol: fmt::Debug + Any {
    /// Accepts one inbound message, queuing what it makes deliverable.
    /// Messages of other protocols are dropped.
    fn on_wire(&mut self, cx: &mut Cx<'_>, from: SiteId, msg: ReplicaMsg);

    /// Broadcasts one write operation (a [`Payload::Write`]) of a local
    /// transaction.
    fn bcast_write(&mut self, cx: &mut Cx<'_>, write: Payload);

    /// The write set of the local transaction `id` is out: emits its commit
    /// request, or queues the work that will.
    fn request_commit(&mut self, cx: &mut Cx<'_>, id: TxnId);

    /// Handles one queued item: a delivery, or an event other than the
    /// read-phase ones the driver handles itself.
    fn handle(&mut self, cx: &mut Cx<'_>, item: Work);

    /// Decides `txn` if the evidence at hand allows. The sweeps call this
    /// for every undecided transaction the view or suspicion change may
    /// have unblocked.
    fn decide(&mut self, _cx: &mut Cx<'_>, _txn: TxnId) {}

    /// Periodic tick.
    fn on_tick(&mut self, _cx: &mut Cx<'_>) {}

    /// Whether this site needs ticks (an idle cluster must quiesce).
    fn wants_tick(&self, _st: &SiteState) -> bool {
        false
    }

    /// A new view is installed: reconfigures the broadcast engines before
    /// the sweep runs.
    fn on_view(&mut self, _cx: &mut Cx<'_>, _view_id: u64) {}

    /// The view sweep has aborted the departed origins' transactions.
    fn after_view(&mut self, _cx: &mut Cx<'_>) {}

    /// Whether the view sweep settles each aborted transaction's work
    /// before aborting the next, instead of queueing it all.
    fn settles_each_view_abort(&self) -> bool {
        false
    }

    /// Whether think time paces the write phase. The baseline paces it by
    /// acknowledgements instead.
    fn paces_writes(&self) -> bool {
        true
    }

    /// State a recovering replica takes over.
    fn snapshot(&self) -> ProtoSnapshot {
        ProtoSnapshot::Empty
    }

    /// Resumes a recovered site from a donor's snapshot and view. Assumes
    /// a quiet moment: in-flight bookkeeping is dropped.
    fn resume(&mut self, snap: &ProtoSnapshot, view: &BTreeSet<SiteId>);

    /// Contributes this protocol's live-state gauges to a metrics sample.
    /// Read-only: sampling must never change behaviour.
    fn gauges(&self, _me: SiteId, _sample: &mut Sample) {}
}

/// Write-phase pacing: the next operation index of every local transaction
/// whose write set goes out one operation per think-time step.
#[derive(Debug, Default)]
struct Pacer {
    writing: BTreeMap<TxnId, usize>,
}

impl Pacer {
    /// Origin side: reads done, so the writes go out, then the commit
    /// request. With think time, operations go out one per step.
    fn start_write_phase(&mut self, proto: &mut dyn Protocol, cx: &mut Cx<'_>, id: TxnId) {
        if !cx.st.local.contains_key(&id) {
            return; // wounded in the meantime
        }
        if cx.st.think.is_zero() || !proto.paces_writes() {
            self.emit_write_step(proto, cx, id, usize::MAX);
        } else {
            self.writing.insert(id, 0);
            self.paced_step(proto, cx, id);
        }
    }

    /// Emits one paced operation and schedules the next step if any remain.
    fn paced_step(&mut self, proto: &mut dyn Protocol, cx: &mut Cx<'_>, id: TxnId) {
        self.emit_write_step(proto, cx, id, 1);
        if self.writing.contains_key(&id) {
            cx.fx.write_pauses.push(id);
        }
    }

    /// Broadcasts up to `budget` write operations of `id` (`usize::MAX` =
    /// all of them), then requests the commit once the write set is out.
    fn emit_write_step(
        &mut self,
        proto: &mut dyn Protocol,
        cx: &mut Cx<'_>,
        id: TxnId,
        budget: usize,
    ) {
        let Some(local) = cx.st.local.get(&id) else {
            self.writing.remove(&id);
            return;
        };
        let prio = local.prio;
        let n_writes = local.spec.writes().len();
        let start = self.writing.get(&id).copied().unwrap_or(0);
        let end = start.saturating_add(budget).min(n_writes);
        for index in start..end {
            let local = cx
                .st
                .local
                .get(&id)
                .expect("a write leaves its origin running");
            let op = local.spec.writes()[index].clone();
            let write = Payload::Write {
                txn: id,
                prio,
                op,
                index,
                of: n_writes,
            };
            proto.bcast_write(cx, write);
        }
        if end >= n_writes {
            self.writing.remove(&id);
            proto.request_commit(cx, id);
        } else {
            self.writing.insert(id, end);
        }
    }
}

/// Drives local and remote transactions through one protocol at one site.
#[derive(Debug)]
pub(crate) struct TxnDriver {
    proto: Box<dyn Protocol>,
    view: View,
    pacer: Pacer,
    /// Reusable work queue: taken at each entry point and handed back
    /// (empty) by `pump`, so steady-state message handling never allocates
    /// a fresh queue.
    idle_work: VecDeque<Work>,
}

impl TxnDriver {
    /// Creates the driver for site `me` of `n` running `cfg.protocol`, and
    /// sets the protocol's conflict-handling policy on `st`.
    pub(crate) fn new(me: SiteId, n: usize, cfg: &NodeConfig, st: &mut SiteState) -> Self {
        let proto: Box<dyn Protocol> = match cfg.protocol {
            ProtocolKind::PointToPoint => {
                st.wound_remote = false;
                st.wound_local_readers = false;
                Box::new(P2pProto::new(cfg.p2p_timeout))
            }
            ProtocolKind::ReliableBcast => {
                st.resolve_read_deadlocks = true;
                Box::new(ReliableProto::new(me, n, cfg.relay, cfg.retransmit_backoff))
            }
            ProtocolKind::CausalBcast => {
                st.wound_remote = false;
                st.rank_by_delivery = true;
                Box::new(CausalProto::new(
                    me,
                    n,
                    cfg.relay,
                    cfg.null_messages,
                    cfg.retransmit_backoff,
                ))
            }
            ProtocolKind::AtomicBcast => {
                st.wound_remote = false;
                Box::new(AtomicProto::new(me, n, cfg.abcast))
            }
        };
        TxnDriver {
            proto,
            view: View {
                members: (0..n).map(SiteId).collect(),
                suspected: BTreeSet::new(),
                fast_commit: cfg.fast_commit,
            },
            pacer: Pacer::default(),
            idle_work: VecDeque::new(),
        }
    }

    /// Runs `f` over the reusable work queue, then drains the queue.
    fn run(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        f: impl FnOnce(&mut dyn Protocol, &mut Pacer, &mut Cx<'_>),
    ) {
        let mut work = std::mem::take(&mut self.idle_work);
        let mut cx = Cx::new(st, fx, now, &self.view, &mut work);
        f(&mut *self.proto, &mut self.pacer, &mut cx);
        self.pump(st, fx, now, work);
    }

    /// Drains the work queue to a fixed point.
    fn pump(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        mut work: VecDeque<Work>,
    ) {
        while let Some(item) = work.pop_front() {
            let mut cx = Cx::new(st, fx, now, &self.view, &mut work);
            match item {
                Work::Event(LocalEvent::ReadsComplete(id)) => {
                    self.pacer.start_write_phase(&mut *self.proto, &mut cx, id)
                }
                Work::Event(LocalEvent::ReadPaused(id)) => cx.fx.pauses.push(id),
                item => self.proto.handle(&mut cx, item),
            }
        }
        // The queue is empty again: hand it back for the next entry point.
        self.idle_work = work;
    }

    /// Handles events produced outside the protocol (submission read
    /// phases, lock grants after releases).
    pub(crate) fn handle_events(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        events: EventBuf,
    ) {
        self.run(st, fx, now, |_, _, cx| cx.push_events(events));
    }

    /// Handles one inbound protocol message.
    pub(crate) fn on_msg(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        from: SiteId,
        msg: ReplicaMsg,
    ) {
        self.run(st, fx, now, |proto, _, cx| proto.on_wire(cx, from, msg));
    }

    /// Resumes a paced write phase (next step after think time).
    pub(crate) fn continue_write(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        id: TxnId,
    ) {
        if st.decided.contains_key(&id) || !st.local.contains_key(&id) {
            self.pacer.writing.remove(&id);
            return;
        }
        self.run(st, fx, now, |proto, pacer, cx| {
            pacer.paced_step(proto, cx, id)
        });
    }

    /// Periodic tick.
    pub(crate) fn on_tick(&mut self, st: &mut SiteState, fx: &mut Effects, now: SimTime) {
        self.run(st, fx, now, |proto, _, cx| proto.on_tick(cx));
    }

    /// Whether the protocol needs ticks at this site.
    pub(crate) fn wants_tick(&self, st: &SiteState) -> bool {
        self.proto.wants_tick(st)
    }

    /// Installs a new view: departed sites are no longer waited for, and
    /// the undecided transactions of departed origins abort.
    pub(crate) fn set_view(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        view_id: u64,
        members: BTreeSet<SiteId>,
    ) {
        self.view.members = members;
        self.sweep(st, fx, now, Some(view_id));
    }

    /// Refreshes the failure detector's suspicion set; a fresh suspicion
    /// may complete a surviving quorum that the fast-commit rule can
    /// decide from now, before the view change evicting the suspect lands.
    pub(crate) fn on_suspect(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        suspected: &BTreeSet<SiteId>,
    ) {
        if self.view.suspected == *suspected {
            return;
        }
        self.view.suspected = suspected.clone();
        if !self.view.suspected.is_empty() {
            self.sweep(st, fx, now, None);
        }
    }

    /// Re-evaluates every undecided transaction after a view change
    /// (`view_id` set: the departed origins' transactions abort) or a
    /// suspicion change.
    fn sweep(&mut self, st: &mut SiteState, fx: &mut Effects, now: SimTime, view_id: Option<u64>) {
        let undecided: Vec<TxnId> = st
            .remote
            .keys()
            .filter(|t| !st.decided.contains_key(t))
            .copied()
            .collect();
        let settle_each = self.proto.settles_each_view_abort();
        let mut work = std::mem::take(&mut self.idle_work);
        if let Some(id) = view_id {
            let mut cx = Cx::new(st, fx, now, &self.view, &mut work);
            self.proto.on_view(&mut cx, id);
        }
        for txn in undecided {
            let mut cx = Cx::new(st, fx, now, &self.view, &mut work);
            if view_id.is_none() || self.view.members.contains(&txn.origin) {
                self.proto.decide(&mut cx, txn);
            } else {
                cx.abort(txn, AbortReason::ViewChange);
                if settle_each {
                    self.pump(st, fx, now, work);
                    work = std::mem::take(&mut self.idle_work);
                }
            }
        }
        if view_id.is_some() {
            let mut cx = Cx::new(st, fx, now, &self.view, &mut work);
            self.proto.after_view(&mut cx);
        }
        self.pump(st, fx, now, work);
    }

    /// The protocol state a recovering replica takes over.
    pub(crate) fn snapshot(&self) -> ProtoSnapshot {
        self.proto.snapshot()
    }

    /// Resumes a recovered site from a donor's snapshot and view.
    pub(crate) fn resume(&mut self, snap: &ProtoSnapshot, view: BTreeSet<SiteId>) {
        self.proto.resume(snap, &view);
        self.view.members = view;
        self.view.suspected.clear();
    }

    /// The protocol's live-state gauges.
    pub(crate) fn gauges(&self, me: SiteId, sample: &mut Sample) {
        self.proto.gauges(me, sample)
    }

    /// Runs `f` on the concrete protocol inside a context, then drains the
    /// work queue (tests that reach into one protocol's internals).
    #[cfg(test)]
    pub(crate) fn with_proto<P: Protocol>(
        &mut self,
        st: &mut SiteState,
        fx: &mut Effects,
        now: SimTime,
        f: impl FnOnce(&mut P, &mut Cx<'_>),
    ) {
        self.run(st, fx, now, |proto, _, cx| {
            let proto = (proto as &mut dyn Any)
                .downcast_mut::<P>()
                .expect("driver runs this protocol");
            f(proto, cx)
        });
    }
}
