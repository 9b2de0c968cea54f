//! A transport-free test rig for any protocol: n sites' drivers and states,
//! with wires shuttled through an in-memory FIFO queue.

use crate::engine::NodeConfig;
use crate::payload::{ProtocolKind, ReplicaMsg};
use crate::protocols::driver::TxnDriver;
use crate::protocols::Effects;
use crate::state::SiteState;
use bcastdb_broadcast::msg::dest_iter;
use bcastdb_db::{TxnId, TxnSpec};
use bcastdb_sim::{SimTime, SiteId};
use std::collections::VecDeque;

/// A queued message: `(from, to, message)`.
pub(crate) type Wire = (SiteId, SiteId, ReplicaMsg);

pub(crate) struct Rig {
    pub(crate) drivers: Vec<TxnDriver>,
    pub(crate) states: Vec<SiteState>,
    pub(crate) wires: VecDeque<Wire>,
}

impl Rig {
    /// `n` sites running `protocol` with the default configuration.
    pub(crate) fn new(n: usize, protocol: ProtocolKind) -> Rig {
        Rig::with(
            n,
            NodeConfig {
                protocol,
                ..NodeConfig::default()
            },
        )
    }

    /// `n` sites configured by `cfg`.
    pub(crate) fn with(n: usize, cfg: NodeConfig) -> Rig {
        let mut states = Vec::new();
        let mut drivers = Vec::new();
        for i in 0..n {
            let mut st = SiteState::new(SiteId(i), n, cfg.policy);
            drivers.push(TxnDriver::new(SiteId(i), n, &cfg, &mut st));
            states.push(st);
        }
        Rig {
            drivers,
            states,
            wires: VecDeque::new(),
        }
    }

    /// Queues the sends of one step taken at `me`.
    pub(crate) fn absorb(&mut self, me: SiteId, fx: Effects) {
        let n = self.states.len();
        for (dest, msg) in fx.sends {
            for to in dest_iter(dest, me, n) {
                if to != me {
                    self.wires.push_back((me, to, msg.clone()));
                }
            }
        }
    }

    /// Submits `spec` at `site` with priority timestamp `ts`.
    pub(crate) fn submit(&mut self, site: usize, ts: u64, spec: TxnSpec) -> TxnId {
        let mut fx = Effects::new();
        let (id, events) = self.states[site].begin_txn(SimTime::from_micros(ts), spec);
        self.drivers[site].handle_events(&mut self.states[site], &mut fx, SimTime::ZERO, events);
        self.absorb(SiteId(site), fx);
        id
    }

    /// Delivers one wire.
    pub(crate) fn deliver(&mut self, (from, to, msg): Wire) {
        let mut fx = Effects::new();
        self.drivers[to.0].on_msg(
            &mut self.states[to.0],
            &mut fx,
            SimTime::from_micros(2),
            from,
            msg,
        );
        self.absorb(to, fx);
    }

    /// Delivers, in queue order, the queued wires from `from` to `to`,
    /// leaving every other wire queued.
    pub(crate) fn deliver_link(&mut self, from: usize, to: usize) {
        let (now, later): (VecDeque<Wire>, VecDeque<Wire>) = self
            .wires
            .drain(..)
            .partition(|(f, t, _)| (f.0, t.0) == (from, to));
        self.wires = later;
        for wire in now {
            self.deliver(wire);
        }
    }

    /// Ticks one site.
    pub(crate) fn tick(&mut self, site: usize) {
        let mut fx = Effects::new();
        self.drivers[site].on_tick(&mut self.states[site], &mut fx, SimTime::from_micros(50));
        self.absorb(SiteId(site), fx);
    }

    /// Ticks every site once.
    pub(crate) fn tick_all(&mut self) {
        for i in 0..self.states.len() {
            self.tick(i);
        }
    }

    /// Alternates delivering every queued wire with ticks until nothing is
    /// undecided: the causal protocol's implicit acks need at least one
    /// message from every site.
    pub(crate) fn settle(&mut self) {
        for _ in 0..64 {
            while let Some(wire) = self.wires.pop_front() {
                self.deliver(wire);
            }
            if !self.states.iter().any(|st| st.has_undecided()) {
                break;
            }
            self.tick_all();
        }
    }
}
