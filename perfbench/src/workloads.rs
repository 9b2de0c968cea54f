//! The benchmark's workloads: cluster shape, transaction mix, open-loop
//! arrival schedule and fault schedule, each generated from the seed.

use bcastdb_core::{Cluster, ClusterBuilder, ProtocolKind};
use bcastdb_db::TxnSpec;
use bcastdb_sim::{
    DetRng, FaultClause, FaultKind, FaultPlan, NetworkConfig, SimDuration, SimTime, SiteId,
};
use bcastdb_workload::WorkloadConfig;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// P-CB, 5 sites, hot keys: the causal protocol engine does the work.
    CausalContended,
    /// Atomic protocol, 24 sites on the ring backend: fan-out through the
    /// scheduler, the network and the ring.
    AtomicWide,
    /// P-RB with membership and relay under packet loss and duplication,
    /// one crash and one recovery by state transfer.
    ReliableFaults,
}

/// A fail-stop fault applied between two simulation steps.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// The site crashes.
    Crash(SiteId),
    /// The site recovers by state transfer from the donor.
    Recover {
        /// The recovering site.
        site: SiteId,
        /// The site whose state it adopts.
        donor: SiteId,
    },
}

/// One transaction of the generated load.
pub struct Arrival {
    /// When the transaction is due; it is submitted for exactly this time.
    pub at: SimTime,
    /// The origin site.
    pub site: SiteId,
    /// The transaction.
    pub spec: TxnSpec,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::CausalContended,
        Workload::AtomicWide,
        Workload::ReliableFaults,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CausalContended => "causal_contended",
            Workload::AtomicWide => "atomic_wide",
            Workload::ReliableFaults => "reliable_faults",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn protocol(self) -> ProtocolKind {
        match self {
            Workload::CausalContended => ProtocolKind::CausalBcast,
            Workload::AtomicWide => ProtocolKind::AtomicBcast,
            Workload::ReliableFaults => ProtocolKind::ReliableBcast,
        }
    }

    /// Number of replicas.
    pub fn sites(self) -> usize {
        match self {
            Workload::AtomicWide => 24,
            Workload::CausalContended | Workload::ReliableFaults => 5,
        }
    }

    /// The transaction mix.
    pub fn mix(self) -> WorkloadConfig {
        match self {
            Workload::CausalContended => WorkloadConfig {
                n_keys: 200,
                theta: 0.8,
                reads_per_txn: 2,
                writes_per_txn: 2,
                reads_per_ro_txn: 4,
                readonly_fraction: 0.2,
            },
            Workload::AtomicWide => WorkloadConfig {
                n_keys: 2000,
                theta: 0.3,
                reads_per_txn: 2,
                writes_per_txn: 2,
                reads_per_ro_txn: 4,
                readonly_fraction: 0.1,
            },
            Workload::ReliableFaults => WorkloadConfig {
                n_keys: 300,
                theta: 0.5,
                reads_per_txn: 1,
                writes_per_txn: 2,
                reads_per_ro_txn: 6,
                readonly_fraction: 0.5,
            },
        }
    }

    /// Nominal offered load, in transactions per second at each site.
    pub fn nominal_rate(self) -> f64 {
        match self {
            Workload::CausalContended => 200.0,
            Workload::AtomicWide => 50.0,
            Workload::ReliableFaults => 100.0,
        }
    }

    /// The offered loads of the capacity ladder, per site; one of them is
    /// the nominal rate.
    pub fn ladder(self) -> [f64; 3] {
        let r = self.nominal_rate();
        [r * 0.5, r, r * 1.5]
    }

    /// The limits a ladder rate must meet: p99 update commit latency in
    /// milliseconds of virtual time, and the failed share. Each is about
    /// twice the nominal-rate figure at seed 1.
    pub fn limits(self) -> (f64, f64) {
        match self {
            Workload::CausalContended => (25.0, 0.4),
            Workload::AtomicWide => (90.0, 0.3),
            Workload::ReliableFaults => (10.0, 0.15),
        }
    }

    /// How long transactions arrive for. Each workload is sized so that one
    /// execution at the nominal rate takes about 1.5 s of wall time on a
    /// 2-vCPU Xeon, which puts 20 or more executions in a 30 s run.
    pub fn window(self) -> SimDuration {
        match self {
            Workload::CausalContended => SimDuration::from_millis(2_400),
            Workload::AtomicWide => SimDuration::from_millis(3_600),
            Workload::ReliableFaults => SimDuration::from_millis(24_000),
        }
    }

    /// Virtual time after the arrival window for in-flight work to finish;
    /// anything still undecided then counts as unterminated.
    pub fn drain(self) -> SimDuration {
        match self {
            Workload::ReliableFaults => SimDuration::from_millis(1_500),
            Workload::CausalContended | Workload::AtomicWide => SimDuration::from_millis(500),
        }
    }

    /// The end of the run.
    pub fn deadline(self) -> SimTime {
        SimTime::ZERO + self.window() + self.drain()
    }

    /// The fail-stop schedule: site 4 of `reliable_faults` crashes at a
    /// third of the arrival window and recovers from site 0 at two thirds.
    pub fn faults(self) -> Vec<(SimTime, Fault)> {
        match self {
            Workload::ReliableFaults => {
                let third = self.window().as_micros() / 3;
                vec![
                    (SimTime::from_micros(third), Fault::Crash(SiteId(4))),
                    (
                        SimTime::from_micros(2 * third),
                        Fault::Recover {
                            site: SiteId(4),
                            donor: SiteId(0),
                        },
                    ),
                ]
            }
            Workload::CausalContended | Workload::AtomicWide => Vec::new(),
        }
    }

    /// Sites that never crash.
    pub fn survivors(self) -> Vec<SiteId> {
        let crashed: Vec<SiteId> = self
            .faults()
            .iter()
            .filter_map(|(_, f)| match f {
                Fault::Crash(s) => Some(*s),
                Fault::Recover { .. } => None,
            })
            .collect();
        (0..self.sites())
            .map(SiteId)
            .filter(|s| !crashed.contains(s))
            .collect()
    }

    /// The cluster configuration, without any tracing.
    pub fn builder(self, seed: u64) -> ClusterBuilder {
        let b = Cluster::builder()
            .sites(self.sites())
            .protocol(self.protocol())
            .seed(seed);
        match self {
            Workload::CausalContended => b.network(NetworkConfig::lan()),
            // A 10 Mbit/s NIC per site: the ring's per-link payload load
            // stays well inside it at the nominal rate.
            Workload::AtomicWide => b.network(NetworkConfig::lan().with_nic_bandwidth(1_250_000)),
            Workload::ReliableFaults => b
                .network(NetworkConfig::lan())
                .membership(true)
                .relay(true)
                .fault_plan(lossy_links(self.deadline())),
        }
    }

    /// The open-loop load at `rate` transactions per second per site:
    /// independent Poisson arrivals at every site over the arrival window.
    pub fn arrivals(self, seed: u64, rate: f64) -> Vec<Arrival> {
        let mix = self.mix();
        let zipf = mix.sampler();
        let mut rng = DetRng::new(seed);
        let mean_us = 1e6 / rate;
        let end = self.window().as_micros();
        let mut out = Vec::new();
        for site in 0..self.sites() {
            let mut site_rng = rng.fork(site as u64);
            let mut at = 0u64;
            loop {
                at += site_rng.gen_exp(mean_us).round() as u64;
                if at >= end {
                    break;
                }
                let spec = mix.gen_txn(&zipf, &mut site_rng);
                out.push(Arrival {
                    at: SimTime::from_micros(at),
                    site: SiteId(site),
                    spec,
                });
            }
        }
        out
    }
}

/// 2% drop and 5% duplication on every link for the whole run.
fn lossy_links(until: SimTime) -> FaultPlan {
    let clause = |kind| FaultClause {
        from: None,
        to: None,
        start: SimTime::ZERO,
        end: until,
        kind,
    };
    FaultPlan {
        clauses: vec![
            clause(FaultKind::Drop { p: 0.02 }),
            clause(FaultKind::Duplicate {
                p: 0.05,
                extra_delay: SimDuration::from_micros(500),
            }),
        ],
    }
}
