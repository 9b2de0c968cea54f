//! One execution of a workload: set-up, the simulated run, and the
//! correctness gate, each call into a layer wrapped in a span.

use crate::alloc;
use crate::spans::Recorder;
use crate::workloads::{Arrival, Fault, Workload};
use bcastdb_core::{AbortReason, Cluster};
use bcastdb_sim::analyze::{summarize, SegmentSummary};
use bcastdb_sim::spans::Segment;
use bcastdb_sim::telemetry::Phase;
use bcastdb_sim::{Sample, SimDuration, SimTime, SiteId};
use std::collections::BTreeMap;

/// Width of one `sim.slice` span in traced runs, in virtual time.
pub const SLICE: SimDuration = SimDuration::from_millis(25);
/// Step of the wait for a quiet moment before a recovery, in virtual time.
const QUIET_STEP: SimDuration = SimDuration::from_micros(200);
/// How long the wait for a quiet moment may last before the run fails.
const QUIET_LIMIT: SimDuration = SimDuration::from_secs(1);
/// Metrics sampling interval in traced runs, in virtual time.
const SAMPLE_EVERY: SimDuration = SimDuration::from_millis(5);

/// Every abort reason with the name of its per-layer metric.
pub const ABORT_REASONS: [(AbortReason, &str); 7] = [
    (AbortReason::Wounded, "core.aborts.wounded"),
    (AbortReason::ConcurrentConflict, "core.aborts.concurrent"),
    (AbortReason::Certification, "core.aborts.certification"),
    (AbortReason::NegativeVote, "core.aborts.negative_vote"),
    (AbortReason::Timeout, "core.aborts.timeout"),
    (AbortReason::ViewChange, "core.aborts.view_change"),
    (AbortReason::WaitDie, "core.aborts.wait_die"),
];

/// What one execution produced that must repeat exactly at a fixed seed:
/// counts and virtual-time figures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Transactions submitted.
    pub submitted: u64,
    /// Committed at their origin, update and read-only.
    pub committed: u64,
    /// Aborted, by reason, in [`ABORT_REASONS`] order.
    pub aborts: [u64; 7],
    /// Due while their origin was crashed.
    pub refused: u64,
    /// Neither committed nor aborted at the deadline, and not refused.
    pub unterminated: u64,
    /// Update commit latency p50 and p99, µs.
    pub update_p50_us: u64,
    /// See `update_p50_us`.
    pub update_p99_us: u64,
    /// Update commits behind the percentiles.
    pub update_n: u64,
    /// Read-only commit latency p99, µs.
    pub ro_p99_us: u64,
    /// Read-only commits behind the percentile.
    pub ro_n: u64,
    /// Messages and payload bytes the network accepted.
    pub msgs: u64,
    /// See `msgs`.
    pub bytes: u64,
    /// Messages the network dropped and duplicated.
    pub dropped: u64,
    /// See `dropped`.
    pub duplicated: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Logical messages per protocol phase, in `Phase::ALL` order.
    pub phases: [u64; 6],
    /// Transactions in flight (submitted, not refused, not terminated) at
    /// the middle and at the end of the arrival window.
    pub inflight_mid: u64,
    /// See `inflight_mid`.
    pub inflight_end: u64,
}

impl Outcome {
    /// Aborted, unterminated or refused, over submitted.
    pub fn failed_share(&self) -> f64 {
        let failed: u64 = self.aborts.iter().sum::<u64>() + self.unterminated + self.refused;
        failed as f64 / self.submitted as f64
    }

    /// Committed or aborted: every transaction neither unterminated nor
    /// refused.
    pub fn terminated(&self) -> u64 {
        self.submitted - self.unterminated - self.refused
    }

    /// True iff the in-flight count did not grow over the second half of
    /// the arrival window (with slack for Poisson noise).
    pub fn backlog_steady(&self) -> bool {
        self.inflight_end <= 2 * self.inflight_mid + 20
    }
}

/// Figures only a traced execution has.
pub struct Traced {
    /// Latency segments of committed update transactions.
    pub segments: SegmentSummary,
    /// Events the trace carried.
    pub trace_events: u64,
    /// p99 over samples of the scheduler's queue depth.
    pub queue_depth_p99: f64,
    /// p99 over samples of the longest link backlog, µs.
    pub backlog_p99_us: f64,
    /// p99 over samples of undecided remote transactions, all sites.
    pub undecided_p99: f64,
    /// p99 over samples of lock waiters, all sites.
    pub lock_waiters_p99: f64,
}

/// One execution's results.
pub struct Execution {
    /// The recorder's id for this execution's spans.
    pub run: u32,
    /// Index of the root span.
    pub root: usize,
    /// The deterministic part.
    pub outcome: Outcome,
    /// Failed correctness checks (empty when the run is correct).
    pub violations: Vec<String>,
    /// Peak and final live heap above the execution's starting heap, bytes.
    pub heap_peak: u64,
    /// See `heap_peak`.
    pub heap_end: u64,
    /// Allocations made inside `sim.run` spans.
    pub sim_allocs: u64,
    /// Bytes allocated over the whole execution.
    pub bytes_allocated: u64,
    /// Present for traced executions.
    pub traced: Option<Traced>,
}

/// Executes `w` once at `rate` transactions per second per site. A traced
/// execution turns on the program's trace and metrics sampling and splits
/// the simulated run into [`SLICE`]-wide spans; neither may change the
/// outcome.
pub fn execute(w: Workload, seed: u64, rate: f64, traced: bool, rec: &mut Recorder) -> Execution {
    let run = rec.next_run();
    alloc::reset_peak();
    let start = alloc::snapshot();
    let root = rec.open("run");

    let (arrivals, mut cluster) = set_up(w, seed, rate, traced, rec);

    let window_end = SimTime::ZERO + w.window();
    let mid = SimTime::from_micros(window_end.as_micros() / 2);
    let mut stops: Vec<SimTime> = vec![mid, window_end, w.deadline()];
    stops.extend(w.faults().iter().map(|(t, _)| *t));
    stops.sort();
    stops.dedup();
    let mut sim = Stepper {
        traced,
        allocs: 0,
        violations: Vec::new(),
    };
    let mut inflight = BTreeMap::new();
    let mut outages: Vec<Outage> = Vec::new();
    for stop in stops {
        sim.run_until(&mut cluster, rec, stop);
        if stop == mid || stop == window_end {
            let n = rec.time("core.inflight", || {
                in_flight(&cluster, w.sites(), &arrivals, &outages, stop)
            });
            inflight.insert(stop, n);
        }
        for (_, fault) in w.faults().iter().filter(|(t, _)| *t == stop) {
            match *fault {
                Fault::Crash(site) => {
                    rec.time("core.crash", || cluster.crash(site));
                    outages.push(Outage {
                        site,
                        from: cluster.now(),
                        to: SimTime::from_micros(u64::MAX),
                    });
                }
                Fault::Recover { site, donor } => {
                    sim.await_quiet(&mut cluster, rec, site, w.sites());
                    rec.time("core.recover", || cluster.recover(site, donor));
                    if let Some(o) = outages.iter_mut().rev().find(|o| o.site == site) {
                        o.to = cluster.now();
                    }
                }
            }
        }
    }
    let mut violations = sim.violations;
    let sim_allocs = sim.allocs;

    let validate = rec.open("validate");
    let metrics = rec.time("core.metrics_fold", || cluster.metrics());
    let survivors = w.survivors();
    let sg = rec.time("db.sg_check", || {
        if survivors.len() == w.sites() {
            cluster.check_serializability()
        } else {
            cluster.check_serializability_among(&survivors)
        }
    });
    if let Err(v) = sg {
        violations.push(format!("not one-copy serializable: {v:?}"));
    }
    if !rec.time("db.converge", || cluster.replicas_converged()) {
        violations.push("replicas diverged".to_string());
    }
    let figures = traced.then(|| {
        let check = rec.time("telemetry.check", || {
            if w.faults().is_empty() {
                cluster.check_trace_invariants()
            } else {
                cluster.check_trace_invariants_allowing_pending()
            }
        });
        if let Err(v) = check {
            violations.push(format!("trace invariant: {v}"));
        }
        let segments = rec.time("telemetry.spans", || {
            summarize(cluster.txn_spans().values())
        });
        let samples = rec.time("telemetry.samples", || cluster.metrics_samples());
        Traced {
            segments,
            // The trace ring holds no events, so every event counts as evicted.
            trace_events: cluster.trace_evicted(),
            queue_depth_p99: p99_of(&samples, |s| s.values["queue_depth"]),
            backlog_p99_us: p99_of(&samples, |s| s.values["net.backlog_us_max"]),
            undecided_p99: p99_of(&samples, |s| site_sum(s, "undecided_remote")),
            lock_waiters_p99: p99_of(&samples, |s| site_sum(s, "lock_waiters")),
        }
    });

    let submitted = arrivals.len() as u64;
    let refused = arrivals.iter().filter(|a| refused(a, &outages)).count() as u64;
    let aborts = ABORT_REASONS.map(|(r, _)| metrics.counters.get(r.counter()));
    let committed = metrics.commits();
    let terminated = committed + aborts.iter().sum::<u64>();
    if terminated + refused > submitted {
        violations.push(format!(
            "{terminated} terminated and {refused} refused of {submitted} submitted"
        ));
    }
    let net = cluster.network();
    let pc = metrics.phase_counts();
    let outcome = Outcome {
        submitted,
        committed,
        aborts,
        refused,
        unterminated: submitted.saturating_sub(terminated + refused),
        update_p50_us: metrics.update_latency.p50().as_micros(),
        update_p99_us: metrics.update_latency.p99().as_micros(),
        update_n: metrics.update_latency.count() as u64,
        ro_p99_us: metrics.readonly_latency.p99().as_micros(),
        ro_n: metrics.readonly_latency.count() as u64,
        msgs: net.messages_sent(),
        bytes: net.bytes_sent(),
        dropped: net.messages_dropped(),
        duplicated: net.messages_duplicated(),
        events: cluster.events_processed(),
        phases: Phase::ALL.map(|p| pc.get(p)),
        inflight_mid: inflight[&mid],
        inflight_end: inflight[&window_end],
    };
    rec.close(validate);

    let heap_end = alloc::snapshot().live.saturating_sub(start.live);
    rec.time("core.drop", || drop(cluster));
    drop(arrivals);
    rec.close(root);
    let end = alloc::snapshot();
    Execution {
        run,
        root,
        outcome,
        violations,
        heap_peak: alloc::peak().saturating_sub(start.live),
        heap_end,
        sim_allocs,
        bytes_allocated: end.bytes - start.bytes,
        traced: figures,
    }
}

/// Generates the load, builds the cluster and submits every transaction
/// at its due time: everything before the first simulation step.
pub fn set_up(
    w: Workload,
    seed: u64,
    rate: f64,
    traced: bool,
    rec: &mut Recorder,
) -> (Vec<Arrival>, Cluster) {
    let setup = rec.open("setup");
    let arrivals = rec.time("workload.gen", || w.arrivals(seed, rate));
    let mut cluster = rec.time("core.build", || {
        let b = w.builder(seed);
        if traced {
            b.trace(0).metrics(SAMPLE_EVERY).build()
        } else {
            b.build()
        }
    });
    rec.time("core.submit", || {
        for a in &arrivals {
            cluster.submit_at(a.at, a.site, a.spec.clone());
        }
    });
    rec.close(setup);
    (arrivals, cluster)
}

/// A crashed site's time down, up to its recovery.
struct Outage {
    site: SiteId,
    from: SimTime,
    to: SimTime,
}

/// True iff the origin of `a` was down when it was due.
fn refused(a: &Arrival, outages: &[Outage]) -> bool {
    outages
        .iter()
        .any(|o| o.site == a.site && o.from <= a.at && a.at < o.to)
}

/// Submitted by `at`, not refused, and not yet terminated at the origin.
fn in_flight(
    cluster: &Cluster,
    sites: usize,
    arrivals: &[Arrival],
    outages: &[Outage],
    at: SimTime,
) -> u64 {
    let due = arrivals
        .iter()
        .filter(|a| a.at <= at && !refused(a, outages))
        .count() as u64;
    let terminated: u64 = (0..sites)
        .map(|s| {
            let m = cluster.site_metrics(SiteId(s));
            m.commits() + m.aborts()
        })
        .sum();
    due.saturating_sub(terminated)
}

/// Advances the simulation inside `sim.run` spans.
struct Stepper {
    traced: bool,
    /// Allocations made while the simulation ran.
    allocs: u64,
    violations: Vec<String>,
}

impl Stepper {
    /// Runs to `to`; a traced execution splits the run into [`SLICE`]-wide
    /// `sim.slice` spans aligned to multiples of [`SLICE`].
    fn run_until(&mut self, cluster: &mut Cluster, rec: &mut Recorder, to: SimTime) {
        let before = alloc::snapshot().allocs;
        let span = rec.open("sim.run");
        if self.traced {
            let slice = SLICE.as_micros();
            let mut t = cluster.now();
            while t < to {
                t = SimTime::from_micros((t.as_micros() / slice + 1) * slice).min(to);
                rec.time("sim.slice", || cluster.run_until(t));
            }
        } else {
            cluster.run_until(to);
        }
        rec.close(span);
        self.allocs += alloc::snapshot().allocs - before;
    }

    /// `Cluster::recover` must be called at a quiet moment, with no
    /// transaction in flight: steps the simulation until no site but the
    /// recovering one has an undecided transaction. A quiet donor alone is
    /// not enough; the other sites' undecided transactions then never
    /// terminate once the site is back.
    fn await_quiet(
        &mut self,
        cluster: &mut Cluster,
        rec: &mut Recorder,
        recovering: SiteId,
        sites: usize,
    ) {
        let give_up = cluster.now() + QUIET_LIMIT;
        let before = alloc::snapshot().allocs;
        let span = rec.open("sim.run");
        let busy = |c: &Cluster| {
            (0..sites)
                .map(SiteId)
                .any(|s| s != recovering && c.replica(s).state().has_undecided())
        };
        while busy(cluster) {
            if cluster.now() >= give_up {
                self.violations.push(format!(
                    "no quiet moment {QUIET_LIMIT} after the recovery of {recovering} was due"
                ));
                break;
            }
            let t = cluster.now() + QUIET_STEP;
            cluster.run_until(t);
        }
        rec.close(span);
        self.allocs += alloc::snapshot().allocs - before;
    }
}

/// Sum of the per-site gauge `name` (`s<site>.<name>`) in one sample.
fn site_sum(s: &Sample, name: &str) -> u64 {
    s.values
        .iter()
        .filter(|(k, _)| {
            k.strip_prefix('s')
                .and_then(|r| r.split_once('.'))
                .is_some_and(|(site, g)| g == name && site.bytes().all(|b| b.is_ascii_digit()))
        })
        .map(|(_, v)| *v)
        .sum()
}

/// The p99 of `f` over the samples.
fn p99_of(samples: &[Sample], f: impl Fn(&Sample) -> u64) -> f64 {
    quantile(samples.iter().map(|s| f(s) as f64).collect(), 0.99)
}

/// The nearest-rank `q`-quantile, as `LatencyStats::quantile` takes it.
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of nothing");
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// The `q`-quantile of a latency segment, in ms.
pub fn segment_ms(summary: &SegmentSummary, seg: Segment, q: f64) -> f64 {
    summary.segment(seg).quantile(q).as_millis_f64()
}
