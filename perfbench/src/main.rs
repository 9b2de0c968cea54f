//! The bcastdb benchmark: drives `bcastdb_core::Cluster` from outside on
//! one of three open-loop workloads, checks every execution, and prints one
//! JSON line of metrics.
//!
//! ```text
//! bcastdb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of untraced executions;
//! `--trace 1` reports per-layer metrics from traced executions and writes
//! their spans to `perfbench/out/`. See `perfbench/README.md`.

mod alloc;
mod calib;
mod run;
mod spans;
mod workloads;

use bcastdb_sim::spans::Segment;
use bcastdb_sim::DetRng;
use run::{execute, quantile, set_up, Execution, Outcome, ABORT_REASONS};
use spans::Recorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Inputs per end-to-end run: the run cycles through this many seeds, so
/// that its figures average over several generated loads.
const INPUTS: usize = 4;
/// Fewest nominal-rate executions in an end-to-end run: two per input, so
/// that each input's repeat is checked.
const MIN_EXECUTIONS: usize = 2 * INPUTS;
/// Extra set-ups (built, then dropped unrun) per measured execution, so
/// that `setup_s` is a median over many samples.
const EXTRA_SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The correctness gate over every execution of one benchmark run.
#[derive(Default)]
struct Gate {
    /// The first nominal-rate outcome of each input seed.
    reference: BTreeMap<u64, Outcome>,
    attempted: u64,
    failed: u64,
}

impl Gate {
    /// Counts `e` as failed if it broke a check or, when it ran at the
    /// nominal rate on input `nominal`, if its counts and virtual-time
    /// figures differ from the first such execution's: at one seed every
    /// execution must repeat exactly.
    fn admit(&mut self, e: &Execution, nominal: Option<u64>) {
        self.attempted += 1;
        let mut problems = e.violations.clone();
        if let Some(seed) = nominal {
            let reference = self
                .reference
                .entry(seed)
                .or_insert_with(|| e.outcome.clone());
            if *reference != e.outcome {
                problems.push(format!(
                    "not deterministic: {:?} then {:?}",
                    reference, e.outcome
                ));
            }
        }
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("check failed (execution {}): {p}", e.run);
            }
        }
    }
}

/// The metrics of one benchmark run, in output order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::new();
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            assert!(value.is_finite(), "{name} = {value}");
            // `+ 0.0` turns the -0.0 of an empty sum into 0.0.
            let value = value + 0.0;
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        format!("{{{out}}}")
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

/// One input's executions, each with its wall time in reference seconds.
type Input = Vec<(Execution, f64)>;

/// The input seeds of an end-to-end run: `--seed` itself, then seeds drawn
/// from it.
fn input_seeds(seed: u64) -> [u64; INPUTS] {
    let mut rng = DetRng::new(seed);
    std::array::from_fn(|i| if i == 0 { seed } else { rng.next_u64() })
}

/// Untraced executions at the nominal rate for `--seconds`, cycling
/// through the run's inputs, then the other rates of the capacity ladder on
/// the first input.
fn end_to_end(a: &Args, gate: &mut Gate) -> Metrics {
    let w = a.workload;
    let seeds = input_seeds(a.seed);
    let mut rec = Recorder::new();
    // Per input, its executions with their wall time in reference seconds,
    // scaled by the yardstick timed just before and just after each.
    let mut runs: Vec<Input> = seeds.iter().map(|_| Vec::new()).collect();
    let mut yard = vec![calib::seconds()];
    let until = Instant::now() + Duration::from_secs(a.seconds);
    for n in 0.. {
        if n >= MIN_EXECUTIONS && Instant::now() >= until {
            break;
        }
        let seed = seeds[n % INPUTS];
        for _ in 0..EXTRA_SETUPS {
            rec.next_run();
            drop(set_up(w, seed, w.nominal_rate(), false, &mut rec));
        }
        let e = execute(w, seed, w.nominal_rate(), false, &mut rec);
        gate.admit(&e, Some(seed));
        yard.push(calib::seconds());
        let wall = calib::reference(rec.get(e.root).secs(), (yard[n] + yard[n + 1]) / 2.0);
        runs[n % INPUTS].push((e, wall));
    }
    // The set-ups of execution `n` (its own included) are the `n`-th run of
    // `EXTRA_SETUPS + 1`; the ladder's come later.
    let setups: Vec<f64> = rec
        .all("setup")
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let n = k / (EXTRA_SETUPS + 1);
            calib::reference(*s, (yard[n] + yard[n + 1]) / 2.0)
        })
        .collect();
    let walls = runs.iter().flatten().map(|(e, _)| rec.get(e.root).secs());
    eprintln!(
        "{} executions at the nominal rate over inputs {seeds:?}, {} set-ups; median wall {:.4} s, yardstick {:.4} s",
        yard.len() - 1,
        setups.len(),
        median(walls.collect()),
        median(yard)
    );

    // Capacity: transactions committed per virtual second of the arrival
    // window at the highest ladder rate that meets the limits, every lower
    // rate meeting them too.
    let (p99_limit_ms, failed_limit) = w.limits();
    let window_s = w.window().as_micros() as f64 / 1e6;
    let mut capacity = 0.0;
    for rate in w.ladder() {
        let o = if rate == w.nominal_rate() {
            runs[0][0].0.outcome.clone()
        } else {
            let e = execute(w, seeds[0], rate, false, &mut rec);
            gate.admit(&e, None);
            e.outcome
        };
        let meets = ms(o.update_p99_us) <= p99_limit_ms
            && o.failed_share() <= failed_limit
            && o.backlog_steady();
        eprintln!(
            "ladder {rate} txn/s per site: p99 {} ms, failed share {:.4}, in flight {} then {}{}",
            ms(o.update_p99_us),
            o.failed_share(),
            o.inflight_mid,
            o.inflight_end,
            if meets { "" } else { ", misses the limits" }
        );
        if !meets {
            break;
        }
        capacity = o.committed as f64 / window_s;
    }

    // Wall-clock figures are medians over an input's executions, and every
    // figure but capacity is then averaged over the inputs.
    let over_inputs = |f: &dyn Fn(&Input) -> f64| runs.iter().map(f).sum::<f64>() / INPUTS as f64;
    let per_exec = |f: &dyn Fn(&Execution, f64) -> f64| {
        over_inputs(&|r| median(r.iter().map(|(e, wall)| f(e, *wall)).collect()))
    };
    let outcome = |f: &dyn Fn(&Outcome) -> f64| over_inputs(&|r| f(&r[0].0.outcome));
    let mut m = Metrics::default();
    m.put("setup_s", median(setups), "s");
    m.put("wall_ref_s", per_exec(&|_, wall| wall), "s");
    m.put(
        "txn_per_ref_s",
        per_exec(&|e, wall| e.outcome.terminated() as f64 / wall),
        "txn/s",
    );
    m.put(
        "peak_heap_mb",
        per_exec(&|e, _| e.heap_peak as f64 / 1e6),
        "MB",
    );
    m.put("commit_p50_ms", outcome(&|o| ms(o.update_p50_us)), "ms");
    m.put("commit_p99_ms", outcome(&|o| ms(o.update_p99_us)), "ms");
    m.put("capacity_tps", capacity, "txn/s");
    m.put("failed_share", outcome(&Outcome::failed_share), "fraction");
    m.put(
        "msgs_per_txn",
        outcome(&|o| o.msgs as f64 / o.submitted as f64),
        "messages/txn",
    );
    m.put(
        "wire_bytes_per_txn",
        outcome(&|o| o.bytes as f64 / o.submitted as f64),
        "bytes/txn",
    );
    m
}

/// Pairs of one untraced and one traced execution for `--seconds`; the
/// per-layer figures come from the traced ones.
fn per_layer(a: &Args, gate: &mut Gate) -> Result<Metrics, String> {
    let w = a.workload;
    let mut rec = Recorder::new();
    let (mut plain, mut traced, mut yard) = (Vec::new(), Vec::new(), Vec::new());
    let until = Instant::now() + Duration::from_secs(a.seconds);
    while traced.is_empty() || Instant::now() < until {
        for (list, trace) in [(&mut plain, false), (&mut traced, true)] {
            let e = execute(w, a.seed, w.nominal_rate(), trace, &mut rec);
            gate.admit(&e, Some(a.seed));
            list.push(e);
        }
        yard.push(calib::seconds());
    }
    let span_dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(span_dir).map_err(|e| format!("{}: {e}", span_dir.display()))?;
    let span_file = span_dir.join(format!("spans-{}-{}.jsonl", w.name(), a.seed));
    std::fs::write(&span_file, rec.to_jsonl())
        .map_err(|e| format!("{}: {e}", span_file.display()))?;
    eprintln!("spans written to {}", span_file.display());

    let o = &traced[0].outcome;
    let t = traced[0].traced.as_ref().expect("traced execution");
    let sub = o.submitted as f64;
    // Median over traced executions of a per-execution wall figure.
    let per = |f: &dyn Fn(&Execution) -> f64| median(traced.iter().map(f).collect());
    let span = |name: &'static str| per(&|e| rec.total(e.run, name));
    let slice_q = |q: f64| per(&|e| quantile(rec.each(e.run, "sim.slice"), q) * 1e3);
    let seg = |s, q| run::segment_ms(&t.segments, s, q);

    let mut m = Metrics::default();
    m.put("bench.wall_s", per(&|e| rec.get(e.root).secs()), "s");
    m.put("bench.calib_s", median(yard), "s");
    m.put(
        "bench.unattributed_share",
        per(&|e| rec.self_secs(e.root) / rec.get(e.root).secs()),
        "fraction",
    );
    m.put("workload.gen_s", span("workload.gen"), "s");
    m.put("core.build_s", span("core.build"), "s");
    m.put("core.submit_s", span("core.submit"), "s");
    m.put("core.metrics_fold_s", span("core.metrics_fold"), "s");
    m.put("core.recover_s", span("core.recover"), "s");
    m.put("core.drop_s", span("core.drop"), "s");
    for (i, (_, name)) in ABORT_REASONS.iter().enumerate() {
        m.put(name, o.aborts[i] as f64 / sub, "fraction");
    }
    m.put("core.unterminated", o.unterminated as f64 / sub, "fraction");
    m.put("core.refused", o.refused as f64 / sub, "fraction");
    m.put("core.votes_p50_ms", seg(Segment::Votes, 0.5), "ms");
    m.put("core.votes_p99_ms", seg(Segment::Votes, 0.99), "ms");
    m.put("core.decide_p99_ms", seg(Segment::Decide, 0.99), "ms");
    m.put("core.ro_commit_p99_ms", ms(o.ro_p99_us), "ms");
    m.put("core.undecided_p99", t.undecided_p99, "count");
    let run_s = span("sim.run");
    m.put("sim.run_s", run_s, "s");
    m.put("sim.slice_p50_ms", slice_q(0.5), "ms");
    m.put("sim.slice_p99_ms", slice_q(0.99), "ms");
    m.put("sim.events", o.events as f64, "count");
    m.put("sim.events_per_txn", o.events as f64 / sub, "events/txn");
    m.put("sim.events_per_s", o.events as f64 / run_s, "1/s");
    m.put("sim.queue_depth_p99", t.queue_depth_p99, "count");
    m.put("sim.net.msgs", o.msgs as f64, "count");
    m.put("sim.net.bytes", o.bytes as f64, "bytes");
    m.put("sim.net.dropped", o.dropped as f64, "count");
    m.put("sim.net.duplicated", o.duplicated as f64, "count");
    m.put("sim.net.backlog_p99_ms", t.backlog_p99_us / 1000.0, "ms");
    for (i, name) in PHASE_NAMES.iter().enumerate() {
        m.put(name, o.phases[i] as f64 / sub, "messages/txn");
    }
    m.put(
        "broadcast.disseminate_p50_ms",
        seg(Segment::Disseminate, 0.5),
        "ms",
    );
    m.put(
        "broadcast.disseminate_p99_ms",
        seg(Segment::Disseminate, 0.99),
        "ms",
    );
    m.put(
        "broadcast.order_wait_p50_ms",
        seg(Segment::OrderWait, 0.5),
        "ms",
    );
    m.put(
        "broadcast.order_wait_p99_ms",
        seg(Segment::OrderWait, 0.99),
        "ms",
    );
    m.put("db.sg_check_s", span("db.sg_check"), "s");
    m.put("db.converge_s", span("db.converge"), "s");
    m.put("db.read_p50_ms", seg(Segment::Read, 0.5), "ms");
    m.put("db.read_p99_ms", seg(Segment::Read, 0.99), "ms");
    m.put("db.lock_waiters_p99", t.lock_waiters_p99, "count");
    let plain_run_s = median(plain.iter().map(|e| rec.total(e.run, "sim.run")).collect());
    m.put("telemetry.overhead_s", run_s - plain_run_s, "s");
    m.put("telemetry.check_s", span("telemetry.check"), "s");
    m.put("telemetry.spans_s", span("telemetry.spans"), "s");
    m.put("telemetry.samples_s", span("telemetry.samples"), "s");
    m.put("telemetry.trace_events", t.trace_events as f64, "count");
    // Allocation figures come from the untraced executions: tracing
    // allocates on its own account.
    let p = &plain[0];
    m.put(
        "alloc.per_event",
        p.sim_allocs as f64 / p.outcome.events as f64,
        "allocs/event",
    );
    m.put(
        "alloc.bytes_per_txn",
        p.bytes_allocated as f64 / sub,
        "bytes/txn",
    );
    m.put(
        "heap.live_end_mb",
        median(plain.iter().map(|e| e.heap_end as f64 / 1e6).collect()),
        "MB",
    );
    Ok(m)
}

const PHASE_NAMES: [&str; 6] = [
    "broadcast.msgs.prepare",
    "broadcast.msgs.vote",
    "broadcast.msgs.ack",
    "broadcast.msgs.decision",
    "broadcast.msgs.retransmit",
    "broadcast.msgs.membership",
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: bcastdb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut gate = Gate::default();
    let metrics = if args.trace {
        per_layer(&args, &mut gate)
    } else {
        Ok(end_to_end(&args, &mut gate))
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if gate.failed > 0 {
        eprintln!(
            "{} of {} executions failed the correctness gate; no metrics reported",
            gate.failed, gate.attempted
        );
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            gate.attempted, gate.failed
        );
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {}}}",
        gate.attempted,
        metrics.json()
    );
    ExitCode::SUCCESS
}
