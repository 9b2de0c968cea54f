//! The benchmark's own spans: wall-clock intervals around its calls into
//! each layer, kept in memory and written out when the benchmark ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, relative to the recorder's creation.
    pub start: Duration,
    /// End, relative to the recorder's creation.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The workload execution this span belongs to.
    pub run: u32,
    /// Time covered by the span's children (which are sequential).
    covered: Duration,
}

impl Span {
    /// Length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Records nested spans; children of a span are sequential.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Starts the next workload execution and returns its id.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.t0.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            run: self.run,
            covered: Duration::ZERO,
        });
        self.open.push(idx);
        idx
    }

    /// Closes `idx`, which must be the innermost open span.
    pub fn close(&mut self, idx: usize) {
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let span = &mut self.spans[idx];
        span.end = self.t0.elapsed();
        let length = span.end - span.start;
        if let Some(parent) = span.parent {
            self.spans[parent].covered += length;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        out
    }

    /// The span at `idx`.
    pub fn get(&self, idx: usize) -> &Span {
        &self.spans[idx]
    }

    /// Total seconds of every span named `name` in `run`.
    pub fn total(&self, run: u32, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Durations in seconds of every span named `name`, in any run.
    pub fn all(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Durations in seconds of every span named `name` in `run`, in order.
    pub fn each(&self, run: u32, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// A span's own time: its length minus the time its children cover.
    pub fn self_secs(&self, idx: usize) -> f64 {
        let s = &self.spans[idx];
        (s.end - s.start - s.covered).as_secs_f64()
    }

    /// Every span as one JSON object per line, with its self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"run\":{},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{},\"end_us\":{},\"self_us\":{}}}",
                s.run,
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                (self.self_secs(i) * 1e6).round() as u64,
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}
