//! Host timing: a stopwatch for the untraced measurements and an
//! in-memory span recorder for the traced run. Every clock read of the
//! benchmark lives in this module; none reaches simulated state.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
// dpc-lint: allow(determinism::wall-clock) -- benchmark host timing; never reaches simulated state
use std::time::Instant;

/// Runs `f` and returns its output with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // dpc-lint: allow(determinism::wall-clock) -- benchmark host timing
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A stopwatch that cuts one computation into consecutive laps.
pub struct Laps {
    // dpc-lint: allow(determinism::wall-clock) -- benchmark host timing
    last: Instant,
    /// Seconds of each lap, in order.
    pub secs: Vec<f64>,
}

impl Laps {
    /// Starts the first lap now.
    pub fn start() -> Self {
        // dpc-lint: allow(determinism::wall-clock) -- benchmark host timing
        Laps { last: Instant::now(), secs: Vec::new() }
    }

    /// Ends the current lap and starts the next.
    pub fn lap(&mut self) {
        // dpc-lint: allow(determinism::wall-clock) -- benchmark host timing
        let now = Instant::now();
        self.secs.push((now - self.last).as_secs_f64());
        self.last = now;
    }
}

/// The end of a run's measuring window.
pub struct Deadline {
    // dpc-lint: allow(determinism::wall-clock) -- benchmark host timing
    start: Instant,
    seconds: f64,
}

impl Deadline {
    /// A window of `seconds` starting now.
    pub fn after(seconds: f64) -> Self {
        // dpc-lint: allow(determinism::wall-clock) -- benchmark host timing
        Deadline { start: Instant::now(), seconds }
    }

    /// Seconds left in the window (negative once it has closed).
    pub fn remaining(&self) -> f64 {
        self.seconds - self.start.elapsed().as_secs_f64()
    }

    /// Whether the window has closed.
    pub fn passed(&self) -> bool {
        self.remaining() <= 0.0
    }
}

/// One recorded span: a layer call made by the benchmark.
struct Span {
    name: String,
    /// Which input the call worked on (a workload name), or empty.
    tag: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Events and simulated memory operations the call handled.
    events: u64,
    mem_ops: u64,
    /// How many children run side by side (worker threads); self time
    /// subtracts the children's summed duration divided by this.
    lanes: u32,
    /// False for child records copied from the program's own per-run
    /// timings, which carry a duration but no start time.
    interval: bool,
}

/// Totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Summed duration in seconds.
    pub secs: f64,
    /// Summed events.
    pub events: u64,
}

/// Span recorder. When off, every call is a no-op that reads no clock.
pub struct Tracer {
    on: bool,
    run: String,
    // dpc-lint: allow(determinism::wall-clock) -- benchmark host timing
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder for run `run`, recording only when `on`.
    pub fn new(on: bool, run: String) -> Self {
        // dpc-lint: allow(determinism::wall-clock) -- benchmark host timing
        Tracer { on, run, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Switches recording on or off (spans already open stay open).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str, tag: &str) {
        self.begin_lanes(name, tag, 1);
    }

    /// Opens a span whose children run on `lanes` parallel workers.
    pub fn begin_lanes(&mut self, name: &str, tag: &str, lanes: u32) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            tag: tag.to_owned(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            events: 0,
            mem_ops: 0,
            lanes: lanes.max(1),
            interval: true,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span with the counts it handled.
    pub fn end(&mut self, events: u64, mem_ops: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("end() matches an earlier begin()");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.events = events;
        span.mem_ops = mem_ops;
    }

    /// Adds a child record of known duration under the innermost open
    /// span (the program timed it; the benchmark saw no start time).
    pub fn record(&mut self, name: &str, tag: &str, secs: f64, events: u64, mem_ops: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        let start_ns = parent.map_or(0, |p| self.spans[p].start_ns);
        // Durations are non-negative and far below u64::MAX nanoseconds.
        let dur_ns = (secs * 1e9) as u64;
        self.spans.push(Span {
            name: name.to_owned(),
            tag: tag.to_owned(),
            parent,
            start_ns,
            end_ns: start_ns + dur_ns,
            events,
            mem_ops,
            lanes: 1,
            interval: false,
        });
    }

    /// Totals over the spans named exactly `name`, or, when `name` ends
    /// with `*`, over every span whose name starts with the rest.
    pub fn totals(&self, name: &str) -> Totals {
        let matches = |span: &Span| match name.strip_suffix('*') {
            Some(prefix) => span.name.starts_with(prefix),
            None => span.name == name,
        };
        self.spans.iter().filter(|span| matches(span)).fold(Totals::default(), |acc, span| Totals {
            secs: acc.secs + (span.end_ns - span.start_ns) as f64 / 1e9,
            events: acc.events + span.events,
        })
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children on `lanes` workers cover their sum over `lanes`).
    fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, children)| {
                let dur = span.end_ns - span.start_ns;
                dur.saturating_sub(children / u64::from(span.lanes))
            })
            .collect()
    }

    /// Self seconds summed per span name, in first-seen order.
    pub fn self_times(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let secs = self_ns as f64 / 1e9;
            match out.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += secs,
                None => out.push((span.name.clone(), secs)),
            }
        }
        out
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, (span, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = span.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{},\"id\":{id},\"parent\":{parent},\"name\":{},\"tag\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{self_ns},\"events\":{},\"mem_ops\":{},\
                 \"interval\":{}}}",
                crate::report::json_str(&self.run),
                crate::report::json_str(&span.name),
                crate::report::json_str(&span.tag),
                span.start_ns,
                span.end_ns,
                span.events,
                span.mem_ops,
                span.interval,
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
