//! Spans recorded by the benchmark around its calls into the store.
//!
//! Every traced call gets a span: name, start, end, the span that
//! caused it and the request it belongs to. Each thread keeps its own
//! [`Tracer`]. Spans nest on a thread, so a span's self time (its
//! duration minus the part its children cover) is known when it ends;
//! the tracer adds it to per-name totals at once and keeps only the
//! first [`MAX_KEPT_SPANS`] spans themselves, for the Chrome
//! trace-event JSON written at the end.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Finished spans each tracer keeps for the Chrome trace; self times
/// cover every span.
pub const MAX_KEPT_SPANS: usize = 100_000;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique across all tracers of a run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request (query, commit, flush, ...) it belongs to.
    pub req: u64,
    /// The traced call.
    pub name: &'static str,
    /// The thread that recorded it.
    pub tid: u32,
    /// Start, as an offset from the run's epoch.
    pub start: Duration,
    /// End, as an offset from the run's epoch.
    pub end: Duration,
}

/// Count and summed self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: usize,
    /// Their summed self time.
    pub total: Duration,
}

impl SelfTime {
    /// Mean self time in milliseconds (0 without spans).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e3 / self.count as f64
        }
    }
}

/// Self time per `(root, name)`: grouped by the name of the span's
/// request root and its own name. A root span is grouped under its own
/// name twice, as `(name, name)`.
pub type SelfTimes = HashMap<(&'static str, &'static str), SelfTime>;

/// Adds `other`'s totals to `into`.
pub fn merge_self_times(into: &mut SelfTimes, other: &SelfTimes) {
    for (key, t) in other {
        let e = into.entry(*key).or_default();
        e.count += t.count;
        e.total += t.total;
    }
}

/// A per-thread span recorder. Spans nest: a span begun while another
/// is open becomes its child and inherits its request id.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    next: u64,
    /// Open spans, outermost first, each with its children's summed
    /// duration so far.
    open: Vec<(Span, Duration)>,
    kept: Vec<Span>,
    finished: usize,
    self_times: SelfTimes,
}

impl Tracer {
    /// A tracer for thread `tid`; `epoch` is shared by every tracer
    /// of the run so their timelines line up.
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Self {
            epoch,
            tid,
            next: 0,
            open: Vec::new(),
            kept: Vec::new(),
            finished: 0,
            self_times: SelfTimes::new(),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next += 1;
        (u64::from(self.tid) << 40) | self.next
    }

    /// Opens a span; a root span starts a new request.
    pub fn begin(&mut self, name: &'static str) {
        let id = self.fresh_id();
        let (parent, req) = match self.open.last() {
            Some((p, _)) => (Some(p.id), p.req),
            None => (None, id),
        };
        let start = self.epoch.elapsed();
        let span = Span {
            id,
            parent,
            req,
            name,
            tid: self.tid,
            start,
            end: start,
        };
        self.open.push((span, Duration::ZERO));
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    /// Panics when no span is open: begin/end are paired by the
    /// benchmark's own code, so an unpaired end is a bug in it.
    pub fn end(&mut self) {
        let (mut span, children) = self.open.pop().expect("end without an open span");
        span.end = self.epoch.elapsed();
        let duration = span.end - span.start;
        let root = self.open.first().map_or(span.name, |(r, _)| r.name);
        let t = self.self_times.entry((root, span.name)).or_default();
        t.count += 1;
        t.total += duration.saturating_sub(children);
        if let Some((_, parent_children)) = self.open.last_mut() {
            *parent_children += duration;
        }
        self.finished += 1;
        if self.kept.len() < MAX_KEPT_SPANS {
            self.kept.push(span);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Spans finished, kept or not.
    pub fn finished(&self) -> usize {
        self.finished
    }

    /// The self times of every finished span.
    pub fn self_times(&self) -> &SelfTimes {
        &self.self_times
    }

    /// The kept spans, in the order they finished.
    pub fn into_spans(self) -> Vec<Span> {
        self.kept
    }
}

/// Runs `f` inside a span when a tracer is given, untraced otherwise.
pub fn maybe_span<T>(tracer: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Writes `spans` (ordered by start time) as Chrome trace-event JSON,
/// loadable in `chrome://tracing` or Perfetto; `finished` is how many
/// spans were recorded in all, kept or not.
pub fn write_chrome_trace(path: &Path, spans: &[Span], finished: usize) -> io::Result<()> {
    let mut order: Vec<&Span> = spans.iter().collect();
    order.sort_unstable_by_key(|s| (s.start, s.id));
    let dropped = finished.saturating_sub(order.len());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
    let mut line = String::new();
    for (i, s) in order.iter().enumerate() {
        line.clear();
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            line,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.tid,
            s.start.as_secs_f64() * 1e6,
            (s.end - s.start).as_secs_f64() * 1e6,
            s.id,
            parent,
            s.req
        )
        .expect("formatting into a String cannot fail");
        out.write_all(line.as_bytes())?;
    }
    write!(
        out,
        "\n],\"otherData\":{{\"spans\":{finished},\"dropped\":{dropped}}}}}\n"
    )?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.begin("query");
        t.span("plan", || std::thread::sleep(Duration::from_millis(2)));
        t.span("execute", || std::thread::sleep(Duration::from_millis(4)));
        std::thread::sleep(Duration::from_millis(1));
        t.end();
        let st = t.self_times().clone();
        let spans = t.into_spans();
        let dur = |name| {
            let s = spans.iter().find(|s| s.name == name).unwrap();
            s.end - s.start
        };
        assert_eq!(st[&("query", "plan")].total, dur("plan"));
        assert_eq!(st[&("query", "execute")].count, 1);
        let own = st[&("query", "query")].total;
        assert_eq!(own, dur("query") - dur("plan") - dur("execute"));
        assert!(own >= Duration::from_millis(1));
    }

    #[test]
    fn tracer_nests_and_shares_request() {
        let mut t = Tracer::new(Instant::now(), 3);
        t.begin("query");
        t.span("plan", || ());
        t.end();
        t.span("commit", || ());
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        let plan = spans.iter().find(|s| s.name == "plan").unwrap();
        let query = spans.iter().find(|s| s.name == "query").unwrap();
        let commit = spans.iter().find(|s| s.name == "commit").unwrap();
        assert_eq!(plan.parent, Some(query.id));
        assert_eq!(plan.req, query.req);
        assert_eq!(commit.parent, None);
        assert_ne!(commit.req, query.req);
    }
}
