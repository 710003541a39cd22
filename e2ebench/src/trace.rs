//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out when the run ends.
//!
//! A span has a name, start, end, the span that caused it, the request
//! it belongs to, and how many operations it covers (a batch of tiny
//! calls is one span, so the clock reads do not swamp what they time).
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `graph.to_csr`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (or batch) the span belongs to.
    pub req: u64,
    /// Operations the span covers.
    pub ops: u64,
}

/// Self-time totals of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    /// Spans seen.
    pub spans: u64,
    /// Operations they cover.
    pub ops: u64,
    /// Summed self time in nanoseconds.
    pub self_ns: f64,
}

impl SelfTime {
    /// Mean self time per operation, in nanoseconds.
    pub fn per_op_ns(&self) -> f64 {
        self.self_ns / self.ops.max(1) as f64
    }
}

/// Span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
#[must_use = "a span must be closed with Tracer::exit"]
pub struct Open(usize);

impl Tracer {
    /// An empty recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The clock origin, for recorders on helper threads.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens `name` for request `req`, covering `ops` operations, as a
    /// child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, req: u64, ops: u64) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
            ops,
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes the innermost open span, which must be `span`.
    pub fn exit(&mut self, span: Open) {
        assert_eq!(self.open.pop(), Some(span.0), "spans close innermost first");
        self.spans[span.0].end_ns = self.now_ns();
    }

    /// Adds a closed span that ran from `start` to `end` outside any open
    /// span, for work whose spans overlap (pipelined requests).
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            req,
            ops: 1,
        });
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, ops: u64, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name, req, ops);
        let out = f();
        self.exit(span);
        out
    }

    /// Moves every span of `other` (recorded on another thread against the
    /// same origin) into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed tracer has open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the union of
    /// its children's intervals.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let entry = out.entry(s.name).or_default();
            entry.spans += 1;
            entry.ops += s.ops;
            entry.self_ns += (s.end_ns - s.start_ns - covered) as f64;
        }
        out
    }

    /// Writes the spans as tab-separated lines:
    /// `id parent req name start_ns end_ns ops`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns\tops")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns, s.ops
            )?;
        }
        out.flush()
    }
}
