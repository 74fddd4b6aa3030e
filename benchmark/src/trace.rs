//! Spans recorded from the benchmark's own files around the calls into
//! each layer's public functions (spans inside the program are a later
//! issue). A span is name, start, end, the span that caused it, and the
//! request it belongs to; spans stay in memory and are written as TSV
//! when the run ends. A disabled tracer never reads the clock.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// One thread's span recorder. Threads each own one (sharing the epoch)
/// and the recorders are merged when the threads have joined.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Per-name totals: how often, how long, and how long excluding the
/// part covered by child spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    /// A recorder that records nothing (the untraced run).
    pub fn off() -> Tracer {
        Tracer {
            epoch: None,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder measuring from `epoch`.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer {
            epoch: Some(epoch),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Another recorder with the same epoch and on/off state, for a
    /// second thread.
    pub fn sibling(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) -> SpanId {
        let Some(epoch) = self.epoch else {
            return SpanId(NO_PARENT);
        };
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns: epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            request,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `id` (which must be the innermost open span).
    pub fn exit(&mut self, id: SpanId) {
        let Some(epoch) = self.epoch else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.spans[id.0 as usize].end_ns = epoch.elapsed().as_nanos() as u64;
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += offset;
            }
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut out = Samples::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push(Duration::from_nanos(s.end_ns.saturating_sub(s.start_ns)));
        }
        out
    }

    /// The spans called `name`, in recording order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Count, total and self time per span name. Self time is the
    /// span's duration minus the durations of its direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as one TSV row.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_merge_keeps_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::on(epoch);
        let outer = a.enter("outer", 1);
        let inner = a.enter("inner", 1);
        std::thread::sleep(Duration::from_millis(2));
        a.exit(inner);
        a.exit(outer);
        let mut b = a.sibling();
        let o2 = b.enter("outer", 2);
        let i2 = b.enter("inner", 2);
        b.exit(i2);
        b.exit(o2);
        a.merge(b);
        assert_eq!(a.len(), 4);
        let totals = a.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.count, 2);
        assert_eq!(outer.total_ns - outer.self_ns, inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
        // The merged inner span still points at the merged outer span.
        let merged_inner = a.spans_named("inner").nth(1).unwrap();
        assert_eq!(merged_inner.parent, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter("x", 0);
        t.exit(id);
        assert_eq!(t.len(), 0);
        assert!(!t.enabled());
    }
}
