//! In-memory spans for the traced run.
//!
//! The benchmark times its own calls into each layer's public functions:
//! a span is opened before the call and closed after it, with the span
//! that caused it as parent and the op it belongs to.  Spans stay in
//! memory while the run measures and are written out once at the end.
//! Timestamps are process CPU time since the recorder was made, so a
//! span excludes the time the hypervisor ran other guests (see
//! `timing`).

use crate::timing::cpu_ns;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The op (workload operation) this span belongs to.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch_ns: u64,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose timestamps count from now.
    pub fn start() -> Spans {
        Spans {
            epoch_ns: cpu_ns(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        cpu_ns() - self.epoch_ns
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Total nanoseconds and count per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut totals = BTreeMap::new();
        for s in &self.spans {
            let entry = totals.entry(s.name).or_insert((0, 0));
            entry.0 += s.end_ns - s.start_ns;
            entry.1 += 1;
        }
        totals
    }

    /// Writes one JSON object per span, one per line.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
