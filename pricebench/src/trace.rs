//! In-memory spans for the traced run.
//!
//! A span is recorded only around a call into a layer's public
//! functions made from this benchmark's own files. Spans are kept in
//! memory while a pass runs, folded into per-name statistics after it
//! (a span's self time is its duration minus what its children cover),
//! and written to a tab-separated file up to [`FILE_CAP`] spans.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// Spans written to the span file; later ones are only aggregated.
pub const FILE_CAP: u64 = 400_000;

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    request: u64,
}

/// Aggregate of every span with one name.
#[derive(Default)]
pub struct SpanStat {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

impl SpanStat {
    /// Mean duration in µs (0 when no span was recorded).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// The span recorder of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stats: BTreeMap<&'static str, SpanStat>,
    out: BufWriter<File>,
    written: u64,
}

impl Tracer {
    /// A recorder writing its span file to `path`.
    pub fn create(path: &Path) -> Result<Self, String> {
        let file =
            File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut out = BufWriter::new(file);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\trequest")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stats: BTreeMap::new(),
            out,
            written: 0,
        })
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index, which children
    /// pass as their parent until the next [`Tracer::fold`].
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request: u64,
    ) -> u32 {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Sets the end of a span recorded before its children finished.
    pub fn close(&mut self, index: u32, end: Instant) {
        let end = self.ns(end);
        self.spans[index as usize].end = end;
    }

    /// Folds the spans recorded since the last fold into the
    /// statistics and the span file. Every span must be closed.
    pub fn fold(&mut self) -> Result<(), String> {
        let mut children: Vec<(u32, u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent != ROOT)
            .map(|s| (s.parent, s.start, s.end))
            .collect();
        children.sort_unstable();
        let mut covered = vec![0u64; self.spans.len()];
        let mut k = 0;
        while k < children.len() {
            let parent = children[k].0;
            let (p_start, p_end) = {
                let p = &self.spans[parent as usize];
                (p.start, p.end)
            };
            let (mut run_start, mut run_end) = (0u64, 0u64);
            while k < children.len() && children[k].0 == parent {
                let (start, end) = (children[k].1.max(p_start), children[k].2.min(p_end));
                if start < end {
                    if start > run_end {
                        covered[parent as usize] += run_end - run_start;
                        (run_start, run_end) = (start, end);
                    } else {
                        run_end = run_end.max(end);
                    }
                }
                k += 1;
            }
            covered[parent as usize] += run_end - run_start;
        }
        let base = self.written;
        for (index, span) in self.spans.iter().enumerate() {
            let duration = span.end.saturating_sub(span.start);
            let stat = self.stats.entry(span.name).or_default();
            stat.count += 1;
            stat.total_ns += duration;
            stat.self_ns += duration.saturating_sub(covered[index]);
            let line = base + index as u64;
            if line < FILE_CAP {
                let parent = if span.parent == ROOT {
                    -1
                } else {
                    (base + u64::from(span.parent)) as i64
                };
                writeln!(
                    self.out,
                    "{line}\t{}\t{}\t{}\t{parent}\t{}",
                    span.name, span.start, span.end, span.request
                )
                .map_err(|e| format!("cannot write span file: {e}"))?;
            }
        }
        self.written += self.spans.len() as u64;
        self.spans.clear();
        Ok(())
    }

    /// The aggregate for `name` (empty if none was recorded).
    #[must_use]
    pub fn stat(&self, name: &str) -> Option<&SpanStat> {
        self.stats.get(name)
    }

    /// Folds what is left, flushes the span file and returns every
    /// aggregate by span name.
    pub fn finish(mut self) -> Result<BTreeMap<&'static str, SpanStat>, String> {
        self.fold()?;
        self.out
            .flush()
            .map_err(|e| format!("cannot flush span file: {e}"))?;
        Ok(self.stats)
    }
}

/// Mean of `name`'s durations in µs, 0 when none was recorded.
#[must_use]
pub fn mean_us(stats: &BTreeMap<&'static str, SpanStat>, name: &str) -> f64 {
    stats.get(name).map_or(0.0, SpanStat::mean_us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let dir = std::env::temp_dir().join(format!("pricebench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut tracer = Tracer::create(&dir.join("spans.tsv")).unwrap();
        let t = tracer.epoch;
        let at = |us: u64| t + Duration::from_micros(us);
        let root = tracer.span("root", at(0), at(100), ROOT, 1);
        tracer.span("a", at(10), at(30), root, 1);
        tracer.span("b", at(20), at(50), root, 1); // overlaps a
        tracer.span("c", at(90), at(120), root, 1); // runs past the root
        let stats = tracer.finish().unwrap();
        assert_eq!(stats["root"].total_ns, 100_000);
        assert_eq!(stats["root"].self_ns, 100_000 - 40_000 - 10_000);
        assert_eq!(stats["a"].self_ns, 20_000);
        let file = std::fs::read_to_string(dir.join("spans.tsv")).unwrap();
        assert_eq!(file.lines().count(), 5);
        assert!(file.lines().nth(2).unwrap().ends_with("\t0\t1"), "{file}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
