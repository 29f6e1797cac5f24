//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end, a parent span and a request id
//! shared by every span of one request. Spans stay in memory while the
//! workload runs and are written out once it ends. A disabled tracer
//! records nothing, so untraced runs pay one atomic load per call site.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
}

pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Seconds since the tracer's epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Converts an instant to tracer time.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// A fresh span id (0 when tracing is off).
    pub fn id(&self) -> u64 {
        if self.on() {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a finished span with a pre-allocated id.
    pub fn record(&self, id: u64, name: &'static str, parent: u64, req: u64, start: f64, end: f64) {
        if id == 0 || !self.on() {
            return;
        }
        let span = Span {
            id,
            parent,
            req,
            name,
            start,
            end,
        };
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span);
    }

    /// Runs `f` inside a span; `f` receives the span id so that its
    /// calls can record child spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.id();
        if id == 0 {
            return f(0);
        }
        let start = self.now();
        let out = f(id);
        self.record(id, name, parent, req, start, self.now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Writes every span as tab-separated `id parent req name start end`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_s\tend_s")?;
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{:.9}\t{:.9}",
                s.id, s.parent, s.req, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time and count per span name, and the share of root-span time
/// that no child span covers.
pub struct Breakdown {
    pub self_s: BTreeMap<&'static str, f64>,
    pub count: BTreeMap<&'static str, usize>,
    pub untraced_share: f64,
}

impl Breakdown {
    /// One `self_ms.<span> = total (count spans)` line per span name.
    pub fn render(&self) -> Vec<(String, String)> {
        self.self_s
            .iter()
            .map(|(name, s)| {
                (
                    format!("self_ms.{name}"),
                    format!("{:.3} ({} spans)", s * 1e3, self.count[name]),
                )
            })
            .collect()
    }
}

/// Module prefixes of the layers the benchmark times. A span whose
/// name starts with one of them wraps a call into that layer; any other
/// span (`read`, `write`, `produce.pass`, `serve.replay`,
/// `generator.lag`) is the benchmark's own.
const LAYERS: [&str; 12] = [
    "atl03.",
    "core.",
    "nn.",
    "sparklite.",
    "products.",
    "catalog.",
    "tile.",
    "cache.",
    "wire.",
    "server.",
    "client.",
    "router.",
];

fn is_layer(name: &str) -> bool {
    LAYERS.iter().any(|p| name.starts_with(p))
}

/// Self time per span name, and the untraced share: the part of root
/// span time that no child span covers, as a share of all root time. A
/// root that is itself a layer call counts as covered; any other root
/// counts its time not covered by children (all of it when it has
/// none) as untraced, so a layer missing from the breakdown shows.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    let mut self_s = BTreeMap::new();
    let mut count = BTreeMap::new();
    let (mut root_total, mut root_uncovered) = (0.0, 0.0);
    for s in spans {
        let dur = (s.end - s.start).max(0.0);
        let own = match children.get(&s.id) {
            Some(k) => (dur - covered(k.clone(), s.start, s.end)).max(0.0),
            None => dur,
        };
        *self_s.entry(s.name).or_insert(0.0) += own;
        *count.entry(s.name).or_insert(0) += 1;
        if s.parent == 0 {
            root_total += dur;
            if !is_layer(s.name) {
                root_uncovered += own;
            }
        }
    }
    Breakdown {
        self_s,
        count,
        untraced_share: if root_total > 0.0 {
            root_uncovered / root_total
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                req: 1,
                name: "root",
                start: 0.0,
                end: 10.0,
            },
            Span {
                id: 2,
                parent: 1,
                req: 1,
                name: "a",
                start: 1.0,
                end: 4.0,
            },
            Span {
                id: 3,
                parent: 1,
                req: 1,
                name: "b",
                start: 3.0,
                end: 6.0,
            },
        ];
        let b = breakdown(&spans);
        assert!((b.self_s["root"] - 5.0).abs() < 1e-12);
        assert!((b.untraced_share - 0.5).abs() < 1e-12);
        // A childless layer call is covered; a childless request root
        // is not.
        let leaf = |name| {
            [Span {
                id: 9,
                parent: 0,
                req: 0,
                name,
                start: 0.0,
                end: 10.0,
            }]
        };
        assert_eq!(breakdown(&leaf("nn.train_s")).untraced_share, 0.0);
        assert_eq!(breakdown(&leaf("write")).untraced_share, 1.0);
        assert!((b.self_s["a"] - 3.0).abs() < 1e-12);
    }
}
