//! In-memory spans recorded around calls into the simulator's crates.
//!
//! A span is `(id, parent, request, name, start, end, thread)`. Spans are
//! only recorded while tracing is on (`--trace 1`); otherwise
//! [`span`] returns an inert guard. They stay in memory until the run
//! ends and are then written out as JSON lines.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// The root span of the request (or cell) this span belongs to.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// `(current span, its request)` on this thread.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records a span from now until the guard drops, as a child of the
/// span current on this thread.
pub fn span(name: &'static str) -> Guard {
    span_if(true, name)
}

/// [`span`], recorded only when `on` (and tracing) is set.
pub fn span_if(on: bool, name: &'static str) -> Guard {
    if !on || !enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, request) = CURRENT.with(Cell::get);
    let request = if parent == 0 { id } else { request };
    CURRENT.with(|c| c.set((id, request)));
    Guard(Some(Open {
        id,
        parent,
        request,
        name,
        start: Instant::now(),
    }))
}

struct Open {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start: Instant,
}

pub struct Guard(Option<Open>);

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(o) = self.0.take() else { return };
        let end = Instant::now();
        let e = epoch();
        let s = Span {
            id: o.id,
            parent: o.parent,
            request: o.request,
            name: o.name,
            start_ns: o.start.duration_since(e).as_nanos() as u64,
            end_ns: end.duration_since(e).as_nanos() as u64,
            thread: THREAD.with(|t| *t),
        };
        CURRENT.with(|c| c.set((o.parent, if o.parent == 0 { 0 } else { o.request })));
        SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(s);
    }
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Per span name: `(count, total ns, self ns)`, where a span's self time
/// is its duration minus the part of it covered by its child spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.ns();
        e.2 += s.ns() - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let (mut total, mut cur) = (0, None::<(u64, u64)>);
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            f,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, s.thread
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered_ns(&[(0, 10), (5, 20), (30, 40)], 0, 100), 30);
        assert_eq!(covered_ns(&[(0, 10), (5, 20)], 8, 12), 4);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mk = |id, parent, a, b| Span {
            id,
            parent,
            request: 1,
            name: if parent == 0 { "outer" } else { "inner" },
            start_ns: a,
            end_ns: b,
            thread: 1,
        };
        let st = self_times(&[mk(1, 0, 0, 100), mk(2, 1, 10, 30), mk(3, 1, 20, 50)]);
        assert_eq!(st["outer"], (1, 100, 60));
        assert_eq!(st["inner"], (2, 50, 50));
    }
}
