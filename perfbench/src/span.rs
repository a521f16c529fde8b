//! An in-memory span recorder for the traced run.
//!
//! A span is a name, a start and end time, the span that caused it and a
//! request id. Spans nest through a per-thread stack: a span opened while
//! another is open on the same thread becomes its child. They stay in
//! memory until [`Recorder::take`]; self time is computed afterwards.
//! Only the traced run records spans, from the benchmark's own files,
//! around calls into the program's public functions.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Request id the span belongs to, 0 outside any request.
    pub req: u64,
    /// Stage name.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// Collects spans from any thread.
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        OPEN.with(|s| s.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            req: REQUEST.with(Cell::get),
            name,
            start_ns: start,
            end_ns: end,
        };
        self.spans
            .lock()
            .expect("span recorder mutex poisoned")
            .push(span);
        out
    }

    /// Runs `f` as request `req`: a root span named `name` whose
    /// descendants on this thread carry the same request id.
    pub fn request<R>(&self, req: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        let prev = REQUEST.with(|r| r.replace(req));
        let out = self.span(name, f);
        REQUEST.with(|r| r.set(prev));
        out
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span recorder mutex poisoned"))
    }
}

/// Per-stage totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stage {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times: duration minus the part covered by children.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Totals by stage name.
pub fn stages(spans: &[Span]) -> BTreeMap<&'static str, Stage> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Stage> = BTreeMap::new();
    for s in spans {
        let st = out.entry(s.name).or_default();
        st.count += 1;
        st.total_ns += s.dur_ns();
        st.self_ns += own[&s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "b", 20, 50),  // overlaps a: union is 10..50
            span(4, 1, "c", 90, 120), // clipped to the parent's end
            span(5, 2, "leaf", 12, 18),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 40 - 10);
        assert_eq!(own[&2], 20 - 6);
        assert_eq!(own[&5], 6);
        let st = stages(&spans);
        assert_eq!(st["root"].total_ns, 100);
        assert_eq!(st["c"].self_ns, 30);
    }

    #[test]
    fn nesting_follows_the_thread_stack() {
        let rec = Recorder::default();
        rec.request(7, "request", || {
            rec.span("outer", || rec.span("inner", || ()));
            rec.span("second", || ());
        });
        let spans = rec.take();
        let by_name: HashMap<_, _> = spans.iter().map(|s| (s.name, s.clone())).collect();
        assert_eq!(by_name["request"].parent, 0);
        assert_eq!(by_name["outer"].parent, by_name["request"].id);
        assert_eq!(by_name["inner"].parent, by_name["outer"].id);
        assert_eq!(by_name["second"].parent, by_name["request"].id);
        assert!(spans.iter().all(|s| s.req == 7));
        // Without children overlapping, self times add up to the root.
        let own = self_times(&spans);
        let sum: u64 = spans.iter().map(|s| own[&s.id]).sum();
        assert_eq!(sum, by_name["request"].dur_ns());
        assert!(rec.take().is_empty());
    }
}
