//! In-memory host-time spans recorded around calls into the simulator's
//! layers, and the self time of each layer over them.
//!
//! A [`Ctx`] carries an optional [`Tracer`] and the current parent span.
//! With no tracer (the untraced run) [`Ctx::span`] just calls its closure.
//! Spans stay in memory until the run ends; [`Tracer::to_jsonl`] writes
//! them out.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the call processed (entries, cells, a trial's simulated
    /// time, …), 0 if none.
    pub items: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span sink shared by every thread of one workload run.
pub struct Tracer {
    run_id: u64,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose spans all carry `run_id`.
    pub fn new(run_id: u64) -> Tracer {
        Tracer {
            run_id,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// One JSON object per span, each carrying the run id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"items\":{}}}\n",
                self.run_id, s.id, parent, s.name, s.start_ns, s.end_ns, s.items
            ));
        }
        out
    }
}

/// Where a call sits: the tracer (if tracing) and the enclosing span.
#[derive(Clone, Copy, Default)]
pub struct Ctx<'a> {
    tracer: Option<&'a Tracer>,
    parent: Option<u64>,
}

impl<'a> Ctx<'a> {
    /// The untraced context.
    pub fn off() -> Ctx<'static> {
        Ctx::default()
    }

    /// A root context on `tracer`.
    pub fn on(tracer: &'a Tracer) -> Ctx<'a> {
        Ctx {
            tracer: Some(tracer),
            parent: None,
        }
    }

    /// Run `f` inside a span named `name`; `f` sees the child context.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce(Ctx<'a>) -> R) -> R {
        self.span_items(name, |c| (f(c), 0))
    }

    /// [`Ctx::span`] for a call that reports how many items it processed.
    pub fn span_items<R>(&self, name: &'static str, f: impl FnOnce(Ctx<'a>) -> (R, u64)) -> R {
        let Some(t) = self.tracer else {
            return f(*self).0;
        };
        let id = t.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = t.now_ns();
        let (r, items) = f(Ctx {
            tracer: self.tracer,
            parent: Some(id),
        });
        let end_ns = t.now_ns();
        t.spans.lock().expect("span sink poisoned").push(Span {
            id,
            parent: self.parent,
            name,
            start_ns,
            end_ns,
            items,
        });
        r
    }
}

/// Name under which time covered by a root span but by none of its
/// descendants is reported.
pub const UNATTRIBUTED: &str = "unattributed";

/// Self time per span name: each span's duration minus the durations of
/// its child spans. A root span's self time goes to [`UNATTRIBUTED`], so
/// the values sum to the roots' total duration.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let label = |s: &Span| {
        if s.parent.is_none() {
            UNATTRIBUTED
        } else {
            s.name
        }
    };
    // whole nanoseconds, so the sum is exact
    let mut ns: BTreeMap<&'static str, i128> = BTreeMap::new();
    for s in spans {
        let d = i128::from(s.end_ns - s.start_ns);
        *ns.entry(label(s)).or_insert(0) += d;
        if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
            *ns.entry(label(p)).or_insert(0) -= d;
        }
    }
    ns.into_iter().map(|(k, v)| (k, v as f64 * 1e-9)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
            items: 0,
        }
    }

    #[test]
    fn nested_spans_attribute_self_time_and_sum_to_wall() {
        let spans = vec![
            span(1, None, "job", 0, 100),
            span(2, Some(1), "a", 10, 60),
            span(3, Some(2), "b", 20, 30),
            span(4, Some(1), "c", 70, 90),
        ];
        let got = self_times(&spans);
        let ns = |x: f64| (x * 1e9).round();
        assert_eq!(ns(got["a"]), 40.0);
        assert_eq!(ns(got["b"]), 10.0);
        assert_eq!(ns(got["c"]), 20.0);
        assert_eq!(ns(got[UNATTRIBUTED]), 30.0);
    }

    #[test]
    fn untraced_context_records_nothing() {
        let t = Tracer::new(7);
        assert_eq!(Ctx::off().span("x", |_| 3), 3);
        let on = Ctx::on(&t);
        on.span("outer", |c| c.span_items("inner", |_| ((), 5)));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].items, 5);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(t.to_jsonl().lines().all(|l| l.starts_with("{\"run\":7,")));
    }
}
