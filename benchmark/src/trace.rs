//! Spans recorded from outside the program, around the calls into
//! each layer. They stay in memory and are written when the run ends.

use std::time::Instant;

use crate::api::Json;
use crate::json::{count, num, obj, text};

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The verdict this span worked for; spans of one verdict share it.
    pub op: usize,
    /// Units of work behind the span (edges, states, records), 0 if
    /// none was counted.
    pub work: usize,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// Stamped on every span entered from now on.
    pub op: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
            work: 0,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn exit(&mut self, span: usize, work: usize) {
        assert_eq!(self.open.pop(), Some(span), "spans close innermost first");
        self.spans[span].end_ns = self.now();
        self.spans[span].work = work;
    }

    /// A leaf span around `f`; `work` counts what `f` processed.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> T,
        work: impl FnOnce(&T) -> usize,
    ) -> T {
        let span = self.enter(name);
        let result = f();
        let units = work(&result);
        self.exit(span, units);
        result
    }

    /// A leaf span around `f` with no work counted.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time(name, f, |_| 0)
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Seconds inside spans of this name.
    pub fn total(&self, name: &str) -> f64 {
        // An empty float sum is -0.0; adding 0.0 makes it read 0.
        self.named(name).map(Span::seconds).sum::<f64>() + 0.0
    }

    /// Seconds inside spans of this name that worked for verdict `op`.
    pub fn total_in(&self, name: &str, op: usize) -> f64 {
        self.named(name)
            .filter(|s| s.op == op)
            .map(Span::seconds)
            .sum::<f64>()
            + 0.0
    }

    /// Nanoseconds per unit of work over all spans of this name.
    pub fn ns_per_unit(&self, name: &str) -> f64 {
        let work: usize = self.named(name).map(|s| s.work).sum();
        ratio(self.total(name) * 1e9, work as f64)
    }

    /// A span's seconds minus what its child spans cover.
    pub fn self_seconds(&self, span: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span))
            .map(Span::seconds)
            .sum();
        self.spans[span].seconds() - children
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    obj([
                        ("name", text(s.name)),
                        ("start_ns", num(s.start_ns as f64)),
                        ("end_ns", num(s.end_ns as f64)),
                        ("self_s", num(self.self_seconds(i))),
                        ("parent", s.parent.map_or(Json::Null, count)),
                        ("op", count(s.op)),
                        ("work", count(s.work)),
                    ])
                })
                .collect(),
        )
    }
}

/// `a / b`, and 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
