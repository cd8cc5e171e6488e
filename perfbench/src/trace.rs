//! In-memory spans around calls into the library's layers.
//!
//! A span has a name, a start, an end, a parent and the charged `Costs`
//! delta of the ledger the wrapped call charged. Spans stay in memory until
//! the run ends. A layer's self time is its span minus its children's
//! spans; its self charge is its charge minus its children's charges.

use std::collections::BTreeMap;
use std::time::Instant;

use wec_asym::{Costs, Ledger};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub costs: Costs,
}

/// An open span: its index and the ledger's costs when it began.
#[must_use]
pub struct Open {
    idx: usize,
    before: Costs,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Totals of all spans of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub count: u64,
    pub incl_ns: u64,
    pub self_ns: u64,
    pub incl_costs: Costs,
    pub self_costs: Costs,
}

impl Tracer {
    /// A tracer that records when `on`; when off every call is a no-op.
    /// `capacity` spans are allocated up front, before anything is timed.
    pub fn new(on: bool, capacity: usize) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span charged against `led`. `None` while tracing is off.
    pub fn begin(&mut self, name: &'static str, led: &Ledger) -> Option<Open> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            costs: Costs::ZERO,
        });
        self.open.push(idx);
        Some(Open {
            idx,
            before: led.costs(),
        })
    }

    /// Close the span `open` (spans close innermost first).
    pub fn end(&mut self, open: Option<Open>, led: &Ledger) {
        let Some(open) = open else { return };
        let end = self.now_ns();
        let span = &mut self.spans[open.idx];
        span.end_ns = end;
        span.costs = led.costs().since(&open.before);
        let top = self.open.pop();
        debug_assert_eq!(top, Some(open.idx), "spans close innermost first");
    }

    /// `f` inside a span named `name` charged against `led`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        led: &mut Ledger,
        f: impl FnOnce(&mut Ledger) -> R,
    ) -> R {
        let open = self.begin(name, led);
        let r = f(led);
        self.end(open, led);
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals with self time and self charge.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_costs = vec![Costs::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
                child_costs[p] += s.costs;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.incl_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
            t.incl_costs += s.costs;
            t.self_costs += s.costs.since(&child_costs[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_charge_exclude_children() {
        let mut tr = Tracer::new(true, 8);
        let mut led = Ledger::new(4);
        let outer = tr.begin("outer", &led);
        led.write(3);
        tr.span("inner", &mut led, |l| {
            l.read(5);
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        tr.end(outer, &led);
        let t = tr.totals();
        assert_eq!(t["inner"].incl_costs.asym_reads, 5);
        assert_eq!(t["outer"].incl_costs.asym_reads, 5);
        assert_eq!(t["outer"].self_costs.asym_reads, 0);
        assert_eq!(t["outer"].self_costs.asym_writes, 3);
        assert!(t["outer"].self_ns < t["inner"].incl_ns);
        assert_eq!(tr.spans()[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false, 8);
        let mut led = Ledger::new(4);
        let x = tr.span("a", &mut led, |l| {
            l.op(1);
            7
        });
        assert_eq!(x, 7);
        assert!(tr.spans().is_empty());
    }
}
