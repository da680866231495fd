//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into each layer's public functions.
//!
//! Every span adds to an exact per-operation aggregate (calls, items,
//! nanoseconds). The first [`SPAN_LOG_CAP`] spans are also kept verbatim
//! (name, start, end, parent) in memory and written out when the
//! benchmark ends; later ones are only counted, so a multi-million-tick
//! run stays in bounded memory.

use rmb_serve::{Completion, ServeTarget, TargetTotals};
use rmb_sim::SimRng;
use rmb_workloads::ArrivalStream;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept verbatim per tracer.
const SPAN_LOG_CAP: usize = 1 << 16;

/// A traced operation: one public entry point of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `RmbNetwork::submit_all` over one flat batch (items: messages).
    CoreSubmit,
    /// `RmbNetwork::run_to_quiescence` over one flat batch (items: ticks).
    CoreRunToQuiescence,
    /// `RmbNetwork::tick`, through `FlatTarget::tick`.
    CoreTick,
    /// `HierNetwork::tick`.
    HierTick,
    /// `HierNetwork::has_due_work`.
    HierHasDueWork,
    /// `serve()` (items: ticks).
    Serve,
    /// `ServeTarget::submit`.
    TargetSubmit,
    /// `ServeTarget::poll`.
    TargetPoll,
    /// `ServeTarget::utilization`.
    TargetUtilization,
    /// `ArrivalStream::next_gap`.
    NextGap,
}

impl Op {
    const COUNT: usize = 10;

    /// Span name: the layer (crate) and the function called.
    pub const fn name(self) -> &'static str {
        match self {
            Op::CoreSubmit => "rmb-core.submit",
            Op::CoreRunToQuiescence => "rmb-core.run_to_quiescence",
            Op::CoreTick => "rmb-core.tick",
            Op::HierTick => "rmb-hier.tick",
            Op::HierHasDueWork => "rmb-hier.has_due_work",
            Op::Serve => "rmb-serve.serve",
            Op::TargetSubmit => "rmb-serve.target.submit",
            Op::TargetPoll => "rmb-serve.target.poll",
            Op::TargetUtilization => "rmb-serve.target.utilization",
            Op::NextGap => "rmb-workloads.arrivals.next_gap",
        }
    }
}

/// Exact aggregate of one operation's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stat {
    /// Spans recorded.
    pub calls: u64,
    /// Units of work the spans covered (messages, ticks), when counted.
    pub items: u64,
    /// Total span time.
    pub ns: u64,
}

impl Stat {
    /// Nanoseconds per span (0 when there was none).
    pub fn ns_per_call(&self) -> f64 {
        per(self.ns, self.calls)
    }

    /// Nanoseconds per unit of work (0 when there was none).
    pub fn ns_per_item(&self) -> f64 {
        per(self.ns, self.items)
    }
}

fn per(ns: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    op: Op,
    start_ns: u64,
    end_ns: u64,
    /// Index of the causing span in the merged log, or [`NO_PARENT`].
    parent: u32,
}

/// `parent` of a span nothing else caused: a call the benchmark makes
/// directly.
pub const NO_PARENT: u32 = u32::MAX;

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    parent: u32,
    stats: [Stat; Op::COUNT],
    log: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A recorder whose span times count from `epoch`; spans it records
    /// name span `parent` of the merged log as their cause.
    pub fn new(epoch: Instant, parent: u32) -> Self {
        Tracer {
            epoch,
            parent,
            stats: [Stat::default(); Op::COUNT],
            log: Vec::new(),
            dropped: 0,
        }
    }

    /// Runs `f` as one span of `op` covering `items` units of work.
    #[inline]
    pub fn span<R>(&mut self, op: Op, items: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(op, items, start, end);
        out
    }

    /// Records a span measured by the caller.
    pub fn record(&mut self, op: Op, items: u64, start: Instant, end: Instant) {
        let ns = end.duration_since(start).as_nanos() as u64;
        let s = &mut self.stats[op as usize];
        s.calls += 1;
        s.items += items;
        s.ns += ns;
        if self.log.len() < SPAN_LOG_CAP {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.log.push(Span {
                op,
                start_ns,
                end_ns: start_ns + ns,
                parent: self.parent,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Time from the epoch to the start of the first kept span of `op`.
    pub fn first_start(&self, op: Op) -> Option<std::time::Duration> {
        self.log
            .iter()
            .find(|s| s.op == op)
            .map(|s| std::time::Duration::from_nanos(s.start_ns))
    }

    /// Aggregate of one operation.
    pub fn stat(&self, op: Op) -> Stat {
        self.stats[op as usize]
    }

    /// Folds another recorder's spans into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (a, b) in self.stats.iter_mut().zip(other.stats) {
            a.calls += b.calls;
            a.items += b.items;
            a.ns += b.ns;
        }
        let room = SPAN_LOG_CAP.saturating_sub(self.log.len());
        let kept = other.log.len().min(room);
        self.dropped += other.dropped + (other.log.len() - kept) as u64;
        self.log.extend_from_slice(&other.log[..kept]);
    }

    /// Writes the span log as JSON lines (one span per line, then one
    /// aggregate line per operation).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.log.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"span\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.op.name(),
                s.start_ns,
                s.end_ns
            );
        }
        for (i, s) in self.stats.iter().enumerate() {
            if s.calls > 0 {
                let _ = writeln!(
                    out,
                    "{{\"aggregate\":\"{}\",\"calls\":{},\"items\":{},\"ns\":{}}}",
                    OPS[i].name(),
                    s.calls,
                    s.items,
                    s.ns
                );
            }
        }
        let _ = writeln!(out, "{{\"dropped_spans\":{}}}", self.dropped);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Every [`Op`], in discriminant order.
const OPS: [Op; Op::COUNT] = [
    Op::CoreSubmit,
    Op::CoreRunToQuiescence,
    Op::CoreTick,
    Op::HierTick,
    Op::HierHasDueWork,
    Op::Serve,
    Op::TargetSubmit,
    Op::TargetPoll,
    Op::TargetUtilization,
    Op::NextGap,
];

/// A [`ServeTarget`] decorator that records a span around every
/// `submit`, `tick`, `poll` and `utilization` call into the wrapped
/// target. Other calls pass through untimed.
#[derive(Debug)]
pub struct TimedTarget<T: ServeTarget> {
    /// The wrapped target.
    pub inner: T,
    /// Spans recorded so far (a cell: `utilization` takes `&self`).
    pub tracer: RefCell<Tracer>,
}

impl<T: ServeTarget> ServeTarget for TimedTarget<T> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn node_count(&self) -> u32 {
        self.inner.node_count()
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn submit(&mut self, source: u32, dest: u32, flits: u32) {
        let inner = &mut self.inner;
        self.tracer
            .get_mut()
            .span(Op::TargetSubmit, 1, || inner.submit(source, dest, flits));
    }

    fn tick(&mut self) {
        let inner = &mut self.inner;
        self.tracer.get_mut().span(Op::CoreTick, 1, || inner.tick());
    }

    fn poll(&mut self, out: &mut Vec<Completion>) {
        let inner = &mut self.inner;
        self.tracer
            .get_mut()
            .span(Op::TargetPoll, 1, || inner.poll(out));
    }

    fn utilization(&self) -> f64 {
        self.tracer
            .borrow_mut()
            .span(Op::TargetUtilization, 1, || self.inner.utilization())
    }

    fn totals(&self) -> TargetTotals {
        self.inner.totals()
    }

    fn refusals(&self) -> u64 {
        self.inner.refusals()
    }

    fn latency_quantile(&self, phi: f64) -> Option<u64> {
        self.inner.latency_quantile(phi)
    }

    fn is_stalled(&self) -> bool {
        self.inner.is_stalled()
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }
}

/// An [`ArrivalStream`] decorator that records a span around every
/// `next_gap` call.
#[derive(Debug)]
pub struct TimedArrivals<A: ArrivalStream> {
    /// The wrapped stream.
    pub inner: A,
    /// Spans recorded so far.
    pub tracer: Tracer,
}

impl<A: ArrivalStream> ArrivalStream for TimedArrivals<A> {
    fn next_gap(&mut self, node: u32, rng: &mut SimRng) -> u64 {
        let inner = &mut self.inner;
        self.tracer
            .span(Op::NextGap, 1, || inner.next_gap(node, rng))
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}
