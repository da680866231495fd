//! The three workloads, each driven only through public APIs.
//!
//! A workload is split into `setup` (config validation up to the first
//! tick: network construction, workload generation and submission) and
//! `run` (everything from the first tick to the end). `run_traced` is the
//! same run with spans recorded around the calls into each layer; it must
//! produce the same digest as `run`.

use crate::trace::{Op, TimedArrivals, TimedTarget, Tracer, NO_PARENT};
use rmb_core::{LogRetention, RmbNetwork, RunReport};
use rmb_hier::{HierNetwork, HierReport};
use rmb_serve::{serve, AdmissionMode, FlatTarget, ServeConfig, ServeReport};
use rmb_sim::SimRng;
use rmb_types::{HierConfig, LatencySummary, MessageSpec, RmbConfig};
use rmb_workloads::{LocalityTraffic, Permutation, PermutationKind, PoissonStream};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Per-layer metric values by name; names a workload does not reach are
/// absent (reported as 0).
pub type Layers = BTreeMap<&'static str, f64>;

/// What one run of one instance produced: its model outcome and its
/// gates.
#[derive(Debug)]
pub struct Outcome {
    /// Digest of the report and, where retained, the delivered logs.
    pub digest: u64,
    /// Simulated ticks.
    pub ticks: u64,
    /// Messages offered.
    pub attempted: u64,
    /// Messages shed or aborted.
    pub failed: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// The workload's own correctness gate held (no stall, and its
    /// delivery accounting).
    pub ok: bool,
    /// Exact latency of every delivered message, where the run keeps a
    /// delivery log.
    pub latencies: Vec<u64>,
    /// The engine's latency digest, where it keeps no log.
    pub sketch: Option<LatencySummary>,
}

/// A benchmark workload.
pub trait Workload {
    /// State ready for the first tick.
    type Prepared;
    /// State after the last tick.
    type Done;

    /// Independent instances in one pass over the workload.
    fn instances(&self) -> usize;

    /// Config validation through workload generation and submission, for
    /// instance `i`.
    fn setup(&self, i: usize) -> Self::Prepared;

    /// Raw host seconds of the `k`-th set-up sample, from config
    /// validation to the first tick. Samples cycle through the workload's
    /// inputs, so their median does not rest on one input's cost.
    fn setup_sample(&self, k: usize) -> f64 {
        let start = Instant::now();
        let p = self.setup(k % self.instances());
        let raw = start.elapsed().as_secs_f64();
        drop(p);
        raw
    }

    /// The timed run, from the first tick to the end.
    fn run(&self, p: Self::Prepared) -> Self::Done;

    /// The same run with spans recorded into `tracer`, a fresh recorder
    /// whose spans the benchmark causes directly; also returns the
    /// per-layer counters observed around the run.
    fn run_traced(&self, p: Self::Prepared, tracer: &mut Tracer) -> (Self::Done, Layers);

    /// Digest, gates and model metrics of a finished run (untimed).
    fn outcome(&self, done: &Self::Done) -> Outcome;
}

/// The seed of instance `i` of a workload seeded with `seed`
/// (splitmix64, so neighbouring seeds give unrelated instances).
fn instance_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a, a stable digest for run outputs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_run_report(r: &RunReport, h: &mut Fnv) {
    (
        r.ticks,
        r.delivered,
        r.refusals,
        r.compaction_moves,
        r.mean_utilization.to_bits(),
        r.peak_virtual_buses,
        r.undelivered,
        r.stalled,
        r.retries,
        r.aborted,
        r.fault_kills,
        r.makespan(),
    )
        .hash(h);
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer counters of one flat engine's report.
fn core_layers(r: &RunReport, layers: &mut Layers) {
    let delivered = r.delivered as u64;
    layers.insert(
        "rmb-core.grant_ratio",
        ratio(delivered, delivered + r.refusals),
    );
    layers.insert("rmb-core.retries", r.retries as f64);
    layers.insert("rmb-core.compaction_moves", r.compaction_moves as f64);
    layers.insert("rmb-core.mean_utilization", r.mean_utilization);
}

/// Flat-ring configuration with the standard defaults (head timeout
/// 16N, retry backoff N).
fn flat_config(n: u32, k: u16) -> RmbConfig {
    RmbConfig::builder(n, k)
        .head_timeout(16 * u64::from(n))
        .retry_backoff(u64::from(n))
        .build()
        .expect("valid flat config")
}

// ----------------------------------------------------------------------
// flat-batch
// ----------------------------------------------------------------------

/// Random-permutation batches on N=64, k=4 rings, each run to
/// quiescence before the next is submitted.
#[derive(Debug, Clone, Copy)]
pub struct FlatBatch {
    /// Workload seed.
    pub seed: u64,
    /// Rings per pass, each a fresh network.
    pub instances: usize,
    /// Batches per ring.
    pub batches: usize,
}

/// Ring size of flat-batch.
const FLAT_N: u32 = 64;
/// Data flits per flat-batch message.
const FLAT_FLITS: u32 = 16;
/// Tick budget per batch before the run counts as stalled.
const FLAT_BATCH_BUDGET: u64 = 1_000_000;

/// A flat ring with its first batch submitted and the rest generated.
pub struct FlatPrepared {
    net: RmbNetwork,
    batches: Vec<Vec<MessageSpec>>,
}

/// A flat ring after its last batch.
pub struct FlatDone {
    net: RmbNetwork,
    stalled: bool,
    attempted: u64,
}

impl FlatBatch {
    fn submit(net: &mut RmbNetwork, batch: &[MessageSpec]) {
        let now = net.now().get();
        net.submit_all(batch.iter().map(|s| s.at(now)))
            .expect("permutation messages are valid");
    }

    fn done(net: RmbNetwork, stalled: bool, batches: &[Vec<MessageSpec>]) -> FlatDone {
        let attempted = batches.iter().map(|b| b.len() as u64).sum();
        FlatDone {
            net,
            stalled,
            attempted,
        }
    }
}

impl Workload for FlatBatch {
    type Prepared = FlatPrepared;
    type Done = FlatDone;

    fn outcome(&self, done: &FlatDone) -> Outcome {
        let FlatDone {
            net,
            stalled,
            attempted,
        } = done;
        let (stalled, attempted) = (*stalled, *attempted);
        let report = net.report();
        let mut h = Fnv::new();
        hash_run_report(&report, &mut h);
        net.delivered_log().hash(&mut h);
        Outcome {
            digest: h.finish(),
            ticks: report.ticks,
            attempted,
            failed: report.aborted as u64,
            delivered: report.delivered as u64,
            ok: !stalled && report.delivered as u64 == attempted,
            latencies: net.delivered_log().iter().map(|d| d.latency()).collect(),
            sketch: None,
        }
    }

    fn instances(&self) -> usize {
        self.instances
    }

    fn setup(&self, i: usize) -> FlatPrepared {
        let mut net = RmbNetwork::builder(flat_config(FLAT_N, 4))
            .log_retention(LogRetention::Full)
            .build();
        let mut rng = SimRng::seed(instance_seed(self.seed, i));
        let batches: Vec<Vec<MessageSpec>> = (0..self.batches)
            .map(|_| {
                Permutation::generate(PermutationKind::Random, FLAT_N, &mut rng)
                    .messages(FLAT_FLITS)
            })
            .collect();
        Self::submit(&mut net, &batches[0]);
        FlatPrepared { net, batches }
    }

    fn run(&self, p: FlatPrepared) -> FlatDone {
        let FlatPrepared { mut net, batches } = p;
        let mut stalled = false;
        for (i, batch) in batches.iter().enumerate() {
            if i > 0 {
                Self::submit(&mut net, batch);
            }
            let until = net.now().get() + FLAT_BATCH_BUDGET;
            stalled |= net.run_to_quiescence(until).stalled;
            if stalled {
                break;
            }
        }
        Self::done(net, stalled, &batches)
    }

    fn run_traced(&self, p: FlatPrepared, tracer: &mut Tracer) -> (FlatDone, Layers) {
        let FlatPrepared { mut net, batches } = p;
        let mut stalled = false;
        for (i, batch) in batches.iter().enumerate() {
            if i > 0 {
                tracer.span(Op::CoreSubmit, batch.len() as u64, || {
                    Self::submit(&mut net, batch);
                });
            }
            let from = net.now().get();
            let until = from + FLAT_BATCH_BUDGET;
            let start = Instant::now();
            let report = net.run_to_quiescence(until);
            tracer.record(
                Op::CoreRunToQuiescence,
                report.ticks - from,
                start,
                Instant::now(),
            );
            stalled |= report.stalled;
            if stalled {
                break;
            }
        }
        let mut layers = Layers::new();
        layers.insert(
            "rmb-core.run_to_quiescence.ns_per_tick",
            tracer.stat(Op::CoreRunToQuiescence).ns_per_item(),
        );
        layers.insert(
            "rmb-core.submit.ns_per_call",
            tracer.stat(Op::CoreSubmit).ns_per_item(),
        );
        core_layers(&net.report(), &mut layers);
        (Self::done(net, stalled, &batches), layers)
    }
}

// ----------------------------------------------------------------------
// hier-backlog
// ----------------------------------------------------------------------

/// Serial 32×16 hierarchies, each working off a standing locality-0.6
/// backlog.
#[derive(Debug, Clone, Copy)]
pub struct HierBacklog {
    /// Workload seed.
    pub seed: u64,
    /// Hierarchies per pass, each a fresh network with its own backlog.
    pub instances: usize,
    /// Backlog messages per compute node.
    pub per_node: usize,
}

const HIER_RINGS: u32 = 32;
const HIER_NODES: u32 = 16;
const HIER_FLITS: u32 = 8;
const HIER_LOCALITY: f64 = 0.6;

fn hier_config() -> HierConfig {
    HierConfig::builder(HIER_RINGS, HIER_NODES, 4)
        .head_timeout(16 * u64::from(HIER_NODES))
        .retry_backoff(u64::from(HIER_NODES))
        .build()
        .expect("valid hierarchy config")
}

impl Workload for HierBacklog {
    type Prepared = HierNetwork;
    type Done = (HierNetwork, HierReport);

    fn outcome(&self, (net, report): &(HierNetwork, HierReport)) -> Outcome {
        let mut h = Fnv::new();
        (
            report.ticks,
            report.submitted,
            report.delivered,
            report.aborted,
            report.undelivered,
            report.stalled,
            report.bridge_refusals,
            report.leg_refusals,
            report.leg_retries,
            report.fault_kills,
            report.makespan,
            report.latency_sum,
        )
            .hash(&mut h);
        net.delivered_log().hash(&mut h);
        for a in net.aborted_log() {
            (a.request, a.spec, a.aborted_at).hash(&mut h);
        }
        let submitted = report.submitted as u64;
        Outcome {
            digest: h.finish(),
            ticks: report.ticks,
            attempted: submitted,
            failed: report.aborted as u64,
            delivered: report.delivered as u64,
            ok: !report.stalled && (report.delivered + report.aborted) as u64 == submitted,
            latencies: net.delivered_log().iter().map(|d| d.latency()).collect(),
            sketch: None,
        }
    }

    fn instances(&self) -> usize {
        self.instances
    }

    fn setup(&self, i: usize) -> HierNetwork {
        let cfg = hier_config();
        let traffic = LocalityTraffic {
            rings: cfg.rings(),
            nodes: HIER_NODES,
            bridge: cfg.bridge(),
            locality: HIER_LOCALITY,
            flits: HIER_FLITS,
        };
        let count = self.per_node * cfg.compute_nodes() as usize;
        let mut rng = SimRng::seed(instance_seed(self.seed, i));
        let specs = traffic.generate(count, 2 * count as u64, &mut rng);
        let mut net = HierNetwork::new(cfg);
        net.submit_all(specs).expect("locality traffic is valid");
        net
    }

    fn run(&self, mut net: HierNetwork) -> (HierNetwork, HierReport) {
        let report = net.run_to_quiescence(u64::MAX);
        (net, report)
    }

    fn run_traced(&self, mut net: HierNetwork, tracer: &mut Tracer) -> (Self::Done, Layers) {
        // `run_to_quiescence`'s loop, driven from outside so each call can
        // be timed and the hierarchy sampled between ticks.
        let cfg = *net.config();
        let stall_window = hier_stall_window(&cfg);
        let rings = cfg.rings();
        let (mut backlog, mut idle, mut queued, mut samples) = (0u64, 0u64, 0u64, 0u64);
        let mut last_progress = net.now();
        let mut progress = hier_progress(&net);
        let mut stalled = false;
        while !net.is_quiescent() {
            tracer.span(Op::HierTick, 1, || net.tick());
            let due = tracer.span(Op::HierHasDueWork, 1, || net.has_due_work());
            // The engine stamps progress during the tick, before its clock
            // advances, and stamps the new clock when no work is due.
            let now_progress = hier_progress(&net);
            if now_progress != progress {
                progress = now_progress;
                last_progress = net.now() - 1;
            }
            if !due {
                last_progress = net.now();
            }
            samples += 1;
            backlog += net.pending_messages() as u64;
            for r in 0..rings {
                let (up, down) = net.bridge_load(r);
                queued += u64::from(up + down);
                idle += u64::from(ring_idle(net.local(r)));
            }
            idle += u64::from(ring_idle(net.global_ring()));
            if net.now() - last_progress > stall_window {
                stalled = true;
                break;
            }
        }
        let mut report = net.report();
        report.stalled = stalled;
        let mut layers = Layers::new();
        layers.insert(
            "rmb-hier.tick.ns_per_call",
            tracer.stat(Op::HierTick).ns_per_call(),
        );
        layers.insert(
            "rmb-hier.has_due_work.ns_per_call",
            tracer.stat(Op::HierHasDueWork).ns_per_call(),
        );
        let s = samples.max(1) as f64;
        layers.insert("rmb-hier.backlog_mean", backlog as f64 / s);
        layers.insert(
            "rmb-hier.idle_ring_frac",
            idle as f64 / (s * f64::from(rings + 1)),
        );
        layers.insert(
            "rmb-hier.bridge_queue_mean",
            queued as f64 / (s * f64::from(rings)),
        );
        layers.insert("rmb-hier.bridge_refusals", report.bridge_refusals as f64);
        let carriers: Vec<RunReport> = (0..rings)
            .map(|r| net.local(r).report())
            .chain(std::iter::once(net.global_ring().report()))
            .collect();
        let legs: u64 = carriers.iter().map(|r| r.delivered as u64).sum();
        let leg_ratio = ratio(legs, legs + report.leg_refusals);
        layers.insert("rmb-hier.leg_grant_ratio", leg_ratio);
        layers.insert("rmb-core.grant_ratio", leg_ratio);
        layers.insert("rmb-core.retries", report.leg_retries as f64);
        layers.insert(
            "rmb-core.compaction_moves",
            carriers.iter().map(|r| r.compaction_moves as f64).sum(),
        );
        layers.insert(
            "rmb-core.mean_utilization",
            carriers.iter().map(|r| r.mean_utilization).sum::<f64>() / carriers.len() as f64,
        );
        ((net, report), layers)
    }
}

/// `true` when a ring has no live bus and no pending request.
fn ring_idle(net: &RmbNetwork) -> bool {
    net.active_virtual_buses() == 0 && net.pending_requests() == 0
}

/// A count that grows exactly when the hierarchy records progress: every
/// leg launched into a carrier, every leg the carrier delivers or aborts,
/// and every bridge-queue refusal.
fn hier_progress(net: &HierNetwork) -> u64 {
    let carriers = (0..net.config().rings())
        .map(|r| net.local(r))
        .chain(std::iter::once(net.global_ring()));
    let legs: u64 = carriers
        .map(|c| {
            let r = c.report();
            (r.delivered + r.undelivered) as u64 + c.delivered_total() + c.aborted_records()
        })
        .sum();
    legs + net.report().bridge_refusals
}

/// The hierarchy's own stall window, recomputed from its public config.
fn hier_stall_window(cfg: &HierConfig) -> u64 {
    let backoff = cfg
        .bridge_backoff()
        .max(cfg.local().node.retry_backoff)
        .max(cfg.global().node.retry_backoff);
    4 * u64::from(cfg.total_nodes())
        + 16 * backoff
        + 3 * cfg.local().head_timeout.unwrap_or(0)
        + 3 * cfg.global().head_timeout.unwrap_or(0)
        + 1024
}

// ----------------------------------------------------------------------
// serve-soak
// ----------------------------------------------------------------------

/// The open-loop soak shape: Poisson arrivals into an N=16, k=4 flat
/// ring under aggregate admission and counters-only retention.
#[derive(Debug, Clone, Copy)]
pub struct ServeSoak {
    /// Workload seed.
    pub seed: u64,
    /// Measured ticks per repetition (after the warmup).
    pub ticks: u64,
}

const SOAK_RATE: f64 = 0.003;
const SOAK_WARMUP: u64 = 2_000;

/// A target and arrival stream ready for `serve`.
pub struct SoakPrepared {
    target: FlatTarget,
    arrivals: PoissonStream,
    cfg: ServeConfig,
}

impl ServeSoak {
    /// Network, target, stream and driver config for arrival seed `seed`.
    fn prepare(&self, seed: u64) -> SoakPrepared {
        let net = RmbNetwork::builder(flat_config(16, 4))
            .log_retention(LogRetention::CountersOnly)
            .latency_sketch(true)
            .build();
        SoakPrepared {
            target: FlatTarget::new(net),
            arrivals: PoissonStream::new(SOAK_RATE),
            cfg: ServeConfig {
                rate: SOAK_RATE,
                warmup: SOAK_WARMUP,
                duration: self.ticks,
                flits: 8,
                admission: AdmissionMode::Aggregate { depth: 4 },
                seed,
            },
        }
    }
}

impl Workload for ServeSoak {
    type Prepared = SoakPrepared;
    type Done = (ServeReport, FlatTarget);

    fn outcome(&self, (report, target): &(ServeReport, FlatTarget)) -> Outcome {
        let engine = target.network().report();
        let mut h = Fnv::new();
        (
            &report.label,
            &report.arrivals,
            report.rate.to_bits(),
            report.ticks,
            report.warmup,
        )
            .hash(&mut h);
        (
            report.offered,
            report.shed,
            report.admitted,
            report.delivered,
            report.aborted,
            report.in_flight,
            report.refusals,
            report.mean_utilization.to_bits(),
            report.stalled,
        )
            .hash(&mut h);
        let l = report.latency;
        (l.count, l.mean.to_bits(), l.p50, l.p99, l.p999, l.max).hash(&mut h);
        hash_run_report(&engine, &mut h);
        Outcome {
            digest: h.finish(),
            ticks: report.ticks,
            attempted: report.offered,
            failed: report.shed + report.aborted,
            delivered: report.delivered,
            ok: !report.stalled && report.loss_accounted(),
            latencies: Vec::new(),
            sketch: Some(report.latency),
        }
    }

    fn instances(&self) -> usize {
        1
    }

    fn setup(&self, _: usize) -> SoakPrepared {
        self.prepare(self.seed)
    }

    /// From config validation to the moment `serve` first ticks the
    /// target: network, target and stream construction plus the driver's
    /// own arrival-clock set-up, whose cost depends on the arrival seed.
    fn setup_sample(&self, k: usize) -> f64 {
        let start = Instant::now();
        let SoakPrepared {
            target,
            mut arrivals,
            mut cfg,
        } = self.prepare(instance_seed(self.seed, k));
        cfg.warmup = 0;
        cfg.duration = 1;
        let mut target = TimedTarget {
            inner: target,
            tracer: RefCell::new(Tracer::new(start, NO_PARENT)),
        };
        serve(&mut target, &mut arrivals, &cfg);
        let first = target.tracer.get_mut().first_start(Op::CoreTick);
        first.expect("serve ticks at least once").as_secs_f64()
    }

    fn run(&self, p: SoakPrepared) -> (ServeReport, FlatTarget) {
        let SoakPrepared {
            mut target,
            mut arrivals,
            cfg,
        } = p;
        let report = serve(&mut target, &mut arrivals, &cfg);
        (report, target)
    }

    fn run_traced(&self, p: SoakPrepared, tracer: &mut Tracer) -> (Self::Done, Layers) {
        let SoakPrepared {
            target,
            arrivals,
            cfg,
        } = p;
        // The `serve` span is the first this recorder logs, so the spans
        // of the calls `serve` makes name index 0 as their cause.
        let epoch = tracer.epoch();
        let mut target = TimedTarget {
            inner: target,
            tracer: RefCell::new(Tracer::new(epoch, 0)),
        };
        let mut arrivals = TimedArrivals {
            inner: arrivals,
            tracer: Tracer::new(epoch, 0),
        };
        let start = Instant::now();
        let report = serve(&mut target, &mut arrivals, &cfg);
        tracer.record(Op::Serve, report.ticks, start, Instant::now());
        let engine = target.inner.network().report();
        tracer.merge(target.tracer.into_inner());
        tracer.merge(arrivals.tracer);

        let stat = |op| tracer.stat(op);
        let children: u64 = [
            Op::TargetSubmit,
            Op::CoreTick,
            Op::TargetPoll,
            Op::TargetUtilization,
            Op::NextGap,
        ]
        .into_iter()
        .map(|op| stat(op).ns)
        .sum();
        let mut layers = Layers::new();
        layers.insert(
            "rmb-core.tick.ns_per_call",
            stat(Op::CoreTick).ns_per_call(),
        );
        layers.insert(
            "rmb-serve.driver.self_ns_per_tick",
            stat(Op::Serve).ns.saturating_sub(children) as f64 / report.ticks.max(1) as f64,
        );
        layers.insert(
            "rmb-serve.target.submit.ns_per_call",
            stat(Op::TargetSubmit).ns_per_call(),
        );
        layers.insert(
            "rmb-serve.target.poll.ns_per_call",
            stat(Op::TargetPoll).ns_per_call(),
        );
        layers.insert(
            "rmb-serve.target.utilization.ns_per_call",
            stat(Op::TargetUtilization).ns_per_call(),
        );
        layers.insert(
            "rmb-workloads.arrivals.next_gap.ns_per_call",
            stat(Op::NextGap).ns_per_call(),
        );
        layers.insert(
            "rmb-serve.admit_ratio",
            ratio(report.admitted, report.offered),
        );
        core_layers(&engine, &mut layers);
        ((report, target.inner), layers)
    }
}
