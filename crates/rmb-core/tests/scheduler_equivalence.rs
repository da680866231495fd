//! Scheduler equivalence: the event-driven active-set engine must be
//! *byte-identical* to the dense per-tick sweep — same delivered log,
//! same protocol trace, same [`RunReport`] — over random workloads,
//! random fault schedules, and every protocol option. The dense sweep is
//! the oracle; any divergence is a scheduler bug by definition.
//!
//! The same contract covers the feasibility kernel: the packed-bitmap
//! default must match the slab-walk oracle, so every scenario here runs
//! three ways — (event, bitmap), (event, slab-walk), (dense, slab-walk) —
//! and all three observations must agree bit for bit (floats included).

use proptest::collection::vec;
use proptest::prelude::*;
use rmb_core::{CompactionMode, FeasibilityMode, RmbNetwork, RunReport, SchedulerMode};
use rmb_sim::trace::TraceEvent;
use rmb_types::{AckMode, BusIndex, FaultPlan, MessageSpec, NodeId, RmbConfig};

/// Workload item: (source, destination offset, flits, delay) — the same
/// shape the fault suite uses.
type RawMsg = (u32, u32, u32, u64);

fn build_msgs(n: u32, raw: &[RawMsg]) -> Vec<MessageSpec> {
    raw.iter()
        .map(|&(s, off, flits, at)| {
            let src = s % n;
            let dst = (src + 1 + off % (n - 1)) % n;
            MessageSpec::new(NodeId::new(src), NodeId::new(dst), flits % 24).at(at % 400)
        })
        .collect()
}

/// Raw fault item: (kind, at, node, bus, outage).
type RawFault = (u8, u64, u32, u16, u64);

fn build_plan(n: u32, k: u16, raw: &[RawFault]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &(kind, at, node, bus, outage) in raw {
        let at = at % 2_000;
        let node = NodeId::new(node % n);
        let repair = if outage % 3 == 0 { None } else { Some(at + 1 + outage % 600) };
        plan = match kind % 4 {
            0 | 1 => plan.segment_stuck(at, node, BusIndex::new(bus % k), repair),
            2 => plan.link_cut(at, node, repair),
            _ => plan.inc_dead(at, node, repair),
        };
    }
    plan
}

/// Full observable behaviour of one run.
struct Observed {
    report: RunReport,
    log: Vec<(u64, u64, u64, u64, u32)>,
    events: Vec<TraceEvent>,
}

/// Runs `drive` on a fresh network under the given scheduler and captures
/// everything observable: the report, the delivered log, and the trace.
fn observe(
    cfg: RmbConfig,
    mode: SchedulerMode,
    feasibility: FeasibilityMode,
    compaction: CompactionMode,
    plan: &FaultPlan,
    seed: u64,
    drive: &dyn Fn(&mut RmbNetwork),
) -> Observed {
    let mut net = RmbNetwork::builder(cfg)
        .scheduler(mode)
        .feasibility(feasibility)
        .compaction_mode(compaction)
        .checked(true)
        .recording(true)
        .fault_plan(plan.clone())
        .fault_seed(seed)
        .max_retries(8)
        .build();
    drive(&mut net);
    let report = net.run_to_quiescence(4_000_000);
    let log = net
        .delivered_log()
        .iter()
        .map(|d| (d.request.get(), d.requested_at, d.circuit_at, d.delivered_at, d.refusals))
        .collect();
    Observed { report, log, events: net.take_events() }
}

/// Asserts byte-identical behaviour across engines and feasibility
/// kernels: (event, bitmap) vs (event, slab-walk) vs (dense, slab-walk).
fn assert_equivalent(
    cfg: RmbConfig,
    compaction: CompactionMode,
    plan: &FaultPlan,
    seed: u64,
    drive: &dyn Fn(&mut RmbNetwork),
) -> Result<(), TestCaseError> {
    let ev = observe(
        cfg,
        SchedulerMode::EventDriven,
        FeasibilityMode::Bitmap,
        compaction.clone(),
        plan,
        seed,
        drive,
    );
    let sw = observe(
        cfg,
        SchedulerMode::EventDriven,
        FeasibilityMode::SlabWalk,
        compaction.clone(),
        plan,
        seed,
        drive,
    );
    let dn = observe(
        cfg,
        SchedulerMode::DenseSweep,
        FeasibilityMode::SlabWalk,
        compaction,
        plan,
        seed,
        drive,
    );
    // Same scheduler, different feasibility kernel: everything matches.
    prop_assert_eq!(ev.report.ticks, sw.report.ticks);
    prop_assert_eq!(&ev.log, &sw.log);
    prop_assert_eq!(&ev.events, &sw.events);
    prop_assert_eq!(
        ev.report.mean_utilization.to_bits(),
        sw.report.mean_utilization.to_bits()
    );
    prop_assert_eq!(
        ev.report.mean_latency().to_bits(),
        sw.report.mean_latency().to_bits()
    );
    prop_assert_eq!(ev.report.ticks, dn.report.ticks);
    prop_assert_eq!(ev.report.delivered, dn.report.delivered);
    prop_assert_eq!(ev.report.refusals, dn.report.refusals);
    prop_assert_eq!(ev.report.retries, dn.report.retries);
    prop_assert_eq!(ev.report.aborted, dn.report.aborted);
    prop_assert_eq!(ev.report.compaction_moves, dn.report.compaction_moves);
    prop_assert_eq!(ev.report.fault_kills, dn.report.fault_kills);
    prop_assert_eq!(ev.report.stalled, dn.report.stalled);
    prop_assert_eq!(ev.report.peak_virtual_buses, dn.report.peak_virtual_buses);
    prop_assert_eq!(ev.report.makespan(), dn.report.makespan());
    prop_assert_eq!(ev.report.mean_latency().to_bits(), dn.report.mean_latency().to_bits());
    prop_assert_eq!(ev.report.mean_setup_latency().to_bits(), dn.report.mean_setup_latency().to_bits());
    prop_assert_eq!(ev.report.recovered(), dn.report.recovered());
    prop_assert_eq!(
        ev.report.mean_time_to_recover().to_bits(),
        dn.report.mean_time_to_recover().to_bits()
    );
    prop_assert_eq!(ev.report.max_time_to_recover(), dn.report.max_time_to_recover());
    // Both engines sample utilisation at the same ticks with the same
    // occupancy, so even the floating-point mean matches bit for bit.
    prop_assert_eq!(
        ev.report.mean_utilization.to_bits(),
        dn.report.mean_utilization.to_bits()
    );
    prop_assert_eq!(&ev.log, &dn.log);
    prop_assert_eq!(&ev.events, &dn.events);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random unicast workloads with random fault schedules, synchronous
    /// compaction (the configuration the dirty-set path accelerates).
    #[test]
    fn engines_agree_under_random_faults(
        n in 4u32..12,
        k in 1u16..4,
        raw in vec(any::<RawMsg>(), 1..10),
        faults in vec(any::<RawFault>(), 0..8),
        seed in any::<u64>(),
    ) {
        let msgs = build_msgs(n, &raw);
        let cfg = RmbConfig::builder(n, k)
            .head_timeout(8 * n as u64)
            .retry_backoff(n as u64)
            .build()
            .unwrap();
        let plan = build_plan(n, k, &faults);
        assert_equivalent(cfg, CompactionMode::Synchronous, &plan, seed, &|net| {
            net.submit_all(msgs.clone()).unwrap();
        })?;
    }

    /// Same, under the handshake compactor (per-INC activation periods):
    /// the event engine keeps the dense per-INC scan there, but stream,
    /// establishment and injection still run through the active set.
    #[test]
    fn engines_agree_under_handshake_compaction(
        n in 4u32..10,
        k in 2u16..4,
        raw in vec(any::<RawMsg>(), 1..8),
        faults in vec(any::<RawFault>(), 0..5),
        periods in vec(1u64..4, 10..11),
        seed in any::<u64>(),
    ) {
        let msgs = build_msgs(n, &raw);
        let cfg = RmbConfig::builder(n, k)
            .head_timeout(8 * n as u64)
            .retry_backoff(n as u64)
            .build()
            .unwrap();
        let plan = build_plan(n, k, &faults);
        let mode = CompactionMode::Handshake {
            periods: periods[..n as usize].to_vec(),
        };
        assert_equivalent(cfg, mode, &plan, seed, &|net| {
            net.submit_all(msgs.clone()).unwrap();
        })?;
    }
}

#[test]
fn engines_agree_on_multicast() {
    let cfg = RmbConfig::new(12, 3).unwrap();
    assert_equivalent(cfg, CompactionMode::Synchronous, &FaultPlan::new(), 1, &|net| {
        net.submit_multicast(
            NodeId::new(0),
            &[NodeId::new(3), NodeId::new(6), NodeId::new(9)],
            40,
            0,
        )
        .unwrap();
        net.submit_multicast(NodeId::new(5), &[NodeId::new(7), NodeId::new(10)], 12, 30)
            .unwrap();
        net.submit(MessageSpec::new(NodeId::new(2), NodeId::new(8), 16))
            .unwrap();
    })
    .unwrap();
}

#[test]
fn engines_agree_with_windowed_acks_and_early_compaction() {
    let cfg = RmbConfig::builder(10, 4)
        .ack_mode(AckMode::Windowed { window: 3 })
        .early_compaction(true)
        .head_timeout(64)
        .build()
        .unwrap();
    let plan = FaultPlan::new()
        .segment_stuck(25, NodeId::new(4), BusIndex::new(0), Some(150))
        .inc_dead(300, NodeId::new(7), Some(380));
    assert_equivalent(cfg, CompactionMode::Synchronous, &plan, 7, &|net| {
        for s in 0..10u32 {
            net.submit(MessageSpec::new(NodeId::new(s), NodeId::new((s + 4) % 10), 30).at(u64::from(s) * 7))
                .unwrap();
        }
    })
    .unwrap();
}

#[test]
fn engines_agree_without_compaction_and_without_fast_forward() {
    // `compaction(false)` disables the dirty set entirely; fast-forward
    // off forces every idle tick through the full phase sequence.
    let cfg = RmbConfig::builder(8, 2).compaction(false).build().unwrap();
    let drive: &dyn Fn(&mut RmbNetwork) = &|net| {
        net.submit(MessageSpec::new(NodeId::new(0), NodeId::new(5), 20)).unwrap();
        net.submit(MessageSpec::new(NodeId::new(2), NodeId::new(6), 8).at(400)).unwrap();
    };
    let run = |mode: SchedulerMode| {
        let mut net = RmbNetwork::builder(cfg)
            .scheduler(mode)
            .fast_forward(false)
            .checked(true)
            .recording(true)
            .build();
        drive(&mut net);
        let report = net.run_to_quiescence(100_000);
        (report.ticks, report.delivered, report.compaction_moves, net.take_events())
    };
    assert_eq!(run(SchedulerMode::EventDriven), run(SchedulerMode::DenseSweep));
}

/// Every bit a [`RunReport`] exposes, floats as raw bits.
fn report_bits(r: &RunReport) -> Vec<u64> {
    vec![
        r.ticks,
        r.delivered as u64,
        r.refusals,
        r.compaction_moves,
        r.mean_utilization.to_bits(),
        r.peak_virtual_buses as u64,
        r.undelivered as u64,
        u64::from(r.stalled),
        r.retries,
        r.aborted as u64,
        r.fault_kills,
        r.makespan(),
        r.mean_latency().to_bits(),
        r.mean_setup_latency().to_bits(),
        r.recovered() as u64,
        r.mean_time_to_recover().to_bits(),
        r.max_time_to_recover(),
    ]
}

/// Report bits, delivered and aborted logs, and trace of one run.
type Windowed = (
    Vec<u64>,
    Vec<rmb_types::DeliveredMessage>,
    Vec<rmb_types::AbortedMessage>,
    Vec<TraceEvent>,
);

/// Runs `early` from tick 0 and `late` submitted at tick 200 (some of it
/// overdue by then) for `ticks` ticks, advancing either one
/// `run_window(now + 1)` at a time, as the hierarchy drives its rings, or
/// by plain `run` calls.
fn drive_windows(
    cfg: RmbConfig,
    mode: SchedulerMode,
    compaction: CompactionMode,
    plan: &FaultPlan,
    msgs: (&[MessageSpec], &[MessageSpec]),
    ticks: u64,
    windowed: bool,
) -> Windowed {
    let mut net = RmbNetwork::builder(cfg)
        .scheduler(mode)
        .compaction_mode(compaction)
        .checked(true)
        .recording(true)
        .fault_plan(plan.clone())
        .fault_seed(3)
        .max_retries(8)
        .build();
    let advance = |net: &mut RmbNetwork, n: u64| {
        if windowed {
            for _ in 0..n {
                let now = net.now().get();
                net.run_window(now + 1);
            }
        } else {
            net.run(n);
        }
    };
    net.submit_all(msgs.0.iter().copied()).unwrap();
    advance(&mut net, 200);
    net.submit_all(msgs.1.iter().copied()).unwrap();
    advance(&mut net, ticks - 200);
    (
        report_bits(&net.report()),
        net.delivered_log().to_vec(),
        net.aborted_log().to_vec(),
        net.take_events(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `run_window` skips the phase sequence on idle ticks; one-tick
    /// windows must still reproduce `run` bit for bit under either
    /// scheduler, random traffic and random faults.
    #[test]
    fn windowed_runs_match_plain_runs(
        n in 4u32..12,
        k in 1u16..4,
        raw in vec(any::<RawMsg>(), 2..12),
        faults in vec(any::<RawFault>(), 0..8),
    ) {
        let msgs = build_msgs(n, &raw);
        let (early, late) = msgs.split_at(msgs.len() / 2);
        let cfg = RmbConfig::builder(n, k)
            .head_timeout(8 * n as u64)
            .retry_backoff(n as u64)
            .build()
            .unwrap();
        let plan = build_plan(n, k, &faults);
        for mode in [SchedulerMode::EventDriven, SchedulerMode::DenseSweep] {
            let sync = CompactionMode::Synchronous;
            let run = |windowed| {
                drive_windows(cfg, mode, sync.clone(), &plan, (early, late), 3_000, windowed)
            };
            prop_assert_eq!(run(true), run(false), "{:?}", mode);
        }
    }
}

/// The handshake compactor steps its INC controllers on every tick, busy
/// or not, so `run_window` must not skip idle ticks there: traffic that
/// resumes after an idle gap sees the same controller phases either way.
#[test]
fn windowed_runs_match_plain_runs_under_handshake_compaction() {
    let cfg = RmbConfig::builder(8, 3).head_timeout(64).build().unwrap();
    let periods = vec![1, 2, 3, 1, 2, 3, 2, 1];
    let spec =
        |s: u32, d: u32, at: u64| MessageSpec::new(NodeId::new(s), NodeId::new(d), 12).at(at);
    let early = [spec(0, 5, 0), spec(2, 7, 3), spec(4, 1, 5)];
    let late = [
        spec(1, 6, 310),
        spec(3, 0, 317),
        spec(6, 2, 311),
        spec(5, 3, 190),
    ];
    let plan = FaultPlan::new();
    for mode in [SchedulerMode::EventDriven, SchedulerMode::DenseSweep] {
        let run = |windowed| {
            let compaction = CompactionMode::Handshake {
                periods: periods.clone(),
            };
            drive_windows(cfg, mode, compaction, &plan, (&early, &late), 800, windowed)
        };
        assert_eq!(run(true), run(false), "{mode:?}");
    }
}
