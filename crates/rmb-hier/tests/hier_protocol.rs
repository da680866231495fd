//! End-to-end hierarchical protocol tests, including the PR's acceptance
//! scenario: a 4-ring hierarchy (N=16, k=4, locality 0.8) completing a
//! random workload with zero lost messages under fault injection.

use rmb_hier::HierNetwork;
use rmb_sim::SimRng;
use rmb_types::{HierConfig, HierMessageSpec, NodeAddr, NodeId};
use rmb_workloads::{FaultScenario, LocalityTraffic};

fn four_rings() -> HierConfig {
    HierConfig::builder(4, 16, 4).build().unwrap()
}

fn workload(count: usize, locality: f64, spread: u64, seed: u64) -> Vec<HierMessageSpec> {
    LocalityTraffic {
        rings: 4,
        nodes: 16,
        bridge: NodeId::new(0),
        locality,
        flits: 8,
    }
    .generate(count, spread, &mut SimRng::seed(seed))
}

/// Acceptance: transient faults on every local ring and on the global
/// ring, legs retrying forever — every message must still arrive.
#[test]
fn four_ring_workload_survives_faults_with_zero_loss() {
    let scenario = FaultScenario {
        fraction: 0.15,
        horizon: 2_000,
        outage: Some(400),
    };
    let mut rng = SimRng::seed(0xFA);
    let mut builder = HierNetwork::builder(four_rings()).checked(true).fault_seed(7);
    for r in 0..4 {
        builder = builder.local_fault_plan(r, scenario.draw(16, 4, &mut rng));
    }
    builder = builder.global_fault_plan(scenario.draw(4, 4, &mut rng));
    let mut net = builder.build();

    let msgs = workload(240, 0.8, 2_000, 42);
    let submitted = msgs.len();
    net.submit_all(msgs).unwrap();
    let report = net.run_to_quiescence(5_000_000);

    assert!(!report.stalled, "must quiesce: {report:?}");
    assert_eq!(report.delivered, submitted, "zero lost messages");
    assert_eq!(report.aborted, 0);
    assert_eq!(report.undelivered, 0);
    assert!(report.fault_kills > 0, "faults must actually hit circuits");
    assert!(net.is_quiescent());
    // All bridge slots returned.
    for r in 0..4 {
        assert_eq!(net.bridge_load(r), (0, 0));
    }
}

/// The same workload without faults delivers everything too, and higher
/// locality means lower mean latency (fewer bridge crossings).
#[test]
fn locality_lowers_latency() {
    let run = |locality: f64| {
        let mut net = HierNetwork::new(four_rings());
        net.submit_all(workload(300, locality, 3_000, 9)).unwrap();
        let report = net.run_to_quiescence(1_000_000);
        assert_eq!(report.delivered, 300, "locality {locality}: {report:?}");
        report.mean_latency()
    };
    let local = run(0.9);
    let remote = run(0.1);
    assert!(
        local < remote,
        "locality 0.9 ({local:.1}) must beat 0.1 ({remote:.1})"
    );
}

/// Legs carry the per-ring retry machinery: a permanently dead segment
/// wall on one ring aborts exactly the messages that need it, each with
/// an error naming the failing leg, while unaffected traffic flows.
#[test]
fn permanent_fault_aborts_name_the_leg() {
    use rmb_types::{BusIndex, FaultPlan, ProtocolError};
    // Kill every bus of hop n2 on ring 1 forever: circuits from n1 to n3
    // on ring 1 cannot form.
    let mut plan = FaultPlan::new();
    for b in 0..4 {
        plan = plan.segment_stuck(0, NodeId::new(2), BusIndex::new(b), None);
    }
    let mut net = HierNetwork::builder(four_rings())
        .local_fault_plan(1, plan)
        .leg_max_retries(3)
        .build();
    // Blocked: r1.n1 → r1.n3 crosses the dead hop.
    net.submit(HierMessageSpec::new(
        NodeAddr::new(1, NodeId::new(1)),
        NodeAddr::new(1, NodeId::new(3)),
        8,
    ))
    .unwrap();
    // Unaffected: a different ring entirely.
    net.submit(HierMessageSpec::new(
        NodeAddr::new(2, NodeId::new(1)),
        NodeAddr::new(3, NodeId::new(5)),
        8,
    ))
    .unwrap();
    let report = net.run_to_quiescence(2_000_000);
    assert!(!report.stalled, "{report:?}");
    assert_eq!(report.delivered, 1);
    assert_eq!(report.aborted, 1);
    let abort = &net.aborted_log()[0];
    match abort.error {
        ProtocolError::LegAborted { ring, .. } => assert_eq!(ring, Some(1)),
        other => panic!("expected LegAborted, got {other:?}"),
    }
    assert!(abort.error.to_string().contains("leg on ring 1"));
}

// ----------------------------------------------------------------------
// Pinned coordinator outputs.
// ----------------------------------------------------------------------

/// FNV-1a: a fixed, keyless hash, so digests can be pinned as constants.
struct Fnv(u64);

impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// What a pinned run must reproduce: the report, a digest of the
/// delivered and aborted logs, and the trace (count and digest).
#[derive(Debug, PartialEq)]
struct Pinned {
    report: rmb_hier::HierReport,
    logs: u64,
    events: usize,
    trace: u64,
}

/// Runs a fixed hierarchy through every coordinator path: a bridge depth
/// of 1 under a locality-0.3 backlog (refusals and backoff), permanent
/// local faults with a leg retry budget (aborts), and a second batch
/// submitted mid-run, part of it already overdue.
fn pinned_run(scheduler: rmb_core::SchedulerMode, faults: bool) -> Pinned {
    use rmb_workloads::FaultScenario;
    use std::hash::{Hash, Hasher};
    let cfg = HierConfig::builder(4, 8, 2)
        .bridge_queue_depth(1)
        .bridge_backoff(3)
        .head_timeout(64)
        .retry_backoff(8)
        .build()
        .unwrap();
    let mut builder = HierNetwork::builder(cfg)
        .scheduler(scheduler)
        .checked(true)
        .recording(true)
        .fault_seed(11);
    if faults {
        let scenario = FaultScenario {
            fraction: 0.2,
            horizon: 600,
            outage: None,
        };
        let mut rng = SimRng::seed(0xAB);
        for r in 0..4 {
            builder = builder.local_fault_plan(r, scenario.draw(8, 2, &mut rng));
        }
        builder = builder.leg_max_retries(2);
    }
    let mut net = builder.build();
    let traffic = |count, spread, seed| {
        LocalityTraffic {
            rings: 4,
            nodes: 8,
            bridge: NodeId::new(0),
            locality: 0.3,
            flits: 6,
        }
        .generate(count, spread, &mut SimRng::seed(seed))
    };
    net.submit_all(traffic(120, 60, 5)).unwrap();
    for _ in 0..150 {
        net.tick();
    }
    // Second batch over ticks 100..400: the part due before tick 150 is
    // overdue on submission and must launch at the current tick.
    let late: Vec<_> = traffic(60, 300, 6)
        .into_iter()
        .map(|s| s.at(100 + s.inject_at))
        .collect();
    assert!(late.iter().any(|s| s.inject_at < net.now()));
    net.submit_all(late).unwrap();
    let report = net.run_to_quiescence(2_000_000);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    net.delivered_log().hash(&mut h);
    for a in net.aborted_log() {
        (a.request, a.spec, a.aborted_at, a.error.to_string()).hash(&mut h);
    }
    let logs = h.finish();
    let events = net.take_events();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for e in &events {
        (e.at.get(), e.kind, e.id, e.node, e.bus, &e.detail).hash(&mut h);
    }
    Pinned {
        report,
        logs,
        events: events.len(),
        trace: h.finish(),
    }
}

/// The coordinator's outputs are pinned to constants recorded before
/// its source launches moved onto a time-indexed heap: any change to
/// launch order, backoff or stall detection shows up here. Both
/// schedulers must reproduce the same constants.
#[test]
fn coordinator_outputs_are_pinned() {
    use rmb_core::SchedulerMode;
    use rmb_hier::HierReport;
    let backlog = Pinned {
        report: HierReport {
            ticks: 3324,
            submitted: 180,
            delivered: 180,
            aborted: 0,
            undelivered: 0,
            stalled: false,
            bridge_refusals: 3410,
            leg_refusals: 6,
            leg_retries: 6,
            fault_kills: 0,
            makespan: 3323,
            latency_sum: 176_208,
            perf: None,
        },
        logs: 3_452_404_356_868_957_126,
        events: 4114,
        trace: 9_413_621_781_814_147_083,
    };
    let faulted = Pinned {
        report: HierReport {
            ticks: 3369,
            submitted: 180,
            delivered: 67,
            aborted: 113,
            undelivered: 0,
            stalled: false,
            bridge_refusals: 3232,
            leg_refusals: 100,
            leg_retries: 229,
            fault_kills: 242,
            makespan: 3195,
            latency_sum: 29_371,
            perf: None,
        },
        logs: 17_178_205_300_787_888_776,
        events: 3676,
        trace: 8_781_944_303_684_562_592,
    };
    for scheduler in [SchedulerMode::EventDriven, SchedulerMode::DenseSweep] {
        let got = pinned_run(scheduler, false);
        assert_eq!(got, backlog, "{scheduler:?}, backlog");
        let got = pinned_run(scheduler, true);
        assert_eq!(got, faulted, "{scheduler:?}, faults");
    }
}
