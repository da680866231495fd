//! `steadybench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! steadybench --workload <flat-batch|hier-backlog|serve-soak>
//!             --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run does a fixed amount of work chosen by the seed and
//! `--seconds`, never a time budget. A workload is a fixed list of
//! independent instances derived from the seed (fresh networks with their
//! own inputs); a run is one untimed warm-up of instance 0, then a fixed
//! number of passes over every instance. Each instance's run sits between
//! two runs of the calibration kernel (see [`host`]) and is reported in
//! reference-host seconds; every pass must reproduce each instance's
//! digest. With `--trace 1` instance 0 runs once more with spans recorded
//! around every call into a layer, and the per-layer metrics are printed
//! instead of the end-to-end ones.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The line before it carries raw (uncalibrated) diagnostics.

mod host;
mod trace;
mod workloads;

use host::{calibrate, Timed};
use rmb_types::LatencySummary;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Tracer, NO_PARENT};
use workloads::{FlatBatch, HierBacklog, Layers, Outcome, ServeSoak, Workload};

/// Workload sizes. Model metrics pool every instance of one pass, so
/// the instance counts set how steady they are from seed to seed.
const FLAT_INSTANCES: usize = 48;
const FLAT_BATCHES: usize = 4;
const HIER_INSTANCES: usize = 12;
const HIER_PER_NODE: usize = 4;
const SOAK_TICKS: u64 = 1_400_000;

/// Nominal reference-host seconds of one pass; `--seconds` divided by
/// this (rounded, at least 1) is the number of passes.
const FLAT_PASS_S: f64 = 12.5;
const HIER_PASS_S: f64 = 12.5;
const SOAK_PASS_S: f64 = 1.2;

/// Per-layer metrics, with units, in the order `BENCHMARK.json` lists
/// them. A workload that never calls a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 24] = [
    ("rmb-core.run_to_quiescence.ns_per_tick", "ns/tick"),
    ("rmb-core.submit.ns_per_call", "ns/call"),
    ("rmb-core.grant_ratio", "ratio"),
    ("rmb-core.retries", "count"),
    ("rmb-core.compaction_moves", "count"),
    ("rmb-core.mean_utilization", "ratio"),
    ("rmb-core.tick.ns_per_call", "ns/call"),
    ("rmb-hier.tick.ns_per_call", "ns/call"),
    ("rmb-hier.has_due_work.ns_per_call", "ns/call"),
    ("rmb-hier.backlog_mean", "msgs"),
    ("rmb-hier.idle_ring_frac", "ratio"),
    ("rmb-hier.bridge_queue_mean", "msgs"),
    ("rmb-hier.bridge_refusals", "count"),
    ("rmb-hier.leg_grant_ratio", "ratio"),
    ("rmb-serve.driver.self_ns_per_tick", "ns/tick"),
    ("rmb-serve.target.submit.ns_per_call", "ns/call"),
    ("rmb-serve.target.poll.ns_per_call", "ns/call"),
    ("rmb-serve.target.utilization.ns_per_call", "ns/call"),
    ("rmb-workloads.arrivals.next_gap.ns_per_call", "ns/call"),
    ("rmb-serve.admit_ratio", "ratio"),
    ("host.wall_s", "s"),
    ("host.cal_ms", "ms"),
    ("host.run_queue_wait_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("steadybench: {e}");
            eprintln!(
                "usage: steadybench --workload <flat-batch|hier-backlog|serve-soak> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // The work is fixed by the arguments alone, never by elapsed time.
    let passes = |pass_s: f64| ((args.seconds as f64 / pass_s).round() as usize).max(1);
    let seed = args.seed;
    match args.workload.as_str() {
        "flat-batch" => {
            let w = FlatBatch {
                seed,
                instances: FLAT_INSTANCES,
                batches: FLAT_BATCHES,
            };
            bench(&w, passes(FLAT_PASS_S), 5, &args);
        }
        "hier-backlog" => {
            let w = HierBacklog {
                seed,
                instances: HIER_INSTANCES,
                per_node: HIER_PER_NODE,
            };
            bench(&w, passes(HIER_PASS_S), 1, &args);
        }
        "serve-soak" => bench(
            &ServeSoak {
                seed,
                ticks: SOAK_TICKS,
            },
            passes(SOAK_PASS_S),
            15,
            &args,
        ),
        other => {
            eprintln!("steadybench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Runs `w` for `passes` passes, taking `setups` set-up samples before
/// each instance run, and prints the result.
fn bench<W: Workload>(w: &W, passes: usize, setups: usize, args: &Args) {
    let m = w.instances();

    // Warm-up on instance 0: fills caches and lazy set-up before timing.
    let done = w.run(w.setup(0));
    let warm = w.outcome(&done);
    drop(done);
    let mut correct = warm.ok;
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);

    // Timed passes. Each instance's run sits between two kernel runs (the
    // one after it is also the one before the next); its finished state
    // is inspected and dropped before the kernel runs again. Set-up
    // samples are spread over the passes, each scaled by the kernel run
    // just before it, so they see the same host states as the runs.
    let mut raw_setup = Vec::with_capacity(setups * passes * m);
    let mut setup = Vec::with_capacity(setups * passes * m);
    let wait_before = host::run_queue_wait_ns();
    let mut reference: Vec<Outcome> = Vec::with_capacity(m);
    let mut times: Vec<Vec<Timed>> = vec![Vec::with_capacity(passes); m];
    let mut sample = 0;
    let mut cal_before = calibrate();
    for _ in 0..passes {
        for (i, t) in times.iter_mut().enumerate() {
            let scale = host::to_reference(cal_before);
            for _ in 0..setups {
                let raw = w.setup_sample(sample);
                sample += 1;
                raw_setup.push(raw);
                setup.push(raw * scale);
            }
            let p = w.setup(i);
            let start = Instant::now();
            let done = w.run(p);
            let raw_s = start.elapsed().as_secs_f64();
            let outcome = w.outcome(&done);
            drop(done);
            let cal_after = calibrate();
            t.push(Timed::new(raw_s, cal_before, cal_after));
            cal_before = cal_after;
            correct &= outcome.ok;
            attempted += outcome.attempted;
            failed += outcome.failed;
            match reference.get(i) {
                Some(r) => correct &= outcome.digest == r.digest,
                None => reference.push(outcome),
            }
        }
    }
    correct &= warm.digest == reference[0].digest;
    let wait_ms = (host::run_queue_wait_ns() - wait_before) as f64 / 1e6;
    let peak_rss_mb = host::peak_rss_mb();

    // One pass in seconds: per instance the median over passes.
    let per_instance = |f: fn(&Timed) -> f64| -> Vec<f64> {
        times
            .iter()
            .map(|t| median(&t.iter().map(f).collect::<Vec<_>>()))
            .collect()
    };
    let cal_s = per_instance(Timed::calibrated_s);
    let raw_s = per_instance(|t| t.raw_s);
    let ticks: u64 = reference.iter().map(|o| o.ticks).sum();
    let delivered: u64 = reference.iter().map(|o| o.delivered).sum();
    let pass_cal_s: f64 = cal_s.iter().sum();
    let pass_raw_s: f64 = raw_s.iter().sum();
    let cal_ms: Vec<f64> = times.iter().flatten().map(|t| t.cal_ms).collect();
    let latencies: Vec<u64> = reference
        .iter()
        .flat_map(|o| o.latencies.iter().copied())
        .collect();
    let latency = match reference[0].sketch {
        Some(sketch) if latencies.is_empty() => sketch,
        _ => LatencySummary::exact_from(&latencies),
    };

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let mut tracer = Tracer::new(Instant::now(), NO_PARENT);
        let p = w.setup(0);
        let before = calibrate();
        let start = Instant::now();
        let (done, layers) = w.run_traced(p, &mut tracer);
        let raw = start.elapsed().as_secs_f64();
        let outcome = w.outcome(&done);
        drop(done);
        let traced = Timed::new(raw, before, calibrate());
        correct &= outcome.ok && outcome.digest == reference[0].digest;
        attempted += outcome.attempted;
        failed += outcome.failed;
        let path = format!(
            ".bench_build/steadybench-traces/{}-seed{}.jsonl",
            args.workload, args.seed
        );
        if let Err(e) = tracer.write(std::path::Path::new(&path)) {
            eprintln!("steadybench: could not write {path}: {e}");
        }
        let mut all: Layers = layers;
        all.insert("host.wall_s", pass_raw_s);
        all.insert("host.cal_ms", median(&cal_ms));
        all.insert("host.run_queue_wait_ms", wait_ms);
        all.insert(
            "trace.overhead_pct",
            (traced.calibrated_s() / cal_s[0] - 1.0) * 100.0,
        );
        for (name, unit) in PER_LAYER {
            metrics.push((name, all.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        metrics.push(("sim_ticks_per_s", ticks as f64 / pass_cal_s, "1/s"));
        metrics.push(("setup_s", median(&setup), "s"));
        metrics.push(("peak_rss_mb", peak_rss_mb, "MB"));
        metrics.push((
            "sim_latency_p50_ticks",
            latency.p50.unwrap_or(0) as f64,
            "ticks",
        ));
        metrics.push((
            "sim_latency_p99_ticks",
            latency.p99.unwrap_or(0) as f64,
            "ticks",
        ));
        metrics.push((
            "sim_msgs_per_kilotick",
            delivered as f64 * 1000.0 / ticks.max(1) as f64,
            "msg/ktick",
        ));
    }

    // Raw figures next to the calibrated ones.
    println!(
        "{{\"diagnostics\":{{\"workload\":\"{}\",\"seed\":{},\"instances\":{m},\"passes\":{passes},\
         \"ticks\":{ticks},\"latency_samples\":{},\"raw_ticks_per_s\":{},\
         \"raw_setup_s\":{},\
         \"cal_ms\":{},\"run_queue_wait_ms\":{}}}}}",
        args.workload,
        args.seed,
        latency.count,
        num(ticks as f64 / pass_raw_s),
        num(median(&raw_setup)),
        num(median(&cal_ms)),
        num(wait_ms),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v)))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
}

/// A JSON number (non-finite values, which no metric should produce,
/// print as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
