//! The measuring side: one child process runs one kind of pass and prints
//! one JSON line of raw results for the parent to combine.

use crate::cli::{Args, Mode};
use crate::measure::{
    check_result, decode_snapshot, digest, peak_rss_mb, probe_authority, take_snapshot, tick_loop,
    Checks, Loop,
};
use crate::probe::{self, Probe};
use crate::stats::{median, percentile, ratio};
use crate::timing::{elapsed_ns, Layers};
use crate::workloads::{build, restore, BuildOpts, Built, Cluster, Workload, Wrap};
use lunule_sim::RunResult;
use lunule_util::Json;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups timed before the first pass of a measuring child.
pub const SETUPS: usize = 5;

/// A child's results: named values, the output digest of every pass, and
/// the checks it ran.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Named measurements.
    pub values: Vec<(String, f64)>,
    /// Output digest of each pass, in order.
    pub digests: Vec<u64>,
    /// Output checks run in the child.
    pub checks: Checks,
}

impl Report {
    fn set(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    /// A named value; NaN when absent.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }

    /// The single JSON line a child prints.
    pub fn to_line(&self) -> String {
        Json::Obj(vec![
            (
                "values".into(),
                Json::Obj(
                    self.values
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "digests".into(),
                Json::Arr(
                    self.digests
                        .iter()
                        .map(|d| Json::Str(format!("{d:016x}")))
                        .collect(),
                ),
            ),
            ("attempted".into(), Json::Num(self.checks.attempted as f64)),
            ("failed".into(), Json::Num(self.checks.failed as f64)),
        ])
        .to_string_compact()
    }

    /// Inverse of [`Report::to_line`].
    pub fn from_line(line: &str) -> Result<Report, String> {
        let json = Json::parse(line).map_err(|e| format!("child report: {e}"))?;
        let Some(Json::Obj(values)) = json.get("values") else {
            return Err("child report: no values".into());
        };
        let values = values
            .iter()
            .map(|(n, v)| (n.clone(), v.as_f64().unwrap_or(f64::NAN)))
            .collect();
        let digests = json
            .get("digests")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|d| {
                d.as_str()
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| "child report: bad digest".to_string())
            })
            .collect::<Result<_, _>>()?;
        let count = |key: &str| json.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        Ok(Report {
            values,
            digests,
            checks: Checks {
                attempted: count("attempted"),
                failed: count("failed"),
            },
        })
    }
}

/// Runs the pass `args.child` names.
pub fn run(args: &Args) -> Result<Report, String> {
    let mode = args.child.unwrap_or(Mode::Measure);
    let w = args.workload;
    let opts = BuildOpts {
        seed: args.seed,
        smoke: args.smoke,
        telemetry: w.journals() != (mode == Mode::Flip),
        wrap: if mode == Mode::Traced {
            Wrap::ALL
        } else {
            Wrap::default()
        },
        layers: Layers::new(),
    };
    match mode {
        Mode::Measure => measure(w, &opts, args.seconds as f64),
        Mode::Single | Mode::Flip => single(w, &opts),
        Mode::Traced => traced(w, &opts),
    }
}

/// A pass's loop plus what the loop left behind.
struct Pass {
    lp: Loop,
    result: RunResult,
    events: u64,
    journal_bytes: u64,
}

/// Runs one pass over `built`, checking its outputs. `inspect` sees the
/// end state before the run is finalised.
fn pass(
    w: Workload,
    built: Built,
    layers: &Layers,
    probe: &mut Probe,
    checks: &mut Checks,
    inspect: impl FnOnce(&Cluster, &Loop) -> Result<(), String>,
) -> Result<Pass, String> {
    let mut cluster = built.cluster;
    let live_start = cluster.sim().namespace().live_count();
    let lp = tick_loop(&mut cluster, layers, probe).map_err(|e| format!("tick loop: {e}"))?;
    let sim = cluster.sim();
    let runs_to_completion = sim.config().stop_when_done;
    if w == Workload::MdCycle {
        let live_end = sim.namespace().live_count();
        checks.check(live_end == live_start, || {
            format!("mdtest cycle left {live_end} live inodes, started with {live_start}")
        });
    }
    if w == Workload::ServiceMixed {
        checks.check(!lp.snapshots.is_empty(), || {
            "no state snapshot taken".into()
        });
    }
    let (_, events) = sim.telemetry().events_since(usize::MAX);
    inspect(&cluster, &lp)?;
    let journal = Arc::clone(&cluster.journal_bytes);
    let result = cluster.finish().map_err(|e| format!("finish: {e}"))?;
    check_result(checks, &result, runs_to_completion);
    let journal_bytes = journal.load(Relaxed);
    if events > 0 {
        checks.check(journal_bytes > 0, || "journal events but no bytes".into());
    }
    Ok(Pass {
        lp,
        result,
        events: events as u64,
        journal_bytes,
    })
}

/// Probe slices run right before each timed set-up.
const SETUP_PROBE_SLICES: usize = 3;

/// Builds `w`, timing the build and probing the host just before it.
fn timed_build(w: Workload, opts: &BuildOpts, probe: &mut Probe) -> Result<Built, String> {
    for _ in 0..SETUP_PROBE_SLICES {
        probe.slice();
    }
    build(w, opts)
}

/// End-to-end pass: [`SETUPS`] timed set-ups, then passes back to back
/// while the next one is expected to fit the loop-time budget (one pass
/// under `--smoke`). Host times are reported in reference-host units
/// (see [`crate::probe`]); the raw values go to stderr.
fn measure(w: Workload, opts: &BuildOpts, budget_s: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_probe = Probe::default();
    let mut loop_probe = Probe::default();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let b = timed_build(w, opts, &mut setup_probe)?;
        setup_s.push(b.setup_s);
        built = Some(b);
    }
    let mut tick_us = Vec::new();
    let (mut loop_s, mut ticks, mut ops) = (0.0, 0usize, 0u64);
    let mut first: Option<RunResult> = None;
    while let Some(b) = built.take() {
        let p = pass(
            w,
            b,
            &opts.layers,
            &mut loop_probe,
            &mut report.checks,
            |_, _| Ok(()),
        )?;
        report.digests.push(digest(&p.result));
        tick_us.extend(p.lp.tick_us());
        loop_s += p.lp.loop_s;
        ticks += p.lp.ticks.len();
        ops += p.result.total_ops;
        first.get_or_insert(p.result);
        if !opts.smoke && loop_s + p.lp.loop_s <= budget_s {
            let b = timed_build(w, opts, &mut setup_probe)?;
            setup_s.push(b.setup_s);
            built = Some(b);
        }
    }
    let digests = &report.digests;
    report
        .checks
        .check(digests.windows(2).all(|d| d[0] == d[1]), || {
            "passes of one seed disagree".into()
        });
    let first = first.ok_or("no pass ran")?;
    let (setup, p50) = (median(&setup_s), percentile(&tick_us, 50.0));
    let (ticks, ops) = (ticks as f64, ops as f64);
    eprintln!(
        "lunule-benchmark: uncalibrated: ticks_per_s={} sim_ops_per_s={} tick_p50_us={p50} \
         setup_s={setup}; probe slice {} us in the loop, {} us at set-up, reference {} us",
        ticks / loop_s,
        ops / loop_s,
        loop_probe.mean_us(),
        setup_probe.mean_us(),
        probe::REFERENCE_US,
    );
    let loop_ref_s = loop_s / loop_probe.slowdown();
    report.set("setup_s", setup / setup_probe.slowdown());
    report.set("ticks_per_s", ticks / loop_ref_s);
    report.set("sim_ops_per_s", ops / loop_ref_s);
    report.set("tick_p50_us", p50 / loop_probe.slowdown());
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("sim_mean_if", first.mean_if());
    report.set("sim_mean_iops", first.mean_iops());
    Ok(report)
}

/// One set-up and one pass; reports loop time and the journal's cost.
fn single(w: Workload, opts: &BuildOpts) -> Result<Report, String> {
    let mut report = Report::default();
    let built = build(w, opts)?;
    let mut probe = Probe::default();
    let p = pass(
        w,
        built,
        &opts.layers,
        &mut probe,
        &mut report.checks,
        |_, _| Ok(()),
    )?;
    report.digests.push(digest(&p.result));
    let ticks = p.lp.ticks.len() as f64;
    let publish_us: Vec<f64> =
        p.lp.ticks
            .iter()
            .map(|t| t.span_ns("daemon.publish") as f64 / 1e3)
            .collect();
    report.set("loop_ref_s", p.lp.loop_s / probe.slowdown());
    report.set("host.probe_us", probe.mean_us());
    report.set("telemetry", f64::from(u8::from(opts.telemetry)));
    report.set("events_per_tick", ratio(p.events as f64, ticks));
    report.set(
        "journal_bytes_per_tick",
        ratio(p.journal_bytes as f64, ticks),
    );
    report.set("publish_us", median(&publish_us));
    report.set("sim.tick_p99_us", percentile(&p.lp.tick_us(), 99.0));
    report.set("sim.migrated_inodes", p.result.migrated_inodes() as f64);
    Ok(report)
}

/// One pass with every delegate attached, plus probes on its end state.
fn traced(w: Workload, opts: &BuildOpts) -> Result<Report, String> {
    let mut report = Report::default();
    let layers = &opts.layers;
    let built = build(w, opts)?;
    let inputs_ms = built.inputs_s * 1e3;
    let mut end_state = Vec::new();
    let mut restore_checks = Checks::default();
    let mut probe = Probe::default();
    let p = pass(
        w,
        built,
        layers,
        &mut probe,
        &mut report.checks,
        |cluster, lp| {
            let sim = cluster.sim();
            let (walk_ns, cache_ns) = probe_authority(sim.namespace(), sim.subtree_map());
            let counters = sim.migration_counters();
            end_state.extend([
                ("namespace.inodes_end", sim.namespace().len() as f64),
                ("namespace.authority_walk_ns", walk_ns),
                ("namespace.authcache_ns", cache_ns),
                ("sim.migrations_started", counters.started_jobs as f64),
                ("sim.migrations_committed", counters.completed_jobs as f64),
                (
                    "faults.injected",
                    sim.telemetry().count_kind("fault_injected") as f64,
                ),
            ]);
            // The daemon workload snapshots inside its loop; the others are
            // snapshotted once, here, at their end state.
            let (costs, bytes) = match &lp.last_snapshot {
                Some(bytes) => (lp.snapshots.clone(), bytes.clone()),
                None => {
                    let (cost, bytes, _) = take_snapshot(cluster, layers);
                    (vec![cost], bytes)
                }
            };
            let (snap, decode_ns) = decode_snapshot(&bytes)?;
            let start = Instant::now();
            let restored = restore(w, opts.seed, opts.smoke, opts.telemetry, &snap)?;
            let restore_ns = elapsed_ns(start);
            restore_checks.check(restored.snapshot().to_bytes() == bytes, || {
                "snapshot -> restore -> snapshot changed the bytes".into()
            });
            let ms = |ns: u64| ns as f64 / 1e6;
            let capture: Vec<f64> = costs.iter().map(|c| ms(c.capture_ns)).collect();
            let encode: Vec<f64> = costs.iter().map(|c| ms(c.encode_ns)).collect();
            end_state.extend([
                ("snapshot.capture_ms", median(&capture)),
                ("snapshot.encode_ms", median(&encode)),
                ("snapshot.bytes", bytes.len() as f64),
                ("snapshot.decode_ms", ms(decode_ns)),
                ("snapshot.restore_ms", ms(restore_ns)),
            ]);
            Ok(())
        },
    )?;
    report.checks.absorb(restore_checks);
    report.digests.push(digest(&p.result));
    crate::trace::write(w, &p.lp)?;

    let ticks = &p.lp.ticks;
    let n = ticks.len() as f64;
    let total_ns: u64 = ticks.iter().map(|t| t.dur_ns).sum();
    let sum = |f: &dyn Fn(&crate::measure::Tick) -> u64| ticks.iter().map(f).sum::<u64>() as f64;
    let record_ns = sum(&|t| t.record.ns);
    let record_items = sum(&|t| t.record.items);
    let next_ns = sum(&|t| t.next_op.ns);
    let next_calls = sum(&|t| t.next_op.calls);
    let epoch_ms: Vec<f64> = ticks
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.name == "core.on_epoch")
        .map(|s| s.dur_ns as f64 / 1e6)
        .collect();
    let (epoch_ticks, plain_ticks): (Vec<_>, Vec<_>) =
        ticks.iter().partition(|t| t.span_ns("core.on_epoch") > 0);
    let plain_us: Vec<f64> = plain_ticks.iter().map(|t| t.dur_ns as f64 / 1e3).collect();
    let epoch_tick_ms: Vec<f64> = epoch_ticks.iter().map(|t| t.dur_ns as f64 / 1e6).collect();
    let total = total_ns as f64;
    report.set("loop_ref_s", p.lp.loop_s / probe.slowdown());
    report.set("core.record_access_ns", ratio(record_ns, record_items));
    report.set("core.record_access_items", record_items);
    report.set("core.on_epoch_ms_p50", median(&epoch_ms));
    report.set(
        "core.on_epoch_share",
        ratio(epoch_ms.iter().sum::<f64>() * 1e6, total),
    );
    report.set(
        "core.plan_subtrees",
        layers.plan_subtrees.load(Relaxed) as f64,
    );
    report.set("workloads.next_op_ns", ratio(next_ns, next_calls));
    report.set("workloads.next_op_calls", next_calls);
    report.set("workloads.build_ms", inputs_ms);
    report.set("sim.plain_tick_us", median(&plain_us));
    report.set("sim.epoch_tick_ms", median(&epoch_tick_ms));
    report.set("sim.self_share", ratio(sum(&|t| t.self_ns()), total));
    report.set("sim.ops_per_tick", ratio(p.result.total_ops as f64, n));
    report.set("sim.flows_max", p.lp.flows_max as f64);
    for (name, value) in end_state {
        report.set(name, value);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_line_round_trips() {
        let report = Report {
            values: vec![
                ("loop_ref_s".into(), 7.25),
                ("setup_s".into(), 0.1234567891),
            ],
            digests: vec![0x3df7_69d6_72d2_b059, 7],
            checks: Checks {
                attempted: 9,
                failed: 1,
            },
        };
        let back = Report::from_line(&report.to_line()).expect("parses");
        assert_eq!(back, report);
        assert!(back.get("absent").is_nan());
        assert!(Report::from_line("not json").is_err());
    }
}
