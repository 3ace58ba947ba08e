//! Turning passes into the metrics `BENCHMARK.json` names.

use crate::points::Point;
use crate::probes::Probe;
use crate::spans::Spans;
use crate::Pass;
use std::collections::BTreeMap;

/// The end-to-end metrics, as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("run_s", "s"),
    ("sim_instr_per_s", "instr/s"),
    ("point_s_p50", "s"),
    ("point_s_max", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("check_pass_share", "ratio"),
];

/// The per-layer metrics, as `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 61] = [
    // Simulator core: dispatch and scheduling.
    ("sim.ns_per_step", "ns"),
    ("sim.steps", "count"),
    ("sim.cycles", "cycles"),
    ("sim.stall_share", "ratio"),
    ("isa.instructions", "count"),
    ("workloads.ops", "count"),
    // Layer probes, ns per simulated step.
    ("isa.probe_alu_ns", "ns"),
    ("cache.probe_spin_ns", "ns"),
    ("cache.probe_walk_ns", "ns"),
    ("cache.probe_miss_ns", "ns"),
    ("cache.probe_xi_ns", "ns"),
    ("core.probe_abort_ns", "ns"),
    // Direct calls, ns per call.
    ("cache.lookup_ns", "ns"),
    ("core.begin_commit_ns", "ns"),
    ("mem.load_store_ns", "ns"),
    // Cache, fabric and XIs.
    ("cache.miss_share", "ratio"),
    ("cache.fabric_queued_cycles", "cycles"),
    ("cache.xi_exclusive", "count"),
    ("cache.xi_demote", "count"),
    ("cache.xi_readonly", "count"),
    ("cache.xi_reject_share", "ratio"),
    // Transaction engine and millicode.
    ("core.tx_begins", "count"),
    ("core.tx_aborts", "count"),
    ("core.commit_share", "ratio"),
    ("core.ladder_stages", "count"),
    ("core.broadcast_stops", "count"),
    // Software TM.
    ("stm.begins", "count"),
    ("stm.commits", "count"),
    ("stm.aborts", "count"),
    ("stm.commit_share", "ratio"),
    ("stm.fallbacks", "count"),
    // Event tracer.
    ("trace.events", "count"),
    ("trace.ns_per_event", "ns"),
    ("trace.overhead_share", "ratio"),
    ("trace.export_s", "s"),
    ("trace.checked_points", "count"),
    // Span self time per call, summed over the point list.
    ("sim.new_s", "s"),
    ("sim.set_tracer_s", "s"),
    ("isa.assemble_s", "s"),
    ("workloads.populate_s", "s"),
    ("sim.run_s", "s"),
    ("workloads.pool_sum_s", "s"),
    ("workloads.lookup_s", "s"),
    ("sim.report_s", "s"),
    ("trace.metrics_json_s", "s"),
    ("trace.digest_s", "s"),
    ("trace.check_invariants_s", "s"),
    ("bench.fingerprint_s", "s"),
    ("sim.drop_s", "s"),
    ("bench.glue_s", "s"),
    // Span self time per crate.
    ("sim.self_s", "s"),
    ("isa.self_s", "s"),
    ("workloads.self_s", "s"),
    ("trace.self_s", "s"),
    ("bench.self_s", "s"),
    // The span run's own health.
    ("bench.span_coverage_min", "ratio"),
    ("bench.span_overhead_share", "ratio"),
    ("bench.plain_run_s", "s"),
    ("bench.span_run_s", "s"),
    ("bench.check_fail_share", "ratio"),
    ("bench.fingerprint_recorded", "count"),
];

/// Median of `v` (mean of the middle two for an even count).
fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host memory high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Renders `metrics` in `order` as the JSON members of `"metrics"`.
fn render(order: &[(&str, &str)], metrics: &BTreeMap<&str, f64>) -> String {
    order
        .iter()
        .map(|(name, unit)| {
            let v = metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            assert!(v.is_finite(), "metric {name} is {v}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The fastest of `v`: interference from other tenants only ever slows a
/// pass down, so the minimum over passes is the steadiest estimate of the
/// simulator's own speed on a shared host (the ROADMAP's min-of-N).
fn fastest(v: impl Iterator<Item = f64>) -> f64 {
    v.fold(f64::INFINITY, f64::min)
}

/// The end-to-end metrics over the passes of a `--trace 0` run.
pub fn end_to_end(
    list: &[Point],
    passes: &[Pass],
    peak_rss_mb: f64,
    check_fail_share: f64,
) -> String {
    let per_point: Vec<f64> = (0..list.len())
        .map(|i| fastest(passes.iter().map(|p| p.points[i].run.as_secs_f64())))
        .collect();
    let instructions: u64 = passes[0]
        .points
        .iter()
        .map(|p| p.report.total_instructions)
        .sum();
    let run_s = fastest(passes.iter().map(Pass::run_s));
    let point_max = per_point.iter().copied().fold(0.0, f64::max);
    for ((p, s), r) in list.iter().zip(&per_point).zip(&passes[0].points) {
        let events = r.metrics.as_ref().map_or(String::new(), |m| {
            format!(" {} events, {} dropped", m.events, r.dropped)
        });
        eprintln!(
            "perfbench: {:<26} {s:.4}s {:>11} steps {:>7.1} ns/step{events}",
            p.label(),
            r.report.steps,
            s * 1e9 / r.report.steps as f64
        );
    }
    let pass_s: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.run_s())).collect();
    eprintln!("perfbench: run_s per pass: {}", pass_s.join(" "));
    eprintln!(
        "perfbench: {} passes; point_s_p50/max over {} points, each the fastest of {} samples",
        passes.len(),
        list.len(),
        passes.len()
    );
    let m = BTreeMap::from([
        ("run_s", run_s),
        ("sim_instr_per_s", instructions as f64 / run_s),
        ("point_s_p50", median(per_point)),
        ("point_s_max", point_max),
        (
            "setup_s",
            median(passes.iter().map(Pass::setup_s).collect()),
        ),
        ("peak_rss_mb", peak_rss_mb),
        ("check_pass_share", 1.0 - check_fail_share),
    ]);
    render(&END_TO_END, &m)
}

/// Everything the span run measured.
pub struct LayerInputs<'a> {
    /// Figure-mode passes without spans.
    pub plain: &'a [Pass],
    /// Figure-mode passes with spans recorded.
    pub spanned: &'a [(Pass, Spans)],
    /// The same points with every tracer detached (empty when the workload
    /// has no traced point).
    pub detached: &'a [Pass],
    /// The count pass: a recorder on every point.
    pub count: &'a Pass,
    /// Layer probes.
    pub probes: &'a [Probe],
    /// Failed checks ÷ checks attempted, over the whole run.
    pub check_fail_share: f64,
    /// Whether the seed's fingerprints were recorded (else only
    /// pass-to-pass determinism is checked).
    pub fingerprint_recorded: bool,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of a `--trace 1` run.
pub fn per_layer(x: &LayerInputs) -> String {
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    let sum = |f: &dyn Fn(&crate::run::PointRun) -> u64| -> f64 {
        x.plain[0].points.iter().map(f).sum::<u64>() as f64
    };
    let steps = sum(&|p| p.report.steps);
    m.insert("sim.steps", steps);
    m.insert("sim.cycles", sum(&|p| p.report.elapsed_cycles));
    m.insert("sim.stall_share", ratio(sum(&|p| p.report.stalls), steps));
    m.insert("isa.instructions", sum(&|p| p.report.total_instructions));
    m.insert("workloads.ops", sum(&|p| p.ops));
    m.insert("cache.xi_exclusive", sum(&|p| p.report.xi_counts[0]));
    m.insert("cache.xi_demote", sum(&|p| p.report.xi_counts[1]));
    m.insert("cache.xi_readonly", sum(&|p| p.report.xi_counts[2]));
    let begins = sum(&|p| p.report.tx.tbegins + p.report.tx.tbegincs);
    m.insert("core.tx_begins", begins);
    m.insert("core.tx_aborts", sum(&|p| p.report.tx.aborts));
    m.insert(
        "core.commit_share",
        ratio(sum(&|p| p.report.tx.commits), begins),
    );
    m.insert(
        "core.broadcast_stops",
        sum(&|p| p.report.tx.broadcast_stops),
    );
    let stm_begins = sum(&|p| p.report.stm.begins);
    m.insert("stm.begins", stm_begins);
    m.insert("stm.commits", sum(&|p| p.report.stm.commits));
    m.insert("stm.aborts", sum(&|p| p.report.stm.aborts));
    m.insert(
        "stm.commit_share",
        ratio(sum(&|p| p.report.stm.commits), stm_begins),
    );
    m.insert("stm.fallbacks", sum(&|p| p.report.stm.fallbacks));

    // Event-level counts from the count pass's recorders.
    let counted = |f: &dyn Fn(&ztm_trace::Metrics) -> u64| -> f64 {
        x.count
            .points
            .iter()
            .filter_map(|p| p.metrics.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    m.insert(
        "cache.miss_share",
        ratio(
            counted(&|t| t.accesses[0]),
            counted(&|t| t.accesses.iter().sum()),
        ),
    );
    m.insert(
        "cache.fabric_queued_cycles",
        counted(&|t| t.fabric_queued_cycles),
    );
    m.insert(
        "cache.xi_reject_share",
        ratio(
            counted(&|t| t.xi_rejected.iter().sum()),
            counted(&|t| t.xi_issued.iter().sum()),
        ),
    );
    m.insert("core.ladder_stages", counted(&|t| t.ladder_stages));

    // The tracer as the figure binaries attach it, against detached.
    let events: u64 = x.plain[0]
        .points
        .iter()
        .filter_map(|p| p.metrics.as_ref())
        .map(|t| t.events)
        .sum();
    // Whole-pass comparisons take the fastest pass of each kind, as the
    // end-to-end metrics do: the run's first pass is a plain one and pays
    // the cold start.
    let plain_run = fastest(x.plain.iter().map(Pass::run_s));
    let traced_extra = if x.detached.is_empty() {
        0.0
    } else {
        plain_run - fastest(x.detached.iter().map(Pass::run_s))
    };
    m.insert("trace.events", events as f64);
    // Points whose trace invariants were checked: a wrapped ring skips them.
    m.insert(
        "trace.checked_points",
        x.plain[0]
            .points
            .iter()
            .filter(|p| p.metrics.is_some() && p.dropped == 0)
            .count() as f64,
    );
    m.insert(
        "trace.ns_per_event",
        ratio(traced_extra * 1e9, events as f64),
    );
    m.insert(
        "trace.overhead_share",
        ratio(traced_extra, plain_run - traced_extra),
    );
    m.insert(
        "trace.export_s",
        median(x.plain.iter().map(Pass::export_s).collect()),
    );

    let span_run = fastest(x.spanned.iter().map(|(p, _)| p.run_s()));
    m.insert("bench.plain_run_s", plain_run);
    m.insert("bench.span_run_s", span_run);
    m.insert(
        "bench.span_overhead_share",
        ratio(span_run - plain_run, plain_run),
    );

    // Span self times, for every `_s` metric not set above: the median over
    // span passes of each call's sum, or of a crate's calls for `.self_s`.
    let selfs: Vec<BTreeMap<String, f64>> =
        x.spanned.iter().map(|(_, s)| s.self_seconds()).collect();
    for (name, unit) in PER_LAYER {
        if unit != "s" || !name.ends_with("_s") || m.contains_key(name) {
            continue;
        }
        let v = if let Some(layer) = name.strip_suffix(".self_s") {
            let prefix = format!("{layer}.");
            median(
                selfs
                    .iter()
                    .map(|s| {
                        s.iter()
                            .filter(|(k, _)| k.starts_with(&prefix))
                            .map(|(_, v)| v)
                            .sum()
                    })
                    .collect(),
            )
        } else {
            median(
                selfs
                    .iter()
                    .map(|s| s.get(name).copied().unwrap_or(0.0))
                    .collect(),
            )
        };
        m.insert(name, v);
    }
    m.insert(
        "sim.ns_per_step",
        median(
            selfs
                .iter()
                .map(|s| s.get("sim.run_s").copied().unwrap_or(0.0) * 1e9 / steps)
                .collect(),
        ),
    );
    m.insert(
        "bench.span_coverage_min",
        x.spanned
            .iter()
            .map(|(_, s)| s.min_coverage())
            .fold(1.0, f64::min),
    );
    m.insert("bench.check_fail_share", x.check_fail_share);
    m.insert(
        "bench.fingerprint_recorded",
        f64::from(u8::from(x.fingerprint_recorded)),
    );
    for p in x.probes {
        m.insert(p.name, p.ns);
    }
    render(&PER_LAYER, &m)
}
