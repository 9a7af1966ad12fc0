//! Metric tables and their computation from episodes, spans and probes.
//! `BENCHMARK.json` lists the same names, units and directions; the
//! benchmark's tests keep the two in step.

use crate::clock::{median, percentile, Tracer};
use crate::probes::ProbeResults;
use crate::workloads::{Episode, Timing};

/// A reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name in the result line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower` is better.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("ops_per_s", "1/s", "higher"),
    m("op_ms_p50", "ms", "lower"),
    m("op_ms_p99", "ms", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("mig_virt_ms_p50", "ms", "lower"),
    m("mig_virt_ms_p99", "ms", "lower"),
    m("bytes_per_mig", "B", "lower"),
];

/// Per-layer metrics, reported by every traced run. A layer a workload
/// does not reach through the public API reports 0.
pub const PER_LAYER: &[Metric] = &[
    // Virtual-time costs only some workloads have.
    m("admin_msgs_per_mig", "count", "lower"),
    m("msg_virt_us_p50", "us", "lower"),
    m("msg_virt_us_p99", "us", "lower"),
    m("jobs_done", "count", "higher"),
    m("fail_ratio", "ratio", "lower"),
    // types
    m("types.encode_ns.small", "ns", "lower"),
    m("types.encode_ns.data1k", "ns", "lower"),
    m("types.decode_ns.small", "ns", "lower"),
    m("types.decode_ns.data1k", "ns", "lower"),
    // net
    m("net.frames_sent", "count", "lower"),
    m("net.bytes_sent", "B", "lower"),
    m("net.retransmit_frames", "count", "lower"),
    m("net.dup_acks", "count", "lower"),
    m("net.dedup_drops", "count", "lower"),
    m("net.frames_dropped", "count", "lower"),
    m("net.goodput_ratio", "ratio", "higher"),
    m("net.pump_ns.64", "ns", "lower"),
    m("net.pump_ns.1024", "ns", "lower"),
    // kernel
    m("kernel.movedata_us_per_mib", "us/MiB", "lower"),
    m("kernel.md_data_bytes", "B", "lower"),
    m("kernel.md_data_msgs", "count", "lower"),
    m("kernel.local_send_ns", "ns", "lower"),
    m("kernel.submitted", "count", "lower"),
    m("kernel.delivered_local", "count", "lower"),
    m("kernel.transmitted", "count", "lower"),
    m("kernel.forwarded", "count", "lower"),
    m("kernel.links_patched", "count", "lower"),
    m("kernel.nondeliverable", "count", "lower"),
    m("kernel.activations", "count", "lower"),
    m("kernel.forward_ratio", "ratio", "lower"),
    // core
    m("core.handshake_us", "us", "lower"),
    m("core.started", "count", "lower"),
    m("core.completed", "count", "higher"),
    m("core.aborted", "count", "lower"),
    m("core.rejected", "count", "lower"),
    m("core.retried", "count", "lower"),
    m("core.pending_forwarded", "count", "lower"),
    m("core.completion_ratio", "ratio", "higher"),
    // sim
    m("sim.steps", "count", "lower"),
    m("sim.cpu_visits", "count", "lower"),
    m("sim.frame_visits", "count", "lower"),
    m("sim.timer_visits", "count", "lower"),
    m("sim.ns_per_visit", "ns", "lower"),
    m("sim.build_ms", "ms", "lower"),
    m("sim.trace_records", "count", "lower"),
    m("sim.spans_ms", "ms", "lower"),
    // obs
    m("obs.records", "count", "lower"),
    m("obs.dropped", "count", "lower"),
    m("obs.record_ns", "ns", "lower"),
    m("obs.dump_ms", "ms", "lower"),
    // policy
    m("policy.tick_us_p50", "us", "lower"),
    m("policy.tick_us_p99", "us", "lower"),
    m("policy.orders_issued", "count", "lower"),
    m("policy.orders_failed", "count", "lower"),
    m("policy.decide_us", "us", "lower"),
    // sysproc
    m("sysproc.fs_ops", "count", "higher"),
    m("sysproc.fs_errors", "count", "lower"),
    m("sysproc.nomad_hops", "count", "higher"),
    m("sysproc.nomad_failed", "count", "lower"),
    m("sysproc.boot_ms", "ms", "lower"),
    // chaos
    m("chaos.events_applied", "count", "higher"),
    m("chaos.events_skipped", "count", "lower"),
    m("chaos.violations", "count", "lower"),
    // Host self time per episode of the spans around each layer's calls.
    m("self_ms.bench", "ms", "lower"),
    m("self_ms.sim", "ms", "lower"),
    m("self_ms.core", "ms", "lower"),
    m("self_ms.sysproc", "ms", "lower"),
    m("self_ms.policy", "ms", "lower"),
    m("self_ms.obs", "ms", "lower"),
    m("self_ms.chaos", "ms", "lower"),
    // Estimated shares of timed host time: probe cost × count.
    m("share_est.types", "%", "lower"),
    m("share_est.net", "%", "lower"),
    m("share_est.kernel_dispatch", "%", "lower"),
    m("share_est.kernel_movedata", "%", "lower"),
    m("share_est.core_handshake", "%", "lower"),
    m("share_est.obs", "%", "lower"),
    m("share_est.policy", "%", "lower"),
    m("trace_overhead_pct", "%", "lower"),
];

/// Peak resident memory of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// End-to-end metrics over the untraced episodes of a run, each host
/// time multiplied by `scale` of its [`Timing::at`]: `|_| 1.0` gives the
/// raw figures, [`crate::speed::HostSpeed::scale_at`] the reported ones.
pub fn end_to_end(eps: &[&Episode], scale: impl Fn(u64) -> f64) -> Vec<(&'static str, f64)> {
    let scaled = |t: &Timing| t.ns as f64 * scale(t.at);
    let ops: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.ops.iter().map(|t| scaled(t) / 1e6))
        .collect();
    let total_s: f64 = ops.iter().sum::<f64>() / 1e3;
    let setups: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.setup.iter().map(|t| scaled(t) / 1e9))
        .collect();
    let v = &eps[0].virt;
    vec![
        ("setup_s", median(&setups)),
        ("ops_per_s", ops.len() as f64 / total_s),
        ("op_ms_p50", percentile(&ops, 0.50)),
        ("op_ms_p99", percentile(&ops, 0.99)),
        ("peak_rss_mb", peak_rss_mb()),
        ("mig_virt_ms_p50", v["mig_virt_ms_p50"]),
        ("mig_virt_ms_p99", v["mig_virt_ms_p99"]),
        ("bytes_per_mig", v["bytes_per_mig"]),
    ]
}

/// Inputs of the per-layer report of a traced run.
pub struct Traced<'a> {
    /// Episodes run with spans on.
    pub traced: Vec<&'a Episode>,
    /// Episodes run with spans off, interleaved with the traced ones.
    pub untraced: Vec<&'a Episode>,
    /// The spans (probes first, then the traced episodes from
    /// `first_episode_span` on).
    pub tracer: &'a Tracer,
    /// Index of the first episode span.
    pub first_episode_span: usize,
    /// Probe results.
    pub probes: &'a ProbeResults,
    /// Failed ÷ attempted over the run.
    pub fail_ratio: f64,
}

/// Per-layer metrics of a traced run.
pub fn per_layer(r: &Traced<'_>) -> Vec<(&'static str, f64)> {
    let v = &r.traced[0].virt;
    let count = |k: &str| v.get(k).copied().unwrap_or(0.0);
    let probe = |k: &str| {
        r.probes
            .iter()
            .find(|(n, _)| *n == k)
            .map_or(0.0, |(_, x)| *x)
    };
    let n_traced = r.traced.len() as f64;
    let spans = &r.tracer.spans()[r.first_episode_span..];
    let per_ep_ms = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum::<f64>()
            / n_traced
            / 1e6
    };
    let self_ns = r.tracer.self_ns_by_layer(r.first_episode_span);
    let self_ms = |layer: &str| {
        self_ns
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, ns)| *ns as f64 / n_traced / 1e6)
    };
    let ticks: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "PolicyDriver::tick")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    let op_total = |eps: &[&Episode]| {
        eps.iter()
            .map(|e| e.ops.iter().map(|t| t.ns).sum::<u64>() as f64)
            .sum::<f64>()
            / eps.len() as f64
    };
    let timed_ns = op_total(&r.untraced);
    let visits = count("sim.cpu_visits") + count("sim.frame_visits") + count("sim.timer_visits");

    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for m in PER_LAYER {
        let x = match m.name {
            "fail_ratio" => r.fail_ratio,
            "sim.ns_per_visit" if visits > 0.0 => self_ms("sim") * 1e6 / visits,
            "sim.build_ms" => per_ep_ms("ClusterBuilder::build"),
            "sim.spans_ms" => per_ep_ms("spans_of") + per_ep_ms("latency_histogram"),
            "obs.dump_ms" => per_ep_ms("Cluster::recorder_dump"),
            "sysproc.boot_ms" => per_ep_ms("boot_system"),
            "policy.tick_us_p50" => percentile(&ticks, 0.50),
            "policy.tick_us_p99" => percentile(&ticks, 0.99),
            "trace_overhead_pct" => (op_total(&r.traced) / timed_ns - 1.0) * 100.0,
            name if name.starts_with("self_ms.") => self_ms(&name["self_ms.".len()..]),
            name if name.starts_with("share_est.") => {
                // Move-data frames are charged to `kernel_movedata` alone:
                // its node-pair probe already includes their codec, channel
                // and dispatch, so the estimates do not overlap.
                let md = count("kernel.md_data_msgs");
                let small = (count("kernel.transmitted") - md).max(0.0);
                let est_ns = match &name["share_est.".len()..] {
                    "types" => {
                        small * (probe("types.encode_ns.small") + probe("types.decode_ns.small"))
                    }
                    "net" => small * probe("net.pump_ns.64"),
                    // A remote message enters the delivery system at both ends.
                    "kernel_dispatch" => {
                        (count("kernel.submitted") - 2.0 * md).max(0.0)
                            * probe("kernel.local_send_ns")
                    }
                    "kernel_movedata" => {
                        count("kernel.md_data_bytes") / f64::from(1u32 << 20)
                            * probe("kernel.movedata_us_per_mib")
                            * 1e3
                    }
                    "core_handshake" => count("core.completed") * probe("core.handshake_us") * 1e3,
                    "obs" => count("obs.records") * probe("obs.record_ns"),
                    "policy" => ticks.len() as f64 / n_traced * probe("policy.decide_us") * 1e3,
                    other => unreachable!("no estimate for {other}"),
                };
                est_ns / timed_ns * 100.0
            }
            name => v.get(name).copied().unwrap_or_else(|| probe(name)),
        };
        out.push((m.name, x));
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics
/// with their units.
pub fn result_line(
    attempted: u64,
    failed: u64,
    table: &[Metric],
    values: &[(&'static str, f64)],
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            let x = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |(_, x)| *x);
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.
            let x = if x.is_finite() { x + 0.0 } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {x}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}
