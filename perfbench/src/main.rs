//! Routing worker of the PACOR end-to-end benchmark; `run.py` drives it
//! (see README.md).
//!
//! ```text
//! pacor-perfbench synth <workload> <seed> <count>
//!     Prints one generated `Problem` as JSON per line, then one line
//!     {"total_ms": ..., "synth_ms": [...], "valves": [...], "lm_clusters": [...]}
//!     with the time taken to generate and write the whole pool, and the
//!     synthesis time and the size of every chip.
//! pacor-perfbench serve
//!     Prints `ready`, then answers one request per stdin line with one
//!     JSON line on stdout. `U\t<problem>` routes the chip with the
//!     default `FlowConfig`; `T\t<problem>` routes it under an outer
//!     observability session and adds the per-layer breakdown. During a
//!     `T` request the flow's stage telemetry is copied to stderr as it
//!     happens, so `run.py` knows which stage a chip it stops was in.
//! ```

use pacor::obs::{ProgressEvent, Session, SpanNode, TelemetryConfig, TelemetrySink, TraceEvent};
use pacor::{
    verify_layout, BenchDesign, DesignParams, FlowConfig, PacorFlow, Problem, RouteReport,
    RoutedCluster, RoutedKind, FLOW_BENCH_CHIPS, FLOW_SMOKE_CHIP,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::time::Instant;

/// The chip parameters of each workload. `smoke16` is the benchmark's
/// own self-test chip and is not a workload of `BENCHMARK.json`.
fn workload_params(name: &str) -> Option<DesignParams> {
    let tier = |n: &str| FLOW_BENCH_CHIPS.iter().copied().find(|p| p.name == n);
    match name {
        "mcf-cold256" => tier("B4-dense256"),
        "escape-dense96" => tier("B3-dense96"),
        "lm-chip1" => Some(BenchDesign::Chip1.params()),
        "smoke16" => Some(FLOW_SMOKE_CHIP),
        _ => None,
    }
}

/// SplitMix64: the synthesizer seed of chip `index` of a workload seed.
fn chip_seed(workload_seed: u64, index: u64) -> u64 {
    let mut z = workload_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn synth(workload: &str, seed: u64, count: usize) -> Result<(), String> {
    let params = workload_params(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let start = Instant::now();
    let mut out = io::BufWriter::new(io::stdout().lock());
    let (mut synth_ms, mut valves, mut lm) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..count {
        let t = Instant::now();
        let problem = pacor::synthesize_params(params, chip_seed(seed, i as u64));
        synth_ms.push(ms(t.elapsed()));
        valves.push(problem.valve_count().to_string());
        lm.push(problem.lm_clusters.len().to_string());
        let json = serde_json::to_string(&problem).map_err(|e| e.to_string())?;
        writeln!(out, "{json}").map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    writeln!(
        out,
        "{{\"total_ms\":{:.6},\"synth_ms\":{},\"valves\":[{}],\"lm_clusters\":[{}]}}",
        ms(start.elapsed()),
        json_floats(&synth_ms),
        valves.join(","),
        lm.join(",")
    )
    .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

fn json_floats(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:.6}")).collect();
    format!("[{}]", items.join(","))
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 when unknown.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Copies stage boundaries and the DME candidate count to stderr, one
/// telemetry line each, flushed at once.
struct StageStream;

impl TelemetrySink for StageStream {
    fn emit(&mut self, event: &ProgressEvent, line: &str) {
        if matches!(
            event,
            ProgressEvent::StageEntered { .. }
                | ProgressEvent::StageExited { .. }
                | ProgressEvent::DmeProgress { .. }
        ) {
            let mut err = io::stderr().lock();
            let _ = writeln!(err, "{line}");
            let _ = err.flush();
        }
    }
}

/// The report fields the benchmark checks, recomputed from geometry.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    valves_routed: usize,
    matched_clusters: usize,
    total_length: u64,
}

fn path_len(p: &pacor::grid::GridPath) -> u64 {
    p.cells().len() as u64 - 1
}

/// Recomputes `valves_routed`, `matched_clusters` and `total_length`
/// from the routed geometry alone: path cell counts, the escape
/// presence, and each length-matched member's sink-to-pin length.
fn recompute(routed: &[RoutedCluster], delta: u64) -> Outcome {
    let mut out = Outcome {
        valves_routed: 0,
        matched_clusters: 0,
        total_length: 0,
    };
    for rc in routed {
        let escape = rc.escape.as_ref().map(|(p, _)| path_len(p));
        let (internal, member_lengths): (u64, Vec<u64>) = match &rc.kind {
            RoutedKind::LmTree { tree, edge_paths } => {
                let mut parent = vec![None; tree.nodes().len()];
                let mut edge_len = vec![0u64; tree.nodes().len()];
                for ((child, par), path) in tree.edge_indices().into_iter().zip(edge_paths) {
                    parent[child] = Some(par);
                    edge_len[child] = path_len(path);
                }
                let sinks = (0..tree.sink_count()).map(|i| {
                    let (mut node, mut len) = (tree.sink_node(i), 0);
                    while let Some(p) = parent[node] {
                        len += edge_len[node];
                        node = p;
                    }
                    len
                });
                (edge_paths.iter().map(path_len).sum(), sinks.collect())
            }
            RoutedKind::LmPair { half_a, half_b, .. } => (
                path_len(half_a) + path_len(half_b),
                vec![path_len(half_a), path_len(half_b)],
            ),
            RoutedKind::Mst { paths } => (paths.iter().map(path_len).sum(), Vec::new()),
            RoutedKind::Singleton => (0, Vec::new()),
        };
        out.total_length += internal + escape.unwrap_or(0);
        if escape.is_some() {
            out.valves_routed += rc.cluster.len();
            let spread = member_lengths.iter().max().zip(member_lengths.iter().min());
            if rc.cluster.is_length_matched()
                && matches!(spread, Some((hi, lo)) if hi - lo <= delta)
            {
                out.matched_clusters += 1;
            }
        }
    }
    out
}

/// The layer a span's self time counts towards; `None` for a span that
/// belongs to the layer of its parent (such as `parallel.batch`).
fn layer_of(span: &str) -> Option<&'static str> {
    Some(match span {
        "escape.net_solve" | "escape.solo_solve" => "flow.net_solve_ms",
        "escape.roi_solve" => "flow.roi_solve_ms",
        "escape.net_build" | "escape.roi_build" | "escape.solo_build" => "flow.build_ms",
        "escape.delta_apply" => "flow.delta_apply_ms",
        "stage.escape" | "escape.phase1" | "escape.phase2" | "escape.phase3" => {
            "escape_stage.self_ms"
        }
        "stage.lm_routing" => "lm_routing.self_ms",
        "negotiate" | "negotiate.round" => "route.negotiate_ms",
        "stage.mst_routing" => "mst_routing.self_ms",
        "stage.detour" => "detour.ms",
        "bench.verify" => "verify.ms",
        "bench.route" | "stage.clustering" => "core.unattributed_ms",
        _ => return None,
    })
}

/// Per-layer self times of a traced route, with each span name's count.
#[derive(Default)]
struct Layers {
    ms: BTreeMap<&'static str, f64>,
    spans: BTreeMap<String, u64>,
    /// Root spans that map to no layer; they count as
    /// `core.unattributed_ms`.
    unmapped: Vec<String>,
}

impl Layers {
    /// Sums the self time of every span of `events` into its layer (see
    /// [`layer_of`]); a span with no layer of its own counts towards its
    /// parent's.
    fn of(events: &[TraceEvent]) -> Self {
        let mut layers = Self::default();
        layers.add(&pacor::obs::span_tree(events), None);
        layers
    }

    fn add(&mut self, nodes: &[SpanNode], parent: Option<&'static str>) {
        for node in nodes {
            let layer = layer_of(&node.name).or(parent).unwrap_or_else(|| {
                self.unmapped.push(node.name.clone());
                "core.unattributed_ms"
            });
            *self.ms.entry(layer).or_insert(0.0) += node.excl_us as f64 / 1e3;
            *self.spans.entry(node.name.clone()).or_insert(0) += node.count;
            self.add(&node.children, Some(layer));
        }
    }

    fn count(&self, names: &[&str]) -> u64 {
        names.iter().filter_map(|n| self.spans.get(*n)).sum()
    }
}

/// Counters copied from the session as they are named there.
const COUNTERS: [&str; 10] = [
    "astar.expansions",
    "astar.queries",
    "detour.segments",
    "escape.declustered",
    "escape.delta_fallback",
    "escape.ripped",
    "escape.rounds",
    "mwcp.pair_scores",
    "negotiate.ripups",
    "negotiate.rounds",
];

fn route(problem: &Problem, traced: bool) -> String {
    let flow = PacorFlow::new(FlowConfig::default());
    let session = traced.then(Session::begin);
    if traced {
        pacor::obs::telemetry_install(TelemetryConfig::default(), vec![Box::new(StageStream)]);
    }
    let t = Instant::now();
    let result = {
        let _span = pacor::obs::span("bench.route");
        std::panic::catch_unwind(|| flow.run_detailed(problem))
    };
    let route_ms = ms(t.elapsed());
    if traced {
        let _ = pacor::obs::telemetry_take();
    }
    let checked = match &result {
        Ok(Ok((report, routed))) => {
            let _span = pacor::obs::span("bench.verify");
            Some(check(problem, report, routed))
        }
        _ => None,
    };
    let obs = session.map(Session::finish);

    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"route_ms\":{route_ms:.6},\"rss_kib\":{}",
        peak_rss_kib()
    );
    match (&result, checked) {
        (Ok(Ok((report, _))), Some(failed_checks)) => {
            let _ = write!(
                s,
                ",\"status\":\"ok\",\"valves_routed\":{},\"matched_clusters\":{},\"total_length\":{},\"checks_failed\":[{}]",
                report.valves_routed,
                report.matched_clusters,
                report.total_length,
                failed_checks
                    .iter()
                    .map(|c| format!("\"{c}\""))
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        (Ok(Err(e)), _) => {
            let _ = write!(s, ",\"status\":\"error\",\"error\":{:?}", e.to_string());
        }
        _ => s.push_str(",\"status\":\"panic\""),
    }
    if let Some(obs) = obs {
        let layers = Layers::of(obs.events());
        let wall_ms = obs
            .events()
            .iter()
            .find_map(|e| match e {
                TraceEvent::Span {
                    name: "bench.route",
                    dur,
                    ..
                } => Some(*dur as f64 / 1e3),
                _ => None,
            })
            .unwrap_or(0.0);
        let _ = write!(s, ",\"traced_wall_ms\":{wall_ms:.3},\"layers\":{{");
        let items: Vec<String> = layers
            .ms
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v:.3}"))
            .collect();
        s.push_str(&items.join(","));
        s.push_str("},\"counts\":{");
        let mut counts: Vec<(&str, u64)> = COUNTERS.iter().map(|&c| (c, obs.counter(c))).collect();
        counts.push((
            "dme.candidates",
            obs.histograms()
                .find(|(n, _)| *n == "dme.candidates")
                .map_or(0, |(_, h)| h.sum()),
        ));
        counts.push((
            "flow.net_solves",
            layers.count(&["escape.net_solve", "escape.solo_solve"]),
        ));
        counts.push(("flow.roi_solves", layers.count(&["escape.roi_solve"])));
        counts.push(("flow.delta_applies", layers.count(&["escape.delta_apply"])));
        let items: Vec<String> = counts.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        s.push_str(&items.join(","));
        let items: Vec<String> = layers.unmapped.iter().map(|n| format!("{n:?}")).collect();
        let _ = write!(s, "}},\"unmapped_spans\":[{}]", items.join(","));
    }
    s.push('}');
    s
}

/// Names of the output checks a routed chip fails (empty when legal).
fn check(problem: &Problem, report: &RouteReport, routed: &[RoutedCluster]) -> Vec<&'static str> {
    let mut failed = Vec::new();
    if !verify_layout(problem, routed).is_empty() {
        failed.push("verify_layout");
    }
    let claimed = Outcome {
        valves_routed: report.valves_routed,
        matched_clusters: report.matched_clusters,
        total_length: report.total_length,
    };
    if claimed != recompute(routed, problem.delta) || report.valves_total != problem.valve_count() {
        failed.push("report_vs_geometry");
    }
    failed
}

fn serve() -> Result<(), String> {
    let mut out = io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    for line in io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let (mode, json) = line
            .split_once('\t')
            .ok_or("request needs a mode and a problem")?;
        let problem: Problem = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let answer = route(&problem, mode == "T");
        writeln!(out, "{answer}")
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["synth", workload, seed, count] => match (seed.parse(), count.parse()) {
            (Ok(seed), Ok(count)) => synth(workload, seed, count),
            _ => Err("seed and count must be whole numbers".to_string()),
        },
        ["serve"] => serve(),
        _ => Err("usage: pacor-perfbench synth <workload> <seed> <count> | serve".to_string()),
    };
    if let Err(e) = result {
        eprintln!("pacor-perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_pass_on_a_routed_chip_and_catch_a_dropped_escape() {
        let problem = BenchDesign::S2.synthesize(7);
        let (report, mut routed) = PacorFlow::default()
            .run_detailed(&problem)
            .expect("S2 routes");
        assert!(check(&problem, &report, &routed).is_empty());
        let routed_one = routed.iter().position(|rc| rc.escape.is_some());
        routed[routed_one.expect("S2 routes a cluster")].escape = None;
        assert_eq!(check(&problem, &report, &routed), ["report_vs_geometry"]);
    }

    fn span(name: &'static str, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent::Span {
            name,
            ts,
            dur,
            tid: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_times_partition_the_outer_span() {
        // Children are recorded before their parents, as spans drop.
        let events = [
            span("escape.net_solve", 20, 30),
            span("parallel.batch", 60, 10),
            span("stage.escape", 10, 70),
            span("bench.route", 0, 100),
        ];
        let layers = Layers::of(&events);
        assert!(layers.unmapped.is_empty());
        assert_eq!(layers.count(&["escape.net_solve", "stage.escape"]), 2);
        let layers = layers.ms;
        assert_eq!(layers["flow.net_solve_ms"], 0.030);
        assert_eq!(layers["escape_stage.self_ms"], 0.040);
        assert_eq!(layers["core.unattributed_ms"], 0.030);
        assert!((layers.values().sum::<f64>() - 0.1).abs() < 1e-12);

        let stray = [span("bench.route", 0, 10), span("elsewhere", 20, 5)];
        assert_eq!(Layers::of(&stray).unmapped, ["elsewhere"]);
    }
}
