//! Anti-rot guard for `docs/OBSERVABILITY.md`: run a smoke flow that
//! exercises both rip-up policies with the flight recorder installed and the telemetry stream collecting, and
//! assert that every counter, histogram, span, instant, recorder-event
//! name, and telemetry event kind actually emitted appears in the
//! catalog. Adding an emit site without cataloging it fails here.

use pacor_repro::pacor::obs::{self, TraceEvent};
use pacor_repro::pacor::route::RipUpPolicy;
use pacor_repro::pacor::{self, synthesize_params, DesignParams, FlowConfig, PacorFlow, RoutingMode};
use std::collections::BTreeSet;

/// Dense enough that negotiation rips up and escape recovers, so the
/// rarer emit sites (rip-up, de-clustering, detouring) all fire.
const DENSE: DesignParams = DesignParams {
    name: "D1-dense24",
    width: 24,
    height: 24,
    valves: 18,
    control_pins: 40,
    obstacles: 50,
    multi_clusters: 8,
    pairs_only: false,
};

fn read_catalog() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/docs/OBSERVABILITY.md"
    ))
    .expect("docs/OBSERVABILITY.md exists")
}

#[test]
fn every_emitted_name_is_catalogued() {
    let problem = synthesize_params(DENSE, 42);

    let session = obs::Session::begin();
    let config = FlowConfig::default().with_threads(4);
    obs::flight_install(config.recorder_config());
    let sink = obs::MemorySink::new();
    let lines_handle = sink.lines();
    obs::telemetry_install(obs::TelemetryConfig::deterministic(), vec![Box::new(sink)]);
    let mut kinds: BTreeSet<&'static str> = BTreeSet::new();
    for policy in [RipUpPolicy::Full, RipUpPolicy::Incremental] {
        PacorFlow::new(config.with_ripup_policy(policy))
            .run(&problem)
            .expect("dense chip routes");
    }
    // A multi-region hierarchical run (gcell smaller than the chip), so
    // the `global.*` counters/histogram and the global/regions/stitch/
    // repair emit sites are guarded too.
    PacorFlow::new(
        config
            .with_routing_mode(RoutingMode::Hierarchical)
            .with_gcell_size(8),
    )
    .run(&problem)
    .expect("dense chip routes hierarchically");
    let log = obs::flight_take().expect("recorder installed");
    obs::telemetry_take()
        .expect("telemetry installed")
        .expect("no sink errors");
    kinds.extend(log.events().iter().map(|e| e.kind()));
    let report = session.finish();

    // Telemetry event kinds pulled from the raw JSONL stream, so the
    // doc's streaming-telemetry section rots as loudly as the rest.
    let telemetry_kinds: BTreeSet<String> = lines_handle
        .lock()
        .expect("sink lines")
        .iter()
        .map(|l| {
            let rest = l.split("\"kind\":\"").nth(1).expect("line carries kind");
            rest[..rest.find('"').expect("kind is quoted")].to_string()
        })
        .collect();
    assert!(
        telemetry_kinds.contains("round_progress") && telemetry_kinds.contains("escape_progress"),
        "smoke flow too tame to guard the telemetry catalog: {telemetry_kinds:?}"
    );

    let mut names: BTreeSet<String> = BTreeSet::new();
    names.extend(report.counters().map(|(n, _)| n.to_string()));
    names.extend(report.histograms().map(|(n, _)| n.to_string()));
    for event in report.events() {
        match event {
            TraceEvent::Span { name, .. }
            | TraceEvent::Instant { name, .. }
            | TraceEvent::Counter { name, .. } => {
                names.insert(name.to_string());
            }
        }
    }
    names.extend(kinds.iter().map(|k| k.to_string()));
    names.extend(telemetry_kinds);
    assert!(
        names.contains("negotiate.ripups")
            && names.contains("rip_up")
            && names.contains("global.regions")
            && names.contains("global.corridor_len"),
        "smoke flow too tame to guard the catalog: {names:?}"
    );

    let catalog = read_catalog();
    let missing: Vec<&String> = names
        .iter()
        .filter(|n| !catalog.contains(&format!("`{n}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "emitted names missing from docs/OBSERVABILITY.md: {missing:?}"
    );
}

/// Recursively collects every object key of a JSON value.
fn collect_keys(value: &serde::Value, keys: &mut BTreeSet<String>) {
    match value {
        serde::Value::Object(entries) => {
            for (k, v) in entries {
                keys.insert(k.clone());
                collect_keys(v, keys);
            }
        }
        serde::Value::Array(items) => {
            for v in items {
                collect_keys(v, keys);
            }
        }
        _ => {}
    }
}

#[test]
fn digest_and_diff_schema_keys_are_catalogued() {
    let problem = synthesize_params(DENSE, 42);
    let config = FlowConfig::default();
    let session = obs::Session::begin();
    let report = PacorFlow::new(config).run(&problem).expect("routes");
    let obs_report = session.finish();
    let digest = pacor::run_digest(&problem, &config, &report, &obs_report);

    // A perturbed clone populates every rundiff section: fingerprint
    // drift, quality drift, counter drift, and span add/remove/change.
    let mut other = digest.clone();
    other.fingerprint.config[1].1 = "0.987".to_string();
    other.outcome.total_length += 1;
    if let Some(c) = other.counters.first_mut() {
        c.1 += 1;
    }
    let moved = other.wall.spans.remove(0);
    other.wall.spans.push(obs::SpanNode {
        name: "added.span".to_string(),
        ..moved
    });
    let diff = obs::diff_runs(&digest, &other);
    assert!(
        !diff.fingerprint.is_empty()
            && !diff.quality.is_empty()
            && !diff.metrics.is_empty()
            && !diff.span_added.is_empty()
            && !diff.span_removed.is_empty(),
        "perturbation too tame to guard every rundiff section"
    );

    let mut keys: BTreeSet<String> = BTreeSet::new();
    let digest_doc: serde::Value =
        serde_json::from_str(&digest.to_json()).expect("digest JSON parses");
    collect_keys(&digest_doc, &mut keys);
    let diff_doc: serde::Value =
        serde_json::from_str(&obs::diff_json(&diff)).expect("diff JSON parses");
    collect_keys(&diff_doc, &mut keys);
    assert!(
        keys.contains("fingerprint") && keys.contains("span_changed") && keys.contains("slack"),
        "schema walk too tame to guard the catalog: {keys:?}"
    );

    let catalog = read_catalog();
    let missing: Vec<&String> = keys
        .iter()
        .filter(|k| !catalog.contains(&format!("`{k}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "digest/diff schema keys missing from docs/OBSERVABILITY.md: {missing:?}"
    );
}
