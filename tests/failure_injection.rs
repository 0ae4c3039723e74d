//! Failure-injection tests: degenerate and hostile inputs must degrade
//! gracefully — correct errors, partial results, never panics.

use pacor_repro::grid::Point;
use pacor_repro::pacor::{
    verify_layout, BenchDesign, FlowConfig, FlowError, FlowVariant, PacorFlow, Problem,
};
use pacor_repro::valves::{Valve, ValveId};

fn valve(id: u32, x: i32, y: i32, seq: &str) -> Valve {
    Valve::new(ValveId(id), Point::new(x, y), seq.parse().unwrap())
}

#[test]
fn no_pins_at_all() {
    // Valves route internally but nothing can escape: 0% completion,
    // no panic, no geometry violations.
    let problem = Problem::builder("no-pins", 16, 16)
        .valve(valve(0, 4, 8, "01"))
        .valve(valve(1, 12, 8, "01"))
        .lm_cluster(vec![ValveId(0), ValveId(1)])
        .build()
        .unwrap();
    let (report, routed) = PacorFlow::new(FlowConfig::default())
        .run_detailed(&problem)
        .unwrap();
    assert_eq!(report.valves_routed, 0);
    assert_eq!(report.matched_clusters, 0);
    assert!(verify_layout(&problem, &routed).is_empty());
}

#[test]
fn fewer_pins_than_clusters() {
    // Three incompatible valves, one pin: exactly one routes.
    let problem = Problem::builder("one-pin", 16, 16)
        .valve(valve(0, 4, 4, "001"))
        .valve(valve(1, 8, 8, "010"))
        .valve(valve(2, 12, 4, "100"))
        .pin(Point::new(0, 8))
        .build()
        .unwrap();
    let report = PacorFlow::new(FlowConfig::default()).run(&problem).unwrap();
    assert_eq!(report.valves_routed, 1);
}

#[test]
fn valve_fully_walled_by_obstacles() {
    let mut builder = Problem::builder("walled", 12, 12).valve(valve(0, 6, 6, "0"));
    for p in [
        Point::new(5, 6),
        Point::new(7, 6),
        Point::new(6, 5),
        Point::new(6, 7),
    ] {
        builder = builder.obstacle(p);
    }
    let problem = builder.pin(Point::new(0, 6)).build().unwrap();
    let (report, routed) = PacorFlow::new(FlowConfig::default())
        .run_detailed(&problem)
        .unwrap();
    assert_eq!(report.valves_routed, 0, "hard enclosure is unroutable");
    assert!(verify_layout(&problem, &routed).is_empty());
}

#[test]
fn all_pins_blocked_by_obstacles() {
    let pins: Vec<Point> = (1..11).step_by(2).map(|y| Point::new(0, y)).collect();
    let mut builder = Problem::builder("blocked-pins", 12, 12).valve(valve(0, 6, 6, "0"));
    for &p in &pins {
        builder = builder.obstacle(p);
    }
    let problem = builder.pins(pins).build().unwrap();
    let report = PacorFlow::new(FlowConfig::default()).run(&problem).unwrap();
    assert_eq!(report.valves_routed, 0);
}

#[test]
fn zero_ripup_budget_still_terminates() {
    let problem = BenchDesign::S2.synthesize(42);
    let cfg = FlowConfig {
        max_ripup_rounds: 1,
        ..FlowConfig::default()
    };
    let report = PacorFlow::new(cfg).run(&problem).unwrap();
    // May be incomplete, must be sane.
    assert!(report.valves_routed <= report.valves_total);
}

#[test]
fn tiny_grid_single_cluster() {
    let problem = Problem::builder("tiny", 4, 4)
        .valve(valve(0, 1, 1, "0"))
        .valve(valve(1, 2, 2, "0"))
        .pin(Point::new(0, 1))
        .pin(Point::new(0, 2))
        .build()
        .unwrap();
    for v in FlowVariant::ALL {
        let report = PacorFlow::new(FlowConfig::for_variant(v)).run(&problem).unwrap();
        assert_eq!(report.completion_rate(), 1.0, "{}", v.label());
    }
}

#[test]
fn huge_delta_matches_everything_routable() {
    let mut problem = BenchDesign::S3.synthesize(42);
    problem.delta = 10_000;
    let report = PacorFlow::new(FlowConfig::default()).run(&problem).unwrap();
    // Every complete LM cluster trivially satisfies a huge δ.
    let complete_lm = report
        .clusters
        .iter()
        .filter(|c| c.length_constrained && c.complete)
        .count();
    assert_eq!(report.matched_clusters, complete_lm);
}

#[test]
fn zero_candidates_config_is_clamped() {
    // max_candidates = 1 (minimum useful value) must work.
    let problem = BenchDesign::S3.synthesize(1);
    let cfg = FlowConfig {
        max_candidates: 1,
        ..FlowConfig::default()
    };
    let report = PacorFlow::new(cfg).run(&problem).unwrap();
    assert_eq!(report.completion_rate(), 1.0);
}

#[test]
fn duplicate_pins_are_harmless() {
    // A pin listed twice is an inconsistent problem: validation names it
    // with a typed error instead of letting the flow run on it.
    let err = Problem::builder("dups", 12, 12)
        .valve(valve(0, 6, 6, "0"))
        .pins([Point::new(0, 5), Point::new(0, 5), Point::new(0, 7)])
        .build()
        .unwrap_err();
    assert!(matches!(err, FlowError::InvalidProblem(_)), "{err}");
    assert!(err.to_string().contains("listed twice"), "{err}");
}

#[test]
fn detour_budget_zero_skips_detours_gracefully() {
    let problem = BenchDesign::S4.synthesize(42);
    let cfg = FlowConfig {
        detour_node_budget: 0,
        ..FlowConfig::default()
    };
    let (report, routed) = PacorFlow::new(cfg).run_detailed(&problem).unwrap();
    assert_eq!(report.completion_rate(), 1.0);
    assert!(verify_layout(&problem, &routed).is_empty());
}
