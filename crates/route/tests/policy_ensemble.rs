//! Deterministic fixed-seed ensemble pinning the negotiation router's
//! aggregate behavior.
//!
//! Per-case claims like "never more than N rounds" are not theorems —
//! evicting only contended victims can occasionally discover a worse
//! ordering than replanning everything, and the no-progress escalation
//! costs an extra round when it fires. Over a fixed random ensemble the
//! totals are exact, so this test never flakes; a change to victim
//! selection, escalation or history shifts them and must re-pin them
//! with a reason.

use pacor_grid::{Grid, ObsMap, Point};
use pacor_route::{NegotiationRouter, RouteRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 1500;
const SIZE: i32 = 14;

fn random_case(rng: &mut StdRng) -> (ObsMap, Vec<RouteRequest>) {
    let mut grid = Grid::new(SIZE as u32, SIZE as u32).unwrap();
    let mut cells = std::collections::HashSet::new();
    for _ in 0..rng.gen_range(0..30) {
        cells.insert(Point::new(rng.gen_range(0..SIZE), rng.gen_range(0..SIZE)));
    }
    let n_terms: usize = 2 * rng.gen_range(2..5usize);
    let mut terms = Vec::new();
    while terms.len() < n_terms {
        let p = Point::new(rng.gen_range(0..SIZE), rng.gen_range(0..SIZE));
        if !cells.contains(&p) && !terms.contains(&p) {
            terms.push(p);
        }
    }
    for c in &cells {
        grid.set_obstacle(*c);
    }
    let edges = terms
        .chunks_exact(2)
        .map(|c| RouteRequest::point_to_point(c[0], c[1]))
        .collect();
    (ObsMap::new(&grid), edges)
}

#[test]
fn ensemble_totals_are_pinned() {
    let mut rng = StdRng::seed_from_u64(1);
    let (mut sum_ripups, mut n_complete) = (0u64, 0u64);
    let mut contended = 0usize;
    for _ in 0..CASES {
        let (mut obs, edges) = random_case(&mut rng);
        let out = NegotiationRouter::new().route_all(&mut obs, &edges);
        if out.iterations > 1 {
            contended += 1;
        }
        sum_ripups += out.ripups;
        n_complete += u64::from(out.complete);
    }
    // The ensemble must genuinely exercise negotiation, not converge on
    // round 1 everywhere.
    assert!(
        contended > 100,
        "only {contended}/{CASES} cases saw contention — ensemble too sparse"
    );
    assert_eq!(sum_ripups, 1610, "ensemble rip-up total moved");
    assert_eq!(n_complete, 1445, "ensemble completion total moved");
}
