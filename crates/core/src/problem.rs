//! The control synthesis and routing problem (paper Section 2).

use crate::FlowError;
use pacor_grid::{Grid, GridLen, Point};
use pacor_valves::{Valve, ValveId, ValveSet};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A complete problem instance, matching the paper's "Given":
/// all valves with coordinates, valve compatibility (via activation
/// sequences), clusters with the length-matching threshold `δ`, feasible
/// control pin positions, and the routing grid (already partitioned per
/// the design rules).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Problem {
    /// Design name (for reports).
    pub name: String,
    /// Grid width in routing cells.
    pub width: u32,
    /// Grid height in routing cells.
    pub height: u32,
    /// All valves.
    pub valves: ValveSet,
    /// Length-matching clusters: valve-id groups that must be driven by a
    /// single pin with matched channel lengths.
    pub lm_clusters: Vec<Vec<ValveId>>,
    /// Length-matching threshold `δ` in grid units.
    pub delta: GridLen,
    /// Feasible control pin positions (boundary cells).
    pub pins: Vec<Point>,
    /// Obstructed routing cells.
    pub obstacles: Vec<Point>,
}

impl Problem {
    /// Starts building a problem on a `width × height` grid.
    pub fn builder(name: impl Into<String>, width: u32, height: u32) -> ProblemBuilder {
        ProblemBuilder {
            problem: Problem {
                name: name.into(),
                width,
                height,
                valves: ValveSet::new(),
                lm_clusters: Vec::new(),
                delta: 1,
                pins: Vec::new(),
                obstacles: Vec::new(),
            },
        }
    }

    /// Materializes the routing grid with all obstacles applied.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Grid`] for invalid dimensions.
    pub fn grid(&self) -> Result<Grid, FlowError> {
        let mut grid = Grid::new(self.width, self.height)?;
        for &o in &self.obstacles {
            grid.set_obstacle(o);
        }
        Ok(grid)
    }

    /// Validates the instance: valves on distinct free in-bounds cells,
    /// distinct pins on the boundary, length-matching clusters
    /// referencing known, pairwise compatible valves, each valve in at
    /// most one cluster and at most once.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidProblem`] describing the first
    /// violation found.
    pub fn validate(&self) -> Result<(), FlowError> {
        let grid = self.grid()?;
        let mut valve_at: HashMap<Point, ValveId> = HashMap::new();
        for v in self.valves.iter() {
            let p = v.position();
            if !grid.in_bounds(p) {
                return Err(FlowError::InvalidProblem(format!(
                    "valve {} at {} outside the {}x{} grid",
                    v.id(),
                    p,
                    self.width,
                    self.height
                )));
            }
            if grid.is_obstacle(p) {
                return Err(FlowError::InvalidProblem(format!(
                    "valve {} at {} sits on an obstacle",
                    v.id(),
                    p
                )));
            }
            if let Some(other) = valve_at.insert(p, v.id()) {
                return Err(FlowError::InvalidProblem(format!(
                    "valves {other} and {} share the cell {p}",
                    v.id()
                )));
            }
        }
        let mut pin_seen: HashSet<Point> = HashSet::new();
        for &p in &self.pins {
            if !grid.is_boundary(p) {
                return Err(FlowError::InvalidProblem(format!(
                    "control pin at {p} is not on the chip boundary"
                )));
            }
            if !pin_seen.insert(p) {
                return Err(FlowError::InvalidProblem(format!(
                    "control pin at {p} is listed twice"
                )));
            }
        }
        let mut cluster_of: HashMap<ValveId, usize> = HashMap::new();
        for (k, cluster) in self.lm_clusters.iter().enumerate() {
            if cluster.len() < 2 {
                return Err(FlowError::InvalidProblem(format!(
                    "length-matching cluster {k} has fewer than two valves"
                )));
            }
            for &id in cluster {
                if self.valves.get(id).is_none() {
                    return Err(FlowError::InvalidProblem(format!(
                        "length-matching cluster {k} references unknown valve {id}"
                    )));
                }
                match cluster_of.insert(id, k) {
                    Some(j) if j == k => {
                        return Err(FlowError::InvalidProblem(format!(
                            "length-matching cluster {k} lists valve {id} twice"
                        )));
                    }
                    Some(j) => {
                        return Err(FlowError::InvalidProblem(format!(
                            "valve {id} is in length-matching clusters {j} and {k}"
                        )));
                    }
                    None => {}
                }
            }
            for i in 0..cluster.len() {
                for j in (i + 1)..cluster.len() {
                    let a = self.valves.get(cluster[i]).expect("checked above");
                    let b = self.valves.get(cluster[j]).expect("checked above");
                    if !a.is_compatible(b) {
                        return Err(FlowError::InvalidProblem(format!(
                            "length-matching cluster {k}: valves {} and {} are incompatible",
                            cluster[i], cluster[j]
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of valves.
    pub fn valve_count(&self) -> usize {
        self.valves.len()
    }
}

/// Builder for [`Problem`].
#[derive(Debug, Clone)]
pub struct ProblemBuilder {
    problem: Problem,
}

impl ProblemBuilder {
    /// Adds a valve.
    pub fn valve(mut self, valve: Valve) -> Self {
        self.problem.valves.insert(valve);
        self
    }

    /// Adds a length-matching cluster over the given valve ids.
    pub fn lm_cluster(mut self, ids: Vec<ValveId>) -> Self {
        self.problem.lm_clusters.push(ids);
        self
    }

    /// Sets the length-matching threshold δ (grid units; paper uses 1).
    pub fn delta(mut self, delta: GridLen) -> Self {
        self.problem.delta = delta;
        self
    }

    /// Adds a candidate control pin.
    pub fn pin(mut self, p: Point) -> Self {
        self.problem.pins.push(p);
        self
    }

    /// Adds several candidate control pins.
    pub fn pins<I: IntoIterator<Item = Point>>(mut self, it: I) -> Self {
        self.problem.pins.extend(it);
        self
    }

    /// Adds an obstructed cell.
    pub fn obstacle(mut self, p: Point) -> Self {
        self.problem.obstacles.push(p);
        self
    }

    /// Adds several obstructed cells.
    pub fn obstacles<I: IntoIterator<Item = Point>>(mut self, it: I) -> Self {
        self.problem.obstacles.extend(it);
        self
    }

    /// Finishes and validates the problem.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidProblem`] when validation fails; see
    /// [`Problem::validate`].
    pub fn build(self) -> Result<Problem, FlowError> {
        self.problem.validate()?;
        Ok(self.problem)
    }

    /// Finishes without validation (for deliberately broken test inputs).
    pub fn build_unchecked(self) -> Problem {
        self.problem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valve(id: u32, x: i32, y: i32, seq: &str) -> Valve {
        Valve::new(ValveId(id), Point::new(x, y), seq.parse().expect("valid"))
    }

    #[test]
    fn builder_roundtrip() {
        let p = Problem::builder("t", 10, 10)
            .valve(valve(0, 2, 2, "01"))
            .valve(valve(1, 7, 7, "0X"))
            .lm_cluster(vec![ValveId(0), ValveId(1)])
            .pin(Point::new(0, 5))
            .obstacle(Point::new(5, 5))
            .delta(2)
            .build()
            .unwrap();
        assert_eq!(p.valve_count(), 2);
        assert_eq!(p.delta, 2);
        assert_eq!(p.lm_clusters.len(), 1);
    }

    #[test]
    fn rejects_valve_on_obstacle() {
        let err = Problem::builder("t", 10, 10)
            .valve(valve(0, 5, 5, "0"))
            .obstacle(Point::new(5, 5))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("obstacle"));
    }

    #[test]
    fn rejects_valve_off_grid() {
        let err = Problem::builder("t", 4, 4)
            .valve(valve(0, 9, 9, "0"))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("outside"));
    }

    #[test]
    fn rejects_interior_pin() {
        let err = Problem::builder("t", 10, 10)
            .pin(Point::new(5, 5))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("boundary"));
    }

    #[test]
    fn rejects_incompatible_lm_cluster() {
        let err = Problem::builder("t", 10, 10)
            .valve(valve(0, 1, 1, "01"))
            .valve(valve(1, 2, 2, "10"))
            .lm_cluster(vec![ValveId(0), ValveId(1)])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("incompatible"));
    }

    #[test]
    fn rejects_singleton_lm_cluster() {
        let err = Problem::builder("t", 10, 10)
            .valve(valve(0, 1, 1, "01"))
            .lm_cluster(vec![ValveId(0)])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("fewer than two"));
    }

    #[test]
    fn rejects_unknown_valve_in_cluster() {
        let err = Problem::builder("t", 10, 10)
            .valve(valve(0, 1, 1, "01"))
            .valve(valve(1, 2, 2, "0X"))
            .lm_cluster(vec![ValveId(0), ValveId(9)])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("unknown valve"));
    }

    #[test]
    fn rejects_two_valves_on_one_cell() {
        let err = Problem::builder("t", 10, 10)
            .valve(valve(0, 3, 3, "01"))
            .valve(valve(1, 3, 3, "0X"))
            .build()
            .unwrap_err();
        assert!(matches!(err, FlowError::InvalidProblem(_)), "{err}");
        assert!(err.to_string().contains("share the cell"), "{err}");
    }

    #[test]
    fn rejects_duplicate_pin() {
        let err = Problem::builder("t", 10, 10)
            .pin(Point::new(0, 5))
            .pin(Point::new(0, 5))
            .build()
            .unwrap_err();
        assert!(matches!(err, FlowError::InvalidProblem(_)), "{err}");
        assert!(err.to_string().contains("listed twice"), "{err}");
    }

    #[test]
    fn rejects_valve_listed_twice_in_one_lm_cluster() {
        let err = Problem::builder("t", 10, 10)
            .valve(valve(0, 1, 1, "01"))
            .valve(valve(1, 2, 2, "0X"))
            .lm_cluster(vec![ValveId(0), ValveId(1), ValveId(0)])
            .build()
            .unwrap_err();
        assert!(matches!(err, FlowError::InvalidProblem(_)), "{err}");
        assert!(err.to_string().contains("twice"), "{err}");
    }

    #[test]
    fn rejects_valve_in_two_lm_clusters() {
        let err = Problem::builder("t", 10, 10)
            .valve(valve(0, 1, 1, "01"))
            .valve(valve(1, 2, 2, "0X"))
            .valve(valve(2, 3, 3, "01"))
            .lm_cluster(vec![ValveId(0), ValveId(1)])
            .lm_cluster(vec![ValveId(2), ValveId(1)])
            .build()
            .unwrap_err();
        assert!(matches!(err, FlowError::InvalidProblem(_)), "{err}");
        assert!(err.to_string().contains("clusters 0 and 1"), "{err}");
    }

    #[test]
    fn grid_applies_obstacles() {
        let p = Problem::builder("t", 8, 8)
            .obstacle(Point::new(3, 3))
            .build()
            .unwrap();
        let g = p.grid().unwrap();
        assert!(g.is_obstacle(Point::new(3, 3)));
        assert_eq!(g.obstacle_count(), 1);
    }
}
