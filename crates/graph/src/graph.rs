//! The influence graph: routines, parameters, sensitivity scores.

use crate::{GraphError, Result};
use serde::{Deserialize, Serialize};

/// One pruned influence edge: parameter `param` (owned by routine `from`, if
/// any) influences routine `to` with strength `score`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Parameter index.
    pub param: usize,
    /// Owning routine index (`None` for global parameters).
    pub from: Option<usize>,
    /// Influenced routine index.
    pub to: usize,
    /// Influence score (mean relative runtime variability, e.g. `0.25` for
    /// the paper's 25%).
    pub score: f64,
}

/// Routine/parameter influence scores, the output of the per-routine
/// sensitivity analysis (paper Tables II, V, VI).
///
/// `score(p, r)` is the mean relative variability that individually varying
/// parameter `p` induces in routine `r`'s runtime. Each parameter may have
/// an *owner* routine — the routine whose code it nominally tunes.
/// Parameters influencing non-owner routines above the cut-off are the
/// paper's interdependence signal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InfluenceGraph {
    routines: Vec<String>,
    params: Vec<String>,
    /// `owner[p]` = owning routine of parameter `p`.
    owner: Vec<Option<usize>>,
    /// `scores[p][r]` = influence of parameter `p` on routine `r`.
    scores: Vec<Vec<f64>>,
}

impl InfluenceGraph {
    /// Create a graph with the given routine and parameter names; all scores
    /// zero, no owners.
    pub fn new(routines: Vec<String>, params: Vec<String>) -> Self {
        let nr = routines.len();
        let np = params.len();
        InfluenceGraph {
            routines,
            params,
            owner: vec![None; np],
            scores: vec![vec![0.0; nr]; np],
        }
    }

    /// Routine names.
    pub fn routines(&self) -> &[String] {
        &self.routines
    }

    /// Parameter names.
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// Index of routine `name`.
    pub fn routine_index(&self, name: &str) -> Result<usize> {
        self.routines
            .iter()
            .position(|r| r == name)
            .ok_or_else(|| GraphError::UnknownRoutine(name.to_string()))
    }

    /// Index of parameter `name`.
    pub fn param_index(&self, name: &str) -> Result<usize> {
        self.params
            .iter()
            .position(|p| p == name)
            .ok_or_else(|| GraphError::UnknownParam(name.to_string()))
    }

    /// Declare that routine `routine` owns parameter `param`.
    pub fn set_owner(&mut self, param: &str, routine: &str) -> Result<()> {
        let p = self.param_index(param)?;
        let r = self.routine_index(routine)?;
        self.owner[p] = Some(r);
        Ok(())
    }

    /// Record the influence score of `param` on `routine`.
    pub fn set_score(&mut self, param: &str, routine: &str, score: f64) -> Result<()> {
        let p = self.param_index(param)?;
        let r = self.routine_index(routine)?;
        self.scores[p][r] = score;
        Ok(())
    }

    /// Bulk-set an entire score row for `param` (one score per routine).
    pub fn set_scores(&mut self, param: &str, scores: &[f64]) -> Result<()> {
        let p = self.param_index(param)?;
        assert_eq!(
            scores.len(),
            self.routines.len(),
            "set_scores: one score per routine required"
        );
        self.scores[p].copy_from_slice(scores);
        Ok(())
    }

    /// Influence score of `param` on `routine`.
    pub fn score(&self, param: &str, routine: &str) -> Result<f64> {
        Ok(self.scores[self.param_index(param)?][self.routine_index(routine)?])
    }

    /// Score by indices (no name lookups, for hot loops).
    pub fn score_at(&self, param: usize, routine: usize) -> f64 {
        self.scores[param][routine]
    }

    /// All edges with `score >= cutoff`. Includes own-routine edges (param
    /// influencing its owner) — callers distinguish via
    /// [`Edge::from`] vs [`Edge::to`].
    pub fn edges(&self, cutoff: f64) -> Result<Vec<Edge>> {
        if !(cutoff.is_finite() && cutoff >= 0.0) {
            return Err(GraphError::InvalidCutoff(cutoff));
        }
        let mut out = Vec::new();
        for p in 0..self.params.len() {
            for r in 0..self.routines.len() {
                let s = self.scores[p][r];
                if s >= cutoff && s > 0.0 {
                    out.push(Edge {
                        param: p,
                        from: self.owner[p],
                        to: r,
                        score: s,
                    });
                }
            }
        }
        Ok(out)
    }

    /// Cross-edges only: influences on a routine other than the owner (the
    /// paper's interdependence signal). Ownerless (global) parameters have
    /// no cross-edges — they are handled as precedence routines instead.
    pub fn cross_edges(&self, cutoff: f64) -> Result<Vec<Edge>> {
        Ok(self
            .edges(cutoff)?
            .into_iter()
            .filter(|e| e.from.is_some_and(|f| f != e.to))
            .collect())
    }

    /// Parameters owned by routine `r` (indices).
    pub fn params_of(&self, r: usize) -> Vec<usize> {
        (0..self.params.len())
            .filter(|&p| self.owner[p] == Some(r))
            .collect()
    }

    /// Global importance of a parameter: its score on its owner, or its max
    /// score when ownerless. Used by the dimension cap to rank parameters.
    pub fn importance(&self, p: usize) -> f64 {
        match self.owner[p] {
            Some(r) => self.scores[p][r],
            None => self.scores[p].iter().cloned().fold(0.0, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_case3() -> InfluenceGraph {
        // Mirrors paper Table II, Case 3: Group 4 vars influence Group 3
        // at ~46-85%, Group 3 vars influence themselves at ~67-87%.
        let mut g = InfluenceGraph::new(
            vec!["G1".into(), "G2".into(), "G3".into(), "G4".into()],
            vec!["x0".into(), "x5".into(), "x10".into(), "x15".into()],
        );
        g.set_owner("x0", "G1").unwrap();
        g.set_owner("x5", "G2").unwrap();
        g.set_owner("x10", "G3").unwrap();
        g.set_owner("x15", "G4").unwrap();
        g.set_scores("x0", &[0.9, 0.001, 0.002, 0.001]).unwrap();
        g.set_scores("x5", &[0.0, 0.8, 0.004, 0.003]).unwrap();
        g.set_scores("x10", &[0.001, 0.0, 0.67, 0.002]).unwrap();
        g.set_scores("x15", &[0.002, 0.001, 0.46, 0.75]).unwrap();
        g
    }

    #[test]
    fn score_roundtrip() {
        let g = synthetic_case3();
        assert_eq!(g.score("x15", "G3").unwrap(), 0.46);
        assert!(g.score("nope", "G3").is_err());
        assert!(g.score("x15", "nope").is_err());
    }

    #[test]
    fn edges_respect_cutoff() {
        let g = synthetic_case3();
        let edges = g.edges(0.25).unwrap();
        // Four own-edges + one cross-edge (x15 -> G3).
        assert_eq!(edges.len(), 5);
        let cross = g.cross_edges(0.25).unwrap();
        assert_eq!(cross.len(), 1);
        assert_eq!(cross[0].param, 3);
        assert_eq!(cross[0].to, 2);
    }

    #[test]
    fn higher_cutoff_removes_cross_edge() {
        let g = synthetic_case3();
        assert!(g.cross_edges(0.5).unwrap().is_empty());
    }

    #[test]
    fn invalid_cutoff_rejected() {
        let g = synthetic_case3();
        assert!(matches!(
            g.edges(f64::NAN),
            Err(GraphError::InvalidCutoff(_))
        ));
        assert!(matches!(g.edges(-0.1), Err(GraphError::InvalidCutoff(_))));
    }

    #[test]
    fn params_of_and_importance() {
        let g = synthetic_case3();
        assert_eq!(g.params_of(2), vec![2]); // G3 owns x10
        assert_eq!(g.importance(2), 0.67);
    }

    #[test]
    fn ownerless_param_importance_is_max() {
        let mut g = InfluenceGraph::new(vec!["A".into(), "B".into()], vec!["nb".into()]);
        g.set_scores("nb", &[3.2, 0.9]).unwrap();
        assert_eq!(g.importance(0), 3.2);
        assert!(g.params_of(0).is_empty() && g.params_of(1).is_empty());
        // No cross edges for ownerless params.
        assert!(g.cross_edges(0.1).unwrap().is_empty());
    }
}
