//! DAG partitioning into merged tuning searches.

use crate::{GraphError, InfluenceGraph, Result, UnionFind};
use serde::{Deserialize, Serialize};

/// One merged tuning search produced by the partitioner: the routines it
/// covers and the parameters it will tune.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchGroup {
    /// Member routine indices (ascending).
    pub routines: Vec<usize>,
    /// Parameter indices to tune in this search (ascending by importance
    /// after capping, insertion order before).
    pub params: Vec<usize>,
    /// Parameters excluded by the dimension cap; tuned at defaults instead.
    pub dropped: Vec<usize>,
}

impl SearchGroup {
    /// Dimensionality of this search.
    pub fn dim(&self) -> usize {
        self.params.len()
    }
}

/// The outcome of partitioning an [`InfluenceGraph`] at a cut-off.
///
/// `precedence` lists routines the caller declared upstream (tuned first,
/// then frozen); `groups` are the remaining merged searches, independent of
/// each other and therefore runnable in parallel — exactly the paper's
/// "optimized breakdown of independent and merged searches".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Partition {
    groups: Vec<SearchGroup>,
    precedence: Vec<usize>,
    cutoff: f64,
}

impl Partition {
    /// The merged search groups (excluding precedence routines).
    pub fn groups(&self) -> &[SearchGroup] {
        &self.groups
    }

    /// Routines declared upstream.
    pub fn precedence(&self) -> &[usize] {
        &self.precedence
    }

    /// The cut-off the partition was computed with.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// The group containing routine `r`, if any.
    pub fn group_of(&self, r: usize) -> Option<&SearchGroup> {
        self.groups.iter().find(|g| g.routines.contains(&r))
    }

    /// Enforce the methodology's per-search dimension cap: any group with
    /// more than `max_dims` parameters keeps only the `max_dims` most
    /// important ones (by `importance[p]`, descending; ties broken by lower
    /// parameter index for determinism) and records the rest in
    /// [`SearchGroup::dropped`].
    ///
    /// The paper uses `max_dims = 10`, "grounded in the feasibility of
    /// conducting outstanding BO searches within a manageable number of
    /// iterations".
    pub fn cap_dimensions(&mut self, max_dims: usize, importance: &[f64]) {
        for g in &mut self.groups {
            if g.params.len() <= max_dims {
                continue;
            }
            let mut ranked: Vec<usize> = g.params.clone();
            ranked.sort_by(|&a, &b| {
                importance[b]
                    .partial_cmp(&importance[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            let kept: Vec<usize> = ranked[..max_dims].to_vec();
            let mut dropped: Vec<usize> = ranked[max_dims..].to_vec();
            dropped.sort_unstable();
            let mut kept_sorted = kept;
            kept_sorted.sort_unstable();
            g.params = kept_sorted;
            g.dropped.extend(dropped);
            g.dropped.sort_unstable();
            g.dropped.dedup();
        }
    }

    /// Move parameter `param` so it is tuned only in the group containing
    /// routine `keep_routine`, removing it from every other group (it is
    /// *not* added to `dropped`: the parameter is still tuned, just
    /// elsewhere). Implements methodology step 5 for shared kernels.
    pub fn assign_param_to(&mut self, param: usize, keep_routine: usize) {
        for g in &mut self.groups {
            let keeps = g.routines.contains(&keep_routine);
            let has = g.params.contains(&param);
            if keeps && !has {
                g.params.push(param);
                g.params.sort_unstable();
            } else if !keeps && has {
                g.params.retain(|&p| p != param);
            }
        }
    }
}

impl InfluenceGraph {
    /// Partition routines into merged searches at `cutoff`.
    ///
    /// * Routines in `precedence` (names) are excluded from merging — their
    ///   cross-edges express tuning *order*, not joint search (paper: the
    ///   batch size is fixed first against the Slater-determinant runtime,
    ///   then the GPU groups are tuned).
    /// * Every remaining pair of routines connected by a cross-edge with
    ///   `score >= cutoff` is merged (transitively, via union–find).
    /// * Each group's parameter set is the union of its member routines'
    ///   owned parameters.
    pub fn partition(&self, cutoff: f64, precedence: &[&str]) -> Result<Partition> {
        self.partition_with(cutoff, precedence, &[])
    }

    /// Like [`InfluenceGraph::partition`] but with `shared` parameters
    /// (names) whose cross-edges do **not** force merges: a shared
    /// parameter is used by several routines by *construction* (the
    /// paper's cuZcopy kernel called from both Group 1 and Group 3), so
    /// its cross-influence is resolved by assigning it to its
    /// highest-impact routine (methodology step 5 /
    /// [`Partition::assign_param_to`]) rather than by merging the
    /// routines.
    pub fn partition_with(
        &self,
        cutoff: f64,
        precedence: &[&str],
        shared: &[&str],
    ) -> Result<Partition> {
        if !(cutoff.is_finite() && cutoff >= 0.0) {
            return Err(GraphError::InvalidCutoff(cutoff));
        }
        let nr = self.routines().len();
        let mut prec = Vec::with_capacity(precedence.len());
        for name in precedence {
            prec.push(self.routine_index(name)?);
        }
        let mut shared_idx = Vec::with_capacity(shared.len());
        for name in shared {
            shared_idx.push(self.param_index(name)?);
        }

        let mut uf = UnionFind::new(nr);
        for e in self.cross_edges(cutoff)? {
            // cross_edges only yields owned params; an ownerless edge cannot
            // merge groups, so skip it rather than panicking.
            let Some(from) = e.from else { continue };
            if prec.contains(&from) || prec.contains(&e.to) || shared_idx.contains(&e.param) {
                continue;
            }
            uf.union(from, e.to);
        }

        let groups = uf
            .groups()
            .into_iter()
            .filter(|g| !(g.len() == 1 && prec.contains(&g[0])))
            .map(|routines| {
                let mut params: Vec<usize> =
                    routines.iter().flat_map(|&r| self.params_of(r)).collect();
                params.sort_unstable();
                SearchGroup {
                    routines,
                    params,
                    dropped: vec![],
                }
            })
            .collect();

        Ok(Partition {
            groups,
            precedence: prec,
            cutoff,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four routines, one param each, G4's param also hits G3 at 0.46.
    fn case3() -> InfluenceGraph {
        let mut g = InfluenceGraph::new(
            vec!["G1".into(), "G2".into(), "G3".into(), "G4".into()],
            vec!["x0".into(), "x5".into(), "x10".into(), "x15".into()],
        );
        for (p, r) in [("x0", "G1"), ("x5", "G2"), ("x10", "G3"), ("x15", "G4")] {
            g.set_owner(p, r).unwrap();
        }
        g.set_scores("x0", &[0.9, 0.001, 0.002, 0.001]).unwrap();
        g.set_scores("x5", &[0.0, 0.8, 0.004, 0.003]).unwrap();
        g.set_scores("x10", &[0.001, 0.0, 0.67, 0.002]).unwrap();
        g.set_scores("x15", &[0.002, 0.001, 0.46, 0.75]).unwrap();
        g
    }

    #[test]
    fn case3_merges_g3_g4() {
        let part = case3().partition(0.25, &[]).unwrap();
        let dims: Vec<usize> = part.groups().iter().map(|g| g.routines.len()).collect();
        assert_eq!(part.groups().len(), 3);
        assert_eq!(dims, vec![1, 1, 2]);
        // The merged group covers G3 (idx 2) and G4 (idx 3) and both params.
        let merged = part.group_of(2).unwrap();
        assert_eq!(merged.routines, vec![2, 3]);
        assert_eq!(merged.params, vec![2, 3]);
    }

    #[test]
    fn weak_interdependence_stays_independent() {
        // Case-1-like: cross score below cutoff.
        let mut g = case3();
        g.set_scores("x15", &[0.002, 0.001, 0.02, 0.75]).unwrap();
        let part = g.partition(0.25, &[]).unwrap();
        assert_eq!(part.groups().len(), 4);
        assert!(part.groups().iter().all(|gr| gr.routines.len() == 1));
    }

    #[test]
    fn precedence_blocks_merge() {
        // nbatches-like: an 'Iter' routine's param influences G1..G3
        // strongly, but Iter is declared upstream, so no merging happens.
        let mut g = InfluenceGraph::new(
            vec!["Iter".into(), "G1".into(), "G2".into()],
            vec!["nbatches".into(), "a".into(), "b".into()],
        );
        g.set_owner("nbatches", "Iter").unwrap();
        g.set_owner("a", "G1").unwrap();
        g.set_owner("b", "G2").unwrap();
        g.set_scores("nbatches", &[0.5, 3.5, 3.2]).unwrap();
        g.set_scores("a", &[0.0, 0.6, 0.0]).unwrap();
        g.set_scores("b", &[0.0, 0.0, 0.7]).unwrap();

        let merged = g.partition(0.1, &[]).unwrap();
        assert_eq!(merged.groups().len(), 1, "without precedence all merge");

        let part = g.partition(0.1, &["Iter"]).unwrap();
        assert_eq!(part.precedence(), &[0]);
        assert_eq!(part.groups().len(), 2);
        assert!(part.group_of(0).is_none(), "Iter not in any group");
    }

    #[test]
    fn cap_dimensions_drops_least_important() {
        let mut g = InfluenceGraph::new(
            vec!["A".into(), "B".into()],
            (0..6).map(|i| format!("p{i}")).collect(),
        );
        for i in 0..3 {
            g.set_owner(&format!("p{i}"), "A").unwrap();
        }
        for i in 3..6 {
            g.set_owner(&format!("p{i}"), "B").unwrap();
        }
        // p0 weakly influences B -> merge A+B into one 6-param group.
        g.set_scores("p0", &[0.9, 0.3]).unwrap();
        g.set_scores("p1", &[0.8, 0.0]).unwrap();
        g.set_scores("p2", &[0.1, 0.0]).unwrap();
        g.set_scores("p3", &[0.0, 0.7]).unwrap();
        g.set_scores("p4", &[0.0, 0.05]).unwrap();
        g.set_scores("p5", &[0.0, 0.6]).unwrap();
        let mut part = g.partition(0.25, &[]).unwrap();
        assert_eq!(part.groups().len(), 1);
        let importance: Vec<f64> = (0..6).map(|p| g.importance(p)).collect();
        part.cap_dimensions(4, &importance);
        let grp = &part.groups()[0];
        assert_eq!(grp.dim(), 4);
        // p2 (0.1) and p4 (0.05) are the least important.
        assert_eq!(grp.dropped, vec![2, 4]);
        assert_eq!(grp.params, vec![0, 1, 3, 5]);
    }

    #[test]
    fn cap_noop_when_under_limit() {
        let mut part = case3().partition(0.25, &[]).unwrap();
        let imp = vec![1.0; 4];
        part.cap_dimensions(10, &imp);
        assert!(part.groups().iter().all(|g| g.dropped.is_empty()));
    }

    #[test]
    fn assign_param_moves_between_groups() {
        // Shared-kernel scenario: param 0 owned by G1 but should be tuned
        // in G3's group (paper's cuZcopy case).
        let mut part = case3().partition(0.25, &[]).unwrap();
        part.assign_param_to(0, 2); // move x0 into the group holding G3
        let g1_group = part.group_of(0).unwrap();
        assert!(!g1_group.params.contains(&0));
        let g3_group = part.group_of(2).unwrap();
        assert!(g3_group.params.contains(&0));
        // Idempotent.
        let before = part.groups().to_vec();
        part.assign_param_to(0, 2);
        assert_eq!(before, part.groups());
    }

    #[test]
    fn shared_param_edges_do_not_merge() {
        // x15's cross-edge would merge G3+G4, but declaring it shared
        // suppresses the merge; assign_param_to then moves it explicitly.
        let g = case3();
        let part = g.partition_with(0.25, &[], &["x15"]).unwrap();
        assert_eq!(part.groups().len(), 4, "shared param must not merge");
        let mut part = part;
        part.assign_param_to(3, 2); // x15 -> the group holding G3
        assert!(part.group_of(2).unwrap().params.contains(&3));
        assert!(!part.group_of(3).unwrap().params.contains(&3));
    }

    #[test]
    fn unknown_shared_param_rejected() {
        assert!(matches!(
            case3().partition_with(0.25, &[], &["nope"]),
            Err(GraphError::UnknownParam(_))
        ));
    }

    #[test]
    fn invalid_cutoff() {
        assert!(case3().partition(f64::INFINITY, &[]).is_err());
        assert!(case3().partition(-1.0, &[]).is_err());
    }

    #[test]
    fn unknown_precedence_routine() {
        assert!(matches!(
            case3().partition(0.25, &["nope"]),
            Err(GraphError::UnknownRoutine(_))
        ));
    }
}
