//! `G001`: influence-graph cycles not resolved by merging.
//!
//! The methodology treats the pruned influence graph as a DAG: an edge
//! `A → B` means "tune A's parameters jointly with, or before, B". A
//! directed cycle among routines that end up in *different* searches is
//! unresolvable — each search would need the other's result first — so it
//! is an error when a plan exists. Without a plan the cycle is reported
//! as a warning: the partitioner will merge mutually-influencing routines
//! into one search, which is the intended resolution.
//!
//! Precedence routines are excluded: their cross-edges express tuning
//! *order*, not joint search, so a "cycle" through them is broken by the
//! staged execution.

use crate::bundle::PlanBundle;
use crate::diag::{Diagnostic, Location};
use crate::registry::Lint;
use std::collections::HashMap;

/// See the module docs.
pub struct GraphCycles;

impl Lint for GraphCycles {
    fn codes(&self) -> &'static [&'static str] {
        &["G001"]
    }

    fn check(&self, bundle: &PlanBundle, out: &mut Vec<Diagnostic>) {
        let Some(graph) = &bundle.graph else { return };
        let Ok(cross) = graph.cross_edges(bundle.cutoff) else {
            return; // invalid cutoff: rule N002 reports it
        };
        let routines = graph.routines();
        let n = routines.len();

        // Component of each routine: searches of the plan merge their
        // routines into one node; everything else stands alone.
        let mut comp: Vec<usize> = (0..n).collect();
        if let Some(plan) = &bundle.plan {
            let index: HashMap<&str, usize> = routines
                .iter()
                .enumerate()
                .map(|(i, r)| (r.as_str(), i))
                .collect();
            for s in plan.searches() {
                let members: Vec<usize> = s
                    .routines
                    .iter()
                    .filter_map(|r| index.get(r.as_str()).copied())
                    .collect();
                if let Some(&root) = members.first() {
                    let target = comp[root];
                    for &m in &members {
                        let old = comp[m];
                        for c in comp.iter_mut() {
                            if *c == old {
                                *c = target;
                            }
                        }
                    }
                }
            }
        }

        let precedence: Vec<usize> = bundle
            .precedence
            .iter()
            .filter_map(|p| routines.iter().position(|r| r == p))
            .collect();

        // Adjacency between distinct components (self-loops = merged: fine).
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &cross {
            let Some(from) = e.from else { continue };
            if precedence.contains(&from) || precedence.contains(&e.to) {
                continue;
            }
            let (a, b) = (comp[from], comp[e.to]);
            if a != b && !adj[a].contains(&b) {
                adj[a].push(b);
            }
        }

        // Iterative three-color DFS for a directed cycle.
        let mut color = vec![0u8; n]; // 0 white, 1 grey, 2 black
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut cycle: Option<Vec<usize>> = None;
        'outer: for start in 0..n {
            if color[start] != 0 {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            color[start] = 1;
            while let Some(frame) = stack.last_mut() {
                let v = frame.0;
                if frame.1 < adj[v].len() {
                    let w = adj[v][frame.1];
                    frame.1 += 1;
                    match color[w] {
                        0 => {
                            color[w] = 1;
                            parent[w] = Some(v);
                            stack.push((w, 0));
                        }
                        1 => {
                            // Found a back edge v -> w: reconstruct w..v.
                            let mut path = vec![v];
                            let mut cur = v;
                            while cur != w {
                                match parent[cur] {
                                    Some(p) => {
                                        path.push(p);
                                        cur = p;
                                    }
                                    None => break,
                                }
                            }
                            path.reverse();
                            cycle = Some(path);
                            break 'outer;
                        }
                        _ => {}
                    }
                } else {
                    color[v] = 2;
                    stack.pop();
                }
            }
        }

        if let Some(path) = cycle {
            let names: Vec<&str> = path.iter().map(|&c| routines[c].as_str()).collect();
            let listed = names.join(" -> ");
            if bundle.plan.is_some() {
                out.push(
                    Diagnostic::error(
                        "G001",
                        Location::Graph,
                        format!(
                            "influence cycle {listed} spans several planned searches — neither \
                             search can be tuned first"
                        ),
                    )
                    .with_help(
                        "merge the cyclic routines into one search, raise the cut-off, or declare \
                         one of them as a precedence routine",
                    ),
                );
            } else {
                out.push(
                    Diagnostic::warning(
                        "G001",
                        Location::Graph,
                        format!("influence cycle {listed} at cutoff {}", bundle.cutoff),
                    )
                    .with_help("the partitioner will merge these routines into one joint search"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{PlanSpec, SearchSpec};
    use cets_graph::InfluenceGraph;

    /// A <-> B mutual influence above the cutoff.
    fn cyclic_graph() -> InfluenceGraph {
        let mut g =
            InfluenceGraph::new(vec!["A".into(), "B".into()], vec!["pa".into(), "pb".into()]);
        g.set_owner("pa", "A").unwrap();
        g.set_owner("pb", "B").unwrap();
        g.set_scores("pa", &[0.9, 0.5]).unwrap();
        g.set_scores("pb", &[0.5, 0.9]).unwrap();
        g
    }

    fn run(b: &PlanBundle) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        GraphCycles.check(b, &mut out);
        out
    }

    #[test]
    fn unmerged_cycle_in_plan_is_error() {
        let b = PlanBundle {
            graph: Some(cyclic_graph()),
            plan: Some(PlanSpec {
                stages: vec![vec![
                    SearchSpec {
                        name: "A".into(),
                        params: vec!["pa".into()],
                        routines: vec!["A".into()],
                    },
                    SearchSpec {
                        name: "B".into(),
                        params: vec!["pb".into()],
                        routines: vec!["B".into()],
                    },
                ]],
            }),
            ..Default::default()
        };
        let out = run(&b);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "G001");
        assert_eq!(out[0].severity, crate::Severity::Error);
    }

    #[test]
    fn merged_cycle_is_clean() {
        let b = PlanBundle {
            graph: Some(cyclic_graph()),
            plan: Some(PlanSpec {
                stages: vec![vec![SearchSpec {
                    name: "A+B".into(),
                    params: vec!["pa".into(), "pb".into()],
                    routines: vec!["A".into(), "B".into()],
                }]],
            }),
            ..Default::default()
        };
        assert!(run(&b).is_empty());
    }

    #[test]
    fn cycle_without_plan_is_warning() {
        let b = PlanBundle {
            graph: Some(cyclic_graph()),
            ..Default::default()
        };
        let out = run(&b);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, crate::Severity::Warning);
    }

    #[test]
    fn precedence_breaks_cycle() {
        let b = PlanBundle {
            graph: Some(cyclic_graph()),
            precedence: vec!["A".into()],
            ..Default::default()
        };
        assert!(run(&b).is_empty());
    }

    #[test]
    fn acyclic_graph_clean() {
        let mut g =
            InfluenceGraph::new(vec!["A".into(), "B".into()], vec!["pa".into(), "pb".into()]);
        g.set_owner("pa", "A").unwrap();
        g.set_owner("pb", "B").unwrap();
        g.set_scores("pa", &[0.9, 0.5]).unwrap(); // A -> B only
        g.set_scores("pb", &[0.0, 0.9]).unwrap();
        let b = PlanBundle {
            graph: Some(g),
            ..Default::default()
        };
        assert!(run(&b).is_empty());
    }

    #[test]
    fn invalid_cutoff_skipped_without_panic() {
        let b = PlanBundle {
            graph: Some(cyclic_graph()),
            cutoff: f64::NAN,
            ..Default::default()
        };
        assert!(run(&b).is_empty(), "N002 owns the bad cutoff");
    }
}
