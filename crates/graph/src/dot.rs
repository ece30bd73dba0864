//! Graphviz DOT export for influence graphs and partitions (paper Figures
//! 2 and 5 are DAG diagrams of exactly this kind).

use crate::{InfluenceGraph, Partition, Result};

impl InfluenceGraph {
    /// Render the pruned graph as Graphviz DOT: routines as boxes,
    /// parameters as ellipses, one edge per surviving influence, labelled
    /// with the score as a percentage. Cross-edges (interdependence) are
    /// drawn bold red; own-edges gray.
    pub fn to_dot(&self, cutoff: f64) -> Result<String> {
        let mut s = String::from("digraph influence {\n  rankdir=LR;\n");
        s += &format!("  label=\"cut-off = {:.0}%\";\n", cutoff * 100.0);
        for (r, name) in self.routines().iter().enumerate() {
            s += &format!(
                "  r{r} [shape=box, style=filled, fillcolor=lightblue, label=\"{name}\"];\n"
            );
        }
        let edges = self.edges(cutoff)?;
        let mut used_params: Vec<usize> = edges.iter().map(|e| e.param).collect();
        used_params.sort_unstable();
        used_params.dedup();
        for p in used_params {
            s += &format!("  p{p} [shape=ellipse, label=\"{}\"];\n", self.params()[p]);
        }
        for e in &edges {
            let cross = e.from.is_some_and(|f| f != e.to);
            let style = if cross {
                "color=red, penwidth=2.0"
            } else {
                "color=gray"
            };
            s += &format!(
                "  p{} -> r{} [label=\"{:.0}%\", {style}];\n",
                e.param,
                e.to,
                e.score * 100.0
            );
        }
        s += "}\n";
        Ok(s)
    }
}

impl Partition {
    /// Render the partition as DOT clusters: one subgraph per merged search,
    /// plus a `precedence` cluster for upstream routines.
    pub fn to_dot(&self, graph: &InfluenceGraph) -> String {
        let mut s = String::from("digraph searches {\n  compound=true;\n");
        for (gi, grp) in self.groups().iter().enumerate() {
            s += &format!("  subgraph cluster_{gi} {{\n");
            let names: Vec<&str> = grp
                .routines
                .iter()
                .map(|&r| graph.routines()[r].as_str())
                .collect();
            s += &format!(
                "    label=\"search {gi}: {} ({} dims)\";\n",
                names.join("+"),
                grp.dim()
            );
            for &r in &grp.routines {
                s += &format!("    r{r} [shape=box, label=\"{}\"];\n", graph.routines()[r]);
            }
            for &p in &grp.params {
                s += &format!(
                    "    gp{gi}_{p} [shape=ellipse, label=\"{}\"];\n",
                    graph.params()[p]
                );
            }
            s += "  }\n";
        }
        if !self.precedence().is_empty() {
            s += "  subgraph cluster_prec {\n    label=\"tuned first (precedence)\";\n";
            for &r in self.precedence() {
                s += &format!(
                    "    r{r} [shape=box, style=dashed, label=\"{}\"];\n",
                    graph.routines()[r]
                );
            }
            s += "  }\n";
        }
        s += "}\n";
        s
    }
}

#[cfg(test)]
mod tests {
    use crate::InfluenceGraph;

    fn graph() -> InfluenceGraph {
        let mut g = InfluenceGraph::new(
            vec!["G3".into(), "G4".into()],
            vec!["x10".into(), "x15".into()],
        );
        g.set_owner("x10", "G3").unwrap();
        g.set_owner("x15", "G4").unwrap();
        g.set_score("x10", "G3", 0.67).unwrap();
        g.set_score("x15", "G3", 0.46).unwrap();
        g.set_score("x15", "G4", 0.75).unwrap();
        g
    }

    #[test]
    fn dot_contains_nodes_and_cross_edge() {
        let dot = graph().to_dot(0.25).unwrap();
        assert!(dot.contains("digraph influence"));
        assert!(dot.contains("label=\"G3\""));
        assert!(dot.contains("label=\"x15\""));
        assert!(dot.contains("color=red"), "cross-edge should be red");
        assert!(dot.contains("46%"));
    }

    #[test]
    fn dot_omits_pruned_params() {
        let g = graph();
        let dot = g.to_dot(0.7).unwrap();
        // x15->G3 at 46% pruned; only 75% own edge remains for x15.
        assert!(!dot.contains("46%"));
        assert!(dot.contains("75%"));
    }

    #[test]
    fn partition_dot_renders_clusters() {
        let g = graph();
        let part = g.partition(0.25, &[]).unwrap();
        let dot = part.to_dot(&g);
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("G3+G4"));
        assert!(dot.contains("2 dims"));
    }
}
