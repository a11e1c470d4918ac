//! Kruskal minimum-spanning-forest oracle.

use crate::types::InputGraph;

/// Total weight of a minimum spanning forest of the *undirected* graph
/// described by the edge list (each undirected edge may appear in one or
/// both directions; duplicates and self-loops are ignored).
///
/// With distinct edge weights the MSF is unique, so the total weight is a
/// complete correctness check for any MSF algorithm.
pub fn minimum_spanning_forest_weight(g: &InputGraph) -> f64 {
    let mut edges: Vec<(f32, u64, u64)> = g
        .edges
        .iter()
        .filter(|e| e.src != e.dst)
        .map(|e| {
            let (a, b) = if e.src < e.dst {
                (e.src, e.dst)
            } else {
                (e.dst, e.src)
            };
            (e.weight, a, b)
        })
        .collect();
    edges.sort_by(|x, y| {
        x.0.partial_cmp(&y.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (x.1, x.2).cmp(&(y.1, y.2)))
    });
    edges.dedup_by(|a, b| a.1 == b.1 && a.2 == b.2 && a.0 == b.0);

    let mut parent: Vec<u32> = (0..g.num_vertices as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }

    let mut total = 0.0f64;
    for (w, a, b) in edges {
        let (ra, rb) = (find(&mut parent, a as u32), find(&mut parent, b as u32));
        if ra != rb {
            parent[ra as usize] = rb;
            total += w as f64;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::types::Edge;

    #[test]
    fn triangle_drops_heaviest() {
        let g = InputGraph::new(
            3,
            vec![
                Edge::weighted(0, 1, 1.0),
                Edge::weighted(1, 2, 2.0),
                Edge::weighted(2, 0, 3.0),
            ],
            true,
        );
        assert_eq!(minimum_spanning_forest_weight(&g), 3.0);
    }

    #[test]
    fn forest_of_two_components() {
        let g = InputGraph::new(
            4,
            vec![Edge::weighted(0, 1, 1.0), Edge::weighted(2, 3, 5.0)],
            true,
        );
        assert_eq!(minimum_spanning_forest_weight(&g), 6.0);
    }

    #[test]
    fn symmetric_duplicates_do_not_double_count() {
        let g = builder::connected_weighted(50, 30, 7);
        let w = minimum_spanning_forest_weight(&g);
        // A spanning tree of 50 vertices has 49 edges, all with weight > 1.
        assert!(w > 49.0);
        // And the MSF weight must not exceed the total of all distinct edges.
        let all: f64 = g.edges.iter().map(|e| e.weight as f64).sum::<f64>() / 2.0;
        assert!(w < all);
    }

    #[test]
    fn self_loops_ignored() {
        let g = InputGraph::new(
            2,
            vec![Edge::weighted(0, 0, 0.1), Edge::weighted(0, 1, 2.0)],
            true,
        );
        assert_eq!(minimum_spanning_forest_weight(&g), 2.0);
    }
}
