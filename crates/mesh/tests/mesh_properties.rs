//! Property-based tests for the cubed-sphere mesh.

use cubesfc_mesh::{CubedSphere, ElemId, LocalEdge};
use proptest::prelude::*;
use std::f64::consts::PI;

/// Face sizes worth testing: a mix of SFC-supported and unsupported.
fn arb_ne() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(2),
        Just(3),
        Just(4),
        Just(5),
        Just(6),
        Just(7),
        Just(8),
        Just(9),
        Just(12),
        Just(16),
        Just(18),
        Just(24),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn adjacency_is_symmetric(ne in arb_ne()) {
        let m = CubedSphere::new(ne);
        let t = m.topology();
        for e in t.elems() {
            for le in LocalEdge::ALL {
                let nb = t.edge_neighbor(e, le);
                prop_assert!(t.are_edge_adjacent(nb.elem, e));
            }
            for &c in t.corner_neighbors(e).iter() {
                prop_assert!(t.corner_neighbors(c).contains(&e));
            }
        }
    }

    #[test]
    fn mesh_is_connected(ne in arb_ne()) {
        // BFS over edge adjacency must reach every element.
        let m = CubedSphere::new(ne);
        let t = m.topology();
        let k = t.num_elems();
        let mut seen = vec![false; k];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(ElemId(0));
        seen[0] = true;
        let mut visited = 0;
        while let Some(e) = queue.pop_front() {
            visited += 1;
            for nb in t.edge_neighbors(e) {
                if !seen[nb.elem.index()] {
                    seen[nb.elem.index()] = true;
                    queue.push_back(nb.elem);
                }
            }
        }
        prop_assert_eq!(visited, k);
    }

    #[test]
    fn neighbors_are_geometrically_near(ne in arb_ne()) {
        // Edge neighbours must be among the closest elements by
        // great-circle distance between centres: closer than ~3 cell
        // widths (gnomonic cells vary in size).
        let m = CubedSphere::new(ne);
        let t = m.topology();
        let cell_width = PI / 2.0 / ne as f64;
        for e in t.elems() {
            let c = m.center(e);
            for nb in t.edge_neighbors(e) {
                let d = c.distance(&m.center(nb.elem));
                prop_assert!(
                    d < 2.0 * cell_width,
                    "ne={} elems {} {} dist {}",
                    ne, e, nb.elem, d
                );
            }
        }
    }

    #[test]
    fn areas_sum_to_sphere(ne in arb_ne()) {
        let m = CubedSphere::new(ne);
        let total: f64 = m.areas().iter().sum();
        prop_assert!((total - 4.0 * PI).abs() < 1e-8);
    }

    #[test]
    fn curve_when_present_is_hamiltonian_and_continuous(ne in arb_ne()) {
        let m = CubedSphere::new(ne);
        if let Some(c) = m.curve() {
            prop_assert_eq!(c.len(), m.num_elems());
            prop_assert!(c.is_continuous(m.topology()));
            let mut seen = vec![false; c.len()];
            for e in c.iter() {
                prop_assert!(!seen[e.index()]);
                seen[e.index()] = true;
            }
        }
    }

    #[test]
    fn dual_graph_degrees_and_symmetry(ne in arb_ne()) {
        let m = CubedSphere::new(ne);
        let g = m.dual_graph(Default::default());
        prop_assert_eq!(g.nv(), m.num_elems());
        for v in 0..g.nv() {
            for (n, w) in g.neighbors(v) {
                let back = g.neighbors(n).find(|&(x, _)| x == v);
                prop_assert!(back.map(|b| b.1) == Some(w));
            }
        }
    }
}
