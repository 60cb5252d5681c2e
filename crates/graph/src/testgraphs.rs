//! Graphs for the in-crate tests: the unit grid, and seeded random
//! graphs for the differential tests — the shapes of
//! `tests/partitioner_properties.rs`' generator, widened with what the
//! bisection machinery meets below the fine level — zero-weight edges,
//! coarse-level edge and vertex weights, and disconnected graphs.

use crate::csr::CsrGraph;
use crate::rng::SplitMix64;
use std::collections::BTreeMap;

/// A valid simple graph drawn from `seed`; roughly a third each fine-like
/// (weights 1..9), with zero-weight edges mixed in, and coarse-like (edge
/// weights to a few hundred, vertex weights 1..8). About one in four is
/// disconnected.
pub(crate) fn wide_graph(seed: u64) -> CsrGraph {
    let mut rng = SplitMix64::new(seed ^ 0x7e57_9a4f);
    let nv = 1 + rng.below(90);
    let flavour = rng.below(3);
    let disconnected = rng.below(4) == 0;
    let weight = |rng: &mut SplitMix64| -> u32 {
        match flavour {
            0 => 1 + rng.below(9) as u32,
            1 => {
                if rng.below(3) == 0 {
                    0
                } else {
                    1 + rng.below(9) as u32
                }
            }
            _ => 1 + rng.below(300) as u32,
        }
    };
    let mut adj: Vec<BTreeMap<u32, u32>> = vec![BTreeMap::new(); nv];
    for v in 0..nv.saturating_sub(1) {
        if disconnected && rng.below(5) == 0 {
            continue; // break the spanning path here
        }
        let w = weight(&mut rng);
        adj[v].insert((v + 1) as u32, w);
        adj[v + 1].insert(v as u32, w);
    }
    let extra = if disconnected { 0 } else { rng.below(2 * nv) };
    for _ in 0..extra {
        let (a, b) = (rng.below(nv), rng.below(nv));
        if a != b && !adj[a].contains_key(&(b as u32)) {
            let w = weight(&mut rng);
            adj[a].insert(b as u32, w);
            adj[b].insert(a as u32, w);
        }
    }
    let lists: Vec<Vec<(u32, u32)>> = adj.into_iter().map(|m| m.into_iter().collect()).collect();
    let mut g = CsrGraph::from_lists(&lists).unwrap();
    if flavour == 2 {
        for w in &mut g.vwgt {
            *w = 1 + rng.below(8) as u32;
        }
    }
    g
}

/// The `w × h` grid graph with unit weights (4-neighbour stencil).
pub(crate) fn grid(w: usize, h: usize) -> CsrGraph {
    let idx = |x: usize, y: usize| (y * w + x) as u32;
    let mut lists = vec![Vec::new(); w * h];
    for y in 0..h {
        for x in 0..w {
            let mut l = Vec::new();
            if x > 0 {
                l.push((idx(x - 1, y), 1));
            }
            if x + 1 < w {
                l.push((idx(x + 1, y), 1));
            }
            if y > 0 {
                l.push((idx(x, y - 1), 1));
            }
            if y + 1 < h {
                l.push((idx(x, y + 1), 1));
            }
            lists[idx(x, y) as usize] = l;
        }
    }
    CsrGraph::from_lists(&lists).unwrap()
}

/// A random 2-way assignment; `skew` of 8 is a fair coin, lower values
/// pile vertices onto side 0 (an over-cap start).
pub(crate) fn random_sides(nv: usize, skew: usize, rng: &mut SplitMix64) -> Vec<u32> {
    (0..nv)
        .map(|_| (rng.below(16) >= 16 - skew) as u32)
        .collect()
}
