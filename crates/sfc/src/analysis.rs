//! Locality analysis of curves.
//!
//! Partition quality of an SFC partition is governed by how *compact* the
//! curve's contiguous segments are: a segment of `c` cells with a small
//! perimeter cuts few dual-graph edges. These metrics compare Hilbert,
//! m-Peano, nested, and Morton orders without running the full
//! partitioner.

use crate::curve::SfcCurve;

/// Summary locality statistics for a curve.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LocalityStats {
    /// Mean `|rank(a) - rank(b)|` over all 4-neighbour cell pairs `(a, b)`.
    /// Lower means spatial neighbours stay close along the curve.
    pub mean_neighbor_rank_distance: f64,
    /// Maximum `|rank(a) - rank(b)|` over 4-neighbour pairs.
    pub max_neighbor_rank_distance: usize,
    /// Fraction of consecutive curve steps that are unit steps
    /// (1.0 for Hilbert-family curves, < 1 for Morton).
    pub unit_step_fraction: f64,
}

/// Compute [`LocalityStats`] for a curve.
pub fn locality_stats(curve: &SfcCurve) -> LocalityStats {
    let side = curve.side();
    let mut sum = 0u64;
    let mut count = 0u64;
    let mut max = 0usize;
    for j in 0..side {
        for i in 0..side {
            let r = curve.rank_of(i, j);
            if i + 1 < side {
                let d = r.abs_diff(curve.rank_of(i + 1, j));
                sum += d as u64;
                max = max.max(d);
                count += 1;
            }
            if j + 1 < side {
                let d = r.abs_diff(curve.rank_of(i, j + 1));
                sum += d as u64;
                max = max.max(d);
                count += 1;
            }
        }
    }
    let steps = curve.len() - 1;
    let unit = curve
        .iter()
        .zip(curve.iter().skip(1))
        .filter(|((i0, j0), (i1, j1))| i0.abs_diff(*i1) + j0.abs_diff(*j1) == 1)
        .count();
    LocalityStats {
        mean_neighbor_rank_distance: sum as f64 / count as f64,
        max_neighbor_rank_distance: max,
        unit_step_fraction: unit as f64 / steps as f64,
    }
}

/// Per-segment compactness when the curve is cut into `nparts` contiguous
/// segments (how an SFC partition slices it).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SegmentStats {
    /// Number of segments measured.
    pub nparts: usize,
    /// Mean over segments of the segment's boundary length: number of
    /// 4-neighbour cell pairs with exactly one cell in the segment.
    pub mean_boundary: f64,
    /// Maximum segment boundary length.
    pub max_boundary: usize,
    /// Mean over segments of bounding-box area divided by segment size
    /// (1.0 = perfectly rectangular; larger = straggly segments).
    pub mean_bbox_inflation: f64,
}

/// Cut the curve into `nparts` near-equal contiguous segments and measure
/// their compactness.
///
/// # Panics
///
/// Panics if `nparts` is zero or exceeds the number of cells.
pub fn segment_stats(curve: &SfcCurve, nparts: usize) -> SegmentStats {
    let n = curve.len();
    assert!(nparts > 0 && nparts <= n, "invalid part count {nparts}");
    let side = curve.side();
    // part id of each cell, by contiguous near-equal chunks:
    // the first (n % nparts) parts get one extra cell.
    let base = n / nparts;
    let extra = n % nparts;
    let mut part_of = vec![0u32; n];
    let mut rank = 0usize;
    for p in 0..nparts {
        let len = base + usize::from(p < extra);
        for _ in 0..len {
            let (i, j) = curve.cell_at(rank);
            part_of[j * side + i] = p as u32;
            rank += 1;
        }
    }

    let mut boundary = vec![0usize; nparts];
    for j in 0..side {
        for i in 0..side {
            let p = part_of[j * side + i];
            if i + 1 < side {
                let q = part_of[j * side + i + 1];
                if p != q {
                    boundary[p as usize] += 1;
                    boundary[q as usize] += 1;
                }
            }
            if j + 1 < side {
                let q = part_of[(j + 1) * side + i];
                if p != q {
                    boundary[p as usize] += 1;
                    boundary[q as usize] += 1;
                }
            }
        }
    }

    // Bounding boxes.
    let mut lo = vec![(usize::MAX, usize::MAX); nparts];
    let mut hi = vec![(0usize, 0usize); nparts];
    let mut size = vec![0usize; nparts];
    for j in 0..side {
        for i in 0..side {
            let p = part_of[j * side + i] as usize;
            lo[p] = (lo[p].0.min(i), lo[p].1.min(j));
            hi[p] = (hi[p].0.max(i), hi[p].1.max(j));
            size[p] += 1;
        }
    }
    let mut inflation_sum = 0.0;
    for p in 0..nparts {
        let area = (hi[p].0 - lo[p].0 + 1) * (hi[p].1 - lo[p].1 + 1);
        inflation_sum += area as f64 / size[p] as f64;
    }

    SegmentStats {
        nparts,
        mean_boundary: boundary.iter().sum::<usize>() as f64 / nparts as f64,
        max_boundary: boundary.iter().copied().max().unwrap_or(0),
        mean_bbox_inflation: inflation_sum / nparts as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::{hilbert, mpeano};
    use crate::morton::morton;

    #[test]
    fn hilbert_is_fully_unit_step() {
        let s = locality_stats(&hilbert(4).unwrap());
        assert_eq!(s.unit_step_fraction, 1.0);
    }

    #[test]
    fn morton_has_jumps() {
        let s = locality_stats(&morton(16).unwrap());
        assert!(s.unit_step_fraction < 1.0);
        // Roughly half of Morton's steps are the discontinuous Z jumps.
        assert!(s.unit_step_fraction < 0.6);
        // Note: Morton's *mean* neighbour rank distance is actually slightly
        // lower than Hilbert's on the same grid; Hilbert's advantage shows
        // up in segment compactness (see the segment_stats tests), not in
        // this average.
    }

    #[test]
    fn mpeano_locality_comparable_to_hilbert() {
        // 27×27 Peano vs 32×32 Hilbert: mean neighbour distances are of the
        // same order (both curves are unit-step and self-similar).
        let p = locality_stats(&mpeano(3).unwrap());
        let h = locality_stats(&hilbert(5).unwrap());
        assert!(p.mean_neighbor_rank_distance < 3.0 * h.mean_neighbor_rank_distance);
        assert_eq!(p.unit_step_fraction, 1.0);
    }

    #[test]
    fn cinco_locality_is_hilbert_class() {
        // The radix-5 meander is unit-step and its 25-segment boundaries
        // on a 25×25 grid stay within a small factor of Hilbert's on a
        // comparable 32×32 grid (per-cell-normalized).
        let c = crate::curve::cinco(2).unwrap();
        let s = locality_stats(&c);
        assert_eq!(s.unit_step_fraction, 1.0);
        let seg_c = segment_stats(&c, 25);
        let h = hilbert(5).unwrap();
        let seg_h = segment_stats(&h, 25);
        let norm_c = seg_c.mean_boundary / (c.len() as f64 / 25.0);
        let norm_h = seg_h.mean_boundary / (h.len() as f64 / 25.0);
        assert!(
            norm_c < 2.0 * norm_h,
            "cinco {norm_c:.3} vs hilbert {norm_h:.3}"
        );
    }

    #[test]
    fn segment_stats_single_part_has_no_boundary() {
        let s = segment_stats(&hilbert(3).unwrap(), 1);
        assert_eq!(s.mean_boundary, 0.0);
        assert_eq!(s.max_boundary, 0);
        assert_eq!(s.mean_bbox_inflation, 1.0); // whole square
    }

    #[test]
    fn segment_boundaries_smaller_for_hilbert_than_morton() {
        let h = segment_stats(&hilbert(5).unwrap(), 16);
        let m = segment_stats(&morton(32).unwrap(), 16);
        assert!(h.mean_boundary <= m.mean_boundary + 1e-9);
    }

    #[test]
    fn segment_sizes_cover_all_cells() {
        // Indirectly: boundary computation indexes every cell, so this just
        // checks it runs for awkward part counts.
        for np in [1, 2, 3, 5, 7, 9, 64] {
            let s = segment_stats(&hilbert(3).unwrap(), np);
            assert_eq!(s.nparts, np);
        }
    }

    #[test]
    #[should_panic(expected = "invalid part count")]
    fn zero_parts_panics() {
        segment_stats(&hilbert(2).unwrap(), 0);
    }

    #[test]
    fn hilbert_16_parts_on_16x16_are_squares() {
        // 256 cells, 16 parts of 16 cells: level-2 blocks are 4×4 squares,
        // so bbox inflation is exactly 1 and boundary at most 16.
        let s = segment_stats(&hilbert(4).unwrap(), 16);
        assert!((s.mean_bbox_inflation - 1.0).abs() < 1e-12);
        assert!(s.max_boundary <= 16);
    }
}
