//! Slicing the global space-filling curve into processor segments.
//!
//! "The space-filling curve is then subdivided into equal sized segments
//! to achieve the partitioning" (paper §3). For the paper's experiments
//! the processor counts divide `K` exactly, giving `LB(nelemd) = 0`; for
//! other counts the segments differ by at most one element. The weighted
//! variant (a natural extension used by later SFC partitioners) splits
//! the curve at prefix-sum boundaries of per-element work weights.

use crate::error::PartitionError;
use cubesfc_graph::{split_order_weighted, Partition, SplitError};
use cubesfc_mesh::GlobalCurve;

/// Partition the curve into `nproc` near-equal contiguous segments.
///
/// Segment sizes are `⌈K/nproc⌉` for the first `K mod nproc` parts and
/// `⌊K/nproc⌋` for the rest, so `LB(nelemd) = 0` exactly when
/// `nproc | K`.
pub fn partition_curve(curve: &GlobalCurve, nproc: usize) -> Result<Partition, PartitionError> {
    let _span = cubesfc_obs::span("slice");
    let k = curve.len();
    if nproc == 0 {
        return Err(PartitionError::ZeroParts);
    }
    if nproc > k {
        return Err(PartitionError::TooManyParts { nproc, nelems: k });
    }
    let base = k / nproc;
    let extra = k % nproc;
    let mut assign = vec![0u32; k];
    let mut rank = 0usize;
    for p in 0..nproc {
        let len = base + usize::from(p < extra);
        for _ in 0..len {
            assign[curve.elem_at(rank).index()] = p as u32;
            rank += 1;
        }
    }
    Ok(Partition::new(nproc, assign))
}

/// Partition the curve into `nproc` contiguous segments of near-equal
/// total *weight* (prefix-sum splitting).
///
/// `weights[e]` is the work of element `e` (indexed by element id, not
/// curve rank). Splits are placed where the running weight crosses
/// `i·W/nproc`; every part receives at least one element when
/// `nproc ≤ K`.
pub fn partition_curve_weighted(
    curve: &GlobalCurve,
    nproc: usize,
    weights: &[f64],
) -> Result<Partition, PartitionError> {
    split_order_weighted(curve.len(), |r| curve.elem_at(r).index(), nproc, weights)
        .map_err(split_error_to_partition_error)
}

/// Map the order-level splitter's errors onto the top-level API's,
/// preserving this module's historical messages exactly.
fn split_error_to_partition_error(e: SplitError) -> PartitionError {
    match e {
        SplitError::ZeroParts => PartitionError::ZeroParts,
        SplitError::TooManyParts { nproc, nelems } => {
            PartitionError::TooManyParts { nproc, nelems }
        }
        SplitError::BadLength => PartitionError::BadWeights {
            reason: "weight vector length must equal element count",
        },
        SplitError::Negative => PartitionError::BadWeights {
            reason: "weights must be non-negative",
        },
        SplitError::NonFinite { index } => PartitionError::NonFiniteWeight { index },
        SplitError::ZeroTotal => PartitionError::BadWeights {
            reason: "total weight must be positive",
        },
        SplitError::BadCapacity { .. } => PartitionError::BadWeights {
            reason: "per-part capacities must be finite and non-negative",
        },
        SplitError::ZeroCapacity => PartitionError::BadWeights {
            reason: "at least one part must have positive capacity",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesfc_graph::load_balance;

    /// The contiguous curve ranks `[start, end)` owned by each part of an SFC
    /// partition.
    fn segment_ranges(curve: &GlobalCurve, partition: &Partition) -> Vec<(usize, usize)> {
        let mut ranges = vec![(usize::MAX, 0usize); partition.nparts()];
        for rank in 0..curve.len() {
            let p = partition.part_of(curve.elem_at(rank).index());
            let r = &mut ranges[p];
            r.0 = r.0.min(rank);
            r.1 = r.1.max(rank + 1);
        }
        ranges
    }

    fn curve(ne: usize) -> GlobalCurve {
        GlobalCurve::build(ne).unwrap()
    }

    #[test]
    fn exact_divisor_gives_zero_imbalance() {
        // The paper's K = 384 configurations: 1..384 processors.
        let c = curve(8);
        for nproc in [1usize, 2, 4, 6, 8, 16, 32, 96, 384] {
            let p = partition_curve(&c, nproc).unwrap();
            let sizes: Vec<u64> = p.part_sizes().iter().map(|&s| s as u64).collect();
            assert_eq!(load_balance(&sizes), 0.0, "nproc={nproc}");
        }
    }

    #[test]
    fn segments_are_contiguous_on_curve() {
        let c = curve(4);
        let p = partition_curve(&c, 7).unwrap();
        let ranges = segment_ranges(&c, &p);
        // Ranges tile [0, K) without overlap.
        let mut sorted = ranges.clone();
        sorted.sort();
        let mut expect_start = 0;
        for (s, e) in sorted {
            assert_eq!(s, expect_start);
            assert!(e > s);
            expect_start = e;
        }
        assert_eq!(expect_start, c.len());
    }

    #[test]
    fn non_divisor_sizes_differ_by_at_most_one() {
        let c = curve(4); // K = 96
        for nproc in [5usize, 7, 11, 13, 50, 95] {
            let p = partition_curve(&c, nproc).unwrap();
            let sizes = p.part_sizes();
            let max = *sizes.iter().max().unwrap();
            let min = *sizes.iter().min().unwrap();
            assert!(max - min <= 1, "nproc={nproc}: {sizes:?}");
            assert!(min >= 1);
        }
    }

    #[test]
    fn error_cases() {
        let c = curve(2);
        assert!(matches!(
            partition_curve(&c, 0),
            Err(PartitionError::ZeroParts)
        ));
        assert!(matches!(
            partition_curve(&c, 25),
            Err(PartitionError::TooManyParts { .. })
        ));
    }

    #[test]
    fn weighted_split_balances_weight_not_count() {
        let c = curve(2); // K = 24
                          // First half of the curve is 3× heavier.
        let mut w = vec![1.0; 24];
        for rank in 0..12 {
            w[c.elem_at(rank).index()] = 3.0;
        }
        let p = partition_curve_weighted(&c, 2, &w).unwrap();
        // Balanced by weight: part 0 should get fewer elements.
        let sizes = p.part_sizes();
        assert!(sizes[0] < sizes[1], "{sizes:?}");
        let weight_of = |part: u32| -> f64 {
            (0..24)
                .filter(|&e| p.part_of(e) == part as usize)
                .map(|e| w[e])
                .sum()
        };
        let (w0, w1) = (weight_of(0), weight_of(1));
        assert!((w0 - w1).abs() <= 3.0, "{w0} vs {w1}");
    }

    #[test]
    fn weighted_split_every_part_nonempty() {
        let c = curve(2);
        // Extremely skewed: all weight on the first element.
        let mut w = vec![1e-9; 24];
        w[c.elem_at(0).index()] = 100.0;
        let p = partition_curve_weighted(&c, 24, &w).unwrap();
        assert_eq!(p.nonempty_parts(), 24);
    }

    #[test]
    fn weighted_uniform_matches_unweighted() {
        let c = curve(3); // K = 54
        let w = vec![2.5; 54];
        let a = partition_curve(&c, 6).unwrap();
        let b = partition_curve_weighted(&c, 6, &w).unwrap();
        assert_eq!(a.part_sizes(), b.part_sizes());
    }

    #[test]
    fn weighted_error_cases() {
        let c = curve(2);
        assert!(partition_curve_weighted(&c, 2, &[1.0; 5]).is_err());
        assert!(partition_curve_weighted(&c, 2, &[0.0; 24]).is_err());
        assert!(partition_curve_weighted(&c, 2, &[-1.0; 24]).is_err());
    }

    #[test]
    fn non_finite_weights_are_a_distinct_error() {
        let c = curve(2);
        // NaN passes a bare `w < 0.0` sign check; it must be caught by
        // the finiteness check and reported with the offending index.
        let mut w = vec![1.0; 24];
        w[3] = f64::NAN;
        assert_eq!(
            partition_curve_weighted(&c, 2, &w),
            Err(PartitionError::NonFiniteWeight { index: 3 })
        );
        w[3] = f64::INFINITY;
        assert_eq!(
            partition_curve_weighted(&c, 2, &w),
            Err(PartitionError::NonFiniteWeight { index: 3 })
        );
        w[3] = f64::NEG_INFINITY;
        assert_eq!(
            partition_curve_weighted(&c, 2, &w),
            Err(PartitionError::NonFiniteWeight { index: 3 })
        );
        // The finiteness check reports the *first* bad entry.
        w[1] = f64::NAN;
        assert_eq!(
            partition_curve_weighted(&c, 2, &w),
            Err(PartitionError::NonFiniteWeight { index: 1 })
        );
    }

    #[test]
    fn subnormal_weights_are_valid() {
        let c = curve(2);
        // Subnormals are finite and non-negative: a legal (if extreme)
        // weighting. Their sum is still positive, so the split proceeds
        // and every part stays non-empty.
        let w = vec![f64::MIN_POSITIVE / 4.0; 24]; // subnormal
        assert!(w[0] > 0.0 && !w[0].is_normal());
        let p = partition_curve_weighted(&c, 6, &w).unwrap();
        assert_eq!(p.nonempty_parts(), 6);
        // Uniform subnormal weights behave like uniform unit weights.
        let u = partition_curve(&c, 6).unwrap();
        assert_eq!(p.part_sizes(), u.part_sizes());
    }
}
