//! Nodal fields on spectral elements.

/// A scalar field stored per element at `n × n` GLL nodes × `nlev`
/// vertical levels.
///
/// Layout per element: `idx = (lev * n + b) * n + a` — level-major so the
/// horizontal kernels stream contiguous `n × n` slabs per level, matching
/// SEAM's level-loop structure.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    /// GLL points per direction.
    pub n: usize,
    /// Vertical levels.
    pub nlev: usize,
    /// Per-element nodal data (outer index = position in the owning
    /// container, which may be a global element id or a rank-local slot).
    pub data: Vec<Vec<f64>>,
}

impl Field {
    /// An all-zero field over `nelems` elements.
    pub fn zeros(nelems: usize, n: usize, nlev: usize) -> Field {
        Field {
            n,
            nlev,
            data: vec![vec![0.0; n * n * nlev]; nelems],
        }
    }

    /// Flat index of `(a, b, lev)`.
    #[inline]
    pub fn idx(&self, a: usize, b: usize, lev: usize) -> usize {
        (lev * self.n + b) * self.n + a
    }

    /// Maximum absolute difference to another field of the same shape;
    /// NaN if either field holds a NaN.
    ///
    /// # Panics
    ///
    /// Panics if `n`, `nlev`, the element count or an element's length
    /// differ.
    pub fn max_abs_diff(&self, other: &Field) -> f64 {
        let shape = |f: &Field| (f.n, f.nlev, f.data.len());
        assert_eq!(shape(self), shape(other), "field shape mismatch");
        nan_max(self.data.iter().zip(&other.data).flat_map(|(x, y)| {
            assert_eq!(x.len(), y.len(), "field shape mismatch");
            x.iter().zip(y).map(|(a, b)| (a - b).abs())
        }))
    }

    /// Maximum absolute value; NaN if the field holds a NaN.
    pub fn max_abs(&self) -> f64 {
        nan_max(self.data.iter().flatten().map(|v| v.abs()))
    }
}

/// The maximum of non-negative `values` (0 when empty); unlike a fold with
/// `f64::max`, a NaN anywhere makes the result NaN.
pub(crate) fn nan_max(values: impl IntoIterator<Item = f64>) -> f64 {
    values
        .into_iter()
        .fold(0.0, |m, v| if v > m || v.is_nan() { v } else { m })
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Field {
        /// Values per element (`n² × nlev`).
        fn elem_len(&self) -> usize {
            self.n * self.n * self.nlev
        }
    }

    #[test]
    fn zeros_shape() {
        let f = Field::zeros(3, 4, 2);
        assert_eq!(f.data.len(), 3);
        assert_eq!(f.elem_len(), 32);
        assert_eq!(f.max_abs(), 0.0);
    }

    #[test]
    fn index_layout_is_level_major() {
        let f = Field::zeros(1, 4, 2);
        assert_eq!(f.idx(0, 0, 0), 0);
        assert_eq!(f.idx(1, 0, 0), 1);
        assert_eq!(f.idx(0, 1, 0), 4);
        assert_eq!(f.idx(0, 0, 1), 16);
    }

    #[test]
    fn diff_detects_changes() {
        let a = Field::zeros(2, 3, 1);
        let mut b = a.clone();
        b.data[1][5] = 0.25;
        assert_eq!(a.max_abs_diff(&b), 0.25);
        assert_eq!(b.max_abs(), 0.25);
    }

    #[test]
    fn a_nan_is_never_hidden() {
        let clean = Field::zeros(2, 3, 1);
        for (e, k) in [(0, 0), (1, 4), (1, 8)] {
            let mut dirty = clean.clone();
            dirty.data[e][k] = f64::NAN;
            assert!(dirty.max_abs().is_nan());
            assert!(dirty.max_abs_diff(&clean).is_nan());
            assert!(clean.max_abs_diff(&dirty).is_nan());
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn diff_requires_the_same_point_count() {
        // Same element count, and zeros on the common prefix.
        Field::zeros(2, 3, 1).max_abs_diff(&Field::zeros(2, 4, 1));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn diff_requires_the_same_level_count() {
        Field::zeros(2, 3, 2).max_abs_diff(&Field::zeros(2, 3, 1));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn diff_requires_equal_element_lengths() {
        let a = Field::zeros(2, 3, 1);
        let mut b = a.clone();
        b.data[1].pop();
        a.max_abs_diff(&b);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn diff_requires_same_shape() {
        let a = Field::zeros(2, 3, 1);
        let b = Field::zeros(3, 3, 1);
        a.max_abs_diff(&b);
    }
}
