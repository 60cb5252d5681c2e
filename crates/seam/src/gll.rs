//! Gauss–Lobatto–Legendre (GLL) quadrature and spectral differentiation.
//!
//! SEAM approximates model fields inside each element "by a high order
//! polynomials" (paper §1) on a tensor product of GLL nodes; the paper's
//! production configuration uses 8×8 points per element. This module
//! provides the nodes, quadrature weights, and the collocation derivative
//! matrix for any order.

/// Legendre polynomial `P_n(x)` and its derivative, by the three-term
/// recurrence.
fn legendre(n: usize, x: f64) -> (f64, f64) {
    if n == 0 {
        return (1.0, 0.0);
    }
    let (mut p0, mut p1) = (1.0f64, x);
    for k in 2..=n {
        let kf = k as f64;
        let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
        p0 = p1;
        p1 = p2;
    }
    // P'_n from the standard identity (valid for |x| != 1; callers never
    // evaluate the derivative at the endpoints through this path).
    let dp = if (1.0 - x * x).abs() > 1e-300 {
        (n as f64) * (x * p1 - p0) / (x * x - 1.0)
    } else {
        0.0
    };
    (p1, dp)
}

/// The GLL basis for `n` points (`n ≥ 2`): nodes, weights, and the
/// derivative matrix.
#[derive(Clone, Debug)]
pub struct GllBasis {
    /// Number of points per direction.
    pub n: usize,
    /// Nodes in `[-1, 1]`, ascending.
    pub nodes: Vec<f64>,
    /// Quadrature weights.
    pub weights: Vec<f64>,
    /// Collocation derivative matrix, row-major: `(Du)_i = Σ_j D[i][j] u_j`
    /// stored as `d[i * n + j]`.
    pub d: Vec<f64>,
}

impl GllBasis {
    /// Construct the basis.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (GLL requires both endpoints).
    pub fn new(n: usize) -> GllBasis {
        assert!(n >= 2, "GLL basis needs at least 2 points");
        let nodes = gll_nodes(n);
        let weights = gll_weights(&nodes);
        let d = derivative_matrix(&nodes);
        GllBasis {
            n,
            nodes,
            weights,
            d,
        }
    }
}

/// Derivatives of one `n × n` slab: `dr = ∂ur/∂r` (D along `a` for each
/// row `b`) and `ds = ∂us/∂s` (D along `b` for each column `a`) — the one
/// body of the tensor-product loops every element kernel runs.
///
/// `N` is the point count as a compile-time constant, so the loops unroll
/// and the slices are checked once; `N = 0` reads it from `basis.n`.
#[inline(always)]
pub(crate) fn tensor_derivs<const N: usize>(
    basis: &GllBasis,
    ur: &[f64],
    us: &[f64],
    dr: &mut [f64],
    ds: &mut [f64],
) {
    let n = if N == 0 { basis.n } else { N };
    let npts = n * n;
    let (d, ur, us) = (&basis.d[..npts], &ur[..npts], &us[..npts]);
    let (dr, ds) = (&mut dr[..npts], &mut ds[..npts]);
    for b in 0..n {
        for i in 0..n {
            let mut s = 0.0;
            for j in 0..n {
                s += d[i * n + j] * ur[b * n + j];
            }
            dr[b * n + i] = s;
        }
    }
    for a in 0..n {
        for i in 0..n {
            let mut s = 0.0;
            for j in 0..n {
                s += d[i * n + j] * us[j * n + a];
            }
            ds[i * n + a] = s;
        }
    }
}

/// Calls the element-kernel body `f::<N>(args…, scratch)` with the point
/// count `np` as `N` for the counts in use (4..=8) and `scratch` holding
/// `width` zeroed `N²` buffers on the stack; any other count runs `f::<0>`
/// with the scratch on the heap.
macro_rules! with_np {
    ($np:expr, $width:expr, $f:ident($($arg:expr),*)) => {
        match $np {
            4 => $f::<4>($($arg,)* &mut [0.0; $width * 16]),
            5 => $f::<5>($($arg,)* &mut [0.0; $width * 25]),
            6 => $f::<6>($($arg,)* &mut [0.0; $width * 36]),
            7 => $f::<7>($($arg,)* &mut [0.0; $width * 49]),
            8 => $f::<8>($($arg,)* &mut [0.0; $width * 64]),
            n => $f::<0>($($arg,)* &mut vec![0.0; $width * n * n]),
        }
    };
}
pub(crate) use with_np;

/// GLL nodes: `±1` plus the roots of `P'_{n-1}` found by Newton iteration
/// from Chebyshev–Gauss–Lobatto initial guesses.
fn gll_nodes(n: usize) -> Vec<f64> {
    let m = n - 1; // polynomial degree
    let mut x = vec![0.0f64; n];
    for (i, xi) in x.iter_mut().enumerate() {
        // CGL points as starting guesses, already ordered ascending.
        *xi = -(std::f64::consts::PI * i as f64 / m as f64).cos();
    }
    for (i, xi) in x.iter_mut().enumerate() {
        if i == 0 || i == m {
            continue; // endpoints are exact
        }
        // Newton on f(x) = P'_m(x). Use the recurrence-based second
        // derivative via the Legendre ODE:
        // (1-x²) P''_m = 2x P'_m − m(m+1) P_m.
        for _ in 0..100 {
            let (p, dp) = legendre(m, *xi);
            let ddp = (2.0 * *xi * dp - (m as f64) * (m as f64 + 1.0) * p) / (1.0 - *xi * *xi);
            let step = dp / ddp;
            *xi -= step;
            if step.abs() < 1e-15 {
                break;
            }
        }
    }
    x
}

/// GLL weights: `w_i = 2 / (m(m+1) P_m(x_i)²)` with `m = n-1`.
fn gll_weights(nodes: &[f64]) -> Vec<f64> {
    let n = nodes.len();
    let m = n - 1;
    nodes
        .iter()
        .map(|&x| {
            let (p, _) = legendre(m, x);
            2.0 / (m as f64 * (m as f64 + 1.0) * p * p)
        })
        .collect()
}

/// The Lagrange collocation derivative matrix on arbitrary distinct nodes
/// (barycentric form).
fn derivative_matrix(nodes: &[f64]) -> Vec<f64> {
    let n = nodes.len();
    // Barycentric weights.
    let mut bw = vec![1.0f64; n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                bw[i] *= nodes[i] - nodes[j];
            }
        }
        bw[i] = 1.0 / bw[i];
    }
    let mut d = vec![0.0f64; n * n];
    for i in 0..n {
        let mut diag = 0.0;
        for j in 0..n {
            if i != j {
                let v = bw[j] / bw[i] / (nodes[i] - nodes[j]);
                d[i * n + j] = v;
                diag -= v;
            }
        }
        d[i * n + i] = diag;
    }
    d
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    impl GllBasis {
        /// Integrate nodal values with the GLL weights.
        fn integrate(&self, u: &[f64]) -> f64 {
            u.iter().zip(&self.weights).map(|(a, w)| a * w).sum()
        }

        /// Apply the derivative matrix to a vector of nodal values.
        fn differentiate(&self, u: &[f64], out: &mut [f64]) {
            for (i, o) in out.iter_mut().enumerate() {
                let row = &self.d[i * self.n..(i + 1) * self.n];
                *o = row.iter().zip(u).map(|(dv, uv)| dv * uv).sum();
            }
        }
    }

    /// A seeded xorshift64 stream, for the crate's randomised tests.
    pub(crate) fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// `len` seeded values, uniform in `[-1, 1)`.
    pub(crate) fn random_values(seed: u64, len: usize) -> Vec<f64> {
        let mut next = xorshift(seed);
        (0..len)
            .map(|_| (next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
            .collect()
    }

    #[test]
    fn endpoints_are_included() {
        for n in 2..=10 {
            let b = GllBasis::new(n);
            assert!((b.nodes[0] + 1.0).abs() < 1e-15);
            assert!((b.nodes[n - 1] - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn nodes_are_ascending_and_symmetric() {
        for n in 2..=12 {
            let b = GllBasis::new(n);
            for w in b.nodes.windows(2) {
                assert!(w[0] < w[1]);
            }
            for i in 0..n {
                assert!(
                    (b.nodes[i] + b.nodes[n - 1 - i]).abs() < 1e-12,
                    "n={n} i={i}"
                );
            }
        }
    }

    #[test]
    fn weights_sum_to_two() {
        for n in 2..=12 {
            let b = GllBasis::new(n);
            let s: f64 = b.weights.iter().sum();
            assert!((s - 2.0).abs() < 1e-12, "n={n}: {s}");
        }
    }

    #[test]
    fn known_gll4_nodes() {
        // n = 4: nodes ±1, ±1/√5.
        let b = GllBasis::new(4);
        assert!((b.nodes[1] + (1.0f64 / 5.0).sqrt()).abs() < 1e-12);
        assert!((b.nodes[2] - (1.0f64 / 5.0).sqrt()).abs() < 1e-12);
        // Weights 1/6, 5/6.
        assert!((b.weights[0] - 1.0 / 6.0).abs() < 1e-12);
        assert!((b.weights[1] - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn quadrature_is_exact_to_degree_2n_minus_3() {
        // GLL with n points integrates polynomials up to degree 2n-3.
        for n in 2..=8 {
            let b = GllBasis::new(n);
            for deg in 0..=(2 * n - 3) {
                let vals: Vec<f64> = b.nodes.iter().map(|&x| x.powi(deg as i32)).collect();
                let got = b.integrate(&vals);
                let exact = if deg % 2 == 1 {
                    0.0
                } else {
                    2.0 / (deg as f64 + 1.0)
                };
                assert!(
                    (got - exact).abs() < 1e-10,
                    "n={n} deg={deg}: {got} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn derivative_exact_on_polynomials() {
        // The collocation derivative is exact for polynomials of degree
        // < n.
        for n in 3..=9 {
            let b = GllBasis::new(n);
            for deg in 0..n {
                let u: Vec<f64> = b.nodes.iter().map(|&x| x.powi(deg as i32)).collect();
                let mut du = vec![0.0; n];
                b.differentiate(&u, &mut du);
                for (i, &x) in b.nodes.iter().enumerate() {
                    let exact = if deg == 0 {
                        0.0
                    } else {
                        deg as f64 * x.powi(deg as i32 - 1)
                    };
                    assert!(
                        (du[i] - exact).abs() < 1e-8,
                        "n={n} deg={deg} i={i}: {} vs {exact}",
                        du[i]
                    );
                }
            }
        }
    }

    #[test]
    fn derivative_rows_sum_to_zero() {
        // D annihilates constants.
        let b = GllBasis::new(8);
        for i in 0..8 {
            let s: f64 = b.d[i * 8..(i + 1) * 8].iter().sum();
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn n1_rejected() {
        GllBasis::new(1);
    }

    #[test]
    fn eight_point_basis_matches_seam_config() {
        let b = GllBasis::new(8);
        assert_eq!(b.nodes.len(), 8);
        assert_eq!(b.d.len(), 64);
    }
}
