//! Cube→sphere mapping variants.
//!
//! The paper's SEAM uses the plain (equidistant) gnomonic projection: a
//! uniform grid on the cube face is centrally projected onto the sphere,
//! which makes corner elements ~5× smaller in area than face-centre ones.
//! Later cubed-sphere models (Ronchi et al.'s conformal-free formulation,
//! HOMME, FV3) prefer the **equiangular** variant: the face parameter is
//! an angle, `x = tan(ξ·π/4)` with `ξ ∈ [-1, 1]`, which equalizes areas to
//! within ~30 %.
//!
//! The mapping choice changes geometry and the performance-model weights,
//! not topology: element adjacency and the space-filling curve are
//! unaffected (which is itself a useful property of element-granular SFC
//! partitioning).

use crate::face::{FaceFrame, FaceId};
use crate::geometry::SpherePoint;

/// Which cube→sphere parameterization to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Mapping {
    /// Uniform cube-face grid, central projection (the paper's SEAM).
    #[default]
    Equidistant,
    /// Uniform *angular* grid: `x = tan(ξ π/4)` (HOMME-style).
    Equiangular,
}

impl Mapping {
    /// Transform a normalized face coordinate `ξ ∈ [-1, 1]` into the
    /// cube-face coordinate `x ∈ [-1, 1]`.
    #[inline]
    pub fn warp(self, xi: f64) -> f64 {
        match self {
            Mapping::Equidistant => xi,
            Mapping::Equiangular => (xi * std::f64::consts::FRAC_PI_4).tan(),
        }
    }

    /// Derivative `dx/dξ` — needed by metric terms.
    #[inline]
    pub fn warp_deriv(self, xi: f64) -> f64 {
        match self {
            Mapping::Equidistant => 1.0,
            Mapping::Equiangular => {
                let c = (xi * std::f64::consts::FRAC_PI_4).cos();
                std::f64::consts::FRAC_PI_4 / (c * c)
            }
        }
    }

    /// Sphere point at normalized face coordinates `(ξ, η) ∈ [-1, 1]²`.
    pub fn sphere_point(self, face: FaceId, xi: f64, eta: f64) -> SpherePoint {
        let x = self.warp(xi);
        let y = self.warp(eta);
        let f = FaceFrame::of(face, 1);
        let v = [
            f.origin[0] as f64 + x * f.u[0] as f64 + y * f.v[0] as f64,
            f.origin[1] as f64 + x * f.u[1] as f64 + y * f.v[1] as f64,
            f.origin[2] as f64 + x * f.u[2] as f64 + y * f.v[2] as f64,
        ];
        let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        SpherePoint {
            xyz: [v[0] / n, v[1] / n, v[2] / n],
        }
    }

    /// Spherical area of element `(i, j)` on an `ne × ne` face under this
    /// mapping (two-triangle spherical excess).
    pub fn elem_area(self, face: FaceId, ne: usize, i: usize, j: usize) -> f64 {
        let h = 2.0 / ne as f64;
        let xi0 = -1.0 + i as f64 * h;
        let eta0 = -1.0 + j as f64 * h;
        let p = |a: f64, b: f64| self.sphere_point(face, a, b);
        let c = [
            p(xi0, eta0),
            p(xi0 + h, eta0),
            p(xi0 + h, eta0 + h),
            p(xi0, eta0 + h),
        ];
        crate::geometry::triangle_solid_angle(&c[0], &c[1], &c[2]).abs()
            + crate::geometry::triangle_solid_angle(&c[0], &c[2], &c[3]).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// The checks' own inverse and uniformity figure of the mapping.
    impl Mapping {
        /// Inverse of [`Mapping::warp`].
        fn unwarp(self, x: f64) -> f64 {
            match self {
                Mapping::Equidistant => x,
                Mapping::Equiangular => x.atan() / std::f64::consts::FRAC_PI_4,
            }
        }

        /// Max/min element-area ratio over the whole sphere at face size
        /// `ne`.
        fn area_ratio(self, ne: usize) -> f64 {
            let mut min = f64::MAX;
            let mut max = f64::MIN;
            // Symmetry: one face suffices.
            for j in 0..ne {
                for i in 0..ne {
                    let a = self.elem_area(FaceId(0), ne, i, j);
                    min = min.min(a);
                    max = max.max(a);
                }
            }
            max / min
        }
    }

    #[test]
    fn warp_endpoints_and_center() {
        for m in [Mapping::Equidistant, Mapping::Equiangular] {
            assert!((m.warp(-1.0) + 1.0).abs() < 1e-15);
            assert!((m.warp(0.0)).abs() < 1e-15);
            assert!((m.warp(1.0) - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn warp_unwarp_roundtrip() {
        for m in [Mapping::Equidistant, Mapping::Equiangular] {
            for k in 0..21 {
                let xi = -1.0 + k as f64 * 0.1;
                assert!((m.unwarp(m.warp(xi)) - xi).abs() < 1e-14, "{m:?} {xi}");
            }
        }
    }

    #[test]
    fn warp_deriv_matches_finite_difference() {
        let m = Mapping::Equiangular;
        let eps = 1e-6;
        for k in 0..19 {
            let xi = -0.9 + k as f64 * 0.1;
            let fd = (m.warp(xi + eps) - m.warp(xi - eps)) / (2.0 * eps);
            assert!((m.warp_deriv(xi) - fd).abs() < 1e-8, "xi={xi}");
        }
    }

    #[test]
    fn areas_sum_to_sphere_for_both_mappings() {
        for m in [Mapping::Equidistant, Mapping::Equiangular] {
            let ne = 4;
            let mut total = 0.0;
            for f in 0..6u8 {
                for j in 0..ne {
                    for i in 0..ne {
                        total += m.elem_area(FaceId(f), ne, i, j);
                    }
                }
            }
            assert!((total - 4.0 * PI).abs() < 1e-10, "{m:?}: {total}");
        }
    }

    #[test]
    fn equiangular_is_much_more_uniform() {
        let ne = 8;
        let r_eq = Mapping::Equidistant.area_ratio(ne);
        let r_an = Mapping::Equiangular.area_ratio(ne);
        // Equidistant gnomonic: ratio → ~5.2; equiangular: ≤ ~1.35.
        assert!(r_eq > 3.0, "equidistant ratio {r_eq}");
        assert!(r_an < 1.5, "equiangular ratio {r_an}");
        assert!(r_an < r_eq / 2.0);
    }

    #[test]
    fn equidistant_matches_legacy_geometry() {
        // The default mapping must agree with the original geometry module.
        let ne = 4;
        for (i, j) in [(0usize, 0usize), (1, 2), (3, 3)] {
            let a = Mapping::Equidistant.elem_area(FaceId(2), ne, i, j);
            let b = crate::geometry::elem_area(FaceId(2), ne, i, j);
            assert!((a - b).abs() < 1e-14, "({i},{j}): {a} vs {b}");
        }
    }

    #[test]
    fn sphere_points_are_unit() {
        for m in [Mapping::Equidistant, Mapping::Equiangular] {
            let p = m.sphere_point(FaceId(4), 0.3, -0.7);
            let n: f64 = p.xyz.iter().map(|x| x * x).sum();
            assert!((n - 1.0).abs() < 1e-14);
        }
    }
}
