//! Gnomonic geometry: mapping the cube onto the unit sphere.
//!
//! "…the sphere is tiled with rectangular elements by subdividing the six
//! faces of the cube, which circumscribes the sphere, and then a gnomonic
//! projection maps these elements onto the surface of the sphere"
//! (paper §1). The gnomonic (central) projection simply normalizes each
//! cube-surface point to unit length.

use crate::face::{cell_corner_point, FaceFrame, FaceId, IVec3};
use crate::topology::make_eid;

/// A point on the unit sphere.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SpherePoint {
    /// Cartesian coordinates (unit length).
    pub xyz: [f64; 3],
}

impl SpherePoint {
    /// Project a cube-surface point (integer coordinates on the `[-ne,ne]³`
    /// cube) onto the unit sphere.
    pub fn from_cube_point(p: IVec3) -> SpherePoint {
        let v = [p[0] as f64, p[1] as f64, p[2] as f64];
        let norm = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        SpherePoint {
            xyz: [v[0] / norm, v[1] / norm, v[2] / norm],
        }
    }

    /// Project an arbitrary cube-surface point given in floating-point
    /// face parameters.
    pub fn from_face_params(face: FaceId, ne: usize, a: f64, b: f64) -> SpherePoint {
        let f = FaceFrame::of(face, ne as i64);
        let v = [
            f.origin[0] as f64 + a * f.u[0] as f64 + b * f.v[0] as f64,
            f.origin[1] as f64 + a * f.u[1] as f64 + b * f.v[1] as f64,
            f.origin[2] as f64 + a * f.u[2] as f64 + b * f.v[2] as f64,
        ];
        let norm = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        SpherePoint {
            xyz: [v[0] / norm, v[1] / norm, v[2] / norm],
        }
    }

    /// Longitude in radians, in `(-π, π]`.
    pub fn lon(&self) -> f64 {
        self.xyz[1].atan2(self.xyz[0])
    }

    /// Latitude in radians, in `[-π/2, π/2]`.
    pub fn lat(&self) -> f64 {
        self.xyz[2].asin()
    }

    /// Dot product with another sphere point.
    pub fn dot(&self, o: &SpherePoint) -> f64 {
        self.xyz[0] * o.xyz[0] + self.xyz[1] * o.xyz[1] + self.xyz[2] * o.xyz[2]
    }

    /// Great-circle distance (radians) to another point.
    pub fn distance(&self, o: &SpherePoint) -> f64 {
        self.dot(o).clamp(-1.0, 1.0).acos()
    }
}

/// The sphere position of the centre of element `(face, i, j)`.
pub fn elem_center(face: FaceId, ne: usize, i: usize, j: usize) -> SpherePoint {
    let a = -(ne as f64) + 2.0 * i as f64 + 1.0;
    let b = -(ne as f64) + 2.0 * j as f64 + 1.0;
    SpherePoint::from_face_params(face, ne, a, b)
}

/// The sphere positions of the four corners of element `(face, i, j)`,
/// in the order `(lo,lo), (hi,lo), (hi,hi), (lo,hi)` (counter-clockwise
/// seen from outside).
pub fn elem_corners(face: FaceId, ne: usize, i: usize, j: usize) -> [SpherePoint; 4] {
    let pt = |ci, cj| {
        SpherePoint::from_cube_point(cell_corner_point(
            face, ne as i64, i as i64, j as i64, ci, cj,
        ))
    };
    [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]
}

/// Solid angle of the spherical triangle `(a, b, c)` (Van Oosterom &
/// Strackee). Result is signed by orientation; callers wanting areas take
/// the absolute value.
pub fn triangle_solid_angle(a: &SpherePoint, b: &SpherePoint, c: &SpherePoint) -> f64 {
    let [ax, ay, az] = a.xyz;
    let [bx, by, bz] = b.xyz;
    let [cx, cy, cz] = c.xyz;
    // a · (b × c)
    let det = ax * (by * cz - bz * cy) - ay * (bx * cz - bz * cx) + az * (bx * cy - by * cx);
    let denom = 1.0 + a.dot(b) + b.dot(c) + c.dot(a);
    2.0 * det.atan2(denom)
}

/// Spherical area (steradians) of an element.
pub fn elem_area(face: FaceId, ne: usize, i: usize, j: usize) -> f64 {
    let [p0, p1, p2, p3] = elem_corners(face, ne, i, j);
    triangle_solid_angle(&p0, &p1, &p2).abs() + triangle_solid_angle(&p0, &p2, &p3).abs()
}

/// Sphere centres of every element, indexed by [`ElemId`](crate::topology::ElemId).
pub fn all_centers(ne: usize) -> Vec<SpherePoint> {
    let mut out = Vec::with_capacity(6 * ne * ne);
    for face in FaceId::ALL {
        for j in 0..ne {
            for i in 0..ne {
                debug_assert_eq!(make_eid(ne, face, i, j).index(), out.len());
                out.push(elem_center(face, ne, i, j));
            }
        }
    }
    out
}

/// Spherical areas of every element, indexed by [`ElemId`](crate::topology::ElemId).
pub fn all_areas(ne: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(6 * ne * ne);
    for face in FaceId::ALL {
        for j in 0..ne {
            for i in 0..ne {
                out.push(elem_area(face, ne, i, j));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn projected_points_are_unit_length() {
        for face in FaceId::ALL {
            let p = elem_center(face, 4, 1, 2);
            let n2: f64 = p.xyz.iter().map(|x| x * x).sum();
            assert!((n2 - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn face_centers_project_to_axis_points() {
        // The centre cell block of an odd face size straddles the face
        // centre; use face parameters directly instead.
        let p = SpherePoint::from_face_params(FaceId(0), 4, 0.0, 0.0);
        assert!((p.xyz[0] - 1.0).abs() < 1e-15);
        let p = SpherePoint::from_face_params(FaceId(4), 4, 0.0, 0.0);
        assert!((p.xyz[2] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn areas_sum_to_full_sphere() {
        for ne in [1usize, 2, 3, 4, 8] {
            let total: f64 = all_areas(ne).iter().sum();
            assert!(
                (total - 4.0 * PI).abs() < 1e-9,
                "ne={ne}: total {total} vs {}",
                4.0 * PI
            );
        }
    }

    #[test]
    fn gnomonic_areas_vary_but_boundedly() {
        // Gnomonic cells are largest at face centres, smallest at cube
        // corners; the ratio is bounded (≈ 5.2 asymptotically).
        let ne = 8;
        let areas = all_areas(ne);
        let max = areas.iter().cloned().fold(f64::MIN, f64::max);
        let min = areas.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 1.5);
        assert!(max / min < 5.5);
    }

    #[test]
    fn area_symmetry_across_faces() {
        // The same (i, j) cell on each face has the same area.
        let ne = 4;
        for j in 0..ne {
            for i in 0..ne {
                let a0 = elem_area(FaceId(0), ne, i, j);
                for face in FaceId::ALL {
                    let a = elem_area(face, ne, i, j);
                    assert!((a - a0).abs() < 1e-12, "face {face} cell ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn latlon_ranges() {
        for face in FaceId::ALL {
            for (i, j) in [(0, 0), (3, 1), (2, 3)] {
                let p = elem_center(face, 4, i, j);
                assert!(p.lat().abs() <= PI / 2.0 + 1e-12);
                assert!(p.lon() > -PI - 1e-12 && p.lon() <= PI + 1e-12);
            }
        }
    }

    #[test]
    fn distance_properties() {
        let a = SpherePoint::from_face_params(FaceId(0), 4, 0.0, 0.0);
        let b = SpherePoint::from_face_params(FaceId(2), 4, 0.0, 0.0); // antipode
        assert!(a.distance(&a) < 1e-12);
        assert!((a.distance(&b) - PI).abs() < 1e-12);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-15);
    }

    #[test]
    fn triangle_octant_solid_angle() {
        // The spherical triangle with vertices on +x, +y, +z covers one
        // octant: 4π/8 = π/2 steradians.
        let x = SpherePoint {
            xyz: [1.0, 0.0, 0.0],
        };
        let y = SpherePoint {
            xyz: [0.0, 1.0, 0.0],
        };
        let z = SpherePoint {
            xyz: [0.0, 0.0, 1.0],
        };
        assert!((triangle_solid_angle(&x, &y, &z).abs() - PI / 2.0).abs() < 1e-12);
    }

    #[test]
    fn neighboring_centers_are_close() {
        let ne = 8;
        let a = elem_center(FaceId(0), ne, 3, 3);
        let b = elem_center(FaceId(0), ne, 4, 3);
        // Adjacent cell centres are ~2/ne apart in parameter space, which
        // maps to an O(1/ne) great-circle distance.
        assert!(a.distance(&b) < 1.0 / ne as f64 * 4.0);
    }
}
