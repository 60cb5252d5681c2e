//! Axis/direction vocabulary for the major/joiner-vector recursion.
//!
//! The curve generators in this crate follow the formulation used by the
//! paper (after Pilkington & Baden): every (sub-)curve carries two unit
//! vectors expressed as an *axis* plus a *direction* along that axis:
//!
//! * the **major vector** gives the net direction of travel of the curve
//!   through its domain — a curve entered at corner `e` with major vector
//!   `(a, d)` over a `s × s` block exits at `e + (s-1)·d·ê_a`;
//! * the **joiner vector** points from the exit cell of the curve to the
//!   entry cell of the *next* sibling sub-domain visited by the parent
//!   curve (for the final sub-domain it is inherited from the parent).

use std::fmt;
use std::ops::Neg;

/// One of the two axes of the 2-D index domain.
///
/// `X` indexes the first coordinate (column `i`), `Y` the second (row `j`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Axis {
    /// First index coordinate (`i` / column).
    X = 0,
    /// Second index coordinate (`j` / row).
    Y = 1,
}

impl Axis {
    /// The axis perpendicular to `self`.
    ///
    /// Mirrors the paper's `lma = MOD(ma+1,2)` step.
    #[inline]
    pub fn perp(self) -> Axis {
        match self {
            Axis::X => Axis::Y,
            Axis::Y => Axis::X,
        }
    }

    /// Index of the axis (0 for `X`, 1 for `Y`), usable to index `[i, j]`
    /// coordinate pairs.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Both axes, in index order.
    pub const ALL: [Axis; 2] = [Axis::X, Axis::Y];
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axis::X => write!(f, "x"),
            Axis::Y => write!(f, "y"),
        }
    }
}

/// Travel direction along an axis: `+1` or `-1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Dir {
    /// Increasing index.
    Pos,
    /// Decreasing index.
    Neg,
}

impl Dir {
    /// The signed unit step (`+1` / `-1`) for this direction.
    #[inline]
    pub fn step(self) -> i64 {
        match self {
            Dir::Pos => 1,
            Dir::Neg => -1,
        }
    }
}

impl Neg for Dir {
    type Output = Dir;
    #[inline]
    fn neg(self) -> Dir {
        match self {
            Dir::Pos => Dir::Neg,
            Dir::Neg => Dir::Pos,
        }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dir::Pos => write!(f, "+"),
            Dir::Neg => write!(f, "-"),
        }
    }
}

/// An axis-aligned unit vector: an axis and a direction along it.
///
/// Used for both major and joiner vectors.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct UnitVec {
    /// The axis the vector is aligned with.
    pub axis: Axis,
    /// The direction of travel along `axis`.
    pub dir: Dir,
}

impl UnitVec {
    /// Construct a unit vector.
    #[inline]
    pub fn new(axis: Axis, dir: Dir) -> UnitVec {
        UnitVec { axis, dir }
    }

    /// The `(di, dj)` integer displacement of one step along this vector.
    #[inline]
    pub fn delta(self) -> (i64, i64) {
        match self.axis {
            Axis::X => (self.dir.step(), 0),
            Axis::Y => (0, self.dir.step()),
        }
    }

    /// Unit vector along the perpendicular axis, keeping this direction.
    ///
    /// The perpendicular "positive" sense is tied to the current direction,
    /// matching the `lmd = md` convention of the paper's pseudo-code.
    #[inline]
    pub fn perp(self) -> UnitVec {
        UnitVec::new(self.axis.perp(), self.dir)
    }

    /// The reversed vector.
    #[inline]
    pub fn reversed(self) -> UnitVec {
        UnitVec::new(self.axis, -self.dir)
    }

    /// Advance a `(i, j)` position one step along this vector.
    #[inline]
    pub fn advance(self, pos: (i64, i64)) -> (i64, i64) {
        let (di, dj) = self.delta();
        (pos.0 + di, pos.1 + dj)
    }
}

impl Neg for UnitVec {
    type Output = UnitVec;
    #[inline]
    fn neg(self) -> UnitVec {
        self.reversed()
    }
}

impl fmt::Display for UnitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.dir, self.axis)
    }
}

/// The recursion state of a (sub-)curve: its major and joiner vectors.
///
/// `CurveState` is the per-node state threaded through the generation
/// recursion; refinement rules map a parent state to the ordered states of
/// its children.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CurveState {
    /// Net direction of travel through the sub-domain.
    pub major: UnitVec,
    /// Step from this sub-domain's exit cell to the next sub-domain's entry
    /// cell.
    pub joiner: UnitVec,
}

impl CurveState {
    /// Construct a state from major and joiner vectors.
    #[inline]
    pub fn new(major: UnitVec, joiner: UnitVec) -> CurveState {
        CurveState { major, joiner }
    }

    /// The canonical top-level state: travel along `+x`, joiner `+x`.
    ///
    /// Generators start from this state with the cursor at `(0, 0)`; other
    /// orientations are obtained by applying a [`crate::transform::DihedralTransform`]
    /// to the finished curve.
    #[inline]
    pub fn canonical() -> CurveState {
        CurveState::new(
            UnitVec::new(Axis::X, Dir::Pos),
            UnitVec::new(Axis::X, Dir::Pos),
        )
    }
}

impl fmt::Display for CurveState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "major={} joiner={}", self.major, self.joiner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Dir {
        /// Build from any nonzero signed value.
        ///
        /// # Panics
        /// Panics if `v == 0`.
        fn from_sign(v: i64) -> Dir {
            match v.signum() {
                1 => Dir::Pos,
                -1 => Dir::Neg,
                _ => panic!("direction must be nonzero"),
            }
        }
    }

    #[test]
    fn axis_perp_is_involutive() {
        for a in Axis::ALL {
            assert_eq!(a.perp().perp(), a);
            assert_ne!(a.perp(), a);
        }
    }

    #[test]
    fn axis_index_matches_discriminant() {
        assert_eq!(Axis::X.index(), 0);
        assert_eq!(Axis::Y.index(), 1);
    }

    #[test]
    fn dir_step_signs() {
        assert_eq!(Dir::Pos.step(), 1);
        assert_eq!(Dir::Neg.step(), -1);
    }

    #[test]
    fn dir_neg_flips() {
        assert_eq!(-Dir::Pos, Dir::Neg);
        assert_eq!(-Dir::Neg, Dir::Pos);
    }

    #[test]
    fn dir_from_sign() {
        assert_eq!(Dir::from_sign(7), Dir::Pos);
        assert_eq!(Dir::from_sign(-3), Dir::Neg);
    }

    #[test]
    #[should_panic]
    fn dir_from_zero_panics() {
        let _ = Dir::from_sign(0);
    }

    #[test]
    fn unitvec_delta() {
        assert_eq!(UnitVec::new(Axis::X, Dir::Pos).delta(), (1, 0));
        assert_eq!(UnitVec::new(Axis::X, Dir::Neg).delta(), (-1, 0));
        assert_eq!(UnitVec::new(Axis::Y, Dir::Pos).delta(), (0, 1));
        assert_eq!(UnitVec::new(Axis::Y, Dir::Neg).delta(), (0, -1));
    }

    #[test]
    fn unitvec_advance() {
        let v = UnitVec::new(Axis::Y, Dir::Neg);
        assert_eq!(v.advance((3, 5)), (3, 4));
    }

    #[test]
    fn unitvec_perp_keeps_direction() {
        let v = UnitVec::new(Axis::X, Dir::Neg);
        let p = v.perp();
        assert_eq!(p.axis, Axis::Y);
        assert_eq!(p.dir, Dir::Neg);
    }

    #[test]
    fn unitvec_double_negation() {
        let v = UnitVec::new(Axis::Y, Dir::Pos);
        assert_eq!(-(-v), v);
    }

    #[test]
    fn canonical_state_travels_plus_x() {
        let s = CurveState::canonical();
        assert_eq!(s.major, UnitVec::new(Axis::X, Dir::Pos));
        assert_eq!(s.joiner, UnitVec::new(Axis::X, Dir::Pos));
    }

    #[test]
    fn display_forms() {
        let v = UnitVec::new(Axis::Y, Dir::Neg);
        assert_eq!(v.to_string(), "-y");
        let s = CurveState::new(v, v.reversed());
        assert_eq!(s.to_string(), "major=-y joiner=+y");
    }
}
