//! Deriving refinement state tables from block paths.
//!
//! A refinement rule is fully determined by the *path* its children are
//! visited along: given a Hamiltonian path over the child blocks that
//! enters at the low corner and exits at the low corner of the high-major
//! side (the block invariant), each child's major and joiner vectors
//! follow mechanically by corner chaining — the same argument used to
//! thread the curve across cube faces:
//!
//! * the child's **joiner** is the step to the next block on the path;
//! * the child's **entry corner** is forced by where the previous child
//!   exited;
//! * its **exit corner** must lie on the face toward the next block and
//!   be adjacent to the entry corner — which determines it uniquely —
//!   and the **major** vector is the entry→exit displacement.
//!
//! The hand-written Hilbert and m-Peano tables in [`crate::refine`] are
//! verified against this derivation in tests; larger odd radices (the
//! radix-5 "Cinco" meander used by later NCAR models, and beyond) are
//! generated through it directly.

use crate::vector::{Axis, CurveState, Dir, UnitVec};

/// A canonical-frame state table entry: the child's major vector and its
/// joiner (`None` = inherit the parent's joiner; only ever the last
/// child).
pub type TableEntry = (UnitVec, Option<UnitVec>);

/// Block corner in canonical coordinates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct BCorner {
    hi_x: bool,
    hi_y: bool,
}

impl BCorner {
    fn is_adjacent(self, o: BCorner) -> bool {
        (self.hi_x != o.hi_x) ^ (self.hi_y != o.hi_y)
    }
}

/// Derive the canonical state table for a child-block `path`.
///
/// The path must be a Hamiltonian unit-step walk over an `r × r` block
/// grid from `(0, 0)` to `(r-1, 0)` (canonical entry/exit for a `+x`
/// major vector).
///
/// # Panics
///
/// Panics if the path violates any of those conditions.
pub fn derive_table(r: usize, path: &[(u8, u8)]) -> Vec<TableEntry> {
    let n = r * r;
    assert_eq!(path.len(), n, "path must visit every block");
    assert_eq!(path[0], (0, 0), "canonical paths start at the low corner");
    assert_eq!(
        path[n - 1],
        ((r - 1) as u8, 0),
        "canonical paths exit at the high-major low corner"
    );
    // Hamiltonian + unit-step.
    let mut seen = vec![false; n];
    for w in path.windows(2) {
        let (x0, y0) = (w[0].0 as i32, w[0].1 as i32);
        let (x1, y1) = (w[1].0 as i32, w[1].1 as i32);
        assert_eq!(
            (x1 - x0).abs() + (y1 - y0).abs(),
            1,
            "path must take unit steps"
        );
    }
    for &(x, y) in path {
        let idx = y as usize * r + x as usize;
        assert!(!seen[idx], "path revisits a block");
        seen[idx] = true;
    }

    let mut table = Vec::with_capacity(n);
    let mut entry = BCorner {
        hi_x: false,
        hi_y: false,
    };
    for i in 0..n {
        let (exit, joiner) = if i + 1 == n {
            // Last block: the whole domain exits at its (hi, lo) corner.
            (
                BCorner {
                    hi_x: true,
                    hi_y: false,
                },
                None,
            )
        } else {
            let dx = path[i + 1].0 as i32 - path[i].0 as i32;
            let dy = path[i + 1].1 as i32 - path[i].1 as i32;
            let joiner = match (dx, dy) {
                (1, 0) => UnitVec::new(Axis::X, Dir::Pos),
                (-1, 0) => UnitVec::new(Axis::X, Dir::Neg),
                (0, 1) => UnitVec::new(Axis::Y, Dir::Pos),
                (0, -1) => UnitVec::new(Axis::Y, Dir::Neg),
                _ => unreachable!("unit steps checked above"),
            };
            // Corners on the face toward the next block.
            let candidates: [BCorner; 2] = match (dx, dy) {
                (1, 0) => [
                    BCorner {
                        hi_x: true,
                        hi_y: false,
                    },
                    BCorner {
                        hi_x: true,
                        hi_y: true,
                    },
                ],
                (-1, 0) => [
                    BCorner {
                        hi_x: false,
                        hi_y: false,
                    },
                    BCorner {
                        hi_x: false,
                        hi_y: true,
                    },
                ],
                (0, 1) => [
                    BCorner {
                        hi_x: false,
                        hi_y: true,
                    },
                    BCorner {
                        hi_x: true,
                        hi_y: true,
                    },
                ],
                (0, -1) => [
                    BCorner {
                        hi_x: false,
                        hi_y: false,
                    },
                    BCorner {
                        hi_x: true,
                        hi_y: false,
                    },
                ],
                _ => unreachable!(),
            };
            // The exit corner adjacent to the entry corner (if the entry
            // is itself on that face, the exit is the other corner).
            let exit = if entry == candidates[0] {
                candidates[1]
            } else if entry == candidates[1] || entry.is_adjacent(candidates[0]) {
                candidates[0]
            } else {
                debug_assert!(entry.is_adjacent(candidates[1]));
                candidates[1]
            };
            (exit, Some(joiner))
        };

        // Major vector: entry -> exit displacement (adjacent corners).
        debug_assert!(entry.is_adjacent(exit), "block {i}: non-adjacent corners");
        let major = if entry.hi_x != exit.hi_x {
            UnitVec::new(Axis::X, if exit.hi_x { Dir::Pos } else { Dir::Neg })
        } else {
            UnitVec::new(Axis::Y, if exit.hi_y { Dir::Pos } else { Dir::Neg })
        };
        table.push((major, joiner));

        // Entry of the next block: the exit corner reflected across the
        // shared face (flip the coordinate along the joiner axis).
        if let Some(j) = joiner {
            entry = match j.axis {
                Axis::X => BCorner {
                    hi_x: !exit.hi_x,
                    hi_y: exit.hi_y,
                },
                Axis::Y => BCorner {
                    hi_x: exit.hi_x,
                    hi_y: !exit.hi_y,
                },
            };
        }
    }
    table
}

/// The canonical meander path for an odd radix `r ≥ 3`: up the first
/// column, right along the top row, then a row-wise boustrophedon through
/// the remaining `(r-1) × (r-1)` block, exiting at the low corner of the
/// high-`x` side.
///
/// For `r = 3` this is the paper's m-Peano; for `r = 5` it is the "Cinco"
/// meander later added to NCAR's HOMME model to support `5^p` factors.
///
/// # Panics
///
/// Panics for even or degenerate radices.
pub fn meander_path(r: usize) -> Vec<(u8, u8)> {
    assert!(r >= 3 && r % 2 == 1, "meander needs an odd radix >= 3");
    let mut p = Vec::with_capacity(r * r);
    // Column 0, bottom to top.
    for y in 0..r {
        p.push((0u8, y as u8));
    }
    // Top row, left to right (excluding the corner already visited).
    for x in 1..r {
        p.push((x as u8, (r - 1) as u8));
    }
    // Boustrophedon over columns 1..r, rows r-2 down to 0, starting
    // leftward; (r-1) rows is even, so the final row runs rightward and
    // exits at (r-1, 0).
    let mut leftward = true;
    for y in (0..r - 1).rev() {
        if leftward {
            for x in (1..r).rev() {
                p.push((x as u8, y as u8));
            }
        } else {
            for x in 1..r {
                p.push((x as u8, y as u8));
            }
        }
        leftward = !leftward;
    }
    p
}

/// Map a canonical-frame table entry onto an arbitrary parent state.
///
/// The canonical frame has major `+x`; the mapping sends `ê_x ↦ md·ê_ma`
/// and `ê_y ↦ md·ê_perp` (the same "perpendicular-positive follows the
/// major direction" convention as the hand-written tables).
pub fn instantiate(parent: CurveState, entry: &TableEntry) -> CurveState {
    let map = |u: UnitVec| -> UnitVec {
        let axis = match u.axis {
            Axis::X => parent.major.axis,
            Axis::Y => parent.major.axis.perp(),
        };
        let dir = match (u.dir, parent.major.dir) {
            (Dir::Pos, d) => d,
            (Dir::Neg, d) => -d,
        };
        UnitVec::new(axis, dir)
    };
    let major = map(entry.0);
    let joiner = match entry.1 {
        Some(j) => map(j),
        None => parent.joiner,
    };
    CurveState::new(major, joiner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::Radix;

    /// The canonical Hilbert block path (level-1 U with major `+x`).
    fn hilbert_path() -> Vec<(u8, u8)> {
        vec![(0, 0), (0, 1), (1, 1), (1, 0)]
    }

    #[test]
    fn meander_paths_are_valid() {
        for r in [3usize, 5, 7, 9] {
            let p = meander_path(r);
            assert_eq!(p.len(), r * r);
            assert_eq!(p[0], (0, 0));
            assert_eq!(p[r * r - 1], ((r - 1) as u8, 0));
            // derive_table repeats the validity checks and panics on
            // violations.
            let t = derive_table(r, &p);
            assert_eq!(t.len(), r * r);
            assert!(t[r * r - 1].1.is_none(), "last child inherits joiner");
            assert!(t[..r * r - 1].iter().all(|(_, j)| j.is_some()));
        }
    }

    #[test]
    #[should_panic(expected = "odd radix")]
    fn even_meander_rejected() {
        meander_path(4);
    }

    #[test]
    fn derived_hilbert_matches_hand_table() {
        let table = derive_table(2, &hilbert_path());
        for parent in all_parent_states() {
            let mut hand = [CurveState::canonical(); 25];
            let n = Radix::Two.child_states(parent, &mut hand);
            assert_eq!(n, 4);
            for (i, e) in table.iter().enumerate() {
                assert_eq!(instantiate(parent, e), hand[i], "parent {parent} child {i}");
            }
        }
    }

    #[test]
    fn derived_mpeano_matches_hand_table() {
        let table = derive_table(3, &meander_path(3));
        for parent in all_parent_states() {
            let mut hand = [CurveState::canonical(); 25];
            let n = Radix::Three.child_states(parent, &mut hand);
            assert_eq!(n, 9);
            for (i, e) in table.iter().enumerate() {
                assert_eq!(instantiate(parent, e), hand[i], "parent {parent} child {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unit steps")]
    fn non_unit_path_rejected() {
        derive_table(2, &[(0, 0), (1, 1), (0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "revisits")]
    fn revisiting_path_rejected() {
        derive_table(2, &[(0, 0), (0, 1), (0, 0), (1, 0)]);
    }

    fn all_parent_states() -> Vec<CurveState> {
        let mut v = Vec::new();
        for ma in [Axis::X, Axis::Y] {
            for md in [Dir::Pos, Dir::Neg] {
                for ja in [Axis::X, Axis::Y] {
                    for jd in [Dir::Pos, Dir::Neg] {
                        v.push(CurveState::new(UnitVec::new(ma, md), UnitVec::new(ja, jd)));
                    }
                }
            }
        }
        v
    }
}
