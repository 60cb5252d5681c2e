//! Migration planner: turn "old partition, new partition" into per-rank
//! send/receive manifests an application could execute, with a
//! conservation check.
//!
//! The new partition arrives with arbitrary part labels (a recompute
//! backend numbers parts however it likes). The planner first relabels
//! it onto the old partition by maximum element overlap
//! ([`cubesfc_graph::match_labels`]) so that "element stays on rank 3"
//! is representable at all, then records every element whose owner still
//! changes as one entry in the sending rank's manifest and the receiving
//! rank's mirror entry.

use crate::error::BalanceError;
use crate::trajectory::begin_phase;
use cubesfc_graph::{match_labels, Partition};

/// One rank's outgoing migration traffic to a single peer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// Destination (for sends) or source (for receives) rank.
    pub peer: usize,
    /// Elements moved, in ascending element order.
    pub elems: Vec<usize>,
}

/// Per-rank send/receive manifests for one rebalance, plus totals.
#[derive(Clone, Debug)]
pub struct MigrationPlan {
    /// The relabeled new partition (same parts as `new`, labels matched
    /// onto the old partition's).
    pub target: Partition,
    /// `sends[r]` = transfers rank `r` must send, sorted by peer.
    pub sends: Vec<Vec<Transfer>>,
    /// `recvs[r]` = transfers rank `r` must receive, sorted by peer.
    pub recvs: Vec<Vec<Transfer>>,
    /// Total elements changing owner (the matched migration volume).
    pub moved_elems: usize,
    /// `moved_elems × bytes_per_elem` as supplied to [`MigrationPlan::new`].
    pub moved_bytes: f64,
}

impl MigrationPlan {
    /// Plan the migration from `old` to `new`.
    ///
    /// `new` may use any part labels; it is relabeled by maximum overlap
    /// first, so the plan's [`MigrationPlan::target`] — not `new` itself
    /// — is what the simulator should adopt. `bytes_per_elem` prices the
    /// plan (element state size from the cost model).
    pub fn new(
        old: &Partition,
        new: &Partition,
        bytes_per_elem: f64,
    ) -> Result<MigrationPlan, BalanceError> {
        let _phase = begin_phase("plan");
        let relabel = match_labels(old, new)?;
        let nparts = old
            .nparts()
            .max(relabel.iter().map(|&l| l as usize + 1).max().unwrap_or(0));
        let target_assign: Vec<u32> = new
            .assignment()
            .iter()
            .map(|&p| relabel[p as usize])
            .collect();
        let target = Partition::new(nparts, target_assign);
        Self::build(old, target, bytes_per_elem)
    }

    /// Plan the migration onto an already-labeled `target` partition.
    ///
    /// Unlike [`MigrationPlan::new`], the target's labels are taken as
    /// authoritative — no overlap relabeling happens. The fault-recovery
    /// path needs this: a capacity-aware re-split after a rank death
    /// already names final ranks, and relabeling by maximum overlap
    /// could map a surviving part back onto the dead rank's label.
    pub fn from_target(
        old: &Partition,
        target: &Partition,
        bytes_per_elem: f64,
    ) -> Result<MigrationPlan, BalanceError> {
        let _phase = begin_phase("plan");
        let nparts = old.nparts().max(target.nparts());
        let target = Partition::new(nparts, target.assignment().to_vec());
        Self::build(old, target, bytes_per_elem)
    }

    fn build(
        old: &Partition,
        target: Partition,
        bytes_per_elem: f64,
    ) -> Result<MigrationPlan, BalanceError> {
        let nparts = target.nparts();
        // flows[(src, dst)] built rank-major so manifests come out sorted.
        let mut moved_elems = 0usize;
        let mut sends: Vec<Vec<Transfer>> = vec![Vec::new(); nparts];
        let mut recvs: Vec<Vec<Transfer>> = vec![Vec::new(); nparts];
        for e in 0..old.len() {
            let src = old.part_of(e);
            let dst = target.part_of(e);
            if src == dst {
                continue;
            }
            moved_elems += 1;
            push_elem(&mut sends[src], dst, e);
            push_elem(&mut recvs[dst], src, e);
        }
        for side in [&mut sends, &mut recvs] {
            for transfers in side.iter_mut() {
                transfers.sort_by_key(|t| t.peer);
            }
        }

        let plan = MigrationPlan {
            target,
            sends,
            recvs,
            moved_elems,
            moved_bytes: moved_elems as f64 * bytes_per_elem,
        };
        plan.verify(old)?;
        Ok(plan)
    }

    /// Conservation check: replaying the manifests against `old` must
    /// reproduce [`MigrationPlan::target`] exactly, each element must
    /// move at most once, and every send must have a matching receive.
    pub fn verify(&self, old: &Partition) -> Result<(), BalanceError> {
        let invalid = |reason: String| BalanceError::PlanInvalid { reason };
        if old.len() != self.target.len() {
            return Err(invalid(format!(
                "old has {} elements, target has {}",
                old.len(),
                self.target.len()
            )));
        }
        let mut replay: Vec<u32> = old.assignment().to_vec();
        let mut seen = vec![false; old.len()];
        let mut send_total = 0usize;
        for (src, transfers) in self.sends.iter().enumerate() {
            for t in transfers {
                for &e in &t.elems {
                    if e >= replay.len() {
                        return Err(invalid(format!("element {e} out of range")));
                    }
                    if seen[e] {
                        return Err(invalid(format!("element {e} moved twice")));
                    }
                    seen[e] = true;
                    if replay[e] as usize != src {
                        return Err(invalid(format!(
                            "rank {src} sends element {e} it does not own"
                        )));
                    }
                    replay[e] = t.peer as u32;
                    send_total += 1;
                }
            }
        }
        // Receives must mirror sends element-for-element.
        let mut recv_total = 0usize;
        for (dst, transfers) in self.recvs.iter().enumerate() {
            for t in transfers {
                for &e in &t.elems {
                    recv_total += 1;
                    if replay.get(e).copied() != Some(dst as u32) {
                        return Err(invalid(format!(
                            "rank {dst} expects element {e} but no send delivers it"
                        )));
                    }
                }
            }
        }
        if send_total != recv_total {
            return Err(invalid(format!(
                "{send_total} elements sent but {recv_total} received"
            )));
        }
        if send_total != self.moved_elems {
            return Err(invalid(format!(
                "manifests move {send_total} elements, plan claims {}",
                self.moved_elems
            )));
        }
        if replay != self.target.assignment() {
            let e = replay
                .iter()
                .zip(self.target.assignment())
                .position(|(a, b)| a != b)
                .unwrap();
            return Err(invalid(format!(
                "replay diverges from target at element {e}"
            )));
        }
        Ok(())
    }
}

fn push_elem(transfers: &mut Vec<Transfer>, peer: usize, e: usize) {
    match transfers.iter_mut().find(|t| t.peer == peer) {
        Some(t) => t.elems.push(e),
        None => transfers.push(Transfer {
            peer,
            elems: vec![e],
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesfc_graph::matched_migration;

    impl MigrationPlan {
        /// Number of (src, dst) rank pairs exchanging any elements.
        fn num_messages(&self) -> usize {
            self.sends.iter().map(|t| t.len()).sum()
        }
    }

    fn part(nparts: usize, assign: &[u32]) -> Partition {
        Partition::new(nparts, assign.to_vec())
    }

    #[test]
    fn identical_partitions_need_no_plan() {
        let p = part(2, &[0, 0, 1, 1]);
        let plan = MigrationPlan::new(&p, &p, 100.0).unwrap();
        assert_eq!(plan.moved_elems, 0);
        assert_eq!(plan.moved_bytes, 0.0);
        assert_eq!(plan.num_messages(), 0);
        assert_eq!(plan.target.assignment(), p.assignment());
    }

    #[test]
    fn relabeling_prevents_phantom_migration() {
        // New partition is the old one with labels swapped: after
        // matching, nothing moves.
        let old = part(2, &[0, 0, 1, 1]);
        let new = part(2, &[1, 1, 0, 0]);
        let plan = MigrationPlan::new(&old, &new, 1.0).unwrap();
        assert_eq!(plan.moved_elems, 0);
        assert_eq!(plan.target.assignment(), old.assignment());
    }

    #[test]
    fn manifests_mirror_and_replay() {
        let old = part(3, &[0, 0, 0, 1, 1, 1, 2, 2, 2]);
        let new = part(3, &[0, 0, 1, 1, 1, 2, 2, 2, 0]);
        let plan = MigrationPlan::new(&old, &new, 10.0).unwrap();
        assert_eq!(plan.moved_elems, matched_migration(&old, &new).unwrap());
        assert_eq!(plan.moved_bytes, plan.moved_elems as f64 * 10.0);
        // Every send has a matching recv (verify() also checks this).
        let sends: usize = plan.sends.iter().flatten().map(|t| t.elems.len()).sum();
        let recvs: usize = plan.recvs.iter().flatten().map(|t| t.elems.len()).sum();
        assert_eq!(sends, recvs);
        assert_eq!(sends, plan.moved_elems);
    }

    #[test]
    fn verify_rejects_tampered_plans() {
        let old = part(2, &[0, 0, 1, 1]);
        let new = part(2, &[0, 1, 1, 0]);
        let mut plan = MigrationPlan::new(&old, &new, 1.0).unwrap();
        plan.moved_elems += 1;
        let err = plan.verify(&old).unwrap_err();
        assert!(matches!(err, BalanceError::PlanInvalid { .. }));
    }

    #[test]
    fn size_mismatch_is_a_migration_error() {
        let old = part(2, &[0, 1]);
        let new = part(2, &[0, 1, 1]);
        let err = MigrationPlan::new(&old, &new, 1.0).unwrap_err();
        assert!(matches!(err, BalanceError::Migration(_)));
    }

    #[test]
    fn from_target_keeps_labels_authoritative() {
        // Dead rank 1 evacuated by a capacity-zeroed re-split: every
        // element lands on rank 0 and label 1 must stay empty. Overlap
        // relabeling is free to renumber parts, which could resurrect
        // the dead label; from_target executes the labels as given.
        let old = part(2, &[0, 0, 1, 1]);
        let target = part(2, &[0, 0, 0, 0]);
        let plan = MigrationPlan::from_target(&old, &target, 5.0).unwrap();
        assert_eq!(plan.target.assignment(), target.assignment());
        assert_eq!(plan.moved_elems, 2);
        assert_eq!(plan.moved_bytes, 10.0);
        assert!(plan.sends[1].iter().any(|t| t.peer == 0));
        assert!(plan.recvs[1].is_empty(), "dead rank receives nothing");

        // Swapped labels: new() would cancel the swap, from_target
        // executes it literally.
        let old = part(2, &[0, 0, 1, 1]);
        let swapped = part(2, &[1, 1, 0, 0]);
        let plan = MigrationPlan::from_target(&old, &swapped, 1.0).unwrap();
        assert_eq!(plan.moved_elems, 4);
    }

    #[test]
    fn growing_part_count_is_handled() {
        // Rebalance from 2 parts to 3: one brand-new part appears.
        let old = part(2, &[0, 0, 0, 1, 1, 1]);
        let new = part(3, &[0, 0, 2, 1, 1, 2]);
        let plan = MigrationPlan::new(&old, &new, 1.0).unwrap();
        assert_eq!(plan.target.nparts(), 3);
        assert_eq!(plan.moved_elems, 2);
    }
}
