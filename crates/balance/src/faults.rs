//! Rank faults as loads.
//!
//! The paper's machine — NCAR's P690 cluster — slows and loses
//! processors in real runs. Both faults are load trajectories here, not
//! a mechanism of their own:
//!
//! * a **slow** rank ([`TrajectoryKind::RankSlowdown`]) makes the
//!   elements it currently owns cost `F`× more, which is exactly what a
//!   work-weighted re-split needs to see to route around it;
//! * a **dead** rank ([`TrajectoryKind::RankDeath`]) has zero capacity
//!   from its death step on. [`crate::sim::run_rebalance`] answers the
//!   death with a forced re-split over the survivors
//!   ([`cubesfc_graph::split_order_weighted_capacity`], the weighted
//!   prefix split of Liu et al.), so no element is lost and the run
//!   carries on with `Nproc − 1` ranks.
//!
//! Everything is closed-form in the step index, so a faulted run is
//! byte-identical across repeats. This module adds the two parameterised
//! fault terms to the trajectory spec grammar of [`TrajectoryKind::parse`].

use crate::trajectory::TrajectoryKind;

impl TrajectoryKind {
    /// Parse a `+`-separated trajectory spec for a run of `nproc` ranks
    /// and `steps` steps. Each term is a [`TrajectoryKind::named`]
    /// trajectory or one of the two rank faults (indices 0-based):
    ///
    /// * `death:R@S` — rank `R` dies at step `S`;
    /// * `slow:R@A..BxF` — rank `R` runs `F`× slower over steps `[A, B)`.
    ///
    /// `amr+death:3@12` is the moving hotspot on a machine that loses
    /// rank 3 at step 12.
    pub fn parse(spec: &str, nproc: usize, steps: usize) -> Result<Vec<TrajectoryKind>, String> {
        if nproc == 0 || steps == 0 {
            return Err("a trajectory needs nproc > 0 and steps > 0".to_string());
        }
        spec.split('+')
            .map(str::trim)
            .map(|term| match term.split_once(':') {
                None => TrajectoryKind::named(term, steps).ok_or_else(|| {
                    format!(
                        "unknown trajectory {term:?} (expected amr, diurnal, fault, death, \
                         uniform, death:R@S or slow:R@A..BxF)"
                    )
                }),
                Some((name, args)) => parse_fault(term, name, args, nproc, steps),
            })
            .collect()
    }
}

fn parse_fault(
    term: &str,
    name: &str,
    args: &str,
    nproc: usize,
    steps: usize,
) -> Result<TrajectoryKind, String> {
    let (rank, at) = args
        .split_once('@')
        .ok_or_else(|| format!("bad fault {term:?}: expected RANK@STEP"))?;
    let rank: usize = rank.parse().map_err(|_| format!("bad rank in {term:?}"))?;
    if rank >= nproc {
        return Err(format!(
            "rank {rank} out of range (nproc = {nproc}) in {term:?}"
        ));
    }
    match name {
        "death" => Ok(TrajectoryKind::RankDeath {
            rank,
            step: parse_step(at, term, steps)?,
        }),
        "slow" => {
            let (window, factor) = at
                .split_once('x')
                .ok_or_else(|| format!("bad slow fault {term:?}: expected R@A..BxF"))?;
            let (a, b) = window
                .split_once("..")
                .ok_or_else(|| format!("bad slow window in {term:?}: expected A..B"))?;
            let start = parse_step(a, term, steps)?;
            let end: usize = b
                .parse()
                .map_err(|_| format!("bad window end in {term:?}"))?;
            if end <= start || end > steps {
                return Err(format!(
                    "slow window [{start}, {end}) out of range (steps = {steps}) in {term:?}"
                ));
            }
            let factor: f64 = factor
                .parse()
                .map_err(|_| format!("bad factor in {term:?}"))?;
            if !factor.is_finite() || factor < 1.0 {
                return Err(format!("slowdown factor must be ≥ 1 in {term:?}"));
            }
            Ok(TrajectoryKind::RankSlowdown {
                rank,
                factor,
                start,
                end,
            })
        }
        other => Err(format!("unknown fault kind {other:?} in {term:?}")),
    }
}

fn parse_step(s: &str, term: &str, steps: usize) -> Result<usize, String> {
    let step: usize = s.parse().map_err(|_| format!("bad step in {term:?}"))?;
    if step >= steps {
        return Err(format!(
            "step {step} out of range (steps = {steps}) in {term:?}"
        ));
    }
    Ok(step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::LoadModel;
    use cubesfc_graph::Partition;
    use cubesfc_mesh::SpherePoint;

    #[test]
    fn spec_grammar_round_trips() {
        let kinds = TrajectoryKind::parse("amr + death:3@25+slow:1@10..20x2.5", 8, 50).unwrap();
        assert_eq!(kinds.len(), 3);
        assert_eq!(kinds[0], TrajectoryKind::named("amr", 50).unwrap());
        assert_eq!(kinds[1], TrajectoryKind::RankDeath { rank: 3, step: 25 });
        assert_eq!(
            kinds[2],
            TrajectoryKind::RankSlowdown {
                rank: 1,
                factor: 2.5,
                start: 10,
                end: 20
            }
        );
        let labels: Vec<&str> = kinds.iter().map(TrajectoryKind::label).collect();
        assert_eq!(labels, ["amr", "death", "fault"]);
        // A bare name is a one-term spec.
        assert_eq!(
            TrajectoryKind::parse("death", 8, 50).unwrap(),
            [TrajectoryKind::RankDeath { rank: 0, step: 25 }]
        );
    }

    #[test]
    fn spec_rejects_bad_entries() {
        let bad = |spec: &str, nproc: usize| TrajectoryKind::parse(spec, nproc, 50).unwrap_err();
        assert!(bad("death:9@5", 8).contains("rank 9 out of range"));
        assert!(bad("death:0@50", 8).contains("step 50 out of range"));
        assert!(bad("slow:0@5..3x2", 8).contains("window"));
        assert!(bad("slow:0@5..10x0.5", 8).contains("factor"));
        assert!(bad("meteor:0@5", 8).contains("unknown fault kind"));
        assert!(bad("storm", 8).contains("unknown trajectory"));
        assert!(bad("amr+", 8).contains("unknown trajectory"));
        // The transport faults are gone with the transport emulation.
        for gone in ["stall:0@5x0.1", "delay:0@5x0.1", "loss:0@5", "random:4@7"] {
            assert!(bad(gone, 8).contains("unknown fault kind"), "{gone}");
        }
        assert!(bad("death:0@5", 0).contains("nproc > 0"));
    }

    #[test]
    fn last_rank_death_is_unrecoverable() {
        use crate::rebalance::IncrementalSfc;
        use crate::sim::{run_rebalance, SimConfig};
        use crate::{BalanceError, RebalancePolicy};
        use cubesfc_graph::SplitError;
        use cubesfc_mesh::{CubedSphere, GlobalCurve};

        let mesh = CubedSphere::new(2);
        let curve = GlobalCurve::build(2).unwrap();
        let model = LoadModel::from_mesh(&mesh, TrajectoryKind::RankDeath { rank: 0, step: 2 });
        let config = SimConfig {
            steps: 4,
            nproc: 1,
            machine: cubesfc_seam::MachineModel::ncar_p690(),
            cost: cubesfc_seam::CostModel::seam_climate(),
        };
        let err = run_rebalance(
            &mesh.dual_graph(Default::default()),
            &model,
            &mut IncrementalSfc::new(curve),
            RebalancePolicy::named("threshold").unwrap(),
            Partition::new(1, vec![0; mesh.num_elems()]),
            &config,
        )
        .unwrap_err();
        // No rank is left to take the elements: a typed error, not a
        // partition that loses them.
        assert_eq!(err, BalanceError::Split(SplitError::ZeroCapacity));
    }

    #[test]
    fn slowdowns_inflate_owned_weights() {
        let kinds = TrajectoryKind::parse("slow:1@2..4x3", 2, 10).unwrap();
        let north = SpherePoint {
            xyz: [0.0, 0.0, 1.0],
        };
        let model = LoadModel::new(vec![north; 4], kinds[0]);
        let part = Partition::new(2, vec![0, 1, 0, 1]);
        assert_eq!(
            model.weights_at(0, &part),
            vec![1.0; 4],
            "outside the window"
        );
        assert_eq!(model.weights_at(2, &part), vec![1.0, 3.0, 1.0, 3.0]);
        assert_eq!(model.weights_at(4, &part), vec![1.0; 4], "end is exclusive");
        // A slowdown changes work, never capacity.
        assert_eq!(model.capacities_at(3, 2), None);
    }
}
