//! Load-evolution models: per-element work-weight trajectories over
//! simulated timesteps.
//!
//! The paper partitions a *static* load; what made space-filling curves
//! famous is how cheaply they track a *changing* one. Each model here is
//! a deterministic, closed-form function of the step index (no RNG, so
//! every replay is bit-reproducible) producing one weight per element:
//!
//! * [`TrajectoryKind::AmrHotspot`] — an AMR-style refinement cap that
//!   drifts along a tilted great circle; elements inside it cost a
//!   constant factor more, like one extra refinement level would.
//! * [`TrajectoryKind::Diurnal`] — a physics load wave: the day side of
//!   the sphere (sub-solar hemisphere, rotating once per `period` steps)
//!   runs more expensive physics, a smooth cosine in the solar zenith
//!   angle computed from element geometry.
//! * [`TrajectoryKind::RankSlowdown`] — a fault model: one processor
//!   degrades by a factor during a step window, modelled as inflating
//!   the effective work of whatever elements it *currently* owns (which
//!   is why [`LoadModel::weights_at`] takes the live partition).
//! * [`TrajectoryKind::RankDeath`] — the other fault model: one processor
//!   dies at a step, and from then on its capacity is zero
//!   ([`LoadModel::capacities_at`]). See [`crate::faults`].
//!
//! A [`LoadModel`] overlays one or more trajectories: their weights
//! multiply and their deaths accumulate, so `amr+death:3@12` is a moving
//! hotspot on a machine that loses rank 3 at step 12.

use cubesfc_graph::Partition;
use cubesfc_mesh::{CubedSphere, SpherePoint};

/// Which load-evolution model to run, with its parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrajectoryKind {
    /// A moving refinement hotspot: elements within `radius` (radians of
    /// great-circle distance) of a center drifting at `omega` radians
    /// per step along a great circle tilted by `tilt` cost `boost`×.
    AmrHotspot {
        /// Angular radius of the refined cap (radians).
        radius: f64,
        /// Work multiplier inside the cap (4 ≈ one 2-D refinement level).
        boost: f64,
        /// Drift rate (radians per step).
        omega: f64,
        /// Inclination of the drift circle (radians).
        tilt: f64,
    },
    /// Day-side physics wave: `w = 1 + amplitude · max(0, s(t) · x_e)`
    /// where `s(t)` is the sub-solar direction rotating once every
    /// `period` steps.
    Diurnal {
        /// Peak extra work at the sub-solar point.
        amplitude: f64,
        /// Steps per full rotation.
        period: usize,
    },
    /// Constant unit weight everywhere: the null trajectory. No policy
    /// should ever trigger on it, which makes it the control run for
    /// `trace analyze` alerting (a healthy run fires no alerts).
    Uniform,
    /// Processor `rank` runs `factor`× slower during `[start, end)`.
    RankSlowdown {
        /// The degraded rank.
        rank: usize,
        /// Slowdown factor (elements there cost this much more).
        factor: f64,
        /// First affected step.
        start: usize,
        /// First unaffected step again.
        end: usize,
    },
    /// Processor `rank` dies at `step` and stays dead: its capacity is
    /// zero from then on. Element weights are untouched.
    RankDeath {
        /// The dying rank.
        rank: usize,
        /// The step it dies at.
        step: usize,
    },
}

impl TrajectoryKind {
    /// The canonical named trajectories the CLI and benchmarks replay,
    /// with window parameters scaled to the `steps` horizon.
    /// Names: `amr`, `diurnal`, `fault`, `death`, `uniform`.
    pub fn named(name: &str, steps: usize) -> Option<TrajectoryKind> {
        match name {
            "uniform" => Some(TrajectoryKind::Uniform),
            "amr" => Some(TrajectoryKind::AmrHotspot {
                radius: 0.45,
                boost: 4.0,
                omega: 0.05,
                tilt: 0.4,
            }),
            "diurnal" => Some(TrajectoryKind::Diurnal {
                amplitude: 2.0,
                period: steps.max(2) / 2,
            }),
            "fault" => Some(TrajectoryKind::RankSlowdown {
                rank: 0,
                factor: 3.0,
                start: steps / 5,
                end: steps - steps / 5,
            }),
            "death" => Some(TrajectoryKind::RankDeath {
                rank: 0,
                step: steps / 2,
            }),
            _ => None,
        }
    }

    /// The short name ([`TrajectoryKind::named`]'s inverse).
    pub fn label(&self) -> &'static str {
        match self {
            TrajectoryKind::AmrHotspot { .. } => "amr",
            TrajectoryKind::Diurnal { .. } => "diurnal",
            TrajectoryKind::Uniform => "uniform",
            TrajectoryKind::RankSlowdown { .. } => "fault",
            TrajectoryKind::RankDeath { .. } => "death",
        }
    }

    /// The rank a fault trajectory strikes (`None` for the load models).
    pub fn rank(&self) -> Option<usize> {
        match *self {
            TrajectoryKind::RankSlowdown { rank, .. } | TrajectoryKind::RankDeath { rank, .. } => {
                Some(rank)
            }
            _ => None,
        }
    }
}

/// One or more trajectories bound to a mesh: element centers are
/// precomputed once, so evaluating a step is a single pass over the
/// elements per trajectory.
#[derive(Clone, Debug)]
pub struct LoadModel {
    centers: Vec<SpherePoint>,
    kinds: Vec<TrajectoryKind>,
}

impl LoadModel {
    /// Bind `kind` to the elements of `mesh`.
    pub fn from_mesh(mesh: &CubedSphere, kind: TrajectoryKind) -> LoadModel {
        LoadModel::overlay(mesh, vec![kind])
    }

    /// Bind the overlay of `kinds` (as [`TrajectoryKind::parse`] returns
    /// them) to the elements of `mesh`: weights multiply, deaths
    /// accumulate. Panics on an empty list.
    pub fn overlay(mesh: &CubedSphere, kinds: Vec<TrajectoryKind>) -> LoadModel {
        assert!(!kinds.is_empty(), "a load model needs a trajectory");
        LoadModel {
            centers: mesh.centers(),
            kinds,
        }
    }

    /// Bind `kind` to explicit element centers.
    pub fn new(centers: Vec<SpherePoint>, kind: TrajectoryKind) -> LoadModel {
        LoadModel {
            centers,
            kinds: vec![kind],
        }
    }

    /// The bound trajectories, in overlay order.
    pub fn kinds(&self) -> &[TrajectoryKind] {
        &self.kinds
    }

    /// The trajectory labels joined by `+` (e.g. `amr+death`).
    pub fn label(&self) -> String {
        let labels: Vec<&str> = self.kinds.iter().map(TrajectoryKind::label).collect();
        labels.join("+")
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// Whether the model covers zero elements.
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// Per-element weights at `step`: the product of every bound
    /// trajectory's weights. `current` is the live partition (only the
    /// slowdown reads it; the geometric models ignore it).
    pub fn weights_at(&self, step: usize, current: &Partition) -> Vec<f64> {
        let _lane = begin_phase("weights");
        let mut weights = self.weights_of(self.kinds[0], step, current);
        for &kind in &self.kinds[1..] {
            let factors = self.weights_of(kind, step, current);
            for (w, f) in weights.iter_mut().zip(factors) {
                *w *= f;
            }
        }
        weights
    }

    /// Per-rank capacities at `step` for a run of `nproc` ranks: `None`
    /// while every rank is alive, else 1 for a live rank and 0 for a
    /// rank whose [`TrajectoryKind::RankDeath`] step has passed.
    pub fn capacities_at(&self, step: usize, nproc: usize) -> Option<Vec<f64>> {
        let mut caps = None;
        for &kind in &self.kinds {
            if let TrajectoryKind::RankDeath { rank, step: at } = kind {
                if at <= step && rank < nproc {
                    caps.get_or_insert_with(|| vec![1.0; nproc])[rank] = 0.0;
                }
            }
        }
        caps
    }

    /// Does some rank die exactly at `step`?
    pub fn death_at(&self, step: usize) -> bool {
        self.kinds
            .iter()
            .any(|k| matches!(*k, TrajectoryKind::RankDeath { step: at, .. } if at == step))
    }

    fn weights_of(&self, kind: TrajectoryKind, step: usize, current: &Partition) -> Vec<f64> {
        match kind {
            TrajectoryKind::AmrHotspot {
                radius,
                boost,
                omega,
                tilt,
            } => {
                let theta = omega * step as f64;
                // Drift circle: equatorial orbit tilted about the x-axis.
                let (st, ct) = theta.sin_cos();
                let (si, ci) = tilt.sin_cos();
                let c = [ct, st * ci, st * si];
                let cos_r = radius.cos();
                self.centers
                    .iter()
                    .map(|p| {
                        let dot = p.xyz[0] * c[0] + p.xyz[1] * c[1] + p.xyz[2] * c[2];
                        if dot >= cos_r {
                            boost
                        } else {
                            1.0
                        }
                    })
                    .collect()
            }
            TrajectoryKind::Diurnal { amplitude, period } => {
                let theta = 2.0 * std::f64::consts::PI * (step % period.max(1)) as f64
                    / period.max(1) as f64;
                let (st, ct) = theta.sin_cos();
                let sun = [ct, st, 0.0];
                self.centers
                    .iter()
                    .map(|p| {
                        let cosz = p.xyz[0] * sun[0] + p.xyz[1] * sun[1] + p.xyz[2] * sun[2];
                        1.0 + amplitude * cosz.max(0.0)
                    })
                    .collect()
            }
            TrajectoryKind::Uniform | TrajectoryKind::RankDeath { .. } => {
                vec![1.0; self.centers.len()]
            }
            TrajectoryKind::RankSlowdown {
                rank,
                factor,
                start,
                end,
            } => self
                .centers
                .iter()
                .enumerate()
                .map(|(e, _)| {
                    let slow = step >= start && step < end && current.part_of(e) == rank;
                    if slow {
                        factor
                    } else {
                        1.0
                    }
                })
                .collect(),
        }
    }
}

/// Open a slice on the named rebalance-phase trace lane (one lane per
/// phase across the whole run, so Perfetto shows each phase as its own
/// timeline row). Returns a guard closing the slice on drop.
pub(crate) fn begin_phase(name: &str) -> cubesfc_obs::LaneSpan {
    cubesfc_obs::trace_lane(name).span(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> CubedSphere {
        CubedSphere::new(4)
    }

    fn trivial_partition(k: usize) -> Partition {
        Partition::new(1, vec![0; k])
    }

    #[test]
    fn named_trajectories_round_trip() {
        for name in ["amr", "diurnal", "fault", "death", "uniform"] {
            let t = TrajectoryKind::named(name, 50).unwrap();
            assert_eq!(t.label(), name);
        }
        assert!(TrajectoryKind::named("storm", 50).is_none());
    }

    #[test]
    fn uniform_trajectory_is_flat_everywhere() {
        let m = mesh();
        let lm = LoadModel::from_mesh(&m, TrajectoryKind::Uniform);
        let p = trivial_partition(m.num_elems());
        for step in [0, 7, 100] {
            assert!(lm.weights_at(step, &p).iter().all(|&w| w == 1.0));
        }
    }

    #[test]
    fn amr_hotspot_moves_and_boosts() {
        let m = mesh();
        let lm = LoadModel::from_mesh(&m, TrajectoryKind::named("amr", 50).unwrap());
        let p = trivial_partition(m.num_elems());
        let w0 = lm.weights_at(0, &p);
        let w10 = lm.weights_at(10, &p);
        // Some elements are boosted, most are not.
        let hot0 = w0.iter().filter(|&&w| w > 1.0).count();
        assert!(hot0 > 0 && hot0 < m.num_elems() / 2, "{hot0}");
        // The cap drifts: the boosted sets differ between steps.
        assert_ne!(w0, w10);
        // Deterministic replay.
        assert_eq!(lm.weights_at(10, &p), w10);
        // Only two weight values ever occur.
        assert!(w0.iter().all(|&w| w == 1.0 || w == 4.0));
    }

    #[test]
    fn diurnal_wave_is_smooth_and_periodic() {
        let m = mesh();
        let kind = TrajectoryKind::Diurnal {
            amplitude: 2.0,
            period: 24,
        };
        let lm = LoadModel::from_mesh(&m, kind);
        let p = trivial_partition(m.num_elems());
        let w0 = lm.weights_at(0, &p);
        let w24 = lm.weights_at(24, &p);
        assert_eq!(w0, w24, "one full rotation returns the same field");
        // Night side is exactly 1, day side above 1, max ≤ 1 + amplitude.
        assert!(w0.contains(&1.0));
        assert!(w0.iter().any(|&w| w > 1.5));
        assert!(w0.iter().all(|&w| (1.0..=3.0).contains(&w)));
    }

    #[test]
    fn death_zeroes_capacity_from_its_step_and_overlays_multiply() {
        let m = mesh();
        let p = trivial_partition(m.num_elems());
        let amr = TrajectoryKind::named("amr", 50).unwrap();
        let lm = LoadModel::overlay(
            &m,
            vec![
                amr,
                TrajectoryKind::RankDeath { rank: 2, step: 5 },
                TrajectoryKind::RankDeath { rank: 0, step: 7 },
            ],
        );
        assert_eq!(lm.label(), "amr+death+death");
        // A death changes capacity, never work: the overlay's weights are
        // the hotspot's exactly.
        assert_eq!(
            lm.weights_at(6, &p),
            LoadModel::from_mesh(&m, amr).weights_at(6, &p)
        );
        assert_eq!(lm.capacities_at(4, 3), None, "everyone alive");
        assert_eq!(lm.capacities_at(5, 3), Some(vec![1.0, 1.0, 0.0]));
        assert_eq!(lm.capacities_at(40, 3), Some(vec![0.0, 1.0, 0.0]));
        let death_steps: Vec<usize> = (0..10).filter(|&s| lm.death_at(s)).collect();
        assert_eq!(death_steps, [5, 7]);
        // Two slowdowns of one rank compound.
        let slow = |factor| TrajectoryKind::RankSlowdown {
            rank: 0,
            factor,
            start: 0,
            end: 9,
        };
        let both = LoadModel::overlay(&m, vec![slow(2.0), slow(1.5)]);
        assert!(both.weights_at(3, &p).iter().all(|&w| w == 3.0));
    }

    #[test]
    fn fault_reads_the_live_partition() {
        let m = mesh();
        let k = m.num_elems();
        let kind = TrajectoryKind::RankSlowdown {
            rank: 1,
            factor: 3.0,
            start: 5,
            end: 10,
        };
        let lm = LoadModel::from_mesh(&m, kind);
        let assign: Vec<u32> = (0..k).map(|e| (e % 2) as u32).collect();
        let p = Partition::new(2, assign);
        // Outside the window: uniform.
        assert!(lm.weights_at(4, &p).iter().all(|&w| w == 1.0));
        assert!(lm.weights_at(10, &p).iter().all(|&w| w == 1.0));
        // Inside: exactly the elements of rank 1 are inflated.
        let w = lm.weights_at(5, &p);
        for (e, &we) in w.iter().enumerate() {
            if p.part_of(e) == 1 {
                assert_eq!(we, 3.0);
            } else {
                assert_eq!(we, 1.0);
            }
        }
    }
}
