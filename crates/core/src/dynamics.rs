//! Recompute-from-scratch rebalancing backends over the top-level
//! partitioner methods.
//!
//! The `cubesfc-balance` crate defines the [`Repartitioner`] trait and
//! ships the incremental SFC backend; it sits *below* this crate in the
//! dependency order, so it cannot see the METIS-family partitioners.
//! This module closes that gap: [`MethodRepartitioner`] wraps any
//! [`PartitionMethod`] (over a shared [`MeshBundle`], so the dual graph
//! is built once) as a recompute backend, giving the dynamic-rebalance
//! simulator its from-scratch baseline.

use crate::engine::MeshBundle;
use crate::partitioner::{partition_with_graph, PartitionMethod, PartitionOptions};
use cubesfc_balance::{BalanceError, Repartitioner};
use cubesfc_graph::Partition;
use std::sync::Arc;

/// Recompute backend: solve each rebalance as a fresh partitioning
/// problem with `method` on the bundle's mesh and cached dual graph.
///
/// The multilevel partitioners are seeded `base_seed + step`, so every
/// trigger sees a fresh (but deterministic, replayable) refinement
/// stream — the honest model of "recompute from scratch", which is
/// exactly what makes its migration volume large.
#[derive(Clone)]
pub struct MethodRepartitioner {
    bundle: Arc<MeshBundle>,
    method: PartitionMethod,
    opts: PartitionOptions,
    base_seed: u64,
}

impl MethodRepartitioner {
    /// Wrap `method` over `bundle` with default options and `base_seed`.
    pub fn new(bundle: Arc<MeshBundle>, method: PartitionMethod, base_seed: u64) -> Self {
        MethodRepartitioner {
            bundle,
            method,
            opts: PartitionOptions::default(),
            base_seed,
        }
    }

    /// Override the partitioner options (exchange weights, ub factor…).
    /// `opts.weights` and the seed are replaced per step.
    pub fn with_options(mut self, opts: PartitionOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The wrapped method.
    pub fn method(&self) -> PartitionMethod {
        self.method
    }
}

impl Repartitioner for MethodRepartitioner {
    fn label(&self) -> String {
        format!("{}-recompute", self.method.label().to_lowercase())
    }

    fn repartition(
        &mut self,
        step: usize,
        weights: &[f64],
        nproc: usize,
    ) -> Result<Partition, BalanceError> {
        let mut opts = self.opts.clone();
        opts.weights = Some(weights.to_vec());
        opts.graph_config.seed = self.base_seed.wrapping_add(step as u64);
        partition_with_graph(
            &self.bundle.mesh,
            &self.bundle.graph,
            self.method,
            nproc,
            &opts,
        )
        .map_err(|e| BalanceError::Backend {
            label: self.label(),
            message: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MeshCache;
    use cubesfc_balance::{
        run_rebalance, IncrementalSfc, LoadModel, RebalancePolicy, SimConfig, TrajectoryKind,
    };
    use cubesfc_graph::matched_migration;
    use cubesfc_seam::{CostModel, MachineModel};

    #[test]
    fn recompute_backend_partitions_and_reports_errors() {
        let cache = MeshCache::new();
        let bundle = cache.bundle(4);
        let mut rp = MethodRepartitioner::new(bundle.clone(), PartitionMethod::MetisKway, 7);
        assert_eq!(rp.label(), "kway-recompute");
        let w = vec![1.0; bundle.graph.nv()];
        let p = rp.repartition(0, &w, 8).unwrap();
        assert_eq!(p.nparts(), 8);
        // Same step → same seed → identical result (replayable).
        assert_eq!(rp.repartition(0, &w, 8).unwrap(), p);
        // Backend errors surface as BalanceError::Backend.
        let err = rp.repartition(0, &w, 0).unwrap_err();
        assert!(matches!(err, BalanceError::Backend { .. }));
        assert!(err.to_string().contains("kway-recompute"));
    }

    #[test]
    fn recompute_moves_more_than_incremental_sfc() {
        // The subsystem's headline claim, in miniature: same trajectory,
        // same policy, both backends — the incremental SFC ships a small
        // fraction of the recompute baseline's elements.
        let cache = MeshCache::new();
        let bundle = cache.bundle(6);
        let curve = bundle.mesh.curve().unwrap().clone();
        let model = LoadModel::from_mesh(&bundle.mesh, TrajectoryKind::named("amr", 12).unwrap());
        let config = SimConfig {
            steps: 12,
            nproc: 12,
            machine: MachineModel::ncar_p690(),
            cost: CostModel::seam_climate(),
        };
        let initial = crate::sfc_partition::partition_curve(&curve, 12).unwrap();
        let policy = RebalancePolicy::Periodic { every: 3 };

        let mut sfc = IncrementalSfc::new(curve);
        let sfc_report = run_rebalance(
            &bundle.graph,
            &model,
            &mut sfc,
            policy,
            initial.clone(),
            &config,
        )
        .unwrap();

        let mut kway = MethodRepartitioner::new(bundle.clone(), PartitionMethod::MetisKway, 7);
        let kway_report =
            run_rebalance(&bundle.graph, &model, &mut kway, policy, initial, &config).unwrap();

        assert_eq!(sfc_report.trigger_count(), kway_report.trigger_count());
        assert!(
            sfc_report.total_moved_elems() < kway_report.total_moved_elems(),
            "incremental {} vs recompute {}",
            sfc_report.total_moved_elems(),
            kway_report.total_moved_elems()
        );
    }

    #[test]
    fn trait_objects_mix_backends() {
        let cache = MeshCache::new();
        let bundle = cache.bundle(4);
        let curve = bundle.mesh.curve().unwrap().clone();
        let mut backends: Vec<Box<dyn Repartitioner>> = vec![
            Box::new(IncrementalSfc::new(curve)),
            Box::new(MethodRepartitioner::new(
                bundle.clone(),
                PartitionMethod::MetisRb,
                1,
            )),
        ];
        let w = vec![1.0; bundle.graph.nv()];
        let a = backends[0].repartition(0, &w, 6).unwrap();
        let b = backends[1].repartition(0, &w, 6).unwrap();
        // Different algorithms, same element universe.
        assert_eq!(a.len(), b.len());
        assert!(matched_migration(&a, &b).is_ok());
    }
}
