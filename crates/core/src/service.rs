//! The engine-backed implementation of the serving [`Backend`]: the
//! glue between `cubesfc::serve`'s transport mechanics and the
//! experiment engine's partitioners, models, and mesh cache.
//!
//! The serve crate deliberately knows nothing about meshes; this module
//! is where a validated `cubesfc-serve-v1` request becomes a
//! [`MeshCache`] lookup plus a deterministic partition, and where the
//! result is serialized into the response body. Bodies are pure
//! functions of the request — the same `(ne, nproc, method, seed)`
//! always yields byte-identical JSON — which is what makes the server's
//! LRU cache and request coalescing transparent to clients.

use crate::engine::MeshCache;
use crate::partitioner::{partition_with_graph, PartitionMethod, PartitionOptions};
use crate::report::PartitionReport;
use crate::sfc_partition::partition_curve;
use cubesfc_balance::{IncrementalSfc, Repartitioner};
use cubesfc_graph::share::occupy;
use cubesfc_graph::{load_balance_f64, part_loads, raw_migration};
use cubesfc_seam::{CostModel, MachineModel};
use cubesfc_serve::{body_writer, Backend, BackendError, PartitionRequest, RebalanceStepRequest};

/// Map a wire method name onto a [`PartitionMethod`], accepting the
/// same lower-case names as the CLI's `--method` flag.
pub fn method_from_name(name: &str) -> Option<PartitionMethod> {
    match name.to_lowercase().as_str() {
        "sfc" => Some(PartitionMethod::Sfc),
        "kway" => Some(PartitionMethod::MetisKway),
        "tv" => Some(PartitionMethod::MetisTv),
        "rb" => Some(PartitionMethod::MetisRb),
        "morton" => Some(PartitionMethod::Morton),
        "rcb" => Some(PartitionMethod::Rcb),
        _ => None,
    }
}

/// A [`Backend`] that computes partitions with the experiment engine's
/// machinery: a bounded [`MeshCache`] plus the paper's machine and cost
/// models.
pub struct EngineBackend {
    cache: MeshCache,
    machine: MachineModel,
    cost: CostModel,
}

impl EngineBackend {
    /// A backend with the paper's models (NCAR P690, SEAM climate) and
    /// the default mesh-cache capacity.
    pub fn new() -> EngineBackend {
        EngineBackend::with_cache(MeshCache::new())
    }

    /// A backend over an explicit cache.
    pub fn with_cache(cache: MeshCache) -> EngineBackend {
        EngineBackend {
            cache,
            machine: MachineModel::ncar_p690(),
            cost: CostModel::seam_climate(),
        }
    }

    /// The backend's mesh cache (for inspection in tests and metrics).
    pub fn cache(&self) -> &MeshCache {
        &self.cache
    }
}

impl Default for EngineBackend {
    fn default() -> Self {
        EngineBackend::new()
    }
}

/// Each call holds its worker's core for the whole request (partition,
/// report and body) through [`occupy`]: the partitioner's forks then
/// take only a core that no other request holds, so a loaded server runs
/// each request on its worker alone while a lone request still forks.
impl Backend for EngineBackend {
    fn partition(&self, req: &PartitionRequest) -> Result<String, BackendError> {
        occupy(|| self.partition_body(req))
    }

    fn rebalance_step(&self, req: &RebalanceStepRequest) -> Result<String, BackendError> {
        occupy(|| self.rebalance_step_body(req))
    }
}

impl EngineBackend {
    fn partition_body(&self, req: &PartitionRequest) -> Result<String, BackendError> {
        let _span = cubesfc_obs::span("service/partition");
        let method = method_from_name(&req.method).ok_or_else(|| {
            BackendError::BadRequest(format!(
                "unknown method {:?} (expected sfc, kway, tv, rb, morton, or rcb)",
                req.method
            ))
        })?;
        let bundle = self.cache.bundle(req.ne as usize);
        let mut options = PartitionOptions::default();
        options.graph_config.seed = req.seed;
        let partition = partition_with_graph(
            &bundle.mesh,
            &bundle.graph,
            method,
            req.nproc as usize,
            &options,
        )
        .map_err(|e| BackendError::BadRequest(e.to_string()))?;
        let report = PartitionReport::from_partition_with_graph(
            &bundle.graph,
            method,
            &partition,
            &self.machine,
            &self.cost,
        );

        // ~3 bytes per label when the assignment rides along.
        let labels = req.include_assignment.then(|| partition.assignment());
        let mut w = body_writer(320 + 3 * labels.map_or(0, <[u32]>::len));
        w.field("kind", "partition").field("ne", req.ne);
        w.field("k", bundle.graph.nv()).field("nproc", req.nproc);
        w.field("method", method.label()).field("seed", req.seed);
        w.key("report").begin_object();
        w.field("lb_nelemd", report.lb_nelemd);
        w.field("lb_spcv", report.lb_spcv);
        w.field("tcv_mbytes", report.tcv_mbytes);
        w.field("edgecut", report.edgecut);
        w.field("time_us", report.time_us).end_object();
        if let Some(labels) = labels {
            w.array("assignment", labels);
        }
        Ok(w.end_object().finish())
    }

    fn rebalance_step_body(&self, req: &RebalanceStepRequest) -> Result<String, BackendError> {
        let _span = cubesfc_obs::span("service/rebalance_step");
        let bundle = self.cache.bundle(req.ne as usize);
        let nelem = bundle.graph.nv();
        let curve = bundle
            .mesh
            .curve_required()
            .map_err(|e| BackendError::BadRequest(e.to_string()))?;

        let weights = if req.weights.is_empty() {
            vec![1.0; nelem]
        } else if req.weights.len() == nelem {
            req.weights.clone()
        } else {
            return Err(BackendError::BadRequest(format!(
                "weights length {} does not match element count {nelem} for ne={}",
                req.weights.len(),
                req.ne
            )));
        };

        let initial = partition_curve(curve, req.nproc as usize)
            .map_err(|e| BackendError::BadRequest(e.to_string()))?;
        let mut sfc = IncrementalSfc::new(curve.clone());
        let rebalanced = sfc
            .repartition(req.seed as usize, &weights, req.nproc as usize)
            .map_err(|e| BackendError::BadRequest(e.to_string()))?;
        let moved = raw_migration(&initial, &rebalanced)
            .map_err(|e| BackendError::Internal(e.to_string()))?;
        let loads = part_loads(&rebalanced, &weights);
        let lb = load_balance_f64(&loads);

        let mut w = body_writer(192 + 8 * loads.len());
        w.field("kind", "rebalance_step").field("ne", req.ne);
        w.field("k", nelem).field("nproc", req.nproc);
        w.field("seed", req.seed).field("load_balance", lb);
        w.field("moved_elems", moved).array("part_loads", &loads);
        Ok(w.end_object().finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesfc_obs::json_parse;
    use cubesfc_serve::SERVE_SCHEMA;

    #[test]
    fn partition_body_is_valid_versioned_json() {
        let backend = EngineBackend::new();
        let req = PartitionRequest {
            ne: 4,
            nproc: 8,
            method: "sfc".to_string(),
            seed: 0,
            include_assignment: true,
        };
        let body = backend.partition(&req).unwrap();
        let doc = json_parse(&body).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SERVE_SCHEMA));
        assert_eq!(doc.get("k").unwrap().as_u64(), Some(96));
        assert_eq!(doc.get("method").unwrap().as_str(), Some("SFC"));
        let report = doc.get("report").unwrap();
        // Eq. (1) imbalance lies in [0, 1); the SFC's equal-share split
        // of 96 elements over 8 parts is exactly balanced.
        assert_eq!(report.get("lb_nelemd").unwrap().as_f64(), Some(0.0));
        assert_eq!(doc.get("assignment").unwrap().as_arr().unwrap().len(), 96);
        // Same request → byte-identical body (cache/coalescing contract).
        assert_eq!(backend.partition(&req).unwrap(), body);
    }

    #[test]
    fn partition_rejects_unknown_method_and_bad_nproc() {
        let backend = EngineBackend::new();
        let mut req = PartitionRequest {
            ne: 4,
            nproc: 8,
            method: "voronoi".to_string(),
            seed: 0,
            include_assignment: false,
        };
        assert!(matches!(
            backend.partition(&req),
            Err(BackendError::BadRequest(_))
        ));
        req.method = "sfc".to_string();
        req.nproc = 10_000;
        assert!(matches!(
            backend.partition(&req),
            Err(BackendError::BadRequest(_))
        ));
    }

    #[test]
    fn rebalance_step_reports_balance_and_migration() {
        let backend = EngineBackend::new();
        let nelem = 6 * 4 * 4;
        // Skewed weights: the step must move something relative to the
        // uniform split and still report a parseable body.
        let mut weights = vec![1.0; nelem];
        for w in weights.iter_mut().take(nelem / 2) {
            *w = 4.0;
        }
        let req = RebalanceStepRequest {
            ne: 4,
            nproc: 6,
            seed: 0,
            weights,
        };
        let body = backend.rebalance_step(&req).unwrap();
        let doc = json_parse(&body).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("rebalance_step"));
        let lb = doc.get("load_balance").unwrap().as_f64().unwrap();
        assert!((0.0..1.0).contains(&lb));
        assert!(doc.get("moved_elems").unwrap().as_u64().unwrap() > 0);
        assert_eq!(doc.get("part_loads").unwrap().as_arr().unwrap().len(), 6);
    }

    #[test]
    fn rebalance_step_rejects_wrong_weight_length() {
        let backend = EngineBackend::new();
        let req = RebalanceStepRequest {
            ne: 4,
            nproc: 6,
            seed: 0,
            weights: vec![1.0; 7],
        };
        assert!(matches!(
            backend.rebalance_step(&req),
            Err(BackendError::BadRequest(_))
        ));
    }

    #[test]
    fn method_names_match_cli_flags() {
        assert_eq!(method_from_name("SFC"), Some(PartitionMethod::Sfc));
        assert_eq!(method_from_name("kway"), Some(PartitionMethod::MetisKway));
        assert_eq!(method_from_name("tv"), Some(PartitionMethod::MetisTv));
        assert_eq!(method_from_name("rb"), Some(PartitionMethod::MetisRb));
        assert_eq!(method_from_name("morton"), Some(PartitionMethod::Morton));
        assert_eq!(method_from_name("rcb"), Some(PartitionMethod::Rcb));
        assert_eq!(method_from_name("voronoi"), None);
    }
}
