//! The top-level partitioning API: one entry point, six algorithms.

use crate::error::PartitionError;
use crate::sfc_partition::{partition_curve, partition_curve_weighted};
use cubesfc_graph::{kway, kway_volume, recursive_bisection, CsrGraph, Partition, PartitionConfig};
use cubesfc_mesh::{CubedSphere, ExchangeWeights, GlobalCurve};
use cubesfc_sfc::Schedule;
use std::fmt;

/// The partitioning algorithms compared in the paper, plus the Morton
/// ablation baseline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PartitionMethod {
    /// Space-filling curve (Hilbert / m-Peano / Hilbert-Peano as the face
    /// size dictates) — the paper's contribution.
    Sfc,
    /// METIS-style direct K-way, minimizing edgecut.
    MetisKway,
    /// METIS-style K-way variant minimizing total communication volume.
    MetisTv,
    /// METIS-style recursive bisection.
    MetisRb,
    /// Morton (Z-order) curve segments — ablation baseline, not in the
    /// paper.
    Morton,
    /// Recursive coordinate bisection on element centroids — geometric
    /// baseline, not in the paper.
    Rcb,
}

impl PartitionMethod {
    /// The METIS-family methods (the paper's baselines).
    pub const METIS: [PartitionMethod; 3] = [
        PartitionMethod::MetisKway,
        PartitionMethod::MetisTv,
        PartitionMethod::MetisRb,
    ];

    /// All methods.
    pub const ALL: [PartitionMethod; 6] = [
        PartitionMethod::Sfc,
        PartitionMethod::MetisKway,
        PartitionMethod::MetisTv,
        PartitionMethod::MetisRb,
        PartitionMethod::Morton,
        PartitionMethod::Rcb,
    ];

    /// The short label used in tables (matches the paper's Table 2).
    pub fn label(&self) -> &'static str {
        match self {
            PartitionMethod::Sfc => "SFC",
            PartitionMethod::MetisKway => "KWAY",
            PartitionMethod::MetisTv => "TV",
            PartitionMethod::MetisRb => "RB",
            PartitionMethod::Morton => "MORTON",
            PartitionMethod::Rcb => "RCB-GEO",
        }
    }
}

impl fmt::Display for PartitionMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Options for [`partition`].
#[derive(Clone, Debug)]
pub struct PartitionOptions {
    /// Exchange weights used when building the dual graph for the
    /// METIS-family methods (and for all quality metrics).
    pub exchange: ExchangeWeights,
    /// Balance tolerance and seed for the multilevel partitioners.
    pub graph_config: GraphConfigSeed,
    /// Optional per-element work weights (element-id indexed). When set,
    /// the SFC method uses weighted prefix splitting and the graph
    /// methods use weighted vertices.
    pub weights: Option<Vec<f64>>,
}

/// Seed/tolerance knobs forwarded to `cubesfc_graph::PartitionConfig`.
#[derive(Clone, Copy, Debug)]
pub struct GraphConfigSeed {
    /// RNG seed.
    pub seed: u64,
    /// Balance tolerance (METIS default 1.03).
    pub ub_factor: f64,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        PartitionOptions {
            exchange: ExchangeWeights::default(),
            graph_config: GraphConfigSeed {
                seed: 0x5EED,
                ub_factor: 1.03,
            },
            weights: None,
        }
    }
}

/// A plain `clone()`, kept only because callers outside this repository
/// still write `to_csr(&mesh.dual_graph(..))`: the mesh builds (and
/// validates) the partitioner's [`CsrGraph`] directly, so there is nothing
/// left to convert. Use `mesh.dual_graph(..)` as is.
pub fn to_csr(dg: &CsrGraph) -> CsrGraph {
    dg.clone()
}

/// Partition a cubed-sphere into `nproc` parts with the chosen method.
///
/// # Errors
///
/// * [`PartitionError::Curve`] if `method` is SFC-based and `Ne` is not
///   `2^n·3^m` (the paper's problem-size restriction);
/// * [`PartitionError::TooManyParts`] / [`PartitionError::ZeroParts`] for
///   nonsensical processor counts.
pub fn partition(
    mesh: &CubedSphere,
    method: PartitionMethod,
    nproc: usize,
    opts: &PartitionOptions,
) -> Result<Partition, PartitionError> {
    partition_impl(mesh, None, method, nproc, opts)
}

/// [`partition`] with a pre-built dual graph in CSR form.
///
/// The METIS-family methods consume `g` directly instead of rebuilding
/// the dual graph — the difference between O(K) and O(1) graph builds
/// when one mesh is partitioned many times, as in the experiment sweeps.
/// `g` must be the dual graph of `mesh` (same vertex count, element-id
/// ordering, and exchange weights as `mesh.dual_graph(opts.exchange)`);
/// the SFC-family methods ignore it.
pub fn partition_with_graph(
    mesh: &CubedSphere,
    g: &CsrGraph,
    method: PartitionMethod,
    nproc: usize,
    opts: &PartitionOptions,
) -> Result<Partition, PartitionError> {
    partition_impl(mesh, Some(g), method, nproc, opts)
}

fn partition_impl(
    mesh: &CubedSphere,
    prebuilt: Option<&CsrGraph>,
    method: PartitionMethod,
    nproc: usize,
    opts: &PartitionOptions,
) -> Result<Partition, PartitionError> {
    let _span = cubesfc_obs::span("partition");
    cubesfc_obs::counter_add("partition/calls", 1);
    let k = mesh.num_elems();
    if nproc == 0 {
        return Err(PartitionError::ZeroParts);
    }
    if nproc > k {
        return Err(PartitionError::TooManyParts { nproc, nelems: k });
    }

    match method {
        PartitionMethod::Sfc => {
            let curve = {
                let _span = cubesfc_obs::span("curve");
                mesh.curve_required()?
            };
            match &opts.weights {
                None => partition_curve(curve, nproc),
                Some(w) => partition_curve_weighted(curve, nproc, w),
            }
        }
        PartitionMethod::Morton => {
            let curve = {
                let _span = cubesfc_obs::span("curve");
                morton_curve(mesh)?
            };
            match &opts.weights {
                None => partition_curve(&curve, nproc),
                Some(w) => partition_curve_weighted(&curve, nproc, w),
            }
        }
        PartitionMethod::Rcb => crate::rcb::partition_rcb(mesh, nproc),
        PartitionMethod::MetisKway | PartitionMethod::MetisTv | PartitionMethod::MetisRb => {
            let vwgt = match &opts.weights {
                None => None,
                Some(w) => Some(integer_vertex_weights(w, k)?),
            };
            // A prebuilt graph is used as-is unless the weights replace
            // its vertex weights: then the whole graph is cloned, its
            // O(E) adjacency included, and the clone takes the new vwgt.
            let owned: Option<CsrGraph>;
            let g: &CsrGraph = match (prebuilt, vwgt) {
                (Some(g), None) => g,
                (Some(g), Some(vwgt)) => {
                    let mut gw = g.clone();
                    gw.vwgt = vwgt;
                    owned = Some(gw);
                    owned.as_ref().unwrap()
                }
                (None, vwgt) => {
                    let _span = cubesfc_obs::span("dualgraph");
                    let mut dg = mesh.dual_graph(opts.exchange);
                    if let Some(vwgt) = vwgt {
                        dg.vwgt = vwgt;
                    }
                    owned = Some(dg);
                    owned.as_ref().unwrap()
                }
            };
            let cfg = PartitionConfig::new(nproc)
                .with_seed(opts.graph_config.seed)
                .with_ub_factor(opts.graph_config.ub_factor);
            Ok(match method {
                PartitionMethod::MetisKway => kway(g, &cfg),
                PartitionMethod::MetisTv => kway_volume(g, &cfg),
                PartitionMethod::MetisRb => recursive_bisection(g, &cfg),
                _ => unreachable!(),
            })
        }
    }
}

/// Scale real-valued work weights to the integer vertex weights the
/// graph partitioner uses, validating them first: a NaN would pass the
/// old `x.max(0.0)` clamp as 0 and an infinity would saturate the `u32`
/// cast and overflow the `+ 1` — both silently corrupting the balance
/// targets instead of erroring. Finite weights whose scaled sum does not
/// fit `u32` are refused too: the partitioner's coarse vertex weights are
/// `u32` sums of these.
fn integer_vertex_weights(w: &[f64], k: usize) -> Result<Vec<u32>, PartitionError> {
    if w.len() != k {
        return Err(PartitionError::BadWeights {
            reason: "weight vector length must equal element count",
        });
    }
    if let Some(index) = w.iter().position(|x| !x.is_finite()) {
        return Err(PartitionError::NonFiniteWeight { index });
    }
    let vwgt: Vec<u32> = w
        .iter()
        .map(|&x| (x.max(0.0) * 16.0).round().min(u32::MAX as f64 - 1.0) as u32 + 1)
        .collect();
    // Coarsening adds matched vertices' weights in `u32`; a sum that fits
    // is what keeps every coarse weight in range.
    if vwgt.iter().map(|&x| x as u64).sum::<u64>() > u32::MAX as u64 {
        return Err(PartitionError::BadWeights {
            reason: "scaled vertex weights (16 x weight + 1) must sum to at most u32::MAX",
        });
    }
    Ok(vwgt)
}

/// A Morton-order "curve" over the six faces: each face in the standard
/// threading order, cells in Z-order (no cross-face continuity — that is
/// the point of the ablation).
fn morton_curve(mesh: &CubedSphere) -> Result<GlobalCurve, PartitionError> {
    // Reuse the face threading with a Morton face order by building a
    // GlobalCurve-compatible order manually.
    let ne = mesh.ne();
    let z = cubesfc_sfc::morton(ne.max(2)).map_err(PartitionError::from)?;
    let mut order = Vec::with_capacity(mesh.num_elems());
    for &face in &cubesfc_mesh::FACE_ORDER {
        if ne == 1 {
            order.push(mesh.eid(face, 0, 0));
        } else {
            for (i, j) in z.iter() {
                order.push(mesh.eid(face, i, j));
            }
        }
    }
    Ok(GlobalCurve::from_order_unchecked(ne, order))
}

/// Partition with the default options.
pub fn partition_default(
    mesh: &CubedSphere,
    method: PartitionMethod,
    nproc: usize,
) -> Result<Partition, PartitionError> {
    partition(mesh, method, nproc, &PartitionOptions::default())
}

/// Partition via SFC with an explicit refinement schedule (for the
/// refinement-order ablation, paper §5's open question).
pub fn partition_sfc_with_schedule(
    ne_schedule: &Schedule,
    nproc: usize,
) -> Result<(CubedSphere, Partition), PartitionError> {
    let mesh = CubedSphere::with_schedule(ne_schedule);
    let part = {
        let curve = mesh.curve_required()?;
        partition_curve(curve, nproc)?
    };
    Ok((mesh, part))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesfc_graph::load_balance;

    #[test]
    fn all_methods_partition_k384() {
        let mesh = CubedSphere::new(8);
        for m in PartitionMethod::ALL {
            let p = partition_default(&mesh, m, 16).unwrap();
            assert_eq!(p.len(), 384);
            assert_eq!(p.nparts(), 16);
            let total: usize = p.part_sizes().iter().sum();
            assert_eq!(total, 384, "{m}");
        }
    }

    #[test]
    fn sfc_partition_is_exactly_balanced_on_divisors() {
        let mesh = CubedSphere::new(9); // K = 486, the m-Peano case
        for nproc in [2usize, 3, 6, 9, 27, 54, 162, 486] {
            let p = partition_default(&mesh, PartitionMethod::Sfc, nproc).unwrap();
            let sizes: Vec<u64> = p.part_sizes().iter().map(|&x| x as u64).collect();
            assert_eq!(load_balance(&sizes), 0.0, "nproc={nproc}");
        }
    }

    #[test]
    fn sfc_rejects_unsupported_ne() {
        let mesh = CubedSphere::new(7);
        let e = partition_default(&mesh, PartitionMethod::Sfc, 6).unwrap_err();
        assert!(matches!(e, PartitionError::Curve(_)));
        // But METIS-family methods still work — "both are retained in
        // SEAM" precisely because METIS has no size restriction.
        let p = partition_default(&mesh, PartitionMethod::MetisKway, 6).unwrap();
        assert_eq!(p.nparts(), 6);
    }

    #[test]
    fn processor_count_validation() {
        let mesh = CubedSphere::new(2);
        assert!(matches!(
            partition_default(&mesh, PartitionMethod::Sfc, 0),
            Err(PartitionError::ZeroParts)
        ));
        assert!(matches!(
            partition_default(&mesh, PartitionMethod::MetisRb, 25),
            Err(PartitionError::TooManyParts { .. })
        ));
    }

    #[test]
    fn weighted_options_flow_through() {
        let mesh = CubedSphere::new(4);
        let mut opts = PartitionOptions {
            weights: Some(vec![1.0; 96]),
            ..Default::default()
        };
        for m in [PartitionMethod::Sfc, PartitionMethod::MetisKway] {
            let p = partition(&mesh, m, 8, &opts).unwrap();
            assert_eq!(p.nparts(), 8);
        }
        opts.weights = Some(vec![1.0; 7]);
        assert!(partition(&mesh, PartitionMethod::MetisKway, 8, &opts).is_err());
        assert!(partition(&mesh, PartitionMethod::Sfc, 8, &opts).is_err());
    }

    #[test]
    fn non_finite_weights_rejected_on_every_method() {
        // The graph path used to clamp NaN to weight 1 (NaN.max(0.0) is
        // 0.0) and saturate +inf to u32::MAX — silently corrupting the
        // balance targets. Both must now fail with the distinct variant,
        // on the SFC path and the graph path alike.
        let mesh = CubedSphere::new(4);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut w = vec![1.0; 96];
            w[17] = bad;
            let opts = PartitionOptions {
                weights: Some(w),
                ..Default::default()
            };
            for m in PartitionMethod::ALL {
                if m == PartitionMethod::Rcb {
                    continue; // RCB ignores work weights entirely
                }
                let r = partition(&mesh, m, 8, &opts);
                assert_eq!(
                    r.unwrap_err(),
                    crate::PartitionError::NonFiniteWeight { index: 17 },
                    "method {m}, weight {bad}"
                );
            }
        }
    }

    #[test]
    fn vertex_weights_past_the_u32_sum_are_rejected_on_the_graph_methods() {
        // 3.0e8 is finite and accepted entry by entry (it saturates to
        // u32::MAX), but coarsening then added two such weights in u32:
        // a debug-build panic, a silent wrap in release.
        let mesh = CubedSphere::new(8);
        let opts = PartitionOptions {
            weights: Some(vec![3.0e8; 384]),
            ..Default::default()
        };
        for m in PartitionMethod::METIS {
            assert!(
                matches!(
                    partition(&mesh, m, 8, &opts),
                    Err(crate::PartitionError::BadWeights { .. })
                ),
                "method {m}"
            );
        }
        // The curve split works in f64 and keeps accepting them ...
        assert!(partition(&mesh, PartitionMethod::Sfc, 8, &opts).is_ok());
        // ... and the largest uniform weight whose scaled sum still fits
        // goes through every graph method.
        let fits = (((u32::MAX as u64 / 384) - 1) / 16) as f64;
        let opts = PartitionOptions {
            weights: Some(vec![fits; 384]),
            ..Default::default()
        };
        for m in PartitionMethod::METIS {
            let p = partition(&mesh, m, 8, &opts).unwrap();
            assert_eq!(p.nonempty_parts(), 8, "method {m}");
        }
    }

    #[test]
    fn partition_with_graph_matches_partition() {
        let mesh = CubedSphere::new(4);
        let g = mesh.dual_graph(Default::default());
        let opts = PartitionOptions::default();
        for m in PartitionMethod::ALL {
            let a = partition(&mesh, m, 8, &opts).unwrap();
            let b = partition_with_graph(&mesh, &g, m, 8, &opts).unwrap();
            assert_eq!(a, b, "{m}");
        }
        // Weighted graph path too: the cached adjacency is reused with
        // swapped vertex weights.
        let opts = PartitionOptions {
            weights: Some((0..96).map(|i| 1.0 + (i % 3) as f64).collect()),
            ..Default::default()
        };
        for m in [PartitionMethod::MetisKway, PartitionMethod::MetisRb] {
            let a = partition(&mesh, m, 8, &opts).unwrap();
            let b = partition_with_graph(&mesh, &g, m, 8, &opts).unwrap();
            assert_eq!(a, b, "{m}");
        }
    }

    #[test]
    fn labels_match_paper_table() {
        assert_eq!(PartitionMethod::Sfc.label(), "SFC");
        assert_eq!(PartitionMethod::MetisKway.label(), "KWAY");
        assert_eq!(PartitionMethod::MetisTv.label(), "TV");
        assert_eq!(PartitionMethod::MetisRb.label(), "RB");
    }

    #[test]
    fn morton_partitions_are_valid_but_less_compact() {
        let mesh = CubedSphere::new(8);
        let g = mesh.dual_graph(Default::default());
        let sfc = partition_default(&mesh, PartitionMethod::Sfc, 48).unwrap();
        let mor = partition_default(&mesh, PartitionMethod::Morton, 48).unwrap();
        let cut_sfc = cubesfc_graph::metrics::edgecut(&g, &sfc);
        let cut_mor = cubesfc_graph::metrics::edgecut(&g, &mor);
        assert!(
            cut_sfc <= cut_mor,
            "Hilbert segments should cut no more than Z-order: {cut_sfc} vs {cut_mor}"
        );
    }

    #[test]
    fn schedule_ablation_entry_point() {
        let sched = Schedule::hilbert_peano(1, 1).unwrap(); // Ne = 6
        let (mesh, p) = partition_sfc_with_schedule(&sched, 12).unwrap();
        assert_eq!(mesh.num_elems(), 216);
        assert_eq!(p.nparts(), 12);
    }
}
