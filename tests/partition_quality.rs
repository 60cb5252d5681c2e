//! Cross-crate integration: partition quality invariants on real
//! cubed-sphere meshes for every method.

use cubesfc::graph::metrics::{edgecut, load_balance, partition_stats};
use cubesfc::{partition_default, CubedSphere, PartitionMethod};
use std::sync::{RwLock, RwLockReadGuard};

/// The lock around the process-global obs registry. Every test here
/// partitions under a shared guard; the one test that switches the
/// registry on and pins its counters holds it exclusively, so no other
/// test's partitions land in its counts.
static OBS: RwLock<()> = RwLock::new(());

fn partitioning() -> RwLockReadGuard<'static, ()> {
    OBS.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn every_method_assigns_every_element_exactly_once() {
    let _shared = partitioning();
    let mesh = CubedSphere::new(6); // K = 216, Hilbert-Peano face
    for method in PartitionMethod::ALL {
        for nproc in [1usize, 4, 9, 27, 54] {
            let p = partition_default(&mesh, method, nproc).unwrap();
            assert_eq!(p.len(), 216);
            assert_eq!(p.part_sizes().iter().sum::<usize>(), 216, "{method}");
        }
    }
}

#[test]
fn sfc_parts_are_connected_on_the_sphere() {
    let _shared = partitioning();
    // A contiguous segment of a continuous curve is a connected set of
    // elements under edge adjacency.
    let mesh = CubedSphere::new(8);
    let topo = mesh.topology();
    for nproc in [2usize, 12, 48, 96] {
        let p = partition_default(&mesh, PartitionMethod::Sfc, nproc).unwrap();
        for (part, members) in p.part_members().iter().enumerate() {
            assert!(!members.is_empty());
            // BFS within the part.
            let inside: std::collections::HashSet<u32> = members.iter().copied().collect();
            let mut seen = std::collections::HashSet::new();
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(members[0]);
            seen.insert(members[0]);
            while let Some(e) = queue.pop_front() {
                for nb in topo.edge_neighbors(cubesfc::ElemId(e)) {
                    if inside.contains(&nb.elem.0) && seen.insert(nb.elem.0) {
                        queue.push_back(nb.elem.0);
                    }
                }
            }
            assert_eq!(
                seen.len(),
                members.len(),
                "nproc={nproc} part {part} disconnected"
            );
        }
    }
}

#[test]
fn sfc_balance_is_optimal_for_all_table1_divisors() {
    let _shared = partitioning();
    for res in cubesfc::table1() {
        let mesh = CubedSphere::new(res.ne);
        for nproc in res.equal_share_procs() {
            let p = partition_default(&mesh, PartitionMethod::Sfc, nproc).unwrap();
            let sizes: Vec<u64> = p.part_sizes().iter().map(|&s| s as u64).collect();
            assert_eq!(load_balance(&sizes), 0.0, "K={} nproc={nproc}", res.k);
        }
    }
}

#[test]
fn metis_methods_respect_their_tolerance() {
    let _shared = partitioning();
    let mesh = CubedSphere::new(8);
    let g = mesh.dual_graph(Default::default());
    for method in PartitionMethod::METIS {
        for nproc in [6usize, 24, 96, 384] {
            let p = partition_default(&mesh, method, nproc).unwrap();
            let target = 384 / nproc;
            let max = *p.part_weights(&g).iter().max().unwrap();
            // METIS convention: at most max(3% over, one extra element).
            let cap = ((target as f64 * 1.03).ceil() as u64).max(target as u64 + 1);
            assert!(max <= cap, "{method} nproc={nproc}: max {max} cap {cap}");
        }
    }
}

#[test]
fn kway_cuts_less_than_sfc_cuts() {
    let _shared = partitioning();
    // The trade the whole paper is about: KWAY wins edgecut, SFC wins
    // balance.
    let mesh = CubedSphere::new(16);
    let g = mesh.dual_graph(Default::default());
    for nproc in [24usize, 96, 384] {
        let sfc = partition_default(&mesh, PartitionMethod::Sfc, nproc).unwrap();
        let kw = partition_default(&mesh, PartitionMethod::MetisKway, nproc).unwrap();
        // At low processor counts Hilbert segments are near-optimal
        // squares, so allow the greedy KWAY a 10% slack there; it must
        // never be dramatically worse.
        assert!(
            edgecut(&g, &kw) as f64 <= edgecut(&g, &sfc) as f64 * 1.10,
            "nproc={nproc}: kway {} vs sfc {}",
            edgecut(&g, &kw),
            edgecut(&g, &sfc)
        );
        let s_sfc = partition_stats(&g, &sfc);
        let s_kw = partition_stats(&g, &kw);
        assert!(s_sfc.lb_nelemd <= s_kw.lb_nelemd);
    }
}

#[test]
fn unsupported_sizes_fall_back_to_metis_only() {
    let _shared = partitioning();
    // Ne = 14 = 2·7: outside even the extended curve family; the METIS
    // path must still work ("both are retained in SEAM").
    let mesh = CubedSphere::new(14);
    assert!(partition_default(&mesh, PartitionMethod::Sfc, 14).is_err());
    let p = partition_default(&mesh, PartitionMethod::MetisRb, 14).unwrap();
    assert_eq!(p.nonempty_parts(), 14);
}

#[test]
fn partitions_are_deterministic_across_calls() {
    let _shared = partitioning();
    let mesh = CubedSphere::new(8);
    for method in PartitionMethod::ALL {
        let a = partition_default(&mesh, method, 24).unwrap();
        let b = partition_default(&mesh, method, 24).unwrap();
        assert_eq!(a, b, "{method}");
    }
}

/// `(edgecut, time_us bits, lb_spcv bits, tcv_mbytes bits)` of a report.
fn quality_bits(ne: usize, method: PartitionMethod, nproc: usize) -> (u64, u64, u64, u64) {
    let mesh = CubedSphere::new(ne);
    let r = cubesfc::report::PartitionReport::compute(
        &mesh,
        method,
        nproc,
        &cubesfc::MachineModel::ncar_p690(),
        &cubesfc::CostModel::seam_climate(),
    )
    .unwrap();
    (
        r.edgecut,
        r.time_us.to_bits(),
        r.lb_spcv.to_bits(),
        r.tcv_mbytes.to_bits(),
    )
}

#[test]
fn report_quality_bits_are_pinned() {
    let _shared = partitioning();
    // The values the tree produced before the fused metrics sweep, the
    // arithmetic `Topology` and the single CSR type went in (PR 23): the
    // SFC reports of `big_sfc`'s smallest size and the paper's Table-2
    // cell. A refactor of metrics, topology or the dual graph must leave
    // every bit alone; only a deliberate quality change re-pins them.
    use PartitionMethod::{MetisKway, MetisRb, MetisTv, Sfc};
    #[rustfmt::skip]
    let pinned = [
        (48, Sfc, 6, (0x6a8, 0x414fbe722ead86f7, 0x0, 0x401316e371540032)),
        (48, Sfc, 96, (0x1fa4, 0x4110150ca99fe80e, 0x3fc71f0229d34a47, 0x40373b96af038e2a)),
        (48, Sfc, 768, (0x5214, 0x40e099def9ca0969, 0x3fc1bb9611a7b961, 0x404fed245b291b82)),
        (16, Sfc, 768, (0x14f4, 0x40b073b33f9fa92e, 0x3f42492492492492, 0x4031e19fc2a8869c)),
        (16, MetisKway, 768, (0x1269, 0x40b8e8b30da96ba1, 0x3fe0620d20d20d21, 0x40303736cdf266ba)),
        (16, MetisTv, 768, (0x128f, 0x40b8e8b30da96ba1, 0x3fe05e9069069069, 0x40303ad5bee3d5fe)),
        (16, MetisRb, 768, (0x138f, 0x40b92e6d6bdeab1e, 0x3fd0a2983759f22a, 0x40317f38c5436b90)),
    ];
    for (ne, method, nproc, want) in pinned {
        assert_eq!(
            quality_bits(ne, method, nproc),
            want,
            "Ne={ne} {method} nproc={nproc}"
        );
    }
}

/// FNV-1a over every graph cell (KWAY, TV, RB) of `paper_grid(max_points)`:
/// each cell's assignment words, then its `report.time_us` bits.
fn graph_grid_fingerprint(
    max_points: usize,
    exchange: cubesfc::mesh::ExchangeWeights,
    seed: u64,
    weight_of: Option<fn(usize) -> f64>,
) -> (usize, u64) {
    let machine = cubesfc::MachineModel::ncar_p690();
    let cost = cubesfc::CostModel::seam_climate();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64, bytes: usize| {
        for b in &word.to_le_bytes()[..bytes] {
            hash = (hash ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut cells = 0;
    let mut built: Option<(usize, CubedSphere, cubesfc::graph::CsrGraph)> = None;
    for cell in cubesfc::paper_grid(max_points) {
        if cell.method == PartitionMethod::Sfc {
            continue;
        }
        if built.as_ref().is_none_or(|(ne, _, _)| *ne != cell.ne) {
            let mesh = CubedSphere::new(cell.ne);
            let g = mesh.dual_graph(exchange);
            built = Some((cell.ne, mesh, g));
        }
        let (_, mesh, g) = built.as_ref().unwrap();
        let mut opts = cubesfc::PartitionOptions {
            exchange,
            weights: weight_of.map(|f| (0..mesh.num_elems()).map(f).collect()),
            ..Default::default()
        };
        opts.graph_config.seed = seed;
        let p = cubesfc::partition_with_graph(mesh, g, cell.method, cell.nproc, &opts).unwrap();
        let r = cubesfc::PartitionReport::from_partition_with_graph(
            g,
            cell.method,
            &p,
            &machine,
            &cost,
        );
        for &a in p.assignment() {
            eat(a as u64, 4);
        }
        eat(r.time_us.to_bits(), 8);
        cells += 1;
    }
    (cells, hash)
}

/// The guard rail of the FM / graph-growing / scratch rework (PR 24):
/// every multilevel partition of the paper grid, under every input shape
/// that reaches a different branch of the bisection machinery, hashed and
/// pinned to what the tree produced *before* that rework. A change to
/// `crates/graph` that is meant to keep partitions must leave every value
/// alone; only a deliberate quality change (ROADMAP item 1) re-pins them.
mod graph_fingerprint {
    use super::{graph_grid_fingerprint, partitioning, OBS};
    use cubesfc::mesh::ExchangeWeights;

    #[test]
    fn default_seed_full_grid() {
        let _shared = partitioning();
        assert_eq!(
            graph_grid_fingerprint(usize::MAX, ExchangeWeights::default(), 0x5EED, None),
            (207, 12396402889382892977)
        );
    }

    #[test]
    fn one_job_matches_default_jobs() {
        let _shared = partitioning();
        // Both halves in one test: `set_jobs` is process-global, and the
        // other tests of this binary do not care which value they see.
        let pooled = graph_grid_fingerprint(6, ExchangeWeights::default(), 0x5EED, None);
        cubesfc::set_jobs(1);
        let serial = graph_grid_fingerprint(6, ExchangeWeights::default(), 0x5EED, None);
        cubesfc::set_jobs(0);
        assert_eq!(pooled, (72, 4448211649226004680));
        assert_eq!(serial, pooled, "set_jobs(1)");
    }

    #[test]
    fn seed_1_full_grid() {
        let _shared = partitioning();
        assert_eq!(
            graph_grid_fingerprint(usize::MAX, ExchangeWeights::default(), 1, None),
            (207, 18242216872731176475)
        );
    }

    #[test]
    fn seed_42_full_grid() {
        let _shared = partitioning();
        assert_eq!(
            graph_grid_fingerprint(usize::MAX, ExchangeWeights::default(), 42, None),
            (207, 1287216411701474060)
        );
    }

    #[test]
    fn non_uniform_vertex_weights() {
        let _shared = partitioning();
        // Weights 1, 1.5, 2, 3.25 by element id: integer vwgt 17, 25, 33, 53.
        let w = |e: usize| [1.0, 1.5, 2.0, 3.25][(e * 7 + e / 5) % 4];
        assert_eq!(
            graph_grid_fingerprint(6, ExchangeWeights::default(), 0x5EED, Some(w)),
            (72, 16412202898634137761)
        );
    }

    #[test]
    fn zero_weight_corner_edges() {
        let _shared = partitioning();
        // `corner_points: 0` keeps the corner edges in the graph at weight
        // zero, so FM and `kway_refine` see zero-weight neighbours.
        let exchange = ExchangeWeights {
            corner_points: 0,
            ..Default::default()
        };
        assert_eq!(
            graph_grid_fingerprint(6, exchange, 0x5EED, None),
            (72, 7292690453941048302)
        );
    }

    #[test]
    fn initial_work_counts_on_the_thinned_grid() {
        // Exact work of greedy graph growing over the thinned grid, with
        // this test alone partitioning while the registry is on. A change
        // meant to keep partitions keeps the fingerprint; one meant to
        // save work shows it here in tries and passes.
        let _alone = OBS.write().unwrap_or_else(|poisoned| poisoned.into_inner());
        cubesfc::obs::set_enabled(true);
        cubesfc::obs::reset();
        let fingerprint = graph_grid_fingerprint(6, ExchangeWeights::default(), 0x5EED, None);
        let counters = cubesfc::obs::snapshot().counters;
        cubesfc::obs::set_enabled(false);
        cubesfc::obs::reset();
        assert_eq!(fingerprint, (72, 4448211649226004680));
        let count = |name: &str| counters.get(name).copied().unwrap_or(0);
        let counts = [
            count("initial/tries_grown"),
            count("initial/tries_polished"),
            count("initial/tries_duplicate"),
            count("initial/fm_passes"),
        ];
        // grown, polished, skipped as duplicates, FM passes of the polish.
        assert_eq!(counts, [58692, 44015, 14677, 78583]);
    }
}
