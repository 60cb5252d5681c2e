//! Cross-crate integration: partition quality invariants on real
//! cubed-sphere meshes for every method.

use cubesfc::graph::metrics::{edgecut, load_balance, partition_stats};
use cubesfc::{partition_default, CubedSphere, PartitionMethod};

#[test]
fn every_method_assigns_every_element_exactly_once() {
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
    // Ne = 14 = 2·7: outside even the extended curve family; the METIS
    // path must still work ("both are retained in SEAM").
    let mesh = CubedSphere::new(14);
    assert!(partition_default(&mesh, PartitionMethod::Sfc, 14).is_err());
    let p = partition_default(&mesh, PartitionMethod::MetisRb, 14).unwrap();
    assert_eq!(p.nonempty_parts(), 14);
}

#[test]
fn partitions_are_deterministic_across_calls() {
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
