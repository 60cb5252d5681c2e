//! The shallow water solver over virtual ranks.
//!
//! Same machinery as [`crate::vranks`] — one thread per partition part,
//! channel-only communication, per-stage distributed DSS — but for the
//! four-field shallow water state. Per stage each rank exchanges the
//! partial sums of *all four* prognostic fields in a single aggregated
//! message per neighbour, exactly how SEAM batches its halo traffic (and
//! what the cost model's `nvar = 4` assumes).

use crate::decomp::Decomposition;
use crate::dss::{Assembler, GlobalDofs};
use crate::gll::GllBasis;
use crate::metric::{elem_geometry_mapped, ElemGeometry};
use crate::shallow_water::{SwConfig, SwState};
use crossbeam::channel::{unbounded, Receiver, Sender};
use cubesfc_graph::Partition;
use cubesfc_mesh::{ElemId, Topology};
use cubesfc_obs::Lane;
use std::collections::HashMap;
use std::time::Instant;

/// What each rank thread returns: its owned dof ids, the per-level nodal
/// values, and its measured compute / wait seconds.
type RankResult = (Vec<u32>, Vec<Vec<f64>>, f64, f64);

/// Number of prognostic fields exchanged per stage.
const NFIELDS: usize = 4;

struct Msg {
    from: u32,
    seq: u64,
    data: Vec<f64>,
}

/// Timing results (same shape as [`crate::vranks::RunStats`]).
pub use crate::vranks::RunStats;

/// Run the shallow water solver in parallel over an element partition.
///
/// Returns the final *global* state (gathered) and per-rank timings. The
/// result matches [`crate::shallow_water::SwSolver`] to floating-point
/// reassociation accuracy.
pub fn run_sw_parallel<FV, FH>(
    topo: &Topology,
    partition: &Partition,
    cfg: SwConfig,
    steps: usize,
    v_fn: FV,
    h_fn: FH,
) -> (SwState, RunStats)
where
    FV: Fn([f64; 3]) -> [f64; 3] + Sync,
    FH: Fn([f64; 3]) -> f64 + Sync,
{
    let nel = topo.num_elems();
    assert_eq!(partition.len(), nel, "partition/mesh size mismatch");
    let nranks = partition.nparts();
    let basis = GllBasis::new(cfg.np);
    let dofs = GlobalDofs::build(topo, cfg.np);

    let masses: Vec<Vec<f64>> = (0..nel)
        .map(|e| {
            elem_geometry_mapped(topo.ne(), ElemId(e as u32), &basis, [0.0; 3], cfg.mapping).mass
        })
        .collect();
    let assembler = Assembler::new(GlobalDofs::build(topo, cfg.np), &masses, 1);
    let assembled_mass: Vec<f64> = assembler.assembled_mass().to_vec();

    let decomp = Decomposition::build(partition, &dofs);

    let mut senders: Vec<Sender<Msg>> = Vec::with_capacity(nranks);
    let mut receivers: Vec<Option<Receiver<Msg>>> = Vec::with_capacity(nranks);
    for _ in 0..nranks {
        let (s, r) = unbounded();
        senders.push(s);
        receivers.push(Some(r));
    }

    let wall_start = Instant::now();
    let npts = cfg.np * cfg.np;
    let mut results: Vec<Option<RankResult>> = vec![None; nranks];

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nranks);
        for (rank, recv) in receivers.iter_mut().enumerate() {
            let rx = recv.take().unwrap();
            let senders = senders.clone();
            let decomp = &decomp;
            let dofs = &dofs;
            let basis = &basis;
            let assembled_mass = &assembled_mass;
            let v_fn = &v_fn;
            let h_fn = &h_fn;
            let ne = topo.ne();
            handles.push(scope.spawn(move || {
                sw_rank_main(
                    rank,
                    ne,
                    cfg,
                    steps,
                    decomp,
                    dofs,
                    basis,
                    assembled_mass,
                    rx,
                    senders,
                    v_fn,
                    h_fn,
                )
            }));
        }
        for (rank, h) in handles.into_iter().enumerate() {
            results[rank] = Some(h.join().expect("rank thread panicked"));
        }
    });
    let wall_seconds = wall_start.elapsed().as_secs_f64();

    // Gather: rank data is [field][local elem] flattened as 4 consecutive
    // blocks of local-element vectors.
    let mut state = SwState {
        v: [
            vec![vec![0.0; npts]; nel],
            vec![vec![0.0; npts]; nel],
            vec![vec![0.0; npts]; nel],
        ],
        h: vec![vec![0.0; npts]; nel],
    };
    let mut per_rank_compute = vec![0.0; nranks];
    let mut per_rank_comm = vec![0.0; nranks];
    for (rank, res) in results.into_iter().enumerate() {
        let (elems, flat, tc, tm) = res.unwrap();
        let nl = elems.len();
        for (slot, &e) in elems.iter().enumerate() {
            for c in 0..3 {
                state.v[c][e as usize] = flat[c * nl + slot].clone();
            }
            state.h[e as usize] = flat[3 * nl + slot].clone();
        }
        per_rank_compute[rank] = tc;
        per_rank_comm[rank] = tm;
    }

    let stats = RunStats {
        wall_seconds,
        per_rank_compute,
        per_rank_comm,
        steps,
    };
    stats.record_histograms();
    (state, stats)
}

/// One rank's shallow water solve over its local elements.
#[allow(clippy::too_many_arguments)]
fn sw_rank_main<FV, FH>(
    rank: usize,
    ne: usize,
    cfg: SwConfig,
    steps: usize,
    decomp: &Decomposition,
    dofs: &GlobalDofs,
    basis: &GllBasis,
    assembled_mass: &[f64],
    rx: Receiver<Msg>,
    senders: Vec<Sender<Msg>>,
    v_fn: &FV,
    h_fn: &FH,
) -> (Vec<u32>, Vec<Vec<f64>>, f64, f64)
where
    FV: Fn([f64; 3]) -> [f64; 3] + Sync,
    FH: Fn([f64; 3]) -> f64 + Sync,
{
    let elems = decomp.elems_of_rank[rank].clone();
    let plan = &decomp.plans[rank];
    let n = cfg.np;
    let npts = n * n;
    let nl = elems.len();
    let lane: Lane = cubesfc_obs::trace_lane(&format!("rank {rank}"));
    let dss_lane: Lane = cubesfc_obs::trace_lane("dss");

    let geoms: Vec<ElemGeometry> = elems
        .iter()
        .map(|&e| elem_geometry_mapped(ne, ElemId(e), basis, [0.0; 3], cfg.mapping))
        .collect();

    // Local accumulator numbering (as in vranks).
    let mut acc_of_dof: HashMap<u32, u32> = HashMap::new();
    let mut acc_mass: Vec<f64> = Vec::new();
    let mut acc_index: Vec<Vec<u32>> = Vec::with_capacity(nl);
    for &e in &elems {
        let ids = dofs.ids(e as usize);
        let mut loc = Vec::with_capacity(npts);
        for &id in ids {
            let next = acc_of_dof.len() as u32;
            let a = *acc_of_dof.entry(id).or_insert(next);
            if a as usize == acc_mass.len() {
                acc_mass.push(assembled_mass[id as usize]);
            }
            loc.push(a);
        }
        acc_index.push(loc);
    }
    let shared_acc: Vec<u32> = plan.shared_dofs.iter().map(|d| acc_of_dof[d]).collect();
    let nacc = acc_mass.len();

    // State: [vx, vy, vz, h] per local element.
    let mut fields: [Vec<Vec<f64>>; NFIELDS] = [
        vec![vec![0.0; npts]; nl],
        vec![vec![0.0; npts]; nl],
        vec![vec![0.0; npts]; nl],
        vec![vec![0.0; npts]; nl],
    ];
    for (slot, g) in geoms.iter().enumerate() {
        for (k, &p) in g.pos.iter().enumerate().take(npts) {
            let v = v_fn(p);
            let vp = v[0] * p[0] + v[1] * p[1] + v[2] * p[2];
            for c in 0..3 {
                fields[c][slot][k] = v[c] - vp * p[c];
            }
            fields[3][slot][k] = h_fn(p);
        }
    }

    let mut t_compute = 0.0f64;
    let mut t_comm = 0.0f64;
    let mut seq = 0u64;
    let mut stash: HashMap<(u64, u32), Vec<f64>> = HashMap::new();
    let mut num = vec![0.0f64; nacc * NFIELDS];

    // Shared DSS routine over all four fields at once.
    let dss_all = |fields: &mut [Vec<Vec<f64>>; NFIELDS],
                   num: &mut Vec<f64>,
                   seq: &mut u64,
                   stash: &mut HashMap<(u64, u32), Vec<f64>>,
                   t_compute: &mut f64,
                   t_comm: &mut f64| {
        let t0 = Instant::now();
        lane.begin("local_sum");
        num.iter_mut().for_each(|x| *x = 0.0);
        for (slot, acc) in acc_index.iter().enumerate() {
            let mass = &geoms[slot].mass;
            for (f, field) in fields.iter().enumerate() {
                let data = &field[slot];
                for k in 0..npts {
                    num[acc[k] as usize * NFIELDS + f] += mass[k] * data[k];
                }
            }
        }
        lane.end();
        *t_compute += t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let this_seq = *seq;
        *seq += 1;
        let bytes_out: u64 = plan
            .neighbors
            .iter()
            .map(|(_, idxs)| (idxs.len() * NFIELDS * 8) as u64)
            .sum();
        lane.begin_with("pack", &[("bytes", bytes_out)]);
        for (nbr, idxs) in &plan.neighbors {
            let mut buf = Vec::with_capacity(idxs.len() * NFIELDS);
            for &i in idxs {
                let a = shared_acc[i as usize] as usize;
                buf.extend_from_slice(&num[a * NFIELDS..(a + 1) * NFIELDS]);
            }
            dss_lane.instant(
                "send",
                &[
                    ("from", rank as u64),
                    ("to", *nbr as u64),
                    ("bytes", (buf.len() * 8) as u64),
                ],
            );
            senders[*nbr as usize]
                .send(Msg {
                    from: rank as u32,
                    seq: this_seq,
                    data: buf,
                })
                .expect("send failed");
        }
        lane.end();
        let expected: Vec<u32> = plan.neighbors.iter().map(|(r, _)| *r).collect();
        lane.begin_with("wait", &[("neighbors", expected.len() as u64)]);
        let mut bytes_in = 0u64;
        for &from in &expected {
            let data = loop {
                if let Some(d) = stash.remove(&(this_seq, from)) {
                    break d;
                }
                let msg = rx.recv().expect("recv failed");
                if msg.seq == this_seq && msg.from == from {
                    break msg.data;
                }
                stash.insert((msg.seq, msg.from), msg.data);
            };
            bytes_in += (data.len() * 8) as u64;
            let idxs = &plan.neighbors.iter().find(|(r, _)| *r == from).unwrap().1;
            for (j, &i) in idxs.iter().enumerate() {
                let a = shared_acc[i as usize] as usize;
                for f in 0..NFIELDS {
                    num[a * NFIELDS + f] += data[j * NFIELDS + f];
                }
            }
        }
        lane.end();
        lane.instant("recv", &[("bytes", bytes_in)]);
        *t_comm += t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        lane.begin("scatter");
        for (slot, acc) in acc_index.iter().enumerate() {
            for (f, field) in fields.iter_mut().enumerate() {
                let data = &mut field[slot];
                for k in 0..npts {
                    let a = acc[k] as usize;
                    data[k] = num[a * NFIELDS + f] / acc_mass[a];
                }
            }
        }
        lane.end();
        *t_compute += t2.elapsed().as_secs_f64();
    };

    let project_tangent = |fields: &mut [Vec<Vec<f64>>; NFIELDS], geoms: &[ElemGeometry]| {
        for (slot, g) in geoms.iter().enumerate() {
            for (k, &p) in g.pos.iter().enumerate().take(npts) {
                let vp = fields[0][slot][k] * p[0]
                    + fields[1][slot][k] * p[1]
                    + fields[2][slot][k] * p[2];
                for c in 0..3 {
                    fields[c][slot][k] -= vp * p[c];
                }
            }
        }
    };

    // Initial projection.
    dss_all(
        &mut fields,
        &mut num,
        &mut seq,
        &mut stash,
        &mut t_compute,
        &mut t_comm,
    );
    project_tangent(&mut fields, &geoms);

    // Local RHS (mirrors the serial solver's per-element kernel).
    let rhs_local = |fields: &[Vec<Vec<f64>>; NFIELDS],
                     out: &mut [Vec<Vec<f64>>; NFIELDS],
                     t_compute: &mut f64| {
        let t0 = Instant::now();
        lane.begin_with("compute", &[("elements", nl as u64)]);
        let mut dr = vec![0.0f64; npts];
        let mut ds = vec![0.0f64; npts];
        let mut fr = vec![0.0f64; npts];
        let mut fs = vec![0.0f64; npts];
        let mut vr = vec![0.0f64; npts];
        let mut vs = vec![0.0f64; npts];
        for (slot, g) in geoms.iter().enumerate() {
            for k in 0..npts {
                let v = [fields[0][slot][k], fields[1][slot][k], fields[2][slot][k]];
                vr[k] = v[0] * g.erd[k][0] + v[1] * g.erd[k][1] + v[2] * g.erd[k][2];
                vs[k] = v[0] * g.esd[k][0] + v[1] * g.esd[k][1] + v[2] * g.esd[k][2];
            }
            {
                let (ov, oh) = out.split_at_mut(3);
                let _ = &oh;
                let (ovx, rest) = ov.split_at_mut(1);
                let (ovy, ovz) = rest.split_at_mut(1);
                crate::shallow_water::sw_momentum_kernel(
                    basis,
                    g,
                    &fields[0][slot],
                    &fields[1][slot],
                    &fields[2][slot],
                    &fields[3][slot],
                    &vr,
                    &vs,
                    cfg.omega,
                    cfg.gravity,
                    &mut dr,
                    &mut ds,
                    &mut ovx[0][slot],
                    &mut ovy[0][slot],
                    &mut ovz[0][slot],
                );
            }
            // Continuity.
            for k in 0..npts {
                fr[k] = g.jac[k] * fields[3][slot][k] * vr[k];
                fs[k] = g.jac[k] * fields[3][slot][k] * vs[k];
            }
            crate::shallow_water::tensor_dr(basis, &fr, &mut dr);
            crate::shallow_water::tensor_ds(basis, &fs, &mut ds);
            for k in 0..npts {
                out[3][slot][k] = -(dr[k] + ds[k]) / g.jac[k];
            }
        }
        lane.end();
        *t_compute += t0.elapsed().as_secs_f64();
    };

    let dt = cfg.dt;
    for _ in 0..steps {
        let s0 = fields.clone();
        let mut r: [Vec<Vec<f64>>; NFIELDS] = [
            vec![vec![0.0; npts]; nl],
            vec![vec![0.0; npts]; nl],
            vec![vec![0.0; npts]; nl],
            vec![vec![0.0; npts]; nl],
        ];
        for stage in 0..3 {
            rhs_local(&fields, &mut r, &mut t_compute);
            dss_all(
                &mut r,
                &mut num,
                &mut seq,
                &mut stash,
                &mut t_compute,
                &mut t_comm,
            );
            for f in 0..NFIELDS {
                for (ye, xe) in fields[f].iter_mut().zip(&r[f]) {
                    for (y, x) in ye.iter_mut().zip(xe) {
                        *y += dt * x;
                    }
                }
            }
            // SSP-RK3 combinations.
            let (cy, cx) = match stage {
                0 => (1.0, 0.0),
                1 => (0.25, 0.75),
                _ => (2.0 / 3.0, 1.0 / 3.0),
            };
            if stage > 0 {
                for f in 0..NFIELDS {
                    for (ye, xe) in fields[f].iter_mut().zip(&s0[f]) {
                        for (y, x) in ye.iter_mut().zip(xe) {
                            *y = cy * *y + cx * x;
                        }
                    }
                }
            }
        }
        project_tangent(&mut fields, &geoms);
    }

    // Flatten: [vx elems..][vy..][vz..][h..].
    let mut flat = Vec::with_capacity(NFIELDS * nl);
    for f in fields {
        flat.extend(f);
    }
    (elems, flat, t_compute, t_comm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shallow_water::{tc2_initial, SwSolver};

    fn block_partition(k: usize, nparts: usize) -> Partition {
        Partition::new(nparts, (0..k).map(|e| ((e * nparts) / k) as u32).collect())
    }

    #[test]
    fn parallel_sw_matches_serial() {
        let ne = 2;
        let topo = Topology::build(ne);
        let cfg = SwConfig::test_case_2(ne, 4);
        let (v0, h0) = tc2_initial(1.0, 2.5, cfg.omega, cfg.gravity);

        let mut serial = SwSolver::new(&topo, cfg);
        serial.set_initial(&v0, &h0);
        serial.run(3);

        for nranks in [1usize, 2, 4, 6] {
            let (par, stats) =
                run_sw_parallel(&topo, &block_partition(24, nranks), cfg, 3, &v0, &h0);
            let diff = serial.state.max_abs_diff(&par);
            assert!(diff < 1e-12, "nranks={nranks}: deviates by {diff}");
            assert_eq!(stats.per_rank_comm.len(), nranks);
        }
    }

    #[test]
    fn parallel_sw_matches_serial_under_equiangular_mapping() {
        use cubesfc_mesh::Mapping;
        let ne = 2;
        let topo = Topology::build(ne);
        let cfg = SwConfig::test_case_2(ne, 4).with_mapping(Mapping::Equiangular);
        let (v0, h0) = tc2_initial(0.9, 2.5, cfg.omega, cfg.gravity);
        let mut serial = SwSolver::new(&topo, cfg);
        serial.set_initial(&v0, &h0);
        serial.run(3);
        let (par, _) = run_sw_parallel(&topo, &block_partition(24, 4), cfg, 3, &v0, &h0);
        let diff = serial.state.max_abs_diff(&par);
        assert!(diff < 1e-12, "equiangular parallel deviates by {diff}");
    }

    #[test]
    fn parallel_sw_with_sfc_partition() {
        use cubesfc_mesh::CubedSphere;
        let ne = 3;
        let mesh = CubedSphere::new(ne);
        let topo = mesh.topology();
        let cfg = SwConfig::test_case_2(ne, 4);
        let (v0, h0) = tc2_initial(0.8, 2.5, cfg.omega, cfg.gravity);

        let mut serial = SwSolver::new(topo, cfg);
        serial.set_initial(&v0, &h0);
        serial.run(2);

        let curve = mesh.curve().unwrap();
        let k = mesh.num_elems();
        let mut assign = vec![0u32; k];
        for (r, e) in curve.iter().enumerate() {
            assign[e.index()] = ((r * 6) / k) as u32;
        }
        let part = Partition::new(6, assign);
        let (par, _) = run_sw_parallel(topo, &part, cfg, 2, &v0, &h0);
        assert!(serial.state.max_abs_diff(&par) < 1e-12);
    }
}
