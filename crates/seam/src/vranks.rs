//! Virtual ranks: the parallel mini-SEAM on threads + channels.
//!
//! Each partition part becomes a *virtual rank* running on its own thread
//! with its own element storage; ranks communicate only by message
//! passing (`std::sync::mpsc` channels), mirroring an MPI decomposition. Per RK
//! stage each rank computes its elements' right-hand sides, then performs
//! the distributed DSS: local partial sums for shared dofs are packed per
//! neighbour rank, exchanged, and combined. Wall-clock and per-rank
//! compute/wait times are measured so benchmarks can compare partitions
//! by *observed* cost, not just modelled cost.
//!
//! Both physics run on this one runtime — one rank loop, one halo
//! exchange — and differ only in their element kernels and in `nvar`, the
//! values per node a DSS message carries: `nlev` for advection
//! ([`run_parallel`]), the four prognostic fields for shallow water
//! ([`run_sw_parallel`]), batched into one message per neighbour as SEAM
//! batches its halo traffic (and as the cost model's `nvar = 4` assumes).

use crate::decomp::Decomposition;
use crate::dss::GlobalDofs;
use crate::field::Field;
use crate::gll::GllBasis;
use crate::metric::{elem_geometry_mapped, ElemGeometry};
use crate::shallow_water::{sw_elem_rhs, SwConfig, SwState};
use crate::solver::{rhs_kernel, AdvectionConfig};
use cubesfc_graph::{load_balance_f64, Partition};
use cubesfc_mesh::{ElemId, Topology};
use cubesfc_obs::Lane;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;

/// A halo message: partial DSS sums for the dofs shared between two ranks.
struct Msg {
    from: u32,
    seq: u64,
    data: Vec<f64>,
}

/// What each rank thread returns: the values of its elements (in the
/// order of [`Decomposition::elems_of_rank`]) and its measured compute /
/// communication seconds.
type RankResult = (Vec<f64>, f64, f64);

/// Timing results of a parallel run.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Wall-clock seconds for the whole run (all ranks).
    pub wall_seconds: f64,
    /// Per-rank seconds spent in element kernels and local assembly.
    pub per_rank_compute: Vec<f64>,
    /// Per-rank seconds spent packing, sending, and waiting for halos.
    pub per_rank_comm: Vec<f64>,
    /// Steps taken.
    pub steps: usize,
}

impl RunStats {
    /// Measured computational load balance: the paper's Eq. (1),
    /// `(max - avg) / max`, over [`RunStats::per_rank_compute`].
    /// Comparable with the *modelled* `LB(nelemd)` a partition report
    /// predicts from element counts.
    pub fn lb_compute(&self) -> f64 {
        load_balance_f64(&self.per_rank_compute)
    }

    /// Measured communication load balance: Eq. (1) over
    /// [`RunStats::per_rank_comm`].
    pub fn lb_comm(&self) -> f64 {
        load_balance_f64(&self.per_rank_comm)
    }

    /// One-line run summary exposing the measured load balance next to
    /// the wall-clock numbers.
    pub fn summary(&self) -> String {
        format!(
            "wall={:.3}s steps={} ranks={} LB(compute)={:.3} LB(comm)={:.3}",
            self.wall_seconds,
            self.steps,
            self.per_rank_compute.len(),
            self.lb_compute(),
            self.lb_comm()
        )
    }
}

/// Run the advection mini-app in parallel over the given element
/// partition; returns the final global field and timing statistics.
///
/// The result matches [`crate::solver::SerialSolver`] run with the same
/// configuration to floating-point reassociation accuracy.
pub fn run_parallel<F>(
    topo: &Topology,
    partition: &Partition,
    cfg: AdvectionConfig,
    steps: usize,
    init: F,
) -> (Field, RunStats)
where
    F: Fn([f64; 3]) -> f64 + Sync,
{
    let (data, stats) = run_ranks(topo, partition, &Advection { cfg, init }, steps);
    let field = Field {
        n: cfg.np,
        nlev: cfg.nlev,
        data,
    };
    (field, stats)
}

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
    let physics = ShallowWater { cfg, v_fn, h_fn };
    let (data, stats) = run_ranks(topo, partition, &physics, steps);
    let npts = cfg.np * cfg.np;
    let var = |c: usize| -> Vec<Vec<f64>> {
        let range = c * npts..(c + 1) * npts;
        data.iter().map(|qe| qe[range.clone()].to_vec()).collect()
    };
    let state = SwState {
        v: [var(0), var(1), var(2)],
        h: var(3),
    };
    (state, stats)
}

/// One physics on the rank runtime. A rank keeps its state in one buffer
/// of `nvar × npts` values per local element, variable-major, and every
/// method acts on all of the rank's elements (`geoms`, in local order).
trait Physics: Sync {
    /// GLL points per element edge.
    fn np(&self) -> usize;
    /// Values per node, and so per shared dof in a halo message.
    fn nvar(&self) -> usize;
    /// The geometry of global element `e` on the `ne`-subdivided sphere.
    fn geometry(&self, ne: usize, e: usize, basis: &GllBasis) -> ElemGeometry;
    /// Nodal initial values (projected by one DSS afterwards).
    fn initial(&self, geoms: &[ElemGeometry], q: &mut [f64]);
    /// Element right-hand sides of `q` into `out`, before DSS.
    fn rhs(&self, basis: &GllBasis, geoms: &[ElemGeometry], q: &[f64], out: &mut [f64]);
    /// SSP-RK3 stage `stage` (0, 1 or 2): update `q` from the step's
    /// initial state `q0` and the assembled right-hand side `l`, rounding
    /// exactly as the physics' serial solver does. (The third stage's
    /// `q0 / 3.0` and `1.0 / 3.0 * q0` differ in the last bit for about
    /// a third of all doubles.)
    fn stage(&self, stage: usize, q: &mut [f64], q0: &[f64], l: &[f64]);
    /// Applied after the initial projection and after every step.
    fn post_step(&self, _geoms: &[ElemGeometry], _q: &mut [f64]) {}
}

/// Spectral-element advection: `nlev` levels of one scalar per node.
struct Advection<F> {
    cfg: AdvectionConfig,
    init: F,
}

impl<F: Fn([f64; 3]) -> f64 + Sync> Physics for Advection<F> {
    fn np(&self) -> usize {
        self.cfg.np
    }

    fn nvar(&self) -> usize {
        self.cfg.nlev
    }

    fn geometry(&self, ne: usize, e: usize, basis: &GllBasis) -> ElemGeometry {
        let (omega, mapping) = (self.cfg.omega, self.cfg.mapping);
        elem_geometry_mapped(ne, ElemId(e as u32), basis, omega, mapping)
    }

    fn initial(&self, geoms: &[ElemGeometry], q: &mut [f64]) {
        let npts = self.cfg.np * self.cfg.np;
        for (g, qe) in geoms.iter().zip(q.chunks_exact_mut(self.cfg.nlev * npts)) {
            for (k, &p) in g.pos.iter().enumerate() {
                let v = (self.init)(p);
                for slab in qe.chunks_exact_mut(npts) {
                    slab[k] = v;
                }
            }
        }
    }

    fn rhs(&self, basis: &GllBasis, geoms: &[ElemGeometry], q: &[f64], out: &mut [f64]) {
        let elen = self.cfg.nlev * self.cfg.np * self.cfg.np;
        let elems = q.chunks_exact(elen).zip(out.chunks_exact_mut(elen));
        for (g, (qe, oe)) in geoms.iter().zip(elems) {
            rhs_kernel(basis, g, qe, oe);
        }
    }

    fn stage(&self, stage: usize, q: &mut [f64], q0: &[f64], l: &[f64]) {
        let dt = self.cfg.dt;
        let values = q.iter_mut().zip(q0).zip(l);
        match stage {
            0 => values.for_each(|((q, _), l)| *q += dt * l),
            1 => values.for_each(|((q, q0), l)| *q = 0.75 * q0 + 0.25 * (*q + dt * l)),
            _ => values.for_each(|((q, q0), l)| *q = q0 / 3.0 + 2.0 / 3.0 * (*q + dt * l)),
        }
    }
}

/// Shallow water: the four prognostic fields `[vx, vy, vz, h]` per node.
struct ShallowWater<FV, FH> {
    cfg: SwConfig,
    v_fn: FV,
    h_fn: FH,
}

impl<FV, FH> Physics for ShallowWater<FV, FH>
where
    FV: Fn([f64; 3]) -> [f64; 3] + Sync,
    FH: Fn([f64; 3]) -> f64 + Sync,
{
    fn np(&self) -> usize {
        self.cfg.np
    }

    fn nvar(&self) -> usize {
        4
    }

    fn geometry(&self, ne: usize, e: usize, basis: &GllBasis) -> ElemGeometry {
        elem_geometry_mapped(ne, ElemId(e as u32), basis, [0.0; 3], self.cfg.mapping)
    }

    fn initial(&self, geoms: &[ElemGeometry], q: &mut [f64]) {
        let npts = self.cfg.np * self.cfg.np;
        for (g, qe) in geoms.iter().zip(q.chunks_exact_mut(4 * npts)) {
            for (k, &p) in g.pos.iter().enumerate() {
                let v = (self.v_fn)(p);
                let vp = v[0] * p[0] + v[1] * p[1] + v[2] * p[2];
                for c in 0..3 {
                    qe[c * npts + k] = v[c] - vp * p[c];
                }
                qe[3 * npts + k] = (self.h_fn)(p);
            }
        }
    }

    fn rhs(&self, basis: &GllBasis, geoms: &[ElemGeometry], q: &[f64], out: &mut [f64]) {
        let npts = self.cfg.np * self.cfg.np;
        for ((g, qe), oe) in geoms
            .iter()
            .zip(q.chunks_exact(4 * npts))
            .zip(out.chunks_exact_mut(4 * npts))
        {
            let mut fields = qe.chunks_exact(npts);
            let mut outs = oe.chunks_exact_mut(npts);
            let fields = std::array::from_fn(|_| fields.next().unwrap());
            let outs = std::array::from_fn(|_| outs.next().unwrap());
            sw_elem_rhs(basis, g, &self.cfg, fields, outs);
        }
    }

    fn stage(&self, stage: usize, q: &mut [f64], q0: &[f64], l: &[f64]) {
        let dt = self.cfg.dt;
        let values = q.iter_mut().zip(q0).zip(l);
        match stage {
            0 => values.for_each(|((q, _), l)| *q += dt * l),
            1 => values.for_each(|((q, q0), l)| *q = 0.25 * (*q + dt * l) + 0.75 * q0),
            _ => values.for_each(|((q, q0), l)| *q = 2.0 / 3.0 * (*q + dt * l) + 1.0 / 3.0 * q0),
        }
    }

    /// Project the velocity back onto the sphere's tangent plane.
    fn post_step(&self, geoms: &[ElemGeometry], q: &mut [f64]) {
        let npts = self.cfg.np * self.cfg.np;
        for (g, qe) in geoms.iter().zip(q.chunks_exact_mut(4 * npts)) {
            for (k, p) in g.pos.iter().enumerate() {
                let vp = qe[k] * p[0] + qe[npts + k] * p[1] + qe[2 * npts + k] * p[2];
                for c in 0..3 {
                    qe[c * npts + k] -= vp * p[c];
                }
            }
        }
    }
}

/// Run `physics` for `steps` SSP-RK3 steps on one virtual rank per part.
/// Returns the gathered values of every global element and the timings.
fn run_ranks<P: Physics>(
    topo: &Topology,
    partition: &Partition,
    physics: &P,
    steps: usize,
) -> (Vec<Vec<f64>>, RunStats) {
    let nel = topo.num_elems();
    let nranks = partition.nparts();
    let basis = GllBasis::new(physics.np());
    let dofs = GlobalDofs::build(topo, physics.np());
    let decomp = Decomposition::build(partition, &dofs);

    // Each element's geometry is built once and moved to its rank; the
    // assembled mass is global and static, each rank reads what it needs.
    let mut geoms: Vec<Vec<ElemGeometry>> = (0..nranks).map(|_| Vec::new()).collect();
    let mut assembled_mass = vec![0.0f64; dofs.ndofs()];
    for e in 0..nel {
        let g = physics.geometry(topo.ne(), e, &basis);
        for (&id, &m) in dofs.ids(e).iter().zip(&g.mass) {
            assembled_mass[id as usize] += m;
        }
        geoms[decomp.rank_of_elem[e] as usize].push(g);
    }

    let (senders, receivers): (Vec<Sender<Msg>>, Vec<Receiver<Msg>>) =
        (0..nranks).map(|_| channel()).unzip();
    let wall_start = Instant::now();
    let results: Vec<RankResult> = std::thread::scope(|scope| {
        let (decomp, dofs, basis, assembled_mass) = (&decomp, &dofs, &basis, &assembled_mass);
        let handles: Vec<_> = receivers
            .into_iter()
            .zip(geoms)
            .enumerate()
            .map(|(rank, (rx, geoms))| {
                let senders = senders.clone();
                scope.spawn(move || {
                    if geoms.is_empty() {
                        // An unused part id: no elements, no halo, no work.
                        return (Vec::new(), 0.0, 0.0);
                    }
                    let halo = HaloExchange::new(
                        rank,
                        decomp,
                        dofs,
                        assembled_mass,
                        physics.nvar(),
                        rx,
                        senders,
                    );
                    rank_main(physics, basis, steps, &geoms, halo)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    });
    let wall_seconds = wall_start.elapsed().as_secs_f64();

    // Gather.
    let elen = physics.nvar() * physics.np() * physics.np();
    let mut global = vec![Vec::new(); nel];
    let mut per_rank_compute = Vec::with_capacity(nranks);
    let mut per_rank_comm = Vec::with_capacity(nranks);
    for ((q, tc, tm), elems) in results.into_iter().zip(&decomp.elems_of_rank) {
        for (&e, qe) in elems.iter().zip(q.chunks_exact(elen)) {
            global[e as usize] = qe.to_vec();
        }
        per_rank_compute.push(tc);
        per_rank_comm.push(tm);
    }

    let stats = RunStats {
        wall_seconds,
        per_rank_compute,
        per_rank_comm,
        steps,
    };
    // Microsecond histograms, so `--profile` captures the rank spread
    // without needing `--trace`.
    for &t in &stats.per_rank_compute {
        cubesfc_obs::histogram_record("vranks/compute_seconds_us", (t * 1e6) as u64);
    }
    for &t in &stats.per_rank_comm {
        cubesfc_obs::histogram_record("vranks/comm_seconds_us", (t * 1e6) as u64);
    }
    // Checked first: the `rank <r>` keys allocate.
    if cubesfc_obs::trace_enabled() {
        let gauges = [
            ("lb_compute", stats.lb_compute()),
            ("lb_comm", stats.lb_comm()),
            ("wall_seconds", stats.wall_seconds),
        ];
        let values = cubesfc_obs::counter_values(&gauges, &stats.per_rank_compute);
        cubesfc_obs::trace_counter("solver", &values);
    }
    (global, stats)
}

/// One rank's solve: initial projection, then SSP-RK3 steps, each stage
/// an element-kernel pass and one halo exchange.
fn rank_main<P: Physics>(
    physics: &P,
    basis: &GllBasis,
    steps: usize,
    geoms: &[ElemGeometry],
    mut halo: HaloExchange,
) -> RankResult {
    let len = geoms.len() * physics.nvar() * physics.np() * physics.np();
    let mut q = vec![0.0; len];
    physics.initial(geoms, &mut q);
    halo.dss(geoms, &mut q);
    physics.post_step(geoms, &mut q);

    let mut q0 = vec![0.0; len];
    let mut l = vec![0.0; len];
    for _ in 0..steps {
        q0.copy_from_slice(&q);
        for stage in 0..3 {
            let t0 = Instant::now();
            halo.lane
                .begin_with("compute", &[("elements", geoms.len() as u64)]);
            physics.rhs(basis, geoms, &q, &mut l);
            halo.lane.end();
            halo.t_compute += t0.elapsed().as_secs_f64();
            halo.dss(geoms, &mut l);
            physics.stage(stage, &mut q, &q0, &l);
        }
        physics.post_step(geoms, &mut q);
    }
    (q, halo.t_compute, halo.t_comm)
}

/// One rank's side of the distributed DSS: the local accumulator
/// numbering, the neighbour plan, the channels, and the rank's timers
/// and timeline rows.
struct HaloExchange {
    rank: u32,
    /// Values per node.
    nvar: usize,
    /// Nodes per element.
    npts: usize,
    /// Local accumulator of each node of each local element.
    acc_index: Vec<u32>,
    /// Assembled mass per local accumulator.
    acc_mass: Vec<f64>,
    /// Local accumulator of each entry of the plan's `shared_dofs`.
    shared_acc: Vec<u32>,
    /// Neighbour plans: `(rank, indices into shared_dofs)`.
    neighbors: Vec<(u32, Vec<u32>)>,
    /// Partial sums, `nvar` per accumulator.
    num: Vec<f64>,
    rx: Receiver<Msg>,
    senders: Vec<Sender<Msg>>,
    /// Out-of-order message stash.
    stash: HashMap<(u64, u32), Vec<f64>>,
    seq: u64,
    t_compute: f64,
    t_comm: f64,
    /// This virtual rank's timeline row (inert unless tracing is on).
    lane: Lane,
    /// The shared DSS-exchange timeline row.
    dss_lane: Lane,
}

impl HaloExchange {
    fn new(
        rank: usize,
        decomp: &Decomposition,
        dofs: &GlobalDofs,
        assembled_mass: &[f64],
        nvar: usize,
        rx: Receiver<Msg>,
        senders: Vec<Sender<Msg>>,
    ) -> HaloExchange {
        let plan = &decomp.plans[rank];
        // Local accumulator numbering over the dofs this rank touches, in
        // first-touch order (`u32::MAX`: not touched).
        let mut acc_of_dof = vec![u32::MAX; dofs.ndofs()];
        let mut acc_mass: Vec<f64> = Vec::new();
        let mut acc_index: Vec<u32> = Vec::new();
        for &e in &decomp.elems_of_rank[rank] {
            for &id in dofs.ids(e as usize) {
                let a = &mut acc_of_dof[id as usize];
                if *a == u32::MAX {
                    *a = acc_mass.len() as u32;
                    acc_mass.push(assembled_mass[id as usize]);
                }
                acc_index.push(*a);
            }
        }
        HaloExchange {
            rank: rank as u32,
            nvar,
            npts: dofs.n * dofs.n,
            acc_index,
            shared_acc: plan
                .shared_dofs
                .iter()
                .map(|&d| acc_of_dof[d as usize])
                .collect(),
            neighbors: plan.neighbors.clone(),
            num: vec![0.0; acc_mass.len() * nvar],
            acc_mass,
            rx,
            senders,
            stash: HashMap::new(),
            seq: 0,
            t_compute: 0.0,
            t_comm: 0.0,
            // Each virtual rank gets its own timeline row, named after the
            // *logical* rank — not the OS thread that simulated it.
            lane: cubesfc_obs::trace_lane(&format!("rank {rank}")),
            dss_lane: cubesfc_obs::trace_lane("dss"),
        }
    }

    /// Distributed mass-weighted DSS of the rank's elements `field`.
    fn dss(&mut self, geoms: &[ElemGeometry], field: &mut [f64]) {
        let (nvar, npts) = (self.nvar, self.npts);
        let t0 = Instant::now();
        // Local partial numerators.
        self.lane.begin("local_sum");
        self.num.fill(0.0);
        let elems = self.acc_index.chunks_exact(npts).zip(geoms);
        for ((acc, g), data) in elems.zip(field.chunks_exact(nvar * npts)) {
            for (v, slab) in data.chunks_exact(npts).enumerate() {
                for k in 0..npts {
                    self.num[acc[k] as usize * nvar + v] += g.mass[k] * slab[k];
                }
            }
        }
        self.lane.end();
        self.t_compute += t0.elapsed().as_secs_f64();

        // Exchange partials for shared dofs.
        let t1 = Instant::now();
        let seq = self.seq;
        self.seq += 1;
        let message_bytes = |idxs: &[u32]| (idxs.len() * nvar * std::mem::size_of::<f64>()) as u64;
        let bytes_out: u64 = self.neighbors.iter().map(|(_, i)| message_bytes(i)).sum();
        self.lane.begin_with("pack", &[("bytes", bytes_out)]);
        for (nbr, idxs) in &self.neighbors {
            let mut buf = Vec::with_capacity(idxs.len() * nvar);
            for &i in idxs {
                let a = self.shared_acc[i as usize] as usize;
                buf.extend_from_slice(&self.num[a * nvar..(a + 1) * nvar]);
            }
            let bytes = message_bytes(idxs);
            cubesfc_obs::counter_add("halo/messages", 1);
            cubesfc_obs::counter_add("halo/bytes_sent", bytes);
            cubesfc_obs::histogram_record("halo/message_bytes", bytes);
            let (from, to) = (self.rank as u64, *nbr as u64);
            self.dss_lane
                .instant("send", &[("from", from), ("to", to), ("bytes", bytes)]);
            let msg = Msg {
                from: self.rank,
                seq,
                data: buf,
            };
            self.senders[*nbr as usize].send(msg).expect("send failed");
        }
        self.lane.end();
        // Receive from every neighbour (possibly out of order).
        self.lane
            .begin_with("wait", &[("neighbors", self.neighbors.len() as u64)]);
        let mut bytes_in = 0u64;
        for (from, idxs) in &self.neighbors {
            let data = loop {
                if let Some(d) = self.stash.remove(&(seq, *from)) {
                    break d;
                }
                let msg = self.rx.recv().expect("recv failed");
                if msg.seq == seq && msg.from == *from {
                    break msg.data;
                }
                self.stash.insert((msg.seq, msg.from), msg.data);
            };
            bytes_in += message_bytes(idxs);
            // Accumulate the partials.
            for (j, &i) in idxs.iter().enumerate() {
                let a = self.shared_acc[i as usize] as usize;
                for v in 0..nvar {
                    self.num[a * nvar + v] += data[j * nvar + v];
                }
            }
        }
        self.lane.end();
        self.lane.instant("recv", &[("bytes", bytes_in)]);
        self.t_comm += t1.elapsed().as_secs_f64();

        // Scatter averaged values back.
        let t2 = Instant::now();
        self.lane.begin("scatter");
        let elems = self.acc_index.chunks_exact(npts);
        for (acc, data) in elems.zip(field.chunks_exact_mut(nvar * npts)) {
            for (v, slab) in data.chunks_exact_mut(npts).enumerate() {
                for k in 0..npts {
                    let a = acc[k] as usize;
                    slab[k] = self.num[a * nvar + v] / self.acc_mass[a];
                }
            }
        }
        self.lane.end();
        self.t_compute += t2.elapsed().as_secs_f64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shallow_water::{tc2_initial, SwSolver};
    use crate::solver::{gaussian_blob, SerialSolver};
    use cubesfc_graph::Partition;

    fn block_partition(k: usize, nparts: usize) -> Partition {
        Partition::new(nparts, (0..k).map(|e| ((e * nparts) / k) as u32).collect())
    }

    #[test]
    fn parallel_matches_serial_single_rank() {
        let ne = 2;
        let topo = Topology::build(ne);
        let cfg = AdvectionConfig::stable_for(ne, 4, 1);
        let ic = gaussian_blob([1.0, 0.0, 0.0], 0.6);
        let mut serial = SerialSolver::new(&topo, cfg);
        serial.set_initial(&ic);
        serial.run(3);
        let (par, stats) = run_parallel(&topo, &block_partition(24, 1), cfg, 3, &ic);
        assert!(serial.q.max_abs_diff(&par) < 1e-13);
        assert_eq!(stats.steps, 3);
        assert_eq!(stats.per_rank_comm.len(), 1);
    }

    #[test]
    fn parallel_matches_serial_multi_rank() {
        let ne = 2;
        let topo = Topology::build(ne);
        let cfg = AdvectionConfig::stable_for(ne, 5, 2);
        let ic = gaussian_blob([0.0, 1.0, 0.0], 0.5);
        let mut serial = SerialSolver::new(&topo, cfg);
        serial.set_initial(&ic);
        serial.run(4);
        for nranks in [2usize, 3, 4, 6] {
            let (par, _) = run_parallel(&topo, &block_partition(24, nranks), cfg, 4, &ic);
            let diff = serial.q.max_abs_diff(&par);
            assert!(diff < 1e-12, "nranks={nranks}: parallel deviates by {diff}");
        }
    }

    #[test]
    fn parallel_with_sfc_partition_matches_too() {
        use cubesfc_mesh::CubedSphere;
        let ne = 2;
        let mesh = CubedSphere::new(ne);
        let curve = mesh.curve().unwrap();
        // 4 contiguous curve segments.
        let mut assign = vec![0u32; 24];
        for (r, e) in curve.iter().enumerate() {
            assign[e.index()] = (r * 4 / 24) as u32;
        }
        let part = Partition::new(4, assign);
        let topo = mesh.topology();
        let cfg = AdvectionConfig::stable_for(ne, 4, 1);
        let ic = gaussian_blob([0.0, 0.0, 1.0], 0.7);
        let mut serial = SerialSolver::new(topo, cfg);
        serial.set_initial(&ic);
        serial.run(3);
        let (par, stats) = run_parallel(topo, &part, cfg, 3, &ic);
        assert!(serial.q.max_abs_diff(&par) < 1e-12);
        assert!(stats.wall_seconds > 0.0);
    }

    #[test]
    fn stats_have_sane_shapes() {
        let ne = 2;
        let topo = Topology::build(ne);
        let cfg = AdvectionConfig::stable_for(ne, 4, 1);
        let (_, stats) = run_parallel(&topo, &block_partition(24, 3), cfg, 2, |_| 1.0);
        assert_eq!(stats.per_rank_compute.len(), 3);
        assert_eq!(stats.per_rank_comm.len(), 3);
        assert!(stats.per_rank_compute.iter().all(|&t| t >= 0.0));
        let summary = stats.summary();
        assert!(summary.contains("ranks=3"), "{summary}");
        assert!(summary.contains("LB(compute)="), "{summary}");
    }

    #[test]
    fn measured_lb_never_leaks_nan() {
        // A NaN timing is invisible to `f64::max` but poisons the sum;
        // Eq. (1) stays over the finite ranks, so summaries stay
        // printable numbers even with a corrupted measurement.
        let stats = RunStats {
            wall_seconds: 1.0,
            per_rank_compute: vec![2.0, f64::NAN, 1.0, 1.0],
            per_rank_comm: vec![f64::NAN; 4],
            steps: 1,
        };
        assert!((stats.lb_compute() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(stats.lb_comm(), 0.0);
        assert!(!stats.summary().contains("NaN"), "{}", stats.summary());
    }

    #[test]
    fn skewed_partition_has_worse_measured_lb_than_sfc() {
        use cubesfc_mesh::CubedSphere;
        let ne = 2;
        let mesh = CubedSphere::new(ne);
        let topo = mesh.topology();
        let k = mesh.num_elems();
        let cfg = AdvectionConfig::stable_for(ne, 4, 4);
        let ic = gaussian_blob([1.0, 0.0, 0.0], 0.5);

        // SFC partition: two contiguous 12-element curve segments.
        let curve = mesh.curve().unwrap();
        let mut sfc_assign = vec![0u32; k];
        for (r, e) in curve.iter().enumerate() {
            sfc_assign[e.index()] = ((r * 2) / k) as u32;
        }
        let sfc = Partition::new(2, sfc_assign);

        // Deliberately skewed: rank 0 owns 22 elements, rank 1 owns 2.
        let skew_assign: Vec<u32> = (0..k).map(|e| u32::from(e >= k - 2)).collect();
        let skewed = Partition::new(2, skew_assign);

        let (_, sfc_stats) = run_parallel(topo, &sfc, cfg, 4, &ic);
        let (_, skew_stats) = run_parallel(topo, &skewed, cfg, 4, &ic);
        assert!(
            skew_stats.lb_compute() > sfc_stats.lb_compute(),
            "skewed LB {:.3} should exceed SFC LB {:.3}",
            skew_stats.lb_compute(),
            sfc_stats.lb_compute()
        );
        // 22-vs-2 elements: the measured imbalance is structural, not
        // scheduler noise — Eq. (1) predicts (22 - 12) / 22 ≈ 0.45.
        assert!(
            skew_stats.lb_compute() > 0.2,
            "skewed LB {:.3} too small",
            skew_stats.lb_compute()
        );
    }

    #[test]
    fn parallel_run_populates_rank_and_dss_lanes() {
        let ne = 2;
        let topo = Topology::build(ne);
        let cfg = AdvectionConfig::stable_for(ne, 4, 1);
        cubesfc_obs::set_trace_enabled(true);
        let (_, _) = run_parallel(&topo, &block_partition(24, 3), cfg, 1, |_| 1.0);
        cubesfc_obs::set_trace_enabled(false);
        let lanes = cubesfc_obs::tracer().lane_names();
        for want in ["rank 0", "rank 1", "rank 2", "dss"] {
            assert!(
                lanes.iter().any(|l| l == want),
                "missing lane {want:?} in {lanes:?}"
            );
        }
        let events = cubesfc_obs::tracer().events();
        let begins: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == cubesfc_obs::EventKind::Begin)
            .map(|e| e.name.as_str())
            .collect();
        for phase in ["compute", "local_sum", "pack", "wait", "scatter"] {
            assert!(begins.contains(&phase), "missing {phase:?} slices");
        }
        cubesfc_obs::tracer().reset();
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

    #[test]
    fn an_unused_part_id_is_an_idle_rank() {
        // KWAY can leave parts empty; their ranks own no elements, send
        // and receive nothing, and must not disturb the answer.
        let ne = 2;
        let topo = Topology::build(ne);
        let part = Partition::new(4, (0..24).map(|e| [0, 1, 3][e * 3 / 24]).collect());

        let cfg = AdvectionConfig::stable_for(ne, 4, 2);
        let ic = gaussian_blob([0.0, 1.0, 0.0], 0.5);
        let mut serial = SerialSolver::new(&topo, cfg);
        serial.set_initial(&ic);
        serial.run(2);
        let (par, adv) = run_parallel(&topo, &part, cfg, 2, &ic);
        assert!(serial.q.max_abs_diff(&par) < 1e-12);

        let cfg = SwConfig::test_case_2(ne, 4);
        let (v0, h0) = tc2_initial(1.0, 2.5, cfg.omega, cfg.gravity);
        let mut serial = SwSolver::new(&topo, cfg);
        serial.set_initial(&v0, &h0);
        serial.run(2);
        let (par, sw) = run_sw_parallel(&topo, &part, cfg, 2, &v0, &h0);
        assert!(serial.state.max_abs_diff(&par) < 1e-12);

        for stats in [adv, sw] {
            assert_eq!(stats.per_rank_compute.len(), 4);
            assert_eq!(stats.per_rank_comm.len(), 4);
            assert_eq!(
                (stats.per_rank_compute[2], stats.per_rank_comm[2]),
                (0.0, 0.0)
            );
            assert!(stats.per_rank_compute[3] > 0.0);
        }
    }
}
