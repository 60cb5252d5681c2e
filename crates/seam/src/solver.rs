//! The serial mini-SEAM: spectral-element advection on the cubed-sphere.
//!
//! Solves the flux-form transport equation
//! `∂q/∂t = −(1/J) [ ∂r (J u^r q) + ∂s (J u^s q) ]`
//! for a solid-body-rotation wind, with SSP-RK3 time stepping and
//! pointwise DSS after every right-hand-side evaluation. Structurally this
//! is the code path whose cost the paper's partitions optimize: dense
//! tensor-product kernels per element per level, plus shared-boundary
//! exchange.

use crate::dss::{Assembler, GlobalDofs};
use crate::field::Field;
use crate::gll::{tensor_derivs, with_np, GllBasis};
use crate::metric::{elem_geometry_mapped, ElemGeometry};
use cubesfc_mesh::{ElemId, Mapping, Topology};

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct AdvectionConfig {
    /// GLL points per element edge (the paper's SEAM uses 8).
    pub np: usize,
    /// Vertical levels (climate SEAM ≈ 26; each level advects the same
    /// 2-D field, reproducing the cost structure).
    pub nlev: usize,
    /// Rotation axis × angular speed (radians per time unit).
    pub omega: [f64; 3],
    /// Time step.
    pub dt: f64,
    /// Cube→sphere mapping (the paper's SEAM is equidistant gnomonic).
    pub mapping: Mapping,
}

impl AdvectionConfig {
    /// A stable default configuration for face size `ne`: rotation about
    /// `ẑ` at angular speed 1, CFL-safe `dt`.
    pub fn stable_for(ne: usize, np: usize, nlev: usize) -> AdvectionConfig {
        AdvectionConfig {
            np,
            nlev,
            omega: [0.0, 0.0, 1.0],
            dt: stable_dt(ne, np, 1.0),
            mapping: Mapping::Equidistant,
        }
    }

    /// Switch the cube→sphere mapping (builder style).
    pub fn with_mapping(mut self, mapping: Mapping) -> AdvectionConfig {
        self.mapping = mapping;
        self
    }
}

/// A CFL-safe time step: minimum GLL node spacing over maximum wind speed,
/// scaled by a conservative Courant number.
pub fn stable_dt(ne: usize, np: usize, omega_mag: f64) -> f64 {
    // Element angular size ≈ (π/2)/ne; min GLL spacing within the
    // reference element ≈ 2/(np-1)² of its width (endpoint clustering).
    let elem = std::f64::consts::FRAC_PI_2 / ne as f64;
    let min_dx = elem * 2.0 / ((np - 1) * (np - 1)) as f64 / 2.0;
    0.5 * min_dx / omega_mag.max(1e-12)
}

/// The serial solver.
pub struct SerialSolver {
    cfg: AdvectionConfig,
    basis: GllBasis,
    geoms: Vec<ElemGeometry>,
    assembler: Assembler,
    masses: Vec<Vec<f64>>,
    /// Current solution.
    pub q: Field,
    time: f64,
}

impl SerialSolver {
    /// Set up the solver on the `ne`-subdivided cubed-sphere.
    pub fn new(topo: &Topology, cfg: AdvectionConfig) -> SerialSolver {
        let basis = GllBasis::new(cfg.np);
        let nel = topo.num_elems();
        let geoms: Vec<ElemGeometry> = (0..nel)
            .map(|e| {
                elem_geometry_mapped(topo.ne(), ElemId(e as u32), &basis, cfg.omega, cfg.mapping)
            })
            .collect();
        let masses: Vec<Vec<f64>> = geoms.iter().map(|g| g.mass.clone()).collect();
        let dofs = GlobalDofs::build(topo, cfg.np);
        let assembler = Assembler::new(dofs, &masses, cfg.nlev);
        let q = Field::zeros(nel, cfg.np, cfg.nlev);
        SerialSolver {
            cfg,
            basis,
            geoms,
            assembler,
            masses,
            q,
            time: 0.0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AdvectionConfig {
        &self.cfg
    }

    /// Elapsed model time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Set the solution from a function of sphere position (same value on
    /// every level).
    pub fn set_initial<F: Fn([f64; 3]) -> f64>(&mut self, f: F) {
        let n = self.cfg.np;
        let npts = n * n;
        for (e, data) in self.q.data.iter_mut().enumerate() {
            for k in 0..npts {
                let v = f(self.geoms[e].pos[k]);
                for lev in 0..self.cfg.nlev {
                    data[lev * npts + k] = v;
                }
            }
        }
        // Project onto the continuous space.
        self.assembler.dss(&mut self.q, &self.masses);
        self.time = 0.0;
    }

    /// Global mass integral `∫ q J dA` of level 0, counting each dof once.
    pub fn mass_integral(&self) -> f64 {
        // Element-wise Σ m·q double counts shared dofs; divide each node's
        // contribution by its multiplicity instead.
        let mult = self.assembler.dofs().multiplicities();
        let n = self.cfg.np;
        let npts = n * n;
        let mut total = 0.0;
        for (e, data) in self.q.data.iter().enumerate() {
            let ids = self.assembler.dofs().ids(e);
            for k in 0..npts {
                total += self.masses[e][k] * data[k] / mult[ids[k] as usize] as f64;
            }
        }
        total
    }

    /// One SSP-RK3 step.
    pub fn step(&mut self) {
        let _span = cubesfc_obs::span("step");
        cubesfc_obs::counter_add("solver/steps", 1);
        let dt = self.cfg.dt;
        let q0 = self.q.clone();

        // Stage 1: q1 = q0 + dt L(q0)
        let mut l = self.rhs_current();
        axpy(&mut self.q, dt, &l);

        // Stage 2: q2 = 3/4 q0 + 1/4 (q1 + dt L(q1))
        l = self.rhs_current();
        axpy(&mut self.q, dt, &l);
        lincomb(&mut self.q, 0.25, &q0, 0.75);

        // Stage 3: q = 1/3 q0 + 2/3 (q2 + dt L(q2))
        l = self.rhs_current();
        axpy(&mut self.q, dt, &l);
        lincomb(&mut self.q, 2.0 / 3.0, &q0, 1.0 / 3.0);

        self.time += dt;
    }

    /// Run `steps` steps.
    pub fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Evaluate the DSS-assembled right-hand side of the current state.
    fn rhs_current(&mut self) -> Field {
        let n = self.cfg.np;
        let q = &self.q;
        let mut out = Field::zeros(q.data.len(), n, self.cfg.nlev);
        {
            let _span = cubesfc_obs::span("compute");
            for ((g, data), odata) in self.geoms.iter().zip(&q.data).zip(&mut out.data) {
                rhs_kernel(&self.basis, g, data, odata);
            }
        }
        self.assembler.dss(&mut out, &self.masses);
        out
    }

    /// The exact solution of solid-body advection: the initial condition
    /// evaluated at the back-rotated position.
    pub fn exact<F: Fn([f64; 3]) -> f64>(&self, f0: F) -> Field {
        let n = self.cfg.np;
        let npts = n * n;
        let mut out = Field::zeros(self.q.data.len(), n, self.cfg.nlev);
        let om = self.cfg.omega;
        let mag = (om[0] * om[0] + om[1] * om[1] + om[2] * om[2]).sqrt();
        let theta = -mag * self.time;
        for (e, data) in out.data.iter_mut().enumerate() {
            for k in 0..npts {
                let p = rotate_about(self.geoms[e].pos[k], om, theta);
                let v = f0(p);
                for lev in 0..self.cfg.nlev {
                    data[lev * npts + k] = v;
                }
            }
        }
        out
    }
}

/// One element's RHS on each of its levels:
/// `rhs = −( Dr(J u^r q) + Ds(J u^s q) ) / J`.
pub(crate) fn rhs_kernel(basis: &GllBasis, g: &ElemGeometry, q: &[f64], out: &mut [f64]) {
    with_np!(basis.n, 3, advection_rhs(basis, g, q, out))
}

/// [`rhs_kernel`] for `N` points (`N = 0`: `basis.n`), over the scratch
/// `fr`, `fs` and `ds`; `∂fr/∂r` goes straight into the output slab.
#[inline(always)]
fn advection_rhs<const N: usize>(
    basis: &GllBasis,
    g: &ElemGeometry,
    q: &[f64],
    out: &mut [f64],
    scratch: &mut [f64],
) {
    let npts = if N == 0 { basis.n * basis.n } else { N * N };
    let (jac, ur, us) = (&g.jac[..npts], &g.ur[..npts], &g.us[..npts]);
    let (fr, rest) = scratch.split_at_mut(npts);
    let (fs, ds) = rest.split_at_mut(npts);
    for (slab, oslab) in q.chunks_exact(npts).zip(out.chunks_exact_mut(npts)) {
        for k in 0..npts {
            let f = jac[k] * slab[k];
            fr[k] = f * ur[k];
            fs[k] = f * us[k];
        }
        tensor_derivs::<N>(basis, fr, fs, oslab, ds);
        for k in 0..npts {
            oslab[k] = -(oslab[k] + ds[k]) / jac[k];
        }
    }
}

/// `y += a·x` over fields.
fn axpy(y: &mut Field, a: f64, x: &Field) {
    for (ye, xe) in y.data.iter_mut().zip(&x.data) {
        for (yv, xv) in ye.iter_mut().zip(xe) {
            *yv += a * xv;
        }
    }
}

/// `y = cy·y + cx·x` over fields.
fn lincomb(y: &mut Field, cy: f64, x: &Field, cx: f64) {
    for (ye, xe) in y.data.iter_mut().zip(&x.data) {
        for (yv, xv) in ye.iter_mut().zip(xe) {
            *yv = cy * *yv + cx * xv;
        }
    }
}

/// Rotate `p` about axis `axis` (not necessarily unit) by angle `theta`.
pub fn rotate_about(p: [f64; 3], axis: [f64; 3], theta: f64) -> [f64; 3] {
    let mag = (axis[0] * axis[0] + axis[1] * axis[1] + axis[2] * axis[2]).sqrt();
    if mag < 1e-300 {
        return p;
    }
    let k = [axis[0] / mag, axis[1] / mag, axis[2] / mag];
    let (st, ct) = theta.sin_cos();
    let kxp = [
        k[1] * p[2] - k[2] * p[1],
        k[2] * p[0] - k[0] * p[2],
        k[0] * p[1] - k[1] * p[0],
    ];
    let kdp = k[0] * p[0] + k[1] * p[1] + k[2] * p[2];
    [
        p[0] * ct + kxp[0] * st + k[0] * kdp * (1.0 - ct),
        p[1] * ct + kxp[1] * st + k[1] * kdp * (1.0 - ct),
        p[2] * ct + kxp[2] * st + k[2] * kdp * (1.0 - ct),
    ]
}

/// A smooth Gaussian-blob initial condition centred at `c`.
pub fn gaussian_blob(c: [f64; 3], width: f64) -> impl Fn([f64; 3]) -> f64 {
    move |p: [f64; 3]| {
        let d2 = (p[0] - c[0]).powi(2) + (p[1] - c[1]).powi(2) + (p[2] - c[2]).powi(2);
        (-d2 / (width * width)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gll::tests::random_values;

    /// `advection_rhs::<N>` and the runtime-count body agree to the bit on
    /// seeded random slabs over a few elements of a warped grid.
    fn advection_matches_runtime<const N: usize>() {
        let basis = GllBasis::new(N);
        let nlev = 3;
        for e in [0u32, 17, 40] {
            let g =
                elem_geometry_mapped(3, ElemId(e), &basis, [0.3, -0.5, 1.0], Mapping::Equiangular);
            let q = random_values(u64::from(e) * 31 + N as u64, nlev * N * N);
            let mut fast = vec![0.0; q.len()];
            let mut slow = fast.clone();
            advection_rhs::<N>(&basis, &g, &q, &mut fast, &mut vec![0.0; 3 * N * N]);
            advection_rhs::<0>(&basis, &g, &q, &mut slow, &mut vec![0.0; 3 * N * N]);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&slow), "n = {N}, element {e}");
        }
    }

    #[test]
    fn specialised_advection_kernel_is_bit_equal_to_the_runtime_count() {
        advection_matches_runtime::<4>();
        advection_matches_runtime::<5>();
        advection_matches_runtime::<6>();
        advection_matches_runtime::<7>();
        advection_matches_runtime::<8>();
    }

    fn solver(ne: usize, np: usize, nlev: usize) -> SerialSolver {
        let topo = Topology::build(ne);
        SerialSolver::new(&topo, AdvectionConfig::stable_for(ne, np, nlev))
    }

    fn const_drift(ne: usize, np: usize, steps: usize) -> f64 {
        let mut s = solver(ne, np, 1);
        s.set_initial(|_| 1.0);
        s.run(steps);
        s.q.data
            .iter()
            .flat_map(|d| d.iter())
            .fold(0.0f64, |m, &v| m.max((v - 1.0).abs()))
    }

    #[test]
    fn constant_field_stays_constant() {
        // A constant is in the kernel of the divergence of a
        // divergence-free wind; discretely this holds to truncation error
        // (measured: ~8e-4 at np = 5, ~3e-6 at np = 8).
        assert!(const_drift(3, 5, 10) < 5e-3);
    }

    #[test]
    fn constant_drift_converges_spectrally() {
        let low = const_drift(3, 4, 10);
        let high = const_drift(3, 7, 10);
        assert!(
            high < low / 50.0,
            "no spectral convergence: np4 {low:.3e} vs np7 {high:.3e}"
        );
    }

    #[test]
    fn mass_is_nearly_conserved() {
        // Strong-form SEM with pointwise DSS conserves mass to truncation
        // error only (measured: ~2.7e-3 relative at np = 5 over 20 steps,
        // ~9e-5 at np = 8).
        let mut s = solver(3, 5, 1);
        s.set_initial(gaussian_blob([1.0, 0.0, 0.0], 0.5));
        let m0 = s.mass_integral();
        s.run(20);
        let m1 = s.mass_integral();
        assert!((m1 - m0).abs() < 1e-2 * m0.abs(), "mass drift {m0} -> {m1}");
        // Higher order: an order of magnitude tighter.
        let mut s = solver(3, 8, 1);
        s.set_initial(gaussian_blob([1.0, 0.0, 0.0], 0.5));
        let m0 = s.mass_integral();
        s.run(20);
        let m1 = s.mass_integral();
        assert!((m1 - m0).abs() < 5e-4 * m0.abs());
    }

    #[test]
    fn solution_stays_continuous() {
        let mut s = solver(2, 4, 1);
        s.set_initial(gaussian_blob([0.0, 1.0, 0.0], 0.7));
        s.run(5);
        // Shared dofs agree across elements.
        let dofs = GlobalDofs::build(&Topology::build(2), 4);
        let mut by_dof = std::collections::HashMap::new();
        for e in 0..s.q.data.len() {
            for (k, &id) in dofs.ids(e).iter().enumerate() {
                let v = s.q.data[e][k];
                if let Some(&prev) = by_dof.get(&id) {
                    let prev: f64 = prev;
                    assert!((prev - v).abs() < 1e-12);
                } else {
                    by_dof.insert(id, v);
                }
            }
        }
    }

    #[test]
    fn blob_advects_with_the_rotation() {
        // Solid-body rotation about z: after time T the blob should match
        // the analytically rotated initial condition to discretization
        // accuracy.
        let ne = 4;
        let np = 6;
        let topo = Topology::build(ne);
        let mut cfg = AdvectionConfig::stable_for(ne, np, 1);
        cfg.dt *= 0.8;
        let mut s = SerialSolver::new(&topo, cfg);
        let ic = gaussian_blob([1.0, 0.0, 0.0], 0.8);
        s.set_initial(&ic);
        let steps = 40;
        s.run(steps);
        let exact = s.exact(&ic);
        let err = s.q.max_abs_diff(&exact);
        let scale = s.q.max_abs();
        assert!(
            err < 0.02 * scale,
            "advection error {err} (field scale {scale}, t = {})",
            s.time()
        );
    }

    #[test]
    fn blob_advects_correctly_under_equiangular_mapping() {
        // Same solid-body rotation, warped grid: the physics must not
        // notice the chart.
        let ne = 4;
        let np = 6;
        let topo = Topology::build(ne);
        let mut cfg = AdvectionConfig::stable_for(ne, np, 1).with_mapping(Mapping::Equiangular);
        cfg.dt *= 0.8;
        let mut s = SerialSolver::new(&topo, cfg);
        let ic = gaussian_blob([1.0, 0.0, 0.0], 0.8);
        s.set_initial(&ic);
        s.run(40);
        let exact = s.exact(&ic);
        let err = s.q.max_abs_diff(&exact);
        let scale = s.q.max_abs();
        assert!(err < 0.02 * scale, "equiangular advection error {err}");
    }

    #[test]
    fn levels_evolve_identically() {
        let mut s = solver(2, 4, 3);
        s.set_initial(gaussian_blob([0.0, 0.0, 1.0], 0.6));
        s.run(4);
        let n = s.q.n;
        let npts = n * n;
        for data in &s.q.data {
            for k in 0..npts {
                let v0 = data[k];
                for lev in 1..3 {
                    assert_eq!(data[lev * npts + k], v0);
                }
            }
        }
    }

    #[test]
    fn rotation_helper_is_a_rotation() {
        let p = [0.6, -0.64, 0.48];
        let r = rotate_about(p, [0.0, 0.0, 2.0], std::f64::consts::FRAC_PI_2);
        // Rotating (x, y) by +90° about z: (x, y) -> (-y, x).
        assert!((r[0] + p[1]).abs() < 1e-12);
        assert!((r[1] - p[0]).abs() < 1e-12);
        assert!((r[2] - p[2]).abs() < 1e-12);
        // Zero axis: identity.
        assert_eq!(rotate_about(p, [0.0; 3], 1.0), p);
    }

    #[test]
    fn stable_dt_scales_with_resolution() {
        assert!(stable_dt(8, 8, 1.0) < stable_dt(4, 8, 1.0));
        assert!(stable_dt(4, 8, 1.0) < stable_dt(4, 4, 1.0));
        assert!(stable_dt(4, 8, 2.0) < stable_dt(4, 8, 1.0));
    }
}
