//! Shallow water equations on the rotating sphere — the actual SEAM
//! dynamics (Taylor, Tribbia & Iskandarani, *J. Comput. Phys.* 130, 1997,
//! the paper's reference \[9\]).
//!
//! The prognostic state is the 3-D Cartesian velocity `v = (vx, vy, vz)`
//! (kept tangent to the sphere by projection — the standard spectral
//! element trick that avoids pole singularities and Christoffel symbols)
//! plus the fluid depth `h`:
//!
//! ```text
//! ∂v/∂t = −(v·∇)v − f (p̂ × v) − g ∇h        (then project tangent)
//! ∂h/∂t = −∇·(h v)
//! ```
//!
//! with `f = 2Ω p_z` the Coriolis parameter on the unit sphere. Tangential
//! differential operators come from the element bases: for a scalar `φ`,
//! `∇φ = e^r ∂_r φ + e^s ∂_s φ`; for a tangent field `F`,
//! `∇·F = (1/J)[∂_r (J F·e^r) + ∂_s (J F·e^s)]`.
//!
//! Four prognostic variables per level is exactly the `nvar = 4` the cost
//! model uses, so this solver is the measured counterpart of the analytic
//! flop calibration.

use crate::dss::{Assembler, GlobalDofs};
use crate::field::nan_max;
use crate::gll::{tensor_derivs, with_np, GllBasis};
use crate::metric::{elem_geometry_mapped, ElemGeometry};
use cubesfc_mesh::{ElemId, Mapping, Topology};

/// Shallow water configuration (nondimensional unit sphere).
#[derive(Clone, Copy, Debug)]
pub struct SwConfig {
    /// GLL points per element edge.
    pub np: usize,
    /// Planetary rotation rate Ω.
    pub omega: f64,
    /// Gravitational acceleration g.
    pub gravity: f64,
    /// Time step.
    pub dt: f64,
    /// Cube→sphere mapping (the paper's SEAM is equidistant gnomonic).
    pub mapping: Mapping,
}

impl SwConfig {
    /// A stable configuration for the Williamson test-case-2 regime on an
    /// `ne`-subdivided sphere: gravity-wave CFL-limited time step.
    pub fn test_case_2(ne: usize, np: usize) -> SwConfig {
        let omega = 1.0;
        let gravity = 1.0;
        let h0 = 2.5f64; // background depth (see `tc2_initial`)
        let wave_speed = (gravity * h0).sqrt() + 1.0; // + advective u0
        let elem = std::f64::consts::FRAC_PI_2 / ne as f64;
        let min_dx = elem / ((np - 1) * (np - 1)) as f64;
        SwConfig {
            np,
            omega,
            gravity,
            dt: 0.4 * min_dx / wave_speed,
            mapping: Mapping::Equidistant,
        }
    }

    /// Switch the cube→sphere mapping (builder style).
    pub fn with_mapping(mut self, mapping: Mapping) -> SwConfig {
        self.mapping = mapping;
        self
    }
}

/// The prognostic fields, stored per element (`n²` nodes each).
#[derive(Clone, Debug, PartialEq)]
pub struct SwState {
    /// Cartesian velocity components.
    pub v: [Vec<Vec<f64>>; 3],
    /// Depth.
    pub h: Vec<Vec<f64>>,
}

impl SwState {
    fn zeros(nelems: usize, npts: usize) -> SwState {
        SwState {
            v: [
                vec![vec![0.0; npts]; nelems],
                vec![vec![0.0; npts]; nelems],
                vec![vec![0.0; npts]; nelems],
            ],
            h: vec![vec![0.0; npts]; nelems],
        }
    }

    /// Maximum absolute difference across all fields; NaN if either state
    /// holds a NaN.
    ///
    /// # Panics
    ///
    /// Panics if the element counts or an element's length differ.
    pub fn max_abs_diff(&self, o: &SwState) -> f64 {
        let fields = self.v.iter().chain([&self.h]).zip(o.v.iter().chain([&o.h]));
        nan_max(fields.flat_map(|(a, b)| {
            assert_eq!(a.len(), b.len(), "state shape mismatch");
            a.iter().zip(b).flat_map(|(x, y)| {
                assert_eq!(x.len(), y.len(), "state shape mismatch");
                x.iter().zip(y).map(|(x, y)| (x - y).abs())
            })
        }))
    }
}

/// Serial spectral-element shallow water solver.
pub struct SwSolver {
    cfg: SwConfig,
    basis: GllBasis,
    geoms: Vec<ElemGeometry>,
    assembler: Assembler,
    masses: Vec<Vec<f64>>,
    /// Current state.
    pub state: SwState,
    time: f64,
}

impl SwSolver {
    /// Set up on the `ne`-subdivided cubed-sphere.
    pub fn new(topo: &Topology, cfg: SwConfig) -> SwSolver {
        let basis = GllBasis::new(cfg.np);
        let nel = topo.num_elems();
        let geoms: Vec<ElemGeometry> = (0..nel)
            .map(|e| {
                elem_geometry_mapped(topo.ne(), ElemId(e as u32), &basis, [0.0; 3], cfg.mapping)
            })
            .collect();
        let masses: Vec<Vec<f64>> = geoms.iter().map(|g| g.mass.clone()).collect();
        let dofs = GlobalDofs::build(topo, cfg.np);
        let assembler = Assembler::new(dofs, &masses, 1);
        let npts = cfg.np * cfg.np;
        SwSolver {
            cfg,
            basis,
            geoms,
            assembler,
            masses,
            state: SwState::zeros(nel, npts),
            time: 0.0,
        }
    }

    /// Elapsed model time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The configuration.
    pub fn config(&self) -> &SwConfig {
        &self.cfg
    }

    /// Initialize from functions of sphere position: `v_fn` must return a
    /// tangent 3-vector; `h_fn` the depth.
    pub fn set_initial<FV, FH>(&mut self, v_fn: FV, h_fn: FH)
    where
        FV: Fn([f64; 3]) -> [f64; 3],
        FH: Fn([f64; 3]) -> f64,
    {
        let npts = self.cfg.np * self.cfg.np;
        for (e, g) in self.geoms.iter().enumerate() {
            for k in 0..npts {
                let p = g.pos[k];
                let v = v_fn(p);
                // Project tangent defensively.
                let vp = v[0] * p[0] + v[1] * p[1] + v[2] * p[2];
                for c in 0..3 {
                    self.state.v[c][e][k] = v[c] - vp * p[c];
                }
                self.state.h[e][k] = h_fn(p);
            }
        }
        self.dss_state();
        self.time = 0.0;
    }

    /// Total fluid volume `∫ h dA` (each dof counted once).
    pub fn total_volume(&self) -> f64 {
        let mult = self.assembler.dofs().multiplicities();
        let npts = self.cfg.np * self.cfg.np;
        let mut total = 0.0;
        for (e, h) in self.state.h.iter().enumerate() {
            let ids = self.assembler.dofs().ids(e);
            for k in 0..npts {
                total += self.masses[e][k] * h[k] / mult[ids[k] as usize] as f64;
            }
        }
        total
    }

    /// One SSP-RK3 step.
    pub fn step(&mut self) {
        let dt = self.cfg.dt;
        let s0 = self.state.clone();

        let r = self.rhs();
        self.axpy(dt, &r);

        let r = self.rhs();
        self.axpy(dt, &r);
        self.lincomb(0.25, &s0, 0.75);

        let r = self.rhs();
        self.axpy(dt, &r);
        self.lincomb(2.0 / 3.0, &s0, 1.0 / 3.0);

        self.project_tangent();
        self.time += dt;
    }

    /// Run `steps` steps.
    pub fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Evaluate the DSS-assembled right-hand side at the current state.
    fn rhs(&mut self) -> SwState {
        let npts = self.cfg.np * self.cfg.np;
        let mut out = SwState::zeros(self.geoms.len(), npts);
        let [vx, vy, vz] = &self.state.v;
        let [ovx, ovy, ovz] = &mut out.v;
        for (e, g) in self.geoms.iter().enumerate() {
            sw_elem_rhs(
                &self.basis,
                g,
                &self.cfg,
                [&vx[e], &vy[e], &vz[e], &self.state.h[e]],
                [&mut ovx[e], &mut ovy[e], &mut ovz[e], &mut out.h[e]],
            );
        }

        // Assemble all four fields.
        for c in 0..3 {
            self.dss_field(&mut out.v[c]);
        }
        let mut h = std::mem::take(&mut out.h);
        self.dss_field(&mut h);
        out.h = h;
        out
    }

    fn dss_field(&mut self, field: &mut [Vec<f64>]) {
        // Reuse the scalar assembler by viewing the field as one level.
        let mut wrapped = crate::field::Field {
            n: self.cfg.np,
            nlev: 1,
            data: field.to_vec(),
        };
        self.assembler.dss(&mut wrapped, &self.masses);
        for (dst, src) in field.iter_mut().zip(wrapped.data) {
            *dst = src;
        }
    }

    fn dss_state(&mut self) {
        for c in 0..3 {
            let mut v = std::mem::take(&mut self.state.v[c]);
            self.dss_field(&mut v);
            self.state.v[c] = v;
        }
        let mut h = std::mem::take(&mut self.state.h);
        self.dss_field(&mut h);
        self.state.h = h;
        self.project_tangent();
    }

    fn axpy(&mut self, a: f64, r: &SwState) {
        for c in 0..3 {
            for (ye, xe) in self.state.v[c].iter_mut().zip(&r.v[c]) {
                for (y, x) in ye.iter_mut().zip(xe) {
                    *y += a * x;
                }
            }
        }
        for (ye, xe) in self.state.h.iter_mut().zip(&r.h) {
            for (y, x) in ye.iter_mut().zip(xe) {
                *y += a * x;
            }
        }
    }

    fn lincomb(&mut self, cy: f64, x: &SwState, cx: f64) {
        for c in 0..3 {
            for (ye, xe) in self.state.v[c].iter_mut().zip(&x.v[c]) {
                for (y, xv) in ye.iter_mut().zip(xe) {
                    *y = cy * *y + cx * xv;
                }
            }
        }
        for (ye, xe) in self.state.h.iter_mut().zip(&x.h) {
            for (y, xv) in ye.iter_mut().zip(xe) {
                *y = cy * *y + cx * xv;
            }
        }
    }

    fn project_tangent(&mut self) {
        let npts = self.cfg.np * self.cfg.np;
        for (e, g) in self.geoms.iter().enumerate() {
            for k in 0..npts {
                let p = g.pos[k];
                let vp = self.state.v[0][e][k] * p[0]
                    + self.state.v[1][e][k] * p[1]
                    + self.state.v[2][e][k] * p[2];
                for (vc, &pc) in self.state.v.iter_mut().zip(&p) {
                    vc[e][k] -= vp * pc;
                }
            }
        }
    }
}

#[inline]
fn dot(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// The right-hand side of one element before DSS, shared between the
/// serial solver and the virtual-rank runner. `q` and `out` are the
/// fields `[vx, vy, vz, h]`.
///
/// Momentum, in Cartesian components: `∂v/∂t = −(v·∇)v − f (p̂×v) − g ∇h`.
/// Continuity: `∂h/∂t = −(1/J)[∂r(J h v^r) + ∂s(J h v^s)]`.
pub(crate) fn sw_elem_rhs(
    basis: &GllBasis,
    g: &ElemGeometry,
    cfg: &SwConfig,
    q: [&[f64]; 4],
    out: [&mut [f64]; 4],
) {
    with_np!(basis.n, 6, sw_rhs(basis, g, cfg, q, out))
}

/// [`sw_elem_rhs`] for `N` points (`N = 0`: `basis.n`), over six `N²`
/// scratch buffers.
#[inline(always)]
fn sw_rhs<const N: usize>(
    basis: &GllBasis,
    g: &ElemGeometry,
    cfg: &SwConfig,
    q: [&[f64]; 4],
    out: [&mut [f64]; 4],
    scratch: &mut [f64],
) {
    let npts = if N == 0 { basis.n * basis.n } else { N * N };
    let [vx, vy, vz, h] = q.map(|f| &f[..npts]);
    let [out_vx, out_vy, out_vz, out_h] = out.map(|f| &mut f[..npts]);
    let (pos, jac) = (&g.pos[..npts], &g.jac[..npts]);
    let (erd, esd) = (&g.erd[..npts], &g.esd[..npts]);
    let mut bufs = scratch.chunks_exact_mut(npts);
    let [dr, ds, fr, fs, vr, vs] = std::array::from_fn(|_| bufs.next().unwrap());
    // Contravariant velocity components, reused across fields.
    for k in 0..npts {
        let v = [vx[k], vy[k], vz[k]];
        vr[k] = dot(v, erd[k]);
        vs[k] = dot(v, esd[k]);
    }
    // Coriolis and pressure gradient.
    tensor_derivs::<N>(basis, h, h, dr, ds);
    for k in 0..npts {
        let p = pos[k];
        let f = 2.0 * cfg.omega * p[2];
        let v = [vx[k], vy[k], vz[k]];
        // p̂ × v
        let pxv = [
            p[1] * v[2] - p[2] * v[1],
            p[2] * v[0] - p[0] * v[2],
            p[0] * v[1] - p[1] * v[0],
        ];
        let gradh = [
            erd[k][0] * dr[k] + esd[k][0] * ds[k],
            erd[k][1] * dr[k] + esd[k][1] * ds[k],
            erd[k][2] * dr[k] + esd[k][2] * ds[k],
        ];
        out_vx[k] = -f * pxv[0] - cfg.gravity * gradh[0];
        out_vy[k] = -f * pxv[1] - cfg.gravity * gradh[1];
        out_vz[k] = -f * pxv[2] - cfg.gravity * gradh[2];
    }
    // Advection, one Cartesian component at a time.
    for (w, out) in [(vx, out_vx), (vy, out_vy), (vz, out_vz)] {
        tensor_derivs::<N>(basis, w, w, dr, ds);
        for k in 0..npts {
            out[k] -= vr[k] * dr[k] + vs[k] * ds[k];
        }
    }
    // Continuity.
    for k in 0..npts {
        fr[k] = jac[k] * h[k] * vr[k];
        fs[k] = jac[k] * h[k] * vs[k];
    }
    tensor_derivs::<N>(basis, fr, fs, dr, ds);
    for k in 0..npts {
        out_h[k] = -(dr[k] + ds[k]) / jac[k];
    }
}

/// Williamson shallow-water test case 2 on the unit sphere: steady
/// zonal geostrophic flow. Returns `(v_fn, h_fn)` for
/// [`SwSolver::set_initial`].
///
/// `u0` is the equatorial wind speed; `h0` the background depth;
/// `omega`/`gravity` must match the solver configuration. The exact
/// solution is stationary, so any drift is numerical error.
#[allow(clippy::type_complexity)]
pub fn tc2_initial(
    u0: f64,
    h0: f64,
    omega: f64,
    gravity: f64,
) -> (impl Fn([f64; 3]) -> [f64; 3], impl Fn([f64; 3]) -> f64) {
    let v_fn = move |p: [f64; 3]| {
        // Solid-body zonal wind: v = u0 (ẑ × p).
        [-u0 * p[1], u0 * p[0], 0.0]
    };
    let h_fn = move |p: [f64; 3]| {
        // Geostrophic balance: g h = g h0 − (Ω u0 + u0²/2) sin²(lat).
        let sinlat = p[2];
        h0 - (omega * u0 + 0.5 * u0 * u0) * sinlat * sinlat / gravity
    };
    (v_fn, h_fn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gll::tests::random_values;

    /// `sw_rhs::<N>` and the runtime-count body agree to the bit on seeded
    /// random states over a few elements of a warped grid.
    fn sw_matches_runtime<const N: usize>() {
        let basis = GllBasis::new(N);
        let cfg = SwConfig::test_case_2(3, N);
        let npts = N * N;
        for e in [0u32, 17, 40] {
            let g = elem_geometry_mapped(3, ElemId(e), &basis, [0.0; 3], Mapping::Equiangular);
            let q = random_values(u64::from(e) * 31 + N as u64, 4 * npts);
            let fields: [&[f64]; 4] = std::array::from_fn(|c| &q[c * npts..(c + 1) * npts]);
            let mut fast = vec![0.0; 4 * npts];
            let mut slow = fast.clone();
            for (out, runtime_count) in [(&mut fast, false), (&mut slow, true)] {
                let mut outs = out.chunks_exact_mut(npts);
                let outs = std::array::from_fn(|_| outs.next().unwrap());
                let scratch = &mut vec![0.0; 6 * npts];
                if runtime_count {
                    sw_rhs::<0>(&basis, &g, &cfg, fields, outs, scratch);
                } else {
                    sw_rhs::<N>(&basis, &g, &cfg, fields, outs, scratch);
                }
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&slow), "n = {N}, element {e}");
        }
    }

    #[test]
    fn specialised_shallow_water_kernel_is_bit_equal_to_the_runtime_count() {
        sw_matches_runtime::<4>();
        sw_matches_runtime::<5>();
        sw_matches_runtime::<6>();
        sw_matches_runtime::<7>();
        sw_matches_runtime::<8>();
    }

    fn solver(ne: usize, np: usize) -> SwSolver {
        let topo = Topology::build(ne);
        SwSolver::new(&topo, SwConfig::test_case_2(ne, np))
    }

    #[test]
    fn state_diff_propagates_nan() {
        let clean = SwState::zeros(2, 9);
        for c in 0..4 {
            let mut dirty = clean.clone();
            let field = if c < 3 { &mut dirty.v[c] } else { &mut dirty.h };
            field[1][4] = f64::NAN;
            assert!(dirty.max_abs_diff(&clean).is_nan(), "component {c}");
            assert!(clean.max_abs_diff(&dirty).is_nan(), "component {c}");
        }
    }

    #[test]
    #[should_panic(expected = "state shape mismatch")]
    fn state_diff_requires_the_same_point_count() {
        // 3×3 against 2×2 nodes: zeros on the common prefix.
        SwState::zeros(2, 9).max_abs_diff(&SwState::zeros(2, 4));
    }

    #[test]
    #[should_panic(expected = "state shape mismatch")]
    fn state_diff_requires_the_same_element_count() {
        SwState::zeros(2, 9).max_abs_diff(&SwState::zeros(1, 9));
    }

    #[test]
    fn rest_state_stays_at_rest() {
        // v = 0, h = const is an exact steady state; discrete drift must be
        // at rounding level (all RHS terms vanish identically).
        let mut s = solver(2, 5);
        s.set_initial(|_| [0.0; 3], |_| 1.0);
        s.run(10);
        for e in 0..s.state.h.len() {
            for k in 0..25 {
                assert!((s.state.h[e][k] - 1.0).abs() < 1e-12);
                for c in 0..3 {
                    assert!(s.state.v[c][e][k].abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn tc2_is_nearly_steady() {
        // Williamson TC2: the geostrophically balanced flow should stay
        // put up to truncation error.
        let ne = 3;
        let np = 6;
        let mut s = solver(ne, np);
        let cfg = *s.config();
        let (v0, h0) = tc2_initial(1.0, 2.5, cfg.omega, cfg.gravity);
        s.set_initial(&v0, &h0);
        let initial = s.state.clone();
        s.run(30);
        let drift = s.state.max_abs_diff(&initial);
        // Field scale is O(1); spectral truncation at np=6 keeps the
        // steady state to a fraction of a percent over 30 steps.
        assert!(drift < 5e-3, "TC2 drift {drift}");
    }

    #[test]
    fn tc2_drift_converges_spectrally() {
        let drift_at = |np: usize| {
            let ne = 3;
            let mut s = solver(ne, np);
            let cfg = *s.config();
            let (v0, h0) = tc2_initial(1.0, 2.5, cfg.omega, cfg.gravity);
            s.set_initial(&v0, &h0);
            let initial = s.state.clone();
            // Fix the physical horizon so np comparisons are fair.
            let t_final = SwConfig::test_case_2(ne, 8).dt * 12.0;
            let steps = (t_final / s.config().dt).ceil() as usize;
            s.run(steps);
            s.state.max_abs_diff(&initial)
        };
        let low = drift_at(4);
        let high = drift_at(7);
        assert!(
            high < low / 5.0,
            "no spectral convergence: np4 {low:.2e} vs np7 {high:.2e}"
        );
    }

    #[test]
    fn tc2_is_steady_under_the_equiangular_mapping_too() {
        // The equations are mapping-independent; a correct metric makes
        // TC2 steady on the equiangular grid as well.
        let ne = 3;
        let topo = Topology::build(ne);
        let cfg = SwConfig::test_case_2(ne, 6).with_mapping(Mapping::Equiangular);
        let mut s = SwSolver::new(&topo, cfg);
        let (v0, h0) = tc2_initial(1.0, 2.5, cfg.omega, cfg.gravity);
        s.set_initial(&v0, &h0);
        let initial = s.state.clone();
        s.run(30);
        let drift = s.state.max_abs_diff(&initial);
        assert!(drift < 5e-3, "equiangular TC2 drift {drift}");
    }

    #[test]
    fn volume_is_conserved() {
        let mut s = solver(3, 6);
        let cfg = *s.config();
        let (v0, h0) = tc2_initial(1.0, 2.5, cfg.omega, cfg.gravity);
        s.set_initial(&v0, &h0);
        let vol0 = s.total_volume();
        s.run(20);
        let vol1 = s.total_volume();
        assert!(
            (vol1 - vol0).abs() < 1e-3 * vol0.abs(),
            "volume drift {vol0} -> {vol1}"
        );
    }

    #[test]
    fn velocity_stays_tangent() {
        let mut s = solver(2, 5);
        let cfg = *s.config();
        let (v0, h0) = tc2_initial(0.8, 2.5, cfg.omega, cfg.gravity);
        s.set_initial(&v0, &h0);
        s.run(8);
        for (e, g) in s.geoms.iter().enumerate() {
            for k in 0..25 {
                let vp = s.state.v[0][e][k] * g.pos[k][0]
                    + s.state.v[1][e][k] * g.pos[k][1]
                    + s.state.v[2][e][k] * g.pos[k][2];
                assert!(vp.abs() < 1e-12, "normal leakage {vp}");
            }
        }
    }

    #[test]
    fn gravity_wave_propagates() {
        // A height bump with no wind must radiate gravity waves: the
        // state must change but stay bounded (stability check).
        let mut s = solver(3, 5);
        s.set_initial(
            |_| [0.0; 3],
            |p| 2.5 + 0.1 * (-((p[0] - 1.0).powi(2) + p[1] * p[1] + p[2] * p[2]) / 0.1).exp(),
        );
        let initial = s.state.clone();
        s.run(20);
        let change = s.state.max_abs_diff(&initial);
        assert!(change > 1e-4, "nothing happened");
        let hmax = s
            .state
            .h
            .iter()
            .flat_map(|e| e.iter())
            .fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(hmax < 3.5, "blow-up: {hmax}");
    }
}
