//! The workload cost model: flops computed and bytes exchanged per
//! spectral element per timestep.
//!
//! Calibrated against the paper's climate configuration: 8×8 GLL points
//! per element, ~26 vertical levels, a handful of prognostic variables.
//! The byte calibration reproduces the paper's Table 2 scale: with
//! K = 1536 on 768 processors the measured total communication volume was
//! 16.8–17.7 MB per step, which back-solves to ≈ 800 B per exchanged GLL
//! point — 8 B × 26 levels × 4 variables ≈ 832 B.

/// Per-element computation and per-point communication costs.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// GLL points per element edge.
    pub np: usize,
    /// Vertical levels.
    pub nlev: usize,
    /// Prognostic variables advanced per step.
    pub nvar: usize,
    /// Bytes per floating-point value.
    pub bytes_per_value: f64,
    /// Runge-Kutta / sub-stage count per timestep.
    pub stages: usize,
}

impl CostModel {
    /// The paper's climate-scale SEAM configuration.
    pub fn seam_climate() -> CostModel {
        CostModel {
            np: 8,
            nlev: 26,
            nvar: 4,
            bytes_per_value: 8.0,
            stages: 3,
        }
    }

    /// A configuration matching a given mini-app run (for comparing the
    /// analytic model against measured wall-clock).
    pub fn mini_app(np: usize, nlev: usize) -> CostModel {
        CostModel {
            np,
            nlev,
            nvar: 1,
            bytes_per_value: 8.0,
            stages: 3,
        }
    }

    /// Floating-point operations per element per timestep.
    ///
    /// Per stage, per level, per variable: two tensor-product derivative
    /// applications (`2 × 2n³` multiply-adds = `8n³` flops… counted as
    /// `4n³` each) plus ~`12n²` pointwise operations (flux assembly,
    /// metric scaling, axpy updates).
    pub fn flops_per_element_step(&self) -> f64 {
        let n = self.np as f64;
        let per_level = 8.0 * n * n * n + 12.0 * n * n;
        self.stages as f64 * self.nlev as f64 * self.nvar as f64 * per_level
    }

    /// Bytes exchanged per shared GLL point per timestep (each direction).
    ///
    /// Each RK stage exchanges every shared point's partial sums once.
    pub fn bytes_per_point(&self) -> f64 {
        self.stages as f64 * self.bytes_per_value * self.nlev as f64 * self.nvar as f64
    }

    /// Bytes exchanged per shared point per *stage* (used when
    /// calibrating against per-exchange measurements).
    pub fn bytes_per_point_per_stage(&self) -> f64 {
        self.bytes_per_value * self.nlev as f64 * self.nvar as f64
    }

    /// Bytes of prognostic state one element carries: `np² · nlev · nvar`
    /// values. This is what a migration layer ships when the element
    /// changes owner (the climate configuration works out to ≈ 53 kB per
    /// element), so rebalance cost models price moves with it.
    pub fn element_state_bytes(&self) -> f64 {
        (self.np * self.np) as f64 * self.nlev as f64 * self.nvar as f64 * self.bytes_per_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn climate_flop_count_scale() {
        let c = CostModel::seam_climate();
        let f = c.flops_per_element_step();
        // 3 stages × 26 levels × 4 vars × (8·512 + 12·64) = ~1.52 Mflops.
        assert!(f > 1.0e6 && f < 3.0e6, "{f}");
    }

    #[test]
    fn climate_bytes_per_point_matches_table2_backsolve() {
        let c = CostModel::seam_climate();
        // ≈ 832 B per point per stage.
        let b = c.bytes_per_point_per_stage();
        assert!((b - 832.0).abs() < 1.0, "{b}");
    }

    #[test]
    fn flops_grow_cubically_with_np() {
        let a = CostModel::mini_app(4, 1).flops_per_element_step();
        let b = CostModel::mini_app(8, 1).flops_per_element_step();
        assert!(b / a > 6.0 && b / a < 9.0, "{}", b / a);
    }

    #[test]
    fn element_state_is_tens_of_kilobytes_at_climate_scale() {
        // 64 points × 26 levels × 4 vars × 8 B ≈ 53 kB.
        let b = CostModel::seam_climate().element_state_bytes();
        assert!((b - 53_248.0).abs() < 1.0, "{b}");
    }

    #[test]
    fn bytes_scale_with_levels_and_vars() {
        let base = CostModel::mini_app(8, 1).bytes_per_point();
        let lev26 = CostModel::mini_app(8, 26).bytes_per_point();
        assert!((lev26 / base - 26.0).abs() < 1e-12);
    }
}
