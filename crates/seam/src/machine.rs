//! The machine model: NCAR's IBM P690 cluster with a Colony switch.
//!
//! The paper's measurements ran on "the new IBM P690 cluster recently
//! installed at NCAR … 1.3 GHz Power-4 processors connected by a dual
//! plane Colony network … 92 8-way SMP nodes and nine 32-way SMP nodes"
//! (§4), with at most 768 processors per job. We cannot run on that
//! machine, so the scaling experiments use this analytic stand-in:
//! per-message latency/bandwidth costs with distinct intra-node and
//! inter-node routes, and the *measured* sustained element-kernel rate
//! the paper reports (841 Mflops = 16 % of the 5.2 Gflops Power-4 peak).

/// Analytic machine description.
#[derive(Clone, Copy, Debug)]
pub struct MachineModel {
    /// Sustained element-kernel rate per processor (flops/s).
    pub sustained_flops: f64,
    /// Peak rate per processor (flops/s) — for "percent of peak" output.
    pub peak_flops: f64,
    /// Processors per SMP node (ranks are packed onto nodes in order).
    pub procs_per_node: usize,
    /// Per-message latency between nodes (s).
    pub latency_inter: f64,
    /// Per-message latency within a node (s).
    pub latency_intra: f64,
    /// Bandwidth between nodes (bytes/s, per processor pair).
    pub bandwidth_inter: f64,
    /// Bandwidth within a node (bytes/s).
    pub bandwidth_intra: f64,
}

impl MachineModel {
    /// The NCAR IBM P690 "bluesky"-class configuration of the paper.
    ///
    /// * 841 Mflops sustained per CPU: measured in the paper ("the single
    ///   processor execution rate of 841 Mflops amounts to 16 % of peak").
    /// * 5.256 Gflops peak: 1.3 GHz Power-4, 4 flops/cycle.
    /// * 8-way SMP nodes (the bulk of the machine).
    /// * Colony (SP Switch2)-class MPI latency ≈ 18 µs and ≈ 350 MB/s
    ///   per-task bandwidth; shared-memory messaging ≈ 3 µs / 1.5 GB/s.
    pub fn ncar_p690() -> MachineModel {
        MachineModel {
            sustained_flops: 841.0e6,
            peak_flops: 5.256e9,
            procs_per_node: 8,
            latency_inter: 18.0e-6,
            latency_intra: 3.0e-6,
            bandwidth_inter: 350.0e6,
            bandwidth_intra: 1.5e9,
        }
    }

    /// The SMP node housing a rank (ranks packed in order).
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.procs_per_node
    }

    /// The time for one message of `bytes` from `from` to `to`.
    #[inline]
    pub fn message_time(&self, from: usize, to: usize, bytes: f64) -> f64 {
        if self.node_of(from) == self.node_of(to) {
            self.latency_intra + bytes / self.bandwidth_intra
        } else {
            self.latency_inter + bytes / self.bandwidth_inter
        }
    }

    /// Fraction of peak at a given sustained rate.
    pub fn percent_of_peak(&self, flops: f64) -> f64 {
        flops / self.peak_flops * 100.0
    }

    /// The `(α, β)` cost terms of the worst-case (inter-node) route:
    /// per-message latency in seconds and bandwidth in bytes/s. This is
    /// the pair trace-analysis tools use to price an observed message
    /// and byte volume without re-deriving rank-to-node placement.
    #[inline]
    pub fn alpha_beta(&self) -> (f64, f64) {
        (self.latency_inter, self.bandwidth_inter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MachineModel {
        /// An idealized zero-communication machine (for model sanity checks).
        pub(crate) fn zero_comm() -> MachineModel {
            MachineModel {
                latency_inter: 0.0,
                latency_intra: 0.0,
                bandwidth_inter: f64::INFINITY,
                bandwidth_intra: f64::INFINITY,
                ..MachineModel::ncar_p690()
            }
        }
    }

    #[test]
    fn paper_calibration() {
        let m = MachineModel::ncar_p690();
        // "841 Mflops amounts to 16% of peak" — reproduce the 16%.
        let pct = m.percent_of_peak(m.sustained_flops);
        assert!((pct - 16.0).abs() < 0.1, "{pct}%");
    }

    #[test]
    fn node_packing() {
        let m = MachineModel::ncar_p690();
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(7), 0);
        assert_eq!(m.node_of(8), 1);
        assert_eq!(m.node_of(768 - 1), 95);
    }

    #[test]
    fn intra_node_messages_are_cheaper() {
        let m = MachineModel::ncar_p690();
        let bytes = 10_000.0;
        assert!(m.message_time(0, 1, bytes) < m.message_time(0, 9, bytes));
    }

    #[test]
    fn message_time_scales_with_bytes() {
        let m = MachineModel::ncar_p690();
        let t1 = m.message_time(0, 100, 1e3);
        let t2 = m.message_time(0, 100, 1e6);
        assert!(t2 > t1);
        // Latency floor.
        assert!(t1 >= m.latency_inter);
    }

    #[test]
    fn alpha_beta_exposes_the_inter_node_route() {
        let m = MachineModel::ncar_p690();
        let (alpha, beta) = m.alpha_beta();
        assert_eq!(alpha, m.latency_inter);
        assert_eq!(beta, m.bandwidth_inter);
        // One inter-node message priced by α/β matches message_time.
        let bytes = 4096.0;
        assert!((alpha + bytes / beta - m.message_time(0, 9, bytes)).abs() < 1e-12);
    }

    #[test]
    fn zero_comm_machine_is_free() {
        let m = MachineModel::zero_comm();
        assert_eq!(m.message_time(0, 99, 1e9), 0.0);
    }
}
