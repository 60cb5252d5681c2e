//! The paper's experiment configurations (Table 1).
//!
//! | K    | Nproc     | Ne | Hilbert | m-Peano |
//! |------|-----------|----|---------|---------|
//! | 384  | 1 to 384  | 8  | 3       | 0       |
//! | 486  | 1 to 486  | 9  | 0       | 2       |
//! | 1536 | 1 to 768  | 16 | 4       | 0       |
//! | 1944 | 1 to 486  | 18 | 1       | 2       |
//!
//! Processor counts are "chosen specifically so that an equal number of
//! spectral elements are allocated to each processor" (§4) — i.e. the
//! divisors of `K` up to the machine limit (768 on the NCAR P690).

use cubesfc_sfc::{factor_2_3, CurveFamily, Schedule};

/// One row of Table 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Resolution {
    /// Elements per cube-face edge.
    pub ne: usize,
    /// Total spectral elements, `K = 6·Ne²`.
    pub k: usize,
    /// Hilbert recursion levels (`n` in `Ne = 2^n·3^m`).
    pub hilbert_levels: usize,
    /// m-Peano recursion levels (`m`).
    pub mpeano_levels: usize,
    /// Largest equal-share processor count within the machine limit
    /// (the largest divisor of `K` not exceeding the cap).
    pub max_nproc: usize,
    /// Largest processor count the paper's Table 1 actually reports.
    ///
    /// Usually equal to [`max_nproc`](Self::max_nproc), but for
    /// `K = 1944` the paper stops at 486 processors (4 elements each)
    /// even though 648 divides 1944 and fits on the 768-processor P690.
    pub paper_max_nproc: usize,
}

impl Resolution {
    /// Build the row for face size `ne` under machine limit `max_procs`.
    ///
    /// Returns `None` when `ne` is outside the paper's Table-1 family
    /// `Ne = 2^n·3^m` with `n + m ≥ 1`: the radix-5 sizes have a curve
    /// but no Table-1 row.
    pub fn for_ne(ne: usize, max_procs: usize) -> Option<Resolution> {
        let (n, m) = factor_2_3(ne).ok()?;
        if n == 0 && m == 0 {
            return None;
        }
        let k = 6 * ne * ne;
        // Largest equal-share processor count within the machine limit
        // (the paper only runs divisor counts, "chosen specifically so
        // that an equal number of spectral elements are allocated to each
        // processor").
        let max_nproc = (1..=k.min(max_procs))
            .rev()
            .find(|p| k.is_multiple_of(*p))
            .unwrap_or(1);
        // Table 1 reports 486 as the top count for Ne=18 (K=1944) even
        // though 648 is an in-cap divisor; every other row matches the
        // divisor cap.
        let paper_max_nproc = if ne == 18 {
            486.min(max_nproc)
        } else {
            max_nproc
        };
        Some(Resolution {
            ne,
            k,
            hilbert_levels: n,
            mpeano_levels: m,
            max_nproc,
            paper_max_nproc,
        })
    }

    /// The refinement schedule (Peano levels first, as in the paper).
    pub fn schedule(&self) -> Schedule {
        Schedule::for_side(self.ne).expect("resolution is SFC-compatible")
    }

    /// Which curve family this resolution exercises.
    pub fn family(&self) -> CurveFamily {
        CurveFamily::of(&self.schedule())
    }

    /// The processor counts with an equal number of elements per
    /// processor: divisors of `K` up to `max_nproc`.
    pub fn equal_share_procs(&self) -> Vec<usize> {
        (1..=self.max_nproc)
            .filter(|p| self.k.is_multiple_of(*p))
            .collect()
    }

    /// [`equal_share_procs`](Self::equal_share_procs) thinned to at most
    /// `max_points` counts (0 = no limit). Thinning keeps the largest
    /// counts, where the paper's effect lives, and `Nproc = 1`, the
    /// speedup baseline, whenever the budget leaves room for it.
    pub fn thinned_procs(&self, max_points: usize) -> Vec<usize> {
        let mut procs = self.equal_share_procs();
        if max_points > 0 && procs.len() > max_points {
            let keep_first = usize::from(max_points > 1);
            procs.drain(keep_first..procs.len() + keep_first - max_points);
        }
        procs
    }

    /// Elements per processor at a given count (exact divisors only).
    pub fn elems_per_proc(&self, nproc: usize) -> usize {
        debug_assert_eq!(self.k % nproc, 0);
        self.k / nproc
    }
}

/// The machine limit of the paper's NCAR P690 cluster: "a maximum of 768
/// processors is available to a single parallel application".
pub const NCAR_P690_MAX_PROCS: usize = 768;

/// The four rows of Table 1.
pub fn table1() -> Vec<Resolution> {
    [8usize, 9, 16, 18]
        .iter()
        .map(|&ne| Resolution::for_ne(ne, NCAR_P690_MAX_PROCS).expect("paper sizes are valid"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let rows = table1();
        let expect = [
            (8usize, 384usize, 3usize, 0usize, 384usize),
            (9, 486, 0, 2, 486),
            (16, 1536, 4, 0, 768),
            (18, 1944, 1, 2, 486),
        ];
        assert_eq!(rows.len(), 4);
        for (row, (ne, k, h, m, paper_cap)) in rows.iter().zip(&expect) {
            assert_eq!(row.ne, *ne);
            assert_eq!(row.k, *k);
            assert_eq!(row.hilbert_levels, *h, "Ne={ne}");
            assert_eq!(row.mpeano_levels, *m, "Ne={ne}");
            assert_eq!(row.paper_max_nproc, *paper_cap, "Ne={ne}");
        }
        // Machine cap: K=1536 tops out at 768 processors.
        assert_eq!(rows[2].max_nproc, 768);
        // K=384 and K=486 are below the cap.
        assert_eq!(rows[0].max_nproc, 384);
        assert_eq!(rows[1].max_nproc, 486);
    }

    #[test]
    fn k1944_max_nproc_is_a_divisor_cap() {
        // 648 divides 1944 (1944/648 = 3) and 648 ≤ 768, so the
        // machine-divisor cap is 648 — but the paper's Table 1 reports
        // 486 (4 elements each) as the top count. `Resolution` exposes
        // both: `max_nproc` keeps the divisor cap (and all its
        // divisors), `paper_max_nproc` records what the paper ran.
        let r = Resolution::for_ne(18, NCAR_P690_MAX_PROCS).unwrap();
        assert_eq!(r.max_nproc, 648);
        assert_eq!(r.paper_max_nproc, 486);
        let procs = r.equal_share_procs();
        assert!(procs.contains(&486));
        assert!(procs.contains(&648));
        assert_eq!(*procs.last().unwrap(), 648);
        // Every other Table-1 row reports its divisor cap unchanged.
        for ne in [8, 9, 16] {
            let r = Resolution::for_ne(ne, NCAR_P690_MAX_PROCS).unwrap();
            assert_eq!(r.paper_max_nproc, r.max_nproc, "Ne={ne}");
        }
    }

    #[test]
    fn equal_share_procs_divide_k() {
        for r in table1() {
            for p in r.equal_share_procs() {
                assert_eq!(r.k % p, 0);
                assert_eq!(r.elems_per_proc(p) * p, r.k);
            }
        }
    }

    #[test]
    fn divisors_of_384() {
        let d = Resolution::for_ne(8, 384).unwrap().thinned_procs(100);
        assert_eq!(d.first(), Some(&1));
        assert_eq!(d.last(), Some(&384));
        assert!(d.contains(&96));
        assert!(d.iter().all(|p| 384 % p == 0));
    }

    #[test]
    fn divisors_capped_at_machine_size() {
        let d = Resolution::for_ne(16, 768).unwrap().thinned_procs(100);
        assert_eq!(d.last(), Some(&768));
        assert!(!d.contains(&1536));
    }

    #[test]
    fn thinning_keeps_large_counts() {
        let r = Resolution::for_ne(8, 384).unwrap();
        let all = r.equal_share_procs();
        let d = r.thinned_procs(5);
        assert_eq!(d.len(), 5);
        assert_eq!(d[0], 1);
        assert_eq!(d[1..], all[all.len() - 4..]);
        // A budget of one keeps the largest count, not the baseline.
        assert_eq!(r.thinned_procs(1), vec![384]);
        // A budget of zero, or one that covers every count, keeps them all.
        assert_eq!(r.thinned_procs(0), all);
        assert_eq!(r.thinned_procs(all.len()), all);
    }

    #[test]
    fn families_match_paper() {
        let rows = table1();
        assert_eq!(rows[0].family(), CurveFamily::Hilbert);
        assert_eq!(rows[1].family(), CurveFamily::MPeano);
        assert_eq!(rows[2].family(), CurveFamily::Hilbert);
        assert_eq!(rows[3].family(), CurveFamily::HilbertPeano);
    }

    #[test]
    fn non_sfc_sizes_are_rejected() {
        assert!(Resolution::for_ne(5, 768).is_none());
        assert!(Resolution::for_ne(1, 768).is_none());
    }
}
