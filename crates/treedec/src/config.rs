//! Tunable constants of the `Sep` algorithm (paper §3.3).

/// Constants steering `Sep`. All ratios are kept as integer fractions so the
/// paper's values are representable exactly.
#[derive(Clone, Copy, Debug)]
pub struct SepConfig {
    /// Step 1 cutoff: output X whole when µ(G) ≤ `small_cutoff`·t².
    /// Paper: 200.
    pub small_cutoff: u64,
    /// Split-tree minimum size denominator: sizes ≥ µ(G)/(`split_lo`·t).
    /// Paper: 12.
    pub split_lo: u64,
    /// Split-tree "stay in T" threshold denominator: trees > µ(G)/(`split_hi`·t)
    /// keep being split. Paper: 4.
    pub split_hi: u64,
    /// Balance target α = `balance_num`/`balance_den`: a separator is
    /// accepted when every remaining component has µ ≤ α·µ(G).
    /// Paper: 14399/14400. Practical: 7/8.
    pub balance_num: u64,
    /// See [`Self::balance_num`].
    pub balance_den: u64,
    /// Iteration count ĉ = ⌈`iters_num`·t/`iters_den`⌉. Paper: 301/300.
    /// Practical: 2/1.
    pub iters_num: u64,
    /// See [`Self::iters_num`].
    pub iters_den: u64,
    /// Ordered tree pairs sampled per iteration at step 4. Paper: 95.
    pub sampled_pairs: usize,
    /// Step-4 retries before concluding t < τ+1 and doubling t.
    /// Paper: 5·log n (pass the evaluated value).
    pub trials: usize,
    /// Practical extension: accept R* ∪ Z as the separator when Z alone is
    /// not balanced (strict superset of the paper's acceptance; same O(t²)
    /// size bound). Paper behaviour: false.
    pub union_fallback: bool,
}

impl SepConfig {
    /// The verbatim constants of §3.3 (use only on small instances: the
    /// 1−1/14400 balance makes recursion depth ≈ 14400·ln n).
    pub fn paper(n: usize) -> Self {
        SepConfig {
            small_cutoff: 200,
            split_lo: 12,
            split_hi: 4,
            balance_num: 14399,
            balance_den: 14400,
            iters_num: 301,
            iters_den: 300,
            sampled_pairs: 95,
            trials: 5 * n.max(2).ilog2() as usize,
            union_fallback: false,
        }
    }

    /// Laptop-scale constants with the same algorithm structure
    /// (DESIGN.md §4.3). Default everywhere.
    pub fn practical(n: usize) -> Self {
        SepConfig {
            small_cutoff: 2,
            split_lo: 12,
            split_hi: 4,
            balance_num: 7,
            balance_den: 8,
            iters_num: 2,
            iters_den: 1,
            sampled_pairs: 12,
            trials: 2 + n.max(2).ilog2() as usize / 2,
            union_fallback: true,
        }
    }

    /// ĉ(t): the number of harvest iterations.
    pub fn iterations(&self, t: u64) -> u64 {
        (self.iters_num * t).div_ceil(self.iters_den).max(1)
    }

    /// Whether a component-measure profile is α-balanced w.r.t. total `mu_g`:
    /// every component's measure must be ≤ α·µ(G).
    pub fn is_balanced(&self, largest_component_mu: u64, mu_g: u64) -> bool {
        largest_component_mu * self.balance_den <= self.balance_num * mu_g
    }

    /// The guaranteed separator size bound for this configuration,
    /// `O(t²)` with the config's constants made explicit — used by tests
    /// and experiment tables. Conservative: covers both the R* and the Z
    /// output paths (and their union when `union_fallback`).
    pub fn size_bound(&self, t: u64) -> u64 {
        let iters = self.iterations(t);
        // R* ≤ iters · (split_lo·t + 1); Z ≤ iters · sampled_pairs · t.
        let r_star = iters * (self.split_lo * t + t / 10 + 2);
        let z = iters * self.sampled_pairs as u64 * t;
        let small = self.small_cutoff * t * t;
        if self.union_fallback {
            (r_star + z).max(small)
        } else {
            r_star.max(z).max(small)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let c = SepConfig::paper(1024);
        assert_eq!(c.small_cutoff, 200);
        assert_eq!(c.iterations(300), 301);
        assert_eq!(c.trials, 50);
        assert!(!c.union_fallback);
    }

    #[test]
    fn balance_check() {
        let c = SepConfig::practical(100);
        // 7/8 balance: 87/100 ok, 88/100 not.
        assert!(c.is_balanced(87, 100));
        assert!(!c.is_balanced(88, 100));
    }

    #[test]
    fn iterations_round_up() {
        let c = SepConfig::paper(16);
        assert_eq!(c.iterations(1), 2); // ⌈301/300⌉
        let p = SepConfig::practical(16);
        assert_eq!(p.iterations(3), 6);
    }

    #[test]
    fn size_bound_quadratic() {
        let c = SepConfig::practical(1000);
        assert!(c.size_bound(4) < c.size_bound(8));
        // Bound is O(t²): ratio between t and 2t stays below ~4.5.
        let r = c.size_bound(16) as f64 / c.size_bound(8) as f64;
        assert!(r < 4.5, "ratio {r}");
    }
}
