//! IBM Quest-style synthetic market-basket data.
//!
//! The a priori literature (Agrawal & Srikant, VLDB '94 — reference \[2\] of
//! the paper) evaluates on synthetic transaction data named `T10.I4.D100K`:
//! average transaction size `T`, average pattern size `I`, `D` transactions
//! drawn from a pool of correlated "maximal potentially large itemsets".
//! This generator reproduces that scheme so the baseline can be exercised
//! on its home turf, and so the support-free schemes can be compared on
//! data with genuine frequent-itemset structure.

use rand::{Rng, SeedableRng};

use sfa_matrix::{MatrixBuilder, SparseMatrix};

use crate::zipf::ZipfSampler;

/// Configuration for the Quest-style generator.
#[derive(Debug, Clone)]
pub struct BasketConfig {
    /// Number of transactions `D`.
    pub n_transactions: u32,
    /// Number of items `N`.
    pub n_items: u32,
    /// Average transaction size `T` (Poisson-ish via geometric).
    pub avg_transaction_len: f64,
    /// Average pattern size `I`.
    pub avg_pattern_len: f64,
    /// Number of potentially-large itemsets `L`.
    pub n_patterns: usize,
    /// Probability a chosen pattern item is actually emitted (corruption
    /// level; Quest uses ~0.5–0.9).
    pub pattern_fidelity: f64,
    /// Root seed.
    pub seed: u64,
}

impl BasketConfig {
    /// A scaled-down `T10.I4` preset.
    #[must_use]
    pub fn t10_i4(n_transactions: u32, seed: u64) -> Self {
        Self {
            n_transactions,
            n_items: 1_000,
            avg_transaction_len: 10.0,
            avg_pattern_len: 4.0,
            n_patterns: 200,
            pattern_fidelity: 0.75,
            seed,
        }
    }
}

/// The generated transactions with their source patterns (ground truth for
/// "these itemsets should be frequent").
#[derive(Debug, Clone)]
pub struct BasketData {
    /// Transactions × items, column-major (columns are items).
    pub matrix: SparseMatrix,
    /// The potentially-large itemsets the transactions were built from.
    pub patterns: Vec<Vec<u32>>,
}

impl BasketConfig {
    /// Generates the dataset.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configuration.
    #[must_use]
    pub fn generate(&self) -> BasketData {
        assert!(self.n_transactions > 0 && self.n_items > 0, "empty config");
        assert!(self.n_patterns > 0, "need at least one pattern");
        assert!((0.0..=1.0).contains(&self.pattern_fidelity), "bad fidelity");
        assert!(
            self.avg_transaction_len >= 1.0 && self.avg_pattern_len >= 1.0,
            "lengths must be >= 1"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);

        // Patterns: random item sets with geometric sizes around I; item
        // choice is Zipf-weighted so patterns share popular items, as in
        // Quest ("items in the large itemsets are picked so that some are
        // common").
        let zipf = ZipfSampler::new(self.n_items as usize, 0.8);
        let pattern_stop = 1.0 / self.avg_pattern_len;
        let mut patterns: Vec<Vec<u32>> = Vec::with_capacity(self.n_patterns);
        while patterns.len() < self.n_patterns {
            let mut len = 1;
            while rng.gen::<f64>() > pattern_stop && len < 20 {
                len += 1;
            }
            let mut items: Vec<u32> = (0..len).map(|_| zipf.sample(&mut rng) as u32).collect();
            items.sort_unstable();
            items.dedup();
            if !items.is_empty() {
                patterns.push(items);
            }
        }
        // Pattern popularity is itself skewed.
        let pattern_pick = ZipfSampler::new(self.n_patterns, 1.0);

        let tx_stop = 1.0 / self.avg_transaction_len;
        let mut builder = MatrixBuilder::with_capacity(
            self.n_transactions,
            self.n_items,
            (f64::from(self.n_transactions) * self.avg_transaction_len) as usize,
        );
        for t in 0..self.n_transactions {
            // Target length ~ Geometric(mean T).
            let mut target = 1usize;
            while rng.gen::<f64>() > tx_stop && target < 100 {
                target += 1;
            }
            let mut emitted = 0usize;
            while emitted < target {
                let pat = &patterns[pattern_pick.sample(&mut rng)];
                for &item in pat {
                    if rng.gen::<f64>() < self.pattern_fidelity {
                        builder.add_entry(t, item).expect("item id in range");
                        emitted += 1;
                    }
                }
                // Guard against zero-progress loops on tiny fidelity.
                if self.pattern_fidelity < 0.05 {
                    break;
                }
            }
        }
        BasketData {
            matrix: builder.build_csc(),
            patterns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_config() {
        let cfg = BasketConfig::t10_i4(2_000, 1);
        let data = cfg.generate();
        assert_eq!(data.matrix.n_rows(), 2_000);
        assert_eq!(data.matrix.n_cols(), 1_000);
        assert_eq!(data.patterns.len(), 200);
    }

    #[test]
    fn transaction_lengths_average_near_t() {
        let cfg = BasketConfig::t10_i4(3_000, 2);
        let data = cfg.generate();
        let rows = data.matrix.transpose();
        let avg = rows.nnz() as f64 / f64::from(rows.n_rows());
        assert!(
            (5.0..20.0).contains(&avg),
            "average transaction length {avg} too far from T = 10"
        );
    }

    #[test]
    fn popular_patterns_become_frequent_itemsets() {
        // The head pattern should reach meaningful support as an itemset.
        let cfg = BasketConfig::t10_i4(3_000, 3);
        let data = cfg.generate();
        let rows = data.matrix.transpose();
        let counts = rows.column_counts();
        // The most popular pattern's items are individually frequent.
        let head = &data.patterns[0];
        for &item in head {
            assert!(
                counts[item as usize] > 30,
                "head pattern item {item} support {}",
                counts[item as usize]
            );
        }
        // And apriori finds frequent pairs at a support a priori can use.
        let (sets, _) = sfa_apriori_shim::frequent_itemsets(&rows, 30, 2);
        assert!(
            sets.iter().any(|s| s.items.len() == 2),
            "no frequent pairs at support 30"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            BasketConfig::t10_i4(500, 9).generate().matrix,
            BasketConfig::t10_i4(500, 9).generate().matrix
        );
    }

    /// Local shim so the test can call a priori without a circular
    /// dev-dependency (`sfa-apriori` dev-depends on `sfa-datagen`): a
    /// minimal level-1/2 counter sufficient for the assertion above.
    mod sfa_apriori_shim {
        use sfa_matrix::RowMajorMatrix;

        pub struct ItemSet {
            pub items: Vec<u32>,
        }

        pub fn frequent_itemsets(
            m: &RowMajorMatrix,
            min_support: u32,
            _max_k: usize,
        ) -> (Vec<ItemSet>, ()) {
            let counts = m.column_counts();
            let mut out: Vec<ItemSet> = counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c >= min_support)
                .map(|(j, _)| ItemSet {
                    items: vec![j as u32],
                })
                .collect();
            let mut pair_counts = std::collections::HashMap::new();
            for (_, row) in m.rows() {
                let frequent: Vec<u32> = row
                    .iter()
                    .copied()
                    .filter(|&c| counts[c as usize] >= min_support)
                    .collect();
                for (a, &ci) in frequent.iter().enumerate() {
                    for &cj in &frequent[a + 1..] {
                        *pair_counts.entry((ci, cj)).or_insert(0) += 1;
                    }
                }
            }
            out.extend(
                pair_counts
                    .into_iter()
                    .filter(|&(_, c)| c >= min_support)
                    .map(|((i, j), _)| ItemSet { items: vec![i, j] }),
            );
            (out, ())
        }
    }
}
