//! Signature containers.
//!
//! The MH scheme summarizes the `n × m` matrix `M` as a `k × m` matrix `M̂`
//! of min-hash values ("The matrix M̂ can be viewed as a compact
//! representation of the matrix M", §3). [`SignatureMatrix`] is `M̂`;
//! the K-MH bottom-k sketches live in
//! [`BottomKSignatures`](crate::kmh::BottomKSignatures).

/// Sentinel stored for a column with no 1s at all (no row ever updated its
/// min). Two all-zero columns must *not* be reported as similar, so the
/// sentinel never counts as an agreement.
pub const EMPTY_SIGNATURE: u64 = u64::MAX;

/// The `k × m` matrix `M̂` of min-hash values, stored row-major
/// (`values[l·m + j] = h_l(c_j)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureMatrix {
    k: usize,
    m: usize,
    values: Vec<u64>,
}

impl SignatureMatrix {
    /// Wraps raw values (row-major, length `k·m`).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != k * m`.
    #[must_use]
    pub fn from_values(k: usize, m: usize, values: Vec<u64>) -> Self {
        assert_eq!(values.len(), k * m, "values length must be k·m");
        Self { k, m, values }
    }

    /// Builds a matrix from column-major values
    /// (`values[j·k + l] = h_l(c_j)`) — the layout the streaming builder
    /// keeps so a row's hash vector min-merges into each touched column
    /// as one contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != k * m`.
    #[must_use]
    pub(crate) fn from_col_major(k: usize, m: usize, values: &[u64]) -> Self {
        assert_eq!(values.len(), k * m, "values length must be k·m");
        let mut out = vec![0u64; k * m];
        for j in 0..m {
            for (l, &v) in values[j * k..(j + 1) * k].iter().enumerate() {
                out[l * m + j] = v;
            }
        }
        Self { k, m, values: out }
    }

    /// Number of hash functions `k`.
    #[must_use]
    pub const fn k(&self) -> usize {
        self.k
    }

    /// Number of columns `m`.
    #[must_use]
    pub const fn m(&self) -> usize {
        self.m
    }

    /// The min-hash value `h_l(c_j)`.
    #[inline]
    #[must_use]
    pub fn get(&self, l: usize, j: u32) -> u64 {
        self.values[l * self.m + j as usize]
    }

    /// The `l`th signature row `(h_l(c_0), …, h_l(c_{m−1}))`.
    #[must_use]
    pub fn row(&self, l: usize) -> &[u64] {
        &self.values[l * self.m..(l + 1) * self.m]
    }

    /// Resident heap size of the signature values: `k · m · 8` bytes — the
    /// `O(mk)` memory the paper budgets for phase 1.
    #[must_use]
    pub fn heap_bytes(&self) -> u64 {
        (self.values.len() * std::mem::size_of::<u64>()) as u64
    }

    /// The `k` min-hash values of column `j` (allocates; for hot paths use
    /// [`get`](Self::get) with a stride loop).
    #[must_use]
    pub fn column(&self, j: u32) -> Vec<u64> {
        (0..self.k).map(|l| self.get(l, j)).collect()
    }

    /// Number of rows on which columns `i` and `j` agree (sentinel values
    /// never agree).
    #[must_use]
    pub fn agreement_count(&self, i: u32, j: u32) -> usize {
        (0..self.k)
            .filter(|&l| {
                let a = self.get(l, i);
                a != EMPTY_SIGNATURE && a == self.get(l, j)
            })
            .count()
    }

    /// `Ŝ(c_i, c_j)` — the fraction of agreeing min-hash values
    /// (Definition 1), the estimator of `S(c_i, c_j)`.
    #[must_use]
    pub fn s_hat(&self, i: u32, j: u32) -> f64 {
        if self.k == 0 {
            0.0
        } else {
            self.agreement_count(i, j) as f64 / self.k as f64
        }
    }

    /// Component-wise minimum of two columns' signatures — the signature of
    /// the boolean OR column `c_i ∨ c_j` (§7: "the hash values for the
    /// induced column `c_j ∨ c_j'` can be easily computed by taking the
    /// component-wise minimum").
    #[must_use]
    pub fn or_signature(&self, i: u32, j: u32) -> Vec<u64> {
        (0..self.k)
            .map(|l| self.get(l, i).min(self.get(l, j)))
            .collect()
    }

    /// Agreement count between column `i` and an externally built signature
    /// vector (used by the §7 OR-composition queries).
    ///
    /// # Panics
    ///
    /// Panics if `sig.len() != k`.
    #[must_use]
    pub fn agreement_with(&self, i: u32, sig: &[u64]) -> usize {
        assert_eq!(sig.len(), self.k, "signature length must be k");
        (0..self.k)
            .filter(|&l| {
                let a = self.get(l, i);
                a != EMPTY_SIGNATURE && a == sig[l]
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SignatureMatrix {
        // k = 3, m = 2; columns agree on rows 0 and 2.
        SignatureMatrix::from_values(3, 2, vec![5, 5, 9, 8, 1, 1])
    }

    #[test]
    fn accessors() {
        let s = sample();
        assert_eq!(s.k(), 3);
        assert_eq!(s.m(), 2);
        assert_eq!(s.get(0, 0), 5);
        assert_eq!(s.get(1, 1), 8);
        assert_eq!(s.row(1), &[9, 8]);
        assert_eq!(s.column(1), vec![5, 8, 1]);
    }

    #[test]
    fn agreement_and_s_hat() {
        let s = sample();
        assert_eq!(s.agreement_count(0, 1), 2);
        assert!((s.s_hat(0, 1) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.s_hat(0, 0), 1.0);
    }

    #[test]
    fn sentinel_never_agrees() {
        let s = SignatureMatrix::from_values(2, 2, vec![EMPTY_SIGNATURE, EMPTY_SIGNATURE, 3, 3]);
        // Row 0 is two empty columns: must not count.
        assert_eq!(s.agreement_count(0, 1), 1);
    }

    #[test]
    fn all_sentinel_columns_never_agree() {
        let s = SignatureMatrix::from_values(2, 3, vec![EMPTY_SIGNATURE; 6]);
        assert_eq!(s.agreement_count(0, 1), 0);
        assert_eq!(s.s_hat(0, 1), 0.0);
    }

    #[test]
    fn or_signature_is_componentwise_min() {
        let s = sample();
        assert_eq!(s.or_signature(0, 1), vec![5, 8, 1]);
    }

    #[test]
    fn agreement_with_external_signature() {
        let s = sample();
        let or01 = s.or_signature(0, 1);
        // Column 0 = [5,9,1]; or = [5,8,1] → agreements at rows 0 and 2.
        assert_eq!(s.agreement_with(0, &or01), 2);
    }

    #[test]
    #[should_panic(expected = "values length must be k·m")]
    fn from_values_checks_length() {
        let _ = SignatureMatrix::from_values(2, 2, vec![0; 3]);
    }
}
