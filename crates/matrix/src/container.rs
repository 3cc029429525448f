//! Roaring-style hybrid column containers.
//!
//! A dense `u64` row-bitmap ([`crate::bitmap`]) costs `n/8` bytes per
//! column no matter how sparse the column is; a sorted row list costs
//! `4` bytes per element no matter how dense. Roaring's observation is
//! that the right representation is a *local* choice: split the row
//! space into 2^16-row chunks and store each chunk in whichever of
//! three containers is smallest for its contents —
//!
//! * **array** — sorted `u16` low-bits, 2 bytes/element, for sparse
//!   chunks (≤ [`ARRAY_MAX_CARD`] elements);
//! * **bitmap** — a fixed 8 KiB `u64` bitmap, for dense chunks;
//! * **runs** — `(start, end)` inclusive intervals, 4 bytes/run, for
//!   clustered chunks (consecutive row blocks).
//!
//! Intersections then pick the cheapest kernel *pairwise*: same-type
//! containers use their natural kernel (merge, AND-popcount via the
//! SIMD-dispatched [`crate::kernel`], interval overlap), mixed pairs
//! use probe loops that walk the smaller side. Counts are exact and
//! byte-identical to the dense-bitmap and sorted-merge kernels — the
//! `kernel_equivalence` proptests pin every container-type pairing.
//!
//! [`HybridColumns`] mirrors the [`crate::bitmap::BitMatrix`] API
//! (`from_csc[_subset]`, `intersection_size`, `heap_bytes`) so the
//! in-memory verifier can swap representations under its byte cap, and
//! [`ContainerStats`] reports what the choice saved.

use crate::bitmap::words_for;
use crate::csc::SparseMatrix;

/// Rows per chunk: the `u16` low-bit space.
pub const CHUNK_ROWS: usize = 1 << 16;

/// Maximum cardinality stored as a sorted array (roaring's classic
/// 4096: above this a 2-byte/element array outgrows the 8 KiB bitmap).
pub const ARRAY_MAX_CARD: usize = 4096;

/// Words in a bitmap container (`2^16 / 64`).
const BITMAP_WORDS: usize = CHUNK_ROWS / 64;

/// Bytes of a bitmap container's payload.
pub const BITMAP_BYTES: usize = BITMAP_WORDS * 8;

/// One chunk's representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Container {
    /// Sorted, strictly ascending low 16 bits of each present row.
    Array(Vec<u16>),
    /// Fixed-size row bitmap over the chunk's 2^16 positions.
    Bitmap(Vec<u64>),
    /// Sorted, non-overlapping, non-adjacent `(start, end)` inclusive
    /// intervals of present rows.
    Runs(Vec<(u16, u16)>),
}

impl Container {
    /// Payload bytes of this representation.
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        match self {
            Self::Array(v) => v.len() * 2,
            Self::Bitmap(_) => BITMAP_BYTES,
            Self::Runs(r) => r.len() * 4,
        }
    }

    /// Number of rows present.
    #[must_use]
    pub fn cardinality(&self) -> usize {
        match self {
            Self::Array(v) => v.len(),
            Self::Bitmap(w) => w.iter().map(|x| x.count_ones() as usize).sum(),
            Self::Runs(r) => r
                .iter()
                .map(|&(s, e)| (e as usize) - (s as usize) + 1)
                .sum(),
        }
    }

    /// Builds the smallest container for the sorted low-bit values
    /// `lows` forming `n_runs` maximal consecutive runs.
    ///
    /// The choice is deterministic: the representation with the fewest
    /// payload bytes wins; ties prefer array over runs over bitmap
    /// (cheaper kernels at equal size).
    fn choose(lows: &[u16], n_runs: usize) -> Self {
        let card = lows.len();
        let runs_bytes = n_runs * 4;
        if card <= ARRAY_MAX_CARD {
            if runs_bytes < card * 2 {
                Self::build_runs(lows, n_runs)
            } else {
                Self::Array(lows.to_vec())
            }
        } else if runs_bytes < BITMAP_BYTES {
            Self::build_runs(lows, n_runs)
        } else {
            let mut words = vec![0u64; BITMAP_WORDS];
            for &v in lows {
                words[(v >> 6) as usize] |= 1u64 << (v & 63);
            }
            Self::Bitmap(words)
        }
    }

    fn build_runs(lows: &[u16], n_runs: usize) -> Self {
        let mut runs = Vec::with_capacity(n_runs);
        let mut iter = lows.iter().copied();
        if let Some(first) = iter.next() {
            let (mut start, mut end) = (first, first);
            for v in iter {
                if u32::from(v) == u32::from(end) + 1 {
                    end = v;
                } else {
                    runs.push((start, end));
                    start = v;
                    end = v;
                }
            }
            runs.push((start, end));
        }
        Self::Runs(runs)
    }
}

/// Counts maximal consecutive runs in a sorted ascending slice.
fn count_runs(lows: &[u16]) -> usize {
    let mut runs = 0usize;
    let mut prev: Option<u16> = None;
    for &v in lows {
        if prev.is_none_or(|p| u32::from(v) != u32::from(p) + 1) {
            runs += 1;
        }
        prev = Some(v);
    }
    runs
}

/// Payload bytes the chosen container for (`card`, `n_runs`) will use —
/// the same decision rule as [`Container::choose`], without building.
fn chosen_bytes(card: usize, n_runs: usize) -> usize {
    let runs_bytes = n_runs * 4;
    if card <= ARRAY_MAX_CARD {
        runs_bytes.min(card * 2)
    } else {
        runs_bytes.min(BITMAP_BYTES)
    }
}

/// `|a ∩ b|` of two containers over the same chunk, by the cheapest
/// pairwise kernel.
#[must_use]
pub fn container_intersection(a: &Container, b: &Container) -> usize {
    use Container::{Array, Bitmap, Runs};
    match (a, b) {
        (Array(x), Array(y)) => crate::column::intersection_size_adaptive(x, y),
        (Array(x), Bitmap(w)) | (Bitmap(w), Array(x)) => x
            .iter()
            .filter(|&&v| (w[(v >> 6) as usize] >> (v & 63)) & 1 == 1)
            .count(),
        (Array(x), Runs(r)) | (Runs(r), Array(x)) => array_runs_intersection(x, r),
        (Bitmap(u), Bitmap(v)) => crate::kernel::and_popcount(u, v),
        (Bitmap(w), Runs(r)) | (Runs(r), Bitmap(w)) => {
            r.iter().map(|&(s, e)| bitmap_range_popcount(w, s, e)).sum()
        }
        (Runs(p), Runs(q)) => runs_runs_intersection(p, q),
    }
}

/// Two-pointer probe of sorted values against sorted intervals.
fn array_runs_intersection(vals: &[u16], runs: &[(u16, u16)]) -> usize {
    let mut count = 0usize;
    let mut ri = 0usize;
    for &v in vals {
        while ri < runs.len() && runs[ri].1 < v {
            ri += 1;
        }
        if ri == runs.len() {
            break;
        }
        if runs[ri].0 <= v {
            count += 1;
        }
    }
    count
}

/// Popcount of bitmap bits in the inclusive range `[start, end]`.
fn bitmap_range_popcount(words: &[u64], start: u16, end: u16) -> usize {
    let (ws, we) = ((start >> 6) as usize, (end >> 6) as usize);
    let lo = u32::from(start & 63);
    let hi = u32::from(end & 63);
    if ws == we {
        // Width <= 64; checked_shl covers the full-word [0, 63] range.
        let width = hi - lo + 1;
        let mask = 1u64.checked_shl(width).map_or(u64::MAX, |m| m - 1);
        return ((words[ws] >> lo) & mask).count_ones() as usize;
    }
    let mut total = (words[ws] >> lo).count_ones() as usize;
    for w in &words[ws + 1..we] {
        total += w.count_ones() as usize;
    }
    let last_mask = 1u64.checked_shl(hi + 1).map_or(u64::MAX, |m| m - 1);
    total + (words[we] & last_mask).count_ones() as usize
}

/// Total overlap of two sorted interval lists.
fn runs_runs_intersection(p: &[(u16, u16)], q: &[(u16, u16)]) -> usize {
    let (mut i, mut j) = (0usize, 0usize);
    let mut total = 0usize;
    while i < p.len() && j < q.len() {
        let (s, e) = (p[i].0.max(q[j].0), p[i].1.min(q[j].1));
        if s <= e {
            total += (e as usize) - (s as usize) + 1;
        }
        if p[i].1 <= q[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// One column as chunked hybrid containers.
///
/// # Examples
///
/// ```
/// use sfa_matrix::container::HybridColumn;
///
/// let a = HybridColumn::from_rows(200_000, &[0, 1, 2, 70_000, 199_999]);
/// let b = HybridColumn::from_rows(200_000, &[2, 3, 70_000]);
/// assert_eq!(a.cardinality(), 5);
/// assert_eq!(a.intersection_size(&b), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HybridColumn {
    n_rows: u32,
    cardinality: u64,
    /// Sorted high-16-bit chunk keys; parallel to `chunks`. Empty
    /// chunks are not stored.
    keys: Vec<u16>,
    chunks: Vec<Container>,
}

impl HybridColumn {
    /// Chunks a strictly ascending row list, choosing each chunk's
    /// smallest container.
    ///
    /// # Panics
    ///
    /// Panics if a row id is `>= n_rows`.
    #[must_use]
    pub fn from_rows(n_rows: u32, rows: &[u32]) -> Self {
        assert!(rows.iter().all(|&r| r < n_rows), "row id out of range");
        let mut keys = Vec::new();
        let mut chunks = Vec::new();
        let mut start = 0usize;
        let mut lows: Vec<u16> = Vec::new();
        while start < rows.len() {
            let key = (rows[start] >> 16) as u16;
            let end = start + rows[start..].partition_point(|&r| (r >> 16) as u16 == key);
            lows.clear();
            lows.extend(rows[start..end].iter().map(|&r| (r & 0xFFFF) as u16));
            let n_runs = count_runs(&lows);
            keys.push(key);
            chunks.push(Container::choose(&lows, n_runs));
            start = end;
        }
        Self {
            n_rows,
            cardinality: rows.len() as u64,
            keys,
            chunks,
        }
    }

    /// Payload bytes [`from_rows`](Self::from_rows) would allocate for
    /// this row list — the cheap pre-pass behind cap accounting (no
    /// containers are built).
    #[must_use]
    pub fn payload_bytes_for_rows(rows: &[u32]) -> usize {
        let mut total = 0usize;
        let mut start = 0usize;
        while start < rows.len() {
            let key = rows[start] >> 16;
            let mut n_runs = 0usize;
            let mut prev: Option<u32> = None;
            let mut end = start;
            while end < rows.len() && rows[end] >> 16 == key {
                if prev != Some(rows[end].wrapping_sub(1)) {
                    n_runs += 1;
                }
                prev = Some(rows[end]);
                end += 1;
            }
            total += 2 + chosen_bytes(end - start, n_runs);
            start = end;
        }
        total
    }

    /// The number of rows the column spans.
    #[must_use]
    pub const fn n_rows(&self) -> u32 {
        self.n_rows
    }

    /// `|C|` (tracked at build time).
    #[must_use]
    pub const fn cardinality(&self) -> u64 {
        self.cardinality
    }

    /// Payload bytes actually held: 2 per chunk key plus each
    /// container's payload (`Vec` headers and enum tags excluded, same
    /// accounting style as [`crate::bitmap::BitMatrix::heap_bytes`]).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.keys.len() * 2
            + self
                .chunks
                .iter()
                .map(Container::payload_bytes)
                .sum::<usize>()
    }

    /// Per-type container tallies `(arrays, bitmaps, runs)`.
    #[must_use]
    pub fn container_counts(&self) -> (u64, u64, u64) {
        let mut counts = (0u64, 0u64, 0u64);
        for c in &self.chunks {
            match c {
                Container::Array(_) => counts.0 += 1,
                Container::Bitmap(_) => counts.1 += 1,
                Container::Runs(_) => counts.2 += 1,
            }
        }
        counts
    }

    /// `|C_i ∩ C_j|` by merging chunk keys and dispatching each shared
    /// chunk to the cheapest pairwise container kernel.
    #[must_use]
    pub fn intersection_size(&self, other: &Self) -> usize {
        let (mut i, mut j) = (0usize, 0usize);
        let mut total = 0usize;
        while i < self.keys.len() && j < other.keys.len() {
            match self.keys[i].cmp(&other.keys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    total += container_intersection(&self.chunks[i], &other.chunks[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        total
    }
}

/// Aggregate container tallies for a built [`HybridColumns`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContainerStats {
    /// Chunks stored as sorted arrays.
    pub array_containers: u64,
    /// Chunks stored as 8 KiB bitmaps.
    pub bitmap_containers: u64,
    /// Chunks stored as run lists.
    pub run_containers: u64,
    /// Actual payload bytes of all hybrid columns.
    pub container_bytes: u64,
    /// What dense `⌈n/64⌉`-word bitmaps over the same columns would
    /// cost (the [`crate::bitmap::BitMatrix`] footprint).
    pub raw_bitmap_bytes: u64,
}

/// Hybrid containers for a set of CSC columns — the drop-in
/// counterpart of [`crate::bitmap::BitMatrix`] for compressed exact
/// counting.
///
/// # Examples
///
/// ```
/// use sfa_matrix::{container::HybridColumns, SparseMatrix};
///
/// let m = SparseMatrix::from_columns(4, vec![
///     vec![0, 1], vec![0, 1, 2], vec![2, 3],
/// ]).unwrap();
/// let hybrid = HybridColumns::from_csc(&m);
/// assert_eq!(hybrid.intersection_size(0, 1), 2);
/// assert_eq!(hybrid.intersection_size(0, 2), 0);
/// ```
#[derive(Debug, Clone)]
pub struct HybridColumns {
    n_rows: u32,
    cols: Vec<HybridColumn>,
}

impl HybridColumns {
    /// Builds hybrid containers for every column of `matrix`.
    #[must_use]
    pub fn from_csc(matrix: &SparseMatrix) -> Self {
        let cols: Vec<u32> = (0..matrix.n_cols()).collect();
        Self::from_csc_subset(matrix, &cols)
    }

    /// Builds only the listed columns, in the order given; index `t`
    /// corresponds to `cols[t]`. Only the container verifier, the
    /// benchmark's phase-3 probe, calls it; no pipeline path does.
    ///
    /// # Panics
    ///
    /// Panics if a column id is out of range.
    #[must_use]
    pub fn from_csc_subset(matrix: &SparseMatrix, cols: &[u32]) -> Self {
        let n_rows = matrix.n_rows();
        let cols = cols
            .iter()
            .map(|&j| HybridColumn::from_rows(n_rows, matrix.column(j)))
            .collect();
        Self { n_rows, cols }
    }

    /// Payload bytes [`from_csc_subset`](Self::from_csc_subset) would
    /// allocate, without building anything — the container verifier's
    /// cap pre-pass (the benchmark's probe; no pipeline path calls it).
    #[must_use]
    pub fn payload_bytes_for_subset(matrix: &SparseMatrix, cols: &[u32]) -> usize {
        cols.iter()
            .map(|&j| HybridColumn::payload_bytes_for_rows(matrix.column(j)))
            .sum()
    }

    /// Number of materialized columns.
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// The number of rows each column spans.
    #[must_use]
    pub const fn n_rows(&self) -> u32 {
        self.n_rows
    }

    /// Materialized column `t`.
    #[must_use]
    pub fn column(&self, t: usize) -> &HybridColumn {
        &self.cols[t]
    }

    /// `|C_i ∩ C_j|` of materialized columns `a` and `b`.
    #[must_use]
    pub fn intersection_size(&self, a: usize, b: usize) -> usize {
        self.cols[a].intersection_size(&self.cols[b])
    }

    /// Total payload bytes (see [`HybridColumn::heap_bytes`]).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.cols.iter().map(HybridColumn::heap_bytes).sum()
    }

    /// Aggregate container tallies, including the dense-bitmap bytes
    /// the same columns would have cost.
    #[must_use]
    pub fn stats(&self) -> ContainerStats {
        let mut s = ContainerStats {
            raw_bitmap_bytes: (self.cols.len() * words_for(self.n_rows) * 8) as u64,
            container_bytes: self.heap_bytes() as u64,
            ..ContainerStats::default()
        };
        for col in &self.cols {
            let (a, b, r) = col.container_counts();
            s.array_containers += a;
            s.bitmap_containers += b;
            s.run_containers += r;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column;

    fn col(n_rows: u32, rows: &[u32]) -> HybridColumn {
        HybridColumn::from_rows(n_rows, rows)
    }

    #[test]
    fn representation_choice_is_by_size() {
        // 3 scattered values: array (6 B) beats runs (12 B).
        let sparse = col(CHUNK_ROWS as u32, &[5, 100, 9000]);
        assert_eq!(sparse.container_counts(), (1, 0, 0));
        // One long consecutive block: runs (4 B) beats everything.
        let rows: Vec<u32> = (1000..12_000).collect();
        let runny = col(CHUNK_ROWS as u32, &rows);
        assert_eq!(runny.container_counts(), (0, 0, 1));
        assert_eq!(runny.heap_bytes(), 2 + 4);
        // > 4096 scattered values (step 2 breaks every run): bitmap.
        let rows: Vec<u32> = (0..5000u32).map(|i| i * 2).collect();
        let dense = col(CHUNK_ROWS as u32, &rows);
        assert_eq!(dense.container_counts(), (0, 1, 0));
        assert_eq!(dense.heap_bytes(), 2 + BITMAP_BYTES);
    }

    #[test]
    fn payload_estimate_matches_built_bytes() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            (0..20_000).collect(),
            (0..10_000u32).map(|i| i * 13).collect(),
            (0..9000u32).map(|i| i * 2).collect(),
            vec![1, 2, 3, 70_000, 70_001, 140_000],
        ];
        for rows in cases {
            let est = HybridColumn::payload_bytes_for_rows(&rows);
            let built = col(200_000, &rows).heap_bytes();
            assert_eq!(est, built, "rows.len()={}", rows.len());
        }
    }

    #[test]
    fn intersections_match_sorted_merge_across_all_pairings() {
        let n: u32 = 300_000;
        // One row list per container flavor, spread over several chunks.
        let array_rows: Vec<u32> = (0..n).step_by(37).collect();
        let run_rows: Vec<u32> = (0..n).filter(|r| r % 10_000 < 3_000).collect();
        let bitmap_rows: Vec<u32> = (0..n).step_by(3).collect();
        let sets = [array_rows, run_rows, bitmap_rows];
        for a in &sets {
            for b in &sets {
                let want = column::intersection_size(a, b);
                let got = col(n, a).intersection_size(&col(n, b));
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn cardinality_tracks_exactly() {
        let a_rows: Vec<u32> = (0..100_000).step_by(7).collect();
        let b_rows: Vec<u32> = (0..100_000).step_by(11).collect();
        let (a, b) = (col(100_000, &a_rows), col(100_000, &b_rows));
        assert_eq!(a.cardinality() as usize, a_rows.len());
        let inter = column::intersection_size(&a_rows, &b_rows);
        assert_eq!(a.intersection_size(&b), inter);
    }

    #[test]
    fn chunk_edges_are_exact() {
        // Rows straddling chunk boundaries 65535/65536 and word edges.
        let rows = [63, 64, 65_535, 65_536, 65_537, 131_071, 131_072];
        let a = col(200_000, &rows);
        assert_eq!(a.intersection_size(&a), rows.len());
        let b = col(200_000, &[65_535, 131_072]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(b.container_counts().0, 2, "two sparse chunks");
    }

    #[test]
    fn bitmap_range_popcount_handles_word_edges() {
        let mut words = vec![0u64; BITMAP_WORDS];
        for r in 0..CHUNK_ROWS {
            words[r >> 6] |= 1u64 << (r & 63);
        }
        assert_eq!(bitmap_range_popcount(&words, 0, 65_535), CHUNK_ROWS);
        assert_eq!(bitmap_range_popcount(&words, 63, 64), 2);
        assert_eq!(bitmap_range_popcount(&words, 0, 0), 1);
        assert_eq!(bitmap_range_popcount(&words, 64, 127), 64);
        assert_eq!(bitmap_range_popcount(&words, 65_535, 65_535), 1);
    }

    #[test]
    #[should_panic(expected = "row id out of range")]
    fn out_of_range_rows_panic() {
        let _ = col(10, &[10]);
    }

    fn example() -> SparseMatrix {
        SparseMatrix::from_columns(4, vec![vec![0, 1], vec![0, 1, 2], vec![2, 3]]).unwrap()
    }

    #[test]
    fn hybrid_columns_match_csc_intersections() {
        let m = example();
        let h = HybridColumns::from_csc(&m);
        assert_eq!(h.n_cols(), 3);
        for i in 0..3u32 {
            for j in 0..3u32 {
                assert_eq!(
                    h.intersection_size(i as usize, j as usize),
                    m.intersection_size(i, j),
                    "pair ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn subset_uses_given_order_and_estimates_agree() {
        let m = example();
        let h = HybridColumns::from_csc_subset(&m, &[2, 0]);
        assert_eq!(h.n_cols(), 2);
        assert_eq!(h.intersection_size(0, 1), m.intersection_size(2, 0));
        assert_eq!(
            HybridColumns::payload_bytes_for_subset(&m, &[2, 0]),
            h.heap_bytes()
        );
    }

    #[test]
    fn stats_expose_the_compression_win() {
        // 2000 sparse columns over many rows: arrays beat dense bitmaps.
        let n_rows = 100_000u32;
        let cols: Vec<Vec<u32>> = (0..200u32)
            .map(|j| (0..20u32).map(|i| (i * 4999 + j * 17) % n_rows).collect())
            .map(|mut v: Vec<u32>| {
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let m = SparseMatrix::from_columns(n_rows, cols).unwrap();
        let h = HybridColumns::from_csc(&m);
        let s = h.stats();
        assert_eq!(s.container_bytes, h.heap_bytes() as u64);
        assert_eq!(s.raw_bitmap_bytes, (200 * words_for(n_rows) * 8) as u64);
        assert!(
            s.container_bytes < s.raw_bitmap_bytes,
            "sparse columns must compress: {} vs {}",
            s.container_bytes,
            s.raw_bitmap_bytes
        );
        assert!(s.array_containers > 0);
    }
}
