//! The phase-2 counting kernel: a bucket index plus the paper's
//! column-at-a-time counter loop (§3.1 Row-Sorting).
//!
//! Every candidate generator reduces to the same question: for each pair
//! of columns, in how many *tables* do they share a key? A table is one
//! set of `(key, column)` entries — one MH signature row, one M-LSH band,
//! one H-LSH run, or K-MH's single table of sketch values. The index
//! groups each table's equal keys into *buckets*, keeps the buckets of at
//! least two columns as a CSR (each bucket's columns ascending, buckets
//! back to back), and inverts it: for every column, the range of its
//! *later* partners in each of its buckets, stored directly so counting
//! needs no search.
//!
//! Counting then walks focus columns `i` in ascending order and adds each
//! later partner `j > i` into a dense accumulator of `m` slots
//! ([`SparseCounters`]) — "we reuse the same `O(m)` counters … and
//! remember and reinitialize only counters that were incremented at
//! least once". Memory is linear in bucket entries (at most one per key
//! of every table), never in the number of co-occurring pairs, and pairs
//! come out in `(i, j)` order with no pair table to sort or merge.

use std::ops::Range;

use sfa_par::ThreadPool;

use crate::bucket::SparseCounters;

/// Fibonacci hashing constant (2^64 / φ, forced odd): the grouping step
/// indexes its table by the high bits of `key · FIB_MUL`, which depend on
/// every key bit — min-hash values are minima, so their own high bits
/// cluster near zero.
const FIB_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Largest table grouped through the slot array (at most `2^17` slots,
/// 512 KiB); larger tables are sorted in place, which needs no memory
/// beyond their entries.
const HASH_GROUP_MAX: usize = 1 << 15;

/// Focus-column parts dealt out per pool worker, for dynamic balance.
const PARTS_PER_WORKER: usize = 4;

/// The bucket CSR of every table plus its column → later-partner inverse.
///
/// Built once per generator run by [`BucketIndex::build`]; walked by
/// [`PairWalker`] (sequential, one focus column at a time) or
/// [`BucketIndex::par_walk`] (focus-column ranges over a pool).
#[derive(Debug, Clone, Default)]
pub struct BucketIndex {
    m: usize,
    /// Columns of every kept bucket, ascending within a bucket.
    cols: Vec<u32>,
    /// Column `c`'s partner ranges are `ranges[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    /// `(lo, hi)`: the later partners of one column slot, `cols[lo..hi]`.
    ranges: Vec<(u32, u32)>,
    histogram: Vec<u64>,
    increments: u64,
}

/// One worker's grouped buckets (of ≥ 2 columns), back to back.
#[derive(Default)]
struct Buckets {
    cols: Vec<u32>,
    /// Exclusive end of each bucket in `cols`.
    ends: Vec<u32>,
    /// Occupancy of the kept buckets (sizes ≥ 2).
    histogram: Vec<u64>,
    /// Buckets of a single column (never kept).
    singles: u64,
    increments: u64,
}

impl Buckets {
    /// Records one bucket of `size ≥ 2` columns, `cols` ascending.
    fn push(&mut self, cols: impl IntoIterator<Item = u32>) {
        let start = self.cols.len();
        self.cols.extend(cols);
        let size = self.cols.len() - start;
        if self.histogram.len() <= size {
            self.histogram.resize(size + 1, 0);
        }
        self.histogram[size] += 1;
        self.ends
            .push(u32::try_from(self.cols.len()).expect("bucket entries fit u32"));
        self.increments += (size * (size - 1) / 2) as u64;
    }

    /// Records every maximal run of equal keys of a `(key, column)`-sorted
    /// slice.
    fn push_runs(&mut self, sorted: &[(u64, u32)]) {
        for run in sorted.chunk_by(|a, b| a.0 == b.0) {
            if run.len() == 1 {
                self.singles += 1;
            } else {
                self.push(run.iter().map(|&(_, c)| c));
            }
        }
    }
}

/// Per-worker grouping state: the table filler and reusable buffers.
struct Grouper<F> {
    fill: F,
    entries: Vec<(u64, u32)>,
    /// Open-addressing slots: `1 + ` the index of the first entry holding
    /// a key, 0 when empty.
    slots: Vec<u32>,
    /// `next[e]`: the entry after `e` in its key's chain (`NONE` ends it).
    next: Vec<u32>,
    /// `last[h]`: the chain tail of first entry `h`, once it has a chain.
    last: Vec<u32>,
    /// First entries whose key repeats, in discovery order.
    chained: Vec<u32>,
    bucket: Vec<u32>,
    out: Buckets,
}

/// Chain terminator.
const NONE: u32 = u32::MAX;

impl<F: FnMut(usize, &mut Vec<(u64, u32)>)> Grouper<F> {
    /// Fills table `t` and groups its equal keys. A table that fits the
    /// cache-sized slot array goes through one pass inserting every entry
    /// into an open-addressing table (at most half full) keyed by the
    /// multiplicative hash of its key, chaining each repeat to its key's
    /// first entry — most keys of a sparse table are unique, so most
    /// entries cost one probe and no comparison, about half the time of
    /// sorting the table. A larger table is sorted in place instead: the
    /// slot and chain arrays would add 16 bytes or more per entry to the
    /// peak memory of a large single-table build (K-MH).
    fn group(&mut self, t: usize) {
        self.entries.clear();
        (self.fill)(t, &mut self.entries);
        let n = self.entries.len();
        if n > HASH_GROUP_MAX {
            self.entries.sort_unstable();
            self.out.push_runs(&self.entries);
            return;
        }
        let bits = (usize::BITS - n.leading_zeros() + 1).max(4);
        let mask = (1usize << bits) - 1;
        self.slots.clear();
        self.slots.resize(1 << bits, 0);
        self.next.clear();
        self.next.resize(n, NONE);
        self.last.clear();
        self.last.resize(n, NONE);
        self.chained.clear();
        for idx in 0..n {
            let key = self.entries[idx].0;
            let mut slot = (key.wrapping_mul(FIB_MUL) >> (64 - bits)) as usize;
            loop {
                let held = self.slots[slot];
                if held == 0 {
                    self.slots[slot] = idx as u32 + 1;
                    break;
                }
                let first = held as usize - 1;
                if self.entries[first].0 == key {
                    let tail = match self.last[first] {
                        NONE => {
                            self.chained.push(first as u32);
                            first
                        }
                        tail => tail as usize,
                    };
                    self.next[tail] = idx as u32;
                    self.last[first] = idx as u32;
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        let mut in_buckets = 0;
        for &first in &self.chained {
            self.bucket.clear();
            let mut e = first;
            while e != NONE {
                self.bucket.push(self.entries[e as usize].1);
                e = self.next[e as usize];
            }
            if !self.bucket.is_sorted() {
                self.bucket.sort_unstable();
            }
            in_buckets += self.bucket.len();
            self.out.push(self.bucket.iter().copied());
        }
        self.out.singles += (n - in_buckets) as u64;
    }
}

impl BucketIndex {
    /// Builds the index over `m` columns from `n_tables` tables.
    ///
    /// `make_fill` is called once per pool worker; the filler it returns
    /// pushes table `t`'s `(key, column)` entries, in any order, into the
    /// buffer it is handed (cleared before each table). Workers split the
    /// tables. The occupancy histogram counts every bucket of at least two
    /// columns, and single-column buckets too when `count_singletons` is
    /// set (Hash-Count and LSH bucket tables count every bucket;
    /// Row-Sorting counts runs of two or more).
    ///
    /// # Panics
    ///
    /// Panics if a column id is not below `m`, or the bucket entries
    /// overflow `u32` offsets.
    pub fn build<M, F>(
        m: usize,
        n_tables: usize,
        count_singletons: bool,
        pool: &ThreadPool,
        make_fill: M,
    ) -> Self
    where
        M: Fn() -> F + Sync,
        F: FnMut(usize, &mut Vec<(u64, u32)>) + Send,
    {
        let ops = (n_tables as u64).saturating_mul(m as u64);
        let locals = pool.par_fold_bounded(
            n_tables,
            1,
            ops,
            |_| Grouper {
                fill: make_fill(),
                entries: Vec::new(),
                slots: Vec::new(),
                next: Vec::new(),
                last: Vec::new(),
                chained: Vec::new(),
                bucket: Vec::new(),
                out: Buckets::default(),
            },
            |grouper, tables| {
                for t in tables {
                    grouper.group(t);
                }
            },
        );
        let mut all = Buckets::default();
        for local in locals {
            let base = u32::try_from(all.cols.len()).expect("bucket entries fit u32");
            all.cols.extend(&local.out.cols);
            all.ends
                .extend(local.out.ends.iter().map(|&end| end + base));
            add_hist(&mut all.histogram, &local.out.histogram);
            all.singles += local.out.singles;
            all.increments += local.out.increments;
        }
        if count_singletons && all.singles > 0 {
            add_hist(&mut all.histogram, &[0, all.singles]);
        }
        Self::invert(m, all)
    }

    /// Builds the column → later-partner inverse of the grouped buckets.
    fn invert(m: usize, buckets: Buckets) -> Self {
        let Buckets {
            cols,
            ends,
            histogram,
            increments,
            ..
        } = buckets;
        // A column's last slot in a bucket has no later partner.
        let mut starts = vec![0u32; m + 1];
        let mut begin = 0;
        for &end in &ends {
            for &c in &cols[begin..end as usize - 1] {
                starts[c as usize + 1] += 1;
            }
            begin = end as usize;
        }
        for c in 1..=m {
            starts[c] += starts[c - 1];
        }
        let mut cursor = starts.clone();
        let mut ranges = vec![(0u32, 0u32); starts[m] as usize];
        let mut begin = 0u32;
        for &end in &ends {
            for slot in begin..end - 1 {
                let c = cols[slot as usize] as usize;
                ranges[cursor[c] as usize] = (slot + 1, end);
                cursor[c] += 1;
            }
            begin = end;
        }
        Self {
            m,
            cols,
            starts,
            ranges,
            histogram,
            increments,
        }
    }

    /// Number of columns `m`.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// `histogram[s]`: buckets of exactly `s` columns, summed over every
    /// table (`s = 1` only when the build counted singletons).
    #[must_use]
    pub fn histogram(&self) -> &[u64] {
        &self.histogram
    }

    /// Counter increments a full walk performs: `C(s, 2)` per bucket of
    /// `s` columns — exactly the incremental Hash-Count work.
    #[must_use]
    pub fn increments(&self) -> u64 {
        self.increments
    }

    /// Heap bytes of the index: 4 per bucket slot, 8 per partner range and
    /// 4 per column offset. Linear in bucket entries, at most one per key
    /// of every table.
    #[must_use]
    pub fn heap_bytes(&self) -> u64 {
        (self.cols.len() * std::mem::size_of::<u32>()
            + self.ranges.len() * std::mem::size_of::<(u32, u32)>()
            + self.starts.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Column boundaries cutting `0..m` into at most `n_parts` contiguous
    /// ranges of roughly equal counting work.
    fn parts(&self, n_parts: usize) -> Vec<u32> {
        let m = u32::try_from(self.m).expect("column count fits u32");
        let mut bounds = vec![0];
        if n_parts > 1 && self.increments > 0 {
            let per_part = self.increments.div_ceil(n_parts as u64);
            let mut work = 0u64;
            for c in 0..self.m {
                let (a, b) = (self.starts[c] as usize, self.starts[c + 1] as usize);
                work += self.ranges[a..b]
                    .iter()
                    .map(|&(lo, hi)| u64::from(hi - lo))
                    .sum::<u64>();
                if work >= per_part * bounds.len() as u64 && (c as u32) + 1 < m {
                    bounds.push(c as u32 + 1);
                }
            }
        }
        bounds.push(m);
        bounds
    }

    /// Walks every focus column over `pool`: the columns are cut into
    /// contiguous parts of roughly equal counting work, each part is
    /// folded into its own accumulator (`init()`, then `visit(acc, i, j,
    /// count)` for every co-bucketed pair `i < j` in `(i, j)` order), and
    /// the accumulators come back in column order. Each worker owns one
    /// accumulator of `m` counters, so nothing is merged but the outputs.
    pub fn par_walk<A, I, V>(&self, pool: &ThreadPool, init: I, visit: V) -> Vec<A>
    where
        A: Send,
        I: Fn() -> A + Sync,
        V: Fn(&mut A, u32, u32, u32) + Sync,
    {
        let n_parts = if pool.worth_parallel(self.increments) {
            pool.threads() * PARTS_PER_WORKER
        } else {
            1
        };
        let bounds = self.parts(n_parts);
        let mut done: Vec<(usize, A)> = pool
            .par_fold(
                bounds.len() - 1,
                1,
                |_| (PairWalker::new(self), Vec::new()),
                |(walker, out), parts: Range<usize>| {
                    for p in parts {
                        let mut acc = init();
                        for i in bounds[p]..bounds[p + 1] {
                            walker.column(i, |j, count| visit(&mut acc, i, j, count));
                        }
                        out.push((p, acc));
                    }
                },
            )
            .into_iter()
            .flat_map(|(_, out)| out)
            .collect();
        done.sort_unstable_by_key(|&(p, _)| p);
        done.into_iter().map(|(_, acc)| acc).collect()
    }
}

/// The sequential counter loop over a [`BucketIndex`]: one dense
/// accumulator of `m` slots, reset sparsely after every focus column.
#[derive(Debug)]
pub struct PairWalker<'a> {
    index: &'a BucketIndex,
    counters: SparseCounters,
}

impl<'a> PairWalker<'a> {
    /// A walker with a zeroed accumulator over the index's `m` columns.
    #[must_use]
    pub fn new(index: &'a BucketIndex) -> Self {
        Self {
            index,
            counters: SparseCounters::new(index.m),
        }
    }

    /// Counts focus column `i` against its later partners: calls
    /// `f(j, count)` for every `j > i` sharing at least one bucket with
    /// `i`, in ascending `j`, where `count` is the number of tables in
    /// which they share one.
    pub fn column(&mut self, i: u32, f: impl FnMut(u32, u32)) {
        let index = self.index;
        let (a, b) = (
            index.starts[i as usize] as usize,
            index.starts[i as usize + 1] as usize,
        );
        for &(lo, hi) in &index.ranges[a..b] {
            for &j in &index.cols[lo as usize..hi as usize] {
                self.counters.increment(j);
            }
        }
        self.counters.drain_sorted(f);
    }
}

/// Elementwise histogram accumulation, growing `into` as needed.
fn add_hist(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (dst, &src) in into.iter_mut().zip(from) {
        *dst += src;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three tables over 6 columns: keys chosen so that pairs co-bucket
    /// a known number of times.
    fn tables() -> Vec<Vec<(u64, u32)>> {
        vec![
            vec![(7, 0), (7, 2), (7, 5), (9, 1), (4, 3)],
            vec![(1, 0), (1, 2), (2, 3), (2, 4), (3, 5)],
            vec![(5, 5), (5, 2), (5, 0), (5, 1)],
        ]
    }

    fn index(count_singletons: bool, threads: usize) -> BucketIndex {
        let t = tables();
        BucketIndex::build(
            6,
            t.len(),
            count_singletons,
            &ThreadPool::new(threads),
            || |table: usize, out: &mut Vec<(u64, u32)>| out.extend(&t[table]),
        )
    }

    /// Every co-bucketed pair's count, walked in `(i, j)` order.
    fn walk(idx: &BucketIndex) -> Vec<(u32, u32, u32)> {
        let mut walker = PairWalker::new(idx);
        let mut out = Vec::new();
        for i in 0..idx.m() as u32 {
            walker.column(i, |j, count| out.push((i, j, count)));
        }
        out
    }

    /// The count of one pair `i < j` in a walk's output (0 if absent).
    fn count(walked: &[(u32, u32, u32)], i: u32, j: u32) -> u32 {
        walked
            .iter()
            .find(|&&(a, b, _)| (a, b) == (i, j))
            .map_or(0, |&(_, _, c)| c)
    }

    fn brute_force() -> Vec<(u32, u32, u32)> {
        let mut out = Vec::new();
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                let count = tables()
                    .iter()
                    .filter(|t| {
                        let key = |c: u32| t.iter().find(|&&(_, col)| col == c).map(|&(k, _)| k);
                        key(i).is_some() && key(i) == key(j)
                    })
                    .count() as u32;
                if count > 0 {
                    out.push((i, j, count));
                }
            }
        }
        out
    }

    #[test]
    fn walk_matches_brute_force_in_pair_order() {
        for threads in [1, 2, 4] {
            let idx = index(true, threads);
            assert_eq!(walk(&idx), brute_force(), "threads {threads}");
            let parts = idx.par_walk(
                &ThreadPool::new(threads),
                Vec::new,
                |acc: &mut Vec<(u32, u32, u32)>, i, j, c| acc.push((i, j, c)),
            );
            assert_eq!(parts.concat(), brute_force(), "threads {threads}");
        }
    }

    #[test]
    fn histogram_and_increments_follow_the_run_rule() {
        // Buckets: {0,2,5} {1} {3} | {0,2} {3,4} {5} | {0,1,2,5}.
        let all = index(true, 1);
        assert_eq!(all.histogram(), &[0, 3, 2, 1, 1]);
        assert_eq!(all.increments(), 3 + 1 + 1 + 6);
        let runs = index(false, 2);
        assert_eq!(runs.histogram(), &[0, 0, 2, 1, 1]);
        assert_eq!(runs.increments(), all.increments());
        assert_eq!(runs.heap_bytes(), all.heap_bytes());
    }

    #[test]
    fn large_tables_group_in_any_fill_order() {
        // 1000 columns keyed by c / 3 (buckets of 3) in two tables, one
        // filled in reverse column order.
        let idx = BucketIndex::build(1000, 2, true, &ThreadPool::new(2), || {
            |t: usize, out: &mut Vec<(u64, u32)>| {
                let cols: Vec<u32> = if t == 0 {
                    (0..1000).collect()
                } else {
                    (0..1000).rev().collect()
                };
                out.extend(cols.into_iter().map(|c| (u64::from(c / 3) << 40, c)));
            }
        });
        let counts = walk(&idx);
        assert_eq!(count(&counts, 0, 1), 2);
        assert_eq!(count(&counts, 0, 2), 2);
        assert_eq!(count(&counts, 2, 3), 0);
        assert_eq!(count(&counts, 997, 998), 2);
        assert_eq!(count(&counts, 998, 999), 0);
        assert_eq!(idx.histogram()[3], 2 * 333);
        assert_eq!(idx.histogram()[1], 2);
    }

    #[test]
    fn tables_past_the_slot_array_are_sorted_in_place() {
        // One table of 40 000 columns (more than `HASH_GROUP_MAX`) in
        // buckets of three, filled in descending column order.
        let n = 40_000u32;
        assert!(n as usize > HASH_GROUP_MAX);
        let idx = BucketIndex::build(n as usize, 1, false, &ThreadPool::new(1), || {
            |_: usize, out: &mut Vec<(u64, u32)>| {
                out.extend((0..n).rev().map(|c| (u64::from(c / 3), c)));
            }
        });
        assert_eq!(idx.histogram()[3], u64::from(n / 3));
        assert_eq!(idx.histogram().len(), 4, "singletons are not counted");
        assert_eq!(idx.increments(), 3 * u64::from(n / 3));
        let counts = walk(&idx);
        assert_eq!(count(&counts, 0, 2), 1);
        assert_eq!(count(&counts, 2, 3), 0);
        assert_eq!(counts.len(), 3 * (n as usize / 3));
    }

    #[test]
    fn pool_paths_match_the_sequential_walk_at_scale() {
        // 300 tables over 1000 columns in buckets of ten: enough grouping
        // and counting work to clear the pool's serial cutoff.
        let build = |threads| {
            BucketIndex::build(1000, 300, true, &ThreadPool::new(threads), || {
                |t: usize, out: &mut Vec<(u64, u32)>| {
                    let shift = t as u32 * 13;
                    out.extend((0..1000u32).map(|c| (u64::from((c * 7 + shift) % 1000 / 10), c)));
                }
            })
        };
        let collect = |acc: &mut Vec<(u32, u32, u32)>, i, j, c| acc.push((i, j, c));
        let seq = build(1);
        assert!(seq.increments() >= sfa_par::SERIAL_CUTOFF);
        let expected = seq
            .par_walk(&ThreadPool::new(1), Vec::new, collect)
            .concat();
        assert_eq!(expected, walk(&seq));
        for threads in [2, 4] {
            let par = build(threads);
            assert_eq!(par.histogram(), seq.histogram());
            assert_eq!(par.increments(), seq.increments());
            assert_eq!(par.heap_bytes(), seq.heap_bytes());
            let parts = par.par_walk(&ThreadPool::new(threads), Vec::new, collect);
            assert!(parts.len() > 1, "the walk splits over the pool");
            assert_eq!(parts.concat(), expected, "threads {threads}");
        }
    }

    #[test]
    fn parts_cover_every_column_once() {
        let idx = index(true, 1);
        for n in [1, 2, 3, 8] {
            let bounds = idx.parts(n);
            assert_eq!(bounds.first(), Some(&0));
            assert_eq!(bounds.last(), Some(&6));
            assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
            assert!(bounds.len() <= n + 1);
        }
    }

    #[test]
    fn empty_index_walks_nothing() {
        let idx = BucketIndex::build(3, 0, true, &ThreadPool::new(1), || {
            |_: usize, _: &mut Vec<(u64, u32)>| {}
        });
        assert!(idx.histogram().is_empty());
        assert_eq!(idx.increments(), 0);
        assert!(walk(&idx).is_empty());
    }
}
