//! Pattern-caching CSC assembler for repeated same-structure stamping.
//!
//! MNA circuit stamping produces the *same* sequence of `(row, col)`
//! positions every Newton iteration — only the values change. A
//! [`TripletMatrix`](super::TripletMatrix) pays a sort + deduplication per
//! assembly; this assembler instead compiles the stamp sequence once into a
//! fixed CSC sparsity pattern plus a scatter map (stamp index → CSC value
//! slot), so every subsequent assembly round is a zero-allocation run of
//! direct indexed adds.
//!
//! If the stamp sequence ever deviates (a device changes which entries it
//! stamps — e.g. DC continuation adds gmin shunts), the round transparently
//! falls back to a full rebuild and the pattern is recompiled; the `epoch`
//! counter tells callers that any cached symbolic factorisation of the old
//! pattern is stale.
//!
//! Explicit zero stamps are **retained** as structural entries. That keeps
//! the pattern stable when a device's value happens to cross zero, and it
//! keeps duplicate summation in stamp order on both the fast and rebuild
//! paths, so assembled values are bitwise-reproducible.

use super::CscMatrix;

/// A reusable stamp-sequence → CSC compiler. See the module docs
/// (`sparse::assembler`) for the caching contract.
///
/// # Example
///
/// ```
/// use sfet_numeric::sparse::CscAssembler;
///
/// let mut asm = CscAssembler::new(2, 2);
/// asm.begin();
/// asm.add(0, 0, 2.0);
/// asm.add(0, 0, 1.0); // duplicate stamps sum
/// asm.add(1, 1, 4.0);
/// let a = asm.finish();
/// assert_eq!(a.get(0, 0), 3.0);
/// let epoch = asm.epoch();
///
/// // Same sequence again: fast path, pattern (and epoch) unchanged.
/// asm.begin();
/// asm.add(0, 0, 5.0);
/// asm.add(0, 0, 1.0);
/// asm.add(1, 1, 2.0);
/// let a = asm.finish();
/// assert_eq!(a.get(0, 0), 6.0);
/// assert_eq!(asm.epoch(), epoch);
/// ```
#[derive(Debug, Clone)]
pub struct CscAssembler {
    rows: usize,
    cols: usize,
    /// Compiled stamp sequence: `seq[k]` is the `(row, col)` of stamp `k`.
    seq: Vec<(usize, usize)>,
    /// `scatter[k]` is the CSC value slot stamp `k` accumulates into.
    scatter: Vec<usize>,
    /// The compiled pattern; values are rewritten every round.
    csc: Option<CscMatrix>,
    /// Every stamp of the current round, in stamp order (the rebuild
    /// source of truth; capacity is retained across rounds).
    pending: Vec<(usize, usize, f64)>,
    /// Position in `seq` during a fast-path round.
    cursor: usize,
    /// Whether the current round still matches the compiled sequence.
    fast: bool,
    /// Incremented whenever the pattern is (re)compiled.
    epoch: u64,
    /// Scratch permutation used by `rebuild` (capacity retained).
    order: Vec<usize>,
}

impl CscAssembler {
    /// Creates an assembler for `rows x cols` matrices with no compiled
    /// pattern yet; the first round compiles one.
    pub fn new(rows: usize, cols: usize) -> Self {
        CscAssembler {
            rows,
            cols,
            seq: Vec::new(),
            scatter: Vec::new(),
            csc: None,
            pending: Vec::new(),
            cursor: 0,
            fast: false,
            epoch: 0,
            order: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Pattern-compilation counter. A change between two [`finish`]
    /// calls means the sparsity pattern was rebuilt and any cached
    /// symbolic factorisation of the previous pattern is stale.
    ///
    /// [`finish`]: CscAssembler::finish
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Starts a new assembly round, invalidating values from the previous
    /// round but keeping the compiled pattern and all allocations.
    pub fn begin(&mut self) {
        self.pending.clear();
        self.cursor = 0;
        if let Some(csc) = &mut self.csc {
            for v in csc.values_mut() {
                *v = 0.0;
            }
            self.fast = true;
        } else {
            self.fast = false;
        }
    }

    /// Stamps `v` at `(r, c)`. Duplicates sum; zeros are retained as
    /// structural entries.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "assembler index out of bounds"
        );
        self.pending.push((r, c, v));
        if self.fast {
            if self.cursor < self.seq.len() && self.seq[self.cursor] == (r, c) {
                let csc = self.csc.as_mut().expect("fast path implies pattern");
                csc.values_mut()[self.scatter[self.cursor]] += v;
                self.cursor += 1;
            } else {
                // Sequence deviated: abandon the scatter, rebuild at finish.
                self.fast = false;
            }
        }
    }

    /// Completes the round and returns the assembled matrix.
    ///
    /// On the fast path (every stamp matched the compiled sequence) this
    /// is free; otherwise the pattern is recompiled from the recorded
    /// stamps and [`epoch`](CscAssembler::epoch) is bumped.
    pub fn finish(&mut self) -> &CscMatrix {
        if !(self.fast && self.cursor == self.seq.len()) {
            self.rebuild();
        }
        self.csc.as_ref().expect("finish always compiles a pattern")
    }

    /// The most recently compiled matrix, if any round has completed.
    ///
    /// Useful when the caller needs the matrix through a shared borrow
    /// after [`finish`](CscAssembler::finish) (whose returned reference
    /// keeps the assembler exclusively borrowed).
    pub fn matrix(&self) -> Option<&CscMatrix> {
        self.csc.as_ref()
    }

    /// Recompiles the pattern, scatter map, and sequence from `pending`.
    ///
    /// Duplicates are summed in stamp order — the same order the scatter
    /// fast path uses — so a rebuilt round is bitwise-identical to a
    /// fast-path round of the same stamps.
    fn rebuild(&mut self) {
        let m = self.pending.len();
        self.seq.clear();
        self.seq
            .extend(self.pending.iter().map(|&(r, c, _)| (r, c)));
        self.order.clear();
        self.order.extend(0..m);
        let pending = &self.pending;
        // The index tiebreak keeps duplicates of a slot in stamp order.
        self.order
            .sort_unstable_by_key(|&i| (pending[i].1, pending[i].0, i));

        self.scatter.clear();
        self.scatter.resize(m, 0);
        let mut col_ptr = vec![0usize; self.cols + 1];
        let mut row_idx = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        let mut prev: Option<(usize, usize)> = None;
        for &i in &self.order {
            let (r, c, v) = self.pending[i];
            if prev != Some((c, r)) {
                row_idx.push(r);
                values.push(0.0);
                col_ptr[c + 1] += 1;
                prev = Some((c, r));
            }
            let slot = values.len() - 1;
            values[slot] += v;
            self.scatter[i] = slot;
        }
        for c in 0..self.cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        self.csc = Some(CscMatrix::from_parts(
            self.rows, self.cols, col_ptr, row_idx, values,
        ));
        self.cursor = self.seq.len();
        self.fast = true;
        self.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::super::TripletMatrix;
    use super::*;

    fn stamp_round(asm: &mut CscAssembler, scale: f64) -> CscMatrix {
        asm.begin();
        asm.add(0, 0, 2.0 * scale);
        asm.add(1, 1, 3.0 * scale);
        asm.add(0, 0, 0.5 * scale); // duplicate
        asm.add(2, 1, -scale);
        asm.add(1, 2, -scale);
        asm.add(2, 2, 4.0 * scale);
        asm.finish().clone()
    }

    #[test]
    fn fast_path_matches_first_compile() {
        let mut asm = CscAssembler::new(3, 3);
        let a1 = stamp_round(&mut asm, 1.0);
        let e1 = asm.epoch();
        let a2 = stamp_round(&mut asm, 1.0);
        assert_eq!(asm.epoch(), e1, "same sequence must not recompile");
        assert_eq!(a1, a2);
        assert_eq!(a1.get(0, 0), 2.5);
    }

    #[test]
    fn values_track_each_round() {
        let mut asm = CscAssembler::new(3, 3);
        stamp_round(&mut asm, 1.0);
        let a = stamp_round(&mut asm, 2.0);
        assert_eq!(a.get(0, 0), 5.0);
        assert_eq!(a.get(2, 2), 8.0);
    }

    #[test]
    fn sequence_change_rebuilds() {
        let mut asm = CscAssembler::new(3, 3);
        stamp_round(&mut asm, 1.0);
        let e1 = asm.epoch();
        // Extra gmin-style diagonal stamp changes the sequence.
        asm.begin();
        asm.add(0, 0, 2.0);
        asm.add(0, 0, 1e-12);
        asm.add(1, 1, 3.0);
        let a = asm.finish().clone();
        assert!(asm.epoch() > e1, "deviating sequence must recompile");
        assert_eq!(a.get(0, 0), 2.0 + 1e-12);
        assert_eq!(a.nnz(), 2);
        // And the new sequence becomes the fast path.
        let e2 = asm.epoch();
        asm.begin();
        asm.add(0, 0, 4.0);
        asm.add(0, 0, 1e-12);
        asm.add(1, 1, 5.0);
        assert_eq!(asm.finish().get(1, 1), 5.0);
        assert_eq!(asm.epoch(), e2);
    }

    #[test]
    fn shorter_round_rebuilds() {
        let mut asm = CscAssembler::new(3, 3);
        stamp_round(&mut asm, 1.0);
        let e1 = asm.epoch();
        asm.begin();
        asm.add(0, 0, 2.0); // prefix of the old sequence, then stop
        let a = asm.finish().clone();
        assert!(asm.epoch() > e1);
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn zeros_are_structural() {
        let mut asm = CscAssembler::new(2, 2);
        asm.begin();
        asm.add(0, 0, 0.0);
        asm.add(1, 1, 1.0);
        let a = asm.finish().clone();
        assert_eq!(a.nnz(), 2, "zero stamp keeps its slot");
        let e = asm.epoch();
        // Next round the same position can be nonzero without recompiling.
        asm.begin();
        asm.add(0, 0, 7.0);
        asm.add(1, 1, 1.0);
        assert_eq!(asm.finish().get(0, 0), 7.0);
        assert_eq!(asm.epoch(), e);
    }

    #[test]
    fn matches_triplet_compression() {
        let mut asm = CscAssembler::new(3, 3);
        let a = stamp_round(&mut asm, 1.3);
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 2.0 * 1.3);
        t.push(1, 1, 3.0 * 1.3);
        t.push(0, 0, 0.5 * 1.3);
        t.push(2, 1, -1.3);
        t.push(1, 2, -1.3);
        t.push(2, 2, 4.0 * 1.3);
        let b = t.to_csc();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(a.get(r, c).to_bits(), b.get(r, c).to_bits());
            }
        }
    }

    #[test]
    fn rebuild_then_fast_are_bitwise_equal() {
        // First round compiles (rebuild path), second reuses (fast path);
        // identical stamps must give identical bits.
        let mut asm = CscAssembler::new(3, 3);
        let a = stamp_round(&mut asm, 0.1234567891234);
        let b = stamp_round(&mut asm, 0.1234567891234);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(a.get(r, c).to_bits(), b.get(r, c).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let mut asm = CscAssembler::new(1, 1);
        asm.begin();
        asm.add(1, 0, 1.0);
    }
}
