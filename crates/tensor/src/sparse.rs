//! Level-composed compressed tensors (the fibertree formats of Finch).
//!
//! Every [`SparseTensor`] is assembled level by level by one packer
//! (`SparseTensor::pack_sorted`) from flat, lexicographically sorted,
//! unique entries, and read back by one in-order walk
//! ([`SparseTensor::for_each_entry`]) that visits every stored entry,
//! explicitly stored zeros included. Everything that derives one tensor
//! from another — a diagonal split ([`SparseTensor::partition`]), a
//! transpose ([`SparseTensor::permuted`]), a registration from an
//! unsorted coordinate list ([`Entries`]) — is that walk or an
//! [`Entries`] buffer feeding that packer; no sorted map sits in between.

use std::fmt;

use crate::coo::{check_coords, CooTensor};
use crate::dense::validate_perm;
use crate::{DenseTensor, TensorError};

/// The storage format of one level (mode) of a [`SparseTensor`].
///
/// Composing per-mode formats yields the classic compound formats
/// (paper §2.2): CSR is `[Dense, Sparse]`, 3-d CSF is
/// `[Dense, Sparse, Sparse]`, a fully-compressed hypersparse tensor is
/// all-`Sparse`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LevelFormat {
    /// Every coordinate `0..extent` is materialized (no compression).
    Dense,
    /// Only coordinates with stored children appear, in sorted order
    /// (compressed, `pos`/`crd` arrays à la TACO/Finch).
    Sparse,
    /// Run-length encoding: consecutive coordinates sharing one value
    /// collapse into a run (Finch's `RunList`/RLE structured level).
    /// Only valid as the innermost (leaf) level, where children are
    /// values.
    RunLength,
}

impl fmt::Display for LevelFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LevelFormat::Dense => f.write_str("Dense"),
            LevelFormat::Sparse => f.write_str("Sparse"),
            LevelFormat::RunLength => f.write_str("RunLength"),
        }
    }
}

/// One packed level of the fibertree.
#[derive(Clone, PartialEq, Debug)]
enum Level {
    /// Positions fan out by a fixed factor: child of parent `p` at
    /// coordinate `c` is position `p * size + c`.
    Dense { size: usize },
    /// Compressed: `crd[pos[p] .. pos[p+1]]` are the coordinates stored
    /// under parent position `p`; the child position is the `crd` index.
    Sparse { pos: Vec<usize>, crd: Vec<usize>, size: usize },
    /// Run-length encoded: `run_end[pos[p] .. pos[p+1]]` are the
    /// *inclusive* end coordinates of the runs under parent `p`; each run
    /// is one child position. Runs of the fill value (zero) are omitted:
    /// `run_start` records each run's first coordinate.
    RunLength { pos: Vec<usize>, run_start: Vec<usize>, run_end: Vec<usize>, size: usize },
}

/// A compressed multidimensional tensor packed from sorted coordinates.
///
/// The tensor is a chain of [`LevelFormat`]s, one per mode (outermost
/// first), over an `Element(0.0)` leaf holding the values. Iteration is
/// *concordant*: loops must visit modes outermost-first, which is exactly
/// the constraint the concordize pass (§4.2.3) establishes for generated
/// kernels.
///
/// # Examples
///
/// ```
/// use systec_tensor::{CooTensor, SparseTensor, CSR};
///
/// let mut coo = CooTensor::new(vec![2, 3]);
/// coo.push(&[0, 2], 1.5);
/// coo.push(&[1, 0], 2.5);
/// let m = SparseTensor::from_coo(&coo, &CSR).unwrap();
/// assert_eq!(m.get(&[0, 2]), 1.5);
/// assert_eq!(m.get(&[0, 0]), 0.0);
/// assert_eq!(m.to_coo(), coo);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct SparseTensor {
    dims: Vec<usize>,
    formats: Vec<LevelFormat>,
    levels: Vec<Level>,
    vals: Vec<f64>,
}

impl SparseTensor {
    /// Packs a COO tensor into the given per-mode formats.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::FormatRankMismatch`] if `formats.len()`
    /// differs from the tensor's rank.
    pub fn from_coo(coo: &CooTensor, formats: &[LevelFormat]) -> Result<Self, TensorError> {
        let mut coords = Vec::with_capacity(coo.nnz() * coo.rank());
        let mut vals = Vec::with_capacity(coo.nnz());
        for (c, v) in coo.entries() {
            coords.extend_from_slice(c);
            vals.push(v);
        }
        Self::pack_sorted(coo.dims().to_vec(), formats, &coords, &vals)
    }

    /// Packs the nonzeros of a dense tensor (a row-major scan, so the
    /// entries arrive sorted).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::FormatRankMismatch`] on arity mismatch.
    pub fn from_dense(dense: &DenseTensor, formats: &[LevelFormat]) -> Result<Self, TensorError> {
        let mut coords = Vec::new();
        let mut vals = Vec::new();
        dense.for_each_entry(|c, v| {
            if v != 0.0 {
                coords.extend_from_slice(c);
                vals.push(v);
            }
        });
        Self::pack_sorted(dense.dims().to_vec(), formats, &coords, &vals)
    }

    /// The one packer: assembles the levels from entries that are
    /// lexicographically sorted, unique and in bounds — `coords` holds
    /// `dims.len()` coordinates per entry, entry-major, `vals` one value
    /// per entry. Its callers guarantee that order by construction (a
    /// sorted map, a fibertree walk, a row-major scan, [`Entries::pack`]'s
    /// sort), so it is not public.
    fn pack_sorted(
        dims: Vec<usize>,
        formats: &[LevelFormat],
        coords: &[usize],
        vals: &[f64],
    ) -> Result<Self, TensorError> {
        let rank = dims.len();
        if formats.len() != rank {
            return Err(TensorError::FormatRankMismatch { rank, formats: formats.len() });
        }
        if formats[..rank.saturating_sub(1)].contains(&LevelFormat::RunLength) {
            return Err(TensorError::FormatRankMismatch { rank, formats: formats.len() });
        }
        let n = vals.len();
        debug_assert_eq!(coords.len(), n * rank);
        debug_assert!(
            (1..n).all(|e| { coords[(e - 1) * rank..e * rank] < coords[e * rank..(e + 1) * rank] })
        );

        let mut levels = Vec::with_capacity(rank);
        // Parent position of each entry at the current level; starts at the
        // single root position 0.
        let mut parents: Vec<usize> = vec![0; n];
        let mut parent_count = 1usize;

        for (k, &format) in formats.iter().enumerate() {
            let size = dims[k];
            let level_coords = coords.iter().skip(k).step_by(rank);
            match format {
                LevelFormat::Dense => {
                    for (parent, &c) in parents.iter_mut().zip(level_coords) {
                        *parent = *parent * size + c;
                    }
                    parent_count *= size;
                    levels.push(Level::Dense { size });
                }
                LevelFormat::Sparse => {
                    let mut pos = vec![0usize; parent_count + 1];
                    // At most one child per entry; the slack of an upper
                    // level is returned below.
                    let mut crd = Vec::with_capacity(n);
                    let mut last: Option<(usize, usize)> = None;
                    for (parent, &c) in parents.iter_mut().zip(level_coords) {
                        let key = (*parent, c);
                        if last != Some(key) {
                            // New child position under this parent.
                            crd.push(c);
                            pos[*parent + 1] += 1;
                            last = Some(key);
                        }
                        *parent = crd.len() - 1;
                    }
                    crd.shrink_to_fit();
                    // Prefix-sum the per-parent counts into offsets.
                    for p in 0..parent_count {
                        pos[p + 1] += pos[p];
                    }
                    parent_count = crd.len();
                    levels.push(Level::Sparse { pos, crd, size });
                }
                LevelFormat::RunLength => {
                    // Leaf only (validated above): consecutive coordinates
                    // under one parent with equal values form a run, and
                    // the packed value is the run's value.
                    let mut pos = vec![0usize; parent_count + 1];
                    let mut run_start = Vec::with_capacity(n);
                    let mut run_end = Vec::with_capacity(n);
                    let mut run_vals: Vec<f64> = Vec::with_capacity(n);
                    let mut last: Option<(usize, usize, f64)> = None; // parent, end coord, value
                    for ((&parent, &c), &v) in parents.iter().zip(level_coords).zip(vals) {
                        match last {
                            Some((p, end, value)) if p == parent && c == end + 1 && value == v => {
                                // Extend the current run.
                                *run_end.last_mut().expect("run exists") = c;
                            }
                            _ => {
                                run_start.push(c);
                                run_end.push(c);
                                run_vals.push(v);
                                pos[parent + 1] += 1;
                            }
                        }
                        last = Some((parent, c, v));
                    }
                    run_start.shrink_to_fit();
                    run_end.shrink_to_fit();
                    run_vals.shrink_to_fit();
                    for p in 0..parent_count {
                        pos[p + 1] += pos[p];
                    }
                    levels.push(Level::RunLength { pos, run_start, run_end, size });
                    return Ok(SparseTensor {
                        dims,
                        formats: formats.to_vec(),
                        levels,
                        vals: run_vals,
                    });
                }
            }
        }

        let mut packed = vec![0.0; parent_count];
        for (&parent, &v) in parents.iter().zip(vals) {
            packed[parent] += v;
        }
        Ok(SparseTensor { dims, formats: formats.to_vec(), levels, vals: packed })
    }

    /// An empty tensor of the given shape and formats.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::FormatRankMismatch`] on arity mismatch.
    pub fn empty(dims: Vec<usize>, formats: &[LevelFormat]) -> Result<Self, TensorError> {
        Self::pack_sorted(dims, formats, &[], &[])
    }

    /// The shape, one extent per mode.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The number of modes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The per-mode level formats.
    pub fn formats(&self) -> &[LevelFormat] {
        &self.formats
    }

    /// The number of stored values (including structural zeros stored by
    /// trailing dense levels).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The value stored at a *leaf position* (as produced by walking the
    /// levels with [`SparseTensor::level_iter`] / [`SparseTensor::level_find`]).
    #[inline]
    pub fn value(&self, leaf_pos: usize) -> f64 {
        self.vals[leaf_pos]
    }

    /// Iterates over `(coordinate, child_position)` pairs of the children
    /// of `parent` at level `k`, restricted to coordinates in
    /// `lo..=hi` (saturating to the level's extent).
    ///
    /// For `Sparse` levels only stored coordinates are visited, in
    /// increasing order, with the bound restriction applied by binary
    /// search — this is how lifted loop bounds (`i <= j`) become cheap
    /// early exits over compressed data.
    pub fn level_iter(&self, k: usize, parent: usize, lo: usize, hi: usize) -> LevelIter<'_> {
        match &self.levels[k] {
            Level::Dense { size } => {
                if *size == 0 {
                    return LevelIter::Dense { base: 0, coord: 0, end: 0 };
                }
                let hi = hi.min(size - 1);
                LevelIter::Dense {
                    base: parent * size,
                    coord: lo,
                    end: if lo > hi { lo } else { hi + 1 },
                }
            }
            Level::Sparse { pos, crd, .. } => {
                let begin = pos[parent];
                let end = pos[parent + 1];
                let slice = &crd[begin..end];
                let start = begin + slice.partition_point(|&c| c < lo);
                let stop = begin + slice.partition_point(|&c| c <= hi);
                LevelIter::Sparse { crd, cursor: start, end: stop }
            }
            Level::RunLength { pos, run_start, run_end, .. } => {
                let begin = pos[parent];
                let end = pos[parent + 1];
                // First run whose end reaches lo.
                let slice_end = &run_end[begin..end];
                let start = begin + slice_end.partition_point(|&c| c < lo);
                LevelIter::RunLength {
                    run_start,
                    run_end,
                    run: start,
                    last_run: end,
                    coord: if start < end { run_start[start].max(lo) } else { 0 },
                    hi,
                }
            }
        }
    }

    /// Finds the child position of coordinate `coord` under `parent` at
    /// level `k` (random access step), or `None` if not stored.
    pub fn level_find(&self, k: usize, parent: usize, coord: usize) -> Option<usize> {
        self.level_view(k).find(parent, coord)
    }

    /// Random access: the value at `coords` (zero if not stored).
    ///
    /// # Panics
    ///
    /// Panics if the arity does not match the rank.
    pub fn get(&self, coords: &[usize]) -> f64 {
        assert_eq!(coords.len(), self.rank(), "coordinate arity mismatch");
        let mut pos = 0usize;
        for (k, &c) in coords.iter().enumerate() {
            match self.level_find(k, pos, c) {
                Some(next) => pos = next,
                None => return 0.0,
            }
        }
        self.vals[pos]
    }

    /// Unpacks back to COO (dropping stored zeros) — for generators and
    /// test oracles; nothing that prepares or serves a kernel converts
    /// through it.
    pub fn to_coo(&self) -> CooTensor {
        let mut out = CooTensor::new(self.dims.clone());
        self.for_each_entry(|coords, v| {
            if v != 0.0 {
                out.push(coords, v);
            }
        });
        out
    }

    /// The one walk: calls `f(coords, value)` for every stored entry in
    /// lexicographic coordinate order — explicitly stored zeros and the
    /// zeros a dense level materializes included, a run-length run once
    /// per coordinate it covers.
    pub fn for_each_entry(&self, mut f: impl FnMut(&[usize], f64)) {
        let mut coords = vec![0usize; self.rank()];
        self.walk(0, 0, &mut coords, &mut f);
    }

    fn walk(
        &self,
        k: usize,
        parent: usize,
        coords: &mut [usize],
        f: &mut impl FnMut(&[usize], f64),
    ) {
        if k == self.rank() {
            return f(coords, self.vals[parent]);
        }
        for (c, child) in self.level_iter(k, parent, 0, usize::MAX) {
            coords[k] = c;
            self.walk(k + 1, child, coords, f);
        }
    }

    /// Splits the stored entries by a classifier on their coordinates into
    /// `(matching, rest)`, both in `self`'s shape and formats: `Some(true)`
    /// goes to `matching`, `Some(false)` to `rest`, and `None` drops the
    /// entry. One walk, already sorted, packed twice. The diagonal split
    /// of §4.2.9 is `partition` by "two coordinates are equal".
    pub fn partition(
        &self,
        mut classify: impl FnMut(&[usize]) -> Option<bool>,
    ) -> (SparseTensor, SparseTensor) {
        let mut matching = Entries::with_capacity(self.dims.clone(), self.nnz());
        let mut rest = Entries::with_capacity(self.dims.clone(), self.nnz());
        self.for_each_entry(|coords, v| match classify(coords) {
            Some(true) => matching.push(coords, v),
            Some(false) => rest.push(coords, v),
            None => {}
        });
        let pack = |side: Entries| {
            Self::pack_sorted(side.dims, &self.formats, &side.coords, &side.vals)
                .expect("the formats already packed this shape")
        };
        (pack(matching), pack(rest))
    }

    /// Raw, borrow-only view of one level's packed arrays.
    ///
    /// Execution backends that compile per-format code (the bytecode VM
    /// in `systec-codegen`) use this to walk `pos`/`crd` directly,
    /// without the per-step dispatch of [`SparseTensor::level_iter`].
    pub fn level_view(&self, k: usize) -> LevelView<'_> {
        match &self.levels[k] {
            Level::Dense { size } => LevelView::Dense { size: *size },
            Level::Sparse { pos, crd, size } => LevelView::Sparse { pos, crd, size: *size },
            Level::RunLength { pos, run_start, run_end, size } => {
                LevelView::RunLength { pos, run_start, run_end, size: *size }
            }
        }
    }

    /// The packed leaf values, indexed by leaf position.
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Returns a permuted repack: mode `k` of the result is mode
    /// `perm[k]` of `self`, in the same formats. This is the
    /// transposition the concordize pass relies on; the paper excludes
    /// its cost from kernel timings, as do our benchmarks.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidPermutation`] for invalid `perm`.
    pub fn permuted(&self, perm: &[usize]) -> Result<SparseTensor, TensorError> {
        validate_perm(perm, self.rank())?;
        let dims = perm.iter().map(|&p| self.dims[p]).collect();
        let mut entries = Entries::with_capacity(dims, self.nnz());
        let mut permuted = vec![0usize; self.rank()];
        self.for_each_entry(|coords, v| {
            for (out, &p) in permuted.iter_mut().zip(perm) {
                *out = coords[p];
            }
            entries.push(&permuted, v);
        });
        entries.pack(&self.formats)
    }
}

/// A coordinate list in arrival order, flat: the builder in front of
/// the packer for entries that are not sorted yet (a `register_tensor`
/// payload, a transpose).
///
/// [`Entries::try_push`] validates like [`CooTensor::try_push`];
/// [`Entries::pack`] stable-sorts and folds duplicates *in arrival
/// order, each sum starting from `0.0 + v`* — exactly what
/// `CooTensor`'s `*entry.or_insert(0.0) += v` computes, so the packed
/// tensor equals `SparseTensor::from_coo` of the same pushes bit for
/// bit, without a map node or a heap coordinate per entry.
///
/// # Examples
///
/// ```
/// use systec_tensor::{Entries, CSR};
///
/// let mut entries = Entries::new(vec![2, 3]);
/// entries.try_push(&[1, 0], 2.5).unwrap();
/// entries.try_push(&[0, 2], 1.0).unwrap();
/// entries.try_push(&[0, 2], 0.5).unwrap(); // accumulates
/// assert!(entries.try_push(&[2, 0], 1.0).is_err());
/// let m = entries.pack(&CSR).unwrap();
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.get(&[0, 2]), 1.5);
/// ```
#[derive(Clone, Debug)]
pub struct Entries {
    dims: Vec<usize>,
    /// `dims.len()` coordinates per entry, entry-major.
    coords: Vec<usize>,
    vals: Vec<f64>,
}

impl Entries {
    /// An empty list for a tensor of the given shape.
    pub fn new(dims: Vec<usize>) -> Self {
        Self::with_capacity(dims, 0)
    }

    /// An empty list with room for `entries` entries.
    pub fn with_capacity(dims: Vec<usize>, entries: usize) -> Self {
        let coords = Vec::with_capacity(entries * dims.len());
        Entries { dims, coords, vals: Vec::with_capacity(entries) }
    }

    /// Entries from flat buffers — `dims.len()` coordinates per entry,
    /// entry-major, and one value per entry — checked in one bounds
    /// pass, with no copy.
    ///
    /// # Errors
    ///
    /// Returns the first offending entry's index with its
    /// [`TensorError::CoordOutOfBounds`], or index 0 with a
    /// [`TensorError::RankMismatch`] when `coords` does not hold
    /// `dims.len()` coordinates per value.
    pub fn from_flat(
        dims: Vec<usize>,
        coords: Vec<usize>,
        vals: Vec<f64>,
    ) -> Result<Self, (usize, TensorError)> {
        let rank = dims.len();
        if Some(coords.len()) != vals.len().checked_mul(rank) {
            let got = coords.len().checked_div(vals.len()).unwrap_or(coords.len());
            return Err((0, TensorError::RankMismatch { expected: rank, got }));
        }
        if rank > 0 {
            for (entry, key) in coords.chunks_exact(rank).enumerate() {
                check_coords(&dims, key).map_err(|e| (entry, e))?;
            }
        }
        Ok(Entries { dims, coords, vals })
    }

    /// The number of entries pushed (duplicates counted).
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// `true` if nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Appends an entry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] or
    /// [`TensorError::CoordOutOfBounds`] for invalid coordinates.
    pub fn try_push(&mut self, coords: &[usize], value: f64) -> Result<(), TensorError> {
        check_coords(&self.dims, coords)?;
        self.push(coords, value);
        Ok(())
    }

    /// Appends an entry whose coordinates are valid by construction.
    fn push(&mut self, coords: &[usize], value: f64) {
        self.coords.extend_from_slice(coords);
        self.vals.push(value);
    }

    fn key(&self, entry: usize) -> &[usize] {
        let rank = self.dims.len();
        &self.coords[entry * rank..(entry + 1) * rank]
    }

    /// Densifies: a scatter-add in arrival order into a zero buffer.
    pub fn to_dense(&self) -> DenseTensor {
        let mut out = DenseTensor::zeros(self.dims.clone());
        for (entry, &v) in self.vals.iter().enumerate() {
            *out.get_mut(self.key(entry)) += v;
        }
        out
    }

    /// Sorts, folds duplicates and packs into the given per-mode formats.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::FormatRankMismatch`] on arity mismatch.
    pub fn pack(&self, formats: &[LevelFormat]) -> Result<SparseTensor, TensorError> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        // Stable, so equal coordinates keep their arrival order.
        order.sort_by(|&a, &b| self.key(a).cmp(self.key(b)));
        let mut coords = Vec::with_capacity(self.coords.len());
        let mut vals: Vec<f64> = Vec::with_capacity(self.len());
        for &entry in &order {
            match vals.last_mut() {
                // `coords` ends with the previous distinct key.
                Some(sum) if coords.ends_with(self.key(entry)) => *sum += self.vals[entry],
                _ => {
                    coords.extend_from_slice(self.key(entry));
                    vals.push(0.0 + self.vals[entry]);
                }
            }
        }
        SparseTensor::pack_sorted(self.dims.clone(), formats, &coords, &vals)
    }
}

/// Borrowed view of one packed level of a [`SparseTensor`].
///
/// Mirrors the internal level representation: child positions are
/// `parent * size + coord` for dense levels, absolute `crd` indices for
/// sparse levels, and absolute run indices for run-length levels.
#[derive(Clone, Copy, Debug)]
pub enum LevelView<'a> {
    /// Every coordinate `0..size` is materialized.
    Dense {
        /// The level's extent.
        size: usize,
    },
    /// Compressed: `crd[pos[p] .. pos[p+1]]` are the stored coordinates
    /// under parent position `p`.
    Sparse {
        /// Per-parent offsets into `crd` (length `parents + 1`).
        pos: &'a [usize],
        /// Stored coordinates, sorted within each parent.
        crd: &'a [usize],
        /// The level's extent.
        size: usize,
    },
    /// Run-length encoded: runs `pos[p] .. pos[p+1]` belong to parent
    /// `p`; run `r` covers coordinates `run_start[r] ..= run_end[r]`.
    RunLength {
        /// Per-parent offsets into the run arrays (length `parents + 1`).
        pos: &'a [usize],
        /// First coordinate of each run.
        run_start: &'a [usize],
        /// Last (inclusive) coordinate of each run.
        run_end: &'a [usize],
        /// The level's extent.
        size: usize,
    },
}

impl LevelView<'_> {
    /// Finds the child position of `coord` under `parent`, or `None` if
    /// not stored — the implementation behind
    /// [`SparseTensor::level_find`].
    #[inline]
    pub fn find(&self, parent: usize, coord: usize) -> Option<usize> {
        match self {
            LevelView::Dense { size } => (coord < *size).then(|| parent * size + coord),
            LevelView::Sparse { pos, crd, .. } => {
                let begin = pos[parent];
                let end = pos[parent + 1];
                let slice = &crd[begin..end];
                let at = slice.partition_point(|&c| c < coord);
                (at < slice.len() && slice[at] == coord).then(|| begin + at)
            }
            LevelView::RunLength { pos, run_start, run_end, .. } => {
                let begin = pos[parent];
                let end = pos[parent + 1];
                let slice_end = &run_end[begin..end];
                let at = begin + slice_end.partition_point(|&c| c < coord);
                (at < end && run_start[at] <= coord).then_some(at)
            }
        }
    }
}

/// Iterator over `(coordinate, child_position)` pairs of one level fiber.
///
/// Produced by [`SparseTensor::level_iter`]. This is deliberately a
/// lending-style concrete enum (not `impl Iterator`) so the executor can
/// store it without boxing.
#[derive(Debug)]
pub enum LevelIter<'a> {
    /// Fiber of a dense level: every coordinate in range.
    Dense {
        /// `parent * size` — the first child position of this fiber.
        base: usize,
        /// Next coordinate to yield.
        coord: usize,
        /// One past the last coordinate.
        end: usize,
    },
    /// Fiber of a compressed level: stored coordinates only.
    Sparse {
        /// The level's coordinate array.
        crd: &'a [usize],
        /// Next `crd` index to yield.
        cursor: usize,
        /// One past the last `crd` index.
        end: usize,
    },
    /// Fiber of a run-length level: every coordinate of every stored run
    /// (the position repeats across a run).
    RunLength {
        /// Run start coordinates.
        run_start: &'a [usize],
        /// Run end coordinates (inclusive).
        run_end: &'a [usize],
        /// Current run index.
        run: usize,
        /// One past the last run index.
        last_run: usize,
        /// Next coordinate to yield.
        coord: usize,
        /// Inclusive upper bound.
        hi: usize,
    },
}

impl LevelIter<'_> {
    /// Number of remaining `(coord, pos)` pairs.
    pub fn remaining(&self) -> usize {
        match self {
            LevelIter::Dense { coord, end, .. } => end - coord,
            LevelIter::Sparse { cursor, end, .. } => end - cursor,
            LevelIter::RunLength { run_start, run_end, run, last_run, coord, hi } => (*run
                ..*last_run)
                .map(|r| {
                    let lo = if r == *run { *coord } else { run_start[r] };
                    let end = run_end[r].min(*hi);
                    if end >= lo {
                        end - lo + 1
                    } else {
                        0
                    }
                })
                .sum(),
        }
    }
}

impl Iterator for LevelIter<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        match self {
            LevelIter::Dense { base, coord, end } => {
                if coord < end {
                    let c = *coord;
                    *coord += 1;
                    Some((c, *base + c))
                } else {
                    None
                }
            }
            LevelIter::Sparse { crd, cursor, end } => {
                if cursor < end {
                    let at = *cursor;
                    *cursor += 1;
                    Some((crd[at], at))
                } else {
                    None
                }
            }
            LevelIter::RunLength { run_start, run_end, run, last_run, coord, hi } => {
                if *run >= *last_run || *coord > *hi {
                    return None;
                }
                let c = *coord;
                let pos = *run;
                if c >= run_end[pos] {
                    *run += 1;
                    if *run < *last_run {
                        *coord = run_start[*run];
                    }
                } else {
                    *coord = c + 1;
                }
                Some((c, pos))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for LevelIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{csf, CSF3, CSR};

    fn sample_matrix() -> CooTensor {
        let mut coo = CooTensor::new(vec![3, 4]);
        coo.push(&[0, 1], 1.0);
        coo.push(&[0, 3], 2.0);
        coo.push(&[2, 0], 3.0);
        coo.push(&[2, 3], 4.0);
        coo
    }

    #[test]
    fn csr_pack_and_get() {
        let m = SparseTensor::from_coo(&sample_matrix(), &CSR).unwrap();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(&[0, 1]), 1.0);
        assert_eq!(m.get(&[2, 3]), 4.0);
        assert_eq!(m.get(&[1, 0]), 0.0);
        assert_eq!(m.get(&[0, 0]), 0.0);
    }

    #[test]
    fn coo_roundtrip_csr() {
        let coo = sample_matrix();
        let m = SparseTensor::from_coo(&coo, &CSR).unwrap();
        assert_eq!(m.to_coo(), coo);
    }

    #[test]
    fn coo_roundtrip_all_sparse() {
        let coo = sample_matrix();
        let m = SparseTensor::from_coo(&coo, &[LevelFormat::Sparse, LevelFormat::Sparse]).unwrap();
        assert_eq!(m.to_coo(), coo);
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn coo_roundtrip_all_dense() {
        let coo = sample_matrix();
        let m = SparseTensor::from_coo(&coo, &[LevelFormat::Dense, LevelFormat::Dense]).unwrap();
        assert_eq!(m.to_coo(), coo);
        // Fully dense storage materializes every position.
        assert_eq!(m.nnz(), 12);
    }

    #[test]
    fn csf3_pack_and_get() {
        let mut coo = CooTensor::new(vec![3, 3, 3]);
        coo.push(&[0, 1, 2], 1.0);
        coo.push(&[0, 2, 2], 2.0);
        coo.push(&[2, 0, 0], 3.0);
        let t = SparseTensor::from_coo(&coo, &CSF3).unwrap();
        assert_eq!(t.get(&[0, 1, 2]), 1.0);
        assert_eq!(t.get(&[0, 2, 2]), 2.0);
        assert_eq!(t.get(&[2, 0, 0]), 3.0);
        assert_eq!(t.get(&[1, 1, 1]), 0.0);
        assert_eq!(t.to_coo(), coo);
    }

    #[test]
    fn format_rank_mismatch_rejected() {
        let coo = sample_matrix();
        assert!(matches!(
            SparseTensor::from_coo(&coo, &[LevelFormat::Dense]),
            Err(TensorError::FormatRankMismatch { rank: 2, formats: 1 })
        ));
    }

    #[test]
    fn level_iter_bounds_sparse() {
        // Row 2 holds coords {0, 3}; restrict to [1, 3] -> only coord 3.
        let m = SparseTensor::from_coo(&sample_matrix(), &CSR).unwrap();
        let row2 = m.level_find(0, 0, 2).unwrap();
        let pairs: Vec<(usize, usize)> = m.level_iter(1, row2, 1, 3).collect();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0, 3);
        assert_eq!(m.value(pairs[0].1), 4.0);
    }

    #[test]
    fn level_iter_bounds_dense() {
        let m = SparseTensor::from_coo(&sample_matrix(), &[LevelFormat::Dense, LevelFormat::Dense])
            .unwrap();
        let pairs: Vec<(usize, usize)> = m.level_iter(0, 0, 1, 2).collect();
        assert_eq!(pairs.iter().map(|p| p.0).collect::<Vec<_>>(), vec![1, 2]);
        // Bound past the extent saturates.
        let all: Vec<_> = m.level_iter(0, 0, 0, 99).collect();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn level_iter_empty_range() {
        let m = SparseTensor::from_coo(&sample_matrix(), &CSR).unwrap();
        let row0 = m.level_find(0, 0, 0).unwrap();
        assert_eq!(m.level_iter(1, row0, 2, 1).count(), 0);
    }

    #[test]
    fn level_find_missing_row_in_sparse_root() {
        let coo = sample_matrix();
        let m = SparseTensor::from_coo(&coo, &[LevelFormat::Sparse, LevelFormat::Sparse]).unwrap();
        // Row 1 holds nothing; the root sparse level stores rows {0, 2}.
        assert_eq!(m.level_find(0, 0, 1), None);
        assert!(m.level_find(0, 0, 2).is_some());
    }

    #[test]
    fn empty_tensor_reads_zero() {
        let m = SparseTensor::empty(vec![5, 5], &CSR).unwrap();
        assert_eq!(m.get(&[3, 3]), 0.0);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.to_coo().nnz(), 0);
    }

    #[test]
    fn permuted_transposes_and_preserves_values() {
        let m = SparseTensor::from_coo(&sample_matrix(), &CSR).unwrap();
        let t = m.permuted(&[1, 0]).unwrap();
        assert_eq!(t.dims(), &[4, 3]);
        assert_eq!(t.get(&[3, 2]), 4.0);
        assert_eq!(t.get(&[1, 0]), 1.0);
        let back = t.permuted(&[1, 0]).unwrap();
        assert_eq!(back.to_coo(), m.to_coo());
    }

    #[test]
    fn csf_helper_shapes() {
        assert_eq!(csf(5).len(), 5);
        assert!(matches!(csf(1)[0], LevelFormat::Dense));
    }

    #[test]
    fn duplicate_coo_entries_accumulate_via_pack() {
        let mut coo = CooTensor::new(vec![2, 2]);
        coo.push(&[0, 0], 1.0);
        coo.push(&[0, 0], 2.0);
        let m = SparseTensor::from_coo(&coo, &CSR).unwrap();
        assert_eq!(m.get(&[0, 0]), 3.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn flat_entries_check_like_pushes_and_report_the_first_offender() {
        let (coords, vals) = (vec![1, 0, 0, 2, 0, 2], vec![2.5, 1.0, 0.5]);
        let flat = Entries::from_flat(vec![2, 3], coords.clone(), vals.clone()).unwrap();
        let mut pushed = Entries::new(vec![2, 3]);
        for (key, &v) in coords.chunks_exact(2).zip(&vals) {
            pushed.try_push(key, v).unwrap();
        }
        assert_eq!(flat.pack(&CSR).unwrap(), pushed.pack(&CSR).unwrap());
        let out = TensorError::CoordOutOfBounds { mode: 1, coord: 3, dim: 3 };
        let err = Entries::from_flat(vec![2, 3], vec![0, 0, 1, 3, 2, 0], vec![1.0; 3]);
        assert_eq!(err.unwrap_err(), (1, out), "entry 1 offends first");
        let arity = TensorError::RankMismatch { expected: 2, got: 1 };
        let err = Entries::from_flat(vec![2, 3], vec![0, 1], vec![1.0; 2]);
        assert_eq!(err.unwrap_err(), (0, arity));
    }

    #[test]
    fn exact_size_iterator() {
        let m = SparseTensor::from_coo(&sample_matrix(), &CSR).unwrap();
        let it = m.level_iter(0, 0, 0, usize::MAX);
        assert_eq!(it.len(), 3); // dense root of extent 3
    }
}
