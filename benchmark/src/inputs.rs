//! Seeded input generation, owned by the benchmark.
//!
//! Every size (dimension, stored-entry count) is fixed by the workload;
//! the seed decides only *where* the entries sit and *what* they hold.
//! That keeps the work per op the same across seeds, which the
//! benchmark's spread bounds depend on. Nothing here calls into
//! `systec-*` generators: the program under test receives only the
//! finished inputs.

use std::collections::HashSet;

use systec_serve::protocol::TensorPayload;
use systec_tensor::{CooTensor, DenseTensor};

/// xoshiro256** seeded through splitmix64.
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    /// A generator for one named input of a workload, so adding an
    /// input never shifts the stream of another.
    pub fn for_input(seed: u64, label: &str) -> Rng {
        let h = label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        });
        Rng::new(seed ^ h.rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A tensor value: uniform in `[0.1, 1.0)`, never zero or tiny, so
    /// stored-entry counts are exact and sums stay well conditioned.
    pub fn value(&mut self) -> f64 {
        0.1 + 0.9 * self.unit()
    }
}

/// A coordinate list in lexicographic order without duplicates.
#[derive(Clone)]
pub struct Entries {
    pub dims: Vec<usize>,
    /// `rank * nnz` coordinates, entry-major.
    pub coords: Vec<usize>,
    pub vals: Vec<f64>,
}

impl Entries {
    fn from_unsorted(dims: Vec<usize>, mut items: Vec<(Vec<usize>, f64)>) -> Entries {
        items.sort_by(|a, b| a.0.cmp(&b.0));
        let rank = dims.len();
        let mut coords = Vec::with_capacity(items.len() * rank);
        let mut vals = Vec::with_capacity(items.len());
        for (c, v) in items {
            coords.extend_from_slice(&c);
            vals.push(v);
        }
        Entries { dims, coords, vals }
    }

    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    #[cfg(test)]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&[usize], f64)> + '_ {
        self.coords.chunks_exact(self.rank()).zip(self.vals.iter().copied())
    }

    pub fn to_coo(&self) -> CooTensor {
        let mut coo = CooTensor::new(self.dims.clone());
        for (c, v) in self.iter() {
            coo.push(c, v);
        }
        coo
    }

    pub fn to_payload(&self) -> TensorPayload {
        TensorPayload::Coo(self.iter().map(|(c, v)| (c.to_vec(), v)).collect())
    }
}

/// A dense tensor with values in `[0.1, 1.0)`.
pub fn dense(dims: Vec<usize>, rng: &mut Rng) -> DenseTensor {
    let len: usize = dims.iter().product();
    let data: Vec<f64> = (0..len).map(|_| rng.value()).collect();
    DenseTensor::from_vec(dims, data).expect("length is the product of the dims")
}

/// A symmetric `n`×`n` matrix with a full diagonal and exactly
/// `pairs` off-diagonal pairs, so `nnz = n + 2 * pairs` for every seed.
/// A share `band_frac` of the pairs sits within `bandwidth` of the
/// diagonal, the rest anywhere: the mixed structure of the paper's
/// Table 2 matrices (FEM and circuit problems).
pub fn symmetric_banded(
    n: usize,
    pairs: usize,
    bandwidth: usize,
    band_frac: f64,
    rng: &mut Rng,
) -> Entries {
    assert!(n >= 2 && bandwidth >= 1 && pairs <= n * (n - 1) / 4, "matrix too dense to place");
    let mut seen: HashSet<u64> = HashSet::with_capacity(pairs * 2);
    let mut items = Vec::with_capacity(n + 2 * pairs);
    for i in 0..n {
        items.push((vec![i, i], rng.value()));
    }
    while seen.len() < pairs {
        let i = rng.below(n);
        let j = if rng.unit() < band_frac {
            let lo = i.saturating_sub(bandwidth);
            let hi = (i + bandwidth).min(n - 1);
            lo + rng.below(hi - lo + 1)
        } else {
            rng.below(n)
        };
        if i == j {
            continue;
        }
        let (a, b) = (i.min(j), i.max(j));
        if seen.insert((a as u64) << 32 | b as u64) {
            let v = rng.value();
            items.push((vec![a, b], v));
            items.push((vec![b, a], v));
        }
    }
    Entries::from_unsorted(vec![n, n], items)
}

/// A symmetric matrix constant on `block`×`block` tiles: exactly
/// `diag_blocks` tiles on the diagonal and `off_blocks` tile pairs off
/// it, so `nnz = block² * (diag_blocks + 2 * off_blocks)` for every
/// seed. Packed with a run-length leaf level each stored row is a few
/// long runs.
pub fn symmetric_plateau(
    n: usize,
    block: usize,
    diag_blocks: usize,
    off_blocks: usize,
    rng: &mut Rng,
) -> Entries {
    let nb = n / block;
    assert!(diag_blocks <= nb && off_blocks <= nb * (nb - 1) / 4, "too many tiles");
    let mut items = Vec::with_capacity(block * block * (diag_blocks + 2 * off_blocks));
    let tile = |bi: usize, bj: usize, v: f64, items: &mut Vec<(Vec<usize>, f64)>| {
        for i in bi * block..(bi + 1) * block {
            for j in bj * block..(bj + 1) * block {
                items.push((vec![i, j], v));
            }
        }
    };
    let mut diag: HashSet<usize> = HashSet::new();
    while diag.len() < diag_blocks {
        let b = rng.below(nb);
        if diag.insert(b) {
            tile(b, b, rng.value(), &mut items);
        }
    }
    let mut off: HashSet<(usize, usize)> = HashSet::new();
    while off.len() < off_blocks {
        let (bi, bj) = (rng.below(nb), rng.below(nb));
        if bi == bj {
            continue;
        }
        let key = (bi.min(bj), bi.max(bj));
        if off.insert(key) {
            let v = rng.value();
            tile(key.0, key.1, v, &mut items);
            tile(key.1, key.0, v, &mut items);
        }
    }
    Entries::from_unsorted(vec![n, n], items)
}

/// A `rows`×`cols` matrix with exactly `nnz` entries at uniform
/// positions (SSYRK's asymmetric input).
pub fn uniform_matrix(rows: usize, cols: usize, nnz: usize, rng: &mut Rng) -> Entries {
    assert!(nnz <= rows * cols / 2, "matrix too dense to place");
    let mut seen: HashSet<(usize, usize)> = HashSet::with_capacity(nnz * 2);
    let mut items = Vec::with_capacity(nnz);
    while seen.len() < nnz {
        let key = (rng.below(rows), rng.below(cols));
        if seen.insert(key) {
            items.push((vec![key.0, key.1], rng.value()));
        }
    }
    Entries::from_unsorted(vec![rows, cols], items)
}

fn permutations(k: usize) -> Vec<Vec<usize>> {
    if k == 1 {
        return vec![vec![0]];
    }
    let mut out = Vec::new();
    for p in permutations(k - 1) {
        for at in 0..k {
            let mut q = p.clone();
            q.insert(at, k - 1);
            out.push(q);
        }
    }
    out
}

/// A fully symmetric order-`order` tensor of side `n` holding every
/// permutation of exactly `strict` coordinate tuples with distinct
/// indices and of `diagonal` tuples whose two smallest indices coincide
/// (the diagonal cases the compiler splits off), so
/// `nnz = order! * strict + order!/2 * diagonal` for every seed.
pub fn symmetric_tensor(
    n: usize,
    order: usize,
    strict: usize,
    diagonal: usize,
    rng: &mut Rng,
) -> Entries {
    assert!(order >= 3 && n >= 2 * order, "side too small to draw distinct tuples");
    let perms = permutations(order);
    let mut canonical: HashSet<Vec<usize>> = HashSet::new();
    let mut items = Vec::new();
    let draw = |distinct: usize, rng: &mut Rng| -> Vec<usize> {
        let mut t: Vec<usize> = Vec::with_capacity(order);
        while t.len() < distinct {
            let c = rng.below(n);
            if !t.contains(&c) {
                t.push(c);
            }
        }
        t.sort_unstable();
        t
    };
    let mut placed = 0;
    while placed < strict + diagonal {
        let tuple = if placed < strict {
            draw(order, rng)
        } else {
            let mut t = draw(order - 1, rng);
            t.insert(0, t[0]);
            t
        };
        if !canonical.insert(tuple.clone()) {
            continue;
        }
        placed += 1;
        let v = rng.value();
        let mut images: Vec<Vec<usize>> =
            perms.iter().map(|p| p.iter().map(|&k| tuple[k]).collect()).collect();
        images.sort();
        images.dedup();
        items.extend(images.into_iter().map(|c| (c, v)));
    }
    Entries::from_unsorted(vec![n; order], items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_do_not_depend_on_the_seed() {
        for seed in [1, 2, 99] {
            let mut r = Rng::new(seed);
            assert_eq!(symmetric_banded(500, 2000, 8, 0.7, &mut r).nnz(), 500 + 4000);
            assert_eq!(symmetric_plateau(160, 16, 2, 5, &mut r).nnz(), 256 * 12);
            assert_eq!(uniform_matrix(50, 60, 300, &mut r).nnz(), 300);
            assert_eq!(symmetric_tensor(12, 3, 40, 6, &mut r).nnz(), 6 * 40 + 3 * 6);
            assert_eq!(symmetric_tensor(12, 4, 10, 4, &mut r).nnz(), 24 * 10 + 12 * 4);
        }
    }

    #[test]
    fn same_seed_same_inputs_and_symmetric() {
        let a = symmetric_banded(300, 900, 6, 0.7, &mut Rng::new(7));
        let b = symmetric_banded(300, 900, 6, 0.7, &mut Rng::new(7));
        assert_eq!(a.coords, b.coords);
        assert_eq!(a.vals, b.vals);
        assert!(a.to_coo().is_fully_symmetric());
        assert!(symmetric_tensor(12, 3, 40, 6, &mut Rng::new(7)).to_coo().is_fully_symmetric());
        assert!(symmetric_plateau(160, 16, 2, 5, &mut Rng::new(7)).to_coo().is_fully_symmetric());
        let c = symmetric_banded(300, 900, 6, 0.7, &mut Rng::new(8));
        assert_ne!(a.coords, c.coords);
    }
}
