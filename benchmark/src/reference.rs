//! The reference evaluators every workload's outputs are checked
//! against: plain loops over coordinate entries, sharing no code with
//! the compiler, the VM or the native comparators.

use crate::inputs::Entries;

/// `y[i] += A[i, j] * x[j]`
pub fn ssymv(a: &Entries, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.dims[0]];
    for (c, v) in a.iter() {
        y[c[0]] += v * x[c[1]];
    }
    y
}

/// `y[] += x[i] * A[i, j] * x[j]`
pub fn syprd(a: &Entries, x: &[f64]) -> Vec<f64> {
    let mut y = 0.0;
    for (c, v) in a.iter() {
        y += x[c[0]] * v * x[c[1]];
    }
    vec![y]
}

/// `y[i] min= A[i, j] + d[j]`, from `y = +inf`.
pub fn bellman_ford(a: &Entries, d: &[f64]) -> Vec<f64> {
    let mut y = vec![f64::INFINITY; a.dims[0]];
    for (c, v) in a.iter() {
        y[c[0]] = y[c[0]].min(v + d[c[1]]);
    }
    y
}

/// `C[i, j] += A[i, k] * A[j, k]`, row-major `rows`×`rows`.
pub fn ssyrk(a: &Entries) -> Vec<f64> {
    let (rows, cols) = (a.dims[0], a.dims[1]);
    let mut by_col: Vec<Vec<(usize, f64)>> = vec![Vec::new(); cols];
    for (c, v) in a.iter() {
        by_col[c[1]].push((c[0], v));
    }
    let mut out = vec![0.0; rows * rows];
    for col in &by_col {
        for &(i, vi) in col {
            for &(j, vj) in col {
                out[i * rows + j] += vi * vj;
            }
        }
    }
    out
}

/// `C[i, j, l] += A[k, j, l] * B[k, i]` with `B` row-major `n`×`r`;
/// the result is row-major `r`×`n`×`n`.
pub fn ttm(a: &Entries, b: &[f64], r: usize) -> Vec<f64> {
    let n = a.dims[0];
    let mut out = vec![0.0; r * n * n];
    for (c, v) in a.iter() {
        let (k, j, l) = (c[0], c[1], c[2]);
        for i in 0..r {
            out[(i * n + j) * n + l] += v * b[k * r + i];
        }
    }
    out
}

/// `C[i, j] += A[i, k, l, …] * B[k, j] * B[l, j] * …` with `B`
/// row-major `n`×`r`; the result is row-major `n`×`r`.
pub fn mttkrp(a: &Entries, b: &[f64], r: usize) -> Vec<f64> {
    let n = a.dims[0];
    let mut out = vec![0.0; n * r];
    for (c, v) in a.iter() {
        for j in 0..r {
            let mut term = v;
            for &m in &c[1..] {
                term *= b[m * r + j];
            }
            out[c[0] * r + j] += term;
        }
    }
    out
}

/// Largest deviation of `got` from `want`, relative to the magnitude of
/// the reference (at least 1). Infinite values must match exactly; a
/// length mismatch or a NaN is an infinite deviation.
pub fn rel_deviation(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    let scale = want.iter().filter(|w| w.is_finite()).fold(1.0f64, |m, w| m.max(w.abs()));
    let mut worst = 0.0f64;
    for (&g, &w) in got.iter().zip(want) {
        let dev = if g == w { 0.0 } else { (g - w).abs() / scale };
        if dev.is_nan() {
            return f64::INFINITY;
        }
        worst = worst.max(dev);
    }
    worst
}

/// The tolerance every output is held to.
pub const TOLERANCE: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Entries {
        // [[2, 1], [1, 0]]
        Entries { dims: vec![2, 2], coords: vec![0, 0, 0, 1, 1, 0], vals: vec![2.0, 1.0, 1.0] }
    }

    #[test]
    fn rank2_kernels_by_hand() {
        let x = [1.0, 3.0];
        assert_eq!(ssymv(&tiny(), &x), vec![5.0, 1.0]);
        assert_eq!(syprd(&tiny(), &x), vec![2.0 + 3.0 + 3.0]);
        assert_eq!(bellman_ford(&tiny(), &x), vec![3.0, 2.0]);
        assert_eq!(ssyrk(&tiny()), vec![5.0, 2.0, 2.0, 1.0]);
    }

    #[test]
    fn deviation_handles_infinities_and_lengths() {
        assert_eq!(rel_deviation(&[f64::INFINITY, 1.0], &[f64::INFINITY, 1.0]), 0.0);
        assert_eq!(rel_deviation(&[1.0], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(rel_deviation(&[f64::NAN], &[1.0]), f64::INFINITY);
        assert!(rel_deviation(&[100.0 + 1e-8], &[100.0]) < TOLERANCE);
        assert!(rel_deviation(&[1.0], &[f64::INFINITY]).is_infinite());
    }
}
