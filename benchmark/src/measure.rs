//! Timing helpers: quantiles, the closed-loop window and its rounds, and
//! interleaved A/B blocks for every number that is later divided by
//! another.

use std::time::{Duration, Instant};

/// The `q`-quantile of an ascending slice by linear interpolation.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// One op of a closed loop.
#[derive(Clone, Copy)]
pub struct Op {
    /// Request sent → reply received (or sweep start → sweep end).
    pub lat_ms: f64,
    /// When the loop was ready for its next op, in seconds since the
    /// window began.
    pub end_s: f64,
    /// Completed with the correct output.
    pub ok: bool,
}

/// Consecutive ops in one round of a window ([`Window::rounds`]).
pub const ROUND_OPS: usize = 16;

/// What one timed window of a closed loop produced.
#[derive(Default)]
pub struct Window {
    pub ops: Vec<Op>,
    pub wall_s: f64,
}

impl Window {
    /// Adds a window another connection produced over the same time.
    pub fn join(&mut self, other: Window) {
        self.ops.extend(other.ops);
        self.wall_s = self.wall_s.max(other.wall_s);
    }

    /// Adds a window the same connections produced afterwards.
    pub fn append(&mut self, other: &Window) {
        let shift = self.wall_s;
        self.ops.extend(other.ops.iter().map(|o| Op { end_s: o.end_s + shift, ..*o }));
        self.wall_s += other.wall_s;
    }

    /// A window one thread produced back to back, cut into rounds of
    /// [`ROUND_OPS`] consecutive ops. A round begins when the one before
    /// it ended, so the rounds tile the window; ops after the last full
    /// round are left out. A window shorter than one round is its own
    /// only round.
    pub fn rounds(&self) -> Vec<Window> {
        let mut begin = 0.0;
        let mut rounds: Vec<Window> = self
            .ops
            .chunks_exact(ROUND_OPS)
            .map(|ops| {
                let end = ops[ROUND_OPS - 1].end_s;
                let round = Window { ops: ops.to_vec(), wall_s: end - begin };
                begin = end;
                round
            })
            .collect();
        if rounds.is_empty() {
            rounds.push(Window { ops: self.ops.clone(), wall_s: self.wall_s });
        }
        rounds
    }

    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }

    /// A quantile of the latencies of every correct op. A failed op has
    /// no latency; it shows in `failed` and in [`Window::ops_per_s`].
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&sorted(self.ops.iter().filter(|o| o.ok).map(|o| o.lat_ms).collect()), q)
    }

    /// Median latency of one op over the window.
    pub fn op_p50_ms(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Ops completed correctly ÷ the window's wall time.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted() - self.failed()) as f64 / self.wall_s
    }

    pub fn has_correct_ops(&self) -> bool {
        self.ops.iter().any(|o| o.ok)
    }
}

/// One side of an interleaved comparison: the median seconds per call
/// over its blocks, and how much time those blocks sampled.
pub struct Side {
    pub per_call_s: f64,
    pub sampled_s: f64,
}

/// Times `sides` round-robin in short blocks within one process until
/// every side has `per_side` of samples, so slow drift (frequency,
/// neighbours on the box) lands on all sides alike. A block is sized to
/// about 2 ms so sub-microsecond calls are timed in bulk; each block's
/// mean is one sample and the side reports the median of its blocks.
pub fn interleave(sides: &mut [&mut dyn FnMut()], per_side: Duration) -> Vec<Side> {
    let block_len: Vec<u64> = sides
        .iter_mut()
        .map(|f| {
            f();
            let t0 = Instant::now();
            f();
            let one = t0.elapsed().as_secs_f64().max(1e-9);
            ((0.002 / one).ceil() as u64).clamp(1, 100_000)
        })
        .collect();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); sides.len()];
    let mut sampled = vec![0.0f64; sides.len()];
    let per_side = per_side.as_secs_f64();
    while sampled.iter().any(|&s| s < per_side) {
        for (k, f) in sides.iter_mut().enumerate() {
            if sampled[k] >= per_side {
                continue;
            }
            let t0 = Instant::now();
            for _ in 0..block_len[k] {
                f();
            }
            let dt = t0.elapsed().as_secs_f64();
            samples[k].push(dt / block_len[k] as f64);
            sampled[k] += dt;
        }
    }
    samples
        .into_iter()
        .zip(sampled)
        .map(|(s, sampled_s)| Side { per_call_s: median(&s), sampled_s })
        .collect()
}

/// Median seconds per call of one function over `budget` of samples.
pub fn time_call(mut f: impl FnMut(), budget: Duration) -> f64 {
    interleave(&mut [&mut f], budget)[0].per_call_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn window_statistics_count_every_correct_op() {
        let op = |lat_ms: f64, ok: bool| Op { lat_ms, end_s: 0.0, ok };
        let mut ops: Vec<Op> = (0..10).map(|k| op(10.0 + 0.1 * k as f64, true)).collect();
        ops.extend((0..30).map(|_| op(16.5, true)));
        ops.push(op(1.0, false));
        let w = Window { ops, wall_s: 2.0 };
        assert_eq!(w.op_p50_ms(), 16.5);
        assert_eq!(w.quantile(0.0), 10.0);
        assert_eq!((w.attempted(), w.failed()), (41, 1));
        assert_eq!(w.ops_per_s(), 20.0);
    }

    #[test]
    fn rounds_tile_the_window() {
        // 40 ops a tenth of a second apart: two full rounds, 8 ops left out.
        let ops: Vec<Op> = (0..40)
            .map(|k| Op { lat_ms: 90.0, end_s: 0.1 * (k + 1) as f64, ok: k != 20 })
            .collect();
        let mut w = Window { ops, wall_s: 4.0 };
        let rounds = w.rounds();
        assert_eq!(rounds.len(), 2);
        assert!((rounds[0].wall_s - 1.6).abs() < 1e-9 && (rounds[1].wall_s - 1.6).abs() < 1e-9);
        assert!((rounds[0].ops_per_s() - 10.0).abs() < 1e-9);
        assert!((rounds[1].ops_per_s() - 15.0 / 1.6).abs() < 1e-9);
        w.ops.truncate(5);
        assert_eq!(w.rounds().len(), 1);
        let mut joined = Window { ops: Vec::new(), wall_s: 1.0 };
        joined.append(&w);
        assert!((joined.ops[0].end_s - 1.1).abs() < 1e-9);
    }

    #[test]
    fn interleave_samples_every_side() {
        let (mut a, mut b) = (0u64, 0u64);
        let sides = interleave(
            &mut [&mut || a += 1, &mut || b = std::hint::black_box(b + 1)],
            Duration::from_millis(5),
        );
        assert_eq!(sides.len(), 2);
        assert!(sides.iter().all(|s| s.sampled_s >= 0.005 && s.per_call_s > 0.0));
    }
}
