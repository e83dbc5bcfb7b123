//! HDR-style log-bucketed histogram over a fixed array of atomic
//! buckets.
//!
//! The bucket layout is the classic "octave + linear sub-bucket"
//! scheme: values are grouped by their most significant bit (the
//! octave), and each octave is split into `2^SUB_BITS` equal-width
//! linear sub-buckets, giving a worst-case relative error of
//! `1 / 2^SUB_BITS` (25% here) at every magnitude. The whole `u64`
//! range is covered, so there is no rejection path: values past the
//! last full octave saturate into the top bucket rather than being
//! dropped, and `record` is a handful of relaxed atomic RMWs — no
//! locks, no allocation, no branches that depend on prior history.
//! That is what lets the serve crate put one of these on the
//! zero-allocation execution path where the old 512-sample latency
//! ring needed a `Mutex<Vec<u64>>`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per octave = `2^SUB_BITS`.
const SUB_BITS: u32 = 2;
const SUBS: u64 = 1 << SUB_BITS;

/// Total number of buckets: one group of exact small values plus four
/// sub-buckets for every octave up to `2^63`.
pub const BUCKETS: usize = ((64 - SUB_BITS) as usize) * SUBS as usize + SUBS as usize;

/// Maps a value to its bucket index. Total over all of `u64`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUBS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((value >> shift) & (SUBS - 1)) as usize;
    ((msb - SUB_BITS + 1) as usize) * SUBS as usize + sub
}

/// Inclusive upper bound of bucket `index` — the largest value that
/// [`bucket_index`] maps there.
pub fn bucket_upper(index: usize) -> u64 {
    let group = index as u64 / SUBS;
    let sub = index as u64 % SUBS;
    if group == 0 {
        return sub;
    }
    let msb = group + SUB_BITS as u64 - 1;
    let width = 1u64 << (msb - SUB_BITS as u64);
    let lower = (1u64 << msb) + sub * width;
    lower + (width - 1)
}

/// The coarse ladder of `le` boundaries used for Prometheus
/// exposition: inclusive upper bounds `2^k - 1` nanoseconds for
/// `k = 8..=34` (255 ns up to ~17.2 s). Every rung is the exact upper
/// bound of an internal bucket, so cumulative counts computed from a
/// [`Snapshot`] are exact, not interpolated.
pub fn export_ladder() -> impl Iterator<Item = u64> {
    (8u32..=34).map(|k| (1u64 << k) - 1)
}

/// A wait-free, allocation-free histogram with `BUCKETS` fixed atomic
/// buckets plus count / sum / max. Construction is `const`, so these
/// can live in `static`s; recording is a few relaxed RMWs.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram. `const`, so usable in `static` registries.
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the live buckets into a plain snapshot. Concurrent
    /// recorders may land between the individual loads, so a snapshot
    /// taken mid-traffic is a consistent *approximation*; once all
    /// recorders have quiesced (e.g. threads joined) it is exact.
    pub fn snapshot(&self) -> Snapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        Snapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain (non-atomic) copy of a histogram's state; quantiles and
/// exposition are computed from these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Per-bucket observation counts, indexed like the live histogram.
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping).
    pub sum: u64,
    /// Largest observed value (exact, unlike the bucketed quantiles).
    pub max: u64,
}

impl Default for Snapshot {
    fn default() -> Self {
        Self { buckets: [0; BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl Snapshot {
    /// The value at quantile `q` in `[0, 1]`: the inclusive upper
    /// bound of the bucket holding the `ceil(q * count)`-th smallest
    /// observation, capped at the exact observed maximum. `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper(index).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Exact count of observations `<= bound`, provided `bound` is a
    /// bucket upper bound (e.g. a rung of [`export_ladder`]); for
    /// other bounds the result is the count up to the last whole
    /// bucket below it.
    pub fn cumulative_le(&self, bound: u64) -> u64 {
        let mut total = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            if bucket_upper(index) > bound {
                break;
            }
            total += n;
        }
        total
    }

    /// Adds `other` into `self` bucket-wise. Merging per-thread or
    /// per-shard snapshots is deterministic: the merged buckets depend
    /// only on the multiset of recorded values, not on thread timing.
    pub fn merge(&mut self, other: &Snapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_map_exactly() {
        for v in 0..SUBS {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn index_and_upper_agree_everywhere() {
        // Every bucket's upper bound maps back into that bucket, and
        // upper + 1 maps into a strictly later bucket.
        for index in 0..BUCKETS {
            let upper = bucket_upper(index);
            assert_eq!(bucket_index(upper), index, "upper {upper} of bucket {index}");
            if upper < u64::MAX {
                assert!(bucket_index(upper + 1) > index);
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.quantile(0.5).unwrap();
        // 25% worst-case relative bucket error.
        assert!((384..=640).contains(&p50), "p50 {p50}");
        assert_eq!(s.quantile(1.0), Some(1000));
    }

    #[test]
    fn export_ladder_rungs_are_bucket_uppers() {
        for rung in export_ladder() {
            let index = bucket_index(rung);
            assert_eq!(bucket_upper(index), rung);
        }
    }
}
