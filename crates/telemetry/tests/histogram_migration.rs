//! Edge cases for the latency-ring → histogram migration (PR 6).
//!
//! The serve crate used to keep a 512-sample mutex-guarded ring per
//! kernel and report a median over whatever survived the wraparound;
//! these tests pin down the behaviors the replacement histogram must
//! get right where the ring was lossy or racy: exact bucket boundary
//! placement, saturation into the top bucket instead of dropping,
//! full retention past the old ring capacity, and deterministic
//! merges of concurrently recorded shards.

use systec_telemetry::{bucket_index, bucket_upper, Histogram, Snapshot, BUCKETS};

/// The old serve-side ring kept this many samples; the histogram must
/// not degrade at or past it.
const OLD_RING_CAPACITY: u64 = 512;

#[test]
fn bucket_boundary_values_land_on_their_own_side() {
    // For every exported power-of-two-ish boundary, the inclusive
    // upper bound stays in its bucket and the next value moves on.
    for k in 2..63u32 {
        let boundary = (1u64 << k) - 1; // upper bound of an octave
        let below = bucket_index(boundary);
        let above = bucket_index(boundary + 1);
        assert_eq!(bucket_upper(below), boundary, "2^{k} - 1 must end a bucket");
        assert!(above > below, "2^{k} must start a new bucket");
    }
    // Cumulative counts at a boundary are exact, not interpolated.
    let h = Histogram::new();
    h.record(1023);
    h.record(1024);
    let s = h.snapshot();
    assert_eq!(s.cumulative_le(1023), 1);
    assert_eq!(s.cumulative_le(2047), 2);
}

#[test]
fn overflow_saturates_into_top_bucket_without_losing_counts() {
    let h = Histogram::new();
    for huge in [u64::MAX, u64::MAX - 1, 1u64 << 63, (1u64 << 63) + 12345] {
        h.record(huge);
    }
    let s = h.snapshot();
    assert_eq!(s.count, 4, "no observation may be dropped");
    assert_eq!(s.max, u64::MAX);
    // All land in the final octave's buckets; the ladder's +Inf rung
    // (snapshot.count) is the only exported rung that sees them.
    assert_eq!(s.cumulative_le((1u64 << 34) - 1), 0);
    let top_buckets: u64 = s.buckets[BUCKETS - 4..].iter().sum();
    assert_eq!(top_buckets, 4);
    // Quantiles stay finite and capped at the true max.
    assert_eq!(s.quantile(0.99), Some(u64::MAX));
}

#[test]
fn no_wraparound_past_old_ring_capacity() {
    // The old ring forgot all but the last 512 samples; feed 8x that
    // with a distribution whose early samples dominate the median and
    // check they still count.
    let h = Histogram::new();
    let total = OLD_RING_CAPACITY * 8;
    for i in 0..total {
        // First 7/8 of samples are fast (~1us), the last 1/8 slow
        // (~1ms). A 512-sample window would only see the slow tail.
        let v = if i < total - OLD_RING_CAPACITY { 1_000 } else { 1_000_000 };
        h.record(v);
    }
    let s = h.snapshot();
    assert_eq!(s.count, total, "every sample retained");
    let p50 = s.quantile(0.5).unwrap();
    assert!(p50 < 2_000, "median reflects the full history, got {p50}");
    let p99 = s.quantile(0.99).unwrap();
    assert!(p99 >= 1_000_000 / 2, "tail still visible, got {p99}");
    assert_eq!(s.sum, (total - OLD_RING_CAPACITY) * 1_000 + OLD_RING_CAPACITY * 1_000_000);
}

#[test]
fn concurrent_recording_is_deterministic_after_join() {
    // N threads each record a known multiset into a shared histogram
    // and into a private one. After joining: the shared snapshot must
    // equal the merge of the private snapshots, and both must equal
    // the single-threaded reference — bucket-for-bucket, independent
    // of interleaving.
    let shared = std::sync::Arc::new(Histogram::new());
    let threads = 8;
    let per_thread = 1_000u64;
    let values = move |t: u64| (0..per_thread).map(move |i| (t + 1) * 257 + i * 31);

    let mut handles = Vec::new();
    for t in 0..threads {
        let shared = std::sync::Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            let private = Histogram::new();
            for v in values(t) {
                shared.record(v);
                private.record(v);
            }
            private.snapshot()
        }));
    }
    let mut merged = Snapshot::default();
    for handle in handles {
        merged.merge(&handle.join().unwrap());
    }

    let reference = Histogram::new();
    for t in 0..threads {
        for v in values(t) {
            reference.record(v);
        }
    }

    assert_eq!(shared.snapshot(), reference.snapshot());
    assert_eq!(merged, reference.snapshot());
    assert_eq!(merged.count, threads * per_thread);
}
