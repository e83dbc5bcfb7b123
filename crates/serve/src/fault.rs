//! Deterministic fault injection for the serve tier.
//!
//! A [`FaultPlan`] is a seeded schedule of failures wired into the
//! seams of the serving stack: the read/write sweeps of the event loop,
//! the scheduler's dispatch path, the engine's kernel execution, and the
//! durability journal's write path. Production
//! servers carry no plan (`Engine::fault_plan()` returns `None`) and
//! every site costs a single `Option` load on that path; the chaos
//! test tier installs a plan and replays the *same* fault schedule on
//! every run — per-site decisions come from independent xorshift
//! streams stepped by atomic counters, so a site's n-th decision is a
//! pure function of `(seed, site, n)` regardless of how threads
//! interleave.
//!
//! Every injected fault is counted per site and exposed as
//! `systec_faults_injected_total{site="…"}` so a chaos run can assert
//! the faults it asked for actually fired.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A seam where a [`FaultPlan`] can force a failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultSite {
    /// Treat a connection's read sweep as a hard socket error.
    ConnRead,
    /// Treat a connection's write sweep as a hard socket error.
    ConnWrite,
    /// Sleep inside the scheduler between dequeue and the deadline
    /// check before dispatch (forces the check to fire).
    DispatchDelay,
    /// Panic on the executor thread outside the engine's catch (tests
    /// the scheduler's own isolation).
    ExecutorPanic,
    /// Panic inside kernel execution (tests engine quarantine).
    ExecPanic,
    /// Sleep inside kernel execution (forced slow run).
    ExecDelay,
    /// Tear a durability journal append half way with an I/O error.
    JournalWrite,
}

/// All sites, in stable order. Index in this array is the site's
/// stream/counter slot and the order of `faults_injected` samples in
/// the metrics exposition.
pub const FAULT_SITES: [FaultSite; 7] = [
    FaultSite::ConnRead,
    FaultSite::ConnWrite,
    FaultSite::DispatchDelay,
    FaultSite::ExecutorPanic,
    FaultSite::ExecPanic,
    FaultSite::ExecDelay,
    FaultSite::JournalWrite,
];

impl FaultSite {
    /// Stable label used in metrics (`site="…"`).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::ConnRead => "conn_read",
            FaultSite::ConnWrite => "conn_write",
            FaultSite::DispatchDelay => "dispatch_delay",
            FaultSite::ExecutorPanic => "executor_panic",
            FaultSite::ExecPanic => "exec_panic",
            FaultSite::ExecDelay => "exec_delay",
            FaultSite::JournalWrite => "journal_write",
        }
    }

    fn index(self) -> usize {
        FAULT_SITES.iter().position(|s| *s == self).expect("site listed")
    }
}

/// When a site fires.
#[derive(Clone, Copy, Debug)]
enum Mode {
    /// Never fires (default for every site).
    Never,
    /// Fires exactly once, on the n-th arming check (1-based).
    Nth(u64),
    /// Fires pseudo-randomly with probability `per_million / 1_000_000`
    /// per check, from the site's own seeded stream.
    Rate(u64),
}

struct SiteState {
    mode: Mode,
    /// xorshift64 stream state; stepped only in `Rate` mode.
    rng: AtomicU64,
    /// Arming checks seen (drives `Nth`).
    checks: AtomicU64,
    /// Faults actually injected.
    injected: AtomicU64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn xorshift64(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// A seeded, deterministic schedule of injected faults.
pub struct FaultPlan {
    sites: [SiteState; FAULT_SITES.len()],
    delay: Duration,
}

impl FaultPlan {
    /// A plan with every site disarmed. Stream seeds derive from
    /// `seed`, so arming a `Rate` later still replays deterministically.
    pub fn seeded(seed: u64) -> FaultPlan {
        let sites = std::array::from_fn(|i| SiteState {
            mode: Mode::Never,
            // splitmix decorrelates the per-site streams even for
            // adjacent seeds; `| 1` keeps xorshift out of its zero
            // fixed point.
            rng: AtomicU64::new(splitmix64(seed ^ (i as u64)) | 1),
            checks: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        });
        FaultPlan { sites, delay: Duration::from_millis(20) }
    }

    /// Arm `site` to fire exactly once, on its `n`-th check (1-based).
    pub fn nth(mut self, site: FaultSite, n: u64) -> FaultPlan {
        self.sites[site.index()].mode = Mode::Nth(n.max(1));
        self
    }

    /// Arm `site` to fire with probability `per_million / 1_000_000`
    /// per check.
    pub fn rate(mut self, site: FaultSite, per_million: u64) -> FaultPlan {
        self.sites[site.index()].mode = Mode::Rate(per_million.min(1_000_000));
        self
    }

    /// How long delay-type sites (`ExecDelay`, `DispatchDelay`) sleep
    /// when they fire.
    pub fn delay_for(mut self, delay: Duration) -> FaultPlan {
        self.delay = delay;
        self
    }

    /// The sleep injected by delay-type sites.
    pub fn delay(&self) -> Duration {
        self.delay
    }

    /// Decide whether `site` fails right now. Steps the site's check
    /// counter (and, in `Rate` mode, its stream) and counts the
    /// injection when it fires.
    pub fn fire(&self, site: FaultSite) -> bool {
        let s = &self.sites[site.index()];
        let check = s.checks.fetch_add(1, Ordering::Relaxed) + 1;
        let hit = match s.mode {
            Mode::Never => false,
            Mode::Nth(n) => check == n,
            Mode::Rate(per_million) => {
                let stepped = s
                    .rng
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |x| Some(xorshift64(x)))
                    .map(xorshift64)
                    .unwrap_or(1);
                stepped % 1_000_000 < per_million
            }
        };
        if hit {
            s.injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Faults injected so far at `site`.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.sites[site.index()].injected.load(Ordering::Relaxed)
    }

    /// Arming checks seen so far at `site`.
    pub fn checks(&self, site: FaultSite) -> u64 {
        self.sites[site.index()].checks.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("FaultPlan");
        for site in FAULT_SITES {
            let s = &self.sites[site.index()];
            d.field(site.name(), &(s.mode, s.injected.load(Ordering::Relaxed)));
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sites_never_fire() {
        let plan = FaultPlan::seeded(7);
        for _ in 0..10_000 {
            assert!(!plan.fire(FaultSite::ExecPanic));
        }
        assert_eq!(plan.injected(FaultSite::ExecPanic), 0);
        assert_eq!(plan.checks(FaultSite::ExecPanic), 10_000);
    }

    #[test]
    fn nth_fires_exactly_once_at_the_requested_check() {
        let plan = FaultPlan::seeded(7).nth(FaultSite::JournalWrite, 3);
        let fired: Vec<bool> = (0..6).map(|_| plan.fire(FaultSite::JournalWrite)).collect();
        assert_eq!(fired, [false, false, true, false, false, false]);
        assert_eq!(plan.injected(FaultSite::JournalWrite), 1);
    }

    #[test]
    fn rate_streams_are_deterministic_and_per_site_independent() {
        let a = FaultPlan::seeded(42).rate(FaultSite::ConnRead, 100_000);
        let b = FaultPlan::seeded(42)
            .rate(FaultSite::ConnRead, 100_000)
            .rate(FaultSite::ConnWrite, 500_000);
        // Interleave unrelated-site checks on `b`: ConnRead's decisions
        // must match `a` check-for-check anyway.
        let mut seq_a = Vec::new();
        let mut seq_b = Vec::new();
        for i in 0..4_000 {
            seq_a.push(a.fire(FaultSite::ConnRead));
            if i % 3 == 0 {
                b.fire(FaultSite::ConnWrite);
            }
            seq_b.push(b.fire(FaultSite::ConnRead));
        }
        assert_eq!(seq_a, seq_b);
        let hits = plan_hits(&a, FaultSite::ConnRead);
        // ~10% of 4000 checks; wide bounds, but zero or all would mean
        // the stream is broken.
        assert!(hits > 100 && hits < 1_000, "{hits} hits");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::seeded(1).rate(FaultSite::ExecPanic, 300_000);
        let b = FaultPlan::seeded(2).rate(FaultSite::ExecPanic, 300_000);
        let sa: Vec<bool> = (0..256).map(|_| a.fire(FaultSite::ExecPanic)).collect();
        let sb: Vec<bool> = (0..256).map(|_| b.fire(FaultSite::ExecPanic)).collect();
        assert_ne!(sa, sb);
    }

    fn plan_hits(plan: &FaultPlan, site: FaultSite) -> u64 {
        plan.injected(site)
    }
}
