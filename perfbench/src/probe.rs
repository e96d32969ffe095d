//! A host memory probe. On a shared host, co-tenants contend for the
//! last-level cache and DRAM for minutes at a time, and the replay
//! workloads slow with them, `tlb_thrash` (whose simulations chase the
//! simulated page table through hash-map lookups) by up to 2x. The probe
//! times random lookups in a large hash table before every pass; its best
//! time in a run tracks the host's memory latency in that run, and the
//! pass time is scaled by it. The probe touches no simulator code, so a
//! change to the program moves the scaled time as it moves the measured
//! one.

use crate::layers;
use crate::trace::timed;
use std::collections::HashMap;

/// Entries of the probe table (about 40 MB resident).
const ENTRIES: u64 = 1 << 20;
/// Lookups per sample (about 15 ms on a calm host).
const LOOKUPS: u32 = 100_000;
/// The best sample time that scaled times refer to: the probe's best on
/// a calm 2-vCPU Intel Xeon (Sapphire Rapids, 2 GHz) VM.
pub const REFERENCE_S: f64 = 0.0145;

fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The probe table and its best sample.
pub struct Probe {
    table: HashMap<u64, u64>,
    resident_mb: f64,
    best: f64,
}

impl Probe {
    /// Builds the table and notes how much resident memory it took.
    pub fn new() -> Self {
        let before = layers::rss_mb();
        let table = (0..ENTRIES).map(|i| (key(i), i)).collect();
        let resident_mb = layers::rss_mb() - before;
        Probe { table, resident_mb, best: f64::INFINITY }
    }

    /// Times one sample of lookups (the same keys every time).
    pub fn sample(&mut self) {
        let (sum, secs) = timed(|| {
            let mut x = 0x2545_F491_4F6C_DD1D_u64;
            let mut sum = 0u64;
            for _ in 0..LOOKUPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                sum = sum.wrapping_add(self.table.get(&key(x % ENTRIES)).copied().unwrap_or(0));
            }
            sum
        });
        std::hint::black_box(sum);
        self.best = self.best.min(secs);
    }

    /// Best sample time in seconds.
    pub fn best_s(&self) -> f64 {
        self.best
    }

    /// `REFERENCE_S` over the best sample: below 1 on a loaded host.
    pub fn scale(&self) -> f64 {
        REFERENCE_S / self.best
    }

    /// Resident memory the table took, in MB.
    pub fn resident_mb(&self) -> f64 {
        self.resident_mb
    }
}
