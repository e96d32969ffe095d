//! Metrics computed from simulated counts: the three paper ratios
//! (end to end) and the per-layer counts of dpc-memsim and
//! dpc-predictors. All of them are exact for a given seed.

use crate::report::Metrics;
use dpc_memsim::{AccuracyReport, SimStats};

/// One workload's baseline and dpPred+cbPred results.
pub struct PairView<'a> {
    /// Baseline statistics (no predictor).
    pub base: &'a SimStats,
    /// dpPred+cbPred statistics.
    pub pair: &'a SimStats,
    /// dpPred's accuracy report.
    pub llt_accuracy: Option<AccuracyReport>,
    /// cbPred's accuracy report.
    pub llc_accuracy: Option<AccuracyReport>,
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Percentage reduction of `new` relative to `base`, 0 when `base` is 0
/// (the definition the paper tables use).
fn reduction_pct(base: f64, new: f64) -> f64 {
    ratio((base - new) * 100.0, base)
}

/// The paper's three headline results over `pairs`, each as a ratio to
/// the baseline: geomean IPC ratio (Fig. 10, cbPred column), and one
/// minus the mean LLT / LLC MPKI reduction (Tables IV and V).
pub fn paper_ratios(pairs: &[PairView<'_>]) -> (f64, f64, f64) {
    let n = pairs.len() as f64;
    let log_ipc: f64 = pairs.iter().map(|p| ratio(p.pair.ipc(), p.base.ipc()).ln()).sum();
    let llt: f64 = pairs.iter().map(|p| reduction_pct(p.base.llt_mpki(), p.pair.llt_mpki())).sum();
    let llc: f64 = pairs.iter().map(|p| reduction_pct(p.base.llc_mpki(), p.pair.llc_mpki())).sum();
    ((log_ipc / n).exp(), 1.0 - llt / n / 100.0, 1.0 - llc / n / 100.0)
}

/// Adds the three paper ratios as end-to-end metrics and prints them
/// beside the paper's reported values.
pub fn add_paper_ratios(metrics: &mut Metrics, (ipc, llt, llc): (f64, f64, f64)) {
    metrics.add("ipc_ratio", ipc, "ratio");
    metrics.add("llt_mpki_ratio", llt, "ratio");
    metrics.add("llc_mpki_ratio", llc, "ratio");
    println!(
        "# simulated: IPC gain {:+.2}% (paper +8.3), LLT MPKI cut {:.2}% (paper 9.65), \
         LLC MPKI cut {:.2}% (paper 4.24)",
        (ipc - 1.0) * 100.0,
        (1.0 - llt) * 100.0,
        (1.0 - llc) * 100.0
    );
}

/// Per-layer simulated counts of the memory system, from the baseline
/// runs (counters summed over workloads before dividing).
pub fn add_memsim_counts(metrics: &mut Metrics, base: &[&SimStats]) {
    let sum = |f: &dyn Fn(&SimStats) -> u64| base.iter().map(|s| f(s) as f64).sum::<f64>();
    let kinstr = sum(&|s| s.instructions) / 1000.0;
    let walks = sum(&|s| s.walks);
    metrics.add(
        "memsim.l1d_tlb_miss_ratio",
        ratio(sum(&|s| s.l1d_tlb.misses), sum(&|s| s.l1d_tlb.lookups)),
        "ratio",
    );
    metrics.add("memsim.llt_mpki", ratio(sum(&|s| s.llt.misses), kinstr), "1/kinstr");
    metrics.add("memsim.walks_pki", ratio(walks, kinstr), "1/kinstr");
    metrics.add(
        "memsim.pwc_hits_per_walk",
        ratio(sum(&|s| s.pwc_hits.iter().sum()), walks),
        "count",
    );
    metrics.add(
        "memsim.walk_cycle_share",
        ratio(sum(&|s| s.walk_cycles), sum(&|s| s.cycles)),
        "ratio",
    );
    metrics.add(
        "memsim.l1d_miss_ratio",
        ratio(sum(&|s| s.l1d.misses), sum(&|s| s.l1d.lookups)),
        "ratio",
    );
    metrics.add(
        "memsim.l2_miss_ratio",
        ratio(sum(&|s| s.l2.misses), sum(&|s| s.l2.lookups)),
        "ratio",
    );
    metrics.add("memsim.llc_mpki", ratio(sum(&|s| s.llc.misses), kinstr), "1/kinstr");
    metrics.add("memsim.ipc", ratio(sum(&|s| s.instructions), sum(&|s| s.cycles)), "ratio");
}

/// Per-layer simulated counts of dpPred and cbPred, from the
/// dpPred+cbPred runs.
pub fn add_predictor_counts(metrics: &mut Metrics, pairs: &[PairView<'_>]) {
    let kinstr = pairs.iter().map(|p| p.pair.instructions as f64).sum::<f64>() / 1000.0;
    let per_k =
        |f: &dyn Fn(&SimStats) -> u64| ratio(pairs.iter().map(|p| f(p.pair) as f64).sum(), kinstr);
    let accuracy = |reports: Vec<AccuracyReport>| {
        let sum = |f: &dyn Fn(&AccuracyReport) -> u64| reports.iter().map(|r| f(r) as f64).sum();
        let correct = sum(&|r| r.correct);
        (
            ratio(correct, correct + sum(&|r| r.mispredictions)),
            ratio(correct, sum(&|r| r.true_doas)),
        )
    };
    let (dp_accuracy, dp_coverage) =
        accuracy(pairs.iter().filter_map(|p| p.llt_accuracy).collect());
    let (cb_accuracy, cb_coverage) =
        accuracy(pairs.iter().filter_map(|p| p.llc_accuracy).collect());
    metrics.add("predictors.dppred_bypass_pki", per_k(&|s| s.llt.bypasses), "1/kinstr");
    metrics.add("predictors.dppred_accuracy", dp_accuracy, "ratio");
    metrics.add("predictors.dppred_coverage", dp_coverage, "ratio");
    metrics.add("predictors.shadow_hits_pki", per_k(&|s| s.llt.shadow_hits), "1/kinstr");
    metrics.add("predictors.cbpred_bypass_pki", per_k(&|s| s.llc.bypasses), "1/kinstr");
    metrics.add("predictors.cbpred_accuracy", cb_accuracy, "ratio");
    metrics.add("predictors.cbpred_coverage", cb_coverage, "ratio");
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set size of this process in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// A `/proc/self/status` field given in kB, in MB (0 when unreadable).
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix(field)
                    .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
