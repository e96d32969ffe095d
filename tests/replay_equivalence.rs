//! Replay ≡ live differential suite.
//!
//! Replayed runs decode a captured trace-store stream through
//! `System::run_stream`; live runs go through `System::run_until`, which
//! pulls every event straight from the generator. The two must be
//! architecturally indistinguishable — same `SimStats` and same
//! predictor accuracy — for every workload, across policy mixes and page
//! sizes.

use dpc::prelude::*;

fn config(tlb: TlbPolicySel, llc: LlcPolicySel, page: AllocPolicy) -> RunConfig {
    RunConfig {
        system: SystemConfig::paper_baseline().with_page_policy(page),
        tlb_policy: tlb,
        llc_policy: llc,
        warmup_mem_ops: 500,
        measure_mem_ops: 6_000,
    }
}

/// Every workload × {baseline, dpPred+cbPred, AIP} × {4 KB, 2 MB}:
/// replayed statistics must equal live ones.
#[test]
fn replay_is_architecturally_identical_to_live_generation() {
    let replay = WorkloadFactory::new(Scale::Tiny, 21).with_trace_store(true);
    let live = WorkloadFactory::new(Scale::Tiny, 21).with_trace_store(false);
    let combos = [
        (TlbPolicySel::Baseline, LlcPolicySel::Baseline),
        (TlbPolicySel::DpPred, LlcPolicySel::CbPred),
        (TlbPolicySel::AipTlb, LlcPolicySel::AipLlc),
    ];
    let pages = [AllocPolicy::Base4K, AllocPolicy::Uniform(PageSize::Size2M)];
    for page in pages {
        for (tlb, llc) in combos {
            for workload in WORKLOAD_NAMES {
                let cfg = config(tlb, llc, page);
                let r = dpc::run_workload(&replay, workload, &cfg);
                let l = dpc::run_workload(&live, workload, &cfg);
                let label = format!("{workload} {tlb:?}/{llc:?} {page:?}");
                assert_eq!(r.stats, l.stats, "{label}: replay must match live generation");
                assert_eq!(r.llt_accuracy, l.llt_accuracy, "{label}: TLB accuracy");
                assert_eq!(r.llc_accuracy, l.llc_accuracy, "{label}: LLC accuracy");
            }
        }
    }
}
