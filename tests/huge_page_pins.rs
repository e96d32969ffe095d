//! Exact-statistics pins for the two huge-page allocation policies that
//! no golden covers end to end: `Promote2M { threshold: 64 }` (the only
//! policy with size-tagged LLT and reverse-map keys) and `Uniform(1G)`.
//!
//! The expected values were recorded from the hash-map page table and
//! reverse maps; the dense arena and frame-indexed reverse map that
//! replaced them must reproduce every counter.

use dpc::prelude::*;
use dpc_memsim::StructStats;

const WORKLOADS: [&str; 3] = ["canneal", "cg.B", "bc"];
/// No warm-up: the cold phase, where Promote2M still maps 4 KB pages
/// and walks at both sizes, is part of the measurement.
const MEASURE: u64 = 40_000;

/// `[lookups, hits, misses, fills, bypasses, evictions, shadow_hits,
/// invalidations]`.
fn fields(s: &StructStats) -> [u64; 8] {
    [s.lookups, s.hits, s.misses, s.fills, s.bypasses, s.evictions, s.shadow_hits, s.invalidations]
}

/// One pinned run: its key and its expected counters.
struct Pin {
    policy: &'static str,
    workload: &'static str,
    predictors: bool,
    llt: [u64; 8],
    llc: [u64; 8],
    /// `[walks, doa_blocks_classified, doa_blocks_on_doa_pages]`.
    doa: [u64; 3],
}

fn alloc_policy(label: &str) -> AllocPolicy {
    match label {
        "promote2m" => AllocPolicy::Promote2M { threshold: 64 },
        _ => AllocPolicy::Uniform(PageSize::Size1G),
    }
}

/// The paper machine scaled down until Tiny footprints put it under
/// pressure: at the paper's sizes huge pages leave the LLT and LLC idle,
/// and the walks, LLT stays and DOA evictions these pins exist for never
/// happen. A 16-entry L1 D-TLB and LLT keep the 4 KB phase of promotion
/// missing; an 8 / 32 / 64 KiB cache hierarchy makes the LLC evict.
fn machine(policy: &str) -> SystemConfig {
    let mut system = SystemConfig::paper_baseline()
        .with_page_policy(alloc_policy(policy))
        .with_l2_tlb_entries(16)
        .with_llc_bytes(64 << 10);
    system.l1_dtlb.entries = 16;
    system.l1d.size_bytes = 8 << 10;
    system.l2.size_bytes = 32 << 10;
    system
}

fn run(policy: &str, workload: &str, predictors: bool) -> SimStats {
    let factory = WorkloadFactory::new(Scale::Tiny, 42);
    let (tlb, llc) = if predictors {
        (TlbPolicySel::DpPred, LlcPolicySel::CbPred)
    } else {
        (TlbPolicySel::Baseline, LlcPolicySel::Baseline)
    };
    let config =
        RunConfig::baseline(0, MEASURE).with_system(machine(policy)).with_policies(tlb, llc);
    run_workload(&factory, workload, &config).stats
}

const PINS: &[Pin] = &[
    Pin {
        policy: "promote2m",
        workload: "canneal",
        predictors: false,
        llt: [68, 0, 68, 68, 0, 59, 0, 0],
        llc: [36526, 580, 35946, 35946, 0, 34922, 0, 0],
        doa: [68, 34312, 34312],
    },
    Pin {
        policy: "promote2m",
        workload: "canneal",
        predictors: true,
        llt: [68, 0, 68, 68, 0, 59, 0, 0],
        llc: [36526, 580, 35946, 35946, 0, 34922, 0, 0],
        doa: [68, 34312, 34312],
    },
    Pin {
        policy: "promote2m",
        workload: "cg.B",
        predictors: false,
        llt: [8383, 438, 7945, 7945, 0, 7937, 0, 0],
        llc: [12516, 2209, 10307, 10307, 0, 9283, 0, 0],
        doa: [7945, 7685, 7437],
    },
    Pin {
        policy: "promote2m",
        workload: "cg.B",
        predictors: true,
        llt: [8383, 1500, 6883, 2128, 4755, 2120, 32, 0],
        llc: [12517, 2213, 10304, 10301, 3, 9277, 0, 0],
        doa: [6851, 7680, 6859],
    },
    Pin {
        policy: "promote2m",
        workload: "bc",
        predictors: false,
        llt: [1400, 6, 1394, 1394, 0, 1385, 0, 0],
        llc: [8155, 3509, 4646, 4646, 0, 3622, 0, 0],
        doa: [1394, 2398, 2396],
    },
    Pin {
        policy: "promote2m",
        workload: "bc",
        predictors: true,
        llt: [1400, 187, 1213, 415, 798, 406, 0, 0],
        llc: [8141, 3527, 4614, 4556, 58, 3532, 0, 0],
        doa: [1213, 2339, 2120],
    },
    Pin {
        policy: "1g",
        workload: "canneal",
        predictors: false,
        llt: [2, 1, 1, 1, 0, 0, 0, 0],
        llc: [36478, 580, 35898, 35898, 0, 34874, 0, 0],
        doa: [1, 34312, 0],
    },
    Pin {
        policy: "1g",
        workload: "canneal",
        predictors: true,
        llt: [2, 1, 1, 1, 0, 0, 0, 0],
        llc: [36478, 580, 35898, 35898, 0, 34874, 0, 0],
        doa: [1, 34312, 0],
    },
    Pin {
        policy: "1g",
        workload: "cg.B",
        predictors: false,
        llt: [2, 1, 1, 1, 0, 0, 0, 0],
        llc: [12381, 2195, 10186, 10186, 0, 9162, 0, 0],
        doa: [1, 7627, 0],
    },
    Pin {
        policy: "1g",
        workload: "cg.B",
        predictors: true,
        llt: [2, 1, 1, 1, 0, 0, 0, 0],
        llc: [12381, 2195, 10186, 10186, 0, 9162, 0, 0],
        doa: [1, 7627, 0],
    },
    Pin {
        policy: "1g",
        workload: "bc",
        predictors: false,
        llt: [2, 1, 1, 1, 0, 0, 0, 0],
        llc: [7975, 3475, 4500, 4500, 0, 3476, 0, 0],
        doa: [1, 2323, 0],
    },
    Pin {
        policy: "1g",
        workload: "bc",
        predictors: true,
        llt: [2, 1, 1, 1, 0, 0, 0, 0],
        llc: [7975, 3475, 4500, 4500, 0, 3476, 0, 0],
        doa: [1, 2323, 0],
    },
];

#[test]
fn huge_page_policies_reproduce_pinned_stats() {
    assert_eq!(PINS.len(), 2 * WORKLOADS.len() * 2, "one pin per policy × workload × predictors");
    for pin in PINS {
        let s = run(pin.policy, pin.workload, pin.predictors);
        let actual = (
            fields(&s.llt),
            fields(&s.llc),
            [s.walks, s.doa_blocks_classified, s.doa_blocks_on_doa_pages],
        );
        assert_eq!(
            actual,
            (pin.llt, pin.llc, pin.doa),
            "{} {} predictors={}: (llt, llc, [walks, doa_blocks_classified, \
             doa_blocks_on_doa_pages]) moved",
            pin.policy,
            pin.workload,
            pin.predictors,
        );
    }
}
