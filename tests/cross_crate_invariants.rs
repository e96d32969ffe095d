//! Property-based invariants across the crate boundary: arbitrary access
//! streams through the full system must never violate structural
//! invariants, regardless of policy.

use dpc::prelude::*;
use proptest::prelude::*;

/// A compact description of a synthetic access stream.
#[derive(Clone, Debug)]
struct StreamSpec {
    /// (pc site, page id, offset) triples.
    accesses: Vec<(u8, u16, u16)>,
}

struct SpecWorkload {
    accesses: Vec<(u8, u16, u16)>,
    pos: usize,
}

impl Workload for SpecWorkload {
    fn name(&self) -> &str {
        "proptest-stream"
    }

    fn next_event(&mut self) -> Option<Event> {
        let &(site, page, offset) = self.accesses.get(self.pos)?;
        self.pos += 1;
        let pc = Pc::new(0x40_0000 + u64::from(site) * 4);
        let va = VirtAddr::new(0x5000_0000 + u64::from(page) * 4096 + u64::from(offset % 4096));
        Some(if site % 3 == 0 { Event::store(pc, va) } else { Event::load(pc, va) })
    }
}

fn spec_strategy() -> impl Strategy<Value = StreamSpec> {
    proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..400)
        .prop_map(|accesses| StreamSpec { accesses })
}

/// Every page-allocation policy, Promote2M with thresholds small enough
/// that short streams promote.
fn policy_strategy() -> impl Strategy<Value = AllocPolicy> {
    prop_oneof![
        Just(AllocPolicy::Base4K),
        Just(AllocPolicy::Uniform(PageSize::Size2M)),
        Just(AllocPolicy::Uniform(PageSize::Size1G)),
        (1u32..=4).prop_map(|threshold| AllocPolicy::Promote2M { threshold }),
    ]
}

/// The paper machine under `policy`, with the LLT and the caches shrunk
/// so that a few hundred accesses already evict from every level: the
/// LLT-stay and DOA-block bookkeeping then runs on every case.
fn machine(policy: AllocPolicy) -> SystemConfig {
    let mut config =
        SystemConfig::paper_baseline().with_page_policy(policy).with_l2_tlb_entries(16);
    config.l1d.size_bytes = 4 << 10;
    config.l2.size_bytes = 8 << 10;
    config.llc.size_bytes = 16 << 10;
    config
}

fn check_invariants(stats: &SimStats, n: usize) {
    assert_eq!(stats.mem_ops, n as u64);
    for st in [&stats.l1i_tlb, &stats.l1d_tlb, &stats.llt, &stats.l1d, &stats.l2, &stats.llc] {
        assert_eq!(st.hits + st.misses, st.lookups);
        assert!(st.bypasses <= st.misses);
    }
    assert_eq!(stats.walks, stats.llt.misses - stats.llt.shadow_hits);
    assert!(stats.walk_pte_loads <= 4 * stats.walks);
    assert!(stats.cycles >= (stats.instructions / 4));
    assert!(stats.llt_deadness.dead >= stats.llt_deadness.doa);
    // Table III's correlation classifies a subset of the DOA LLC
    // evictions, and counts a subset of those as on DOA pages.
    assert!(stats.doa_blocks_on_doa_pages <= stats.doa_blocks_classified);
    assert!(stats.doa_blocks_classified <= stats.llc_evictions.doa);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_streams_respect_invariants_baseline(
        spec in spec_strategy(),
        policy in policy_strategy(),
    ) {
        let n = spec.accesses.len();
        let mut system = System::new(machine(policy)).unwrap();
        let stats = system.run(&mut SpecWorkload { accesses: spec.accesses, pos: 0 });
        check_invariants(&stats, n);
    }

    #[test]
    fn arbitrary_streams_respect_invariants_with_predictors(
        spec in spec_strategy(),
        policy in policy_strategy(),
    ) {
        let n = spec.accesses.len();
        let config = machine(policy);
        let mut system = System::with_policies(
            config,
            Box::new(DpPred::paper_default()),
            Box::new(CbPred::paper_default(&config.llc)),
        )
        .unwrap();
        let stats = system.run(&mut SpecWorkload { accesses: spec.accesses, pos: 0 });
        check_invariants(&stats, n);
    }

    #[test]
    fn arbitrary_streams_respect_invariants_with_baseline_predictors(
        spec in spec_strategy(),
        policy in policy_strategy(),
    ) {
        let n = spec.accesses.len();
        let config = machine(policy);
        let mut system = System::with_policies(
            config,
            Box::new(ShipTlb::paper_default()),
            Box::new(AipLlc::paper_default()),
        )
        .unwrap();
        let stats = system.run(&mut SpecWorkload { accesses: spec.accesses, pos: 0 });
        check_invariants(&stats, n);
    }

    /// Translation is a function: the same virtual page always maps to the
    /// same frame, across policies.
    #[test]
    fn translations_are_stable(pages in proptest::collection::vec(any::<u16>(), 1..100)) {
        let accesses: Vec<(u8, u16, u16)> =
            pages.iter().chain(pages.iter()).map(|&p| (1, p, 0)).collect();
        let mut system = System::new(SystemConfig::paper_baseline()).unwrap();
        let stats = system.run(&mut SpecWorkload { accesses, pos: 0 });
        // Second touch of every page cannot demand-map again: the number
        // of walks is bounded by distinct pages (+ code page).
        let distinct: std::collections::HashSet<_> = pages.iter().collect();
        prop_assert!(stats.walks <= distinct.len() as u64 + 1);
    }
}
