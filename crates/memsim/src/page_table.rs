//! A four-level radix page table allocated in simulated physical memory.
//!
//! The paper (Section III): *"we allocate a four-level radix tree data
//! structure as the page table. The page table contents are cached on the
//! processor caches as in the real hardware."* [`PageTable::translate`]
//! returns the physical addresses of the page-table entries a hardware
//! walker would read, so the walker can send those loads through the data
//! caches.
//!
//! Pages are mapped on demand (first touch), modeling a demand-paging OS.
//! Physical frames come from a [`FrameAllocator`] that scatters allocations
//! over the frame space with a bijective multiplier, emulating the
//! fragmented VA→PA mappings of a long-running system.
//!
//! The mapping grain is set by the [`AllocPolicy`]:
//!
//! * [`AllocPolicy::Base4K`] — every leaf is a 4 KB PTE (the paper's
//!   configuration, byte-identical to the pre-page-size code);
//! * [`AllocPolicy::Uniform`] — every mapping is a PDE (2 MB) or PDPTE
//!   (1 GB) leaf covering a physically contiguous, aligned frame region,
//!   so walks terminate one or two levels early;
//! * [`AllocPolicy::Promote2M`] — reservation-based promotion in the style
//!   of FreeBSD's superpage support: the first touch in a 2 MB-aligned
//!   virtual region reserves a contiguous 2 MB frame range and carves
//!   4 KB pages out of it; once enough distinct base pages have been
//!   touched, the PDE is flipped to a huge mapping. Because the 4 KB
//!   frames were carved from the reservation, the promoted mapping
//!   translates every address exactly as before — stale 4 KB TLB entries
//!   stay coherent and promotion simply shortens future walks.

use dpc_types::{AllocPolicy, PageSize, Pfn, PhysAddr, Vpn};

/// Entries per page-table node (512 × 8 B = one 4 KiB page).
pub const NODE_ENTRIES: usize = 512;

/// Slot bit 0: the entry maps something.
const SLOT_PRESENT: u64 = 1;
/// Slot bit 1: the entry is a huge leaf (PDE/PDPTE mapping), not a
/// pointer to a child node.
const SLOT_HUGE: u64 = 2;

/// A slot holding `value`: a child's arena index in an interior entry,
/// a frame number in a leaf.
#[inline]
const fn encode_slot(value: u64, huge: bool) -> u64 {
    (value << 2) | SLOT_PRESENT | if huge { SLOT_HUGE } else { 0 }
}

#[inline]
const fn slot_value(slot: u64) -> u64 {
    slot >> 2
}

#[inline]
const fn slot_is_huge(slot: u64) -> bool {
    slot & SLOT_HUGE != 0
}

/// Allocates unique physical frames.
///
/// Frame numbers are produced by a bijective affine map over the frame
/// space so that consecutively-allocated pages do not occupy consecutive
/// frames. In *partitioned* mode (any huge-page policy) the space is
/// split by high bits: singleton 4 KB frames keep bit 33 clear, while
/// aligned, physically contiguous 2 MB / 1 GB regions live above it, so
/// regions can be handed out without colliding with scattered singletons.
///
/// The scatter is invertible, so the allocator also maps a frame back to
/// its dense allocation number ([`FrameAllocator::singleton_index`],
/// [`FrameAllocator::region_index`], [`FrameAllocator::carved_index`]):
/// tables indexed by those numbers grow with the frames handed out, not
/// with the 2^34-frame space.
#[derive(Clone, Debug)]
pub struct FrameAllocator {
    next: u64,
    next_2m: u64,
    next_1g: u64,
    partitioned: bool,
}

/// The frame space is 2^34 frames (64 TiB of simulated physical memory);
/// the multiplier is odd, hence invertible modulo every power of two.
const FRAME_SPACE_BITS: u32 = 34;
const FRAME_MULT: u64 = 0x9E37_79B9_7F4A_7C15 | 1;
/// The inverse of [`FRAME_MULT`] modulo 2^64, and so modulo every
/// smaller power of two: it undoes the scatter at every width.
const FRAME_MULT_INV: u64 = mul_inverse(FRAME_MULT);
const _: () = assert!(FRAME_MULT.wrapping_mul(FRAME_MULT_INV) == 1);
/// Partitioned mode: singletons scatter below bit 33.
const SINGLETON_BITS: u32 = 33;
/// Partitioned mode: 2 MB regions (512 frames, 9 offset bits) scatter
/// their base over 23 bits at `1 << 33`.
const REGION_2M_BITS: u32 = 23;
const REGION_2M_TAG: u64 = 1 << 33;
/// Partitioned mode: 1 GB regions (2^18 frames) scatter their base over
/// 14 bits at `(1 << 33) | (1 << 32)`.
const REGION_1G_BITS: u32 = 14;
const REGION_1G_TAG: u64 = (1 << 33) | (1 << 32);

/// Multiplicative inverse of odd `a` modulo 2^64 by Newton's iteration:
/// `x = a` is correct to 3 low bits, and each step doubles that.
const fn mul_inverse(a: u64) -> u64 {
    let mut x = a;
    let mut step = 0;
    while step < 5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
        step += 1;
    }
    x
}

/// Scatters allocation number `n` over `bits` bits.
#[inline]
const fn scatter(n: u64, bits: u32) -> u64 {
    n.wrapping_mul(FRAME_MULT) & ((1 << bits) - 1)
}

/// Recovers the allocation number below `next` whose [`scatter`] over
/// `bits` bits is `scattered`.
#[inline]
fn unscatter(scattered: u64, bits: u32, next: u64) -> Option<u64> {
    if scattered >> bits != 0 {
        return None;
    }
    let n = scattered.wrapping_mul(FRAME_MULT_INV) & ((1 << bits) - 1);
    (1..next).contains(&n).then_some(n)
}

impl FrameAllocator {
    /// Creates an allocator in the legacy single-grain mode: the exact
    /// allocation sequence of the paper's 4 KB configuration.
    pub fn new() -> Self {
        FrameAllocator { next: 1, next_2m: 1, next_1g: 1, partitioned: false }
    }

    /// Creates an allocator whose frame space is partitioned between
    /// scattered singleton frames and aligned huge regions.
    pub fn partitioned() -> Self {
        FrameAllocator { next: 1, next_2m: 1, next_1g: 1, partitioned: true }
    }

    fn singleton_bits(&self) -> u32 {
        if self.partitioned {
            SINGLETON_BITS
        } else {
            FRAME_SPACE_BITS
        }
    }

    /// Allocates a fresh, never-before-returned 4 KB frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame space is exhausted (far beyond any simulated
    /// footprint).
    pub fn alloc(&mut self) -> Pfn {
        let bits = self.singleton_bits();
        assert!(self.next < (1 << bits), "physical frame space exhausted");
        let frame = scatter(self.next, bits);
        self.next += 1;
        Pfn::new(frame)
    }

    /// Allocates an aligned, physically contiguous region of 4 KB frames
    /// spanning one page of `size`, returning its base frame.
    ///
    /// # Panics
    ///
    /// Panics if the allocator is not partitioned, if `size` is 4 KB
    /// (use [`FrameAllocator::alloc`]), or if the region space is
    /// exhausted.
    pub fn alloc_region(&mut self, size: PageSize) -> Pfn {
        assert!(self.partitioned, "huge regions require a partitioned allocator");
        let base = match size {
            // dpc-lint: allow(hot-path::panic) -- API-misuse guard; translate_uniform/translate_promote only request huge regions
            PageSize::Size4K => panic!("4 KB frames come from alloc(), not alloc_region()"),
            PageSize::Size2M => {
                assert!(self.next_2m < (1 << REGION_2M_BITS), "2 MB region space exhausted");
                let scattered = scatter(self.next_2m, REGION_2M_BITS);
                self.next_2m += 1;
                REGION_2M_TAG | (scattered << PageSize::Size2M.unit_shift())
            }
            PageSize::Size1G => {
                assert!(self.next_1g < (1 << REGION_1G_BITS), "1 GB region space exhausted");
                let scattered = scatter(self.next_1g, REGION_1G_BITS);
                self.next_1g += 1;
                REGION_1G_TAG | (scattered << PageSize::Size1G.unit_shift())
            }
        };
        Pfn::new(base)
    }

    /// Number of singleton frames handed out so far.
    pub fn allocated(&self) -> u64 {
        self.next - 1
    }

    /// The allocation number `k` of singleton `frame` — it came from the
    /// `k`-th [`FrameAllocator::alloc`] call, counting from 1 — or `None`
    /// if this allocator never handed it out as a singleton.
    #[inline]
    pub fn singleton_index(&self, frame: Pfn) -> Option<u64> {
        unscatter(frame.raw(), self.singleton_bits(), self.next)
    }

    /// The allocation number `r` of the `size` region holding `frame`
    /// (its base or any frame inside) — the region came from the `r`-th
    /// [`FrameAllocator::alloc_region`] call of that size, counting from
    /// 1 — or `None` if `frame` lies in no region of `size` handed out.
    #[inline]
    pub fn region_index(&self, size: PageSize, frame: Pfn) -> Option<u64> {
        let (tag, bits, next) = match size {
            PageSize::Size4K => return None,
            PageSize::Size2M => (REGION_2M_TAG, REGION_2M_BITS, self.next_2m),
            PageSize::Size1G => (REGION_1G_TAG, REGION_1G_BITS, self.next_1g),
        };
        if !self.partitioned {
            return None;
        }
        unscatter((frame.raw() ^ tag) >> size.unit_shift(), bits, next)
    }

    /// The dense index `r × 512 + offset` of 4 KB frame `offset` of the
    /// `r`-th 2 MB region: how [`AllocPolicy::Promote2M`] numbers the
    /// frames it carves from its reservations. `None` outside every 2 MB
    /// region handed out.
    #[inline]
    pub fn carved_index(&self, frame: Pfn) -> Option<u64> {
        let frames = PageSize::Size2M.frames();
        let region = self.region_index(PageSize::Size2M, frame)?;
        Some(region * frames + (frame.raw() & (frames - 1)))
    }
}

impl Default for FrameAllocator {
    fn default() -> Self {
        Self::new()
    }
}

/// The path a hardware page walk takes through the radix tree, from the
/// root (level 3, PML4) down to the mapping's terminal level (0 = PTE
/// for 4 KB pages, 1 = PDE for 2 MB, 2 = PDPTE for 1 GB).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkPath {
    /// Physical frame of the node visited at each level, indexed by level
    /// (3 = root). Levels below the terminal level of a huge mapping are
    /// not visited and hold `Pfn(0)`.
    pub node_pfns: [Pfn; 4],
    /// Physical address of the page-table *entry* read at each level — the
    /// loads a hardware walker issues into the cache hierarchy. Levels
    /// below the terminal level hold `PhysAddr(0)` and must not be read.
    pub pte_addrs: [PhysAddr; 4],
    /// The translation result at the 4 KB grain (huge mappings return
    /// `region base + frame offset`, so callers can compose physical
    /// addresses without knowing the size).
    pub pfn: Pfn,
    /// The size of the mapping this walk resolved.
    pub size: PageSize,
    /// Whether this walk demand-allocated the data page (first touch).
    pub newly_mapped: bool,
}

/// The 2 MB frame reservation of one leaf PT node's region under
/// [`AllocPolicy::Promote2M`].
#[derive(Clone, Copy, Debug, Default)]
struct Reservation {
    /// Base frame of the physically contiguous 512-frame reservation,
    /// allocated on the region's first touch.
    base: Pfn,
    /// Distinct 4 KB pages of the region touched so far (0 = no
    /// reservation yet).
    touched: u32,
}

/// Arena index of the root (PML4) node.
const ROOT: usize = 0;

/// The four-level radix page table.
///
/// Nodes live in an arena in allocation order, so a walk follows each
/// level by a vector index rather than a hash probe: an interior slot
/// holds its child's arena index, and each node's physical frame sits in
/// the parallel `node_pfns`.
#[derive(Debug)]
pub struct PageTable {
    /// Radix nodes: 512 slots of `(value << 2) | present | huge` each
    /// (0 = not present).
    nodes: Vec<[u64; NODE_ENTRIES]>,
    /// Physical frame of each node, parallel to `nodes`.
    node_pfns: Vec<Pfn>,
    /// Promote2M: each leaf PT node's 2 MB reservation, parallel to
    /// `nodes` (a PT node covers exactly one 2 MB region).
    reservations: Vec<Reservation>,
    frames: FrameAllocator,
    mapped_pages: u64,
    policy: AllocPolicy,
}

impl PageTable {
    /// Creates an empty 4 KB-grain page table (root node allocated) —
    /// the paper's configuration.
    pub fn new() -> Self {
        Self::with_policy(AllocPolicy::Base4K)
    }

    /// Creates an empty page table mapping pages per `policy`.
    pub fn with_policy(policy: AllocPolicy) -> Self {
        let frames =
            if policy.is_default() { FrameAllocator::new() } else { FrameAllocator::partitioned() };
        let mut table = PageTable {
            nodes: Vec::new(),
            node_pfns: Vec::new(),
            reservations: Vec::new(),
            frames,
            mapped_pages: 0,
            policy,
        };
        table.alloc_node();
        table
    }

    /// Physical frame of the root (PML4) node.
    pub fn root(&self) -> Pfn {
        self.node_pfn(ROOT)
    }

    /// The allocation policy mappings follow.
    pub fn policy(&self) -> AllocPolicy {
        self.policy
    }

    /// Number of mappings created so far, each counted at its own grain
    /// (one 2 MB or 1 GB mapping counts once; under promotion, the 4 KB
    /// first touches keep their counts).
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Number of page-table node pages allocated (the table's own
    /// footprint).
    pub fn table_pages(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// The dense index of the data page of `size` whose unit frame is
    /// `unit` (`size.pfn_unit` of any of its 4 KB frames): its allocation
    /// number among the frames or regions this policy maps pages of that
    /// size from. Indices are small and distinct per size, so tables keyed
    /// by page grow with the pages mapped.
    ///
    /// `None` for frames never handed out and, under the huge-page
    /// policies, for page-table node frames; under the 4 KB policies a
    /// node frame gets an index that no data page ever shares.
    #[inline]
    pub fn page_index(&self, size: PageSize, unit: Pfn) -> Option<usize> {
        let index = match (size, self.policy) {
            (PageSize::Size4K, AllocPolicy::Promote2M { .. }) => self.frames.carved_index(unit),
            (PageSize::Size4K, _) => self.frames.singleton_index(unit),
            _ => self.frames.region_index(size, Pfn::new(unit.raw() << size.unit_shift())),
        };
        index.map(|i| i as usize)
    }

    /// The size at which `vpn` is (or would be) mapped, without mapping
    /// it. Read-only: used to key size-tagged TLB structures before a
    /// walk resolves.
    pub fn probe_size(&self, vpn: Vpn) -> PageSize {
        match self.policy {
            AllocPolicy::Base4K | AllocPolicy::Uniform(PageSize::Size4K) => PageSize::Size4K,
            AllocPolicy::Uniform(size) => size,
            AllocPolicy::Promote2M { .. } => {
                let mut node = ROOT;
                for level in [3u32, 2u32] {
                    let slot = self.slot(node, vpn.radix_index(level));
                    if slot == 0 {
                        return PageSize::Size4K;
                    }
                    node = slot_value(slot) as usize;
                }
                if slot_is_huge(self.slot(node, vpn.radix_index(1))) {
                    PageSize::Size2M
                } else {
                    PageSize::Size4K
                }
            }
        }
    }

    /// Translates `vpn` (4 KB grain), demand-mapping it on first touch,
    /// and reports the full walk path.
    pub fn translate(&mut self, vpn: Vpn) -> WalkPath {
        match self.policy {
            AllocPolicy::Base4K | AllocPolicy::Uniform(_) => {
                self.translate_uniform(vpn, self.policy.page_sizes()[0])
            }
            AllocPolicy::Promote2M { threshold } => self.translate_promote(vpn, threshold),
        }
    }

    /// One mapping size for every page: the walk terminates at `size`'s
    /// PTE/PDE/PDPTE, which maps a 4 KB frame (the paper's configuration)
    /// or a whole aligned frame region on first touch.
    fn translate_uniform(&mut self, vpn: Vpn, size: PageSize) -> WalkPath {
        let terminal = size.terminal_level();
        let mut node_pfns = [Pfn::new(0); 4];
        let mut pte_addrs = [PhysAddr::new(0); 4];
        let mut node = ROOT;
        dpc_types::invariant!(terminal < 4, "terminal level indexes the 4-level walk arrays");
        for level in (terminal..=3).rev() {
            let index = vpn.radix_index(level as u32);
            node_pfns[level] = self.node_pfn(node);
            pte_addrs[level] = pte_addr(node_pfns[level], index);
            if level > terminal {
                node = self.child_or_alloc(node, index);
            }
        }
        let index = vpn.radix_index(terminal as u32);
        let slot = self.slot(node, index);
        let (base, newly_mapped) = if slot == 0 {
            let base = match size {
                PageSize::Size4K => self.frames.alloc(),
                _ => self.frames.alloc_region(size),
            };
            self.set_slot(node, index, encode_slot(base.raw(), size != PageSize::Size4K));
            self.mapped_pages += 1;
            (base, true)
        } else {
            (Pfn::new(slot_value(slot)), false)
        };
        let pfn = Pfn::new(base.raw() + size.frame_offset(vpn));
        WalkPath { node_pfns, pte_addrs, pfn, size, newly_mapped }
    }

    /// Reservation-based promotion: 4 KB pages carved out of per-region
    /// 2 MB reservations, with the PDE flipped huge once `threshold`
    /// distinct base pages have been touched.
    fn translate_promote(&mut self, vpn: Vpn, threshold: u32) -> WalkPath {
        let mut node_pfns = [Pfn::new(0); 4];
        let mut pte_addrs = [PhysAddr::new(0); 4];
        let mut node = ROOT;
        for level in (2..=3).rev() {
            let index = vpn.radix_index(level as u32);
            node_pfns[level] = self.node_pfn(node);
            pte_addrs[level] = pte_addr(node_pfns[level], index);
            node = self.child_or_alloc(node, index);
        }
        // Level 1 (PD): either a huge leaf or a pointer to the PT.
        let pd = node;
        let pd_index = vpn.radix_index(1);
        node_pfns[1] = self.node_pfn(pd);
        pte_addrs[1] = pte_addr(node_pfns[1], pd_index);
        let pd_slot = self.slot(pd, pd_index);
        if slot_is_huge(pd_slot) {
            let pfn = Pfn::new(slot_value(pd_slot) + PageSize::Size2M.frame_offset(vpn));
            return WalkPath {
                node_pfns,
                pte_addrs,
                pfn,
                size: PageSize::Size2M,
                newly_mapped: false,
            };
        }
        let pt = self.child_or_alloc(pd, pd_index);
        // Level 0: 4 KB leaf, frames carved from the region reservation.
        let index = vpn.radix_index(0);
        node_pfns[0] = self.node_pfn(pt);
        pte_addrs[0] = pte_addr(node_pfns[0], index);
        let slot = self.slot(pt, index);
        let (pfn, newly_mapped) = if slot == 0 {
            dpc_types::invariant!(
                pt < self.reservations.len(),
                "every node has a reservation slot"
            );
            let resv = &mut self.reservations[pt];
            if resv.touched == 0 {
                resv.base = self.frames.alloc_region(PageSize::Size2M);
            }
            resv.touched += 1;
            let (base, promote) = (resv.base, resv.touched >= threshold);
            let frame = Pfn::new(base.raw() + PageSize::Size2M.frame_offset(vpn));
            self.set_slot(pt, index, encode_slot(frame.raw(), false));
            if promote {
                // Flip the PDE to a huge leaf over the same frames; the
                // abandoned PT node stays allocated (as on real systems
                // until the OS reclaims it) and no walk reaches it again.
                // Visible from the next walk.
                self.set_slot(pd, pd_index, encode_slot(base.raw(), true));
            }
            self.mapped_pages += 1;
            (frame, true)
        } else {
            (Pfn::new(slot_value(slot)), false)
        };
        WalkPath { node_pfns, pte_addrs, pfn, size: PageSize::Size4K, newly_mapped }
    }

    /// Follows (or demand-allocates) the child node under `index` of the
    /// interior node `node`, returning the child's arena index.
    fn child_or_alloc(&mut self, node: usize, index: usize) -> usize {
        let slot = self.slot(node, index);
        if slot == 0 {
            let child = self.alloc_node();
            self.set_slot(node, index, encode_slot(child as u64, false));
            child
        } else {
            slot_value(slot) as usize
        }
    }

    /// Allocates an empty node and its frame, returning its arena index.
    fn alloc_node(&mut self) -> usize {
        let pfn = self.frames.alloc();
        self.nodes.push([0; NODE_ENTRIES]);
        self.node_pfns.push(pfn);
        self.reservations.push(Reservation::default());
        self.nodes.len() - 1
    }

    #[inline]
    fn node_pfn(&self, node: usize) -> Pfn {
        dpc_types::invariant!(node < self.node_pfns.len(), "arena index {node} out of range");
        self.node_pfns[node]
    }

    #[inline]
    fn slot(&self, node: usize, index: usize) -> u64 {
        dpc_types::invariant!(node < self.nodes.len(), "arena index {node} out of range");
        dpc_types::invariant!(index < NODE_ENTRIES, "radix indices are 9-bit");
        self.nodes[node][index]
    }

    #[inline]
    fn set_slot(&mut self, node: usize, index: usize, slot: u64) {
        dpc_types::invariant!(node < self.nodes.len(), "arena index {node} out of range");
        dpc_types::invariant!(index < NODE_ENTRIES, "radix indices are 9-bit");
        self.nodes[node][index] = slot;
    }
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Physical address of slot `index` in the node at `node_pfn` (8-byte
/// entries).
fn pte_addr(node_pfn: Pfn, index: usize) -> PhysAddr {
    PhysAddr::new(node_pfn.base().raw() + (index as u64) * 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_unique() {
        let mut alloc = FrameAllocator::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100_000 {
            assert!(seen.insert(alloc.alloc()), "frame allocator repeated a frame");
        }
        assert_eq!(alloc.allocated(), 100_000);
    }

    #[test]
    fn partitioned_regions_are_aligned_and_disjoint() {
        let mut alloc = FrameAllocator::partitioned();
        let mut claimed: Vec<(u64, u64)> = Vec::new(); // [start, end) frame ranges
        for _ in 0..500 {
            let f = alloc.alloc();
            assert_eq!(f.raw() >> 33, 0, "singletons stay below bit 33");
            claimed.push((f.raw(), f.raw() + 1));
        }
        for _ in 0..200 {
            let base = alloc.alloc_region(PageSize::Size2M);
            assert_eq!(base.raw() % 512, 0, "2 MB regions are 512-frame aligned");
            claimed.push((base.raw(), base.raw() + 512));
        }
        for _ in 0..50 {
            let base = alloc.alloc_region(PageSize::Size1G);
            assert_eq!(base.raw() % (512 * 512), 0, "1 GB regions are 2^18-frame aligned");
            claimed.push((base.raw(), base.raw() + 512 * 512));
        }
        claimed.sort_unstable();
        for pair in claimed.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "frame ranges overlap: {pair:?}");
        }
    }

    #[test]
    #[should_panic(expected = "partitioned")]
    fn legacy_allocator_rejects_regions() {
        FrameAllocator::new().alloc_region(PageSize::Size2M);
    }

    #[test]
    fn singleton_indices_round_trip_in_both_modes() {
        for mut alloc in [FrameAllocator::new(), FrameAllocator::partitioned()] {
            let frames: Vec<Pfn> = (0..100_000).map(|_| alloc.alloc()).collect();
            for (k, &frame) in (1..).zip(&frames) {
                assert_eq!(alloc.singleton_index(frame), Some(k), "frame {frame:?}");
            }
            assert_eq!(alloc.singleton_index(Pfn::new(0)), None, "frame 0 is never handed out");
            let next = alloc.clone().alloc();
            assert_eq!(alloc.singleton_index(next), None, "frames past the cursor");
            assert_eq!(alloc.carved_index(frames[7]), None, "singletons are never carved");
            for size in PageSize::ALL {
                assert_eq!(alloc.region_index(size, frames[7]), None, "{size}: other partition");
            }
        }
        // Legacy mode spans 2^34 frames; nothing beyond it was handed out.
        assert_eq!(FrameAllocator::new().singleton_index(Pfn::new(1 << 34)), None);
    }

    #[test]
    fn region_indices_round_trip() {
        let mut alloc = FrameAllocator::partitioned();
        let singleton = alloc.alloc();
        let mut bases = Vec::new();
        for r in 1..=2_000u64 {
            let base = alloc.alloc_region(PageSize::Size2M);
            for offset in [0, 1, 0x1ff] {
                let frame = Pfn::new(base.raw() + offset);
                assert_eq!(alloc.region_index(PageSize::Size2M, frame), Some(r));
                assert_eq!(alloc.carved_index(frame), Some(r * 512 + offset), "carved slot");
            }
            bases.push(base);
        }
        for g in 1..=200u64 {
            let base = alloc.alloc_region(PageSize::Size1G);
            for offset in [0, 1, (1 << 18) - 1] {
                let frame = Pfn::new(base.raw() + offset);
                assert_eq!(alloc.region_index(PageSize::Size1G, frame), Some(g));
                assert_eq!(alloc.region_index(PageSize::Size2M, frame), None, "other partition");
                assert_eq!(alloc.carved_index(frame), None);
                assert_eq!(alloc.singleton_index(frame), None);
            }
            bases.push(base);
        }
        let two_m = bases[0];
        assert_eq!(alloc.region_index(PageSize::Size1G, two_m), None, "other partition");
        assert_eq!(alloc.singleton_index(two_m), None, "other partition");
        assert_eq!(alloc.region_index(PageSize::Size4K, two_m), None, "4 KB has no regions");
        assert_eq!(alloc.singleton_index(singleton), Some(1));
        // Frame 0, and regions past the cursor.
        for size in [PageSize::Size2M, PageSize::Size1G] {
            assert_eq!(alloc.region_index(size, Pfn::new(0)), None);
            let next = alloc.clone().alloc_region(size);
            assert_eq!(alloc.region_index(size, next), None, "{size}: past the cursor");
        }
        assert_eq!(alloc.carved_index(Pfn::new(0)), None);
    }

    #[test]
    fn page_indices_are_distinct_per_page_and_skip_node_frames() {
        for policy in [
            AllocPolicy::Base4K,
            AllocPolicy::Uniform(PageSize::Size4K),
            AllocPolicy::Uniform(PageSize::Size2M),
            AllocPolicy::Uniform(PageSize::Size1G),
            AllocPolicy::Promote2M { threshold: 4 },
        ] {
            let mut pt = PageTable::with_policy(policy);
            let mut pages = std::collections::BTreeMap::new();
            for i in 0..3_000u64 {
                let vpn = Vpn::new(0x4_0000 + (i * 0x9E37) % 0x10_0000);
                let walk = pt.translate(vpn);
                let index = pt.page_index(walk.size, walk.size.pfn_unit(walk.pfn));
                let index = index.unwrap_or_else(|| panic!("{policy:?}: mapped page unindexed"));
                let page = (walk.size, walk.size.vpn_unit(vpn));
                assert_eq!(*pages.entry((walk.size, index)).or_insert(page), page, "{policy:?}");
                if !policy.is_default() && policy != AllocPolicy::Uniform(PageSize::Size4K) {
                    for node in walk.node_pfns.into_iter().filter(|&n| n != Pfn::new(0)) {
                        assert_eq!(pt.page_index(walk.size, walk.size.pfn_unit(node)), None);
                    }
                }
            }
        }
    }

    #[test]
    fn translation_is_stable() {
        let mut pt = PageTable::new();
        let vpn = Vpn::new(0x12_3456);
        let first = pt.translate(vpn);
        assert!(first.newly_mapped);
        assert_eq!(first.size, PageSize::Size4K);
        let second = pt.translate(vpn);
        assert!(!second.newly_mapped);
        assert_eq!(first.pfn, second.pfn);
        assert_eq!(first.pte_addrs, second.pte_addrs);
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut pt = PageTable::new();
        let a = pt.translate(Vpn::new(100)).pfn;
        let b = pt.translate(Vpn::new(101)).pfn;
        assert_ne!(a, b);
    }

    #[test]
    fn sibling_pages_share_interior_nodes() {
        let mut pt = PageTable::new();
        // Same 512-page region → same leaf PT node, different slots.
        let a = pt.translate(Vpn::new(0x1000));
        let b = pt.translate(Vpn::new(0x1001));
        assert_eq!(a.node_pfns[0], b.node_pfns[0]);
        assert_ne!(a.pte_addrs[0], b.pte_addrs[0]);
        // Distant regions → different leaf PT nodes, same root.
        let c = pt.translate(Vpn::new(0x8000_0000));
        assert_ne!(a.node_pfns[0], c.node_pfns[0]);
        assert_eq!(a.node_pfns[3], c.node_pfns[3]);
    }

    #[test]
    fn pte_addresses_live_in_their_nodes() {
        let mut pt = PageTable::new();
        let walk = pt.translate(Vpn::new(0xABCDE));
        for level in 0..4 {
            assert_eq!(
                walk.pte_addrs[level].pfn(),
                walk.node_pfns[level],
                "PTE at level {level} must lie in that level's node frame"
            );
        }
    }

    #[test]
    fn table_pages_grow_with_spread_mappings() {
        let mut pt = PageTable::new();
        let before = pt.table_pages();
        // Map pages 512 GiB apart: each needs its own PDPT/PD/PT chain.
        for i in 0..4u64 {
            pt.translate(Vpn::new(i << 27));
        }
        assert!(pt.table_pages() >= before + 9, "interior nodes must be allocated");
    }

    #[test]
    fn root_is_constant() {
        let mut pt = PageTable::new();
        let root = pt.root();
        pt.translate(Vpn::new(42));
        assert_eq!(pt.root(), root);
        assert_eq!(pt.translate(Vpn::new(42)).node_pfns[3], root);
    }

    #[test]
    fn uniform_2m_walks_terminate_at_the_pde() {
        let mut pt = PageTable::with_policy(AllocPolicy::Uniform(PageSize::Size2M));
        let vpn = Vpn::new(0x12_3456);
        let walk = pt.translate(vpn);
        assert_eq!(walk.size, PageSize::Size2M);
        assert!(walk.newly_mapped);
        assert_eq!(walk.node_pfns[0], Pfn::new(0), "no PT node below a PDE mapping");
        for level in 1..4 {
            assert_eq!(walk.pte_addrs[level].pfn(), walk.node_pfns[level]);
        }
        // The whole 2 MB region shares one mapping over contiguous frames.
        let sibling = pt.translate(Vpn::new(vpn.raw() ^ 0x1ff));
        assert!(!sibling.newly_mapped);
        assert_eq!(pt.mapped_pages(), 1);
        assert_eq!(
            walk.pfn.raw().wrapping_sub(PageSize::Size2M.frame_offset(vpn)),
            sibling.pfn.raw() - PageSize::Size2M.frame_offset(Vpn::new(vpn.raw() ^ 0x1ff)),
            "both pages translate into the same region"
        );
        assert_eq!(pt.probe_size(vpn), PageSize::Size2M);
    }

    #[test]
    fn uniform_1g_walks_terminate_at_the_pdpte() {
        let mut pt = PageTable::with_policy(AllocPolicy::Uniform(PageSize::Size1G));
        let vpn = Vpn::new(0x12_3456);
        let walk = pt.translate(vpn);
        assert_eq!(walk.size, PageSize::Size1G);
        assert_eq!(walk.node_pfns[0], Pfn::new(0));
        assert_eq!(walk.node_pfns[1], Pfn::new(0));
        assert_eq!(walk.pfn.raw() % (512 * 512), PageSize::Size1G.frame_offset(vpn));
        // 1 GB apart → distinct regions; within → shared.
        assert!(pt.translate(Vpn::new(vpn.raw() + (1 << 18))).newly_mapped);
        assert!(!pt.translate(Vpn::new(vpn.raw() + 1)).newly_mapped);
        assert_eq!(pt.mapped_pages(), 2);
    }

    #[test]
    fn huge_translations_are_stable_and_offset_correct() {
        for policy in
            [AllocPolicy::Uniform(PageSize::Size2M), AllocPolicy::Uniform(PageSize::Size1G)]
        {
            let mut pt = PageTable::with_policy(policy);
            let vpn = Vpn::new(0xABCDE);
            let a = pt.translate(vpn);
            let b = pt.translate(vpn);
            assert_eq!(a.pfn, b.pfn);
            assert_eq!(a.pte_addrs, b.pte_addrs);
            let size = a.size;
            assert_eq!(
                size.frame_offset(Vpn::new(a.pfn.raw())),
                size.frame_offset(vpn),
                "VA and PA agree on the in-region offset"
            );
        }
    }

    #[test]
    fn promotion_flips_the_pde_after_threshold_touches() {
        let threshold = 4;
        let mut pt = PageTable::with_policy(AllocPolicy::Promote2M { threshold });
        let base = Vpn::new(0x4_0000); // 2 MB-region aligned
                                       // Below threshold: 4 KB walks.
        let mut frames = Vec::new();
        for i in 0..threshold as u64 {
            let walk = pt.translate(Vpn::new(base.raw() + i));
            assert_eq!(walk.size, PageSize::Size4K);
            assert!(walk.newly_mapped);
            frames.push(walk.pfn);
            let expected =
                if i + 1 < u64::from(threshold) { PageSize::Size4K } else { PageSize::Size2M };
            assert_eq!(pt.probe_size(Vpn::new(base.raw() + i)), expected, "touch {i}");
        }
        // Promotion preserved the carved frames: the huge walk returns
        // exactly the frame each 4 KB walk returned.
        for (i, &frame) in frames.iter().enumerate() {
            let walk = pt.translate(Vpn::new(base.raw() + i as u64));
            assert_eq!(walk.size, PageSize::Size2M);
            assert!(!walk.newly_mapped);
            assert_eq!(walk.pfn, frame, "promotion must not move frames");
        }
        // Untouched pages of the promoted region translate too.
        let fresh = pt.translate(Vpn::new(base.raw() + 100));
        assert_eq!(fresh.size, PageSize::Size2M);
        assert_eq!(
            fresh.pfn.raw() - PageSize::Size2M.frame_offset(Vpn::new(fresh.pfn.raw())),
            frames[0].raw() - PageSize::Size2M.frame_offset(Vpn::new(frames[0].raw())),
        );
    }

    #[test]
    fn unpromoted_regions_stay_4k() {
        let mut pt = PageTable::with_policy(AllocPolicy::Promote2M { threshold: 512 });
        for i in 0..100u64 {
            assert_eq!(pt.translate(Vpn::new(0x4_0000 + i)).size, PageSize::Size4K);
        }
        assert_eq!(pt.probe_size(Vpn::new(0x4_0000)), PageSize::Size4K);
        assert_eq!(pt.probe_size(Vpn::new(0xFFFF_0000)), PageSize::Size4K, "unmapped VPN");
    }

    #[test]
    fn reservation_frames_are_carved_contiguously() {
        let mut pt = PageTable::with_policy(AllocPolicy::Promote2M { threshold: 512 });
        let a = pt.translate(Vpn::new(0x4_0000)).pfn;
        let b = pt.translate(Vpn::new(0x4_0001)).pfn;
        let far = pt.translate(Vpn::new(0x4_0000 + 0x1ff)).pfn;
        assert_eq!(b.raw(), a.raw() + 1, "adjacent pages share the reservation");
        assert_eq!(far.raw(), a.raw() + 0x1ff);
    }
}
