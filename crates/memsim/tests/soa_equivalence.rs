//! Equivalence proof for the SoA hot path: [`SetAssoc`] (struct-of-arrays
//! storage, bitmask match, fused bookkeeping) must behave observably
//! identically to a naive array-of-structs reference model that
//! transliterates the replacement-policy definitions line by line.
//!
//! Two drivers cross-check every observable after every operation —
//! returned way / evicted line (tag, payload, *and* [`LineLife`] stats),
//! `life_of` of every valid line, plus the full valid-line contents in
//! storage order:
//!
//! * **exhaustive**: every operation sequence of a fixed depth over a
//!   small alphabet (lookup / fill-normal / fill-distant / invalidate per
//!   tag) on the 2×2 and 4×4 geometries;
//! * **randomized**: long LCG-driven sequences that additionally exercise
//!   `InsertPriority::High`, bare `victim_way` probes (SRRIP aging is a
//!   side effect of the search, so probing must match too), and a
//!   non-power-of-two set count (modulo indexing).

use dpc_memsim::set_assoc::{Evicted, InsertPriority, LineLife, SetAssoc, RRPV_LONG, RRPV_MAX};
use dpc_types::ReplacementKind;

const KINDS: [ReplacementKind; 3] =
    [ReplacementKind::Lru, ReplacementKind::Srrip, ReplacementKind::Fifo];

/// One line of the reference model: the array-of-structs layout the SoA
/// refactor replaced, with every replacement-state field inline.
#[derive(Clone, Copy, Default)]
struct RefLine {
    valid: bool,
    tag: u64,
    stamp: u64,
    rrpv: u8,
    life: LineLife,
    payload: u32,
}

/// Naive set-associative array: nested `Vec`s, linear scans, no bitmasks,
/// no fused index arithmetic. Intentionally written for obviousness, not
/// speed — this is the specification the SoA implementation must match.
struct RefModel {
    sets: usize,
    ways: usize,
    kind: ReplacementKind,
    lines: Vec<Vec<RefLine>>,
    tick: u64,
    seq: u64,
}

impl RefModel {
    fn new(sets: usize, ways: usize, kind: ReplacementKind) -> Self {
        RefModel {
            sets,
            ways,
            kind,
            lines: vec![vec![RefLine::default(); ways]; sets],
            tick: 0,
            seq: 0,
        }
    }

    fn set_of(&self, addr: u64) -> usize {
        (addr % self.sets as u64) as usize
    }

    fn lookup(&mut self, addr: u64, tag: u64) -> Option<usize> {
        self.seq += 1;
        let set = self.set_of(addr);
        let way = (0..self.ways).find(|&w| {
            let line = &self.lines[set][w];
            line.valid && line.tag == tag
        })?;
        self.tick += 1;
        let line = &mut self.lines[set][way];
        line.life.hits += 1;
        line.life.last_hit_seq = self.seq;
        match self.kind {
            ReplacementKind::Lru => line.stamp = self.tick,
            ReplacementKind::Srrip => line.rrpv = 0,
            ReplacementKind::Fifo => {}
        }
        Some(way)
    }

    fn peek(&self, addr: u64, tag: u64) -> Option<usize> {
        let set = self.set_of(addr);
        (0..self.ways).find(|&w| {
            let line = &self.lines[set][w];
            line.valid && line.tag == tag
        })
    }

    fn victim_way(&mut self, addr: u64) -> usize {
        let set = self.set_of(addr);
        if let Some(way) = (0..self.ways).find(|&w| !self.lines[set][w].valid) {
            return way;
        }
        match self.kind {
            ReplacementKind::Lru | ReplacementKind::Fifo => {
                // First-encountered minimum stamp.
                let mut best = 0;
                for way in 1..self.ways {
                    if self.lines[set][way].stamp < self.lines[set][best].stamp {
                        best = way;
                    }
                }
                best
            }
            ReplacementKind::Srrip => loop {
                if let Some(way) = (0..self.ways).find(|&w| self.lines[set][w].rrpv >= RRPV_MAX) {
                    return way;
                }
                for line in &mut self.lines[set] {
                    line.rrpv += 1;
                }
            },
        }
    }

    fn fill_way(
        &mut self,
        addr: u64,
        way: usize,
        tag: u64,
        payload: u32,
        priority: InsertPriority,
    ) -> Option<Evicted<u32>> {
        self.tick += 1;
        let tick = self.tick;
        let seq = self.seq;
        let set = self.set_of(addr);
        let line = &mut self.lines[set][way];
        let evicted =
            line.valid.then_some(Evicted { tag: line.tag, life: line.life, payload: line.payload });
        line.valid = true;
        line.tag = tag;
        line.payload = payload;
        line.life = LineLife { fill_seq: seq, last_hit_seq: seq, hits: 0 };
        match self.kind {
            ReplacementKind::Lru => {
                line.stamp = match priority {
                    InsertPriority::Normal | InsertPriority::High => tick,
                    InsertPriority::Distant => 0,
                };
            }
            ReplacementKind::Fifo => line.stamp = tick,
            ReplacementKind::Srrip => {
                line.rrpv = match priority {
                    InsertPriority::Normal => RRPV_LONG,
                    InsertPriority::Distant => RRPV_MAX,
                    InsertPriority::High => 0,
                };
            }
        }
        evicted
    }

    fn fill(
        &mut self,
        addr: u64,
        tag: u64,
        payload: u32,
        priority: InsertPriority,
    ) -> Option<Evicted<u32>> {
        let way = self.victim_way(addr);
        self.fill_way(addr, way, tag, payload, priority)
    }

    fn invalidate(&mut self, addr: u64, tag: u64) -> Option<Evicted<u32>> {
        let way = self.peek(addr, tag)?;
        let set = self.set_of(addr);
        let line = &mut self.lines[set][way];
        line.valid = false;
        Some(Evicted { tag: line.tag, life: line.life, payload: line.payload })
    }

    /// All valid lines in storage order: (tag, life, payload).
    fn snapshot(&self) -> Vec<(u64, LineLife, u32)> {
        self.lines
            .iter()
            .flatten()
            .filter(|line| line.valid)
            .map(|line| (line.tag, line.life, line.payload))
            .collect()
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Lookup(u64),
    Fill(u64, InsertPriority),
    Invalidate(u64),
    Victim(u64),
}

fn evicted_parts(e: &Option<Evicted<u32>>) -> Option<(u64, LineLife, u32)> {
    e.as_ref().map(|e| (e.tag, e.life, e.payload))
}

/// Applies `op` to both implementations and asserts every observable
/// matches: the op's own result, `life_of` of each valid line, then the
/// complete valid-line state.
fn step(sa: &mut SetAssoc<u32>, model: &mut RefModel, op: Op, trace: &[Op]) {
    match op {
        Op::Lookup(tag) => {
            assert_eq!(sa.lookup(tag, tag), model.lookup(tag, tag), "lookup {tag} after {trace:?}");
        }
        Op::Fill(tag, priority) => {
            // Payload derived from the clocks so refills are distinguishable.
            let payload = (tag as u32) ^ ((model.seq as u32) << 8);
            let got = sa.fill(tag, tag, payload, priority);
            let want = model.fill(tag, tag, payload, priority);
            assert_eq!(
                evicted_parts(&got),
                evicted_parts(&want),
                "fill {tag} {priority:?} after {trace:?}"
            );
        }
        Op::Invalidate(tag) => {
            let got = sa.invalidate(tag, tag);
            let want = model.invalidate(tag, tag);
            assert_eq!(
                evicted_parts(&got),
                evicted_parts(&want),
                "invalidate {tag} after {trace:?}"
            );
        }
        Op::Victim(addr) => {
            assert_eq!(
                sa.victim_way(addr),
                model.victim_way(addr),
                "victim {addr} after {trace:?}"
            );
        }
    }
    for (set, lines) in model.lines.iter().enumerate() {
        for (way, line) in lines.iter().enumerate().filter(|(_, line)| line.valid) {
            assert_eq!(
                sa.life_of(set as u64, way),
                line.life,
                "life_of set {set} way {way} after {op:?} (history {trace:?})"
            );
        }
    }
    let got: Vec<(u64, LineLife, u32)> =
        sa.iter_valid().map(|line| (line.tag(), line.life(), *line.payload)).collect();
    assert_eq!(got, model.snapshot(), "state diverged after {op:?} (history {trace:?})");
    assert_eq!(sa.valid_count(), model.snapshot().len());
}

/// Every sequence of `depth` operations drawn from the per-tag alphabet
/// {lookup, fill-normal, fill-distant, invalidate}.
fn exhaustive(sets: usize, ways: usize, kind: ReplacementKind, depth: u32) {
    let mut alphabet = Vec::new();
    // 2× oversubscription: every set sees twice as many tags as it has ways.
    for tag in 0..(2 * sets * ways) as u64 {
        alphabet.push(Op::Lookup(tag));
        alphabet.push(Op::Fill(tag, InsertPriority::Normal));
        alphabet.push(Op::Fill(tag, InsertPriority::Distant));
        alphabet.push(Op::Invalidate(tag));
    }
    let n = alphabet.len();
    let total = n.pow(depth);
    let mut trace = Vec::with_capacity(depth as usize);
    for mut code in 0..total {
        let mut sa: SetAssoc<u32> = SetAssoc::new(sets, ways, kind);
        let mut model = RefModel::new(sets, ways, kind);
        trace.clear();
        for _ in 0..depth {
            let op = alphabet[code % n];
            code /= n;
            step(&mut sa, &mut model, op, &trace);
            trace.push(op);
        }
    }
}

#[test]
fn exhaustive_2x2_all_kinds() {
    for kind in KINDS {
        exhaustive(2, 2, kind, 3);
    }
}

#[test]
fn exhaustive_2x2_lru_deeper() {
    exhaustive(2, 2, ReplacementKind::Lru, 4);
}

#[test]
fn exhaustive_4x4_all_kinds() {
    for kind in KINDS {
        exhaustive(4, 4, kind, 2);
    }
}

/// Long pseudo-random sequences over the full op set, including `High`
/// insertions and bare victim probes, on pow2 and non-pow2 geometries.
fn randomized(sets: usize, ways: usize, kind: ReplacementKind, ops: usize, seed: u64) {
    let mut sa: SetAssoc<u32> = SetAssoc::new(sets, ways, kind);
    let mut model = RefModel::new(sets, ways, kind);
    let mut state = seed | 1;
    let mut next = || {
        // Numerical Recipes LCG: deterministic, dependency-free.
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let tags = (3 * sets * ways) as u64;
    for _ in 0..ops {
        let tag = next() % tags;
        let op = match next() % 8 {
            0..=2 => Op::Lookup(tag),
            3 => Op::Fill(tag, InsertPriority::Normal),
            4 => Op::Fill(tag, InsertPriority::Distant),
            5 => Op::Fill(tag, InsertPriority::High),
            6 => Op::Invalidate(tag),
            _ => Op::Victim(tag),
        };
        step(&mut sa, &mut model, op, &[]);
    }
}

#[test]
fn randomized_small_geometries() {
    for kind in KINDS {
        randomized(2, 2, kind, 20_000, 0xDEAD_BEEF);
        randomized(4, 4, kind, 20_000, 0x1234_5678);
    }
}

#[test]
fn randomized_non_pow2_sets() {
    for kind in KINDS {
        randomized(3, 2, kind, 20_000, 42);
    }
}

#[test]
fn randomized_paper_llc_geometry() {
    // 16 ways is the paper's LLC associativity — the widest fixed-width
    // match_mask specialization; 8 sets keeps the state snapshot cheap.
    for kind in KINDS {
        randomized(8, 16, kind, 10_000, 7);
    }
}
