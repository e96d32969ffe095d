//! The correctness gate: accounting identities on every simulation,
//! digests of its architectural statistics, and their comparison against
//! the stored reference (reference seed) or across repetitions (any
//! seed).

use dpc_memsim::{AccuracyReport, SimStats, StructStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The seed whose digests are stored in `reference/`.
pub const REFERENCE_SEED: u64 = 42;

/// One finished simulation as the gate sees it.
pub struct SimView<'a> {
    /// Stable label, unique within a workload.
    pub label: String,
    /// Architectural statistics of the measured window.
    pub stats: &'a SimStats,
    /// TLB-side predictor accuracy, when reported.
    pub llt_accuracy: Option<AccuracyReport>,
    /// LLC-side predictor accuracy, when reported.
    pub llc_accuracy: Option<AccuracyReport>,
    /// Memory operations the measured window was asked to simulate.
    pub measure_mem_ops: u64,
}

/// FNV-1a, 64 bit: a small stable digest with no dependency.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty digest.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs `bytes`.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Absorbs `value` (little-endian).
    pub fn u64(self, value: u64) -> Self {
        self.bytes(&value.to_le_bytes())
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of `text`.
pub fn digest_str(text: &str) -> u64 {
    Fnv::new().bytes(text.as_bytes()).finish()
}

fn absorb_struct(h: Fnv, s: &StructStats) -> Fnv {
    [s.lookups, s.hits, s.misses, s.fills, s.bypasses, s.evictions, s.shadow_hits, s.invalidations]
        .into_iter()
        .fold(h, Fnv::u64)
}

fn absorb_accuracy(h: Fnv, report: Option<AccuracyReport>) -> Fnv {
    match report {
        None => h.u64(0),
        Some(r) => [1, r.predictions, r.correct, r.mispredictions, r.true_doas]
            .into_iter()
            .fold(h, Fnv::u64),
    }
}

/// Digest of a simulation's architectural statistics and predictor
/// accuracy. Engine telemetry (how the replay engine divided its work)
/// is deliberately not read: it is not architecture.
pub fn digest(sim: &SimView<'_>) -> u64 {
    let s = sim.stats;
    let mut h = Fnv::new().u64(s.instructions).u64(s.mem_ops).u64(s.cycles);
    for level in [&s.l1i_tlb, &s.l1d_tlb, &s.llt, &s.l1d, &s.l2, &s.llc] {
        h = absorb_struct(h, level);
    }
    h = [s.walks, s.walk_pte_loads, s.pwc_hits[0], s.pwc_hits[1], s.pwc_hits[2], s.walk_cycles]
        .into_iter()
        .fold(h, Fnv::u64);
    for classes in [&s.llt_evictions, &s.llc_evictions] {
        h = [classes.total, classes.doa, classes.mostly_dead, classes.live]
            .into_iter()
            .fold(h, Fnv::u64);
    }
    for deadness in [&s.llt_deadness, &s.llc_deadness] {
        h = [deadness.samples, deadness.present, deadness.dead, deadness.doa]
            .into_iter()
            .fold(h, Fnv::u64);
    }
    h = h.u64(s.doa_blocks_on_doa_pages).u64(s.doa_blocks_classified);
    h = absorb_accuracy(h, sim.llt_accuracy);
    absorb_accuracy(h, sim.llc_accuracy).finish()
}

/// The accounting identities every simulation must satisfy; returns one
/// message per violation.
pub fn identities(sim: &SimView<'_>) -> Vec<String> {
    let s = sim.stats;
    let mut bad = Vec::new();
    let levels = [
        ("l1i_tlb", &s.l1i_tlb),
        ("l1d_tlb", &s.l1d_tlb),
        ("llt", &s.llt),
        ("l1d", &s.l1d),
        ("l2", &s.l2),
        ("llc", &s.llc),
    ];
    for (name, level) in levels {
        if level.hits + level.misses != level.lookups {
            bad.push(format!(
                "{name}: hits {} + misses {} != lookups {}",
                level.hits, level.misses, level.lookups
            ));
        }
        if level.bypasses > level.misses {
            bad.push(format!("{name}: bypasses {} > misses {}", level.bypasses, level.misses));
        }
    }
    if s.walks + s.llt.shadow_hits != s.llt.misses {
        bad.push(format!(
            "walks {} != llt misses {} - shadow hits {}",
            s.walks, s.llt.misses, s.llt.shadow_hits
        ));
    }
    if s.walk_pte_loads > 4 * s.walks {
        bad.push(format!("pte loads {} > 4 x walks {}", s.walk_pte_loads, s.walks));
    }
    if 4 * s.cycles < s.instructions {
        bad.push(format!("cycles {} < instructions {} / 4", s.cycles, s.instructions));
    }
    for (name, d) in [("llt", &s.llt_deadness), ("llc", &s.llc_deadness)] {
        if d.doa > d.dead {
            bad.push(format!("{name} deadness: doa {} > dead {}", d.doa, d.dead));
        }
    }
    if s.mem_ops != sim.measure_mem_ops {
        bad.push(format!("mem_ops {} != measured budget {}", s.mem_ops, sim.measure_mem_ops));
    }
    bad
}

/// Collects gate results over a run.
pub struct Gate {
    workload: &'static str,
    seed: u64,
    /// Reference digests of this workload, loaded at the reference seed.
    reference: Option<BTreeMap<String, u64>>,
    /// First digest seen per label, for repetition agreement.
    first: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Gate {
    /// A gate for `workload` at `seed`. At the reference seed the stored
    /// digests are loaded, unless `bless` asks to record them instead.
    pub fn new(workload: &'static str, seed: u64, bless: bool) -> Self {
        let mut gate = Gate {
            workload,
            seed,
            reference: None,
            first: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        };
        if seed == REFERENCE_SEED && !bless {
            match load_reference(&reference_path()) {
                Ok(all) => gate.reference = Some(all.get(workload).cloned().unwrap_or_default()),
                Err(e) => gate.problem(format!("cannot read the reference digests: {e}")),
            }
        }
        gate
    }

    /// Records a failure that is not tied to one simulation.
    pub fn problem(&mut self, message: String) {
        self.problems.push(message);
    }

    /// Checks one simulation: identities, then its digest against the
    /// reference and against earlier repetitions of the same label.
    pub fn check(&mut self, sim: &SimView<'_>) {
        let mut bad = identities(sim);
        let digest = digest(sim);
        self.compare(&sim.label, digest, &mut bad);
        self.tally(&sim.label, bad);
    }

    /// Checks only the identities of one simulation (a run whose digest
    /// is neither stored nor repeated).
    pub fn check_identities(&mut self, sim: &SimView<'_>) {
        self.tally(&sim.label, identities(sim));
    }

    fn tally(&mut self, label: &str, bad: Vec<String>) {
        self.attempted += 1;
        if !bad.is_empty() {
            self.failed += 1;
            for b in bad {
                self.problems.push(format!("{label}: {b}"));
            }
        }
    }

    /// Checks a digest that is not a simulation (the rendered tables).
    pub fn check_digest(&mut self, label: &str, digest: u64) {
        let mut bad = Vec::new();
        self.compare(label, digest, &mut bad);
        for b in bad {
            self.problems.push(format!("{label}: {b}"));
        }
    }

    fn compare(&mut self, label: &str, digest: u64, bad: &mut Vec<String>) {
        match self.first.get(label) {
            Some(&first) if first != digest => {
                bad.push(format!("digest {digest:016x} differs from repetition {first:016x}"));
            }
            Some(_) => {}
            None => {
                self.first.insert(label.to_owned(), digest);
            }
        }
        if let Some(reference) = &self.reference {
            match reference.get(label) {
                Some(&want) if want != digest => {
                    bad.push(format!("digest {digest:016x} != reference {want:016x}"));
                }
                Some(_) => {}
                None => bad.push("no reference digest stored".to_owned()),
            }
        }
    }

    /// Simulations checked.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Simulations that failed a check.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Every failure message.
    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// Whether the digests were compared against the stored reference.
    pub fn has_reference(&self) -> bool {
        self.reference.is_some()
    }

    /// Replaces this workload's stored digests with the ones seen.
    pub fn bless(&self) -> std::io::Result<()> {
        assert_eq!(self.seed, REFERENCE_SEED, "only the reference seed is stored");
        let path = reference_path();
        let mut all = load_reference(&path).unwrap_or_default();
        all.insert(self.workload.to_owned(), self.first.clone());
        let mut out = String::from("# workload\tlabel\tdigest (perfbench --bless at seed 42)\n");
        for (workload, digests) in &all {
            for (label, digest) in digests {
                let _ = writeln!(out, "{workload}\t{label}\t{digest:016x}");
            }
        }
        std::fs::write(path, out)
    }
}

fn reference_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("reference").join("seed42.tsv")
}

type Reference = BTreeMap<String, BTreeMap<String, u64>>;

fn load_reference(path: &Path) -> Result<Reference, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut all = Reference::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let mut fields = line.split('\t');
        let (Some(workload), Some(label), Some(hex), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(format!("malformed reference line {line:?}"));
        };
        let digest = u64::from_str_radix(hex, 16).map_err(|e| format!("{line:?}: {e}"))?;
        all.entry(workload.to_owned()).or_default().insert(label.to_owned(), digest);
    }
    Ok(all)
}
