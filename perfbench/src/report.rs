//! Output: named metrics, the host and build fingerprint, and the final
//! JSON result line.

use crate::gate::{Fnv, Gate};
use std::fmt::Write as _;
use std::path::Path;

/// Named metrics in the order they were added.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Adds `name` = `value` in `unit`.
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// Prints one human-readable line per metric.
    pub fn print_lines(&self) {
        for (name, value, unit) in &self.0 {
            println!("# {name} = {value} {unit}");
        }
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(name),
                    num(*value),
                    json_str(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A finite number as JSON (non-finite values cannot occur in a sound
/// run; they print as 0 and are reported on stderr).
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        eprintln!("perfbench: non-finite metric value {value}");
        "0".to_owned()
    }
}

/// `text` as a JSON string literal.
pub fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints the gate's failures and the final result line; returns whether
/// the run was correct.
pub fn finish(gate: &Gate, metrics: &Metrics) -> bool {
    for problem in gate.problems() {
        eprintln!("perfbench: FAILED {problem}");
    }
    metrics.print_lines();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        gate.correct(),
        gate.attempted().max(1),
        gate.failed(),
        metrics.to_json()
    );
    gate.correct()
}

/// The host and build a result was measured on, as one JSON object.
pub fn fingerprint(seed: u64, dpc_env: &[(String, String)]) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned());
    let env: Vec<String> =
        dpc_env.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
    format!(
        "{{\"cpu\":{},\"online_cores\":{cores},\"rustc\":{},\"git\":{},\"src_digest\":\"{:016x}\",\
         \"seed\":{seed},\"avx2\":{},\"dpc_env\":{{{}}}}}",
        json_str(&cpu),
        json_str(&rustc),
        json_str(&git_head(&root)),
        source_digest(&root),
        dpc_types::simd::enabled(),
        env.join(","),
    )
}

/// The commit checked out at `root`, read from `.git` directly, or
/// `none` outside a git checkout.
fn git_head(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Digest of the simulator's sources (every `.rs` and `.toml` under
/// `crates/`, plus the root manifest and lock file), so results from
/// checkouts without git history still name the code they measured.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    files
        .iter()
        .fold(Fnv::new(), |h, path| {
            let rel = path.strip_prefix(root).unwrap_or(path);
            let body = std::fs::read(path).unwrap_or_default();
            h.bytes(rel.to_string_lossy().as_bytes()).u64(body.len() as u64).bytes(&body)
        })
        .finish()
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
