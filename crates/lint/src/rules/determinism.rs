//! `determinism` and `ordered-iter`: the simulator and everything on the
//! simulated I/O path must be bit-for-bit reproducible.
//!
//! One stray `SystemTime::now()` (wall-clock time leaking into simulated
//! time), `thread_rng()` (OS entropy), or `std::thread::spawn` (scheduler
//! nondeterminism) silently invalidates the crash-matrix torture harness
//! and the replay-equivalence proptests, which compare byte-for-byte.
//! `Mutex`/`RwLock`/`Condvar` are forbidden with the threads: nothing on
//! the simulated path is concurrent, and while that stays lexically true
//! there is no lock order, lock-held-across-I/O or blocking-under-lock
//! property left to analyse.
//! Likewise, iterating a `HashMap`/`HashSet` (or `s4d_sim::IdMap`, the
//! same table under another hasher) while serializing journal,
//! checkpoint, or report state makes the byte stream order-of-iteration
//! dependent; those paths must use `BTreeMap`/`BTreeSet` or sort
//! explicitly.
//!
//! Findings in test directories and `#[cfg(test)]` spans are report-only
//! (warnings): tests may measure wall time, but production paths may not.

use crate::config;
use crate::diag::{Diagnostic, Severity};
use crate::source::SourceFile;

fn severity(file: &SourceFile, line: u32) -> Severity {
    if file.kind.is_test_like() || file.in_test_span(line) {
        Severity::Warning
    } else {
        Severity::Error
    }
}

/// Runs both determinism-family rules.
pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !config::DETERMINISM_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    forbidden_sources(file, out);
    ordered_iter(file, out);
}

/// `determinism`: wall-clock, OS randomness, OS threads and locks.
fn forbidden_sources(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let path2 = |i: usize, a: &str, b: &str| {
        file.ident(i) == Some(a)
            && file.punct_is(i + 1, ':')
            && file.punct_is(i + 2, ':')
            && file.ident(i + 3) == Some(b)
    };
    for i in 0..file.code.len() {
        let found = if path2(i, "SystemTime", "now") {
            Some("SystemTime::now() reads the wall clock")
        } else if path2(i, "Instant", "now") {
            Some("Instant::now() reads the wall clock")
        } else if file.ident(i) == Some("thread_rng") {
            Some("thread_rng() draws OS entropy")
        } else if path2(i, "thread", "spawn") {
            Some("thread::spawn introduces scheduler nondeterminism")
        } else if matches!(file.ident(i), Some("Mutex" | "RwLock" | "Condvar")) {
            Some("a lock type implies concurrent execution")
        } else {
            None
        };
        if let Some(what) = found {
            out.push(Diagnostic {
                path: file.path.clone(),
                line: file.line_of(i),
                rule: "determinism",
                message: format!("{what} in deterministic crate `{}`", file.crate_name),
                hint: "use SimTime/SimClock for time, the seeded sim RNG for randomness, \
                       and the discrete-event Runner instead of OS threads",
                severity: severity(file, file.line_of(i)),
            });
        }
    }
}

/// `ordered-iter`: unordered map types in serialization paths.
fn ordered_iter(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let whole_file = config::SERIALIZATION_FILES.contains(&file.rel.as_str());
    // Code-token index ranges that are serialization paths.
    let mut ranges: Vec<std::ops::Range<usize>> = Vec::new();
    if whole_file {
        ranges.push(0..file.code.len());
    } else {
        for f in &file.fns {
            let lname = f.name.to_lowercase();
            if config::SERIALIZATION_FN_PATTERNS
                .iter()
                .any(|p| lname.contains(p))
            {
                ranges.push(f.body.clone());
            }
        }
    }
    for r in ranges {
        for i in r {
            let Some(name) = file.ident(i) else { continue };
            if !matches!(name, "HashMap" | "HashSet" | "IdMap") {
                continue;
            }
            let line = file.line_of(i);
            out.push(Diagnostic {
                path: file.path.clone(),
                line,
                rule: "ordered-iter",
                message: format!(
                    "`{name}` in a journal/checkpoint/report serialization path: \
                     iteration order is arbitrary"
                ),
                hint: "use BTreeMap/BTreeSet, or collect and sort explicitly before \
                       emitting bytes",
                severity: severity(file, line),
            });
        }
    }
}
