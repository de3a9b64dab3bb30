//! The failing-schedule minimizer: delta-debugging over the fault
//! script.
//!
//! A red seed's schedule carries up to a handful of fault events, and
//! usually only a subset is load-bearing. The minimizer re-runs the
//! schedule with subsets of its events kept (the workload and seed are
//! untouched — they are the reproduction context, not the cause) until no
//! single event can be removed without the failure disappearing. The
//! result is a 1-minimal event list plus a replayable repro description.

use crate::exec::{run_caught, ChaosReport};
use crate::schedule::Schedule;

/// The outcome of minimizing one failing schedule.
#[derive(Debug, Clone)]
pub struct MinimizeResult {
    /// Original event indices kept in the minimal failing subset
    /// (ascending).
    pub kept: Vec<usize>,
    /// The kept events, described.
    pub events: Vec<String>,
    /// The report of the minimal failing run.
    pub report: ChaosReport,
    /// How many chaos runs the search spent.
    pub runs: u32,
}

/// Minimizes the event set of a failing schedule. Returns `None` when
/// the full schedule does not actually fail (nothing to minimize).
///
/// The search is ddmin-style but sized for our scripts (≤ 5 events):
/// first try the empty set and each singleton, then greedily remove one
/// event at a time until 1-minimal. Every probe goes through
/// [`run_caught`], so schedules that fail by panicking minimize too.
pub fn minimize(schedule: &Schedule) -> Option<MinimizeResult> {
    let mut runs = 0u32;
    let mut probe = |keep: &[usize]| -> Option<ChaosReport> {
        runs += 1;
        let report = run_caught(&schedule.with_events_kept(keep));
        report.failed().then_some(report)
    };

    let all: Vec<usize> = (0..schedule.events.len()).collect();
    let mut best_report = probe(&all)?;
    let mut kept = all;

    // Fast paths: no events at all (the failure is in the workload
    // alone), then each singleton.
    if let Some(r) = probe(&[]) {
        return Some(finish(schedule, Vec::new(), r, runs));
    }
    for &i in &kept.clone() {
        if let Some(r) = probe(&[i]) {
            return Some(finish(schedule, vec![i], r, runs));
        }
    }

    // Greedy 1-minimal reduction.
    loop {
        let mut shrunk = false;
        for drop_at in 0..kept.len() {
            let mut candidate = kept.clone();
            candidate.remove(drop_at);
            if candidate.is_empty() {
                continue; // empty set already probed above
            }
            if let Some(r) = probe(&candidate) {
                kept = candidate;
                best_report = r;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            break;
        }
    }
    Some(finish(schedule, kept, best_report, runs))
}

fn finish(schedule: &Schedule, kept: Vec<usize>, report: ChaosReport, runs: u32) -> MinimizeResult {
    let events = kept
        .iter()
        .map(|&i| schedule.events[i].describe())
        .collect();
    MinimizeResult {
        kept,
        events,
        report,
        runs,
    }
}

/// A replayable reproduction: regenerate the schedule from `seed`, keep
/// only the listed events, run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// Schedule seed.
    pub seed: u64,
    /// Metadata-plane shard count the failure was observed at (1 for
    /// repro files written before sharding existed).
    pub shards: u32,
    /// Original event indices to keep.
    pub keep: Vec<usize>,
}

impl Repro {
    /// Serializes to the repro-file JSON form.
    pub fn to_json(&self) -> String {
        let keep: Vec<String> = self.keep.iter().map(|k| k.to_string()).collect();
        format!(
            "{{\"seed\":{},\"shards\":{},\"keep\":[{}]}}\n",
            self.seed,
            self.shards,
            keep.join(",")
        )
    }

    /// Parses the repro-file JSON form (the exact shape [`Repro::to_json`]
    /// writes; whitespace-tolerant, order-insensitive). Older files carry
    /// an `inject_bug` key: `false` replays as before, `true` is refused,
    /// because the bug it switched on is now a mutation-gate row.
    pub fn parse(text: &str) -> Result<Repro, String> {
        if field_bool(text, "inject_bug") == Some(true) {
            return Err(
                "\"inject_bug\":true is retired: the seeded eviction bug now lives in \
                 the mutation gate (tests/mutation_gate.rs, \
                 eviction-reuses-space-before-durable-remove)"
                    .to_owned(),
            );
        }
        let malformed = || "needs a \"seed\" number and a \"keep\" array".to_owned();
        let seed = field_u64(text, "seed").ok_or_else(malformed)?;
        // Absent in repro files written before the sharded metadata
        // plane: those failures were observed at one shard.
        let shards = field_u64(text, "shards").unwrap_or(1) as u32;
        let keep = field_u64_array(text, "keep").ok_or_else(malformed)?;
        Ok(Repro {
            seed,
            shards,
            keep: keep.into_iter().map(|k| k as usize).collect(),
        })
    }

    /// Replays this repro: the minimal schedule and its report.
    pub fn run(&self) -> (Schedule, ChaosReport) {
        let schedule =
            Schedule::generate_with_shards(self.seed, self.shards).with_events_kept(&self.keep);
        let report = run_caught(&schedule);
        (schedule, report)
    }
}

/// The text after `"name"` and its colon, trimmed of leading space.
fn after_key<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\"");
    let at = text.find(&key)? + key.len();
    let rest = text[at..].trim_start();
    let rest = rest.strip_prefix(':')?;
    Some(rest.trim_start())
}

fn field_u64(text: &str, name: &str) -> Option<u64> {
    let rest = after_key(text, name)?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn field_bool(text: &str, name: &str) -> Option<bool> {
    let rest = after_key(text, name)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

fn field_u64_array(text: &str, name: &str) -> Option<Vec<u64>> {
    let rest = after_key(text, name)?;
    let rest = rest.strip_prefix('[')?;
    let body = &rest[..rest.find(']')?];
    let mut out = Vec::new();
    for part in body.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(part.parse().ok()?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_round_trips() {
        let r = Repro {
            seed: 1234,
            shards: 16,
            keep: vec![0, 2, 4],
        };
        assert_eq!(Repro::parse(&r.to_json()), Ok(r));
        let empty = Repro {
            seed: 7,
            shards: 1,
            keep: vec![],
        };
        assert_eq!(Repro::parse(&empty.to_json()), Ok(empty));
    }

    #[test]
    fn parse_defaults_missing_shards_to_one() {
        // Repro files written before the sharded metadata plane have no
        // "shards" field; they replay at one shard.
        let text = "{\"seed\":42,\"keep\":[1]}";
        assert_eq!(
            Repro::parse(text),
            Ok(Repro {
                seed: 42,
                shards: 1,
                keep: vec![1],
            })
        );
    }

    #[test]
    fn parse_replays_bug_free_files_and_refuses_seeded_bug_ones() {
        let old = "{\"seed\":42,\"shards\":4,\"inject_bug\":false,\"keep\":[1]}";
        let repro = Repro {
            seed: 42,
            shards: 4,
            keep: vec![1],
        };
        assert_eq!(Repro::parse(old), Ok(repro.clone()));
        assert!(!repro.run().1.failed(), "and still replays green");
        let bugged = "{\"seed\":14,\"inject_bug\":true,\"keep\":[3]}";
        let why = Repro::parse(bugged).expect_err("the injected-bug switch is gone");
        assert!(why.contains("mutation gate"), "{why}");
    }

    #[test]
    fn parse_tolerates_whitespace_and_order() {
        let text = "{ \"keep\" : [ 1 , 3 ],\n  \"seed\": 99 }";
        assert_eq!(
            Repro::parse(text),
            Ok(Repro {
                seed: 99,
                shards: 1,
                keep: vec![1, 3],
            })
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Repro::parse("not json").is_err());
        assert!(Repro::parse("{\"seed\": 1}").is_err());
    }
}
