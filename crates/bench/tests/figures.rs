//! The figure registry is the one generator of the paper's artefacts:
//! every entry runs and returns well-formed tables, `reproduce` exposes
//! exactly the registry, and EXPERIMENTS.md cites exactly its ids.

use std::collections::BTreeSet;

use s4d_bench::figures::FIGURES;
use s4d_bench::Scale;

/// Small enough that all eleven generators finish in seconds in a debug
/// build. One row degenerates here: the campaign's 8 MiB files are smaller
/// than one round of 32 × 4 MiB requests, so Fig. 6's 4096 KiB row moves
/// no data and its gain is `speedup_pct`'s `"n/a"`.
fn smoke_scale() -> Scale {
    Scale::with_factor(256)
}

/// The number in a value cell: `"12.50"`, `"+3.1%"`, `"2.30x"`, `"7.0 MiB"`.
fn numeric(cell: &str) -> Option<f64> {
    let digits = ["%", "x", " MiB"]
        .iter()
        .find_map(|unit| cell.strip_suffix(unit))
        .unwrap_or(cell);
    digits.parse().ok()
}

fn registry_ids() -> Vec<&'static str> {
    FIGURES.iter().map(|f| f.id).collect()
}

#[test]
fn every_generator_returns_well_formed_tables() {
    let ids = registry_ids();
    assert_eq!(ids.len(), 11);
    assert_eq!(ids.iter().collect::<BTreeSet<_>>().len(), ids.len());
    for figure in FIGURES {
        let tables = (figure.run)(smoke_scale());
        assert!(!tables.is_empty(), "{} returned no table", figure.id);
        for table in &tables {
            assert!(!table.rows.is_empty(), "{}: {}", figure.id, table.title);
            for row in &table.rows {
                assert_eq!(row.len(), table.header.len(), "{}: {row:?}", figure.id);
                // The first cell is the row's label; the rest are values.
                for cell in &row[1..] {
                    assert!(
                        cell == "n/a" || numeric(cell).is_some_and(f64::is_finite),
                        "{}: cell {cell:?} of {row:?} is not a finite number",
                        figure.id
                    );
                }
            }
        }
        let last = tables.last().expect("non-empty");
        assert!(!last.note.is_empty(), "{}: no paper expectation", figure.id);
    }
}

/// The paper's "almost unobservable" overhead (§V.E.2, Fig. 11): with
/// an admission policy that admits nothing, S4D-Cache stays within 5 % of
/// stock.
#[test]
fn fig11_never_admit_overhead_is_unobservable() {
    let fig11 = FIGURES
        .iter()
        .find(|f| f.id == "fig11_overhead")
        .expect("registered");
    let tables = (fig11.run)(smoke_scale());
    assert_eq!(tables[0].rows.len(), 3);
    for row in &tables[0].rows {
        let delta = numeric(&row[3]).expect("delta is a percentage");
        assert!(delta.abs() < 5.0, "never-admit delta {delta} % in {row:?}");
    }
}

#[test]
fn reproduce_list_prints_exactly_the_registry_ids() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("--list")
        .output()
        .expect("reproduce runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert_eq!(stdout.lines().collect::<Vec<_>>(), registry_ids());
}

#[test]
fn reproduce_rejects_a_scale_it_cannot_honour() {
    for bad in ["0", "eight"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .env("S4D_SCALE_FACTOR", bad)
            .output()
            .expect("reproduce runs");
        assert_eq!(out.status.code(), Some(2), "S4D_SCALE_FACTOR={bad}");
        assert!(out.stdout.is_empty(), "no table under a rejected scale");
        assert!(String::from_utf8_lossy(&out.stderr).contains(bad));
    }
}

/// Every `` (`id` `` generator citation in EXPERIMENTS.md is a registry id
/// and every registry id is cited — the doc and the one generator cannot
/// drift apart the way the two generators did.
#[test]
fn experiments_md_cites_exactly_the_registry() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let cited: BTreeSet<&str> = doc
        .split("(`")
        .skip(1)
        .filter_map(|rest| rest.split_once('`'))
        .map(|(id, _)| id)
        .collect();
    let registered: BTreeSet<&str> = registry_ids().into_iter().collect();
    assert_eq!(cited, registered);
}
