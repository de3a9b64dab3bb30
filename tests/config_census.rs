//! Tier-1 gate: every `S4dConfig` builder has a caller, the field count
//! is pinned, and so is the dependency census.
//!
//! ROADMAP aim 2 — every knob points at a number or a caught bug. A
//! `with_*` builder nothing in the workspace calls is an option no test,
//! figure, example or chaos schedule has ever turned on; it goes, with
//! the code only it reaches, rather than ship unmeasured. The pinned
//! field count makes the knob census ratchet: a new field edits the pin
//! in its own diff. The same holds for dependencies: every package a
//! binary links is a workspace member, and `vendor/` holds only the
//! dev-only `proptest` shim.

use std::path::Path;

/// Appends the text of every `.rs` file under `dir`, skipping `config.rs`
/// itself (its unit tests call every builder by construction).
fn read_sources(dir: &Path, out: &mut String) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            read_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            && !path.ends_with("crates/core/src/config.rs")
        {
            out.push_str(&std::fs::read_to_string(&path).expect("source file reads"));
        }
    }
}

#[test]
fn every_config_builder_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let config = std::fs::read_to_string(root.join("crates/core/src/config.rs")).unwrap();
    let mut callers = String::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap().flatten() {
        read_sources(&krate.path().join("src"), &mut callers);
        read_sources(&krate.path().join("tests"), &mut callers);
    }
    read_sources(&root.join("tests"), &mut callers);
    read_sources(&root.join("examples"), &mut callers);
    let builders: Vec<&str> = config
        .split("pub fn with_")
        .skip(1)
        .filter_map(|rest| rest.split('(').next())
        .collect();
    assert!(builders.len() > 10, "found only {builders:?}");
    let uncalled: Vec<&&str> = builders
        .iter()
        .filter(|b| !callers.contains(&format!(".with_{b}(")))
        .collect();
    assert!(
        uncalled.is_empty(),
        "S4dConfig builders nothing calls: {uncalled:?}"
    );
}

/// `S4dConfig`'s `pub` fields. Deleting a knob lowers this; adding one
/// raises it, visibly, in the same change.
const CONFIG_FIELDS: usize = 16;

#[test]
fn config_field_count_is_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let config = std::fs::read_to_string(root.join("crates/core/src/config.rs")).unwrap();
    let body = config
        .split("pub struct S4dConfig {")
        .nth(1)
        .and_then(|rest| rest.split("\n}").next())
        .expect("config.rs defines `pub struct S4dConfig { … }`");
    let fields: Vec<&str> = body
        .lines()
        .filter_map(|l| l.strip_prefix("    pub "))
        .filter_map(|l| l.split(':').next())
        .collect();
    assert_eq!(
        fields.len(),
        CONFIG_FIELDS,
        "S4dConfig fields changed; move the pin in the same diff: {fields:?}"
    );
}

/// What `vendor/` holds: the dev-only `proptest` shim and its README.
/// A new shim edits this pin in its own diff.
const VENDORED: [&str; 2] = ["README.md", "proptest"];

/// The `name = "…"` of a manifest's `[package]` section.
fn package_name(manifest: &str) -> Option<&str> {
    manifest
        .split("[package]")
        .nth(1)?
        .lines()
        .find_map(|l| l.strip_prefix("name = "))
        .map(|v| v.trim_matches('"'))
}

#[test]
fn dependencies_are_workspace_members_and_vendor_is_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut vendored: Vec<String> = std::fs::read_dir(root.join("vendor"))
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    vendored.sort();
    assert_eq!(
        vendored, VENDORED,
        "vendor/ changed; move the pin in the same diff"
    );

    let mut manifests = vec![root.join("Cargo.toml")];
    for krate in std::fs::read_dir(root.join("crates")).unwrap().flatten() {
        manifests.push(krate.path().join("Cargo.toml"));
    }
    let texts: Vec<(String, String)> = manifests
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(root).unwrap_or(p).display().to_string();
            (rel, std::fs::read_to_string(p).unwrap())
        })
        .collect();
    let members: Vec<&str> = texts.iter().filter_map(|(_, t)| package_name(t)).collect();
    assert!(members.len() > 10, "found only {members:?}");
    let mut foreign = Vec::new();
    for (path, text) in &texts {
        let mut section = "";
        for line in text.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line.trim_matches(['[', ']']);
                continue;
            }
            // `[dependencies]`, `[build-dependencies]` and
            // `[target.….dependencies]`; the workspace table only says
            // where packages live, and dev-only packages never reach a
            // binary.
            let ships = section.ends_with("dependencies")
                && !section.ends_with("dev-dependencies")
                && section != "workspace.dependencies";
            let name = line.split(['.', ' ', '=']).next().unwrap_or("");
            if ships && !name.is_empty() && !line.starts_with('#') && !members.contains(&name) {
                foreign.push(format!("{path}: [{section}] {name}"));
            }
        }
    }
    assert!(
        foreign.is_empty(),
        "non-workspace packages outside [dev-dependencies]: {foreign:?}"
    );
}
