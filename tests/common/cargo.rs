//! What the two gates that shell out to cargo share.

use std::path::Path;
use std::process::Command;

/// The static gate; CI runs the same line.
pub const CLIPPY: &str = "clippy --offline --workspace --all-targets -- -D warnings";

/// Runs `cargo <args>` in `dir`, building into `target_dir` (never the
/// one the outer `cargo test` holds); `(succeeded, stdout + stderr)`.
pub fn cargo(dir: &Path, target_dir: &Path, args: &str) -> (bool, String) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(dir)
        .args(args.split(' '))
        .env("CARGO_TARGET_DIR", target_dir)
        .output()
        .expect("spawn cargo");
    let text = [out.stdout, out.stderr].concat();
    let text = String::from_utf8_lossy(&text).into_owned();
    (out.status.success(), text)
}
