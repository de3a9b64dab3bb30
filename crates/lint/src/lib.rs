//! # s4d-lint — workspace-aware static analysis for S4D-Cache
//!
//! A self-contained (dependency-free) source analyzer for the invariants
//! the language cannot carry. The durability protocol itself lives in
//! `s4d-cache`'s types (proof tokens, by-value obligations, a router-only
//! shard index); what is left for a linter is lexical — forbidden
//! identifiers and panicking constructs per crate scope, a pragma
//! ratchet, a module size cap, a file-scope fence around the raw durable
//! effects. Every rule walks one file's token stream, and in library
//! code every rule's finding is an error.
//!
//! The rule catalogue is one table, [`config::RULES`] — id and what it
//! guards — which `--list-rules`, the pragma hint, and pragma
//! validation all read:
//!
//! ```text
//! cargo run -p s4d-lint -- --list-rules
//! cargo run -p s4d-lint -- --workspace                # human-readable
//! cargo run -p s4d-lint -- --workspace --format=json  # one JSON object per finding
//! ```
//!
//! Suppress a finding only with a justified pragma:
//!
//! ```text
//! // s4d-lint: allow(panic) — index is the loop bound, < len by construction
//! ```
//!
//! See `DESIGN.md` §10 for the rule table with its real-code findings,
//! the mutation-gate row each rule kills, and what carries the retired
//! rules' properties now.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod diag;
pub mod engine;
mod items;
pub mod lexer;
pub mod pragma;
pub mod rules;
pub mod source;

pub use diag::{Diagnostic, Severity};
pub use engine::{lint_files, lint_paths, lint_workspace, Report};
pub use source::SourceFile;
