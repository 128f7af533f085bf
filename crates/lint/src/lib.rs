//! # comap-lint — `simlint`, the CO-MAP workspace linter
//!
//! A self-contained, offline static-analysis pass enforcing the project
//! invariants the Rust compiler cannot see. The vendor tree has no
//! `syn`, so analysis runs on one hand-rolled syntax model per file.
//! The token scanner ([`lexer`]) pairs every `(`/`[`/`{` with its
//! closer in a single pass, and that one partner table feeds
//! everything structural: the `#[cfg(test)]` regions, the item model
//! ([`tree`]) of fn signatures, struct fields and enum variants, the
//! parsed `match` arms, and the event-construction scan. It is precise
//! enough for the rules below, and dependency-free so the linter builds
//! even when its lint subjects do not.
//!
//! ## Rules
//!
//! | rule | scope | invariant protected |
//! |------|-------|---------------------|
//! | `unit-hygiene` | `comap-radio`, `comap-sim` | paper eqs. (1)–(4) are only meaningful with consistent units: public `fn` parameters named like powers/ratios/distances must use the `Dbm`/`Db`/`MilliWatts`/`Meters` newtypes, never raw `f64` |
//! | `determinism` | `comap-sim`, `comap-mac`, `comap-core` | the bit-determinism guarantee of the power ledger (PR 1) and the non-perturbation guarantee of the observer layer (PR 3): no `HashMap`/`HashSet`, no `Instant::now`/`SystemTime::now`, no `thread_rng` |
//! | `panic-policy` | all library code | library crates must not abort mid-run: no `.unwrap()`, `.expect(..)`, `panic!`, `todo!` outside `#[cfg(test)]`, tests, benches and binaries (`assert!` and `debug_assert!` remain legal — they state invariants) |
//! | `event-completeness` | `comap-sim` | every `SimEvent` variant must have ≥ 1 emission (construction) site in the simulator outside the file that declares (and decodes) it, so the observability schema never silently rots |
//! | `float-eq` | all library code | `==`/`!=` against float literals is almost always a latent bug in Bianchi-derived math; exact comparisons must be justified |
//! | `backend-exhaustive` | `comap-sim`, `comap-experiments` | the culled and exhaustive medium backends are contractually bit-identical (PR 5); every `match` on a `MediumBackend` must name each backend, so adding one forces a reviewed decision at every dispatch site instead of falling into a `_` arm |
//! | `shard-safety` | `comap-sim`, `comap-mac`, `comap-core`, `comap-radio` | the sharded parallel engine (ROADMAP item 1) requires `Send` state by construction: no `Rc`, `RefCell`, `Cell`, `UnsafeCell`, `static mut`, `thread_local!`, or raw-pointer struct fields |
//! | `rng-discipline` | `comap-sim`, `comap-mac`, `comap-core` | region shards cannot share a sequential RNG stream without changing results: hot-path `StdRng` draws (outside constructors and tests) must migrate to the counter-based keyed streams of PR 7; the migration is complete, so its budget is 0 |
//! | `match-exhaustive` | `comap-sim`, `comap-experiments` | observers and dispatchers must decide when the event taxonomy grows: no `_` wildcard arm in a `match` whose arms dispatch on `SimEvent` variants |
//! | `suppression-budget` | whole workspace | suppressions ratchet down, never up: each rule's count of `simlint: allow` directives must equal its fixed [`Rule::budget`] — above it, fix the site; below it, lower the constant |
//!
//! ## Suppressions
//!
//! Any finding can be silenced at its site with
//!
//! ```text
//! // simlint: allow(<rule>) — <reason>
//! ```
//!
//! on the same line or within the two lines above. This is the only
//! exemption mechanism. The reason is mandatory; bare or malformed
//! directives, and directives that silence no finding, are reported as
//! `bad-suppression`. Every rule's directives are counted against its
//! fixed [`Rule::budget`], and the gate is exact.
//!
//! ## CLI
//!
//! ```text
//! simlint [--json <path>] [--quiet]
//! ```
//!
//! Lints every library source of the workspace around the current
//! directory ([`lint_workspace`]). Exit code 0 when no unsuppressed
//! finding remains and every rule's allow count equals its budget; 1
//! otherwise; 2 on usage or I/O errors. The `--json` report is stamped
//! with `schema_version` and lists every rule's budget, used count and
//! verdict. `scripts/check.sh` and CI run the identical invocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod tree;
pub mod workspace;

pub use rules::{lint_files, Finding, LintOutcome, Rule, SourceFile};
pub use workspace::{collect_sources, discover_workspace, lint_workspace, load_source};
