//! Seeded input for the `suppression-budget` gate. This file is a lint
//! *fixture* (never compiled): one justified `panic-policy` allow over a
//! new `.unwrap()` in library code. The directive is well-formed and
//! silences its site, so linted beside the workspace it pushes
//! panic-policy one allow over its fixed budget — the finding belongs to
//! the budget, not the site.

pub fn first(xs: &[u32]) -> u32 {
    // simlint: allow(panic-policy) — caller guarantees a non-empty slice
    *xs.first().unwrap()
}
