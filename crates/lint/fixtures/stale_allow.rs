//! The fixed twin of `suppression_budget.rs`: the `.unwrap()` is gone
//! but its allow was left behind over a clean line. A directive that
//! silences nothing is a `bad-suppression` finding at its own line, and
//! it does not count toward the panic-policy budget.

pub fn first(xs: &[u32]) -> u32 {
    // simlint: allow(panic-policy) — caller guarantees a non-empty slice
    xs.first().copied().unwrap_or(0)
}
