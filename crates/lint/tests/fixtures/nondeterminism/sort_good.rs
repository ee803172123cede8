//! Good fixture: a stable sort, and an unstable sort whose escape names
//! the tie-break that makes its key total.

/// Stable: equal keys keep their input order.
pub fn most_specific_first(rules: &mut [(usize, usize, u32)]) {
    rules.sort_by_key(|r| std::cmp::Reverse((r.0, r.1)));
}

/// Ranks values by count, then by value.
pub fn by_count(ranked: &mut [(u32, usize)]) {
    // gfd-lint: allow(nondeterminism) — total: ties on count break on the value, unique per entry
    ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
}
