//! Bad fixture: unstable sorts on partial keys — which of two equally
//! specific rules comes first is up to the sort.

/// Orders rules by (edges, premises) only; ties fall where they may.
pub fn most_specific_first(rules: &mut [(usize, usize, u32)]) {
    rules.sort_unstable_by_key(|r| std::cmp::Reverse((r.0, r.1)));
}

/// Ranks values by count alone.
pub fn by_count(ranked: &mut [(u32, usize)]) {
    ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1));
}
