//! Bad fixture: a fresh matcher scratch or bound validator per read in
//! the violation monitor.

/// Stand-ins for the matcher scratch, the bound validator and a compiled
/// plan, so the fixture mirrors the monitor's call sites.
pub struct MatcherScratch {
    pub used: Vec<bool>,
}

impl MatcherScratch {
    pub fn new() -> MatcherScratch {
        MatcherScratch { used: Vec::new() }
    }
}

pub struct BoundValidator;

impl BoundValidator {
    pub fn new(_g: &[u32]) -> BoundValidator {
        BoundValidator
    }
}

pub struct Plan;

impl Plan {
    pub fn matcher(&self, g: &[u32]) -> usize {
        g.len()
    }
}

/// Per-read construction: every call zeroes a fresh |V|-long mark array.
pub fn read_with_fresh_scratch(g: &[u32], plan: &Plan) -> usize {
    let scratch = MatcherScratch::new();
    let _validator = BoundValidator::new(g);
    scratch.used.len() + plan.matcher(g)
}
