//! The shipped lint rules.
//!
//! Every rule walks the token stream of one file (via
//! [`FileContext`](crate::engine::FileContext)) and appends
//! [`Diagnostic`](crate::engine::Diagnostic)s. Rules are deny-by-default;
//! the engine applies inline escapes and CLI `--allow`/`--deny` levels on
//! top.
//!
//! Scoping: each rule names the workspace paths whose invariants it
//! protects. A rule also always applies to its own fixture directory
//! (`…/fixtures/<rule>/…`), which is how the self-test corpus proves each
//! rule fires — and to nothing in any *other* rule's fixtures, so good/bad
//! fixture files never cross-contaminate.

use crate::engine::{Diagnostic, FileContext};
use crate::lexer::TokKind;
use std::collections::BTreeSet;

/// A single lint rule over one file's token stream.
pub trait Rule {
    /// Stable kebab-case rule name (CLI flag and escape-comment key).
    fn name(&self) -> &'static str;
    /// One-line description for `--list`.
    fn describe(&self) -> &'static str;
    /// Appends raw diagnostics for `ctx` (escapes are applied later).
    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>);
}

/// All shipped rules, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(Nondeterminism),
        Box::new(NoPanicHotPath),
        Box::new(UnsafeCode),
        Box::new(SimulatedCost),
        Box::new(PerfHotLoop),
        Box::new(Hygiene),
        Box::new(FaultBoundary),
    ]
}

/// Names of all shipped rules (escape validation, CLI parsing).
pub fn rule_names() -> Vec<&'static str> {
    all_rules().iter().map(|r| r.name()).collect()
}

/// Whether `ctx` is in scope: its own fixture directory always, the listed
/// workspace path fragments otherwise (never another rule's fixtures).
fn in_scope(ctx: &FileContext<'_>, rule: &str, scopes: &[&str]) -> bool {
    if ctx.rel.contains("fixtures/") {
        return ctx.rel.contains(&format!("fixtures/{rule}/"));
    }
    scopes.iter().any(|s| ctx.rel.contains(s))
}

// ---------------------------------------------------------------------------
// nondeterminism
// ---------------------------------------------------------------------------

/// Iteration over hash-ordered collections, and unstable sorts by a key,
/// in output-affecting crates, the cover engine and the violation monitor.
///
/// `HashMap`/`HashSet` (and the workspace's `FxHashMap`/`FxHashSet`)
/// iterate in hasher order — a silent nondeterminism that the discovery
/// runtimes must exclude for bit-identical output. The rule tracks names
/// declared with a hash type in the same file (let bindings, fields,
/// params) and flags `.iter()`/`.keys()`/`.values()`/`.drain()`/
/// `.into_iter()` calls and `for … in` loops over them.
///
/// `.sort_unstable_by(…)`/`.sort_unstable_by_key(…)` leave elements with
/// equal keys in an order std does not specify, so a partial key lets
/// that order reach the output. Each call is flagged; an escape names the
/// last tie-break that makes its key total.
pub struct Nondeterminism;

const UNSTABLE_SORTS: &[&str] = &["sort_unstable_by", "sort_unstable_by_key"];

const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];
/// Tokens skipped when walking back from a hash-type name to its
/// declaration site (`x: &mut FxHashMap<…>`, `x: Arc<FxHashSet<…>>`).
const TYPE_WRAPPERS: &[&str] = &["Arc", "Rc", "Box", "Option", "mut", "dyn"];

/// Collects identifiers declared with a hash-map/set type in this file.
fn hash_typed_names<'a>(ctx: &FileContext<'a>) -> BTreeSet<&'a str> {
    let mut names = BTreeSet::new();
    for ci in 0..ctx.code_len() {
        if !HASH_TYPES.contains(&ctx.ct(ci)) {
            continue;
        }
        let mut k = ci;
        while k > 0 {
            k -= 1;
            let t = ctx.ctok(k);
            if t.text == "&"
                || t.text == "<"
                || t.kind == TokKind::Lifetime
                || TYPE_WRAPPERS.contains(&t.text)
            {
                continue;
            }
            // Declaration: `name: FxHashMap<…>` (field, param, or typed
            // let). A preceding second colon means a `::` path, not a
            // declaration.
            if t.text == ":" {
                if k > 0 && ctx.ct(k - 1) != ":" && ctx.ctok(k - 1).kind == TokKind::Ident {
                    names.insert(ctx.ct(k - 1));
                }
                break;
            }
            // Initialisation: `let name = FxHashMap::default()`.
            if t.text == "=" {
                if k > 0 && ctx.ctok(k - 1).kind == TokKind::Ident {
                    names.insert(ctx.ct(k - 1));
                }
                break;
            }
            break;
        }
    }
    names
}

impl Rule for Nondeterminism {
    fn name(&self) -> &'static str {
        "nondeterminism"
    }

    fn describe(&self) -> &'static str {
        "hash-order iteration (HashMap/HashSet/Fx* .iter()/.keys()/.values()/.drain()/for-in) and unstable sorts by a key in output-affecting crates"
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        if !in_scope(
            ctx,
            self.name(),
            &[
                "crates/core/src/",
                "crates/parallel/src/",
                "crates/pattern/src/",
                // The class order and the removal order decide which rules
                // survive a cover.
                "crates/logic/src/cover.rs",
                // The monitor's deltas, stored order and counters are
                // documented as pure functions of its input.
                "crates/incremental/src/",
            ],
        ) {
            return;
        }
        let names = hash_typed_names(ctx);
        for ci in 0..ctx.code_len() {
            let t = ctx.ctok(ci);
            if ctx.is_test_line(t.line) {
                continue;
            }
            if t.text == "." && UNSTABLE_SORTS.contains(&ctx.ct(ci + 1)) && ctx.ct(ci + 2) == "(" {
                out.push(ctx.diag(
                    self.name(),
                    ctx.ctok(ci + 1).line,
                    format!(
                        "`.{}()` leaves equal keys in unspecified order — sort by a total \
                         key and name its last tie-break in an escape, or sort stably",
                        ctx.ct(ci + 1)
                    ),
                ));
            }
            // `name.iter()` and friends (also matches `expr.field.iter()`
            // when `field` is a hash-typed name declared in this file).
            if t.kind == TokKind::Ident
                && names.contains(t.text)
                && ctx.ct(ci + 1) == "."
                && ITER_METHODS.contains(&ctx.ct(ci + 2))
                && ctx.ct(ci + 3) == "("
            {
                out.push(ctx.diag(
                    self.name(),
                    ctx.ctok(ci + 2).line,
                    format!(
                        "`{}.{}()` iterates in hash order — use a BTreeMap/sorted \
                         collection or justify why order cannot affect output",
                        t.text,
                        ctx.ct(ci + 2)
                    ),
                ));
            }
            // `for … in <expr mentioning a hash-typed name> {`.
            if t.kind == TokKind::Ident && t.text == "for" {
                self.check_for_loop(ctx, ci, &names, out);
            }
        }
    }
}

impl Nondeterminism {
    fn check_for_loop(
        &self,
        ctx: &FileContext<'_>,
        for_ci: usize,
        names: &BTreeSet<&str>,
        out: &mut Vec<Diagnostic>,
    ) {
        // Find the `in` at bracket depth 0, then scan the iterated
        // expression up to the loop body's `{`.
        let mut depth = 0i32;
        let mut j = for_ci + 1;
        let limit = (for_ci + 96).min(ctx.code_len());
        while j < limit {
            match ctx.ct(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" | ";" if depth == 0 => return,
                "in" if depth == 0 && ctx.ctok(j).kind == TokKind::Ident => break,
                _ => {}
            }
            j += 1;
        }
        if j >= limit {
            return;
        }
        let mut k = j + 1;
        while k < limit {
            let t = ctx.ctok(k);
            match t.text {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => return,
                _ => {
                    if t.kind == TokKind::Ident && names.contains(t.text) {
                        // A hash name followed by a method call is already
                        // covered by the method check (or is order-safe,
                        // e.g. `.contains_key`): only flag direct
                        // iteration of the collection value itself.
                        let next = ctx.ct(k + 1);
                        if next != "." && next != "[" {
                            out.push(ctx.diag(
                                self.name(),
                                ctx.ctok(for_ci).line,
                                format!(
                                    "`for … in` over hash-ordered `{}` — iteration order is \
                                     nondeterministic",
                                    t.text
                                ),
                            ));
                            return;
                        }
                        // `.into_iter()`-style chains are caught above;
                        // skip past the receiver.
                    }
                }
            }
            k += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// no-panic
// ---------------------------------------------------------------------------

/// Panics in steal/barrier worker bodies and core lattice/harvest code.
///
/// A panicking worker poisons a wave: the master blocks on a result that
/// never arrives. `unwrap()`/`expect()`/`panic!`-family macros and
/// indexing with a *computed* index (`v[f(i)]`) are flagged; escapes must
/// state the invariant that makes the site unreachable.
pub struct NoPanicHotPath;

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

impl Rule for NoPanicHotPath {
    fn name(&self) -> &'static str {
        "no-panic"
    }

    fn describe(&self) -> &'static str {
        "unwrap()/expect()/panic! and computed-index [] in parallel worker bodies and core lattice/harvest code"
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        if !in_scope(
            ctx,
            self.name(),
            &[
                "crates/parallel/src/steal.rs",
                "crates/parallel/src/pardis.rs",
                "crates/parallel/src/cluster.rs",
                "crates/core/src/hspawn.rs",
                "crates/core/src/vspawn.rs",
            ],
        ) {
            return;
        }
        for ci in 0..ctx.code_len() {
            let t = ctx.ctok(ci);
            if ctx.is_test_line(t.line) {
                continue;
            }
            if t.text == "."
                && matches!(ctx.ct(ci + 1), "unwrap" | "expect")
                && ctx.ct(ci + 2) == "("
            {
                out.push(ctx.diag(
                    self.name(),
                    ctx.ctok(ci + 1).line,
                    format!(
                        "`.{}()` can panic in a worker body — plumb the error or justify \
                         the invariant that makes it unreachable",
                        ctx.ct(ci + 1)
                    ),
                ));
            }
            if t.kind == TokKind::Ident && PANIC_MACROS.contains(&t.text) && ctx.ct(ci + 1) == "!" {
                out.push(ctx.diag(
                    self.name(),
                    t.line,
                    format!("`{}!` aborts the worker — return an error instead", t.text),
                ));
            }
            if t.text == "[" && ci > 0 {
                let prev = ctx.ctok(ci - 1);
                let indexing = prev.kind == TokKind::Ident || prev.text == "]" || prev.text == ")";
                if indexing && self.index_contains_call(ctx, ci) {
                    out.push(
                        ctx.diag(
                            self.name(),
                            t.line,
                            "indexing with a computed index can panic out of bounds — bound it \
                         or use `.get()`"
                                .to_string(),
                        ),
                    );
                }
            }
        }
    }
}

impl NoPanicHotPath {
    /// Whether the `[…]` starting at code index `open` contains a function
    /// or method call (`ident(`) — the "computed index on user data"
    /// heuristic.
    fn index_contains_call(&self, ctx: &FileContext<'_>, open: usize) -> bool {
        let mut depth = 0i32;
        let limit = (open + 64).min(ctx.code_len());
        for k in open..limit {
            match ctx.ct(k) {
                "[" | "(" => depth += 1,
                "]" | ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return false;
                    }
                }
                _ => {
                    if ctx.ctok(k).kind == TokKind::Ident && ctx.ct(k + 1) == "(" {
                        return true;
                    }
                }
            }
        }
        false
    }
}

// ---------------------------------------------------------------------------
// unsafe-code
// ---------------------------------------------------------------------------

/// `#![forbid(unsafe_code)]` on every crate root; `// SAFETY:` on any
/// `unsafe` that a future `#![allow]` might re-admit.
pub struct UnsafeCode;

impl Rule for UnsafeCode {
    fn name(&self) -> &'static str {
        "unsafe-code"
    }

    fn describe(&self) -> &'static str {
        "crate roots must carry #![forbid(unsafe_code)]; any `unsafe` needs a // SAFETY: comment"
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        if ctx.rel.contains("fixtures/") && !ctx.rel.contains("fixtures/unsafe-code/") {
            return;
        }
        let crate_root = ctx.rel.ends_with("src/lib.rs")
            || ctx.rel.ends_with("src/main.rs")
            || ctx.rel.contains("/src/bin/")
            || ctx.rel.contains("fixtures/unsafe-code/");
        if crate_root && !self.has_forbid(ctx) {
            out.push(ctx.diag(
                self.name(),
                1,
                "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            ));
        }
        for ci in 0..ctx.code_len() {
            let t = ctx.ctok(ci);
            if t.kind == TokKind::Ident && t.text == "unsafe" && !ctx.has_safety_comment(t.line) {
                out.push(ctx.diag(
                    self.name(),
                    t.line,
                    "`unsafe` without a `// SAFETY:` comment in the preceding lines".to_string(),
                ));
            }
        }
    }
}

impl UnsafeCode {
    fn has_forbid(&self, ctx: &FileContext<'_>) -> bool {
        const SEQ: &[&str] = &["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
        (0..ctx.code_len().saturating_sub(SEQ.len())).any(|ci| {
            SEQ.iter()
                .enumerate()
                .all(|(k, want)| ctx.ct(ci + k) == *want)
        })
    }
}

// ---------------------------------------------------------------------------
// simulated-cost
// ---------------------------------------------------------------------------

/// Wall-clock reads must never leak into modelled cost accounting.
///
/// `ExecMode::Simulated` scalability curves (the paper's Fig. 5 shapes)
/// are reproducible only because unit costs are pure functions of the
/// input — rows touched, adjacency entries visited. The rule flags any
/// statement in the runtime files that mixes a time source
/// (`Instant`/`elapsed`/`as_nanos`/…) with a cost/work accumulator, plus
/// any use of `SystemTime` at all.
pub struct SimulatedCost;

const TIME_TOKENS: &[&str] = &[
    "Instant",
    "elapsed",
    "as_nanos",
    "as_micros",
    "as_millis",
    "as_secs",
    "as_secs_f32",
    "as_secs_f64",
];

impl Rule for SimulatedCost {
    fn name(&self) -> &'static str {
        "simulated-cost"
    }

    fn describe(&self) -> &'static str {
        "no Instant/SystemTime flowing into modelled cost/work accounting in the runtime files"
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        if !in_scope(
            ctx,
            self.name(),
            &[
                "crates/parallel/src/cluster.rs",
                "crates/parallel/src/steal.rs",
                "crates/parallel/src/parcover.rs",
                "crates/parallel/src/pardis.rs",
                "crates/core/src/seqdis.rs",
            ],
        ) {
            return;
        }
        // Statement-level scan: a statement that touches both a time
        // source and a cost/work identifier taints the modelled schedule.
        let mut stmt_start = 0usize;
        for ci in 0..ctx.code_len() {
            let t = ctx.ctok(ci);
            if t.kind == TokKind::Ident && t.text == "SystemTime" && !ctx.is_test_line(t.line) {
                out.push(
                    ctx.diag(
                        self.name(),
                        t.line,
                        "`SystemTime` has no place in the runtime — costs and schedules must be \
                     wall-clock-free"
                            .to_string(),
                    ),
                );
            }
            if matches!(t.text, ";" | "{" | "}") {
                self.check_stmt(ctx, stmt_start, ci, out);
                stmt_start = ci + 1;
            }
        }
        self.check_stmt(ctx, stmt_start, ctx.code_len(), out);
    }
}

impl SimulatedCost {
    fn check_stmt(
        &self,
        ctx: &FileContext<'_>,
        start: usize,
        end: usize,
        out: &mut Vec<Diagnostic>,
    ) {
        if start >= end {
            return;
        }
        let line = ctx.ctok(start).line;
        if ctx.is_test_line(line) {
            return;
        }
        let mut has_time = false;
        let mut cost_ident: Option<&str> = None;
        for ci in start..end {
            let t = ctx.ctok(ci);
            if t.kind != TokKind::Ident {
                continue;
            }
            if TIME_TOKENS.contains(&t.text) {
                has_time = true;
            }
            let lower = t.text.to_ascii_lowercase();
            // "worker" is not "work": strip it before the substring test so
            // `worker_results`-style names don't read as cost accounting.
            let depersonned = lower.replace("worker", "");
            if lower.contains("cost") || depersonned.contains("work") {
                cost_ident = Some(t.text);
            }
        }
        if has_time {
            if let Some(name) = cost_ident {
                out.push(ctx.diag(
                    self.name(),
                    line,
                    format!(
                        "statement mixes a wall-clock source with cost/work accounting \
                         (`{name}`) — modelled costs must be pure functions of the input"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// perf
// ---------------------------------------------------------------------------

/// Allocation-churn calls inside per-row/per-edge loops of the matcher
/// and harvest hot paths (`Arc::clone`, `.to_vec()`, `format!`), and
/// full-LHS re-accumulation inside lattice loops (`evaluate`/
/// `accumulate_lhs` per visited node re-ANDs the whole premise set; the
/// prefix-shared stack ANDs one literal against the cached parent
/// accumulator instead).
///
/// In the frozen-graph crate (`crates/graph/src/`) the rule additionally
/// flags nested `Vec<Vec<…>>` anywhere — construction and read paths
/// there are structure-of-arrays CSR by design (offset ranges into flat
/// arrays); a vec-of-vecs is a per-node allocation and a pointer chase per
/// access, exactly the layout the scale refactor removed.
///
/// In the violation monitor's crate (`crates/incremental/src/`) it flags
/// every construction of a `MatcherScratch` or a `BoundValidator`, and
/// every `.matcher(…)` call (which builds a fresh scratch): each one
/// allocates and zeroes a mark array of `|V|` entries, which on a
/// million-node graph costs more than the query it serves. The monitor
/// owns one scratch for its whole life; its one construction site carries
/// the escape.
pub struct PerfHotLoop;

impl Rule for PerfHotLoop {
    fn name(&self) -> &'static str {
        "perf"
    }

    fn describe(&self) -> &'static str {
        "Arc::clone/.to_vec()/format! in matcher/harvest loops; full-LHS re-accumulation in lattice loops; Vec<Vec< in frozen-graph paths; MatchTable::build in bound-validation paths; per-call MatcherScratch/BoundValidator construction in the monitor"
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        // Four jurisdictions: the loop-allocation checks guard the matcher/
        // harvest/lattice hot paths; the nested-Vec layout check guards the
        // frozen graph's SoA representation; the table-construction check
        // guards the bound-validation paths; the scratch-construction check
        // guards the monitor. The perf fixtures exercise all of them.
        let nested_scope =
            ctx.rel.contains("crates/graph/src/") || ctx.rel.contains("fixtures/perf/");
        let loop_scope = in_scope(
            ctx,
            self.name(),
            &[
                "crates/pattern/src/matcher.rs",
                "crates/core/src/vspawn.rs",
                "crates/core/src/hspawn.rs",
                "crates/core/src/bitmap.rs",
            ],
        );
        let bound_scope = in_scope(
            ctx,
            self.name(),
            &[
                "crates/core/src/bound.rs",
                "crates/incremental/src/monitor.rs",
            ],
        );
        let scratch_scope = in_scope(ctx, self.name(), &["crates/incremental/src/"]);
        if !nested_scope && !loop_scope && !bound_scope && !scratch_scope {
            return;
        }
        // Brace-frame tracking: a frame opened after for/while/loop is a
        // loop body; any enclosing loop frame puts us on a per-row path.
        // The `for` of an `impl Trait for Type` header is not a loop.
        let mut frames: Vec<bool> = Vec::new();
        let mut pending_loop = false;
        let mut impl_header = false;
        for ci in 0..ctx.code_len() {
            let t = ctx.ctok(ci);
            match t.text {
                "impl" if t.kind == TokKind::Ident => impl_header = true,
                "for" if t.kind == TokKind::Ident && impl_header => {}
                "for" | "while" | "loop" if t.kind == TokKind::Ident => pending_loop = true,
                ";" => {
                    pending_loop = false;
                    impl_header = false;
                }
                "{" => {
                    frames.push(pending_loop);
                    pending_loop = false;
                    impl_header = false;
                }
                "}" => {
                    frames.pop();
                }
                _ => {}
            }
            if nested_scope
                && t.text == "Vec"
                && t.kind == TokKind::Ident
                && ctx.ct(ci + 1) == "<"
                && ctx.ct(ci + 2) == "Vec"
                && !ctx.is_test_line(t.line)
            {
                out.push(
                    ctx.diag(
                        self.name(),
                        t.line,
                        "nested `Vec<Vec<…>>` in a frozen-graph path — use the flat \
                     structure-of-arrays CSR shape (offset ranges into one flat array) instead"
                            .to_string(),
                    ),
                );
            }
            if bound_scope
                && t.text == "MatchTable"
                && t.kind == TokKind::Ident
                && ctx.ct(ci + 1) == ":"
                && ctx.ct(ci + 2) == ":"
                && ctx.ct(ci + 3) == "build"
                && !ctx.is_test_line(t.line)
            {
                out.push(
                    ctx.diag(
                        self.name(),
                        t.line,
                        "full `MatchTable` construction in a bound-validation path — \
                     `BoundValidator` evaluates literals over the per-pivot match set \
                     directly; materialising a global table forfeits the k-hop locality win"
                            .to_string(),
                    ),
                );
            }
            if scratch_scope && !ctx.is_test_line(t.line) {
                let built = if (t.text == "MatcherScratch" || t.text == "BoundValidator")
                    && t.kind == TokKind::Ident
                    && ctx.ct(ci + 1) == ":"
                    && ctx.ct(ci + 2) == ":"
                    && matches!(ctx.ct(ci + 3), "new" | "default" | "with_threshold")
                {
                    Some(t.text)
                } else if t.text == "." && ctx.ct(ci + 1) == "matcher" && ctx.ct(ci + 2) == "(" {
                    Some(".matcher(…)")
                } else {
                    None
                };
                if let Some(what) = built {
                    out.push(ctx.diag(
                        self.name(),
                        t.line,
                        format!(
                            "`{what}` builds a fresh mark array of |V| entries per call — \
                             reuse the monitor's one `MatcherScratch` through `matcher_from`, \
                             or justify the escape"
                        ),
                    ));
                }
            }
            if !loop_scope || !frames.iter().any(|&l| l) || ctx.is_test_line(t.line) {
                continue;
            }
            let flagged = if t.text == "format" && ctx.ct(ci + 1) == "!" {
                Some("`format!` allocates per iteration")
            } else if t.text == "Arc"
                && ctx.ct(ci + 1) == ":"
                && ctx.ct(ci + 2) == ":"
                && ctx.ct(ci + 3) == "clone"
            {
                Some("`Arc::clone` bumps a shared refcount per iteration")
            } else if t.text == "." && ctx.ct(ci + 1) == "to_vec" && ctx.ct(ci + 2) == "(" {
                Some("`.to_vec()` copies per iteration")
            } else if (t.text == "evaluate" || t.text == "accumulate_lhs")
                && t.kind == TokKind::Ident
                && ctx.ct(ci + 1) == "("
                && (ci == 0 || ctx.ct(ci - 1) != "fn")
            {
                Some(
                    "full-LHS re-accumulation per lattice node — the prefix stack \
                     (`stack_eval_child`) ANDs one literal against the cached parent accumulator",
                )
            } else {
                None
            };
            if let Some(why) = flagged {
                out.push(ctx.diag(
                    self.name(),
                    t.line,
                    format!("{why} — hoist it out of the loop or justify the escape"),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// hygiene
// ---------------------------------------------------------------------------

/// Workspace hygiene: `TODO`/`FIXME` without an issue reference, and
/// blanket `#[allow(dead_code)]`/`#[allow(unused…)]` attributes without a
/// same-line justification comment. (Stale or unjustified `gfd-lint`
/// escapes are reported under this rule by the engine itself.)
pub struct Hygiene;

impl Rule for Hygiene {
    fn name(&self) -> &'static str {
        "hygiene"
    }

    fn describe(&self) -> &'static str {
        "TODO/FIXME without an issue reference; unjustified #[allow(dead_code/unused…)]; stale lint escapes"
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        if ctx.rel.contains("fixtures/") && !ctx.rel.contains("fixtures/hygiene/") {
            return;
        }
        for t in ctx.toks {
            if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
                continue;
            }
            if (t.text.contains("TODO") || t.text.contains("FIXME")) && !has_issue_ref(t.text) {
                out.push(
                    ctx.diag(
                        self.name(),
                        t.line,
                        "TODO/FIXME without an issue reference (add `#<n>` or an ISSUE link, or \
                     resolve it)"
                            .to_string(),
                    ),
                );
            }
        }
        for ci in 0..ctx.code_len() {
            if ctx.ct(ci) != "#" || ctx.ct(ci + 1) != "[" || ctx.ct(ci + 2) != "allow" {
                continue;
            }
            let line = ctx.ctok(ci).line;
            let mut k = ci + 3;
            let limit = (ci + 24).min(ctx.code_len());
            let mut blanket: Option<&str> = None;
            while k < limit && ctx.ct(k) != "]" {
                let txt = ctx.ct(k);
                if txt == "dead_code" || txt.starts_with("unused") {
                    blanket = Some(ctx.ctok(k).text);
                }
                k += 1;
            }
            if let Some(what) = blanket {
                if !ctx.has_trailing_comment(line) {
                    out.push(ctx.diag(
                        self.name(),
                        line,
                        format!(
                            "blanket `#[allow({what})]` — delete it if stale, or add a \
                             same-line comment saying why it must stay"
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// fault-boundary
// ---------------------------------------------------------------------------

/// Panic-recovery discipline in the parallel runtime.
///
/// Recovery from injected and genuine worker panics hinges on two
/// invariants: every `catch_unwind` site is a *deliberate* fault boundary
/// (documented with a `fault-boundary:` comment saying what failure it
/// absorbs and why state stays consistent), and channel results are never
/// `unwrap`ed/`expect`ed — a crashed peer closes its channel, and that
/// `RecvError` must turn into `WorkerLost` recovery, not a master panic.
/// `fault.rs` itself is exempt: it is the boundary module the rest of the
/// runtime delegates to.
pub struct FaultBoundary;

impl Rule for FaultBoundary {
    fn name(&self) -> &'static str {
        "fault-boundary"
    }

    fn describe(&self) -> &'static str {
        "catch_unwind without a `fault-boundary:` justification; unwrap()/expect() on channel recv results in the parallel runtime"
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        if !in_scope(ctx, self.name(), &["crates/parallel/src/"]) || ctx.rel.ends_with("fault.rs") {
            return;
        }
        // Lines carrying a `fault-boundary` justification comment.
        let boundary_lines: BTreeSet<u32> = ctx
            .toks
            .iter()
            .filter(|t| {
                matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
                    && t.text.contains("fault-boundary")
            })
            .map(|t| t.line)
            .collect();
        for ci in 0..ctx.code_len() {
            let t = ctx.ctok(ci);
            if t.kind != TokKind::Ident || ctx.is_test_line(t.line) {
                continue;
            }
            if t.text == "catch_unwind" {
                let justified =
                    (t.line.saturating_sub(3)..=t.line).any(|l| boundary_lines.contains(&l));
                if !justified {
                    out.push(
                        ctx.diag(
                            self.name(),
                            t.line,
                            "`catch_unwind` without a `fault-boundary:` comment — say what \
                         failure this boundary absorbs and why state stays consistent"
                                .to_string(),
                        ),
                    );
                }
            }
            if matches!(t.text, "recv" | "recv_timeout") && ctx.ct(ci + 1) == "(" {
                // `.unwrap()`/`.expect(` within a few tokens of the call
                // means the channel result is not error-handled.
                let limit = (ci + 10).min(ctx.code_len());
                for k in ci + 1..limit {
                    if ctx.ct(k) == "." && matches!(ctx.ct(k + 1), "unwrap" | "expect") {
                        out.push(ctx.diag(
                            self.name(),
                            t.line,
                            format!(
                                "`.{}()` on a channel result — a crashed peer closes its \
                                 channel; route the `RecvError` into `WorkerLost` recovery",
                                ctx.ct(k + 1)
                            ),
                        ));
                        break;
                    }
                }
            }
        }
    }
}

/// Whether a TODO/FIXME comment carries an issue reference: `#<digits>`
/// or the word `ISSUE`.
fn has_issue_ref(text: &str) -> bool {
    if text.contains("ISSUE") || text.contains("issue") {
        return true;
    }
    let bytes = text.as_bytes();
    bytes
        .windows(2)
        .any(|w| w[0] == b'#' && w[1].is_ascii_digit())
}
