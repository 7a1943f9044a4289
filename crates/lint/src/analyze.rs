//! The v2 analysis pass: workspace call graph + rules L6–L8.
//!
//! Where rules L1–L5 ([`crate::rules`]) are per-line pattern checks,
//! the rules here need cross-function structure (see DESIGN.md §15):
//!
//! * **L6 `panic-reach`** — in the panic-free crates' library code,
//!   flags the panicking constructs the L1 lexer pass cannot see
//!   (slice indexing with a non-literal index, integer `/`/`%` with a
//!   non-literal divisor, the `copy_from_slice`/`split_at` family) and
//!   every *call* whose callee transitively reaches an unwaived
//!   panicking construct, printing the full witness chain down to the
//!   root construct.
//! * **L7 `checked-arith`** — unchecked `+`/`*`/`+=` on values that
//!   flow out of the weight domain (`PrefixSum2D` / `SparsePrefixSum` /
//!   interval-cost oracles) must use `checked_*`/`saturating_*` outside
//!   the approved accumulator modules.
//! * **L8 `lock-discipline`** — no two `StripeCache`/`ShardedMemo`
//!   shard guards may be live simultaneously, and no mutex guard's
//!   lifetime may span a `crates/parallel` fan-out/join boundary.
//!
//! Waivers use the same escape hatch as v1: `// lint:allow(<slug>) --
//! <reason>` on the offending line or above it. A waived construct is
//! treated as *sealed* — its documented invariant says it cannot fire —
//! so it neither reports nor propagates through the call graph.
//! `assert!`-family macros are deliberately **not** panic sources:
//! they are sanctioned contract checks (same stance as L1).

use crate::lexer::{lex, Lexed};
use crate::parse::{parse, ParsedFile};
use crate::rules::{allowed, Diagnostic, FileContext, Rule};
use crate::symbols::{alias_map, panic_free_crates, CallGraph, PanicSource, SymbolTable};
use std::collections::BTreeSet;

/// Modules allowed to do unchecked weight arithmetic (L7): the Γ
/// accumulator implementations, whose checked/carry-guarded builds are
/// audited in place (the PR 5 tile-lane carry-guard hoist carries its
/// own justification in `prefix.rs`).
const L7_APPROVED_MODULES: [&str; 2] = ["crates/core/src/prefix.rs", "crates/core/src/sparse.rs"];

/// Method calls whose result is a weight-domain `u64` (loads, interval
/// costs, bottlenecks). `let`-bindings of these become tracked idents.
const WEIGHT_SOURCES: [&str; 9] = [
    ".load(",
    ".load4(",
    ".cost(",
    ".total(",
    ".sum4(",
    ".bottleneck(",
    ".max_unit_cost(",
    ".lower_bound(",
    ".partition_lower_bound(",
];

/// Slice methods that panic on bad lengths/midpoints (the
/// `copy_from_slice`/`split_at` family of L6).
const COPY_FAMILY: [&str; 5] = [
    ".copy_from_slice(",
    ".clone_from_slice(",
    ".copy_within(",
    ".split_at(",
    ".split_at_mut(",
];

/// Parallel fan-out entry points: a guard held across any of these
/// crosses a `crates/parallel` join boundary (L8).
const FANOUT_CALLS: [&str; 8] = [
    "rectpart_parallel::join(",
    "parallel::join(",
    "map_range(",
    "map_slice(",
    "flat_map_slice(",
    "for_each_indexed_mut(",
    "map_chunks(",
    "chunked_reduce(",
];

/// Result of the workspace analysis.
#[derive(Debug, Default)]
pub struct AnalysisReport {
    /// L6–L8 diagnostics, sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// Functions indexed in the symbol table.
    pub functions: usize,
    /// Call expressions resolved to a workspace function.
    pub resolved_calls: usize,
    /// Call expressions with no unambiguous target (the escape hatch).
    pub unresolved_calls: usize,
}

/// Rust package ident a crate directory is imported as (`core` →
/// `rectpart_core`; the root package is plain `rectpart`).
fn crate_ident(dir_name: &str) -> String {
    if dir_name == "rectpart" {
        "rectpart".to_string()
    } else {
        format!("rectpart_{dir_name}")
    }
}

/// Runs the v2 analysis over a set of files (whole workspace, or a
/// single fixture in the self-tests). Shim crates are skipped entirely.
pub fn analyze_files(files: &[(FileContext, String)]) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    let panic_free = panic_free_crates();

    // Pass 1: lex + parse + index symbols.
    let mut table = SymbolTable::default();
    let mut lexed_files: Vec<Option<(Lexed, ParsedFile, Vec<usize>)>> = Vec::new();
    let mut crates_seen: BTreeSet<String> = BTreeSet::new();
    for (ctx, _) in files {
        if !ctx.is_shim && crates_seen.insert(ctx.crate_name.clone()) {
            table.register_crate(&ctx.crate_name, &crate_ident(&ctx.crate_name));
        }
    }
    for (ctx, source) in files {
        if ctx.is_shim {
            lexed_files.push(None);
            continue;
        }
        let lexed = lex(source);
        let parsed = parse(&lexed);
        let ids = table.add_file(&ctx.crate_name, &ctx.rel_path, ctx.is_library, &parsed);
        lexed_files.push(Some((lexed, parsed, ids)));
    }
    report.functions = table.len();

    // Pass 2: per-function panic sources and resolved call edges.
    let mut graph = CallGraph::new(table.len());
    for (file_idx, (ctx, _)) in files.iter().enumerate() {
        let Some((lexed, parsed, ids)) = &lexed_files[file_idx] else {
            continue;
        };
        let aliases = alias_map(parsed);
        for (f_idx, f) in parsed.functions.iter().enumerate() {
            let id = ids[f_idx];
            if f.is_test {
                continue;
            }
            // Panic sources in the body (direct constructs, sealed by a
            // panic or panic-reach waiver).
            for line_no in f.body.0..=f.body.1.min(lexed.lines.len().saturating_sub(1)) {
                let line = &lexed.lines[line_no];
                if line.in_test {
                    continue;
                }
                for src in line_panic_sources(&line.code) {
                    if sealed(lexed, line_no) {
                        continue;
                    }
                    graph.sources[id].push(PanicSource {
                        line: line_no + 1,
                        what: src,
                    });
                }
            }
            // Call edges.
            let mut seen_edges: BTreeSet<(usize, usize)> = BTreeSet::new();
            for call in &f.calls {
                match table.resolve(&ctx.crate_name, f.self_type.as_deref(), &aliases, call) {
                    Some(callee) if callee != id => {
                        report.resolved_calls += 1;
                        if seen_edges.insert((call.line, callee)) {
                            graph.edges[id].push((callee, call.line + 1));
                        }
                    }
                    Some(_) => report.resolved_calls += 1,
                    None => report.unresolved_calls += 1,
                }
            }
        }
    }
    graph.resolved_calls = report.resolved_calls;
    graph.unresolved_calls = report.unresolved_calls;

    // Pass 3: reachability + rule engines.
    let witness = graph.panic_reachable();
    for (file_idx, (ctx, _)) in files.iter().enumerate() {
        let Some((lexed, parsed, ids)) = &lexed_files[file_idx] else {
            continue;
        };
        let strict_l6 = ctx.is_library && panic_free.contains(ctx.crate_name.as_str());
        for (f_idx, f) in parsed.functions.iter().enumerate() {
            let id = ids[f_idx];
            if f.is_test {
                continue;
            }
            if strict_l6 {
                // L6 direct constructs.
                for src in &graph.sources[id] {
                    if src.what.starts_with("call ") || src.what.starts_with('`') {
                        // L1-kind constructs are already policed by L1;
                        // they only feed propagation here.
                        continue;
                    }
                    push_v2(
                        ctx,
                        &mut report.diagnostics,
                        src.line,
                        Rule::PanicReach,
                        format!("{} can panic in panic-free library code", src.what),
                        Vec::new(),
                    );
                }
                // L6 transitive: calls into panic-reaching functions.
                for &(callee, line) in &graph.edges[id] {
                    if !witness.contains_key(&callee) {
                        continue;
                    }
                    if allowed(lexed, line - 1, Rule::PanicReach) {
                        continue;
                    }
                    let chain = graph.chain(&table, &witness, callee);
                    let hops = graph.chain_hops(&table, &witness, callee);
                    push_v2(
                        ctx,
                        &mut report.diagnostics,
                        line,
                        Rule::PanicReach,
                        format!(
                            "call into `{}` can reach a panic: {}",
                            table.symbol(callee).qualified(),
                            chain
                        ),
                        hops,
                    );
                }
                // L7 weight-domain arithmetic.
                if !L7_APPROVED_MODULES.contains(&ctx.rel_path.as_str()) {
                    check_weight_arith(ctx, lexed, f.body, &mut report.diagnostics);
                }
            }
            // L8 lock discipline: all non-shim library code.
            if ctx.is_library {
                check_lock_discipline(ctx, lexed, f.body, &mut report.diagnostics);
            }
        }
    }
    report.diagnostics.sort();
    report.diagnostics.dedup();
    report
}

fn push_v2(
    ctx: &FileContext,
    out: &mut Vec<Diagnostic>,
    line: usize,
    rule: Rule,
    message: String,
    chain: Vec<(String, String, usize)>,
) {
    out.push(Diagnostic {
        file: ctx.rel_path.clone(),
        line,
        rule,
        message,
        chain,
    });
}

/// `true` when line `idx` carries a `panic` or `panic-reach` waiver —
/// either seals the construct for both reporting and propagation.
fn sealed(lexed: &Lexed, idx: usize) -> bool {
    allowed(lexed, idx, Rule::PanicReach) || allowed(lexed, idx, Rule::Panic)
}

/// Panic-capable constructs on one code-channel line, described.
/// L1-kind constructs come back in backtick-led form (`` `panic!` ``) so
/// the caller can tell them apart from the L6-specific kinds.
fn line_panic_sources(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    // L1-kind (propagation only).
    for pat in [".unwrap()", ".expect("] {
        if code.contains(pat) {
            out.push(format!("`{pat}..`"));
        }
    }
    for pat in ["panic!", "unreachable!", "unimplemented!", "todo!"] {
        if crate::rules::word_hit(code, pat) {
            out.push(format!("`{pat}`"));
        }
    }
    // Slice indexing with a non-literal index.
    for snippet in index_expressions(code) {
        out.push(format!("slice index `{snippet}`"));
    }
    // Integer division/modulo with a non-literal divisor.
    for (op, tok) in nonliteral_divisions(code) {
        out.push(format!("integer `{op}` by non-literal `{tok}`"));
    }
    // Length-panicking slice methods.
    for pat in COPY_FAMILY {
        if code.contains(pat) {
            let name = pat.trim_start_matches('.').trim_end_matches('(');
            out.push(format!("length-panicking `{name}`"));
        }
    }
    out
}

/// Indexing expressions `recv[expr]` whose index is not a pure integer
/// literal. Attributes (`#[...]`), array types/literals and slice
/// patterns do not match: the `[` must directly follow an identifier
/// character, `)` or `]`.
fn index_expressions(code: &str) -> Vec<String> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'[' {
            i += 1;
            continue;
        }
        let prev = if i == 0 { ' ' } else { bytes[i - 1] as char };
        let is_index = prev.is_alphanumeric() || prev == '_' || prev == ')' || prev == ']';
        if !is_index {
            i += 1;
            continue;
        }
        // Matching close bracket on this line, if any.
        let mut depth = 1;
        let mut j = i + 1;
        while j < bytes.len() && depth > 0 {
            match bytes[j] {
                b'[' => depth += 1,
                b']' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        let content = if depth == 0 {
            &code[i + 1..j - 1]
        } else {
            // Index expression continues on the next line; treat the
            // visible part as the content (conservatively a hit).
            &code[i + 1..]
        };
        if content.chars().any(|c| c.is_alphabetic()) || depth != 0 {
            // Receiver snippet: walk back over the receiver expression.
            let mut s = i;
            while s > 0 {
                let c = bytes[s - 1] as char;
                if c.is_alphanumeric() || c == '_' || c == '.' {
                    s -= 1;
                } else {
                    break;
                }
            }
            let end = if depth == 0 { j } else { bytes.len() };
            let mut snippet: String = code[s..end].to_string();
            if snippet.len() > 48 {
                snippet.truncate(45);
                snippet.push_str("...");
            }
            out.push(snippet);
        }
        i += 1;
    }
    out
}

/// `/` and `%` operators whose divisor token is neither an integer
/// literal nor an ALL_CAPS constant. Lines mentioning `f64`/`f32` are
/// skipped wholesale: float division is total.
fn nonliteral_divisions(code: &str) -> Vec<(char, String)> {
    if code.contains("f64") || code.contains("f32") {
        return Vec::new();
    }
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        let op = b as char;
        if op != '/' && op != '%' {
            continue;
        }
        // `/=` compound assignment: divisor starts after the `=`.
        let mut j = i + 1;
        if j < bytes.len() && bytes[j] == b'=' {
            j += 1;
        }
        while j < bytes.len() && (bytes[j] as char).is_whitespace() {
            j += 1;
        }
        if j >= bytes.len() {
            continue;
        }
        let c = bytes[j] as char;
        if c.is_ascii_digit() {
            continue; // literal divisor
        }
        if !(c.is_alphabetic() || c == '_' || c == '(') {
            continue; // not an expression start (e.g. closing bracket)
        }
        // Identifier divisor: ALL_CAPS consts are named, audited values.
        if c.is_alphabetic() || c == '_' {
            let mut k = j;
            while k < bytes.len() {
                let ch = bytes[k] as char;
                if ch.is_alphanumeric() || ch == '_' {
                    k += 1;
                } else {
                    break;
                }
            }
            let tok = &code[j..k];
            let all_caps = tok.chars().any(|c| c.is_uppercase())
                && tok
                    .chars()
                    .all(|c| c.is_uppercase() || c.is_numeric() || c == '_');
            if all_caps {
                continue;
            }
            out.push((op, tok.to_string()));
        } else {
            let mut tok = code[j..].to_string();
            if tok.len() > 24 {
                tok.truncate(21);
                tok.push_str("...");
            }
            out.push((op, tok));
        }
    }
    out
}

/// L7 — unchecked `+`/`*`/`+=`/`*=` on weight-domain values inside one
/// function body.
fn check_weight_arith(
    ctx: &FileContext,
    lexed: &Lexed,
    body: (usize, usize),
    out: &mut Vec<Diagnostic>,
) {
    // First sweep: idents bound from weight sources.
    let mut tracked: BTreeSet<String> = BTreeSet::new();
    let hi = body.1.min(lexed.lines.len().saturating_sub(1));
    for line in &lexed.lines[body.0..=hi] {
        let code = &line.code;
        if !WEIGHT_SOURCES.iter().any(|s| code.contains(s)) {
            continue;
        }
        if let Some(pos) = code.find("let ") {
            let rest = &code[pos + 4..];
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            let ident: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !ident.is_empty()
                && code[pos..].contains('=')
                && WEIGHT_SOURCES
                    .iter()
                    .any(|s| code[pos..].find(s) > code[pos..].find('='))
            {
                tracked.insert(ident);
            }
        }
    }
    // Second sweep: arithmetic adjacency.
    for (line_no, line) in lexed.lines.iter().enumerate().take(hi + 1).skip(body.0) {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        if allowed(lexed, line_no, Rule::CheckedArith) {
            continue;
        }
        // (a) a weight-source call directly in a +/* expression.
        for src in WEIGHT_SOURCES {
            for pos in find_all(code, src) {
                if arith_adjacent(code, pos, pos + src.len()) {
                    push_v2(
                        ctx,
                        out,
                        line_no + 1,
                        Rule::CheckedArith,
                        format!(
                            "unchecked arithmetic on weight-domain value `{}..`; \
                             use checked_*/saturating_*",
                            src.trim_start_matches('.')
                        ),
                        Vec::new(),
                    );
                    break;
                }
            }
        }
        // (b) tracked idents adjacent to +/*.
        for ident in &tracked {
            for pos in find_word(code, ident) {
                if arith_adjacent(code, pos, pos + ident.len()) {
                    push_v2(
                        ctx,
                        out,
                        line_no + 1,
                        Rule::CheckedArith,
                        format!(
                            "unchecked arithmetic on weight-domain value `{ident}`; \
                             use checked_*/saturating_*"
                        ),
                        Vec::new(),
                    );
                    break;
                }
            }
        }
    }
}

/// `true` when the span `[start, end)` of `code` has a `+`/`*` operator
/// directly before or after it (skipping whitespace), including the
/// compound forms `+=`/`*=`. A `*` only counts with whitespace on both
/// sides (dereferences bind tight: `*x`).
fn arith_adjacent(code: &str, start: usize, end: usize) -> bool {
    let bytes = code.as_bytes();
    // Look left.
    let mut i = start;
    while i > 0 && (bytes[i - 1] as char).is_whitespace() {
        i -= 1;
    }
    if i > 0 {
        let c = bytes[i - 1] as char;
        if c == '+' {
            return true;
        }
        if c == '=' && i > 1 && matches!(bytes[i - 2] as char, '+' | '*') {
            return true;
        }
        if c == '*' && i >= 1 && i < start {
            // whitespace followed the `*` → binary multiply
            return true;
        }
    }
    // For a call source, `end` points just past the `(`; jump to the
    // matching close paren before looking right.
    let mut e = end;
    if end > 0 && bytes.get(end - 1) == Some(&b'(') {
        let mut depth = 1;
        while e < bytes.len() && depth > 0 {
            match bytes[e] {
                b'(' => depth += 1,
                b')' => depth -= 1,
                _ => {}
            }
            e += 1;
        }
        if depth != 0 {
            return false; // call spans lines; cannot judge
        }
    }
    let mut j = e;
    while j < bytes.len() && (bytes[j] as char).is_whitespace() {
        j += 1;
    }
    if j < bytes.len() {
        let c = bytes[j] as char;
        if c == '+' || c == '*' {
            // `+=`/`*=` also start with the operator char; `*` followed
            // by an ident char with no space is a deref further right —
            // but after a complete operand a bare `*` is multiply.
            // Exclude `**`? Not valid Rust after an operand.
            if c == '*' && j == e {
                // no whitespace between operand and `*`: `)*` is still
                // multiplication in Rust (deref cannot follow an
                // operand), accept it.
                return true;
            }
            return true;
        }
    }
    false
}

/// Byte offsets of every occurrence of `pat` in `hay`.
fn find_all(hay: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(off) = hay[from..].find(pat) {
        out.push(from + off);
        from += off + pat.len();
    }
    out
}

/// Byte offsets of `ident` occurrences at word boundaries.
fn find_word(hay: &str, ident: &str) -> Vec<usize> {
    let bytes = hay.as_bytes();
    find_all(hay, ident)
        .into_iter()
        .filter(|&at| {
            let pre_ok = at == 0 || {
                let c = bytes[at - 1] as char;
                !c.is_alphanumeric() && c != '_' && c != '.'
            };
            let end = at + ident.len();
            let post_ok = end >= bytes.len() || {
                let c = bytes[end] as char;
                !c.is_alphanumeric() && c != '_'
            };
            pre_ok && post_ok
        })
        .collect()
}

/// One live lock guard in the L8 scan.
struct LiveGuard {
    name: String,
    /// Brace depth at the binding site; the guard dies when the scan
    /// drops below it.
    depth: i32,
    /// `true` for `StripeCache`/`ShardedMemo` shard guards.
    is_shard: bool,
    line: usize,
}

/// L8 — lexical lock-scope tracking across one function body.
fn check_lock_discipline(
    ctx: &FileContext,
    lexed: &Lexed,
    body: (usize, usize),
    out: &mut Vec<Diagnostic>,
) {
    let hi = body.1.min(lexed.lines.len().saturating_sub(1));
    let mut depth: i32 = 0;
    let mut live: Vec<LiveGuard> = Vec::new();
    for line_no in body.0..=hi {
        let line = &lexed.lines[line_no];
        let code = &line.code;
        if line.in_test {
            continue;
        }
        // Guard deaths by explicit drop.
        if code.contains("drop(") {
            live.retain(|g| !code.contains(&format!("drop({})", g.name)));
        }
        let acquires = lock_acquire(code);
        if let Some(is_shard) = acquires {
            let shard_live = live.iter().find(|g| g.is_shard);
            if is_shard && shard_live.is_some() && !allowed(lexed, line_no, Rule::LockDiscipline) {
                let first = shard_live.map(|g| g.line).unwrap_or(0);
                push_v2(
                    ctx,
                    out,
                    line_no + 1,
                    Rule::LockDiscipline,
                    format!(
                        "second shard guard acquired while the guard from line {first} \
                         is still live; shard locks must not nest"
                    ),
                    Vec::new(),
                );
            }
            // Track only `let`-bound guards; temporaries die within the
            // statement.
            if let Some(name) = let_binding_name(code) {
                live.push(LiveGuard {
                    name,
                    depth,
                    is_shard,
                    line: line_no + 1,
                });
            }
        }
        // Join boundaries under a live guard.
        if !live.is_empty() {
            let crosses = FANOUT_CALLS.iter().any(|p| code.contains(p))
                || (ctx.crate_name == "parallel"
                    && (code.contains(".spawn(") || code.contains("thread::scope(")));
            if crosses && !allowed(lexed, line_no, Rule::LockDiscipline) {
                let names: Vec<&str> = live.iter().map(|g| g.name.as_str()).collect();
                push_v2(
                    ctx,
                    out,
                    line_no + 1,
                    Rule::LockDiscipline,
                    format!(
                        "lock guard(s) `{}` held across a crates/parallel join boundary",
                        names.join("`, `")
                    ),
                    Vec::new(),
                );
            }
        }
        // Brace depth and scope-based guard death.
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    live.retain(|g| g.depth < depth + 1 && g.depth <= depth);
                }
                _ => {}
            }
        }
    }
}

/// Classifies a lock acquisition on this line: `Some(true)` for a
/// shard-map guard (`StripeCache`/`ShardedMemo` internals), `Some(false)`
/// for any other mutex guard, `None` for no acquisition.
fn lock_acquire(code: &str) -> Option<bool> {
    let has_lock = code.contains(".lock()") || code.contains("::lock(");
    if !has_lock {
        return None;
    }
    let shardish = code.contains("shard") || code.contains("Shard") || code.contains("Self::lock(");
    Some(shardish)
}

/// The identifier bound by a `let [mut] name = ...` on this line.
fn let_binding_name(code: &str) -> Option<String> {
    let pos = code.find("let ")?;
    let rest = &code[pos + 4..];
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let ident: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!ident.is_empty() && rest[ident.len()..].trim_start().starts_with(['=', ':'])).then_some(ident)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(krate: &str, path: &str) -> FileContext {
        FileContext {
            crate_name: krate.into(),
            rel_path: path.into(),
            is_library: true,
            declared_features: BTreeSet::new(),
            is_shim: false,
        }
    }

    fn run_one(krate: &str, path: &str, src: &str) -> AnalysisReport {
        analyze_files(&[(ctx(krate, path), src.to_string())])
    }

    #[test]
    fn direct_index_flagged_and_literal_skipped() {
        let r = run_one(
            "core",
            "crates/core/src/x.rs",
            "pub fn f(xs: &[u64], i: usize) -> u64 {\n    let pair = (xs[0], xs[i]);\n    pair.1\n}\n",
        );
        // Only `xs[i]` (non-literal) is flagged.
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(r.diagnostics[0].rule, Rule::PanicReach);
        assert!(r.diagnostics[0].message.contains("xs[i]"));
    }

    #[test]
    fn transitive_chain_reported_at_call_site() {
        let src = "fn leaf(xs: &[u64], i: usize) -> u64 {\n    xs[i]\n}\npub fn mid(xs: &[u64]) -> u64 {\n    leaf(xs, 1)\n}\npub fn top(xs: &[u64]) -> u64 {\n    mid(xs)\n}\n";
        let r = run_one("core", "crates/core/src/y.rs", src);
        let transitive: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.message.contains("can reach a panic"))
            .collect();
        assert_eq!(transitive.len(), 2, "{:?}", r.diagnostics);
        let top = transitive
            .iter()
            .find(|d| d.line == 8)
            .expect("top call site");
        assert!(
            top.message.contains("core::mid -> core::leaf"),
            "{}",
            top.message
        );
        assert!(top.message.contains("root: slice index `xs[i]`"));
        assert_eq!(top.chain.len(), 2);
    }

    #[test]
    fn waiver_seals_source_and_stops_propagation() {
        let src = "fn leaf(xs: &[u64], i: usize) -> u64 {\n    // lint:allow(panic-reach) -- test: i is caller-bounded\n    xs[i]\n}\npub fn mid(xs: &[u64]) -> u64 {\n    leaf(xs, 1)\n}\n";
        let r = run_one("core", "crates/core/src/z.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn division_by_runtime_value_flagged() {
        let src = "pub fn f(total: u64, m: u64, n: u64) -> u64 {\n    let a = total / 2;\n    let b = total / SHARDS_N;\n    a + b + total % m + n\n}\nconst SHARDS_N: u64 = 4;\n";
        let r = run_one("core", "crates/core/src/d.rs", src);
        assert_eq!(r.diagnostics.len(), 1, "{:?}", r.diagnostics);
        assert!(r.diagnostics[0].message.contains('%'));
        assert!(r.diagnostics[0].message.contains('m'));
    }

    #[test]
    fn copy_family_flagged() {
        let src = "pub fn f(a: &mut [u64], b: &[u64], k: usize) {\n    a.copy_from_slice(b);\n    let _ = b.split_at(k);\n}\n";
        let r = run_one("core", "crates/core/src/c.rs", src);
        assert_eq!(r.diagnostics.len(), 2, "{:?}", r.diagnostics);
    }

    #[test]
    fn non_panic_free_crate_is_quiet() {
        let r = run_one(
            "cli",
            "crates/cli/src/main.rs",
            "pub fn f(xs: &[u64], i: usize) -> u64 {\n    xs[i]\n}\n",
        );
        assert!(r.diagnostics.is_empty());
    }

    #[test]
    fn l7_tracked_weight_arithmetic() {
        let src = "pub fn f(g: &PrefixSum2D) -> u64 {\n    let w = g.load(0, 1, 0, 1);\n    let x = w + 1;\n    x\n}\n";
        let r = run_one("core", "crates/core/src/w.rs", src);
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.rule == Rule::CheckedArith && d.message.contains("`w`")),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn l7_direct_source_arithmetic_and_checked_is_quiet() {
        let src = "pub fn f(g: &PrefixSum2D) -> Option<u64> {\n    let bad = g.load(0, 1, 0, 1) + g.load(1, 2, 0, 1);\n    g.load(0, 1, 0, 1).checked_add(bad)\n}\n";
        let r = run_one("core", "crates/core/src/v.rs", src);
        let l7: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::CheckedArith)
            .collect();
        assert_eq!(l7.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(l7[0].line, 2);
    }

    #[test]
    fn l8_two_shard_guards() {
        let src = "pub fn f(&self, a: &K, b: &K) {\n    let ga = Self::lock(self.shard(a));\n    let gb = Self::lock(self.shard(b));\n    drop((ga, gb));\n}\n";
        let r = run_one("core", "crates/core/src/l.rs", src);
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.rule == Rule::LockDiscipline && d.line == 3),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn l8_guard_across_join() {
        let src = "pub fn f(m: &std::sync::Mutex<u32>) {\n    let g = m.lock().unwrap_or_else(|e| e.into_inner());\n    let _ = rectpart_parallel::map_range(4, |i| i);\n    drop(g);\n}\n";
        let r = run_one("obs", "crates/obs/src/l.rs", src);
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.rule == Rule::LockDiscipline && d.line == 3),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn l8_scoped_guard_dies_before_join() {
        let src = "pub fn f(m: &std::sync::Mutex<u32>) {\n    {\n        let g = m.lock().unwrap_or_else(|e| e.into_inner());\n        drop(g);\n    }\n    let _ = rectpart_parallel::map_range(4, |i| i);\n}\n";
        let r = run_one("obs", "crates/obs/src/m.rs", src);
        assert!(
            !r.diagnostics.iter().any(|d| d.rule == Rule::LockDiscipline),
            "{:?}",
            r.diagnostics
        );
    }
}
