//! The project rules. Each rule takes a `SourceFile` and emits
//! findings; scoping (which paths a rule applies to) lives here so
//! RULES.md and the code stay side by side.

use crate::source::{find_word, is_ident_char, match_brace, SourceFile};
use crate::Finding;

/// Static description of one rule, surfaced in `--help`-style listings
/// and the JSON report.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
}

pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: L1,
        summary: "simulation crates must not read wall clocks directly; \
                  use the injectable pdnn_util::timing::Clock",
    },
    RuleInfo {
        id: L2,
        summary: "trace/figure/report emission paths must not use \
                  HashMap/HashSet (nondeterministic iteration order)",
    },
    RuleInfo {
        id: L3,
        summary: "no unwrap()/expect()/panic! in non-test library code; \
                  return pdnn_util::Error",
    },
    RuleInfo {
        id: L4,
        summary: "no ==/!= on floating-point values outside the approved \
                  helpers in pdnn_util::float",
    },
    RuleInfo {
        id: L5,
        summary: "public phase-level functions must open a pdnn-obs \
                  Recorder span (directly or via a same-file callee)",
    },
    RuleInfo {
        id: L6,
        summary: "no bare `as` numeric casts in cycle/byte accounting \
                  paths; use try_into or pdnn_util::cast helpers",
    },
    RuleInfo {
        id: L7,
        summary: "`unsafe` is confined to the per-ISA `mem` modules of \
                  the GEMM kernels and the token-guarded kernel dispatch \
                  in gemm/dispatch.rs; everywhere else needs a reasoned \
                  suppression",
    },
    RuleInfo {
        id: L8,
        summary: "every receive in the distributed protocol must use the \
                  timed variant so a dead peer cannot block recovery; \
                  intentional blocking waits need a reasoned suppression",
    },
    RuleInfo {
        id: L9,
        summary: "an ISA token value (`Avx2(())`, `Avx512(())`, `Fma(())`, \
                  `Neon(())`, a token's `remake()`) is made only inside \
                  `isa_token!` and the entry macros of gemm/dispatch.rs; \
                  a kernel table is built from a token `detect` made",
    },
];

const L1: &str = "l1-sim-wall-clock";
const L2: &str = "l2-iteration-order";
const L3: &str = "l3-no-unwrap";
const L4: &str = "l4-float-exact-compare";
const L5: &str = "l5-phase-span";
const L6: &str = "l6-lossy-cast";
const L7: &str = "l7-unsafe-outside-kernel";
const L8: &str = "l8-timed-recv";
const L9: &str = "l9-isa-token-origin";

/// Rule ids owned by `pdnn-protomc`, the explicit-state model checker:
/// global protocol properties proved by exhaustive exploration of the
/// abstract state machines, not by lexical analysis. Registered here
/// so the shared suppression machinery accepts them; protomc emits
/// findings under these ids when a property fails.
const PROTOMC_RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "p5-deadlock-free",
        summary: "no reachable global protocol state leaves a live rank \
                  blocked forever, for any interleaving and any single \
                  injected failure",
    },
    RuleInfo {
        id: "p6-no-lost-message",
        summary: "at every terminal protocol state, every abstract send \
                  was consumed or explicitly dropped by a dead-rank mark",
    },
    RuleInfo {
        id: "p7-recovery-termination",
        summary: "from any single-fault state the protocol reaches \
                  training-resumed (or a clean no-survivors abort)",
    },
];

/// Is `id` a rule id the suppression parser should accept?
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id) || PROTOMC_RULES.iter().any(|r| r.id == id)
}

/// Crates whose behaviour (and telemetry) must be a pure function of
/// their inputs: the simulated machine, the trainer that runs on it,
/// the performance model, and the telemetry layer itself.
const SIM_CRATE_PREFIXES: &[&str] = &[
    "crates/mpisim/src/",
    "crates/perfmodel/src/",
    "crates/core/src/",
    "crates/obs/src/",
];

/// Files that serialize traces, figures, or reports — anywhere output
/// ordering leaks into bytes on disk.
const EMISSION_PATHS: &[&str] = &[
    "crates/obs/src/",
    "crates/perfmodel/src/figures.rs",
    "crates/util/src/report.rs",
    "crates/perfmodel/src/bgq/counters.rs",
];

/// Modules whose public functions are training phases in the paper's
/// sense (Fig. 4–5 breakdown): they must be visible in telemetry.
const PHASE_MODULES: &[&str] = &[
    "crates/core/src/optimizer.rs",
    "crates/core/src/cg.rs",
    "crates/core/src/distributed.rs",
    "crates/mpisim/src/collectives.rs",
];

/// A phase function shorter than this is an accessor/adapter, not a
/// phase; L5 skips it.
const PHASE_MIN_BODY_LINES: usize = 10;

/// Cycle/byte accounting paths where a silently-lossy `as` cast skews
/// the performance model: the BG/Q machine model, the analytic
/// perf-model crate, and the simulator's virtual-time layer.
const ACCOUNTING_PATHS: &[&str] = &["crates/perfmodel/src/", "crates/mpisim/src/vtime.rs"];

pub(crate) fn run_all(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    l1_sim_wall_clock(file, &mut out);
    l2_iteration_order(file, &mut out);
    l3_no_unwrap(file, &mut out);
    l4_float_exact_compare(file, &mut out);
    l5_phase_span(file, &mut out);
    l6_lossy_cast(file, &mut out);
    l7_unsafe_outside_kernel(file, &mut out);
    l8_timed_recv(file, &mut out);
    l9_isa_token_origin(file, &mut out);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

fn in_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes
        .iter()
        .any(|p| path.starts_with(p) || path == p.trim_end_matches('/'))
}

/// Flag every whole-word occurrence of `word` in non-test code.
fn flag_word(file: &SourceFile, word: &str, rule: &'static str, msg: &str, out: &mut Vec<Finding>) {
    let mut from = 0;
    while let Some(pos) = find_word(&file.masked, word, from) {
        from = pos + word.len();
        let line = file.line_of(pos);
        if file.test_lines.get(line).copied().unwrap_or(false) {
            continue;
        }
        out.push(Finding::new(file, rule, pos, msg.to_string()));
    }
}

fn l1_sim_wall_clock(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_any(&file.path, SIM_CRATE_PREFIXES) {
        return;
    }
    for (word, what) in [
        ("Instant", "std::time::Instant"),
        ("SystemTime", "std::time::SystemTime"),
    ] {
        flag_word(
            file,
            word,
            L1,
            &format!(
                "`{what}` read in a simulation crate; route wall-clock access \
                 through an injected `pdnn_util::timing::Clock`"
            ),
            out,
        );
    }
}

fn l2_iteration_order(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_any(&file.path, EMISSION_PATHS) {
        return;
    }
    for word in ["HashMap", "HashSet"] {
        flag_word(
            file,
            word,
            L2,
            &format!(
                "`{word}` in a trace/report emission path; iteration order is \
                 nondeterministic — use `BTreeMap`/`BTreeSet` or sort before emitting"
            ),
            out,
        );
    }
}

/// Paths L3 skips: binaries, benches, and the linter's fixture corpus.
fn l3_applies(path: &str) -> bool {
    let lib_code = path.starts_with("crates/") && path.contains("/src/") || path == "src/lib.rs";
    lib_code && !path.contains("/src/bin/") && !path.ends_with("/main.rs")
}

fn l3_no_unwrap(file: &SourceFile, out: &mut Vec<Finding>) {
    if !l3_applies(&file.path) {
        return;
    }
    let b = file.masked.as_bytes();
    let mut emit = |pos: usize, msg: String| {
        let line = file.line_of(pos);
        if !file.test_lines.get(line).copied().unwrap_or(false) {
            out.push(Finding::new(file, L3, pos, msg));
        }
    };
    let mut from = 0;
    while let Some(pos) = find_word(&file.masked, "unwrap", from) {
        from = pos + 6;
        // Only the method call `.unwrap()` — `unwrap_or*` and fn names
        // like `unwrap` in paths are matched by the word search; require
        // a leading dot and a following `(`.
        let is_method = pos > 0 && b[pos - 1] == b'.';
        let called = file.masked[pos + 6..].trim_start().starts_with('(');
        if is_method && called {
            emit(pos, "`.unwrap()` in library code; propagate a `pdnn_util::Error` (or suppress with a reason if genuinely infallible)".into());
        }
    }
    from = 0;
    while let Some(pos) = find_word(&file.masked, "expect", from) {
        from = pos + 6;
        let is_method = pos > 0 && b[pos - 1] == b'.';
        let called = file.masked[pos + 6..].trim_start().starts_with('(');
        if is_method && called {
            emit(pos, "`.expect()` in library code; propagate a `pdnn_util::Error` (or suppress with a reason if genuinely infallible)".into());
        }
    }
    from = 0;
    while let Some(pos) = find_word(&file.masked, "panic", from) {
        from = pos + 5;
        if file.masked[pos + 5..].starts_with('!') {
            // `assert!`/`debug_assert!` stay allowed; this is the bare
            // macro only. `#[should_panic]` lives in test regions.
            emit(pos, "`panic!` in library code; return a `pdnn_util::Error` (asserts for contract violations are fine)".into());
        }
    }
}

/// Does the token ending at `end` (exclusive) or starting at `start`
/// look like a floating-point operand?
fn floatish(tok: &str) -> bool {
    if tok.is_empty() {
        return false;
    }
    // Float literal: `0.0`, `1e-9`, `0f64`, `2.5_f32`.
    let lit = tok.as_bytes()[0].is_ascii_digit()
        && (tok.contains('.')
            || tok.ends_with("f32")
            || tok.ends_with("f64")
            || tok.contains('e') && !tok.contains("0x"));
    // Well-known float-valued constants in generic numeric code.
    let const_like = tok.ends_with("::ZERO")
        || tok.ends_with("::ONE")
        || tok.ends_with("EPSILON")
        || tok.ends_with("NAN")
        || tok.ends_with("INFINITY");
    lit || const_like
}

/// The operand token immediately left of byte `pos` (exclusive).
fn operand_left(masked: &str, pos: usize) -> &str {
    let b = masked.as_bytes();
    let mut i = pos;
    while i > 0 && (b[i - 1] as char).is_whitespace() && b[i - 1] != b'\n' {
        i -= 1;
    }
    let end = i;
    while i > 0 && (is_ident_char(b[i - 1] as char) || b[i - 1] == b'.' || b[i - 1] == b':') {
        i -= 1;
    }
    &masked[i..end]
}

/// The operand token immediately right of byte `pos`.
fn operand_right(masked: &str, pos: usize) -> &str {
    let b = masked.as_bytes();
    let mut i = pos;
    while i < b.len() && (b[i] as char).is_whitespace() && b[i] != b'\n' {
        i += 1;
    }
    let start = i;
    if i < b.len() && (b[i] == b'-' || b[i] == b'+') {
        i += 1;
    }
    while i < b.len() && (is_ident_char(b[i] as char) || b[i] == b'.' || b[i] == b':') {
        i += 1;
    }
    &masked[start..i]
}

fn l4_float_exact_compare(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.path.ends_with(".rs") {
        return;
    }
    let b = file.masked.as_bytes();
    let mut i = 0;
    while i + 1 < b.len() {
        let two = &file.masked[i..i + 2];
        if two != "==" && two != "!=" {
            i += 1;
            continue;
        }
        // Skip `===`-like runs, `<=`, `>=`, `=>`, and pattern `..=`.
        let prev = if i > 0 { b[i - 1] } else { b' ' };
        let next = b.get(i + 2).copied().unwrap_or(b' ');
        if prev == b'='
            || prev == b'<'
            || prev == b'>'
            || prev == b'!'
            || next == b'='
            || next == b'>'
        {
            i += 2;
            continue;
        }
        let line = file.line_of(i);
        if file.test_lines.get(line).copied().unwrap_or(false) {
            i += 2;
            continue;
        }
        let lhs = operand_left(&file.masked, i);
        let rhs = operand_right(&file.masked, i + 2);
        let rhs_f = floatish(rhs.trim_start_matches(['-', '+']));
        if floatish(lhs) || rhs_f {
            out.push(Finding::new(
                file,
                L4,
                i,
                format!(
                    "exact float comparison `{} {} {}`; compare within a tolerance, or use `pdnn_util::float::exactly_zero` for an intended exact test",
                    if lhs.is_empty() { "_" } else { lhs },
                    two,
                    if rhs.is_empty() { "_" } else { rhs },
                ),
            ));
        }
        i += 2;
    }
}

/// The numeric type tokens an `as` cast can target; `as` followed by
/// anything else (`as &str`, `as dyn Trait`, `as Payload`) is not a
/// numeric cast and is out of scope for L6.
const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

fn l6_lossy_cast(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_any(&file.path, ACCOUNTING_PATHS) {
        return;
    }
    let mut from = 0;
    while let Some(pos) = find_word(&file.masked, "as", from) {
        from = pos + 2;
        let line = file.line_of(pos);
        if file.test_lines.get(line).copied().unwrap_or(false) {
            continue;
        }
        let target = operand_right(&file.masked, pos + 2);
        let Some(ty) = NUMERIC_TYPES.iter().find(|t| **t == target) else {
            continue;
        };
        out.push(Finding::new(
            file,
            L6,
            pos,
            format!(
                "bare `as {ty}` cast in an accounting path; use `try_into()` or a \
                 `pdnn_util::cast` checked helper (or suppress with the reason the \
                 value provably fits)"
            ),
        ));
    }
}

/// Is `path` one of the files allowed to contain `unsafe`: a per-ISA
/// `mem` module of the SIMD kernels (whole-register and masked loads
/// and stores, `crates/tensor/src/gemm/kernel/**/mem*.rs`), or the
/// dispatch (the ISA tokens and the kernel tables), whose one `unsafe`
/// call per kernel entry is nested in a constructor that took the ISA
/// token detection made?
fn unsafe_allowed(path: &str) -> bool {
    const KERNEL: &str = "crates/tensor/src/gemm/kernel/";
    const DISPATCH: &str = "crates/tensor/src/gemm/dispatch.rs";
    let in_mem = path.strip_prefix(KERNEL).is_some_and(|rest| {
        let file = rest.rsplit('/').next().unwrap_or(rest);
        file.starts_with("mem")
    });
    in_mem || path == DISPATCH
}

fn l7_unsafe_outside_kernel(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.path.ends_with(".rs") || unsafe_allowed(&file.path) {
        return;
    }
    flag_word(
        file,
        "unsafe",
        L7,
        "`unsafe` outside the kernels' `mem` modules \
         (crates/tensor/src/gemm/kernel/**/mem*.rs) and the dispatch \
         (crates/tensor/src/gemm/dispatch.rs); use a safe \
         `#[target_feature]` fn over slices, or suppress with the reason \
         the block is unavoidable and sound",
        out,
    );
}

/// Tokens whose presence in a body mean "this function is visible in
/// telemetry".
fn body_opens_span(body: &str) -> bool {
    let mut from = 0;
    while let Some(p) = find_word(body, "span", from) {
        from = p + 4;
        // `.span(` or `recorder.span(` — a call, not the word in an
        // identifier like `span_kind` (word search excludes those).
        if body[p + 4..].trim_start().starts_with('(') {
            return true;
        }
    }
    find_word(body, "with_collective", 0).is_some()
}

/// Names called as `ident(` inside a body.
fn called_names(body: &str) -> Vec<String> {
    let b = body.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if is_ident_char(b[i] as char) {
            let start = i;
            while i < b.len() && is_ident_char(b[i] as char) {
                i += 1;
            }
            let mut j = i;
            while j < b.len() && (b[j] as char).is_whitespace() {
                j += 1;
            }
            // `name(` or `name::<T>(`.
            if b.get(j) == Some(&b'(') || body[j..].starts_with("::<") {
                out.push(body[start..i].to_string());
            }
        } else {
            i += 1;
        }
    }
    out
}

fn l5_phase_span(file: &SourceFile, out: &mut Vec<Finding>) {
    if !PHASE_MODULES.contains(&file.path.as_str()) {
        return;
    }
    let fns = file.functions();
    // Same-file call graph: does fn `name` (transitively) open a span?
    let bodies: std::collections::BTreeMap<&str, &str> = fns
        .iter()
        .filter_map(|f| f.body.clone().map(|r| (f.name.as_str(), &file.masked[r])))
        .collect();
    fn reaches_span(
        name: &str,
        bodies: &std::collections::BTreeMap<&str, &str>,
        seen: &mut Vec<String>,
    ) -> bool {
        if seen.iter().any(|s| s == name) {
            return false;
        }
        seen.push(name.to_string());
        let Some(body) = bodies.get(name) else {
            return false;
        };
        if body_opens_span(body) {
            return true;
        }
        called_names(body)
            .iter()
            .any(|callee| reaches_span(callee, bodies, seen))
    }
    for f in &fns {
        if !f.is_pub || file.test_lines.get(f.line).copied().unwrap_or(false) {
            continue;
        }
        let Some(range) = f.body.clone() else {
            continue;
        };
        let body = &file.masked[range.clone()];
        let body_lines = body.lines().count();
        if body_lines < PHASE_MIN_BODY_LINES {
            continue;
        }
        let mut seen = Vec::new();
        if !reaches_span(&f.name, &bodies, &mut seen) {
            // Anchor the finding at the `fn` keyword line.
            let pos = range.start;
            let offset = file
                .masked
                .lines()
                .take(f.line)
                .map(|l| l.len() + 1)
                .sum::<usize>();
            let _ = pos;
            out.push(Finding::new(
                file,
                L5,
                offset,
                format!(
                    "public phase function `{}` ({} body lines) never opens a \
                     pdnn-obs Recorder span; phases must be visible in telemetry",
                    f.name, body_lines
                ),
            ));
        }
    }
}

/// The protocol file L8 governs: PR 5 made timed receives the
/// convention in the recovery path; this rule makes it checkable.
const TIMED_RECV_PATH: &str = "crates/core/src/distributed.rs";

fn l8_timed_recv(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.path != TIMED_RECV_PATH {
        return;
    }
    let b = file.masked.as_bytes();
    for word in ["recv", "recv_vec"] {
        let mut from = 0;
        while let Some(pos) = find_word(&file.masked, word, from) {
            from = pos + word.len();
            let line = file.line_of(pos);
            if file.test_lines.get(line).copied().unwrap_or(false) {
                continue;
            }
            // Only method calls `.recv(` / `.recv_vec(`, including the
            // turbofish form `.recv_vec::<T>(`. The timed variants are
            // distinct words (`recv_timeout`, `recv_vec_timeout`) so
            // the word search never matches them here.
            let is_method = pos > 0 && b[pos - 1] == b'.';
            let rest = &file.masked[pos + word.len()..];
            let called = rest.trim_start().starts_with('(') || rest.starts_with("::<");
            if is_method && called {
                out.push(Finding::new(
                    file,
                    L8,
                    pos,
                    format!(
                        "blocking `.{word}()` in the distributed protocol; use \
                         `.{word}_timeout()` with `comm.p2p_timeout()` so a dead \
                         peer cannot block recovery (or suppress with the reason \
                         the blocking wait is intentional)"
                    ),
                ));
            }
        }
    }
}

/// The file whose macros alone may make an ISA token value.
const DISPATCH_PATH: &str = "crates/tensor/src/gemm/dispatch.rs";

/// The ISA token types of `gemm/dispatch.rs`.
const ISA_TOKENS: &[&str] = &["Avx2", "Avx512", "Fma", "Neon"];

/// Byte ranges of the bodies of the `macro_rules!` definitions in the
/// masked text that may make an ISA token: `isa_token!` and the
/// `*_entry!` macros.
fn token_macro_bodies(masked: &str) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = find_word(masked, "macro_rules", from) {
        from = pos + 1;
        let Some(rest) = masked[pos + "macro_rules".len()..]
            .trim_start()
            .strip_prefix('!')
        else {
            continue;
        };
        let rest = rest.trim_start();
        let name_len = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
        let name = &rest[..name_len];
        if name != "isa_token" && !name.ends_with("_entry") {
            continue;
        }
        let name_end = masked.len() - rest.len() + name_len;
        if let Some(open) = masked[name_end..].find('{').map(|o| name_end + o) {
            if let Some(close) = match_brace(masked, open) {
                out.push(open..close);
            }
        }
    }
    out
}

/// The identifier (with a leading `$` for a macro metavariable) that
/// ends just before byte `end`.
fn ident_before(masked: &str, end: usize) -> &str {
    let start = masked[..end]
        .rfind(|c: char| !is_ident_char(c))
        .map_or(0, |p| p + 1);
    let start = if masked[..start].ends_with('$') {
        start - 1
    } else {
        start
    };
    &masked[start..end]
}

/// A token made in place outside `isa_token!` and the `*_entry!`
/// macros would let a kernel table be built, and its kernels run, on a
/// CPU that `detect` never probed. Test code is not exempt: a test can
/// run on such a CPU too.
fn l9_isa_token_origin(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.path.ends_with(".rs") {
        return;
    }
    let masked = &file.masked;
    let allowed = if file.path == DISPATCH_PATH {
        token_macro_bodies(masked)
    } else {
        Vec::new()
    };
    let mut sites = Vec::new();
    for (pos, _) in masked.match_indices("(())") {
        let name = ident_before(masked, pos);
        if ISA_TOKENS.contains(&name) || name.starts_with('$') {
            sites.push(pos - name.len());
        }
    }
    for (pos, _) in masked.match_indices("::remake") {
        let name = ident_before(masked, pos);
        sites.push(pos - name.len());
    }
    sites.sort_unstable();
    for pos in sites {
        if !allowed.iter().any(|r| r.contains(&pos)) {
            out.push(Finding::new(
                file,
                L9,
                pos,
                "an ISA token made in place; a kernel table must be built \
                 from a token `detect` made (only `isa_token!` and the \
                 entry macros of crates/tensor/src/gemm/dispatch.rs make \
                 one)"
                    .to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_for(path: &str, src: &str) -> Vec<Finding> {
        run_all(&SourceFile::parse(path, src))
    }

    #[test]
    fn l1_flags_instant_in_sim_crate_only() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        let hits = findings_for("crates/mpisim/src/x.rs", src);
        assert_eq!(hits.iter().filter(|f| f.rule == L1).count(), 2);
        let none = findings_for("crates/speech/src/x.rs", src);
        assert!(none.iter().all(|f| f.rule != L1));
    }

    #[test]
    fn l1_ignores_test_code_and_strings() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let i = std::time::Instant::now(); }\n}\nfn f() { let s = \"Instant\"; }\n";
        let hits = findings_for("crates/perfmodel/src/x.rs", src);
        assert!(hits.iter().all(|f| f.rule != L1), "{hits:?}");
    }

    #[test]
    fn l2_flags_hashmap_in_emission_paths() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(findings_for("crates/obs/src/x.rs", src).len(), 1);
        assert_eq!(
            findings_for("crates/perfmodel/src/bgq/counters.rs", src).len(),
            1
        );
        assert!(findings_for("crates/perfmodel/src/bgq/torus.rs", src).is_empty());
    }

    #[test]
    fn l3_flags_unwrap_expect_panic_but_not_lookalikes() {
        let src = "\
fn f(v: Option<u32>) -> u32 {
    let a = v.unwrap();
    let b = v.expect(\"msg\");
    let c = v.unwrap_or(0);
    let d = v.unwrap_or_else(|| 0);
    if a == 0 { panic!(\"boom\"); }
    assert!(a > 0);
    a + b + c + d
}
";
        let hits = findings_for("crates/util/src/x.rs", src);
        let l3: Vec<_> = hits.iter().filter(|f| f.rule == L3).collect();
        assert_eq!(l3.len(), 3, "{l3:?}");
        assert_eq!(l3[0].line, 2);
        assert_eq!(l3[1].line, 3);
        assert_eq!(l3[2].line, 6);
    }

    #[test]
    fn l3_skips_tests_bins_and_non_library_paths() {
        let src = "fn f(v: Option<u32>) { v.unwrap(); }\n";
        assert!(findings_for("crates/util/src/bin/tool.rs", src).is_empty());
        assert!(findings_for("crates/util/benches/b.rs", src).is_empty());
        assert!(findings_for("crates/util/tests/t.rs", src).is_empty());
        assert_eq!(findings_for("crates/util/src/x.rs", src).len(), 1);
    }

    #[test]
    fn l4_flags_float_literal_and_const_compares() {
        let src = "\
fn f(x: f64, n: u32) -> bool {
    let a = x == 0.0;
    let b = x != 1e-9;
    let c = n == 0;
    let d = x <= 0.0;
    a && b && c && d
}
";
        let hits = findings_for("crates/core/src/x.rs", src);
        let l4: Vec<_> = hits.iter().filter(|f| f.rule == L4).collect();
        assert_eq!(l4.len(), 2, "{l4:?}");
        assert_eq!(l4[0].line, 2);
        assert_eq!(l4[1].line, 3);
    }

    #[test]
    fn l4_flags_generic_zero_one_constants() {
        let src = "fn f<T: PartialEq>(beta: T, zero: T) -> bool { beta == T::ZERO }\n"
            .replace("zero: T", "_z: T");
        let hits = findings_for("crates/tensor/src/x.rs", &src);
        assert_eq!(hits.iter().filter(|f| f.rule == L4).count(), 1);
    }

    #[test]
    fn l5_requires_span_in_long_public_phase_fns() {
        let body_filler = "    let x = 1;\n".repeat(12);
        let src = format!(
            "pub fn no_span() {{\n{body_filler}}}\n\n\
             pub fn has_span(rec: &dyn Recorder) {{\n    let _s = rec.span(\"p\", SpanKind::Scalar);\n{body_filler}}}\n\n\
             pub fn via_helper(rec: &dyn Recorder) {{\n    helper(rec);\n{body_filler}}}\n\n\
             fn helper(rec: &dyn Recorder) {{\n    let _s = rec.span(\"h\", SpanKind::Scalar);\n}}\n"
        );
        let hits = findings_for("crates/core/src/optimizer.rs", &src);
        let l5: Vec<_> = hits.iter().filter(|f| f.rule == L5).collect();
        assert_eq!(l5.len(), 1, "{l5:?}");
        assert!(l5[0].message.contains("no_span"));
    }

    #[test]
    fn l6_flags_numeric_casts_in_accounting_paths_only() {
        let src =
            "fn f(bytes: u64) -> f64 {\n    bytes as f64\n}\nfn g(x: f64) -> u64 { x as u64 }\n";
        let hits = findings_for("crates/perfmodel/src/bgq/torus.rs", src);
        assert_eq!(hits.iter().filter(|f| f.rule == L6).count(), 2, "{hits:?}");
        let hits = findings_for("crates/mpisim/src/vtime.rs", src);
        assert_eq!(hits.iter().filter(|f| f.rule == L6).count(), 2);
        // Out of scope: other mpisim modules, core, util.
        assert!(findings_for("crates/mpisim/src/comm.rs", src)
            .iter()
            .all(|f| f.rule != L6));
        assert!(findings_for("crates/util/src/cast.rs", src)
            .iter()
            .all(|f| f.rule != L6));
    }

    #[test]
    fn l6_ignores_non_numeric_casts_and_test_code() {
        let src = "fn f(p: &dyn Payload) { let _ = p as &dyn Payload; }\n\
                   #[cfg(test)]\nmod tests {\n    fn t(b: u64) -> f64 { b as f64 }\n}\n";
        let hits = findings_for("crates/perfmodel/src/model.rs", src);
        assert!(hits.iter().all(|f| f.rule != L6), "{hits:?}");
    }

    #[test]
    fn l7_confines_unsafe_to_mem_modules_and_the_dispatch() {
        let src = "fn f(p: *mut u8) { unsafe { p.write(0) } }\n";
        // Anywhere else: flagged, kernels included.
        for path in [
            "crates/core/src/x.rs",
            "src/bin/pdnn-train.rs",
            "crates/tensor/src/gemm/kernel/x86/mod.rs",
            "crates/tensor/src/gemm/kernel/scalar.rs",
            "crates/tensor/src/gemm/driver.rs",
            "crates/tensor/src/gemm/backend.rs",
            "crates/tensor/src/memo.rs",
        ] {
            let hits = findings_for(path, src);
            assert_eq!(hits.iter().filter(|f| f.rule == L7).count(), 1, "{path}");
        }
        // The per-ISA mem modules and the dispatch: allowed.
        for path in [
            "crates/tensor/src/gemm/kernel/x86/mem.rs",
            "crates/tensor/src/gemm/kernel/neon/mem.rs",
            "crates/tensor/src/gemm/dispatch.rs",
        ] {
            let hits = findings_for(path, src);
            assert!(hits.iter().all(|f| f.rule != L7), "{path}: {hits:?}");
        }
        // Test code and strings don't count.
        let masked = "#[cfg(test)]\nmod tests {\n    fn t(p: *mut u8) { unsafe { p.write(0) } }\n}\nfn f() { let s = \"unsafe\"; }\n";
        let hits = findings_for("crates/core/src/x.rs", masked);
        assert!(hits.iter().all(|f| f.rule != L7), "{hits:?}");
    }

    #[test]
    fn l9_flags_a_kernel_table_built_from_an_in_place_token() {
        let dispatch = "crates/tensor/src/gemm/dispatch.rs";
        // The tree's own shape: tokens made only inside `isa_token!`
        // and the entry macros.
        let ok = "mod token {\n    macro_rules! isa_token {\n        ($t:ident) => { pub fn detect() -> Option<$t> { Some($t(())) } unsafe fn remake() -> $t { $t(()) } };\n    }\n}\n\
                  macro_rules! tile_entry {\n    ($isa:ident, $k:path) => {{ fn entry() { unsafe { $k($isa::remake()) } } entry }};\n}\n\
                  fn avx2(t: Avx2) -> Kernels { Kernels::avx2(t) }\n";
        let hits = findings_for(dispatch, ok);
        assert!(hits.iter().all(|f| f.rule != L9), "{hits:?}");
        // A table built from an in-place token, by either spelling,
        // fails in dispatch.rs and anywhere else, test code included.
        let bad = [
            "fn table() -> Kernels { Kernels::avx2(unsafe { Avx2::remake() }) }\n",
            "fn table() -> Kernels { Kernels::scalar_fma(Fma(())) }\n",
            "#[cfg(test)]\nmod tests {\n    fn t() { let _ = Kernels::neon(Neon(())); }\n}\n",
            "macro_rules! helper {\n    () => { Avx512(()) };\n}\n",
        ];
        for src in bad {
            for path in [dispatch, "crates/tensor/src/gemm/backend.rs"] {
                let hits = findings_for(path, src);
                assert_eq!(
                    hits.iter().filter(|f| f.rule == L9).count(),
                    1,
                    "{path}: {src}"
                );
            }
        }
        // Strings, comments and look-alikes do not count.
        let masked = "// Avx2(()) does not compile here\nfn f() { let _ = \"Fma(())\"; let _ = Foo(()); g(()); }\n";
        let hits = findings_for(dispatch, masked);
        assert!(hits.iter().all(|f| f.rule != L9), "{hits:?}");
    }

    #[test]
    fn protomc_rule_ids_are_known() {
        assert!(known_rule("p5-deadlock-free"));
        assert!(known_rule("p6-no-lost-message"));
        assert!(known_rule("p7-recovery-termination"));
        assert!(known_rule(L6));
        assert!(!known_rule("p8-nonsense"));
        // p1–p4 hold by construction of the command table now.
        assert!(!known_rule("p1-collective-order"));
    }

    #[test]
    fn l8_flags_blocking_recvs_in_distributed_only() {
        let src = "\
fn f(comm: &mut Comm) -> Result<(), CommError> {
    let a = comm.recv(Src::Of(0), 17)?;
    let b = comm.recv_vec::<u64>(Src::Of(0), 17)?;
    let c = comm.recv_timeout(Src::Of(0), 17, t)?;
    let d = comm.recv_vec_timeout::<u64>(Src::Of(0), 17, t)?;
    let _ = (a, b, c, d);
    Ok(())
}
";
        let hits = findings_for("crates/core/src/distributed.rs", src);
        let l8: Vec<_> = hits.iter().filter(|f| f.rule == L8).collect();
        assert_eq!(l8.len(), 2, "{l8:?}");
        assert_eq!(l8[0].line, 2);
        assert_eq!(l8[1].line, 3);
        // Other files are out of scope (the collectives implement the
        // untimed variants themselves).
        assert!(findings_for("crates/mpisim/src/collectives.rs", src)
            .iter()
            .all(|f| f.rule != L8));
    }

    #[test]
    fn l8_ignores_non_method_uses_and_tests() {
        let src = "\
fn recv() {}
fn f() { recv(); }
#[cfg(test)]
mod tests {
    fn t(comm: &mut Comm) { let _ = comm.recv(Src::Any, 1); }
}
";
        let hits = findings_for("crates/core/src/distributed.rs", src);
        assert!(hits.iter().all(|f| f.rule != L8), "{hits:?}");
    }

    #[test]
    fn l5_skips_short_fns_and_other_files() {
        let src = "pub fn tiny() { let x = 1; let _ = x; }\n";
        assert!(findings_for("crates/core/src/optimizer.rs", src).is_empty());
        let long = format!("pub fn f() {{\n{}}}\n", "    let x = 1;\n".repeat(12));
        assert!(findings_for("crates/core/src/config.rs", &long).is_empty());
    }
}
