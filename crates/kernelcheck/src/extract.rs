//! Zone model: lexical extraction of everything the checker reasons
//! about from a kernel-zone source file.
//!
//! Built on the same masking lexer as `pdnn-lint` ([`SourceFile`]):
//! comment bodies and string interiors are blanked, so token scans
//! cannot be fooled by code-shaped text in docs. Contract annotations
//! (`// kernel-contract: ...`) are the one thing read from the *raw*
//! text, because they live inside comments by design — as do the
//! feature names inside `#[target_feature(enable = "...")]` and
//! `is_x86_feature_detected!("...")`, which are string literals.

use pdnn_lint::source::{find_word, is_ident_char, match_brace, SourceFile};
use std::collections::BTreeMap;
use std::ops::Range;

/// How a kernel parameter is passed, as far as the checker cares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamKind {
    PtrConst,
    PtrMut,
    Usize,
    Other,
}

#[derive(Clone, Debug)]
pub struct Param {
    pub name: String,
    pub kind: ParamKind,
    /// Raw type text, e.g. `&mut [[f32; NR]; MR]` — used to derive
    /// guaranteed element counts for wrapper parameters.
    pub ty: String,
}

/// One `<param> points-to len >= <expr>` contract line.
#[derive(Clone, Debug)]
pub struct LenContract {
    pub param: String,
    /// Bound expression text, e.g. `kc * MR`.
    pub bound: String,
    pub noalias: bool,
    /// Declared alignment in bytes (`align(N)` flag); 0 = none.
    pub align: u32,
    /// 1-based line of the contract comment.
    pub line: usize,
}

/// The `requires target_feature(...)` contract line.
#[derive(Clone, Debug)]
pub struct Requires {
    pub features: Vec<String>,
    pub baseline: Option<String>,
    pub line: usize,
}

/// One raw-memory access: a deref or a load/store intrinsic.
#[derive(Clone, Debug)]
pub struct MemAccess {
    /// Identifier the access goes through (param or local pointer).
    pub base: String,
    /// `.add(..)` / `.offset(..)` argument text, if any.
    pub add_expr: Option<String>,
    /// Elements touched starting at the effective offset.
    pub width: i64,
    /// For a masked intrinsic whose mask is built from
    /// `lanes(cols, start)`: the tighter bound `(cols) - (start)` on the
    /// elements it touches.
    pub lanes: Option<String>,
    /// Alignment in bytes the operation demands; 0 = unaligned-ok.
    pub req_align: u32,
    /// Intrinsic name, or `None` for a plain `*p` deref.
    pub intrinsic: Option<String>,
    /// Byte offset in the masked text (diagnostics + loop scoping).
    pub offset: usize,
}

/// One SIMD intrinsic use (memory-touching or not) for feature checks.
#[derive(Clone, Debug)]
pub struct IntrinsicUse {
    pub name: String,
    pub feature: &'static str,
    pub offset: usize,
}

/// Upper bound of a loop variable.
#[derive(Clone, Debug)]
pub enum LoopMax {
    /// `for v in lo..end` (`inclusive` for `..=`): max is `end`
    /// (inclusive) or `end - 1` (exclusive).
    Expr {
        text: String,
        inclusive: bool,
    },
    /// `for (v, _) in arr.iter..()`: max is `arr.len() - 1`.
    ArrayLen(String),
    Unknown,
}

#[derive(Clone, Debug)]
pub struct LoopInfo {
    pub var: String,
    /// Masked byte range of the loop body.
    pub scope: Range<usize>,
    pub max: LoopMax,
}

/// `let p = base.add(expr);` — a derived pointer.
#[derive(Clone, Debug)]
pub struct PtrLet {
    pub base: String,
    pub add_expr: Option<String>,
    pub offset: usize,
}

/// One `kernel_precondition!(cond, "msg")` in a wrapper body.
#[derive(Clone, Debug)]
pub struct Precondition {
    /// Raw text of the condition argument.
    pub cond: String,
    pub line: usize,
}

/// Everything extracted about one `fn` in the zone.
#[derive(Clone, Debug)]
pub struct KernelFn {
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    pub is_unsafe: bool,
    pub is_pub: bool,
    pub body: Range<usize>,
    pub params: Vec<Param>,
    pub contracts: Vec<LenContract>,
    pub requires: Option<Requires>,
    /// Features from `#[target_feature(enable = "...")]`.
    pub target_features: Vec<String>,
    pub accesses: Vec<MemAccess>,
    pub intrinsics: Vec<IntrinsicUse>,
    pub loops: Vec<LoopInfo>,
    pub ptr_lets: BTreeMap<String, PtrLet>,
    /// Local fixed-size arrays: name -> length expression text.
    pub arrays: BTreeMap<String, String>,
    /// Every other `let NAME = <rhs>;`: name -> right-hand side text
    /// (how a mask argument is traced to its `lanes(..)` bound).
    pub values: BTreeMap<String, String>,
    pub preconditions: Vec<Precondition>,
}

/// An `unsafe { ... }` block outside any `unsafe fn`.
#[derive(Clone, Debug)]
pub struct UnsafeBlock {
    pub offset: usize,
    /// 1-based line.
    pub line: usize,
    /// Name of the enclosing fn, when there is one.
    pub in_fn: Option<String>,
}

/// Parsed model of one zone file.
pub struct ZoneFile {
    pub file: SourceFile,
    pub fns: Vec<KernelFn>,
    pub unsafe_blocks: Vec<UnsafeBlock>,
    /// Malformed contract annotations: (1-based line, message).
    pub malformed: Vec<(usize, String)>,
}

/// A call expression: callee position plus raw argument texts.
#[derive(Clone, Debug)]
pub struct CallSite {
    pub offset: usize,
    pub args: Vec<String>,
}

const CONTRACT_TAG: &str = "kernel-contract:";

/// `pub const NAME: usize = N;` table from a driver file (the
/// micro-tile constants `MR`/`NR` in `gemm/mod.rs`).
pub fn const_table(file: &SourceFile) -> BTreeMap<String, i64> {
    let mut out = BTreeMap::new();
    for (_, line) in file.masked_lines() {
        let t = line.trim();
        let t = t.strip_prefix("pub ").unwrap_or(t);
        let Some(rest) = t.strip_prefix("const ") else {
            continue;
        };
        let Some((name, rest)) = rest.split_once(':') else {
            continue;
        };
        let Some((ty, val)) = rest.split_once('=') else {
            continue;
        };
        if ty.trim() != "usize" {
            continue;
        }
        let val = val.trim().trim_end_matches(';').trim();
        if let Ok(n) = val.parse::<i64>() {
            out.insert(name.trim().to_string(), n);
        }
    }
    out
}

/// Minimum CPU feature implied by an intrinsic name; `None` for
/// identifiers that are not recognized SIMD intrinsics.
pub fn feature_of(name: &str) -> Option<&'static str> {
    if let Some(rest) = name.strip_prefix("_mm512_") {
        // The f32x8 lane-group ops (broadcast/insert/extract) are the
        // AVX512DQ subset; everything else _mm512_ here — the fused
        // multiply-adds included — is AVX512F.
        if rest.contains("f32x8") {
            return Some("avx512dq");
        }
        return Some("avx512f");
    }
    // The VEX-encoded fused multiply-adds are their own CPUID bit.
    if let Some(rest) = name
        .strip_prefix("_mm256_")
        .or_else(|| name.strip_prefix("_mm_"))
    {
        if ["fmadd", "fmsub", "fnmadd", "fnmsub"]
            .iter()
            .any(|op| rest.starts_with(op))
        {
            return Some("fma");
        }
    }
    if name.starts_with("_mm256_") {
        return Some("avx");
    }
    if name.starts_with("_mm_") {
        return Some("sse2");
    }
    if name.starts_with('v')
        && name.contains('q')
        && (name.ends_with("_f32") || name.ends_with("_f64"))
    {
        return Some("neon");
    }
    None
}

/// (elements touched, required alignment in bytes) for memory-touching
/// intrinsics. Unaligned variants require nothing; aligned variants
/// require the full vector width.
pub fn mem_intrinsic(name: &str) -> Option<(i64, u32)> {
    Some(match name {
        "_mm256_loadu_ps" | "_mm256_storeu_ps" => (8, 0),
        "_mm256_loadu_pd" | "_mm256_storeu_pd" => (4, 0),
        "_mm512_loadu_ps" | "_mm512_storeu_ps" => (16, 0),
        "_mm512_loadu_pd" | "_mm512_storeu_pd" => (8, 0),
        "_mm256_load_ps" | "_mm256_store_ps" => (8, 32),
        "_mm256_load_pd" | "_mm256_store_pd" => (4, 32),
        "_mm512_load_ps" | "_mm512_store_ps" => (16, 64),
        "_mm512_load_pd" | "_mm512_store_pd" => (8, 64),
        "_mm_loadu_ps" | "_mm_storeu_ps" => (4, 0),
        "_mm_load_ps" | "_mm_store_ps" => (4, 16),
        "vld1q_f32" | "vst1q_f32" => (4, 0),
        "vld1q_f64" | "vst1q_f64" => (2, 0),
        _ => return None,
    })
}

/// (pointer argument index, mask argument index, lanes) for the masked
/// memory intrinsics. They touch only their mask's live lanes, so the
/// checker bounds them by the mask's `lanes(..)` count (falling back to
/// the full register when the mask cannot be traced to one).
pub fn masked_intrinsic(name: &str) -> Option<(usize, usize, i64)> {
    Some(match name {
        "_mm512_maskz_loadu_ps" => (1, 0, 16),
        "_mm512_maskz_loadu_pd" => (1, 0, 8),
        "_mm512_mask_storeu_ps" => (0, 1, 16),
        "_mm512_mask_storeu_pd" => (0, 1, 8),
        "_mm256_maskload_ps" | "_mm256_maskstore_ps" => (0, 1, 8),
        "_mm256_maskload_pd" | "_mm256_maskstore_pd" => (0, 1, 4),
        _ => return None,
    })
}

/// The `(cols) - (start)` bound of the first `lanes(cols, start)` call
/// in `text`, or in the `let` binding of an identifier it names
/// (followed a few levels deep).
fn lanes_bound(text: &str, values: &BTreeMap<String, String>, depth: u32) -> Option<String> {
    if let Some(pos) = find_word(text, "lanes", 0) {
        let open = skip_ws(text.as_bytes(), pos + "lanes".len());
        if text.as_bytes().get(open) == Some(&b'(') {
            let close = match_delim(text, open)?;
            let args = split_top_commas(&text[open + 1..close]);
            if let [cols, start] = args.as_slice() {
                return Some(format!("({}) - ({})", cols.trim(), start.trim()));
            }
        }
    }
    if depth == 0 {
        return None;
    }
    let b = text.as_bytes();
    let mut i = 0;
    while i < b.len() {
        match ident_at(text, i) {
            Some((name, end)) => {
                if let Some(rhs) = values.get(&name) {
                    if let Some(bound) = lanes_bound(rhs, values, depth - 1) {
                        return Some(bound);
                    }
                }
                i = end;
            }
            None => i += 1,
        }
    }
    None
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && (b[i] as char).is_whitespace() {
        i += 1;
    }
    i
}

fn ident_at(text: &str, i: usize) -> Option<(String, usize)> {
    let b = text.as_bytes();
    if i >= b.len() {
        return None;
    }
    let c = b[i] as char;
    if !(c.is_alphabetic() || c == '_') {
        return None;
    }
    let mut j = i;
    while j < b.len() && is_ident_char(b[j] as char) {
        j += 1;
    }
    Some((text[i..j].to_string(), j))
}

/// Byte offset of the `)`/`]` matching the opener at `open`.
pub fn match_delim(text: &str, open: usize) -> Option<usize> {
    let b = text.as_bytes();
    let (op, cl) = match b.get(open) {
        Some(b'(') => (b'(', b')'),
        Some(b'[') => (b'[', b']'),
        _ => return None,
    };
    let mut depth = 0i32;
    for (i, &c) in b.iter().enumerate().skip(open) {
        if c == op {
            depth += 1;
        } else if c == cl {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Split `text` on commas at zero paren/bracket depth.
pub fn split_top_commas(text: &str) -> Vec<&str> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b',' if depth == 0 => {
                out.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < text.len() || !out.is_empty() {
        out.push(&text[start..]);
    }
    out
}

/// Parse a pointer expression: `IDENT`, `IDENT.add(EXPR)`, or
/// `IDENT.offset(EXPR)`.
fn parse_ptr_expr(text: &str) -> Option<(String, Option<String>)> {
    let t = text.trim();
    let (base, mut i) = ident_at(t, 0)?;
    if i == t.len() {
        return Some((base, None));
    }
    let b = t.as_bytes();
    if b[i] != b'.' {
        return None;
    }
    i += 1;
    let (method, j) = ident_at(t, i)?;
    if method != "add" && method != "offset" {
        return None;
    }
    let open = skip_ws(b, j);
    if b.get(open) != Some(&b'(') {
        return None;
    }
    let close = match_delim(t, open)?;
    if t[close + 1..].trim() != "" {
        return None;
    }
    Some((base, Some(t[open + 1..close].to_string())))
}

/// Find a call to `callee` inside `range` of `file`'s masked text:
/// the identifier followed (after whitespace) by `(`. Returns the raw
/// argument texts, split at top-level commas.
pub fn find_call_in(file: &SourceFile, range: &Range<usize>, callee: &str) -> Option<CallSite> {
    find_calls_in(file, range, callee).into_iter().next()
}

/// All calls to `callee` inside `range` (masked view; args from raw).
pub fn find_calls_in(file: &SourceFile, range: &Range<usize>, callee: &str) -> Vec<CallSite> {
    let masked = &file.masked;
    let b = masked.as_bytes();
    let mut out = Vec::new();
    let mut i = range.start;
    while let Some(pos) = find_word(masked, callee, i) {
        if pos >= range.end {
            break;
        }
        i = pos + callee.len();
        let open = skip_ws(b, pos + callee.len());
        if b.get(open) != Some(&b'(') {
            continue;
        }
        let Some(close) = match_delim(masked, open) else {
            continue;
        };
        let args = split_top_commas(&file.raw[open + 1..close])
            .iter()
            .map(|a| a.trim().to_string())
            .filter(|a| !a.is_empty())
            .collect();
        out.push(CallSite { offset: pos, args });
    }
    out
}

/// Parse one zone source file into its checkable model.
pub fn parse_zone_file(path: &str, text: &str) -> ZoneFile {
    let file = SourceFile::parse(path, text);
    let mut fns = Vec::new();
    let mut malformed = Vec::new();
    let raw_lines: Vec<&str> = file.raw.lines().collect();
    let masked_lines: Vec<&str> = file.masked.lines().collect();

    for item in file.functions() {
        if file.test_lines.get(item.line).copied().unwrap_or(false) {
            continue;
        }
        let Some(body) = item.body.clone() else {
            continue;
        };
        let fn_line_masked = masked_lines.get(item.line).copied().unwrap_or("");
        let is_unsafe = find_word(fn_line_masked, "unsafe", 0).is_some();
        let params = parse_params(&file, &item.name, item.line);
        let (contracts, requires, target_features, mut bad) =
            parse_annotations(&raw_lines, item.line);
        malformed.append(&mut bad);
        let mut f = KernelFn {
            name: item.name.clone(),
            line: item.line + 1,
            is_unsafe,
            is_pub: item.is_pub,
            body: body.clone(),
            params,
            contracts,
            requires,
            target_features,
            accesses: Vec::new(),
            intrinsics: Vec::new(),
            loops: Vec::new(),
            ptr_lets: BTreeMap::new(),
            arrays: BTreeMap::new(),
            values: BTreeMap::new(),
            preconditions: Vec::new(),
        };
        scan_lets(&file, &mut f);
        scan_loops(&file, &mut f);
        scan_intrinsics(&file, &mut f);
        scan_derefs(&file, &mut f);
        scan_preconditions(&file, &mut f);
        fns.push(f);
    }

    let unsafe_blocks = scan_unsafe_blocks(&file, &fns);
    ZoneFile {
        file,
        fns,
        unsafe_blocks,
        malformed,
    }
}

/// Parameter list of the fn named `name` whose `fn` keyword is on
/// (0-based) `line`.
fn parse_params(file: &SourceFile, name: &str, line: usize) -> Vec<Param> {
    let masked = &file.masked;
    let b = masked.as_bytes();
    let mut line_start = 0;
    for (i, l) in masked.lines().enumerate() {
        if i == line {
            break;
        }
        line_start += l.len() + 1;
    }
    let Some(name_pos) = find_word(masked, name, line_start) else {
        return Vec::new();
    };
    let mut i = name_pos + name.len();
    // Skip a generic parameter list `<...>`.
    i = skip_ws(b, i);
    if b.get(i) == Some(&b'<') {
        let mut depth = 0i32;
        while i < b.len() {
            match b[i] {
                b'<' => depth += 1,
                b'>' => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        i = skip_ws(b, i);
    }
    if b.get(i) != Some(&b'(') {
        return Vec::new();
    }
    let Some(close) = match_delim(masked, i) else {
        return Vec::new();
    };
    split_top_commas(&masked[i + 1..close])
        .iter()
        .filter_map(|p| {
            let (pname, ty) = p.split_once(':')?;
            let pname = pname.trim().trim_start_matches("mut ").trim();
            let ty = ty.trim();
            let kind = if ty.contains("*const") {
                ParamKind::PtrConst
            } else if ty.contains("*mut") {
                ParamKind::PtrMut
            } else if ty == "usize" {
                ParamKind::Usize
            } else {
                ParamKind::Other
            };
            Some(Param {
                name: pname.to_string(),
                kind,
                ty: ty.to_string(),
            })
        })
        .collect()
}

/// Contract comments and `#[target_feature]` attributes directly above
/// (0-based) line `fn_line`.
#[allow(clippy::type_complexity)]
fn parse_annotations(
    raw_lines: &[&str],
    fn_line: usize,
) -> (
    Vec<LenContract>,
    Option<Requires>,
    Vec<String>,
    Vec<(usize, String)>,
) {
    let mut contracts = Vec::new();
    let mut requires = None;
    let mut features = Vec::new();
    let mut malformed = Vec::new();
    let mut l = fn_line;
    while l > 0 {
        let above = raw_lines[l - 1].trim();
        if !(above.starts_with("#[") || above.starts_with("//")) {
            break;
        }
        l -= 1;
    }
    for (i, line) in raw_lines.iter().enumerate().take(fn_line).skip(l) {
        let t = line.trim();
        let lineno = i + 1;
        if t.starts_with("#[target_feature") {
            if let Some(inner) = t.split("enable = \"").nth(1) {
                if let Some(list) = inner.split('"').next() {
                    features.extend(list.split(',').map(|f| f.trim().to_string()));
                }
            }
            continue;
        }
        let Some(at) = t.find(CONTRACT_TAG) else {
            continue;
        };
        let rest = t[at + CONTRACT_TAG.len()..].trim();
        match parse_contract_line(rest, lineno) {
            Ok(ContractLine::Len(c)) => contracts.push(c),
            Ok(ContractLine::Requires(r)) => requires = Some(r),
            Err(msg) => malformed.push((lineno, msg)),
        }
    }
    (contracts, requires, features, malformed)
}

enum ContractLine {
    Len(LenContract),
    Requires(Requires),
}

fn parse_contract_line(rest: &str, line: usize) -> Result<ContractLine, String> {
    if let Some(args) = rest.strip_prefix("requires target_feature(") {
        let Some(close) = args.find(')') else {
            return Err("unclosed `requires target_feature(`".to_string());
        };
        let features = args[..close]
            .split(',')
            .map(|f| f.trim().to_string())
            .filter(|f| !f.is_empty())
            .collect();
        let tail = args[close + 1..].trim().trim_start_matches(',').trim();
        let baseline = if let Some(b) = tail.strip_prefix("baseline(") {
            let Some(bc) = b.find(')') else {
                return Err("unclosed `baseline(`".to_string());
            };
            Some(b[..bc].trim().to_string())
        } else if tail.is_empty() {
            None
        } else {
            return Err(format!("unrecognized trailing contract text `{tail}`"));
        };
        return Ok(ContractLine::Requires(Requires {
            features,
            baseline,
            line,
        }));
    }
    let Some((param, _)) = ident_at(rest, 0) else {
        return Err(format!("contract must name a parameter: `{rest}`"));
    };
    let after = rest[param.len()..].trim();
    let Some(bound_and_flags) = after.strip_prefix("points-to len >=") else {
        return Err(format!(
            "expected `points-to len >= <expr>` after `{param}`"
        ));
    };
    let mut parts = split_top_commas(bound_and_flags).into_iter();
    let bound = parts.next().map(str::trim).unwrap_or("").to_string();
    if bound.is_empty() {
        return Err(format!("empty length bound for `{param}`"));
    }
    let mut noalias = false;
    let mut align = 0u32;
    for flag in parts {
        let flag = flag.trim();
        if flag == "noalias" {
            noalias = true;
        } else if let Some(a) = flag.strip_prefix("align(") {
            let a = a.trim_end_matches(')');
            align = a.parse().map_err(|_| format!("bad align flag `{flag}`"))?;
        } else {
            return Err(format!("unknown contract flag `{flag}` for `{param}`"));
        }
    }
    Ok(ContractLine::Len(LenContract {
        param,
        bound,
        noalias,
        align,
        line,
    }))
}

/// `let [mut] NAME = <rhs>;` scan: derived pointers and fixed arrays.
fn scan_lets(file: &SourceFile, f: &mut KernelFn) {
    let masked = &file.masked;
    let b = masked.as_bytes();
    let mut i = f.body.start;
    while let Some(pos) = find_word(masked, "let", i) {
        if pos >= f.body.end {
            break;
        }
        i = pos + 3;
        let mut j = skip_ws(b, pos + 3);
        if let Some(after_mut) = masked[j..].strip_prefix("mut ").map(|_| j + 4) {
            j = skip_ws(b, after_mut);
        }
        let Some((name, after_name)) = ident_at(masked, j) else {
            continue;
        };
        let j = skip_ws(b, after_name);
        if b.get(j) != Some(&b'=') {
            continue; // `let (i, ri)` destructuring etc.
        }
        let rhs_start = skip_ws(b, j + 1);
        if b.get(rhs_start) == Some(&b'[') {
            // Fixed-size array: `[ELEM; LEN]`.
            if let Some(close) = match_delim(masked, rhs_start) {
                let inner = &masked[rhs_start + 1..close];
                if let Some(semi) = find_top_semicolon(inner) {
                    f.arrays.insert(name, inner[semi + 1..].trim().to_string());
                }
                i = close;
            }
            continue;
        }
        // Statement end: `;` at zero delimiter depth.
        let mut depth = 0i32;
        let mut k = rhs_start;
        while k < f.body.end {
            match b[k] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b';' if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        f.values
            .insert(name.clone(), masked[rhs_start..k].trim().to_string());
        if let Some((base, add_expr)) = parse_ptr_expr(&masked[rhs_start..k]) {
            let base_is_ptr = f.ptr_lets.contains_key(&base)
                || f.params.iter().any(|p| {
                    p.name == base && matches!(p.kind, ParamKind::PtrConst | ParamKind::PtrMut)
                });
            if base_is_ptr {
                f.ptr_lets.insert(
                    name,
                    PtrLet {
                        base,
                        add_expr,
                        offset: pos,
                    },
                );
            }
        }
        i = k;
    }
}

fn find_top_semicolon(text: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (i, c) in text.bytes().enumerate() {
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b';' if depth == 0 => return Some(i),
            _ => {}
        }
    }
    None
}

fn scan_loops(file: &SourceFile, f: &mut KernelFn) {
    let masked = &file.masked;
    let b = masked.as_bytes();
    let mut i = f.body.start;
    while let Some(pos) = find_word(masked, "for", i) {
        if pos >= f.body.end {
            break;
        }
        i = pos + 3;
        let j = skip_ws(b, pos + 3);
        let (var, max, header_end) = if b.get(j) == Some(&b'(') {
            // `for (v, x) in arr.iter..()` — enumerate index pattern.
            let Some(close) = match_delim(masked, j) else {
                continue;
            };
            let pats = split_top_commas(&masked[j + 1..close]);
            let Some(first) = pats.first().map(|p| p.trim()) else {
                continue;
            };
            let Some((var, _)) = ident_at(first, 0) else {
                continue;
            };
            let after_in = match find_word(masked, "in", close) {
                Some(p) if p < f.body.end => skip_ws(b, p + 2),
                _ => continue,
            };
            let Some((arr, arr_end)) = ident_at(masked, after_in) else {
                continue;
            };
            // `.take(n)` caps the index at `n - 1` whatever the array.
            let header = &masked[arr_end..f.body.end];
            let header = &header[..header.find('{').unwrap_or(header.len())];
            let take = header.find(".take(").and_then(|t| {
                let open = t + ".take".len();
                let close = match_delim(header, open)?;
                Some(header[open + 1..close].trim().to_string())
            });
            let max = match take {
                Some(n) => LoopMax::Expr {
                    text: lanes_bound(&n, &BTreeMap::new(), 0).unwrap_or(n),
                    inclusive: false,
                },
                None if masked[arr_end..].starts_with(".iter") => LoopMax::ArrayLen(arr),
                None => LoopMax::Unknown,
            };
            (var, max, after_in)
        } else {
            let Some((var, var_end)) = ident_at(masked, j) else {
                continue;
            };
            let after_in = match find_word(masked, "in", var_end) {
                Some(p) if p < f.body.end => skip_ws(b, p + 2),
                _ => continue,
            };
            // Range text runs to the body `{` at zero paren depth.
            let mut depth = 0i32;
            let mut k = after_in;
            while k < f.body.end {
                match b[k] {
                    b'(' | b'[' => depth += 1,
                    b')' | b']' => depth -= 1,
                    b'{' if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            let range_text = masked[after_in..k].trim();
            let max = if let Some((_, end)) = range_text.split_once("..=") {
                LoopMax::Expr {
                    text: end.trim().to_string(),
                    inclusive: true,
                }
            } else if let Some((_, end)) = range_text.split_once("..") {
                LoopMax::Expr {
                    text: end.trim().to_string(),
                    inclusive: false,
                }
            } else {
                LoopMax::Unknown
            };
            (var, max, after_in)
        };
        // Body: first `{` at zero delimiter depth after the header.
        let mut depth = 0i32;
        let mut k = header_end;
        let mut scope = None;
        while k < f.body.end {
            match b[k] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth == 0 => {
                    if let Some(close) = match_brace(masked, k) {
                        scope = Some(k + 1..close);
                    }
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        if let Some(scope) = scope {
            f.loops.push(LoopInfo { var, scope, max });
        }
    }
}

fn scan_intrinsics(file: &SourceFile, f: &mut KernelFn) {
    let masked = &file.masked;
    let b = masked.as_bytes();
    let mut i = f.body.start;
    while i < f.body.end {
        let c = b[i] as char;
        if !(c.is_alphabetic() || c == '_') {
            i += 1;
            continue;
        }
        if i > 0 && is_ident_char(b[i - 1] as char) {
            i += 1;
            continue;
        }
        let Some((name, end)) = ident_at(masked, i) else {
            i += 1;
            continue;
        };
        let Some(feature) = feature_of(&name) else {
            i = end;
            continue;
        };
        f.intrinsics.push(IntrinsicUse {
            name: name.clone(),
            feature,
            offset: i,
        });
        // (pointer argument, mask argument, lanes, alignment) of a
        // memory-touching intrinsic.
        let mem = mem_intrinsic(&name)
            .map(|(width, align)| (0, None, width, align))
            .or_else(|| {
                masked_intrinsic(&name).map(|(ptr, mask, width)| (ptr, Some(mask), width, 0))
            });
        if let Some((ptr_idx, mask_idx, width, req_align)) = mem {
            // Skip a turbofish (`::<1>`) between name and `(`.
            let mut j = end;
            if masked[j..].starts_with("::<") {
                let mut depth = 0i32;
                while j < f.body.end {
                    match b[j] {
                        b'<' => depth += 1,
                        b'>' => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            let open = skip_ws(b, j);
            if b.get(open) == Some(&b'(') {
                if let Some(close) = match_delim(masked, open) {
                    let args = split_top_commas(&masked[open + 1..close]);
                    let ptr = args.get(ptr_idx).map(|a| a.trim()).unwrap_or("");
                    let (base, add_expr) =
                        parse_ptr_expr(ptr).unwrap_or_else(|| (ptr.to_string(), None));
                    let lanes = mask_idx
                        .and_then(|m| args.get(m))
                        .and_then(|m| lanes_bound(m, &f.values, 3));
                    f.accesses.push(MemAccess {
                        base,
                        add_expr,
                        width,
                        lanes,
                        req_align,
                        intrinsic: Some(name),
                        offset: i,
                    });
                }
            }
        }
        i = end;
    }
}

fn scan_derefs(file: &SourceFile, f: &mut KernelFn) {
    let masked = &file.masked;
    let b = masked.as_bytes();
    for i in f.body.clone() {
        if b[i] != b'*' {
            continue;
        }
        // A deref star is glued to its operand (`*p`); a
        // multiplication star always has surrounding spaces under
        // rustfmt, so a star directly followed by an identifier start
        // is a dereference.
        let Some((name, end)) = ident_at(masked, i + 1) else {
            continue;
        };
        let is_ptr = f.ptr_lets.contains_key(&name)
            || f.params.iter().any(|pm| {
                pm.name == name && matches!(pm.kind, ParamKind::PtrConst | ParamKind::PtrMut)
            });
        if !is_ptr {
            continue;
        }
        let add_expr =
            if masked[end..].starts_with(".add(") || masked[end..].starts_with(".offset(") {
                let open = end + masked[end..].find('(').unwrap_or(0);
                match_delim(masked, open).map(|close| masked[open + 1..close].to_string())
            } else {
                None
            };
        f.accesses.push(MemAccess {
            base: name,
            add_expr,
            width: 1,
            lanes: None,
            req_align: 0,
            intrinsic: None,
            offset: i,
        });
    }
}

fn scan_preconditions(file: &SourceFile, f: &mut KernelFn) {
    let masked = &file.masked;
    let b = masked.as_bytes();
    let mut i = f.body.start;
    while let Some(pos) = find_word(masked, "kernel_precondition", i) {
        if pos >= f.body.end {
            break;
        }
        i = pos + "kernel_precondition".len();
        let mut j = i;
        if b.get(j) == Some(&b'!') {
            j += 1;
        }
        let open = skip_ws(b, j);
        if b.get(open) != Some(&b'(') {
            continue;
        }
        let Some(close) = match_delim(masked, open) else {
            continue;
        };
        // The condition is the first top-level argument; take its raw
        // text (feature names live in string literals).
        let inner_masked = &masked[open + 1..close];
        let parts = split_top_commas(inner_masked);
        let Some(first) = parts.first() else {
            continue;
        };
        let cond_end = open + 1 + first.len();
        let cond = file.raw[open + 1..cond_end].trim().to_string();
        f.preconditions.push(Precondition {
            cond,
            line: file.line_of(pos) + 1,
        });
        i = close;
    }
}

fn scan_unsafe_blocks(file: &SourceFile, fns: &[KernelFn]) -> Vec<UnsafeBlock> {
    let masked = &file.masked;
    let b = masked.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(pos) = find_word(masked, "unsafe", i) {
        i = pos + 6;
        let line0 = file.line_of(pos);
        if file.test_lines.get(line0).copied().unwrap_or(false) {
            continue;
        }
        let open = skip_ws(b, pos + 6);
        if b.get(open) != Some(&b'{') {
            continue; // `unsafe fn`, handled as a fn.
        }
        let in_fn = fns
            .iter()
            .find(|f| f.body.contains(&pos))
            .map(|f| f.name.clone());
        out.push(UnsafeBlock {
            offset: pos,
            line: line0 + 1,
            in_fn,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
pub const MR: usize = 8;

pub fn acc_f32(kc: usize, ap: &[f32], acc: &mut [[f32; 8]; 8]) {
    kernel_precondition!(ap.len() >= kc * MR, "A panel too short");
    kernel_precondition!(is_x86_feature_detected!("avx2"), "avx2 not available");
    unsafe { acc_f32_imp(kc, ap.as_ptr(), acc.as_flattened_mut().as_mut_ptr()) }
}

// kernel-contract: ap points-to len >= kc * MR, noalias
// kernel-contract: acc points-to len >= MR * NR, noalias, align(32)
// kernel-contract: requires target_feature(avx2)
#[target_feature(enable = "avx2")]
unsafe fn acc_f32_imp(kc: usize, ap: *const f32, acc: *mut f32) {
    let mut r = [_mm256_setzero_ps(); MR];
    for kk in 0..kc {
        let a = ap.add(kk * MR);
        for (i, ri) in r.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*a.add(i));
            *ri = _mm256_add_ps(av, *ri);
        }
    }
    for (i, ri) in r.iter().enumerate() {
        _mm256_storeu_ps(acc.add(i * 8), *ri);
    }
}
"#;

    #[test]
    fn model_extracts_contracts_params_and_accesses() {
        let z = parse_zone_file("k.rs", SAMPLE);
        assert!(z.malformed.is_empty(), "{:?}", z.malformed);
        assert_eq!(z.fns.len(), 2);
        let wrapper = &z.fns[0];
        assert!(!wrapper.is_unsafe);
        assert_eq!(wrapper.preconditions.len(), 2);
        assert_eq!(wrapper.preconditions[0].cond, "ap.len() >= kc * MR");
        assert!(wrapper.preconditions[1]
            .cond
            .contains("is_x86_feature_detected!(\"avx2\")"));

        let imp = &z.fns[1];
        assert!(imp.is_unsafe);
        assert_eq!(imp.params.len(), 3);
        assert_eq!(imp.params[0].kind, ParamKind::Usize);
        assert_eq!(imp.params[1].kind, ParamKind::PtrConst);
        assert_eq!(imp.params[2].kind, ParamKind::PtrMut);
        assert_eq!(imp.contracts.len(), 2);
        assert_eq!(imp.contracts[0].bound, "kc * MR");
        assert!(imp.contracts[0].noalias);
        assert_eq!(imp.contracts[1].align, 32);
        let req = imp.requires.clone().expect("requires line");
        assert_eq!(req.features, ["avx2"]);
        assert_eq!(imp.target_features, ["avx2"]);
        assert_eq!(imp.arrays.get("r").map(String::as_str), Some("MR"));
        assert_eq!(imp.ptr_lets.get("a").map(|p| p.base.as_str()), Some("ap"));
        // Accesses: deref `*a.add(i)` + store through `acc`.
        assert!(imp
            .accesses
            .iter()
            .any(|a| a.base == "a" && a.width == 1 && a.add_expr.as_deref() == Some("i")));
        assert!(imp.accesses.iter().any(|a| a.base == "acc"
            && a.width == 8
            && a.intrinsic.as_deref() == Some("_mm256_storeu_ps")));
        assert_eq!(z.unsafe_blocks.len(), 1);
        assert_eq!(z.unsafe_blocks[0].in_fn.as_deref(), Some("acc_f32"));
    }

    #[test]
    fn loop_maxima_cover_ranges_and_enumerates() {
        let z = parse_zone_file("k.rs", SAMPLE);
        let imp = &z.fns[1];
        let kk = imp.loops.iter().find(|l| l.var == "kk").expect("kk loop");
        match &kk.max {
            LoopMax::Expr { text, inclusive } => {
                assert_eq!(text, "kc");
                assert!(!inclusive);
            }
            other => panic!("unexpected max {other:?}"),
        }
        let i_loops: Vec<_> = imp.loops.iter().filter(|l| l.var == "i").collect();
        assert_eq!(i_loops.len(), 2);
        assert!(matches!(&i_loops[0].max, LoopMax::ArrayLen(a) if a == "r"));
    }

    #[test]
    fn masked_accesses_and_take_loops_are_bounded_by_lanes() {
        let src = r#"
unsafe fn t_imp(c: *mut f32, ldc: usize, mr_eff: usize, nr_eff: usize) {
    let r = [_mm512_setzero_ps(); MR];
    for g in 0..NR / 16 {
        let m = mask16(lanes(nr_eff, g * 16));
        for (i, &ri) in r.iter().enumerate().take(mr_eff) {
            let p = c.add(i * ldc + g * 16);
            _mm512_mask_storeu_ps(p, m, ri);
        }
    }
    for (j, x) in r.iter().enumerate().take(lanes(nr_eff, 4)) {}
}
"#;
        let z = parse_zone_file("k.rs", src);
        let f = &z.fns[0];
        let store = f
            .accesses
            .iter()
            .find(|a| a.intrinsic.as_deref() == Some("_mm512_mask_storeu_ps"))
            .expect("masked store is an access");
        assert_eq!(store.base, "p");
        assert_eq!(store.lanes.as_deref(), Some("(nr_eff) - (g * 16)"));
        let maxes: Vec<_> = f
            .loops
            .iter()
            .filter_map(|l| match &l.max {
                LoopMax::Expr { text, .. } => Some((l.var.as_str(), text.as_str())),
                _ => None,
            })
            .collect();
        assert!(maxes.contains(&("i", "mr_eff")), "{maxes:?}");
        assert!(maxes.contains(&("j", "(nr_eff) - (4)")), "{maxes:?}");
    }

    #[test]
    fn const_table_reads_micro_tile_constants() {
        let f = SourceFile::parse("m.rs", "pub const MR: usize = 8;\nconst X: usize = 3;\n");
        let t = const_table(&f);
        assert_eq!(t.get("MR"), Some(&8));
        assert_eq!(t.get("X"), Some(&3));
    }
}
