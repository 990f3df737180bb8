//! The seven contract checks (`k1`..`k7`) over the extracted model.
//!
//! Checks run in three scopes:
//!
//! * **inside each unsafe kernel** (`k1` bounds, `k2` contract
//!   presence, `k3` alignment, `k4` feature enablement): every raw
//!   access is resolved to a contract parameter and its worst-case
//!   offset polynomial is compared against the declared bound;
//! * **at the safe wrapper** (`k4` runtime detection, `k5` contract
//!   backing, `k7` aliasing): each declared contract must be implied
//!   by what the wrapper asserts (`kernel_precondition!`) or by the
//!   parameter's own type, and no two `noalias` operands may be fed
//!   from the same place;
//! * **in the drivers** (`k4` backend dispatch, `k6` call-site
//!   guarantees): `backend.rs` may only dispatch kernels whose feature
//!   requirements its ISA variant implies, `backend.rs` and `vmath.rs`
//!   may only name a feature-gated instantiation of the reference or
//!   element-wise loops after probing its features, and every
//!   micro-panel slice
//!   passed to `microkernel`/`bt_fn` must have *exactly* the packed
//!   length the kernel contract consumes (`kc * MR` etc. — overlong
//!   panels would mask index-arithmetic bugs, so equality is
//!   enforced, not just sufficiency).

use crate::expr::{self, Poly};
use crate::extract::{
    find_call_in, find_calls_in, CallSite, KernelFn, LenContract, LoopMax, MemAccess, ParamKind,
    ZoneFile,
};
use crate::{K1, K2, K3, K4, K5, K6, K7};
use pdnn_lint::source::{find_word, is_ident_char, match_brace, SourceFile};
use pdnn_lint::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// One unsafe site in the zone and whether a verified contract covers
/// it (the acceptance bar: every site covered, zero findings).
#[derive(Clone, Debug)]
pub struct CoverageSite {
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// `"unsafe_fn"` or `"unsafe_block"`.
    pub kind: &'static str,
    pub item: String,
    pub covered: bool,
    /// The contracts that cover the site.
    pub via: Vec<String>,
}

/// Per-kernel statistics for the report.
#[derive(Clone, Debug)]
pub struct KernelSummary {
    pub path: String,
    pub name: String,
    pub line: usize,
    pub is_unsafe: bool,
    pub contracts: usize,
    pub accesses: usize,
    pub intrinsics: usize,
    pub preconditions: usize,
}

/// Which kernel wrappers each backend ISA variant may dispatch.
fn isa_allowed(variant: &str) -> Option<&'static [&'static str]> {
    Some(match variant {
        "Scalar" => &[],
        "Avx2" => &["avx", "avx2", "fma", "sse2"],
        "Avx512" => &["avx", "avx2", "fma", "sse2", "avx512f"],
        "Neon" => &["neon"],
        _ => return None,
    })
}

/// Does the enabled-feature list imply `req`? Encodes the x86 subset
/// ladder (avx512 implies avx2 implies avx; sse2 is x86_64 baseline).
fn satisfies(enabled: &[String], req: &str) -> bool {
    match req {
        "sse2" => true,
        "avx" => enabled
            .iter()
            .any(|e| e == "avx" || e == "avx2" || e.starts_with("avx512")),
        "avx2" => enabled
            .iter()
            .any(|e| e == "avx2" || e.starts_with("avx512")),
        _ => enabled.iter().any(|e| e == req),
    }
}

fn offset_of_line(file: &SourceFile, line1: usize) -> usize {
    let mut off = 0;
    for (i, l) in file.masked.lines().enumerate() {
        if i + 1 >= line1 {
            break;
        }
        off += l.len() + 1;
    }
    off.min(file.masked.len().saturating_sub(1))
}

/// Expression evaluation inside one kernel fn: constants fold, usize
/// parameters stay symbolic, loop variables resolve to their maxima.
struct EvalCtx<'a> {
    consts: &'a BTreeMap<String, i64>,
    f: &'a KernelFn,
}

impl EvalCtx<'_> {
    fn eval(&self, text: &str, at: usize, depth: u32) -> Result<Poly, String> {
        if depth > 8 {
            return Err(format!("expression nesting too deep at `{text}`"));
        }
        let resolve = |name: &str| self.resolve_name(name, at, depth);
        expr::parse(text, &resolve)
    }

    fn resolve_name(&self, name: &str, at: usize, depth: u32) -> Option<Poly> {
        if let Some(&c) = self.consts.get(name) {
            return Some(Poly::constant(c));
        }
        if self
            .f
            .params
            .iter()
            .any(|p| p.name == name && p.kind == ParamKind::Usize)
        {
            return Some(Poly::var(name));
        }
        // Innermost enclosing loop binding this name.
        let lp = self
            .f
            .loops
            .iter()
            .rev()
            .find(|l| l.var == name && l.scope.contains(&at))?;
        match &lp.max {
            LoopMax::Expr { text, inclusive } => {
                let end = self.eval(text, lp.scope.start, depth + 1).ok()?;
                Some(if *inclusive {
                    end
                } else {
                    end.sub(&Poly::constant(1))
                })
            }
            LoopMax::ArrayLen(arr) => {
                let len_text = self.f.arrays.get(arr)?;
                let len = self.eval(len_text, lp.scope.start, depth + 1).ok()?;
                Some(len.sub(&Poly::constant(1)))
            }
            LoopMax::Unknown => None,
        }
    }

    /// Lower bounds implied by enclosing exclusive loops actually
    /// executing: `for kk in 0..kc { ... }` running means `kc >= 1`.
    fn mins(&self, at: usize) -> BTreeMap<String, i64> {
        let mut m = BTreeMap::new();
        for l in &self.f.loops {
            if !l.scope.contains(&at) {
                continue;
            }
            if let LoopMax::Expr {
                text,
                inclusive: false,
            } = &l.max
            {
                let is_usize_param = self
                    .f
                    .params
                    .iter()
                    .any(|p| p.name == *text && p.kind == ParamKind::Usize);
                if is_usize_param {
                    m.insert(text.clone(), 1);
                }
            }
        }
        m
    }

    /// Walk an access back through derived-pointer lets to a contract
    /// parameter, accumulating the total offset polynomial.
    fn resolve_access(&self, acc: &MemAccess) -> Result<(String, Poly), String> {
        let mut base = acc.base.clone();
        let mut total = match &acc.add_expr {
            Some(e) => self.eval(e, acc.offset, 0)?,
            None => Poly::constant(0),
        };
        for _ in 0..8 {
            let is_param = self.f.params.iter().any(|p| {
                p.name == base && matches!(p.kind, ParamKind::PtrConst | ParamKind::PtrMut)
            });
            if is_param {
                return Ok((base, total));
            }
            let Some(pl) = self.f.ptr_lets.get(&base) else {
                return Err(format!(
                    "access through `{base}`, which is neither a pointer parameter nor a derived pointer"
                ));
            };
            if let Some(e) = &pl.add_expr {
                total = total.add(&self.eval(e, pl.offset, 0)?);
            }
            base = pl.base.clone();
        }
        Err("pointer derivation chain too deep".to_string())
    }
}

/// k1 + k2 + k3 + k4(a,b): checks local to one unsafe kernel fn.
fn check_kernel_body(
    file: &SourceFile,
    f: &KernelFn,
    consts: &BTreeMap<String, i64>,
    findings: &mut Vec<Finding>,
) {
    let fn_off = offset_of_line(file, f.line);
    let ptr_params: Vec<_> = f
        .params
        .iter()
        .filter(|p| matches!(p.kind, ParamKind::PtrConst | ParamKind::PtrMut))
        .collect();

    // k2: contract presence and well-formedness.
    if f.contracts.is_empty() && f.requires.is_none() {
        findings.push(Finding::new(
            file,
            K2,
            fn_off,
            format!(
                "unsafe kernel `{}` has no kernel-contract annotations; declare every \
                 pointer bound and the required target features",
                f.name
            ),
        ));
        return; // Nothing to check accesses against.
    }
    for p in &ptr_params {
        if !f.contracts.iter().any(|c| c.param == p.name) {
            findings.push(Finding::new(
                file,
                K2,
                fn_off,
                format!(
                    "pointer parameter `{}` of `{}` has no `points-to len >=` contract",
                    p.name, f.name
                ),
            ));
        }
    }
    for c in &f.contracts {
        if !f.params.iter().any(|p| p.name == c.param) {
            findings.push(Finding::new(
                file,
                K2,
                offset_of_line(file, c.line),
                format!(
                    "kernel-contract names `{}`, which is not a parameter of `{}`",
                    c.param, f.name
                ),
            ));
        }
    }

    // k4(a): every intrinsic enabled by the target_feature attribute.
    for iu in &f.intrinsics {
        if !satisfies(&f.target_features, iu.feature) {
            findings.push(Finding::new(
                file,
                K4,
                iu.offset,
                format!(
                    "intrinsic `{}` needs target_feature({}), but `{}` only enables [{}]",
                    iu.name,
                    iu.feature,
                    f.name,
                    f.target_features.join(", ")
                ),
            ));
        }
    }
    // k4(b): the requires contract must state exactly the attribute.
    let attr_set: BTreeSet<&str> = f.target_features.iter().map(String::as_str).collect();
    match &f.requires {
        None if !f.target_features.is_empty() => findings.push(Finding::new(
            file,
            K4,
            fn_off,
            format!(
                "`{}` enables target features but declares no `requires target_feature(...)` contract",
                f.name
            ),
        )),
        Some(r) => {
            let req_set: BTreeSet<&str> = r.features.iter().map(String::as_str).collect();
            if req_set != attr_set {
                findings.push(Finding::new(
                    file,
                    K4,
                    offset_of_line(file, r.line),
                    format!(
                        "contract requires target_feature({}) but `{}` enables ({})",
                        r.features.join(", "),
                        f.name,
                        f.target_features.join(", ")
                    ),
                ));
            }
        }
        None => {}
    }

    // k1 + k3: every access in bounds and sufficiently aligned.
    let ctx = EvalCtx { consts, f };
    for acc in &f.accesses {
        let what = acc
            .intrinsic
            .clone()
            .unwrap_or_else(|| format!("*{}", acc.base));
        let (root, off) = match ctx.resolve_access(acc) {
            Ok(v) => v,
            Err(e) => {
                findings.push(Finding::new(
                    file,
                    K1,
                    acc.offset,
                    format!("cannot bound `{what}` in `{}`: {e}", f.name),
                ));
                continue;
            }
        };
        let Some(contract) = f.contracts.iter().find(|c| c.param == root) else {
            continue; // k2 already reported the missing contract.
        };
        let bound = match ctx.eval(&contract.bound, f.body.start, 0) {
            Ok(b) => b,
            Err(e) => {
                findings.push(Finding::new(
                    file,
                    K2,
                    offset_of_line(file, contract.line),
                    format!("unparseable contract bound `{}`: {e}", contract.bound),
                ));
                continue;
            }
        };
        let end = off.add(&Poly::constant(acc.width));
        let slack = bound.sub(&end);
        if !slack.ge_zero(&ctx.mins(acc.offset)) {
            findings.push(Finding::new(
                file,
                K1,
                acc.offset,
                format!(
                    "`{what}` reaches element {end} of `{root}`, but the contract only \
                     guarantees `{root}` holds {bound} elements",
                ),
            ));
        }
        if acc.req_align > contract.align {
            findings.push(Finding::new(
                file,
                K3,
                acc.offset,
                format!(
                    "`{what}` demands {}-byte alignment but the contract for `{root}` declares {}",
                    acc.req_align,
                    if contract.align == 0 {
                        "none".to_string()
                    } else {
                        format!("align({})", contract.align)
                    }
                ),
            ));
        }
    }
}

/// Element count guaranteed by a wrapper parameter's own type, e.g.
/// `&mut [[f32; NR]; MR]` -> MR * NR. `None` for slices (dynamic).
fn type_len(ty: &str, consts: &BTreeMap<String, i64>) -> Option<Poly> {
    let t = ty
        .trim()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim();
    if !t.starts_with('[') {
        return None;
    }
    let inner = t.strip_prefix('[')?.strip_suffix(']')?;
    // Top-level `;` splits element type from length.
    let mut depth = 0i32;
    let mut semi = None;
    for (i, c) in inner.bytes().enumerate() {
        match c {
            b'[' | b'(' => depth += 1,
            b']' | b')' => depth -= 1,
            b';' if depth == 0 => {
                semi = Some(i);
                break;
            }
            _ => {}
        }
    }
    let semi = semi?; // `[T]` (slice): dynamic length.
    let elem = inner[..semi].trim();
    let len_text = inner[semi + 1..].trim();
    let resolve = |name: &str| consts.get(name).map(|&c| Poly::constant(c));
    let len = expr::parse(len_text, &resolve).ok()?;
    let elem_count = if elem.starts_with('[') {
        type_len(elem, consts)?
    } else {
        Poly::constant(1)
    };
    Some(len.mul(&elem_count))
}

/// Strip an argument expression like `ap.as_ptr()` or
/// `acc.as_flattened_mut().as_mut_ptr()` to its root identifier.
fn arg_root(text: &str) -> Option<String> {
    let t = text.trim();
    let b = t.as_bytes();
    let mut j = 0;
    while j < b.len() && is_ident_char(b[j] as char) {
        j += 1;
    }
    if j == 0 {
        return None;
    }
    let root = t[..j].to_string();
    let mut rest = &t[j..];
    while let Some(r) = rest.strip_prefix('.') {
        let mut k = 0;
        let rb = r.as_bytes();
        while k < rb.len() && is_ident_char(rb[k] as char) {
            k += 1;
        }
        rest = r[k..].strip_prefix("()")?;
    }
    if rest.trim().is_empty() {
        Some(root)
    } else {
        None
    }
}

/// First `<root>.len() >= <expr>` precondition of the wrapper, if any.
fn precondition_bound(f: &KernelFn, root: &str) -> Option<String> {
    for p in &f.preconditions {
        let stripped: String = p.cond.chars().filter(|c| !c.is_whitespace()).collect();
        let prefix = format!("{root}.len()>=");
        if let Some(rest) = stripped.strip_prefix(&prefix) {
            return Some(rest.to_string());
        }
    }
    None
}

/// k4(c) + k5 + k7: each unsafe kernel's safe wrapper must justify
/// every declared contract.
fn check_wrappers(
    file: &SourceFile,
    fns: &[KernelFn],
    consts: &BTreeMap<String, i64>,
    findings: &mut Vec<Finding>,
) {
    for imp in fns.iter().filter(|f| f.is_unsafe) {
        if imp.contracts.is_empty() && imp.requires.is_none() {
            continue; // k2 already fired.
        }
        let wrapper_call: Option<(&KernelFn, CallSite)> = fns
            .iter()
            .filter(|w| !w.is_unsafe)
            .find_map(|w| find_call_in(file, &w.body, &imp.name).map(|c| (w, c)));
        let Some((wrapper, call)) = wrapper_call else {
            findings.push(Finding::new(
                file,
                K5,
                offset_of_line(file, imp.line),
                format!(
                    "unsafe kernel `{}` has no safe wrapper in this file asserting its contracts",
                    imp.name
                ),
            ));
            continue;
        };

        // k4(c): runtime feature detection in the wrapper, unless the
        // feature is baseline for the contract's declared arch.
        if let Some(req) = &imp.requires {
            if req.baseline.is_none() {
                for feat in req.features.iter().filter(|f| *f != "sse2") {
                    let probe = format!("is_x86_feature_detected!(\"{feat}\")");
                    if !wrapper
                        .preconditions
                        .iter()
                        .any(|p| p.cond.contains(&probe))
                    {
                        findings.push(Finding::new(
                            file,
                            K4,
                            offset_of_line(file, wrapper.line),
                            format!(
                                "wrapper `{}` enters `{}` without asserting {probe}",
                                wrapper.name, imp.name
                            ),
                        ));
                    }
                }
            }
        }

        // Positional argument map: imp param -> wrapper argument text.
        if call.args.len() != imp.params.len() {
            findings.push(Finding::new(
                file,
                K5,
                call.offset,
                format!(
                    "call to `{}` passes {} arguments but it declares {} parameters",
                    imp.name,
                    call.args.len(),
                    imp.params.len()
                ),
            ));
            continue;
        }

        // Rename imp usize params to the wrapper identifiers feeding
        // them, so bounds and guarantees share a vocabulary.
        let mut rename: BTreeMap<String, String> = BTreeMap::new();
        for (p, a) in imp.params.iter().zip(&call.args) {
            if p.kind == ParamKind::Usize && a.bytes().all(|b| is_ident_char(b as char)) {
                rename.insert(p.name.clone(), a.clone());
            }
        }
        let wrapper_resolve = |name: &str| {
            if let Some(&c) = consts.get(name) {
                return Some(Poly::constant(c));
            }
            Some(Poly::var(name))
        };

        // k5 per len contract; k7 aliasing across noalias operands.
        let mut noalias_roots: BTreeMap<String, String> = BTreeMap::new();
        for contract in &imp.contracts {
            let Some(idx) = imp.params.iter().position(|p| p.name == contract.param) else {
                continue; // k2 already reported the unknown name.
            };
            let arg = &call.args[idx];
            let Some(root) = arg_root(arg) else {
                findings.push(Finding::new(
                    file,
                    K5,
                    call.offset,
                    format!(
                        "cannot relate argument `{arg}` for `{}` of `{}` to a wrapper binding",
                        contract.param, imp.name
                    ),
                ));
                continue;
            };
            if contract.noalias {
                if let Some(other) = noalias_roots.insert(root.clone(), contract.param.clone()) {
                    findings.push(Finding::new(
                        file,
                        K7,
                        call.offset,
                        format!(
                            "noalias operands `{other}` and `{}` of `{}` are both fed from `{root}`",
                            contract.param, imp.name
                        ),
                    ));
                }
            }

            // Guarantee: wrapper parameter type, or an asserted
            // `root.len() >= expr` precondition.
            let wrapper_ty = wrapper
                .params
                .iter()
                .find(|p| p.name == root)
                .map(|p| p.ty.clone())
                .unwrap_or_default();
            let guarantee = if let Some(g) = type_len(&wrapper_ty, consts) {
                Some(g)
            } else {
                precondition_bound(wrapper, &root)
                    .and_then(|b| expr::parse(&b, &wrapper_resolve).ok())
            };
            let Some(guarantee) = guarantee else {
                findings.push(Finding::new(
                    file,
                    K5,
                    offset_of_line(file, contract.line),
                    format!(
                        "contract `{} points-to len >= {}` of `{}` is not backed by wrapper \
                         `{}`: no kernel_precondition! asserts `{root}.len() >= ...` and the \
                         parameter type is not a fixed-size array",
                        contract.param, contract.bound, imp.name, wrapper.name
                    ),
                ));
                continue;
            };
            // Contract bound in wrapper vocabulary.
            let imp_resolve = |name: &str| {
                if let Some(&c) = consts.get(name) {
                    return Some(Poly::constant(c));
                }
                Some(Poly::var(rename.get(name).map_or(name, String::as_str)))
            };
            let bound = match expr::parse(&contract.bound, &imp_resolve) {
                Ok(b) => b,
                Err(e) => {
                    findings.push(Finding::new(
                        file,
                        K2,
                        offset_of_line(file, contract.line),
                        format!("unparseable contract bound `{}`: {e}", contract.bound),
                    ));
                    continue;
                }
            };
            if !guarantee.sub(&bound).ge_zero(&BTreeMap::new()) {
                findings.push(Finding::new(
                    file,
                    K5,
                    offset_of_line(file, contract.line),
                    format!(
                        "wrapper `{}` guarantees `{root}` holds {guarantee} elements but the \
                         contract of `{}` requires {bound}",
                        wrapper.name, imp.name
                    ),
                ));
            }
        }
    }
}

/// k6 part 1: the shared `microkernel` entry must assert the packing
/// invariants every backend kernel's contract consumes.
fn check_microkernel_def(zone: &[ZoneFile], findings: &mut Vec<Finding>) {
    for z in zone {
        for f in &z.fns {
            if f.name != "microkernel" {
                continue;
            }
            let have: Vec<String> = f
                .preconditions
                .iter()
                .map(|p| p.cond.chars().filter(|c| !c.is_whitespace()).collect())
                .collect();
            for (needed, what) in [
                ("ap.len()>=kc*MR", "the packed A panel length"),
                ("bp.len()>=kc*NR", "the packed B panel length"),
                ("mr_eff<=MR&&nr_eff<=NR", "the micro-tile bounds"),
            ] {
                if !have.iter().any(|h| h == needed) {
                    findings.push(Finding::new(
                        &z.file,
                        K6,
                        offset_of_line(&z.file, f.line),
                        format!(
                            "`microkernel` no longer asserts {what} (`{needed}`); backend \
                             kernel contracts assume it"
                        ),
                    ));
                }
            }
        }
    }
}

/// Resolve a driver panel argument (`ap_panel`, `&bp[lo..hi]`) to its
/// symbolic slice length.
fn panel_len(
    file: &SourceFile,
    arg: &str,
    call_offset: usize,
    fn_body: &std::ops::Range<usize>,
    consts: &BTreeMap<String, i64>,
) -> Result<Poly, String> {
    let resolve = |name: &str| {
        Some(match consts.get(name) {
            Some(&c) => Poly::constant(c),
            None => Poly::var(name),
        })
    };
    let t = arg.trim();
    // `<rows>.map(|r| &r[lo..hi])`: an array of row segments, each of
    // the closure body's length.
    if let Some(body) = t
        .strip_suffix(')')
        .and_then(|t| t.split_once(".map(|"))
        .and_then(|(_, closure)| closure.split_once('|'))
        .map(|(_, body)| body)
    {
        return panel_len(file, body, call_offset, fn_body, consts);
    }
    if let Some(rest) = t.strip_prefix('&') {
        let rest = rest.trim_start_matches("mut ").trim();
        let open = rest
            .find('[')
            .ok_or_else(|| format!("`&{rest}` is not a slice expression"))?;
        let inner = rest[open + 1..]
            .strip_suffix(']')
            .ok_or_else(|| format!("unterminated slice index in `{t}`"))?;
        let (lo, hi) = inner
            .split_once("..")
            .ok_or_else(|| format!("`{inner}` is not a range index"))?;
        let lo = if lo.trim().is_empty() {
            Poly::constant(0)
        } else {
            expr::parse(lo, &resolve)?
        };
        let hi = expr::parse(hi, &resolve)?;
        return Ok(hi.sub(&lo));
    }
    if t.bytes().all(|b| is_ident_char(b as char)) {
        // Find the last `let <t> = <rhs>;` before the call.
        let masked = &file.masked;
        let mut best: Option<usize> = None;
        let mut i = fn_body.start;
        while let Some(pos) = find_word(masked, t, i) {
            if pos >= call_offset || pos >= fn_body.end {
                break;
            }
            i = pos + t.len();
            let before = masked[..pos].trim_end();
            if before.ends_with("let") {
                best = Some(pos);
            }
        }
        let pos = best.ok_or_else(|| format!("no `let {t} = ...` binding before the call"))?;
        let eq = masked[pos..]
            .find('=')
            .map(|p| pos + p + 1)
            .ok_or_else(|| format!("malformed binding for `{t}`"))?;
        let semi = masked[eq..]
            .find(';')
            .map(|p| eq + p)
            .ok_or_else(|| format!("unterminated binding for `{t}`"))?;
        return panel_len(file, masked[eq..semi].trim(), call_offset, fn_body, consts);
    }
    Err(format!("cannot resolve panel argument `{t}`"))
}

/// k6 part 2: every driver call site passes exactly the panel lengths
/// the kernel contracts consume.
fn check_driver_calls(
    driver: &SourceFile,
    consts: &BTreeMap<String, i64>,
    findings: &mut Vec<Finding>,
) {
    let fns = driver.functions();
    let resolve = |name: &str| {
        Some(match consts.get(name) {
            Some(&c) => Poly::constant(c),
            None => Poly::var(name),
        })
    };
    struct CallSpec {
        callee: &'static str,
        arity: usize,
        kc_idx: usize,
        /// (arg index, per-kc element count, label).
        panels: &'static [(usize, &'static str, &'static str)],
    }
    const SPECS: [CallSpec; 2] = [
        CallSpec {
            callee: "microkernel",
            arity: 11,
            kc_idx: 1,
            panels: &[(3, "MR", "packed A panel"), (4, "NR", "packed B panel")],
        },
        CallSpec {
            callee: "bt_fn",
            arity: 4,
            kc_idx: 0,
            panels: &[(1, "MR", "packed A panel"), (2, "1", "B row segments")],
        },
    ];
    for CallSpec {
        callee,
        arity,
        kc_idx,
        panels,
    } in &SPECS
    {
        let whole = 0..driver.masked.len();
        for call in find_calls_in(driver, &whole, callee) {
            let line0 = driver.line_of(call.offset);
            if driver.test_lines.get(line0).copied().unwrap_or(false) {
                continue;
            }
            let Some(fn_body) = fns
                .iter()
                .filter_map(|f| f.body.clone())
                .find(|b| b.contains(&call.offset))
            else {
                continue;
            };
            if call.args.len() != *arity {
                findings.push(Finding::new(
                    driver,
                    K6,
                    call.offset,
                    format!(
                        "`{callee}` call passes {} arguments, expected {arity}; cannot verify \
                         panel guarantees",
                        call.args.len()
                    ),
                ));
                continue;
            }
            let kc = match expr::parse(&call.args[*kc_idx], &resolve) {
                Ok(p) => p,
                Err(e) => {
                    findings.push(Finding::new(
                        driver,
                        K6,
                        call.offset,
                        format!("cannot resolve kc argument `{}`: {e}", call.args[*kc_idx]),
                    ));
                    continue;
                }
            };
            for (idx, per_kc, label) in *panels {
                let expected = match expr::parse(per_kc, &resolve) {
                    Ok(p) => kc.mul(&p),
                    Err(_) => continue,
                };
                match panel_len(driver, &call.args[*idx], call.offset, &fn_body, consts) {
                    Ok(len) if len == expected => {}
                    Ok(len) => findings.push(Finding::new(
                        driver,
                        K6,
                        call.offset,
                        format!(
                            "{label} passed to `{callee}` has length {len}, but \
                             kc = {kc} requires exactly {expected}"
                        ),
                    )),
                    Err(e) => findings.push(Finding::new(
                        driver,
                        K6,
                        call.offset,
                        format!("cannot verify {label} passed to `{callee}`: {e}"),
                    )),
                }
            }
        }
    }
}

/// Wrapper name -> features its unsafe kernel requires.
fn wrapper_requirements(zone: &[ZoneFile]) -> BTreeMap<String, Vec<String>> {
    let mut wrapper_reqs = BTreeMap::new();
    for z in zone {
        for imp in z.fns.iter().filter(|f| f.is_unsafe) {
            let Some(req) = &imp.requires else { continue };
            for w in z.fns.iter().filter(|w| !w.is_unsafe) {
                if find_call_in(&z.file, &w.body, &imp.name).is_some() {
                    wrapper_reqs.insert(w.name.clone(), req.features.clone());
                }
            }
        }
    }
    wrapper_reqs
}

/// Zone modules whose loops exist in several instantiations, picked by
/// CPUID in the drivers rather than by a backend's ISA gate.
const INSTANTIATED_MODULES: [&str; 2] = ["kernel::scalar::", "kernel::elementwise::"];

/// k4(e): the scalar backend (`backend.rs`) and the element-wise
/// dispatch (`vmath.rs`) pick between instantiations of one loop; a
/// feature-gated one (`kernel::scalar::acc_fma`,
/// `kernel::elementwise::row_op_avx2`) may only be named after the
/// enclosing fn has probed every feature it requires.
fn check_instantiation_selection(
    driver: &SourceFile,
    wrapper_reqs: &BTreeMap<String, Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    for body in driver.functions().into_iter().filter_map(|f| f.body) {
        for path in INSTANTIATED_MODULES {
            let mut i = body.start;
            while let Some(pos) = driver.masked[i..body.end].find(path).map(|p| i + p) {
                i = pos + path.len();
                let name: String = driver.masked[i..]
                    .chars()
                    .take_while(|&c| is_ident_char(c))
                    .collect();
                for feat in wrapper_reqs.get(&name).into_iter().flatten() {
                    let probe = format!("is_x86_feature_detected!(\"{feat}\")");
                    if !driver.raw[body.start..pos].contains(&probe) {
                        findings.push(Finding::new(
                            driver,
                            K4,
                            pos,
                            format!(
                                "`{path}{name}` requires target_feature({feat}) but is \
                                 selected without a preceding {probe}"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// k4(d): `backend.rs` ISA variants may only dispatch kernels whose
/// feature requirements the variant's runtime gate implies.
fn check_backend_dispatch(
    backend: &SourceFile,
    wrapper_reqs: &BTreeMap<String, Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    let masked = &backend.masked;
    let mut i = 0;
    while let Some(pos) = find_word(masked, "impl", i) {
        i = pos + 4;
        let Some(open) = masked[pos..].find('{').map(|p| pos + p) else {
            break;
        };
        let header = &masked[pos..open];
        if !header.contains("ComputeBackend for") {
            continue;
        }
        let Some(close) = match_brace(masked, open) else {
            continue;
        };
        i = open + 1;
        let block = &masked[open..close];
        // ISA variant: first `Isa::X` in the block.
        let Some(isa_at) = block.find("Isa::") else {
            continue;
        };
        let after = &block[isa_at + 5..];
        let variant: String = after.chars().take_while(|&c| is_ident_char(c)).collect();
        let Some(allowed) = isa_allowed(&variant) else {
            continue;
        };
        // Every kernel path `kernel::<module>::<name>` in the block.
        let mut j = 0;
        while let Some(kpos) = find_word(block, "kernel", j) {
            j = kpos + 6;
            let rest = &block[kpos..];
            let Some(rest2) = rest.strip_prefix("kernel::") else {
                continue;
            };
            let module: String = rest2.chars().take_while(|&c| is_ident_char(c)).collect();
            let Some(rest3) = rest2[module.len()..].strip_prefix("::") else {
                continue;
            };
            let name: String = rest3.chars().take_while(|&c| is_ident_char(c)).collect();
            let Some(reqs) = wrapper_reqs.get(&name) else {
                if module == "scalar" {
                    continue; // Safe generic reference kernels.
                }
                findings.push(Finding::new(
                    backend,
                    K4,
                    open + isa_at,
                    format!(
                        "backend Isa::{variant} dispatches `kernel::{module}::{name}`, which has \
                         no contract-annotated kernel behind it"
                    ),
                ));
                continue;
            };
            for feat in reqs {
                if !allowed.contains(&feat.as_str()) {
                    findings.push(Finding::new(
                        backend,
                        K4,
                        open + kpos,
                        format!(
                            "backend Isa::{variant} dispatches `{name}`, which requires \
                             target_feature({feat}) — outside what Isa::{variant}::available() \
                             guarantees"
                        ),
                    ));
                }
            }
        }
    }
}

/// Run every check over the model. Returns findings plus the coverage
/// table and per-kernel summaries for the report.
pub fn run(
    zone: &[ZoneFile],
    drivers: &[SourceFile],
    consts: &BTreeMap<String, i64>,
) -> (Vec<Finding>, Vec<CoverageSite>, Vec<KernelSummary>) {
    let mut findings = Vec::new();
    for z in zone {
        for (line, msg) in &z.malformed {
            findings.push(Finding::new(
                &z.file,
                K2,
                offset_of_line(&z.file, *line),
                format!("malformed kernel-contract: {msg}"),
            ));
        }
        for f in z.fns.iter().filter(|f| f.is_unsafe) {
            check_kernel_body(&z.file, f, consts, &mut findings);
        }
        check_wrappers(&z.file, &z.fns, consts, &mut findings);
    }
    check_microkernel_def(zone, &mut findings);
    let wrapper_reqs = wrapper_requirements(zone);
    for d in drivers {
        if d.path.ends_with("backend.rs") {
            check_backend_dispatch(d, &wrapper_reqs, &mut findings);
            check_instantiation_selection(d, &wrapper_reqs, &mut findings);
        } else if d.path.ends_with("vmath.rs") {
            check_instantiation_selection(d, &wrapper_reqs, &mut findings);
        } else {
            check_driver_calls(d, consts, &mut findings);
        }
    }

    let (coverage, kernels) = build_coverage(zone, &findings);
    (findings, coverage, kernels)
}

fn contract_span(z: &ZoneFile, f: &KernelFn) -> (usize, usize) {
    let start = f
        .contracts
        .iter()
        .map(|c| c.line)
        .chain(f.requires.iter().map(|r| r.line))
        .min()
        .unwrap_or(f.line)
        .min(f.line);
    let end = z
        .file
        .line_of(f.body.end.min(z.file.masked.len().saturating_sub(1)))
        + 1;
    (start, end)
}

fn build_coverage(
    zone: &[ZoneFile],
    findings: &[Finding],
) -> (Vec<CoverageSite>, Vec<KernelSummary>) {
    let mut coverage = Vec::new();
    let mut kernels = Vec::new();
    let dirty = |path: &str, lo: usize, hi: usize| {
        findings
            .iter()
            .any(|fd| fd.path == path && fd.line >= lo && fd.line <= hi)
    };
    for z in zone {
        for f in &z.fns {
            kernels.push(KernelSummary {
                path: z.file.path.clone(),
                name: f.name.clone(),
                line: f.line,
                is_unsafe: f.is_unsafe,
                contracts: f.contracts.len() + usize::from(f.requires.is_some()),
                accesses: f.accesses.len(),
                intrinsics: f.intrinsics.len(),
                preconditions: f.preconditions.len(),
            });
            if !f.is_unsafe {
                continue;
            }
            let (lo, hi) = contract_span(z, f);
            let mut via: Vec<String> = f.contracts.iter().map(contract_text).collect();
            if let Some(r) = &f.requires {
                via.push(format!(
                    "requires target_feature({})",
                    r.features.join(", ")
                ));
            }
            coverage.push(CoverageSite {
                path: z.file.path.clone(),
                line: f.line,
                kind: "unsafe_fn",
                item: f.name.clone(),
                covered: !via.is_empty() && !dirty(&z.file.path, lo, hi),
                via,
            });
        }
        for ub in &z.unsafe_blocks {
            // The kernel entered from this block determines coverage.
            let wrapper = ub
                .in_fn
                .as_ref()
                .and_then(|n| z.fns.iter().find(|f| &f.name == n));
            let imp = wrapper.and_then(|w| {
                z.fns
                    .iter()
                    .filter(|f| f.is_unsafe)
                    .find(|f| find_call_in(&z.file, &w.body, &f.name).is_some())
            });
            let (covered, via) = match (wrapper, imp) {
                (Some(w), Some(imp)) => {
                    let (ilo, ihi) = contract_span(z, imp);
                    let wlo = w.line;
                    let whi = z
                        .file
                        .line_of(w.body.end.min(z.file.masked.len().saturating_sub(1)))
                        + 1;
                    let clean = !dirty(&z.file.path, ilo, ihi) && !dirty(&z.file.path, wlo, whi);
                    let mut via: Vec<String> = imp.contracts.iter().map(contract_text).collect();
                    via.push(format!(
                        "{} preconditions in `{}`",
                        w.preconditions.len(),
                        w.name
                    ));
                    // A kernel over safe slices has no pointer bounds
                    // to declare: its feature requirement is its
                    // whole contract.
                    let contracted = !imp.contracts.is_empty() || imp.requires.is_some();
                    (contracted && clean, via)
                }
                _ => (false, Vec::new()),
            };
            coverage.push(CoverageSite {
                path: z.file.path.clone(),
                line: ub.line,
                kind: "unsafe_block",
                item: ub
                    .in_fn
                    .clone()
                    .unwrap_or_else(|| "<file scope>".to_string()),
                covered,
                via,
            });
        }
    }
    (coverage, kernels)
}

fn contract_text(c: &LenContract) -> String {
    let mut s = format!("{} points-to len >= {}", c.param, c.bound);
    if c.noalias {
        s.push_str(", noalias");
    }
    if c.align > 0 {
        s.push_str(&format!(", align({})", c.align));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{feature_of, mem_intrinsic};

    /// Every intrinsic in the mem table must also carry a feature
    /// requirement — otherwise k1 would fire without k4 backing.
    fn mem_table_is_feature_covered() -> bool {
        [
            "_mm256_loadu_ps",
            "_mm512_storeu_pd",
            "vld1q_f32",
            "vst1q_f64",
        ]
        .iter()
        .all(|n| feature_of(n).is_some() && mem_intrinsic(n).is_some())
    }

    #[test]
    fn satisfies_encodes_the_feature_ladder() {
        let avx2 = vec!["avx2".to_string()];
        assert!(satisfies(&avx2, "avx"));
        assert!(satisfies(&avx2, "avx2"));
        assert!(satisfies(&avx2, "sse2"));
        assert!(!satisfies(&avx2, "avx512f"));
        let a512 = vec!["avx512f".to_string()];
        assert!(satisfies(&a512, "avx"));
        assert!(satisfies(&a512, "avx2"));
        assert!(!satisfies(&a512, "avx512dq"));
        assert!(!satisfies(&[], "neon"));
        // FMA is its own CPUID bit: neither AVX2 nor AVX-512F implies
        // the VEX-encoded fmadd, while the zmm fmadd is plain AVX512F.
        assert_eq!(feature_of("_mm256_fmadd_ps"), Some("fma"));
        assert_eq!(feature_of("_mm512_fmadd_pd"), Some("avx512f"));
        assert!(!satisfies(&avx2, "fma"));
        assert!(!satisfies(&a512, "fma"));
        assert!(satisfies(&["avx2".to_string(), "fma".to_string()], "fma"));
    }

    #[test]
    fn type_len_multiplies_nested_arrays() {
        let mut consts = BTreeMap::new();
        consts.insert("MR".to_string(), 8i64);
        consts.insert("NR".to_string(), 8i64);
        let p = type_len("&mut [[f32; NR]; MR]", &consts).expect("nested array");
        assert_eq!(p.as_const(), Some(64));
        let p = type_len("&mut [f64; MR]", &consts).expect("array");
        assert_eq!(p.as_const(), Some(8));
        assert!(type_len("&[f32]", &consts).is_none(), "slice is dynamic");
        assert!(type_len("usize", &consts).is_none());
    }

    #[test]
    fn arg_roots_strip_pointer_conversions() {
        assert_eq!(arg_root("ap.as_ptr()").as_deref(), Some("ap"));
        assert_eq!(
            arg_root("acc.as_flattened_mut().as_mut_ptr()").as_deref(),
            Some("acc")
        );
        assert_eq!(arg_root("kc").as_deref(), Some("kc"));
        assert_eq!(arg_root("a + b"), None);
    }

    #[test]
    fn mem_table_consistency() {
        assert!(mem_table_is_feature_covered());
    }
}
