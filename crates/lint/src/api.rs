//! Public-API listing (`pdnn-lint --api`): one line per `pub` item a
//! workspace crate exposes, kept as `results/public_api.txt` and
//! diffed by `scripts/verify.sh`, so every change shows its API delta.
//!
//! Like the lint rules, the listing is lexical: each file goes through
//! the masking lexer (`SourceFile`), and a brace scanner tracks the
//! module and `impl` scopes around each item. An item is listed when
//! every module from the crate root down to it is `pub`, or when a
//! `pub use` in the crate re-exports its name; an inherent method is
//! listed when its type is. `#[cfg(test)]` regions and `pub(...)`
//! items are skipped. Items that a macro declares are not seen: the
//! listing names the macro call instead (kind `macro!`), and a glob
//! re-export as the glob (`use m::*`).
//!
//! Line format: `<module path> <kind> <name>`, sorted, e.g.
//! `pdnn_util::rng struct Prng` or `pdnn_util::rng fn Prng::new`.

use crate::source::{is_ident_char, match_brace, SourceFile};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One declaration the scanner saw.
struct Item {
    module: String,
    /// Every module from the crate root to this item is `pub`.
    reachable: bool,
    is_pub: bool,
    kind: String,
    name: String,
    /// The self type of the inherent `impl` block a method sits in.
    owner: Option<String>,
}

/// A brace scope the scanner descends into; every other brace block
/// (fn bodies, struct fields, trait items, macro bodies) is skipped.
enum Scope {
    Module {
        path: String,
        reachable: bool,
        dir: PathBuf,
    },
    /// `None` for a trait impl, whose items are never listed.
    Impl(Option<String>),
}

/// The listing for the workspace at `root`: the root package and every
/// crate under `crates/` that has a `src/lib.rs`.
pub fn workspace_api(root: &Path) -> std::io::Result<String> {
    let mut roots = vec![root.to_path_buf()];
    let mut members: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    members.sort();
    roots.extend(members);
    let mut lines = BTreeSet::new();
    for dir in roots {
        let lib = dir.join("src/lib.rs");
        let Some(name) = package_name(&dir) else {
            continue;
        };
        if lib.is_file() {
            lines.extend(crate_api(&name.replace('-', "_"), &lib)?);
        }
    }
    Ok(lines.into_iter().map(|l| l + "\n").collect())
}

/// The `name` of the `[package]` table in `dir/Cargo.toml`.
fn package_name(dir: &Path) -> Option<String> {
    let toml = std::fs::read_to_string(dir.join("Cargo.toml")).ok()?;
    let package = toml.split("[package]").nth(1)?;
    let line = package
        .lines()
        .take_while(|l| !l.starts_with('['))
        .find(|l| l.trim_start().starts_with("name"))?;
    Some(line.split('"').nth(1)?.to_string())
}

/// The listed lines of one crate, whose root file is `lib`.
fn crate_api(krate: &str, lib: &Path) -> std::io::Result<Vec<String>> {
    let mut items = Vec::new();
    let dir = lib.parent().map_or_else(PathBuf::new, Path::to_path_buf);
    let mut files = vec![(lib.to_path_buf(), krate.to_string(), true, dir)];
    while let Some((path, module, reachable, dir)) = files.pop() {
        let text = std::fs::read_to_string(&path)?;
        let file = SourceFile::parse(&path.to_string_lossy(), &text);
        scan(&file, module, reachable, dir, &mut items, &mut files);
    }

    // Names a `pub use` makes public, and the modules a glob opens.
    let mut reexported = BTreeSet::new();
    let mut globbed = BTreeSet::new();
    for it in items.iter().filter(|it| it.is_pub && it.kind == "use") {
        // `a::b as c` makes both `b` (the item) and `c` visible.
        for path in it.name.split(" as ") {
            let leaf = path.rsplit("::").next().unwrap_or("");
            if leaf == "*" {
                let module = path.trim_end_matches("::*").rsplit("::").next();
                globbed.insert(module.unwrap_or("").to_string());
            } else {
                reexported.insert(leaf.to_string());
            }
        }
    }
    let visible = |it: &Item| {
        it.is_pub
            && (it.reachable
                || it.owner.is_none()
                    && it.kind != "use"
                    && (reexported.contains(&it.name)
                        || globbed.contains(it.module.rsplit("::").next().unwrap_or(""))))
    };
    let types: BTreeSet<&str> = items
        .iter()
        .filter(|it| it.owner.is_none() && visible(it))
        .filter(|it| {
            matches!(
                it.kind.as_str(),
                "struct" | "enum" | "union" | "type" | "trait"
            )
        })
        .map(|it| it.name.as_str())
        .collect();
    Ok(items
        .iter()
        .filter(|it| match &it.owner {
            Some(owner) => it.is_pub && types.contains(owner.as_str()),
            None => visible(it),
        })
        .map(|it| match &it.owner {
            Some(owner) => format!("{} {} {owner}::{}", it.module, it.kind, it.name),
            None => format!("{} {} {}", it.module, it.kind, it.name),
        })
        .collect())
}

/// Record the items of one module file, queueing its out-of-line
/// submodules on `files`.
fn scan(
    file: &SourceFile,
    module: String,
    reachable: bool,
    dir: PathBuf,
    items: &mut Vec<Item>,
    files: &mut Vec<(PathBuf, String, bool, PathBuf)>,
) {
    let m = file.masked.as_str();
    let b = m.as_bytes();
    let mut stack = vec![Scope::Module {
        path: module,
        reachable,
        dir,
    }];
    let mut start = 0;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == b'}' {
            stack.pop();
            start = i + 1;
        }
        if c != b'{' && c != b';' {
            i += 1;
            continue;
        }
        let (attrs, header) = split_attrs(&m[start..i]);
        let h = parse_header(header);
        let body_end = if c == b'{' { match_brace(m, i) } else { None };
        // A brace inside a header (`use a::{b, c}`, a const's struct
        // literal, a macro call's arguments) does not end it.
        if c == b'{' && (matches!(h.kind, "use" | "const" | "static" | "type") || h.open) {
            i = body_end.map_or(b.len(), |e| e + 1);
            continue;
        }
        start = i + 1;
        // The enclosing module, and the impl's self type inside an
        // impl (`Some(None)` in a trait impl).
        let mut module = (String::new(), false, PathBuf::new());
        let mut in_impl = None;
        for scope in &stack {
            match scope {
                Scope::Module {
                    path,
                    reachable,
                    dir,
                } => {
                    module = (path.clone(), *reachable, dir.clone());
                    in_impl = None;
                }
                Scope::Impl(owner) => in_impl = Some(owner.clone()),
            }
        }
        let (path, reachable, dir) = module;
        let skip = attrs.contains("cfg(test)")
            || file.test_lines.get(file.line_of(i)) == Some(&true)
            || in_impl == Some(None);
        let mut record = |kind: &str, name: &str| {
            if skip || in_impl.is_some() && !matches!(kind, "fn" | "const" | "type") {
                return;
            }
            items.push(Item {
                module: path.clone(),
                reachable,
                // A macro call's items are unknown: list the call.
                is_pub: h.is_pub || h.bang,
                kind: kind.to_string(),
                name: name.to_string(),
                owner: in_impl.clone().flatten(),
            });
        };
        match h.kind {
            _ if h.bang && h.kind != "macro_rules" && in_impl.is_none() => {
                record("macro!", h.kind);
            }
            "mod" if !skip && in_impl.is_none() => {
                record("mod", h.name);
                let child = format!("{path}::{}", h.name);
                let child_dir = dir.join(h.name);
                let child_reachable = reachable && h.is_pub;
                if c == b';' {
                    let found = [dir.join(format!("{}.rs", h.name)), child_dir.join("mod.rs")]
                        .into_iter()
                        .find(|p| p.is_file());
                    if let Some(p) = found {
                        files.push((p, child, child_reachable, child_dir));
                    }
                } else {
                    stack.push(Scope::Module {
                        path: child,
                        reachable: child_reachable,
                        dir: child_dir,
                    });
                }
                i += 1;
                continue;
            }
            "impl" if !skip && c == b'{' && in_impl.is_none() => {
                stack.push(Scope::Impl(impl_self_type(h.rest)));
                i += 1;
                continue;
            }
            "use" => {
                for leaf in use_leaves(h.rest) {
                    record("use", &leaf);
                }
            }
            "fn" | "struct" | "enum" | "union" | "trait" | "type" | "const" | "static" => {
                record(h.kind, h.name);
            }
            _ => {}
        }
        if let Some(end) = body_end {
            (i, start) = (end, end + 1);
        }
        i += 1;
    }
}

/// Split leading attributes (`#[..]`, `#![..]`) off an item header.
fn split_attrs(text: &str) -> (&str, &str) {
    let mut rest = text.trim_start();
    let whole = rest;
    while rest.starts_with('#') {
        let Some(open) = rest.find('[') else { break };
        let mut depth = 0;
        let close = rest[open..].char_indices().find_map(|(k, ch)| {
            depth += i32::from(ch == '[') - i32::from(ch == ']');
            (depth == 0).then_some(open + k)
        });
        match close {
            Some(close) => rest = rest[close + 1..].trim_start(),
            None => break,
        }
    }
    (&whole[..whole.len() - rest.len()], rest.trim_end())
}

/// An item header: visibility, kind keyword and name, and the text
/// after the kind (a `use` tree, an `impl` target).
struct Header<'a> {
    is_pub: bool,
    /// `fn`, `struct`, …, `impl`; the macro's name for a macro call.
    kind: &'a str,
    /// A macro call (`name!`, `macro_rules!`).
    bang: bool,
    /// Inside a macro call's unclosed `(`/`[` arguments.
    open: bool,
    name: &'a str,
    rest: &'a str,
}

fn parse_header(header: &str) -> Header<'_> {
    let mut t = header.trim_start();
    let mut is_pub = false;
    if let Some(after) = t
        .strip_prefix("pub")
        .filter(|a| !a.starts_with(is_ident_char))
    {
        let after = after.trim_start();
        if after.starts_with('(') {
            // `pub(crate)` and kin: not part of the public API.
            t = after.find(')').map_or("", |p| &after[p + 1..]);
        } else {
            is_pub = true;
            t = after;
        }
    }
    let mut kind;
    loop {
        (kind, t) = ident(t);
        match kind {
            "unsafe" | "async" | "default" => {}
            "const" if matches!(ident(t).0, "fn" | "unsafe" | "async" | "extern") => {}
            // The ABI string's interior is masked; its quotes are kept.
            "extern" => {
                t = t
                    .strip_prefix('"')
                    .and_then(|r| r.split_once('"'))
                    .map_or(t, |(_, r)| r.trim_start());
            }
            _ => break,
        }
    }
    if let Some(args) = t.strip_prefix('!') {
        let depth: i32 = args
            .chars()
            .map(|ch| i32::from(matches!(ch, '(' | '[')) - i32::from(matches!(ch, ')' | ']')))
            .sum();
        return Header {
            is_pub,
            kind,
            bang: true,
            open: depth > 0,
            name: "",
            rest: args,
        };
    }
    let (mut name, mut rest) = ident(t);
    if kind == "static" && name == "mut" {
        (name, rest) = ident(rest);
    }
    if kind == "impl" || kind == "use" {
        rest = t;
    }
    Header {
        is_pub,
        kind,
        bang: false,
        open: false,
        name,
        rest,
    }
}

/// The leading identifier of `t` and the trimmed text after it.
fn ident(t: &str) -> (&str, &str) {
    let t = t.trim_start();
    let end = t.find(|ch: char| !is_ident_char(ch)).unwrap_or(t.len());
    (&t[..end], t[end..].trim_start())
}

/// The self type's name of an inherent `impl`; `None` for a trait impl.
fn impl_self_type(rest: &str) -> Option<String> {
    let mut depth = 0i32;
    let mut target = rest.trim_start();
    if target.starts_with('<') {
        let close = target.char_indices().find_map(|(k, ch)| {
            depth += i32::from(ch == '<') - i32::from(ch == '>');
            (depth == 0).then_some(k)
        })?;
        target = &target[close + 1..];
    }
    let words: Vec<&str> = target.split_whitespace().collect();
    if words.contains(&"for") {
        return None;
    }
    let path = words.first()?.split('<').next()?;
    Some(path.rsplit("::").next()?.to_string())
}

/// The leaves of a `use` tree, each with its full path:
/// `a::{b, c::{d as e}}` gives `a::b` and `a::c::d as e`.
fn use_leaves(tree: &str) -> Vec<String> {
    fn walk(prefix: &str, tree: &str, out: &mut Vec<String>) {
        let tree = tree.trim();
        match tree.find('{') {
            Some(open) if tree.ends_with('}') => {
                let head = format!("{prefix}{}", &tree[..open]);
                let inner = &tree[open + 1..tree.len() - 1];
                let mut depth = 0i32;
                let mut from = 0;
                for (k, ch) in inner.char_indices() {
                    depth += i32::from(ch == '{') - i32::from(ch == '}');
                    if ch == ',' && depth == 0 {
                        walk(&head, &inner[from..k], out);
                        from = k + 1;
                    }
                }
                walk(&head, &inner[from..], out);
            }
            _ if !tree.is_empty() => out.push(format!(
                "{prefix}{}",
                tree.split_whitespace().collect::<Vec<_>>().join(" ")
            )),
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk("", tree, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing_follows_visibility_reexports_and_impls() {
        let tmp = std::env::temp_dir().join(format!("pdnn-lint-api-{}", std::process::id()));
        let src = tmp.join("crates/a/src");
        std::fs::create_dir_all(src.join("m")).unwrap();
        let files = [
            ("Cargo.toml", "[workspace]\n[package]\nname = \"root\"\n"),
            ("crates/a/Cargo.toml", "[package]\nname = \"a-b\"\n"),
            (
                "crates/a/src/lib.rs",
                "//! doc with pub fn inside a comment\n\
                 pub mod m;\n\
                 mod hidden;\n\
                 pub use hidden::{Shown, other::{X as Y}};\n\
                 macro_rules! mk { ($t:ty) => { impl Foo for $t {} }; }\n\
                 mk!(f32; 3);\n\
                 pub struct S { pub a: u32 }\n\
                 impl S { pub fn new() -> S { S { a: 1 } } fn private() {} pub const K: u32 = 3; }\n\
                 impl Tr for S { fn x() {} }\n\
                 pub const C: [u8; 2] = [1; 2];\n\
                 pub(crate) fn no() {}\n\
                 pub const fn cf() -> &'static str { \"pub fn fake\" }\n\
                 mod inl { pub fn deep() {} }\n\
                 pub mod inl2 { pub struct T; impl<X: Into<u8>> T { pub fn go(&self) {} } }\n\
                 #[cfg(test)]\n\
                 mod tests { pub fn t() {} }\n",
            ),
            ("crates/a/src/m/mod.rs", "pub fn in_m() {}\npub mod sub;\n"),
            ("crates/a/src/m/sub.rs", "pub fn in_sub() {}\n"),
            (
                "crates/a/src/hidden.rs",
                "pub struct Shown;\npub struct NotShown;\npub mod other { pub struct X; }\n",
            ),
        ];
        for (path, text) in files {
            std::fs::write(tmp.join(path), text).unwrap();
        }
        let listing = workspace_api(&tmp).unwrap();
        std::fs::remove_dir_all(&tmp).unwrap();
        let expect = "\
a_b const C
a_b const S::K
a_b fn S::new
a_b fn cf
a_b macro! mk
a_b mod inl2
a_b mod m
a_b struct S
a_b use hidden::Shown
a_b use hidden::other::X as Y
a_b::hidden struct Shown
a_b::hidden::other struct X
a_b::inl2 fn T::go
a_b::inl2 struct T
a_b::m fn in_m
a_b::m mod sub
a_b::m::sub fn in_sub
";
        assert_eq!(listing, expect);
    }
}
