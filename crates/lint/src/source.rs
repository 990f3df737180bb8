//! Lexical source model: comment/literal masking, suppression
//! comments, test-region detection, and function extraction.
//!
//! `pdnn-lint` deliberately avoids a full parser (the build
//! environment cannot fetch `syn`); instead every rule runs over a
//! *masked* view of the file in which comment bodies and string/char
//! literal contents are replaced by spaces. Token-level pattern
//! matching on that view cannot be fooled by `"panic!"` inside a
//! string or `HashMap` inside a doc comment, which is all the
//! project-specific rules need.

/// One comment (line or block) with the line it starts on (0-based).
#[derive(Clone, Debug)]
pub(crate) struct Comment {
    pub line: usize,
    /// Comment text without the `//` / `/* */` delimiters.
    pub text: String,
    /// True when the comment is the only thing on its line (after
    /// leading whitespace), i.e. it annotates the *next* code line.
    pub standalone: bool,
}

/// A `fn` item found in the masked source.
#[derive(Clone, Debug)]
pub(crate) struct FnItem {
    pub name: String,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    pub is_pub: bool,
    /// Byte range of the body (between `{` and `}`) in the masked
    /// text; `None` for bodyless trait-method signatures.
    pub body: Option<std::ops::Range<usize>>,
}

/// Lexical view of one source file.
pub(crate) struct SourceFile {
    /// Repo-relative path, `/`-separated.
    pub path: String,
    /// Raw text (for diagnostic snippets).
    pub raw: String,
    /// Same length as `raw`; comments and literal interiors blanked.
    pub masked: String,
    pub comments: Vec<Comment>,
    /// Per (0-based) line: inside a `#[cfg(test)]` region or a
    /// `#[test]` function.
    pub test_lines: Vec<bool>,
}

impl SourceFile {
    pub(crate) fn parse(path: &str, raw: &str) -> SourceFile {
        let (masked, comments) = mask(raw);
        let line_count = raw.lines().count();
        let mut file = SourceFile {
            path: path.to_string(),
            raw: raw.to_string(),
            masked,
            comments,
            test_lines: vec![false; line_count],
        };
        file.mark_test_regions();
        file
    }

    /// 0-based line number of byte `offset` in the masked text.
    pub(crate) fn line_of(&self, offset: usize) -> usize {
        self.masked[..offset]
            .bytes()
            .filter(|&b| b == b'\n')
            .count()
    }

    /// 1-based column of byte `offset`.
    pub(crate) fn col_of(&self, offset: usize) -> usize {
        let start = self.masked[..offset].rfind('\n').map_or(0, |p| p + 1);
        offset - start + 1
    }

    /// The raw text of a (0-based) line, for diagnostics.
    pub(crate) fn raw_line(&self, line: usize) -> &str {
        self.raw.lines().nth(line).unwrap_or("")
    }

    fn mark_test_regions(&mut self) {
        let lines: Vec<&str> = self.masked.lines().collect();
        let mut line_starts = Vec::with_capacity(lines.len());
        let mut off = 0;
        for l in self.masked.lines() {
            line_starts.push(off);
            off += l.len() + 1;
        }
        for (i, l) in lines.iter().enumerate() {
            let t = l.trim();
            let is_cfg_test = t.starts_with("#[cfg(") && t.contains("test");
            let is_test_attr = t == "#[test]" || t.starts_with("#[should_panic");
            if !is_cfg_test && !is_test_attr {
                continue;
            }
            // The region is the brace block of the item that follows
            // the attribute. Scan forward from the end of this line
            // for the first `{` and mark until its matching `}`.
            let from = line_starts[i] + l.len();
            if let Some(open) = self.masked[from..].find('{').map(|p| from + p) {
                if let Some(close) = match_brace(&self.masked, open) {
                    let first = self.line_of(open);
                    let last = self.line_of(close);
                    for line in first..=last.min(self.test_lines.len().saturating_sub(1)) {
                        self.test_lines[line] = true;
                    }
                }
            }
        }
    }

    /// Extract every `fn` item with its body range.
    pub(crate) fn functions(&self) -> Vec<FnItem> {
        let b = self.masked.as_bytes();
        let mut out = Vec::new();
        let mut i = 0;
        while let Some(pos) = find_word(&self.masked, "fn", i) {
            i = pos + 2;
            // Name follows the keyword.
            let mut j = pos + 2;
            while j < b.len() && (b[j] as char).is_whitespace() {
                j += 1;
            }
            let name_start = j;
            while j < b.len() && is_ident_char(b[j] as char) {
                j += 1;
            }
            if j == name_start {
                continue; // `fn` inside a type like `fn(..)`.
            }
            let name = self.masked[name_start..j].to_string();
            // Visibility: look back over the signature prefix.
            let sig_start = self.masked[..pos]
                .rfind(['\n', ';', '}'])
                .map_or(0, |p| p + 1);
            let prefix = &self.masked[sig_start..pos];
            let is_pub = prefix.trim_start().starts_with("pub");
            // Body: first `{` at zero paren/angle depth; `;` first
            // means a bodyless signature.
            let mut depth_paren = 0i32;
            let mut depth_angle = 0i32;
            let mut body = None;
            let mut k = j;
            while k < b.len() {
                match b[k] as char {
                    '(' | '[' => depth_paren += 1,
                    ')' | ']' => depth_paren -= 1,
                    '<' => depth_angle += 1,
                    // `->` is not a closing angle.
                    '>' if k == 0 || b[k - 1] as char != '-' => {
                        depth_angle = (depth_angle - 1).max(0);
                    }
                    '{' if depth_paren == 0 && depth_angle <= 0 => {
                        if let Some(close) = match_brace(&self.masked, k) {
                            body = Some(k + 1..close);
                        }
                        break;
                    }
                    ';' if depth_paren == 0 && depth_angle <= 0 => break,
                    _ => {}
                }
                k += 1;
            }
            out.push(FnItem {
                name,
                line: self.line_of(pos),
                is_pub,
                body,
            });
        }
        out
    }
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Find `word` as a whole identifier at or after `from`.
pub(crate) fn find_word(text: &str, word: &str, from: usize) -> Option<usize> {
    let b = text.as_bytes();
    let mut i = from;
    while let Some(p) = text[i..].find(word).map(|p| i + p) {
        let before_ok = p == 0 || !is_ident_char(b[p - 1] as char);
        let end = p + word.len();
        let after_ok = end >= b.len() || !is_ident_char(b[end] as char);
        if before_ok && after_ok {
            return Some(p);
        }
        i = p + 1;
    }
    None
}

/// Byte offset of the `}` matching the `{` at `open`.
pub(crate) fn match_brace(masked: &str, open: usize) -> Option<usize> {
    let b = masked.as_bytes();
    debug_assert_eq!(b[open], b'{');
    let mut depth = 0i32;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Blank out comment bodies and string/char literal interiors,
/// collecting comments (for suppression directives) along the way.
fn mask(raw: &str) -> (String, Vec<Comment>) {
    let bytes = raw.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut comments = Vec::new();
    let mut line = 0usize;
    let mut line_had_code = false;
    let mut i = 0;

    // Replace `c` (non-newline) with a space to keep offsets aligned;
    // multi-byte UTF-8 is replaced byte-for-byte.
    fn blank(out: &mut Vec<u8>, c: u8) {
        out.push(if c == b'\n' { b'\n' } else { b' ' });
    }

    while i < bytes.len() {
        let c = bytes[i];
        if c == b'\n' {
            out.push(b'\n');
            line += 1;
            line_had_code = false;
            i += 1;
            continue;
        }
        // Line comment.
        if c == b'/' && bytes.get(i + 1) == Some(&b'/') {
            let start_line = line;
            let standalone = !line_had_code;
            let end = raw[i..].find('\n').map_or(bytes.len(), |p| i + p);
            let text = raw[i + 2..end].trim().to_string();
            comments.push(Comment {
                line: start_line,
                text,
                standalone,
            });
            for &cc in &bytes[i..end] {
                blank(&mut out, cc);
            }
            i = end;
            continue;
        }
        // Block comment (nested).
        if c == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let start_line = line;
            let standalone = !line_had_code;
            let mut depth = 1;
            let mut j = i + 2;
            while j < bytes.len() && depth > 0 {
                if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                    depth += 1;
                    j += 2;
                } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    if bytes[j] == b'\n' {
                        line += 1;
                    }
                    j += 1;
                }
            }
            let text = raw[i + 2..j.saturating_sub(2).max(i + 2)]
                .trim()
                .to_string();
            comments.push(Comment {
                line: start_line,
                text,
                standalone,
            });
            for &cc in &bytes[i..j] {
                blank(&mut out, cc);
            }
            i = j;
            continue;
        }
        // Raw string r"..." / r#"..."# (optionally b-prefixed).
        let (raw_prefix, hash_at) = if c == b'r' {
            (true, i + 1)
        } else if c == b'b' && bytes.get(i + 1) == Some(&b'r') {
            (true, i + 2)
        } else {
            (false, 0)
        };
        if raw_prefix {
            let mut hashes = 0;
            let mut j = hash_at;
            while bytes.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if bytes.get(j) == Some(&b'"') {
                // Emit the prefix as code, blank the interior.
                out.extend_from_slice(&bytes[i..=j]);
                let closer: String = std::iter::once('"')
                    .chain(std::iter::repeat_n('#', hashes))
                    .collect();
                let inner_start = j + 1;
                let end = raw[inner_start..]
                    .find(&closer)
                    .map_or(bytes.len(), |p| inner_start + p);
                for &cc in &bytes[inner_start..end] {
                    if cc == b'\n' {
                        line += 1;
                    }
                    blank(&mut out, cc);
                }
                let close_end = (end + closer.len()).min(bytes.len());
                out.extend_from_slice(&bytes[end..close_end]);
                line_had_code = true;
                i = close_end;
                continue;
            }
        }
        // Ordinary string (optionally b-prefixed).
        if c == b'"' || (c == b'b' && bytes.get(i + 1) == Some(&b'"')) {
            let open = if c == b'"' { i } else { i + 1 };
            out.extend_from_slice(&bytes[i..=open]);
            let mut j = open + 1;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => {
                        blank(&mut out, bytes[j]);
                        if j + 1 < bytes.len() {
                            if bytes[j + 1] == b'\n' {
                                line += 1;
                            }
                            blank(&mut out, bytes[j + 1]);
                        }
                        j += 2;
                    }
                    b'"' => break,
                    cc => {
                        if cc == b'\n' {
                            line += 1;
                        }
                        blank(&mut out, cc);
                        j += 1;
                    }
                }
            }
            if j < bytes.len() {
                out.push(b'"');
                j += 1;
            }
            line_had_code = true;
            i = j;
            continue;
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            let is_char = match bytes.get(i + 1) {
                Some(b'\\') => true,
                Some(&n) => bytes.get(i + 2) == Some(&b'\'') && n != b'\'',
                None => false,
            };
            if is_char {
                out.push(b'\'');
                let mut j = i + 1;
                if bytes[j] == b'\\' {
                    blank(&mut out, bytes[j]);
                    j += 1;
                    // Escape payload up to the closing quote.
                    while j < bytes.len() && bytes[j] != b'\'' {
                        blank(&mut out, bytes[j]);
                        j += 1;
                    }
                } else {
                    blank(&mut out, bytes[j]);
                    j += 1;
                }
                if j < bytes.len() {
                    out.push(b'\'');
                    j += 1;
                }
                line_had_code = true;
                i = j;
                continue;
            }
        }
        if !(c as char).is_whitespace() {
            line_had_code = true;
        }
        out.push(c);
        i += 1;
    }
    (
        // pdnn-lint: allow(l3-no-unwrap): mask() only writes ASCII or copies original bytes, so the output stays valid UTF-8
        String::from_utf8(out).expect("masking preserves UTF-8 structure"),
        comments,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_comments_and_strings() {
        let src = "let x = \"panic!()\"; // HashMap here\nlet y = 1;\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.masked.contains("panic"));
        assert!(!f.masked.contains("HashMap"));
        assert_eq!(f.masked.len(), src.len());
        assert_eq!(f.comments.len(), 1);
        assert_eq!(f.comments[0].text, "HashMap here");
        assert!(!f.comments[0].standalone);
    }

    #[test]
    fn masking_handles_raw_strings_and_chars() {
        let src = "let s = r#\"Instant::now()\"#;\nlet c = '\\n';\nlet l: &'static str = \"x\";\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.masked.contains("Instant"));
        assert!(f.masked.contains("'static"), "lifetime survives masking");
        assert_eq!(f.masked.len(), src.len());
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let src = "/* outer /* inner */ still comment */ let z = 3;\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.masked.contains("let z = 3;"));
        assert!(!f.masked.contains("inner"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "\
pub fn lib_code() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        helper();
    }
}
";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.test_lines[0], "library line not in test region");
        assert!(f.test_lines[4], "inside mod tests");
        assert!(f.test_lines[6], "inside test fn");
    }

    #[test]
    fn functions_extracted_with_bodies_and_visibility() {
        let src = "\
pub fn outer(x: usize) -> usize {
    inner(x)
}

fn inner(x: usize) -> usize {
    x + 1
}

pub fn generic<T: Ord>(v: Vec<T>) -> Option<T> {
    v.into_iter().max()
}
";
        let f = SourceFile::parse("t.rs", src);
        let fns = f.functions();
        assert_eq!(fns.len(), 3);
        assert_eq!(fns[0].name, "outer");
        assert!(fns[0].is_pub);
        assert!(!fns[1].is_pub);
        assert_eq!(fns[2].name, "generic");
        let body = &f.masked[fns[0].body.clone().unwrap()];
        assert!(body.contains("inner(x)"));
    }

    #[test]
    fn line_and_column_mapping() {
        let src = "ab\ncdef\n";
        let f = SourceFile::parse("t.rs", src);
        let pos = f.masked.find("de").unwrap();
        assert_eq!(f.line_of(pos), 1);
        assert_eq!(f.col_of(pos), 2);
        assert_eq!(f.raw_line(1), "cdef");
    }
}
