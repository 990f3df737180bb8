# Count the non-test lines of Rust sources: every line but each
# `#[cfg(test)]` item, from the attribute (in column 0) to the item's
# end: the `}` that closes its first `{`, or a `;` before any `{`.
# Braces in string and char literals and in `//` comments do not count.
# Blank lines after a test item go with it unless code follows them.
# Usage: awk -f scripts/nontest.awk FILE...
FNR == 1 { skip = 0; held = 0; blanks = 0 }
!skip && /^#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; blanks = 0; next }
skip {
  code = $0
  gsub(/"([^"\\]|\\.)*"/, "", code)
  gsub(/'[{}]'/, "", code)
  sub(/\/\/.*/, "", code)
  for (i = 1; i <= length(code); i++) {
    c = substr(code, i, 1)
    if (c == "{") { depth++; opened = 1 }
    else if (c == "}") depth--
    else if (c == ";" && !opened) { skip = 0; break }
    if (opened && depth == 0) { skip = 0; break }
  }
  if (!skip) held = 1
  next
}
held && /^[[:space:]]*$/ { blanks++; next }
{ n += 1 + blanks; blanks = 0; held = 0 }
END { print n + 0 }
