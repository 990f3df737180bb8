// non-test lines: 14
// A source with a test-only item in the middle: the lines after the
// item count again. Braces in strings, chars and comments do not
// close it.

pub fn head() -> u32 {
    1
}

#[cfg(test)]
fn only_in_tests() -> &'static str {
    let _brace = '}';
    // A closing brace in a comment: }
    "} also in a string"
}

#[cfg(test)]
use std::fmt::Write;

pub fn tail() -> u32 {
    2
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert_eq!(super::head() + super::tail(), 3);
    }
}
