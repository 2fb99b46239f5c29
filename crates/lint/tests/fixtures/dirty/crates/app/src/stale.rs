//! Fixture: inline suppressions that outlived what they excused. A
//! marker quoted in a doc comment (`// iw-lint: allow(<rule>)`) is not
//! a suppression, and neither is one inside a string.

pub fn gone() -> u32 {
    // iw-lint: allow(panic-budget): the unwrap this excused was removed
    4
}

pub fn unknown() -> &'static str {
    "// iw-lint: allow(bogus)" // iw-lint: allow(no-such-rule)
}

#[cfg(test)]
mod tests {
    // iw-lint: allow(panic-budget): test code is not audited
    #[test]
    fn exempt() {}
}
