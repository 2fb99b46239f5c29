//! Empty offline placeholder for `criterion` (unused API surface).
