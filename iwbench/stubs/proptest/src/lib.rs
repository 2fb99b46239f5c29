//! Empty offline placeholder for `proptest` (unused API surface).
