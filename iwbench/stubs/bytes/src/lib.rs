//! Empty offline placeholder for `bytes` (unused API surface).
