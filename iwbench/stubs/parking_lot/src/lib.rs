//! Empty offline placeholder for `parking_lot` (unused API surface).
