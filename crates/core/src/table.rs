//! A benchmark-only shim over [`AddrMap`].
//!
//! The scanner's tables are `AddrMap`s (DESIGN.md §10, "One address
//! map"). `IpMap` stays only because the benchmark's layer driver still
//! names it, and only with the four calls that driver makes; ROADMAP
//! item 9 (b) moves that driver onto `AddrMap` and deletes this file.

use iw_telemetry::AddrMap;

/// A map from host-order IPv4 address to `V`: an [`AddrMap`] under the
/// name the benchmark's layer driver imports.
#[doc(hidden)]
pub struct IpMap<V>(AddrMap<V>);

impl<V> IpMap<V> {
    /// An empty map (allocates nothing until the first insert).
    #[expect(
        clippy::new_without_default,
        reason = "the shim keeps only the calls the benchmark makes"
    )]
    pub fn new() -> IpMap<V> {
        IpMap(AddrMap::default())
    }

    /// Insert or replace; returns the previous value for the key.
    pub fn insert(&mut self, key: u32, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    /// The value for `key`.
    pub fn get(&self, key: u32) -> Option<&V> {
        self.0.get(&key)
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: u32) -> Option<V> {
        self.0.remove(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m = IpMap::new();
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(2, "b"), None);
        assert_eq!(m.insert(1, "a2"), Some("a"));
        assert_eq!(m.get(1), Some(&"a2"));
        assert_eq!(m.get(3), None);
        assert_eq!(m.remove(1), Some("a2"));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.get(2), Some(&"b"));
    }
}
