//! Fixture: a crate outside the wall-clock scope and panic budget.
#![forbid(unsafe_code)]

pub fn now_is_fine() {
    let _ = std::time::SystemTime::now();
    let _: u32 = Option::<u32>::Some(1).unwrap();
}

/// Out of the `no-shared-state` scope too: a harness may lock.
pub static LOCK: std::sync::Mutex<u32> = std::sync::Mutex::new(0);
pub static HITS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
