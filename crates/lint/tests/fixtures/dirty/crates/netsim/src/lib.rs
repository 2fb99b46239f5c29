//! Fixture: cross-thread mutation primitives in a simulation crate.
#![forbid(unsafe_code)]

pub struct World {
    pub table: std::sync::Mutex<Vec<u32>>,
    pub sent: std::sync::atomic::AtomicU64,
    /// Immutable sharing stays legal.
    pub population: std::sync::Arc<Vec<u32>>,
}

/// Neither a comment (a Mutex, an AtomicU64) nor a string names one.
pub fn hidden() -> &'static str {
    "Mutex<AtomicU64>, static mut, thread_local!"
}

#[cfg(test)]
mod tests {
    static LOCK: std::sync::Mutex<u32> = std::sync::Mutex::new(0);
    static HITS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
}
