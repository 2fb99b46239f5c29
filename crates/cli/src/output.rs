//! Torn-output hardening: every artifact the CLI persists goes through
//! one temp-file-plus-rename helper, so a crash mid-write can never
//! leave a half-written results file, telemetry snapshot or checkpoint
//! behind — the destination either holds the previous complete version
//! or the new complete version.

use iw_netsim::{pcap, Trace};
use std::fs;
use std::io;

/// The sibling temp path a pending write stages into (`<path>.tmp`).
pub fn tmp_path(path: &str) -> String {
    format!("{path}.tmp")
}

/// Atomically replace `path` with `contents`: write to the sibling temp
/// file, then rename over the destination (atomic on POSIX filesystems).
pub fn write_atomic(path: &str, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let tmp = tmp_path(path);
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

/// Atomically replace `path` with `trace` in pcap format: the one way
/// `scan` and `probe` save their packets.
pub fn write_pcap(path: &str, trace: &Trace) -> io::Result<()> {
    write_atomic(path, pcap::to_pcap_bytes(trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join("iwscan-output-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json").to_string_lossy().into_owned();
        write_atomic(&path, "first").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, "second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        assert!(!std::path::Path::new(&tmp_path(&path)).exists());
        let _ = fs::remove_file(&path);
    }
}
