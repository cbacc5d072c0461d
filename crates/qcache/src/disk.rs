//! Persistent on-disk cache layer.
//!
//! Entries live at `<root>/<key-hex>.bin` and are written as a
//! temp file in the same directory followed by an atomic rename, so a
//! reader never observes a half-written entry and concurrent writers of
//! the same key are last-writer-wins with both writers having written
//! identical bytes (keys are content addresses).
//!
//! Entry layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic            b"LNQC"
//!      4     4  format version   u32 (FORMAT_VERSION)
//!      8     8  schema fingerprint u64 (caller-supplied)
//!     16     8  payload length   u64
//!     24    32  SHA-256(payload)
//!     56     N  payload
//! ```
//!
//! `load` validates every field before trusting the payload: wrong magic
//! or version, a fingerprint from a different compiler revision, a
//! length mismatch (truncation), or a checksum mismatch (corruption) all
//! return `None` and bump the `invalid` counter — the caller recomputes
//! and overwrites the bad entry.

use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::hash::{digest, Digest};

const MAGIC: &[u8; 4] = b"LNQC";
const FORMAT_VERSION: u32 = 1;
const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 32;

/// Disk counters, snapshotted by [`DiskCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Entries loaded and validated successfully.
    pub hits: u64,
    /// Lookups with no entry on disk.
    pub misses: u64,
    /// Entries present but rejected (stale fingerprint, truncated,
    /// corrupted) — recomputed, never trusted.
    pub invalid: u64,
    /// Entries written (a store whose final rename fails wrote none).
    pub stores: u64,
}

/// Content-addressed persistent cache under a root directory.
pub struct DiskCache {
    root: PathBuf,
    fingerprint: u64,
    tmp_seq: AtomicU64,
    stats: Mutex<DiskStats>,
}

impl DiskCache {
    /// Open (creating if needed) a cache rooted at `root`. `fingerprint`
    /// versions the schema: entries written under a different fingerprint
    /// self-invalidate on load.
    pub fn new(root: impl Into<PathBuf>, fingerprint: u64) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(DiskCache {
            root,
            fingerprint,
            tmp_seq: AtomicU64::new(0),
            stats: Mutex::new(DiskStats::default()),
        })
    }

    fn entry_path(&self, key: &Digest) -> PathBuf {
        self.root.join(format!("{}.bin", key.to_hex()))
    }

    fn bump(&self, f: impl FnOnce(&mut DiskStats)) {
        f(&mut self.stats.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Load and validate the payload under `key`. Any defect in the entry
    /// yields `None` (counted as `invalid`); a simple absence is also
    /// `None` (counted as `miss`).
    pub fn load(&self, key: &Digest) -> Option<Vec<u8>> {
        let bytes = match fs::read(self.entry_path(key)) {
            Ok(b) => b,
            Err(_) => {
                self.bump(|c| c.misses += 1);
                return None;
            }
        };
        match Self::decode(&bytes, self.fingerprint) {
            Some(payload) => {
                self.bump(|c| c.hits += 1);
                Some(payload)
            }
            None => {
                self.bump(|c| c.invalid += 1);
                None
            }
        }
    }

    fn decode(bytes: &[u8], fingerprint: u64) -> Option<Vec<u8>> {
        if bytes.len() < HEADER_LEN || &bytes[0..4] != MAGIC {
            return None;
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
        let fp = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
        let payload_len = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
        if version != FORMAT_VERSION || fp != fingerprint {
            return None;
        }
        let payload = &bytes[HEADER_LEN..];
        if payload.len() as u64 != payload_len {
            return None;
        }
        let want = Digest(bytes[24..56].try_into().ok()?);
        if digest(payload) != want {
            return None;
        }
        Some(payload.to_vec())
    }

    /// Persist `payload` under `key` via write-then-rename.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error of any step. A failed store is not
    /// counted, and one whose rename fails removes its temp file.
    pub fn store(&self, key: &Digest, payload: &[u8]) -> io::Result<()> {
        fs::create_dir_all(&self.root)?;
        let mut entry = Vec::with_capacity(HEADER_LEN + payload.len());
        entry.extend_from_slice(MAGIC);
        entry.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        entry.extend_from_slice(&self.fingerprint.to_le_bytes());
        entry.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        entry.extend_from_slice(&digest(payload).0);
        entry.extend_from_slice(payload);
        let tmp = self.root.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&entry)?;
            f.sync_all()?;
        }
        if let Err(e) = fs::rename(&tmp, self.entry_path(key)) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        self.bump(|c| c.stores += 1);
        Ok(())
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> DiskStats {
        *self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qcache-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_load_roundtrips() {
        let root = tmp_root("roundtrip");
        let cache = DiskCache::new(&root, 0xfeed).unwrap();
        let key = digest(b"cell-1");
        assert_eq!(cache.load(&key), None);
        cache.store(&key, b"module m; endmodule\n").unwrap();
        assert_eq!(
            cache.load(&key).as_deref(),
            Some(&b"module m; endmodule\n"[..])
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalid, s.stores), (1, 1, 0, 1));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupted_entry_is_rejected_not_trusted() {
        let root = tmp_root("corrupt");
        let cache = DiskCache::new(&root, 1).unwrap();
        let key = digest(b"k");
        cache.store(&key, b"payload-bytes").unwrap();
        let path = root.join(format!("{}.bin", key.to_hex()));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // flip one payload bit
        fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.load(&key), None, "checksum must catch the flip");
        assert_eq!(cache.stats().invalid, 1);
        // Recompute path: overwrite with a good entry, loads again.
        cache.store(&key, b"payload-bytes").unwrap();
        assert_eq!(cache.load(&key).as_deref(), Some(&b"payload-bytes"[..]));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncated_entry_is_rejected() {
        let root = tmp_root("truncate");
        let cache = DiskCache::new(&root, 1).unwrap();
        let key = digest(b"k");
        cache.store(&key, b"0123456789abcdef").unwrap();
        let path = root.join(format!("{}.bin", key.to_hex()));
        let bytes = fs::read(&path).unwrap();
        // Chop mid-payload and mid-header.
        for cut in [bytes.len() - 5, HEADER_LEN, 3] {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert_eq!(cache.load(&key), None, "cut at {cut}");
        }
        assert_eq!(cache.stats().invalid, 3);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stale_fingerprint_self_invalidates() {
        let root = tmp_root("fingerprint");
        let key = digest(b"k");
        {
            let old = DiskCache::new(&root, 100).unwrap();
            old.store(&key, b"old-schema-artifact").unwrap();
        }
        let new = DiskCache::new(&root, 101).unwrap();
        assert_eq!(new.load(&key), None, "old fingerprint rejected");
        assert_eq!(new.stats().invalid, 1);
        new.store(&key, b"new-schema-artifact").unwrap();
        assert_eq!(new.load(&key).as_deref(), Some(&b"new-schema-artifact"[..]));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let root = tmp_root("magic");
        let cache = DiskCache::new(&root, 1).unwrap();
        let key = digest(b"k");
        cache.store(&key, b"x").unwrap();
        let path = root.join(format!("{}.bin", key.to_hex()));
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.load(&key), None);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn empty_payload_roundtrips() {
        let root = tmp_root("empty");
        let cache = DiskCache::new(&root, 1).unwrap();
        let key = digest(b"k");
        cache.store(&key, b"").unwrap();
        assert_eq!(cache.load(&key).as_deref(), Some(&b""[..]));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_store_whose_rename_fails_is_an_error_and_not_counted() {
        let root = tmp_root("rename");
        let cache = DiskCache::new(&root, 1).unwrap();
        let key = digest(b"k");
        // A directory at the entry path: the final rename cannot replace it.
        fs::create_dir(root.join(format!("{}.bin", key.to_hex()))).unwrap();
        assert!(cache.store(&key, b"payload").is_err());
        assert_eq!(cache.stats().stores, 0);
        // Only the directory is left: the temp file went with the error.
        assert_eq!(fs::read_dir(&root).unwrap().count(), 1);
        fs::remove_dir_all(&root).unwrap();
    }
}
