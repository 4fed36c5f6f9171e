//! The crash-safe on-disk result store (`rapids-serve --store DIR`).
//!
//! Cache entries spill to an append-only log so a restarted service is
//! **cache-warm**: a job whose (netlist, config) fingerprints match a
//! stored record answers from disk without an optimizer run, byte-identical
//! to the in-memory path (the payload is the [`DesignQor::to_json`]
//! rendering, which round-trips exactly).
//!
//! ## Record format
//!
//! `DIR/store.jsonl` is a [`Journal`]: one checksummed JSON line per
//! record, the key's two fingerprints as 16-digit hex strings followed by
//! the [`DesignQor::to_json`] fields:
//!
//! ```text
//! {"netlist_fp":"<16 hex>","config_fp":"<16 hex>","name":…,"max_displacement_um":…,"ck":"<16 hex>"}
//! ```
//!
//! A `store.log` left by a build that used the older binary format is
//! never opened: that store simply starts cold.
//!
//! ## Recovery rules
//!
//! Replay is the journal's: it keeps every whole valid record and
//! truncates the log at the first line that is torn, fails its checksum,
//! or does not decode to a key and a QoR record.  The kept records are
//! [`ResultStore::recovered_records`]; a dropped tail is counted in
//! [`ResultStore::dropped_corrupt_records`].

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rapids_obs::json::parse_flat_object;

use crate::journal::Journal;
use crate::report::DesignQor;

/// The log's file name inside the store directory.
pub const STORE_FILE: &str = "store.jsonl";

/// A content-addressed, crash-safe result store over an append-only log.
#[derive(Debug)]
pub struct ResultStore {
    path: PathBuf,
    journal: Journal,
    /// Every valid record replayed at open plus everything appended since.
    entries: Mutex<HashMap<(u64, u64), DesignQor>>,
    disk_hits: AtomicUsize,
}

impl ResultStore {
    /// Opens (creating if needed) the store under `dir` and replays its
    /// log, truncating a torn or corrupt tail back to the last valid
    /// record boundary.
    ///
    /// # Errors
    ///
    /// Directory creation or log open/read/truncate failures.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<ResultStore> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(STORE_FILE);
        let mut entries = HashMap::new();
        let journal = Journal::open_with(&path, |fields| {
            let Some((key, qor)) = decode(fields) else { return false };
            entries.insert(key, qor);
            true
        })?;
        Ok(ResultStore {
            path,
            journal,
            entries: Mutex::new(entries),
            disk_hits: AtomicUsize::new(0),
        })
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of records currently held (replayed + appended).
    pub fn len(&self) -> usize {
        self.entries.lock().expect("store lock poisoned").len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Valid records replayed from the log at open.
    pub fn recovered_records(&self) -> usize {
        self.journal.recovered_lines()
    }

    /// Whether a torn/corrupt tail was dropped at open (0 or 1: tears are
    /// only ever at the tail of an append-only log).
    pub fn dropped_corrupt_records(&self) -> usize {
        usize::from(self.journal.dropped_tail_bytes() > 0)
    }

    /// Lookups served from the store since open.
    pub fn disk_hits(&self) -> usize {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// The stored result for a (netlist, config) fingerprint pair, if any;
    /// hits are counted in [`ResultStore::disk_hits`].
    pub fn lookup(&self, key: (u64, u64)) -> Option<DesignQor> {
        let hit = self.entries.lock().expect("store lock poisoned").get(&key).cloned();
        if hit.is_some() {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Appends one result record (no-op if the key is already stored — the
    /// log never grows duplicate records for re-computed identical work).
    ///
    /// # Errors
    ///
    /// Log write/flush failures; the in-memory side is only updated once
    /// the record is durably written.
    pub fn append(&self, key: (u64, u64), qor: &DesignQor) -> std::io::Result<()> {
        let mut entries = self.entries.lock().expect("store lock poisoned");
        if entries.contains_key(&key) {
            return Ok(());
        }
        self.journal.append(&format!(
            "\"netlist_fp\":\"{:016x}\",\"config_fp\":\"{:016x}\",{}",
            key.0,
            key.1,
            qor.json_fields()
        ))?;
        entries.insert(key, qor.clone());
        Ok(())
    }
}

/// The key and record one log line's fields hold, or `None` when they do
/// not decode (replay then truncates the log at that line).
fn decode(fields: &str) -> Option<((u64, u64), DesignQor)> {
    let object = format!("{{{fields}}}");
    let pairs = parse_flat_object(&object).ok()?;
    let fingerprint = |name: &str| {
        let hex = pairs.iter().find(|(k, _)| k == name)?.1.as_str()?;
        u64::from_str_radix(hex, 16).ok().filter(|fp| format!("{fp:016x}") == hex)
    };
    let key = (fingerprint("netlist_fp")?, fingerprint("config_fp")?);
    Some((key, DesignQor::from_json(&object).ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qor(name: &str, delay: f64) -> DesignQor {
        DesignQor {
            name: name.into(),
            gate_count: 100,
            initial_delay_ns: delay,
            gsg_final_delay_ns: delay - 1.0,
            gs_final_delay_ns: delay - 0.5,
            combined_final_delay_ns: delay - 1.25,
            gs_final_area_um2: 4000.0,
            combined_final_area_um2: 4100.25,
            gsg_swaps: 17,
            gsg_es_swaps: 2,
            combined_es_swaps: 3,
            gs_resized: 40,
            legalized: false,
            hpwl_um: 123456.75,
            max_displacement_um: 0.0,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rapids_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_across_reopen() {
        let dir = temp_dir("roundtrip");
        {
            let store = ResultStore::open(&dir).unwrap();
            assert!(store.is_empty());
            store.append((1, 2), &qor("a", 10.0)).unwrap();
            store.append((3, 4), &qor("b", 20.0)).unwrap();
            // Duplicate key: no growth.
            store.append((1, 2), &qor("a", 10.0)).unwrap();
            assert_eq!(store.len(), 2);
            assert_eq!(store.disk_hits(), 0);
        }
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.recovered_records(), 2);
        assert_eq!(store.dropped_corrupt_records(), 0);
        assert_eq!(store.lookup((1, 2)).unwrap(), qor("a", 10.0));
        assert_eq!(store.lookup((9, 9)), None);
        assert_eq!(store.disk_hits(), 1, "only the hit counts");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_are_checksummed_journal_lines() {
        let dir = temp_dir("lines");
        let store = ResultStore::open(&dir).unwrap();
        store.append((1, u64::MAX), &qor("a", 10.0)).unwrap();
        let path = store.path().to_path_buf();
        drop(store);
        let text = std::fs::read_to_string(&path).unwrap();
        let expected = format!(
            "{{\"netlist_fp\":\"0000000000000001\",\"config_fp\":\"ffffffffffffffff\",{},\"ck\":\"",
            qor("a", 10.0).json_fields()
        );
        assert!(text.starts_with(&expected), "{text}");

        // A line whose checksum holds but whose fields are not a record is
        // rejected, and the log truncated back to the record before it.
        let keep = text.len();
        Journal::open(&path).unwrap().append("\"netlist_fp\":\"1\"").unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!((store.recovered_records(), store.dropped_corrupt_records()), (1, 1));
        assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, keep);
        assert_eq!(store.lookup((1, u64::MAX)).unwrap(), qor("a", 10.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_survives_every_trailing_tear_and_corruption() {
        let dir = temp_dir("tear");
        let store = ResultStore::open(&dir).unwrap();
        store.append((1, 1), &qor("a", 10.0)).unwrap();
        store.append((2, 2), &qor("b", 20.0)).unwrap();
        let keep_len = std::fs::metadata(store.path()).unwrap().len() as usize;
        store.append((3, 3), &qor("c", 30.0)).unwrap();
        let full = std::fs::read(store.path()).unwrap();
        let path = store.path().to_path_buf();
        drop(store);

        // Truncation at every boundary of the trailing record (keep_len
        // itself is the clean two-record log; full.len() is untorn).
        for cut in keep_len..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let store = ResultStore::open(&dir).unwrap();
            assert_eq!(store.recovered_records(), 2, "truncated at byte {cut}");
            assert_eq!(
                store.dropped_corrupt_records(),
                usize::from(cut != keep_len),
                "truncated at byte {cut}"
            );
            assert_eq!(store.lookup((1, 1)).unwrap(), qor("a", 10.0));
            assert_eq!(store.lookup((2, 2)).unwrap(), qor("b", 20.0));
            assert_eq!(store.lookup((3, 3)), None, "torn record must be dropped");
            // The truncated tail is gone from disk: a fresh append lands on
            // a clean boundary and survives another reopen.
            store.append((4, 4), &qor("d", 40.0)).unwrap();
            drop(store);
            let store = ResultStore::open(&dir).unwrap();
            assert_eq!(store.recovered_records(), 3, "after re-append at byte {cut}");
            assert_eq!(store.lookup((4, 4)).unwrap(), qor("d", 40.0));
        }

        // Bit-rot: flip one byte at every offset of the trailing record.
        // The line checksum must reject it without touching the first two
        // records, and the log is cut back to them.
        for offset in keep_len..full.len() {
            let mut image = full.clone();
            image[offset] ^= 0xff;
            std::fs::write(&path, &image).unwrap();
            let store = ResultStore::open(&dir).unwrap();
            assert_eq!(store.recovered_records(), 2, "corrupted byte {offset}");
            assert_eq!(store.dropped_corrupt_records(), 1, "corrupted byte {offset}");
            assert_eq!(store.lookup((2, 2)).unwrap(), qor("b", 20.0));
            assert_eq!(store.lookup((3, 3)), None);
            assert_eq!(std::fs::read(&path).unwrap(), &full[..keep_len]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_legacy_store_log_is_left_alone() {
        let dir = temp_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let legacy = dir.join("store.log");
        let image: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        std::fs::write(&legacy, &image).unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!((store.recovered_records(), store.dropped_corrupt_records()), (0, 0));
        store.append((1, 1), &qor("a", 10.0)).unwrap();
        drop(store);
        assert_eq!(ResultStore::open(&dir).unwrap().recovered_records(), 1);
        assert_eq!(std::fs::read(&legacy).unwrap(), image, "the old log is never touched");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
