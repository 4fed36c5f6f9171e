//! The crash-safe append-only log under both the result store
//! (`--store DIR`) and the telemetry tick journal (`--telemetry-out FILE`).
//!
//! ## Line format
//!
//! One JSON object per line:
//!
//! ```text
//! {<fields>,"ck":"<16 hex digits>"}
//! ```
//!
//! where the checksum is FNV-1a over the line's own bytes up to and
//! including `,"ck":"`, rendered as 16 lowercase hex digits.  The caller
//! supplies `<fields>` (a JSON object body without its braces) and reads
//! the same text back on replay.
//!
//! ## Recovery rules
//!
//! Each append is a single `write_all` + flush under the log's mutex, so
//! a crash can only tear the *final* line.  Replay keeps whole valid lines
//! in order and stops at the first one that is unterminated, fails its
//! checksum, or is rejected by its reader (the result store rejects a line
//! that does not decode to a record); the file is truncated back to the
//! end of the last kept line, so the next append starts on a clean line
//! boundary.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::fingerprint::fnv1a;

/// `,"ck":"` — the marker a valid line carries its checksum behind.
const CK_MARKER: &str = ",\"ck\":\"";

/// A crash-safe, checksummed JSONL log (see the module docs).
#[derive(Debug)]
pub struct Journal {
    file: Mutex<File>,
    recovered_lines: usize,
    dropped_tail_bytes: u64,
}

impl Journal {
    /// Opens (creating if missing) the log at `path`, keeping every whole
    /// valid line and truncating a torn or corrupt tail.
    ///
    /// # Errors
    ///
    /// Propagates file open/read/truncate failures; line-level corruption
    /// is *handled* (truncated), not an error.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        Journal::open_with(path, |_| true)
    }

    /// [`Journal::open`], handing each valid line's fields to `accept` in
    /// file order.  The first line `accept` rejects is treated like a
    /// corrupt one: it and everything after it are truncated.
    ///
    /// # Errors
    ///
    /// As [`Journal::open`].
    pub(crate) fn open_with(
        path: impl AsRef<Path>,
        mut accept: impl FnMut(&str) -> bool,
    ) -> std::io::Result<Journal> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut valid_len = 0usize;
        let mut recovered_lines = 0usize;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            match line.strip_suffix(b"\n").and_then(checked_fields) {
                Some(fields) if accept(fields) => {}
                _ => break,
            }
            recovered_lines += 1;
            valid_len += line.len();
        }
        let dropped_tail_bytes = (bytes.len() - valid_len) as u64;
        if dropped_tail_bytes > 0 {
            file.set_len(valid_len as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(Journal { file: Mutex::new(file), recovered_lines, dropped_tail_bytes })
    }

    /// Valid lines found (and kept) at open.
    pub fn recovered_lines(&self) -> usize {
        self.recovered_lines
    }

    /// Torn/corrupt tail bytes truncated at open (0 for a clean file).
    pub fn dropped_tail_bytes(&self) -> u64 {
        self.dropped_tail_bytes
    }

    /// Appends one line.  `fields` is the line's JSON body without the
    /// outer braces (`"tick":3,…`) and without a raw newline; the log
    /// wraps it and stamps the checksum.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write/flush failure; the caller decides
    /// whether durability loss is fatal.
    pub fn append(&self, fields: &str) -> std::io::Result<()> {
        let prefix = format!("{{{fields}{CK_MARKER}");
        let line = format!("{prefix}{:016x}\"}}\n", fnv1a(prefix.as_bytes()));
        let mut file = self.file.lock().expect("journal lock poisoned");
        file.write_all(line.as_bytes())?;
        file.flush()
    }
}

/// The fields of one line (newline stripped) whose checksum matches its
/// canonical rendering, or `None` for a torn or corrupt line.
fn checked_fields(line: &[u8]) -> Option<&str> {
    let body = line.strip_suffix(b"\"}")?;
    let (prefix, hex) = body.split_at(body.len().checked_sub(16)?);
    if hex != format!("{:016x}", fnv1a(prefix)).as_bytes() {
        return None;
    }
    let fields = prefix.strip_prefix(b"{")?.strip_suffix(CK_MARKER.as_bytes())?;
    std::str::from_utf8(fields).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("rapids_journal_{tag}_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn lines_carry_their_checksum_and_replay_their_fields() {
        let path = temp_log("fields");
        {
            let journal = Journal::open(&path).unwrap();
            assert_eq!(journal.recovered_lines(), 0);
            journal.append("").unwrap();
            journal.append("\"tick\":1,\"name\":\"a\\\"}\"").unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let prefix = "{\"tick\":1,\"name\":\"a\\\"}\",\"ck\":\"";
        let second = format!("{prefix}{:016x}\"}}", fnv1a(prefix.as_bytes()));
        assert_eq!(text.lines().nth(1), Some(second.as_str()));

        let mut seen = Vec::new();
        let journal = Journal::open_with(&path, |fields| {
            seen.push(fields.to_string());
            true
        })
        .unwrap();
        assert_eq!((journal.recovered_lines(), journal.dropped_tail_bytes()), (2, 0));
        assert_eq!(seen, ["", "\"tick\":1,\"name\":\"a\\\"}\""]);
        let _ = std::fs::remove_file(&path);
    }

    /// The property test of the one replay path: truncate the log at
    /// *every* byte boundary inside its trailing line, and separately flip
    /// every bit of every byte of it; recovery must keep both earlier
    /// lines, drop exactly the damaged one, and accept appends afterwards.
    #[test]
    fn recovery_survives_every_trailing_tear_and_corruption() {
        let path = temp_log("tear");
        let journal = Journal::open(&path).unwrap();
        journal.append("\"tick\":0,\"x\":1").unwrap();
        journal.append("\"tick\":1,\"x\":2").unwrap();
        let keep = std::fs::read(&path).unwrap();
        journal.append("\"tick\":2,\"x\":3").unwrap();
        drop(journal);
        let full = std::fs::read(&path).unwrap();

        let mut images: Vec<Vec<u8>> =
            (keep.len()..full.len()).map(|cut| full[..cut].to_vec()).collect();
        for offset in keep.len()..full.len() {
            for bit in 0..8 {
                let mut image = full.clone();
                image[offset] ^= 1 << bit;
                images.push(image);
            }
        }
        for image in images {
            std::fs::write(&path, &image).unwrap();
            let journal = Journal::open(&path).unwrap();
            assert_eq!(journal.recovered_lines(), 2, "{image:?}");
            assert_eq!(journal.dropped_tail_bytes(), (image.len() - keep.len()) as u64);
            assert_eq!(std::fs::read(&path).unwrap(), keep, "only the damaged line goes");
            journal.append("\"tick\":2,\"x\":9").unwrap();
            drop(journal);
            let journal = Journal::open(&path).unwrap();
            assert_eq!((journal.recovered_lines(), journal.dropped_tail_bytes()), (3, 0));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_rejected_line_truncates_like_a_corrupt_one() {
        let path = temp_log("reject");
        {
            let journal = Journal::open(&path).unwrap();
            for fields in ["\"n\":1", "\"n\":2", "\"n\":3"] {
                journal.append(fields).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        let first_line = full.iter().position(|&b| b == b'\n').unwrap() + 1;
        let journal = Journal::open_with(&path, |fields| fields != "\"n\":2").unwrap();
        assert_eq!(journal.recovered_lines(), 1);
        assert_eq!(journal.dropped_tail_bytes(), (full.len() - first_line) as u64);
        assert_eq!(std::fs::read(&path).unwrap(), &full[..first_line]);
        let _ = std::fs::remove_file(&path);
    }
}
