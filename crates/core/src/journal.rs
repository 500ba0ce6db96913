//! Checkpoint/resume journal for sweep drivers.
//!
//! An append-only JSON-lines file: one completed cell per line, each line
//! carrying a CRC-32 of its payload so truncation (a process killed
//! mid-append) and bit rot are *detected* — a record that fails its check
//! is dropped and its cell re-runs, never trusted.
//!
//! ```text
//! <crc32 hex, 8 chars> \t {"key":"single|cg|T|HT on -2-1|t3|j2000|static","sides":[…]}
//! ```
//!
//! Keys encode everything a cell's result depends on — driver kind,
//! kernel(s), problem class, configuration, trial count, jitter amplitude
//! and schedule — so a journal can only resume the exact study shape that
//! wrote it; any option change misses and recomputes. Appends are
//! `write_all` + `flush` per record: a SIGKILL can lose at most the
//! in-flight record (detected as a partial line on reload), never a
//! completed one. Duplicate keys are legal (quarantine re-runs append
//! corrected records); the *last* valid record for a key wins on reload.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use paxsim_machine::counters::Counters;
use paxsim_perfmon::stats::Summary;
use serde::{Deserialize, Serialize};

use crate::error::{StudyError, StudyResult};
use crate::study::Cell;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the zlib/PNG polynomial).
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Records.
// ---------------------------------------------------------------------------

/// One program side of a journaled cell (single-program cells have one
/// side; multi-program and cross-product cells have two).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SideRecord {
    /// Benchmark name (`KernelId` round-trips via its string form).
    pub bench: String,
    pub cycles: Summary,
    pub speedup: Summary,
    pub counters: Counters,
}

impl SideRecord {
    pub fn of(bench: &str, cell: &Cell) -> Self {
        Self {
            bench: bench.to_string(),
            cycles: cell.cycles,
            speedup: cell.speedup,
            counters: cell.counters,
        }
    }

    pub fn to_cell(&self) -> Cell {
        Cell {
            cycles: self.cycles,
            speedup: self.speedup,
            counters: self.counters,
        }
    }
}

/// One journaled cell: the key plus every program side's measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Record {
    pub key: String,
    pub sides: Vec<SideRecord>,
}

// ---------------------------------------------------------------------------
// The journal.
// ---------------------------------------------------------------------------

/// How hard an append pushes toward the platter before returning.
///
/// The journal's loss model is per-policy: `Flush` survives a process
/// kill (SIGKILL mid-append loses at most the in-flight record), `Fsync`
/// additionally survives power loss / kernel crash at the cost of a
/// disk round trip per record. Serving defaults to `Flush` — results are
/// recomputable from the content-addressed key, so the cheap policy only
/// risks re-simulation, never wrong answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `write_all` + `flush` to the OS per record (default).
    #[default]
    Flush,
    /// Additionally `fdatasync` per record.
    Fsync,
}

struct Inner {
    cells: HashMap<String, Record>,
    file: std::fs::File,
    write_errors: usize,
    /// Total journal lines on disk (valid + corrupt at open, plus every
    /// append since). `lines - cells.len()` is the stale overwrite/corrupt
    /// overhead a compaction would reclaim.
    lines: usize,
}

/// A thread-safe checkpoint journal. Shared by the pool workers of a
/// resilient sweep: lookups serve resumed cells, appends land as cells
/// complete.
pub struct Journal {
    path: PathBuf,
    inner: Mutex<Inner>,
    /// Records dropped on load (bad CRC, bad JSON, partial line).
    corrupt: usize,
    fsync: FsyncPolicy,
}

fn lock(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Journal {
    /// Open (creating if absent) the journal at `path`, loading every
    /// valid record and counting — not trusting — corrupt ones.
    pub fn open(path: &Path) -> StudyResult<Journal> {
        Self::open_with(path, FsyncPolicy::Flush)
    }

    /// [`open`](Self::open) with an explicit append durability policy.
    pub fn open_with(path: &Path, fsync: FsyncPolicy) -> StudyResult<Journal> {
        let io_err = |op: &'static str, e: std::io::Error| StudyError::JournalIo {
            path: path.display().to_string(),
            op,
            detail: e.to_string(),
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| io_err("create-dir", e))?;
            }
        }
        // A compaction killed between writing its temp file and the
        // atomic rename leaves the original journal intact plus a stray
        // temp — the temp holds nothing the journal doesn't, so drop it.
        let _ = std::fs::remove_file(compact_tmp_path(path));
        let existing = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(io_err("read", e)),
        };
        let mut cells = HashMap::new();
        let mut corrupt = 0;
        // A file killed mid-append may end without a newline; such a tail
        // is at best a partial record and must not be trusted. Splitting
        // on '\n' and requiring the terminator drops it naturally.
        let complete_lines = match existing.rfind('\n') {
            Some(last) => {
                if last + 1 < existing.len() {
                    corrupt += 1; // unterminated tail
                }
                &existing[..last + 1]
            }
            None => {
                if !existing.is_empty() {
                    corrupt += 1;
                }
                ""
            }
        };
        let mut lines = 0;
        for line in complete_lines.lines() {
            lines += 1;
            match parse_line(line) {
                Ok(rec) => {
                    cells.insert(rec.key.clone(), rec);
                }
                Err(_) => corrupt += 1,
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err("open", e))?;
        Ok(Journal {
            path: path.to_path_buf(),
            inner: Mutex::new(Inner {
                cells,
                file,
                write_errors: 0,
                lines,
            }),
            corrupt,
            fsync,
        })
    }

    /// The cell previously recorded under `key`, if any.
    pub fn lookup(&self, key: &str) -> Option<Record> {
        lock(&self.inner).cells.get(key).cloned()
    }

    /// Append a completed cell. Best-effort durable: the line is flushed
    /// to the OS before returning, so only a record in flight at the
    /// moment of a kill can be lost (and reload detects the partial line).
    pub fn record(&self, key: &str, sides: Vec<SideRecord>) -> StudyResult<()> {
        let rec = Record {
            key: key.to_string(),
            sides,
        };
        let payload = serde_json::to_string(&rec).map_err(|e| StudyError::JournalIo {
            path: self.path.display().to_string(),
            op: "serialize",
            detail: e.to_string(),
        })?;
        let line = format!("{:08x}\t{payload}\n", crc32(payload.as_bytes()));
        let mut inner = lock(&self.inner);
        let res = if crate::faultinject::journal_fail_hook() {
            Err(std::io::Error::other("injected journal append fault"))
        } else {
            inner
                .file
                .write_all(line.as_bytes())
                .and_then(|()| inner.file.flush())
                .and_then(|()| match self.fsync {
                    FsyncPolicy::Flush => Ok(()),
                    FsyncPolicy::Fsync => inner.file.sync_data(),
                })
        };
        if let Err(e) = res {
            inner.write_errors += 1;
            return Err(StudyError::JournalIo {
                path: self.path.display().to_string(),
                op: "append",
                detail: e.to_string(),
            });
        }
        inner.lines += 1;
        inner.cells.insert(rec.key.clone(), rec);
        Ok(())
    }

    /// Rewrite the journal to hold exactly the live record set, dropping
    /// stale overwrites and corrupt lines. Crash-safe: the survivors are
    /// written to a temp file, fsynced, then atomically renamed over the
    /// journal — a kill at any point leaves either the old complete file
    /// (plus a stray temp that [`open`](Self::open) removes) or the new
    /// complete file, never a torn mixture.
    ///
    /// Returns the number of stale lines reclaimed.
    ///
    /// # Errors
    ///
    /// [`StudyError::JournalIo`] if writing, syncing, renaming, or
    /// reopening fails; the original journal is untouched on error.
    pub fn compact(&self) -> StudyResult<usize> {
        let io_err = |op: &'static str, e: std::io::Error| StudyError::JournalIo {
            path: self.path.display().to_string(),
            op,
            detail: e.to_string(),
        };
        let tmp = compact_tmp_path(&self.path);
        let mut inner = lock(&self.inner);
        let reclaimed = inner.lines.saturating_sub(inner.cells.len());
        // Deterministic output: sort by key so two compactions of the
        // same live set produce byte-identical files.
        let mut keys: Vec<&String> = inner.cells.keys().collect();
        keys.sort();
        let mut out = Vec::new();
        for key in keys {
            let payload =
                serde_json::to_string(&inner.cells[key]).map_err(|e| StudyError::JournalIo {
                    path: self.path.display().to_string(),
                    op: "compact-serialize",
                    detail: e.to_string(),
                })?;
            out.push(format!("{:08x}\t{payload}\n", crc32(payload.as_bytes())));
        }
        {
            let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("compact-create", e))?;
            for line in &out {
                f.write_all(line.as_bytes())
                    .map_err(|e| io_err("compact-write", e))?;
            }
            // The rename must never publish a file whose contents are
            // still in flight, whatever the append fsync policy is.
            f.sync_data().map_err(|e| io_err("compact-sync", e))?;
        }
        std::fs::rename(&tmp, &self.path).map_err(|e| io_err("compact-rename", e))?;
        inner.file = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err("compact-reopen", e))?;
        inner.lines = inner.cells.len();
        Ok(reclaimed)
    }

    /// Journal lines that are dead weight (stale overwrites, corrupt
    /// lines): what [`compact`](Self::compact) would reclaim.
    pub fn stale_lines(&self) -> usize {
        let inner = lock(&self.inner);
        inner.lines.saturating_sub(inner.cells.len())
    }

    /// Every resumable record, in unspecified order. The serve cache uses
    /// this to migrate a legacy single-file journal into its per-shard
    /// files; sweeps never need it (they look cells up by key).
    pub fn records(&self) -> Vec<Record> {
        lock(&self.inner).cells.values().cloned().collect()
    }

    /// Number of distinct keys currently resumable.
    pub fn len(&self) -> usize {
        lock(&self.inner).cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records dropped on load because they failed CRC/parse checks.
    pub fn corrupt_records(&self) -> usize {
        self.corrupt
    }

    /// Appends that failed (disk full, permissions…). The study keeps
    /// running — those cells just won't resume next time.
    pub fn write_errors(&self) -> usize {
        lock(&self.inner).write_errors
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn compact_tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".compact.tmp");
    PathBuf::from(os)
}

fn parse_line(line: &str) -> Result<Record, String> {
    let (crc_hex, payload) = line
        .split_once('\t')
        .ok_or_else(|| "missing CRC field".to_string())?;
    let want = u32::from_str_radix(crc_hex, 16).map_err(|_| "bad CRC field".to_string())?;
    let got = crc32(payload.as_bytes());
    if want != got {
        return Err(format!(
            "CRC mismatch: recorded {want:08x}, computed {got:08x}"
        ));
    }
    serde_json::from_str::<Record>(payload).map_err(|e| format!("bad record JSON: {e}"))
}

/// Build the canonical journal key for one cell.
///
/// `driver` is `"single"`, `"multi"` or `"cross"`; `benches` the cell's
/// program side(s); `config` the Table 1 configuration name; `machine`
/// the [`ConfigHash`](crate::hash::ConfigHash) digest of the machine
/// model (as printed, 16 hex digits). Options that change results
/// (class, trials, jitter, schedule, machine parameters) are baked in so
/// a stale journal — including one written under different hardware
/// parameters — can never be mistaken for the current study's.
#[allow(clippy::too_many_arguments)]
pub fn cell_key(
    driver: &str,
    benches: &[&str],
    class: &str,
    config: &str,
    trials: usize,
    jitter: u64,
    schedule: &str,
    machine: &str,
) -> String {
    format!(
        "{driver}|{}|{class}|{config}|t{trials}|j{jitter}|{schedule}|m{machine}",
        benches.join("+")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("paxsim_journal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_sides() -> Vec<SideRecord> {
        vec![SideRecord {
            bench: "ep".into(),
            cycles: Summary::of(&[100.0, 101.5]),
            speedup: Summary::of(&[1.9, 1.95]),
            counters: Counters {
                instructions: 1234,
                l1d_access: 99,
                ..Counters::default()
            },
        }]
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_exact() {
        let path = tmp("roundtrip.jsonl");
        let j = Journal::open(&path).unwrap();
        j.record("k1", sample_sides()).unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.corrupt_records(), 0);
        let rec = j.lookup("k1").unwrap();
        let side = &rec.sides[0];
        let orig = &sample_sides()[0];
        // f64 round-trips must be bit-exact for byte-identical resumes.
        assert_eq!(side.cycles, orig.cycles);
        assert_eq!(side.speedup, orig.speedup);
        assert_eq!(side.counters, orig.counters);
        assert_eq!(side.bench, "ep");
    }

    #[test]
    fn last_record_wins() {
        let path = tmp("dup.jsonl");
        let j = Journal::open(&path).unwrap();
        j.record("k", sample_sides()).unwrap();
        let mut newer = sample_sides();
        newer[0].counters.instructions = 777;
        j.record("k", newer).unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.lookup("k").unwrap().sides[0].counters.instructions, 777);
    }

    #[test]
    fn truncated_tail_detected_and_dropped() {
        let path = tmp("trunc.jsonl");
        let j = Journal::open(&path).unwrap();
        j.record("k1", sample_sides()).unwrap();
        j.record("k2", sample_sides()).unwrap();
        drop(j);
        // Kill mid-append: chop half the final line.
        crate::faultinject::truncate_tail(&path, 40).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1, "partial record must not load");
        assert_eq!(j.corrupt_records(), 1);
        assert!(j.lookup("k1").is_some());
        assert!(j.lookup("k2").is_none());
    }

    #[test]
    fn bitflip_detected_by_crc() {
        let path = tmp("flip.jsonl");
        let j = Journal::open(&path).unwrap();
        j.record("k1", sample_sides()).unwrap();
        drop(j);
        // Flip a bit inside the payload (past the 9-byte CRC prefix).
        crate::faultinject::flip_bit(&path, 30).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 0, "corrupt record must be dropped");
        assert_eq!(j.corrupt_records(), 1);
    }

    #[test]
    fn mid_file_bitflip_recovers_valid_tail() {
        // A CRC-corrupt record in the *middle* of the journal must drop
        // only itself: every well-framed record after it (and before it)
        // still loads, and the drop is counted, never silent.
        let path = tmp("midflip.jsonl");
        let j = Journal::open(&path).unwrap();
        j.record("k1", sample_sides()).unwrap();
        j.record("k2", sample_sides()).unwrap();
        j.record("k3", sample_sides()).unwrap();
        drop(j);
        // Flip a bit inside the *second* line's payload: past its CRC
        // prefix (9 bytes) but well before its newline.
        let text = std::fs::read_to_string(&path).unwrap();
        let second_line_start = text.find('\n').unwrap() as u64 + 1;
        crate::faultinject::flip_bit(&path, second_line_start + 20).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.corrupt_records(), 1, "exactly the flipped record");
        assert_eq!(j.len(), 2, "the valid tail must survive");
        assert!(j.lookup("k1").is_some());
        assert!(j.lookup("k2").is_none(), "corrupt record must not load");
        assert!(
            j.lookup("k3").is_some(),
            "records after the corrupt one must still load"
        );
    }

    #[test]
    fn append_after_corruption_keeps_working() {
        let path = tmp("heal.jsonl");
        let j = Journal::open(&path).unwrap();
        j.record("k1", sample_sides()).unwrap();
        drop(j);
        crate::faultinject::flip_bit(&path, 30).unwrap();
        let j = Journal::open(&path).unwrap();
        j.record("k1", sample_sides()).unwrap(); // re-run lands a fresh record
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1);
        // The corrupt first record is still counted on each load…
        assert_eq!(j.corrupt_records(), 1);
        // …but the healthy re-run record serves the resume.
        assert_eq!(j.lookup("k1").unwrap().sides[0].bench, "ep");
    }

    #[test]
    fn compact_drops_stale_lines_and_preserves_live_set() {
        let path = tmp("compact.jsonl");
        let j = Journal::open(&path).unwrap();
        for i in 0..4 {
            j.record(&format!("k{i}"), sample_sides()).unwrap();
        }
        // Overwrite two keys twice: 4 live records, 8 lines on disk.
        for _ in 0..2 {
            let mut newer = sample_sides();
            newer[0].counters.instructions = 777;
            j.record("k0", newer.clone()).unwrap();
            j.record("k1", newer).unwrap();
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.stale_lines(), 4);
        assert_eq!(j.compact().unwrap(), 4);
        assert_eq!(j.stale_lines(), 0);
        // The handle keeps working after the rename swap…
        j.record("k4", sample_sides()).unwrap();
        drop(j);
        // …and a reload sees exactly the live set, no corruption.
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 5);
        assert_eq!(j.corrupt_records(), 0);
        assert_eq!(j.lookup("k0").unwrap().sides[0].counters.instructions, 777);
        assert_eq!(j.lookup("k3").unwrap().sides[0].counters.instructions, 1234);
    }

    #[test]
    fn compact_is_deterministic() {
        let pa = tmp("compact_det_a.jsonl");
        let pb = tmp("compact_det_b.jsonl");
        for (path, order) in [(&pa, [0usize, 1, 2]), (&pb, [2, 0, 1])] {
            let j = Journal::open(path).unwrap();
            for i in order {
                j.record(&format!("k{i}"), sample_sides()).unwrap();
            }
            j.compact().unwrap();
        }
        assert_eq!(
            std::fs::read(&pa).unwrap(),
            std::fs::read(&pb).unwrap(),
            "same live set must compact to byte-identical files"
        );
    }

    #[test]
    fn stray_compact_tmp_is_removed_on_open() {
        // A compaction killed before its atomic rename leaves the journal
        // intact plus a stray temp file; open must clean it up and load
        // the original data untouched.
        let path = tmp("stray.jsonl");
        let j = Journal::open(&path).unwrap();
        j.record("k1", sample_sides()).unwrap();
        drop(j);
        let tmp_path = compact_tmp_path(&path);
        std::fs::write(&tmp_path, b"half-written compaction").unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1);
        assert!(!tmp_path.exists(), "stray compaction temp must be removed");
    }

    #[test]
    fn fsync_policy_roundtrips() {
        let path = tmp("fsync.jsonl");
        let j = Journal::open_with(&path, FsyncPolicy::Fsync).unwrap();
        j.record("k1", sample_sides()).unwrap();
        j.compact().unwrap();
        j.record("k2", sample_sides()).unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.corrupt_records(), 0);
    }

    #[test]
    fn injected_append_fault_is_typed_and_counted() {
        let path = tmp("append_fault.jsonl");
        let j = Journal::open(&path).unwrap();
        crate::faultinject::with_plan("journal-fail:1", || {
            let err = j.record("k1", sample_sides()).unwrap_err();
            assert!(
                matches!(err, StudyError::JournalIo { op: "append", .. }),
                "injected append failure must surface as typed JournalIo: {err:?}"
            );
            assert_eq!(j.write_errors(), 1);
            assert!(j.lookup("k1").is_none(), "failed append must not be served");
            // Budget spent: the next append succeeds and is durable.
            j.record("k1", sample_sides()).unwrap();
        });
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.corrupt_records(), 0);
    }

    #[test]
    fn keys_bake_in_study_shape() {
        let m = "00f00f00f00f00f0";
        let a = cell_key("single", &["cg"], "T", "CMT", 3, 2000, "static", m);
        let b = cell_key("single", &["cg"], "T", "CMT", 5, 2000, "static", m);
        let c = cell_key("multi", &["cg", "ft"], "T", "CMT", 3, 2000, "static", m);
        let d = cell_key(
            "single",
            &["cg"],
            "T",
            "CMT",
            3,
            2000,
            "static",
            "deadbeefdeadbeef",
        );
        assert_ne!(a, b, "trial count must separate keys");
        assert_ne!(a, c);
        assert_ne!(a, d, "machine digest must separate keys");
        assert!(c.contains("cg+ft"));
        assert!(a.ends_with("|m00f00f00f00f00f0"));
    }

    // -----------------------------------------------------------------------
    // Lossless-prefix recovery properties over per-shard journal files —
    // the exact layout the serve result cache writes (shard-<i>.jsonl,
    // records spread across files).
    // -----------------------------------------------------------------------

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn sides_for(i: usize) -> Vec<SideRecord> {
            let mut s = sample_sides();
            s[0].counters.instructions = 1_000 + i as u64;
            s
        }

        /// Write `n` distinct records round-robin across `shards` files in
        /// a fresh directory; return the directory and each shard's path.
        fn write_shards(case: &str, n: usize, shards: usize) -> (PathBuf, Vec<PathBuf>) {
            let dir = std::env::temp_dir().join("paxsim_journal_props").join(case);
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let paths: Vec<PathBuf> = (0..shards)
                .map(|s| dir.join(format!("shard-{s}.jsonl")))
                .collect();
            let journals: Vec<Journal> = paths.iter().map(|p| Journal::open(p).unwrap()).collect();
            for i in 0..n {
                journals[i % shards]
                    .record(&format!("k{i}"), sides_for(i))
                    .unwrap();
            }
            (dir, paths)
        }

        /// Keys of the records a shard file holds, with value checks: every
        /// loaded record must be bit-exact with what was written.
        fn loaded_keys(path: &Path) -> (Vec<String>, usize) {
            let j = Journal::open(path).unwrap();
            let mut keys: Vec<String> = j.records().iter().map(|r| r.key.clone()).collect();
            keys.sort();
            for rec in j.records() {
                let i: usize = rec.key[1..].parse().unwrap();
                assert_eq!(
                    rec.sides[0].counters.instructions,
                    1_000 + i as u64,
                    "loaded record {} must be bit-exact",
                    rec.key
                );
            }
            (keys, j.corrupt_records())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            // SIGKILL mid-append truncates one shard file at an arbitrary
            // byte. Recovery must be a lossless prefix: exactly the records
            // whose full line (newline included) fits under the cut load
            // back, bit-exact; every other shard is untouched.
            #[test]
            fn shard_truncation_recovers_lossless_prefix(
                n in 1usize..12,
                shards in 1usize..5,
                victim_seed in 0u64..1_000_000_000,
                cut_seed in 0u64..1_000_000_000,
            ) {
                let (_dir, paths) = write_shards("trunc", n, shards);
                let victim = (victim_seed % shards as u64) as usize;
                let bytes = std::fs::read(&paths[victim]).unwrap();
                let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;

                // Expected survivors: lines fully contained in [0, cut).
                let mut expected = Vec::new();
                let mut start = 0;
                for (pos, b) in bytes.iter().enumerate() {
                    if *b == b'\n' {
                        if pos < cut {
                            let line = std::str::from_utf8(&bytes[start..pos]).unwrap();
                            expected.push(parse_line(line).unwrap().key);
                        }
                        start = pos + 1;
                    }
                }
                expected.sort();

                crate::faultinject::truncate_tail(
                    &paths[victim],
                    bytes.len() as u64 - cut as u64,
                ).unwrap();

                for (s, path) in paths.iter().enumerate() {
                    let written: Vec<String> = {
                        let mut k: Vec<String> = (0..n)
                            .filter(|i| i % shards == s)
                            .map(|i| format!("k{i}"))
                            .collect();
                        k.sort();
                        k
                    };
                    let (keys, _corrupt) = loaded_keys(path);
                    if s == victim {
                        prop_assert_eq!(
                            keys, expected.clone(),
                            "truncated shard must load exactly the lossless prefix"
                        );
                    } else {
                        prop_assert_eq!(keys, written, "untouched shard must load fully");
                    }
                }
            }

            // A single flipped bit anywhere in one shard file must never
            // poison recovery: at most the containing record — plus its
            // neighbor when the flip lands on a line terminator — drops,
            // the drop is counted, and everything that loads is bit-exact.
            #[test]
            fn shard_single_byte_corruption_is_contained(
                n in 1usize..12,
                shards in 1usize..5,
                victim_seed in 0u64..1_000_000_000,
                offset_seed in 0u64..1_000_000_000,
            ) {
                let (_dir, paths) = write_shards("flip", n, shards);
                let victim = (victim_seed % shards as u64) as usize;
                let len = std::fs::metadata(&paths[victim]).unwrap().len();
                // A victim shard with no records (n < shards) has nothing
                // to corrupt: trivially contained, skip the flip.
                if len > 0 {
                    let offset = offset_seed % len;
                    crate::faultinject::flip_bit(&paths[victim], offset).unwrap();
                }

                for (s, path) in paths.iter().enumerate() {
                    let written: Vec<String> = {
                        let mut k: Vec<String> = (0..n)
                            .filter(|i| i % shards == s)
                            .map(|i| format!("k{i}"))
                            .collect();
                        k.sort();
                        k
                    };
                    let (keys, corrupt) = loaded_keys(path);
                    if s == victim && len > 0 {
                        prop_assert!(corrupt >= 1, "the flip must be detected and counted");
                        prop_assert!(
                            keys.len() + 2 >= written.len(),
                            "at most two records may drop (flipped newline joins \
                             two lines): {} of {} survived",
                            keys.len(), written.len()
                        );
                        for k in &keys {
                            prop_assert!(
                                written.contains(k),
                                "no record may appear that was never written: {}", k
                            );
                        }
                    } else {
                        prop_assert_eq!(keys, written, "untouched shard must load fully");
                        prop_assert_eq!(corrupt, 0);
                    }
                }
            }
        }
    }
}
