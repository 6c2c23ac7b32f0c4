//! The persistent store: one JSONL file, one framed record per line.
//!
//! Design constraints, in order:
//!
//! 1. **Append is cheap and atomic.** A winning schedule is persisted the
//!    moment it is found — one `O_APPEND` write of one complete line. A
//!    crash can truncate only the final line, never corrupt earlier ones.
//! 2. **Crash-safe framing.** Every line written carries a `F1 <len>
//!    <crc32> <json>` frame, so a torn write (SIGKILL mid-append, full
//!    disk) is *detected*, not mis-parsed: loading truncates the file back
//!    to the last valid record and counts the repair
//!    ([`LoadReport::recovered_truncated`]), so the next append starts on
//!    a clean line boundary. Unframed plain-JSON lines (written before
//!    framing existed) still load.
//! 3. **Corruption is tolerated, not fatal.** Mid-file damage (editor
//!    accidents, bit rot) is skipped and *counted* in the [`LoadReport`]
//!    so callers can surface a warning instead of refusing to start.
//! 4. **Versioned.** Every record carries the writer's
//!    [`FORMAT_VERSION`]; records from other versions are skipped and
//!    counted separately from corruption.
//!
//! Failpoint sites (`store.append`, `store.load`, `store.fsync`,
//! `store.compact`, `store.rename`) mark every I/O trust boundary; the
//! `partial` policy on `store.append` produces a *real* torn tail — the
//! same bytes a crash mid-write leaves behind.

use crate::key::{CacheKey, FORMAT_VERSION};
use etir::Etir;
use serde::{Deserialize, Serialize};
use simgpu::KernelReport;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

/// One persisted compilation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheRecord {
    /// Writer's on-disk format version.
    pub v: u32,
    /// The (op, gpu, policy) key this schedule is valid for.
    pub key: CacheKey,
    /// Human-readable operator label (diagnostics only; the key is
    /// authoritative).
    pub op_label: String,
    /// Method that produced the schedule.
    pub method: String,
    /// The winning schedule.
    pub etir: Etir,
    /// Its simulated execution profile.
    pub report: KernelReport,
    /// Candidates the original compile scored.
    pub candidates_evaluated: u64,
    /// Seconds the original compile cost (wall + simulated measurement) —
    /// what a cache hit saves.
    pub tuning_s: f64,
}

/// What `Store::load` found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Records loaded successfully.
    pub loaded: usize,
    /// Mid-file lines that failed to parse (frame or JSON damage) and
    /// were skipped.
    pub corrupt: usize,
    /// Well-formed records written by a different format version.
    pub version_skipped: usize,
    /// Invalid lines at the *tail* of the file — a torn write from a
    /// crash mid-append — dropped by truncating the file back to the last
    /// valid record.
    pub recovered_truncated: usize,
}

/// What one [`Store::compact`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Lines kept (the newest record per key).
    pub kept: usize,
    /// Older duplicates of a key, superseded by a later line.
    pub superseded: usize,
    /// Well-formed lines written by another [`FORMAT_VERSION`], dropped.
    pub foreign_version: usize,
    /// Unparsable lines, dropped.
    pub corrupt: usize,
}

impl CompactReport {
    /// Total lines removed by the pass.
    pub fn dropped(&self) -> usize {
        self.superseded + self.foreign_version + self.corrupt
    }
}

/// Line-frame marker; bumped if the frame layout itself ever changes.
const FRAME_TAG: &str = "F1";

static CRC_TABLE: [u32; 256] = make_crc_table();

const fn make_crc_table() -> [u32; 256] {
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

/// CRC-32 (IEEE 802.3), the checksum inside each line frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// Wrap one JSON payload in the `F1 <len> <crc32:08x> <payload>\n` line
/// frame [`Store::load`] validates. Public so tests can craft foreign or
/// damaged lines byte-for-byte.
pub fn frame_line(payload: &str) -> String {
    format!(
        "{FRAME_TAG} {} {:08x} {payload}\n",
        payload.len(),
        crc32(payload.as_bytes())
    )
}

/// `Ok(Some(json))`: valid frame. `Ok(None)`: legacy unframed line.
/// `Err(())`: a frame that announces itself but fails validation
/// (truncated, bit-flipped, wrong length) — "damaged" has no useful
/// substructure, and the loader treats it as a truncation point.
fn unframe(line: &str) -> Result<Option<&str>, ()> {
    let Some(rest) = line.strip_prefix(const_format_prefix()) else {
        return Ok(None);
    };
    let (len_s, rest) = rest.split_once(' ').ok_or(())?;
    let (crc_s, payload) = rest.split_once(' ').ok_or(())?;
    let len: usize = len_s.parse().map_err(|_| ())?;
    let crc = u32::from_str_radix(crc_s, 16).map_err(|_| ())?;
    if payload.len() != len || crc32(payload.as_bytes()) != crc {
        return Err(());
    }
    Ok(Some(payload))
}

const fn const_format_prefix() -> &'static str {
    "F1 "
}

/// How one complete line classifies against the current format.
enum LineClass {
    Record(Box<CacheRecord>),
    Foreign,
    Corrupt,
}

fn classify(line: &str) -> LineClass {
    let payload = match unframe(line) {
        Ok(Some(p)) => p,
        Ok(None) => line, // legacy pre-framing plain JSON
        Err(()) => return LineClass::Corrupt,
    };
    // Check the version tag before insisting the full record parses:
    // future versions may have different fields.
    match serde_json::from_str::<serde_json::Value>(payload) {
        Err(_) => LineClass::Corrupt,
        Ok(v) => match v["v"].as_u64() {
            Some(ver) if ver == FORMAT_VERSION as u64 => {
                match serde_json::from_str::<CacheRecord>(payload) {
                    Ok(rec) => LineClass::Record(Box::new(rec)),
                    Err(_) => LineClass::Corrupt,
                }
            }
            Some(_) => LineClass::Foreign,
            None => LineClass::Corrupt,
        },
    }
}

/// Handle to one JSONL cache file.
#[derive(Debug, Clone)]
pub struct Store {
    path: PathBuf,
}

impl Store {
    /// Handle for `path` (the file need not exist yet).
    pub fn open(path: impl Into<PathBuf>) -> Self {
        Store { path: path.into() }
    }

    /// The file this store reads and appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Read every valid current-version record. A missing file is an
    /// empty store, not an error.
    ///
    /// A contiguous run of invalid lines at the tail — what a crash
    /// mid-append leaves — is treated as a torn write: the file is
    /// truncated back to the last valid record (so the next `O_APPEND`
    /// write starts on a clean boundary) and the dropped lines are
    /// counted in [`LoadReport::recovered_truncated`]. Invalid lines
    /// *followed by* valid ones are mid-file damage: skipped and counted
    /// as [`LoadReport::corrupt`], never truncated.
    pub fn load(&self) -> std::io::Result<(Vec<CacheRecord>, LoadReport)> {
        faults::failpoint!("store.load")?;
        // Raw bytes, split on b'\n', validated as UTF-8 *per line*: one
        // flipped byte of binary garbage must damage one line, never make
        // the whole load fail the way `read_to_string` would.
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Vec::new(), LoadReport::default()))
            }
            Err(e) => return Err(e),
        };
        let mut records = Vec::new();
        let mut report = LoadReport::default();
        // Byte offset just past the last line that validated; everything
        // after it at EOF is the torn tail.
        let mut valid_end = 0usize;
        let mut pending_bad = 0usize;
        let mut pos = 0usize;
        while pos < bytes.len() {
            let rest = &bytes[pos..];
            let (raw, next, terminated) = match rest.iter().position(|&b| b == b'\n') {
                Some(i) => (&rest[..i], pos + i + 1, true),
                None => (rest, bytes.len(), false),
            };
            // Non-UTF-8 damage is just an unparsable line.
            let line = std::str::from_utf8(raw).unwrap_or("\u{fffd}");
            if line.trim().is_empty() {
                // Blank filler is harmless; it does not break the valid
                // prefix.
                report.corrupt += std::mem::take(&mut pending_bad);
                valid_end = next;
            } else if !terminated {
                // A line without its newline is incomplete by definition
                // (the writer emits line + '\n' in one write), even if the
                // bytes so far happen to validate.
                pending_bad += 1;
            } else {
                match classify(line) {
                    LineClass::Record(rec) => {
                        report.corrupt += std::mem::take(&mut pending_bad);
                        records.push(*rec);
                        report.loaded += 1;
                        valid_end = next;
                    }
                    LineClass::Foreign => {
                        report.corrupt += std::mem::take(&mut pending_bad);
                        report.version_skipped += 1;
                        valid_end = next;
                    }
                    LineClass::Corrupt => pending_bad += 1,
                }
            }
            pos = next;
        }
        if pending_bad > 0 {
            report.recovered_truncated = pending_bad;
            // Best-effort repair: a read-only file still loads, it just
            // stays torn until someone can write.
            if let Ok(f) = OpenOptions::new().write(true).open(&self.path) {
                let _ = f.set_len(valid_end as u64);
                let _ = f.sync_all();
            }
        }
        Ok((records, report))
    }

    /// Append one record: a single `O_APPEND` write of one complete
    /// framed line (creates the file and parent directories on first
    /// use). Durability is batched — callers group appends and fsync via
    /// [`Store::sync`].
    pub fn append(&self, record: &CacheRecord) -> std::io::Result<()> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let json =
            serde_json::to_string(record).map_err(|e| std::io::Error::other(e.to_string()))?;
        let line = frame_line(&json);
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        match faults::check("store.append") {
            Some(faults::Action::Partial) => {
                // A genuine torn write: half the framed line, no newline —
                // exactly what a crash mid-`write_all` leaves behind.
                let _ = f.write_all(&line.as_bytes()[..line.len() / 2]);
                return Err(faults::injected_err("store.append"));
            }
            Some(_) => return Err(faults::injected_err("store.append")),
            None => {}
        }
        f.write_all(line.as_bytes())
    }

    /// Force the file's contents to stable storage (`fsync`) — the
    /// durability point for a batch of appends. The serve daemon calls
    /// this periodically and on graceful drain; a missing file is a
    /// no-op.
    pub fn sync(&self) -> std::io::Result<()> {
        faults::failpoint!("store.fsync")?;
        match std::fs::File::open(&self.path) {
            Ok(f) => f.sync_all(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Rewrite the append-only file keeping only the newest line per key:
    /// older duplicates (superseded winners), foreign-[`FORMAT_VERSION`]
    /// lines and corrupt lines are dropped. The rewrite is atomic *and
    /// durable* ([`faults::replace_file`]): a crash mid-compaction leaves
    /// the old file intact. Surviving lines keep their original bytes (no
    /// re-serialization, so floats cannot drift) and their relative order.
    pub fn compact(&self) -> std::io::Result<CompactReport> {
        faults::failpoint!("store.compact")?;
        let text = match std::fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(CompactReport::default())
            }
            Err(e) => return Err(e),
        };
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut report = CompactReport::default();
        // Index of the newest line per key; earlier occurrences are
        // superseded. Non-current-version and unparsable lines never enter.
        let mut newest: std::collections::HashMap<CacheKey, usize> =
            std::collections::HashMap::new();
        for (i, line) in lines.iter().enumerate() {
            match classify(line) {
                LineClass::Record(rec) => {
                    if let Some(prev) = newest.insert(rec.key, i) {
                        debug_assert!(prev < i);
                        report.superseded += 1;
                    }
                }
                LineClass::Foreign => report.foreign_version += 1,
                LineClass::Corrupt => report.corrupt += 1,
            }
        }
        let mut keep: Vec<usize> = newest.into_values().collect();
        keep.sort_unstable();
        report.kept = keep.len();

        let mut body = Vec::with_capacity(text.len());
        for i in &keep {
            body.extend_from_slice(lines[*i].as_bytes());
            body.push(b'\n');
        }
        faults::replace_file(&self.path, &body)?;
        Ok(report)
    }
}

/// Build a record from a compile result.
pub fn record(
    key: CacheKey,
    op_label: String,
    method: &str,
    kernel: &simgpu::CompiledKernel,
) -> CacheRecord {
    CacheRecord {
        v: FORMAT_VERSION,
        key,
        op_label,
        method: method.to_string(),
        etir: kernel.etir.clone(),
        report: kernel.report.clone(),
        candidates_evaluated: kernel.candidates_evaluated,
        tuning_s: kernel.total_tuning_s(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardware::GpuSpec;
    use tensor_expr::OpSpec;

    fn tmpfile(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("schedcache-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}-{}.jsonl", std::process::id()))
    }

    fn sample(m: u64) -> CacheRecord {
        let spec = GpuSpec::rtx4090();
        let op = OpSpec::gemm(m, 64, 64);
        let e = Etir::initial(op.clone(), &spec);
        let r = simgpu::simulate(&e, &spec).unwrap();
        CacheRecord {
            v: FORMAT_VERSION,
            key: CacheKey::new(&op, &spec, "Gensor"),
            op_label: op.label(),
            method: "Gensor".into(),
            etir: e,
            report: r,
            candidates_evaluated: 17,
            tuning_s: 0.25,
        }
    }

    fn json_of(rec: &CacheRecord) -> String {
        serde_json::to_string(rec).unwrap()
    }

    #[test]
    fn missing_file_is_empty() {
        let store = Store::open(tmpfile("missing"));
        let _ = std::fs::remove_file(store.path());
        let (recs, rep) = store.load().unwrap();
        assert!(recs.is_empty());
        assert_eq!(rep, LoadReport::default());
    }

    #[test]
    fn append_then_load_round_trips() {
        let store = Store::open(tmpfile("roundtrip"));
        let _ = std::fs::remove_file(store.path());
        let a = sample(128);
        let b = sample(256);
        store.append(&a).unwrap();
        store.append(&b).unwrap();
        let (recs, rep) = store.load().unwrap();
        assert_eq!(rep.loaded, 2);
        assert_eq!(rep.corrupt, 0);
        assert_eq!(recs, vec![a, b]);
    }

    #[test]
    fn lines_are_framed_with_length_and_crc() {
        let store = Store::open(tmpfile("framed"));
        let _ = std::fs::remove_file(store.path());
        let a = sample(128);
        store.append(&a).unwrap();
        let text = std::fs::read_to_string(store.path()).unwrap();
        assert_eq!(text, frame_line(&json_of(&a)));
        assert!(text.starts_with("F1 "));
    }

    #[test]
    fn legacy_unframed_lines_still_load() {
        let store = Store::open(tmpfile("legacy"));
        let _ = std::fs::remove_file(store.path());
        std::fs::write(store.path(), format!("{}\n", json_of(&sample(128)))).unwrap();
        store.append(&sample(256)).unwrap();
        let (recs, rep) = store.load().unwrap();
        assert_eq!(rep.loaded, 2, "plain pre-framing line + framed line");
        assert_eq!(rep.corrupt, 0);
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn corrupt_and_truncated_lines_are_skipped_and_counted() {
        let store = Store::open(tmpfile("corrupt"));
        let _ = std::fs::remove_file(store.path());
        store.append(&sample(128)).unwrap();
        // Simulate a crash mid-append plus editor damage.
        let mut text = std::fs::read_to_string(store.path()).unwrap();
        text.push_str("{\"v\":1,\"key\":{\"op_fp\":12,\"gpu\n");
        text.push_str("not json at all\n");
        text.push_str("{\"v\":1}\n"); // parses as Value, missing fields
        std::fs::write(store.path(), &text).unwrap();
        store.append(&sample(256)).unwrap();
        let (recs, rep) = store.load().unwrap();
        assert_eq!(rep.loaded, 2, "both good records survive");
        assert_eq!(rep.corrupt, 3, "all three damaged lines counted");
        assert_eq!(rep.recovered_truncated, 0, "damage is mid-file, not torn");
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn a_tile_array_longer_than_any_operator_is_a_corrupt_line() {
        let store = Store::open(tmpfile("long-tile"));
        let _ = std::fs::remove_file(store.path());
        let long =
            json_of(&sample(128)).replace("\"smem_tile\":[1,1]", "\"smem_tile\":[1,1,1,1,1]");
        std::fs::write(store.path(), frame_line(&long)).unwrap();
        store.append(&sample(256)).unwrap();
        let (recs, rep) = store.load().unwrap();
        assert_eq!((rep.loaded, rep.corrupt), (1, 1));
        assert_eq!(recs, vec![sample(256)]);
    }

    #[test]
    fn torn_tail_is_truncated_back_to_the_last_valid_record() {
        let store = Store::open(tmpfile("torn"));
        let _ = std::fs::remove_file(store.path());
        let a = sample(128);
        store.append(&a).unwrap();
        let clean = std::fs::read(store.path()).unwrap();
        // A crash mid-append: a prefix of a framed line, no newline.
        let torn = frame_line(&json_of(&sample(256)));
        let mut damaged = clean.clone();
        damaged.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        std::fs::write(store.path(), &damaged).unwrap();

        let (recs, rep) = store.load().unwrap();
        assert_eq!(rep.loaded, 1);
        assert_eq!(rep.recovered_truncated, 1, "torn tail detected");
        assert_eq!(rep.corrupt, 0);
        assert_eq!(recs, vec![a.clone()]);
        assert_eq!(
            std::fs::read(store.path()).unwrap(),
            clean,
            "file physically truncated to the last valid record"
        );
        // The repaired file appends on a clean boundary.
        let b = sample(512);
        store.append(&b).unwrap();
        let (recs, rep) = store.load().unwrap();
        assert_eq!((rep.loaded, rep.recovered_truncated), (2, 0));
        assert_eq!(recs, vec![a, b]);
    }

    #[test]
    fn a_valid_looking_tail_without_newline_is_still_torn() {
        let store = Store::open(tmpfile("torn-newline"));
        let _ = std::fs::remove_file(store.path());
        store.append(&sample(128)).unwrap();
        let clean = std::fs::read(store.path()).unwrap();
        // The write died exactly before the trailing '\n'.
        let line = frame_line(&json_of(&sample(256)));
        let mut damaged = clean.clone();
        damaged.extend_from_slice(&line.as_bytes()[..line.len() - 1]);
        std::fs::write(store.path(), &damaged).unwrap();
        let (recs, rep) = store.load().unwrap();
        assert_eq!(rep.loaded, 1, "an unterminated record never landed");
        assert_eq!(rep.recovered_truncated, 1);
        assert_eq!(recs.len(), 1);
        assert_eq!(std::fs::read(store.path()).unwrap(), clean);
    }

    // Tests that *arm* failpoints live in tests/tests/chaos.rs: failpoint
    // state is process-global, and this binary's tests run concurrently.

    #[test]
    fn compact_keeps_only_the_newest_line_per_key() {
        let store = Store::open(tmpfile("compact"));
        let _ = std::fs::remove_file(store.path());
        let mut newer = sample(128);
        newer.tuning_s = 9.0; // distinguishable from the first write
        store.append(&sample(128)).unwrap();
        store.append(&sample(256)).unwrap();
        store.append(&newer).unwrap();
        // Damage + a foreign version in the middle.
        let mut text = std::fs::read_to_string(store.path()).unwrap();
        text.push_str("garbage line\n");
        text.push_str(&frame_line(
            &json_of(&sample(128)).replace("\"v\":1", "\"v\":7"),
        ));
        std::fs::write(store.path(), &text).unwrap();

        let rep = store.compact().unwrap();
        assert_eq!(rep.kept, 2);
        assert_eq!(rep.superseded, 1, "older duplicate of key 128 dropped");
        assert_eq!(rep.foreign_version, 1);
        assert_eq!(rep.corrupt, 1);
        assert_eq!(rep.dropped(), 3);

        let (recs, load) = store.load().unwrap();
        assert_eq!(load.loaded, 2);
        assert_eq!((load.corrupt, load.version_skipped), (0, 0));
        let survivor = recs.iter().find(|r| r.key == newer.key).unwrap();
        assert_eq!(survivor.tuning_s, 9.0, "the *newest* duplicate survives");
    }

    #[test]
    fn compact_is_idempotent_and_atomic_leftovers_are_absent() {
        // Its own directory: the leftover scan below must not see the
        // tmp file of another test's compaction in flight.
        let dir = std::env::temp_dir().join(format!(
            "schedcache-store-compact-idem-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = Store::open(dir.join("store.jsonl"));
        for m in [128u64, 256, 128, 512, 256] {
            store.append(&sample(m)).unwrap();
        }
        let first = store.compact().unwrap();
        assert_eq!(first.kept, 3);
        assert_eq!(first.superseded, 2);
        let bytes = std::fs::read(store.path()).unwrap();
        let second = store.compact().unwrap();
        assert_eq!(
            second,
            CompactReport {
                kept: 3,
                ..Default::default()
            }
        );
        assert_eq!(
            std::fs::read(store.path()).unwrap(),
            bytes,
            "a second pass must not change a single byte"
        );
        // No tmp file left behind.
        assert!(std::fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .contains(".tmp.")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_of_a_missing_file_is_empty() {
        let store = Store::open(tmpfile("compact-missing"));
        let _ = std::fs::remove_file(store.path());
        assert_eq!(store.compact().unwrap(), CompactReport::default());
        store.sync().unwrap();
    }

    #[test]
    fn foreign_versions_are_counted_separately() {
        let store = Store::open(tmpfile("versions"));
        let _ = std::fs::remove_file(store.path());
        store.append(&sample(128)).unwrap();
        let mut text = std::fs::read_to_string(store.path()).unwrap();
        text.push_str(&frame_line(
            &json_of(&sample(128)).replace("\"v\":1", "\"v\":999"),
        ));
        std::fs::write(store.path(), &text).unwrap();
        let (recs, rep) = store.load().unwrap();
        assert_eq!(rep.loaded, 1);
        assert_eq!(rep.version_skipped, 1);
        assert_eq!(rep.corrupt, 0);
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
