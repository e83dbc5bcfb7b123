//! The durable registry: a write-ahead journal plus periodic snapshots.
//!
//! When the server runs with `--data-dir`, every registry mutation
//! (`register_tensor`, `unregister`, LRU eviction) is appended to a
//! journal **before** it is applied in memory, and the journal is
//! folded into a snapshot every [`DEFAULT_SNAPSHOT_EVERY`] records. On
//! restart the engine replays snapshot + journal; per-name generation
//! counters are part of the records, so stale-pin semantics
//! (`stale_tensor` on a run over re-registered data) survive a crash.
//!
//! ## On-disk format
//!
//! Both files are a sequence of framed records:
//!
//! ```text
//! [payload length: u32 LE][CRC-32 of payload: u32 LE][payload]
//! ```
//!
//! The payload is one JSON object rendered by the same hardened codec
//! as the wire protocol ([`crate::json`]), so escaping-hostile tensor
//! names and non-finite values round-trip exactly like they do on the
//! wire. Recovery reads the longest valid prefix: a short header, an
//! over-long length, a CRC mismatch, or an undecodable payload all
//! mark a torn tail, which is truncated (and counted in
//! `systec_recovery_truncated_total`) so the journal can be appended
//! to again. One mutation is one *batch* — an eviction's `Unregister`s
//! and the `Register` that caused them — appended in one write and one
//! fsync before any of it is applied in memory, and a failed append
//! rolls the file back to its old length: a crash can tear only the
//! batch in flight, and a refused one leaves nothing behind.
//!
//! Snapshots are written to a temp file, fsynced, and renamed over the
//! old snapshot before the journal is reset, so a crash at any point
//! leaves either the old snapshot + full journal or the new snapshot.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::fault::{FaultPlan, FaultSite};
use crate::json::Json;
use crate::protocol::{dims_json, usize_array, TensorPayload};
use crate::wire::{opt, Obj, Wire as _};

/// Records between automatic snapshot folds (overridable for tests via
/// [`crate::Engine::with_snapshot_every`]).
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 1024;

/// Journal file name inside the data dir.
pub const JOURNAL_FILE: &str = "journal.dat";
/// Snapshot file name inside the data dir.
pub const SNAPSHOT_FILE: &str = "snapshot.dat";

/// Cap on a single record's payload, mirroring the wire's request-line
/// cap: a length prefix beyond this is corruption, not a record.
const MAX_RECORD_LEN: usize = 64 * 1024 * 1024;

/// One durable registry mutation (or snapshot row).
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// A tensor (re-)registration: the stored data and the generation
    /// it was assigned.
    Register {
        /// Registered name.
        name: String,
        /// Tensor dimensions.
        dims: Vec<usize>,
        /// Generation assigned to this registration.
        generation: u64,
        /// The stored data: dense values or sparse COO entries.
        payload: TensorPayload,
    },
    /// A tensor removal (explicit `unregister` or LRU eviction).
    Unregister {
        /// The removed name.
        name: String,
    },
    /// Snapshot header: the full per-name generation history, including
    /// names whose tensors are gone. Required for anti-ABA semantics —
    /// a name must never be reborn at a generation a stale kernel still
    /// pins, even across restarts.
    Generations {
        /// `(name, highest generation ever assigned)` pairs.
        generations: Vec<(String, u64)>,
    },
}

impl Record {
    /// Renders the JSON payload (no framing).
    pub fn encode(&self) -> String {
        let rec = |tag: &str| Obj::default().with("rec", &tag.to_string());
        let obj = match self {
            Record::Register { name, dims, generation, payload } => {
                let (key, data) = payload.to_json();
                rec("register")
                    .with("name", name)
                    .raw("dims", dims_json(dims))
                    .with("generation", generation)
                    .raw(key, data)
            }
            Record::Unregister { name } => rec("unregister").with("name", name),
            Record::Generations { generations } => {
                let pair = |(name, g): &(String, u64)| Json::Arr(vec![name.to_json(), g.to_json()]);
                rec("generations")
                    .raw("generations", Json::Arr(generations.iter().map(pair).collect()))
            }
        };
        obj.json().to_string()
    }

    /// Parses a record payload; `None` for anything malformed (the
    /// caller treats it as a torn tail).
    pub fn decode(text: &str) -> Option<Record> {
        let json = Json::parse(text).ok()?;
        let name = || opt::<String>(&json, "name").ok().flatten();
        match json.get("rec")?.as_str()? {
            "register" => {
                let dims = usize_array(&json, "dims").ok()?;
                let generation = opt(&json, "generation").ok()??;
                let payload = TensorPayload::from_json(&json, dims.len()).ok()?;
                Some(Record::Register { name: name()?, dims, generation, payload })
            }
            "unregister" => Some(Record::Unregister { name: name()? }),
            "generations" => {
                let pair = |pair: &Json| match pair.as_arr()? {
                    [name, g] => Some((name.as_str()?.to_string(), g.as_u64()?)),
                    _ => None,
                };
                let generations = json.get("generations")?.as_arr()?.iter().map(pair);
                Some(Record::Generations { generations: generations.collect::<Option<_>>()? })
            }
            _ => None,
        }
    }

    /// Frames the record for disk: length + CRC-32 + payload.
    pub fn frame(&self) -> Vec<u8> {
        let payload = self.encode().into_bytes();
        let mut out = Vec::with_capacity(payload.len() + 8);
        out.extend_from_slice(
            &u32::try_from(payload.len()).expect("record under 4 GiB").to_le_bytes(),
        );
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`), bitwise —
/// recovery-path speed is irrelevant next to the fsyncs.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Result of decoding a framed byte stream: the longest valid prefix.
#[derive(Debug)]
pub struct DecodedStream {
    /// Records of the valid prefix, in order.
    pub records: Vec<Record>,
    /// Bytes consumed by the valid prefix.
    pub valid_len: usize,
    /// Bytes beyond the valid prefix (the torn tail).
    pub truncated: u64,
}

/// Decodes framed records until the bytes stop cooperating. Never
/// panics: any malformed suffix — short header, absurd length, CRC
/// mismatch, invalid UTF-8 or JSON — ends the valid prefix.
pub fn decode_stream(bytes: &[u8]) -> DecodedStream {
    let mut records = Vec::new();
    let mut off = 0usize;
    while bytes.len() - off >= 8 {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN || bytes.len() - off - 8 < len {
            break;
        }
        let payload = &bytes[off + 8..off + 8 + len];
        if crc32(payload) != crc {
            break;
        }
        let Ok(text) = std::str::from_utf8(payload) else { break };
        let Some(record) = Record::decode(text) else { break };
        records.push(record);
        off += 8 + len;
    }
    DecodedStream { records, valid_len: off, truncated: (bytes.len() - off) as u64 }
}

/// What startup recovery found in a data dir.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Snapshot records followed by journal records, in replay order.
    pub records: Vec<Record>,
    /// Torn-tail bytes truncated (snapshot + journal).
    pub truncated: u64,
}

/// An open data dir: the journal file handle plus snapshot bookkeeping.
#[derive(Debug)]
pub struct Durability {
    root: PathBuf,
    journal: File,
    /// Length of the journal's valid contents — where a failed append
    /// rolls the file back to.
    len: u64,
    /// Set when that rollback itself failed: torn bytes sit at the tail,
    /// and a record appended behind them would be acknowledged now and
    /// truncated by the next recovery, so every later append is refused.
    torn: bool,
    /// Journal records since the last snapshot fold.
    since_snapshot: u64,
    /// Fold the journal into a snapshot after this many records.
    snapshot_every: u64,
}

impl Durability {
    /// Opens (creating if needed) a data dir, recovering the valid
    /// prefix of snapshot + journal and truncating any torn journal
    /// tail so the journal is appendable again.
    pub fn open(root: &Path, snapshot_every: u64) -> io::Result<(Durability, Recovery)> {
        fs::create_dir_all(root)?;
        let snapshot = decode_stream(&read_if_exists(&root.join(SNAPSHOT_FILE))?);
        let journal_path = root.join(JOURNAL_FILE);
        let decoded = decode_stream(&read_if_exists(&journal_path)?);
        let journal = OpenOptions::new().create(true).append(true).open(&journal_path)?;
        if decoded.truncated > 0 {
            journal.set_len(decoded.valid_len as u64)?;
            journal.sync_all()?;
        }
        let durability = Durability {
            root: root.to_path_buf(),
            journal,
            len: decoded.valid_len as u64,
            torn: false,
            since_snapshot: decoded.records.len() as u64,
            snapshot_every: snapshot_every.max(1),
        };
        let truncated = snapshot.truncated + decoded.truncated;
        let records = snapshot.records.into_iter().chain(decoded.records).collect();
        Ok((durability, Recovery { records, truncated }))
    }

    /// Appends `records` as one batch — one write, one fsync — and
    /// returns the framed bytes written. The caller applies the batch in
    /// memory only after this returns `Ok` (write-ahead); on any write or
    /// sync error the file is rolled back to its pre-append length, so a
    /// refused batch leaves no record behind. `faults` is the chaos seam:
    /// a firing `JournalWrite` tears the append half way, like a disk
    /// filling up mid-write.
    pub fn append(&mut self, records: &[Record], faults: Option<&FaultPlan>) -> io::Result<u64> {
        if self.torn {
            return Err(io::Error::other(
                "an earlier failed append could not be rolled back; refusing to append behind it",
            ));
        }
        let batch: Vec<u8> = records.iter().flat_map(Record::frame).collect();
        let written = if faults.is_some_and(|plan| plan.fire(FaultSite::JournalWrite)) {
            self.journal
                .write_all(&batch[..batch.len() / 2])
                .and(Err(io::Error::other("injected journal write failure")))
        } else {
            self.journal.write_all(&batch).and_then(|()| self.journal.sync_data())
        };
        if let Err(e) = written {
            let rolled_back =
                self.journal.set_len(self.len).and_then(|()| self.journal.sync_data());
            self.torn = rolled_back.is_err();
            return Err(e);
        }
        self.len += batch.len() as u64;
        self.since_snapshot += records.len() as u64;
        Ok(batch.len() as u64)
    }

    /// Flushes the journal to disk (a formality — every append syncs).
    pub fn sync(&mut self) -> io::Result<()> {
        self.journal.sync_data()
    }

    /// Whether enough records accumulated to fold into a snapshot.
    pub fn wants_snapshot(&self) -> bool {
        self.since_snapshot >= self.snapshot_every
    }

    /// Writes `records` as the new snapshot (temp file + fsync +
    /// rename), then resets the journal. Returns bytes written and the
    /// fsyncs issued. On error the old snapshot and the journal are
    /// still intact — the journal stays the source of truth.
    pub fn write_snapshot(&mut self, records: &[Record]) -> io::Result<(u64, u64)> {
        let tmp = self.root.join("snapshot.tmp");
        let mut bytes = 0u64;
        {
            let mut file = File::create(&tmp)?;
            for record in records {
                let frame = record.frame();
                file.write_all(&frame)?;
                bytes += frame.len() as u64;
            }
            file.sync_all()?;
        }
        fs::rename(&tmp, self.root.join(SNAPSHOT_FILE))?;
        // Reset the journal only after the snapshot is durable.
        self.journal.set_len(0)?;
        self.len = 0;
        self.since_snapshot = 0;
        self.journal.sync_all()?;
        Ok((bytes, 2))
    }
}

fn read_if_exists(path: &Path) -> io::Result<Vec<u8>> {
    match fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Register {
                name: "a\"\\\u{1}".into(),
                dims: vec![2, 2],
                generation: 3,
                payload: TensorPayload::Dense(vec![1.0, 0.0, -2.5, f64::NAN]),
            },
            Record::Register {
                name: "s".into(),
                dims: vec![3, 3],
                generation: 0,
                payload: TensorPayload::Coo(vec![(vec![0, 1], 2.0), (vec![2, 2], f64::INFINITY)]),
            },
            Record::Unregister { name: "gone".into() },
            Record::Generations { generations: vec![("a".into(), 7), ("weird\nname".into(), 0)] },
        ]
    }

    /// NaN-tolerant record equality (PartialEq on f64 rejects NaN).
    fn same(a: &Record, b: &Record) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    #[test]
    fn records_roundtrip_through_encode_decode() {
        // The payloads are an on-disk format: a data dir written by an
        // older build must keep replaying, so the bytes are pinned.
        let on_disk = [
            r#"{"rec":"register","name":"a\"\\\u0001","dims":[2,2],"generation":3,"dense":[1,0,-2.5,"nan"]}"#,
            r#"{"rec":"register","name":"s","dims":[3,3],"generation":0,"coo":[[0,1,2],[2,2,"inf"]]}"#,
            r#"{"rec":"unregister","name":"gone"}"#,
            r#"{"rec":"generations","generations":[["a",7],["weird\nname",0]]}"#,
        ];
        for (record, bytes) in sample_records().into_iter().zip(on_disk) {
            assert_eq!(record.encode(), bytes);
            let decoded = Record::decode(bytes).expect("decodes");
            assert!(same(&record, &decoded), "{record:?} vs {decoded:?}");
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn decode_stream_recovers_the_valid_prefix_at_every_truncation() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&r.frame());
        }
        for cut in 0..=bytes.len() {
            let decoded = decode_stream(&bytes[..cut]);
            assert!(decoded.records.len() <= records.len());
            for (got, want) in decoded.records.iter().zip(&records) {
                assert!(same(got, want));
            }
            assert_eq!(decoded.valid_len + decoded.truncated as usize, cut);
        }
        let whole = decode_stream(&bytes);
        assert_eq!(whole.records.len(), records.len());
        assert_eq!(whole.truncated, 0);
    }

    #[test]
    fn corrupt_crc_ends_the_prefix() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&r.frame());
        }
        // Flip one payload byte of the second record.
        let first_len = records[0].frame().len();
        bytes[first_len + 10] ^= 0x40;
        let decoded = decode_stream(&bytes);
        assert_eq!(decoded.records.len(), 1);
        assert!(decoded.truncated > 0);
    }

    #[test]
    fn journal_survives_reopen_and_truncates_torn_tails() {
        let dir = std::env::temp_dir().join(format!("systec-dur-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let records = sample_records();
        {
            let (mut dur, recovery) = Durability::open(&dir, 1024).unwrap();
            assert!(recovery.records.is_empty());
            dur.append(&records, None).unwrap();
        }
        // Torn tail: append garbage that looks like a half-written frame.
        {
            let mut f = OpenOptions::new().append(true).open(dir.join(JOURNAL_FILE)).unwrap();
            f.write_all(&[9, 0, 0, 0, 1, 2]).unwrap();
        }
        let (mut dur, recovery) = Durability::open(&dir, 2).unwrap();
        assert_eq!(recovery.records.len(), records.len());
        assert_eq!(recovery.truncated, 6);
        // The torn tail was physically truncated: appending now yields
        // a clean journal.
        assert!(dur.wants_snapshot());
        dur.write_snapshot(&records).unwrap();
        assert!(!dur.wants_snapshot());
        drop(dur);
        let (_, recovery) = Durability::open(&dir, 1024).unwrap();
        assert_eq!(recovery.records.len(), records.len(), "snapshot replays");
        assert_eq!(recovery.truncated, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
