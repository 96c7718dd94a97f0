//! The cold tier: a content-addressed, append-only prediction store.
//!
//! One segment file (`predictions.seg`) holds crc32-checked records
//! keyed by [`CacheKey::fingerprint`](crate::engine::CacheKey::fingerprint)
//! values. The layout is deliberately dumb — an 8-byte magic header
//! followed by back-to-back records:
//!
//! ```text
//! fingerprint: u64 LE | payload_len: u32 LE | crc32(payload): u32 LE | payload
//! ```
//!
//! The payload is a fixed-width little-endian encoding of a
//! [`Prediction`] (f64 bit patterns, u64 counters, length-prefixed phase
//! names), so encode/decode round-trips bit-exactly — a restored entry
//! serves byte-identical replies.
//!
//! Crash safety comes from the append-only discipline: a write that
//! dies mid-record leaves a *torn tail*, and opening the segment scans
//! every record, stops at the first incomplete or crc-failing one, and
//! truncates the file back to the last good boundary. Only the torn
//! tail is lost; the `truncated_bytes` and `restored` counters of
//! [`DiskStore::metrics`] report exactly what recovery did. The chaos
//! suite injects torn appends through the same
//! [`TornWriter`](rvhpc_faults::TornWriter) shredder the reply path
//! uses (site `store`), via [`DiskStore::set_shred_hook`], and asserts
//! the recovery counters match the injected counts.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rvhpc_faults::{note_recovery, TornWriter};
use rvhpc_obs::JsonValue;

use crate::model::{PhaseTime, Prediction};
use rvhpc_archsim::{HierarchyCounters, QueueOccupancy, StallAccount};

/// Segment magic: identifies the file and pins the layout version.
pub(crate) const SEGMENT_MAGIC: [u8; 8] = *b"rvhpcsg1";

/// Segment file name inside the store directory.
pub(crate) const SEGMENT_FILE: &str = "predictions.seg";

/// Bytes of record header before the payload: fp u64 + len u32 + crc u32.
pub(crate) const RECORD_HEADER_LEN: usize = 16;

/// Sanity bound on payload size; anything larger is treated as torn.
const MAX_PAYLOAD: usize = 1 << 20;

/// Sanity bound on per-prediction phase count during decode.
const MAX_PHASES: usize = 1 << 16;

// ---------------------------------------------------------------------------
// crc32 (IEEE), table generated at compile time — no external crates.
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
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

/// IEEE crc32 of `bytes` (the polynomial zip/png/gzip use).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------------
// Prediction payload codec.
// ---------------------------------------------------------------------------

/// [`PhaseTime::name`] is `&'static str`; decoding a segment written by
/// an earlier process must mint equivalent statics. Names come from a
/// small fixed set of phase labels, so a linear-scan intern pool is
/// plenty — and crc checking means garbage never reaches it.
static PHASE_NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

fn intern_phase_name(name: &str) -> &'static str {
    let mut pool = PHASE_NAMES.lock().unwrap();
    if let Some(known) = pool.iter().find(|k| **k == name) {
        return known;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    pool.push(leaked);
    leaked
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("payload truncated at offset {}", self.off))?;
        let slice = &self.bytes[self.off..end];
        self.off = end;
        Ok(slice)
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
}

/// Encode a prediction as the fixed little-endian payload. Bit-exact:
/// floats travel as their `to_bits` patterns, so NaNs and signed zeros
/// survive unchanged.
pub fn encode_prediction(p: &Prediction) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + p.per_phase.len() * 48);
    put_f64(&mut out, p.seconds);
    put_f64(&mut out, p.mops);
    put_u32(&mut out, p.per_phase.len() as u32);
    for phase in &p.per_phase {
        put_u32(&mut out, phase.name.len() as u32);
        out.extend_from_slice(phase.name.as_bytes());
        put_f64(&mut out, phase.seconds);
        put_f64(&mut out, phase.cpu_seconds);
        put_f64(&mut out, phase.bw_seconds);
        put_f64(&mut out, phase.dram_utilization);
    }
    put_f64(&mut out, p.stalls.compute_cycles);
    put_f64(&mut out, p.stalls.cache_stall_cycles);
    put_f64(&mut out, p.stalls.dram_stall_cycles);
    put_f64(&mut out, p.stalls.bw_bound_time);
    put_f64(&mut out, p.stalls.total_time);
    put_u64(&mut out, p.hierarchy.accesses);
    put_u64(&mut out, p.hierarchy.l1_hits);
    put_u64(&mut out, p.hierarchy.l2_hits);
    put_u64(&mut out, p.hierarchy.l3_hits);
    put_u64(&mut out, p.hierarchy.dram);
    put_f64(&mut out, p.dram_queue.weighted_depth);
    put_f64(&mut out, p.dram_queue.time);
    out
}

/// Decode a payload produced by [`encode_prediction`]. Rejects short,
/// oversized or trailing-garbage payloads with a description of the
/// first problem.
pub fn decode_prediction(bytes: &[u8]) -> Result<Prediction, String> {
    let mut cur = Cursor { bytes, off: 0 };
    let seconds = cur.f64()?;
    let mops = cur.f64()?;
    let nphases = cur.u32()? as usize;
    if nphases > MAX_PHASES {
        return Err(format!("implausible phase count {nphases}"));
    }
    let mut per_phase = Vec::with_capacity(nphases);
    for _ in 0..nphases {
        let name_len = cur.u32()? as usize;
        let name = std::str::from_utf8(cur.take(name_len)?)
            .map_err(|_| "phase name is not utf-8".to_string())?;
        per_phase.push(PhaseTime {
            name: intern_phase_name(name),
            seconds: cur.f64()?,
            cpu_seconds: cur.f64()?,
            bw_seconds: cur.f64()?,
            dram_utilization: cur.f64()?,
        });
    }
    let stalls = StallAccount {
        compute_cycles: cur.f64()?,
        cache_stall_cycles: cur.f64()?,
        dram_stall_cycles: cur.f64()?,
        bw_bound_time: cur.f64()?,
        total_time: cur.f64()?,
    };
    let hierarchy = HierarchyCounters {
        accesses: cur.u64()?,
        l1_hits: cur.u64()?,
        l2_hits: cur.u64()?,
        l3_hits: cur.u64()?,
        dram: cur.u64()?,
    };
    let dram_queue = QueueOccupancy {
        weighted_depth: cur.f64()?,
        time: cur.f64()?,
    };
    if cur.off != bytes.len() {
        return Err(format!(
            "{} trailing bytes after prediction payload",
            bytes.len() - cur.off
        ));
    }
    Ok(Prediction {
        seconds,
        mops,
        per_phase,
        stalls,
        hierarchy,
        dram_queue,
    })
}

/// Frame a payload as one on-disk record (header + payload).
pub(crate) fn encode_record(fp: u64, payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    put_u64(&mut rec, fp);
    put_u32(&mut rec, payload.len() as u32);
    put_u32(&mut rec, crc32(payload));
    rec.extend_from_slice(payload);
    rec
}

// ---------------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------------

/// Counter snapshot for the gated `store` metrics section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Distinct fingerprints indexed.
    pub entries: u64,
    /// Segment size on disk (header + records).
    pub bytes: u64,
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups that found nothing on disk.
    pub misses: u64,
    /// Records appended this process (write-through + spills + snapshot).
    pub appends: u64,
    /// Records restored from the segment at open.
    pub restored: u64,
    /// Torn-tail bytes dropped by open-time recovery.
    pub truncated_bytes: u64,
    /// Injected torn appends healed in-line (truncate + rewrite).
    pub torn_recoveries: u64,
    /// Appends that failed with an I/O error (entry stays memory-only).
    pub write_errors: u64,
}

impl StoreMetrics {
    /// Deterministic JSON object (fixed key order).
    pub(crate) fn to_json(self) -> JsonValue {
        JsonValue::object(vec![
            ("entries".to_string(), JsonValue::from(self.entries)),
            ("bytes".to_string(), JsonValue::from(self.bytes)),
            ("hits".to_string(), JsonValue::from(self.hits)),
            ("misses".to_string(), JsonValue::from(self.misses)),
            ("appends".to_string(), JsonValue::from(self.appends)),
            ("restored".to_string(), JsonValue::from(self.restored)),
            (
                "truncated_bytes".to_string(),
                JsonValue::from(self.truncated_bytes),
            ),
            (
                "torn_recoveries".to_string(),
                JsonValue::from(self.torn_recoveries),
            ),
            (
                "write_errors".to_string(),
                JsonValue::from(self.write_errors),
            ),
        ])
    }
}

struct Inner {
    file: File,
    /// End of the last valid record (next append offset).
    end: u64,
    /// fingerprint → (payload offset, payload length). Last write wins.
    index: HashMap<u64, (u64, u32)>,
}

type ShredHook = Box<dyn Fn() -> Option<u64> + Send + Sync>;

/// The on-disk prediction tier. All file access is serialized behind
/// one mutex — the disk tier is only consulted on hot-tier misses, so
/// contention is not a concern; correctness of the append offset is.
pub struct DiskStore {
    path: PathBuf,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    appends: AtomicU64,
    torn_recoveries: AtomicU64,
    write_errors: AtomicU64,
    restored: u64,
    truncated_bytes: u64,
    /// Chaos hook: when set and returning `Some(chunk)`, the next append
    /// is torn after at most `chunk` bytes and must heal itself.
    shred: Mutex<Option<ShredHook>>,
}

impl std::fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStore")
            .field("path", &self.path)
            .field("restored", &self.restored)
            .field("truncated_bytes", &self.truncated_bytes)
            .finish_non_exhaustive()
    }
}

impl DiskStore {
    /// Segment path for a store directory.
    pub(crate) fn segment_path(dir: &Path) -> PathBuf {
        dir.join(SEGMENT_FILE)
    }

    /// Open (or create) the store under `dir`, scanning the segment and
    /// truncating any torn tail back to the last whole record.
    pub fn open(dir: &Path) -> io::Result<DiskStore> {
        std::fs::create_dir_all(dir)?;
        let path = Self::segment_path(dir);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut truncated = 0u64;
        let mut index = HashMap::new();
        let end;
        if bytes.len() < SEGMENT_MAGIC.len() {
            // Even the header is torn (or the file is new): start over.
            truncated = bytes.len() as u64;
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&SEGMENT_MAGIC)?;
            end = SEGMENT_MAGIC.len() as u64;
        } else {
            if bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{} is not an rvhpc segment file", path.display()),
                ));
            }
            let mut off = SEGMENT_MAGIC.len();
            // Scan until the first incomplete record header (torn tail).
            while let Some(header) = bytes.get(off..off + RECORD_HEADER_LEN) {
                let fp = u64::from_le_bytes(header[0..8].try_into().unwrap());
                let len = u32::from_le_bytes(header[8..12].try_into().unwrap());
                let crc = u32::from_le_bytes(header[12..16].try_into().unwrap());
                if len as usize > MAX_PAYLOAD {
                    break; // implausible length = torn header
                }
                let payload_at = off + RECORD_HEADER_LEN;
                let Some(payload) = bytes.get(payload_at..payload_at + len as usize) else {
                    break; // payload cut short = torn tail
                };
                if crc32(payload) != crc {
                    break; // bit rot or torn rewrite: drop from here on
                }
                index.insert(fp, (payload_at as u64, len));
                off = payload_at + len as usize;
            }
            if off < bytes.len() {
                truncated = (bytes.len() - off) as u64;
                file.set_len(off as u64)?;
            }
            end = off as u64;
        }
        file.seek(SeekFrom::Start(end))?;
        let restored = index.len() as u64;
        Ok(DiskStore {
            path,
            inner: Mutex::new(Inner { file, end, index }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            torn_recoveries: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            restored,
            truncated_bytes: truncated,
            shred: Mutex::new(None),
        })
    }

    /// Install the chaos shred hook (serve wires this to the injector's
    /// `store` site). `None` from the hook means "append normally".
    pub fn set_shred_hook(&self, hook: ShredHook) {
        *self.shred.lock().unwrap() = Some(hook);
    }

    /// Look up a fingerprint, decoding the stored prediction. Counts a
    /// disk hit or miss — this is the serving probe.
    pub fn get(&self, fp: u64) -> Option<Prediction> {
        let mut inner = self.inner.lock().unwrap();
        let Some(&(off, len)) = inner.index.get(&fp) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let mut payload = vec![0u8; len as usize];
        let read = inner
            .file
            .seek(SeekFrom::Start(off))
            .and_then(|_| inner.file.read_exact(&mut payload));
        drop(inner);
        match read.ok().and_then(|_| decode_prediction(&payload).ok()) {
            Some(pred) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(pred)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether a fingerprint is indexed. A warmth probe: never counts.
    pub(crate) fn contains(&self, fp: u64) -> bool {
        self.inner.lock().unwrap().index.contains_key(&fp)
    }

    /// Append one prediction. Returns `Ok(false)` when the fingerprint
    /// is already stored (append-once semantics). When the shred hook
    /// fires, the append is deliberately torn through a [`TornWriter`],
    /// then healed: truncate back to the record boundary and rewrite
    /// whole — the recovery the open-time scan would otherwise perform
    /// at next boot, proven in-line and counted.
    pub fn append(&self, fp: u64, pred: &Prediction) -> io::Result<bool> {
        let mut inner = self.inner.lock().unwrap();
        if inner.index.contains_key(&fp) {
            return Ok(false);
        }
        let payload = encode_prediction(pred);
        let record = encode_record(fp, &payload);
        let start = inner.end;
        let shred = {
            let hook = self.shred.lock().unwrap();
            hook.as_ref().and_then(|h| h())
        };
        let result = (|| -> io::Result<()> {
            if let Some(chunk) = shred {
                // Simulated crash mid-append: a naive writer pushes the
                // record through the shredder (first call EINTRs, the
                // second lands at most `chunk` bytes) and gives up,
                // leaving a torn record on disk.
                inner.file.seek(SeekFrom::Start(start))?;
                let mut torn = TornWriter::new(&mut inner.file, chunk.max(1) as usize);
                // One retry after the injected EINTR, then "crash": at
                // most `chunk` bytes of the record land on disk.
                let _ = torn.write(&record);
                let _ = torn.write(&record);
                inner.file.flush()?;
                // Recovery: drop the torn tail, then write the record
                // whole from the same boundary.
                inner.file.set_len(start)?;
                self.torn_recoveries.fetch_add(1, Ordering::Relaxed);
                note_recovery("store-torn-rewrite", fp);
            }
            inner.file.seek(SeekFrom::Start(start))?;
            inner.file.write_all(&record)?;
            inner.file.flush()?;
            Ok(())
        })();
        if let Err(e) = result {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            // Best effort: leave the segment at the last good boundary
            // so a later append does not build on a torn record.
            let _ = inner.file.set_len(start);
            return Err(e);
        }
        inner.end = start + record.len() as u64;
        inner
            .index
            .insert(fp, (start + RECORD_HEADER_LEN as u64, payload.len() as u32));
        self.appends.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Flush the segment to stable storage.
    pub fn sync(&self) -> io::Result<()> {
        self.inner.lock().unwrap().file.sync_all()
    }

    /// Distinct fingerprints indexed.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().index.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Segment size on disk.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().unwrap().end
    }

    /// Counter snapshot for metrics export.
    pub fn metrics(&self) -> StoreMetrics {
        let (entries, bytes) = {
            let inner = self.inner.lock().unwrap();
            (inner.index.len() as u64, inner.end)
        };
        StoreMetrics {
            entries,
            bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            restored: self.restored,
            truncated_bytes: self.truncated_bytes,
            torn_recoveries: self.torn_recoveries.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_prediction(salt: u64) -> Prediction {
        let s = salt as f64;
        Prediction {
            seconds: 1.5 + s,
            mops: 1234.5 - s,
            per_phase: vec![
                PhaseTime {
                    name: "conj_grad",
                    seconds: 0.75 + s,
                    cpu_seconds: 0.5,
                    bw_seconds: 0.75 + s,
                    dram_utilization: 0.9,
                },
                PhaseTime {
                    name: "norm",
                    seconds: 0.25,
                    cpu_seconds: 0.25,
                    bw_seconds: 0.1,
                    dram_utilization: 0.2,
                },
            ],
            stalls: StallAccount {
                compute_cycles: 1e9 + s,
                cache_stall_cycles: 2e8,
                dram_stall_cycles: 3e8,
                bw_bound_time: 0.4,
                total_time: 1.5 + s,
            },
            hierarchy: HierarchyCounters {
                accesses: 1000 + salt,
                l1_hits: 800,
                l2_hits: 100,
                l3_hits: 50,
                dram: 50 + salt,
            },
            dram_queue: QueueOccupancy {
                weighted_depth: 12.5,
                time: 1.5,
            },
        }
    }

    fn bits(p: &Prediction) -> String {
        format!(
            "{:?}",
            (
                p.seconds.to_bits(),
                p.mops.to_bits(),
                p.per_phase
                    .iter()
                    .map(|ph| (ph.name, ph.seconds.to_bits(), ph.dram_utilization.to_bits()))
                    .collect::<Vec<_>>(),
                p.stalls.total_time.to_bits(),
                p.hierarchy.accesses,
                p.dram_queue.weighted_depth.to_bits(),
            )
        )
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rvhpc-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn payload_round_trips_bit_exactly() {
        let p = sample_prediction(7);
        let decoded = decode_prediction(&encode_prediction(&p)).expect("decodes");
        assert_eq!(bits(&p), bits(&decoded));
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_garbage() {
        let payload = encode_prediction(&sample_prediction(1));
        assert!(decode_prediction(&payload[..payload.len() - 1]).is_err());
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_prediction(&long).is_err());
    }

    #[test]
    fn store_round_trips_across_reopen() {
        let dir = tmpdir("reopen");
        let p0 = sample_prediction(0);
        let p1 = sample_prediction(1);
        {
            let store = DiskStore::open(&dir).expect("open");
            assert!(store.append(10, &p0).unwrap());
            assert!(store.append(11, &p1).unwrap());
            let (bytes, appends) = (store.bytes(), store.metrics().appends);
            assert!(!store.append(10, &p1).unwrap(), "append-once per key");
            assert_eq!((store.bytes(), store.metrics().appends), (bytes, appends));
            assert_eq!(store.len(), 2);
        }
        let store = DiskStore::open(&dir).expect("reopen");
        assert_eq!(store.metrics().restored, 2);
        assert_eq!(store.metrics().truncated_bytes, 0);
        assert_eq!(bits(&store.get(10).expect("hit")), bits(&p0));
        assert_eq!(bits(&store.get(11).expect("hit")), bits(&p1));
        assert!(store.get(12).is_none());
        let m = store.metrics();
        assert_eq!((m.hits, m.misses, m.restored), (2, 1, 2));
        assert!(!store.contains(12) && store.contains(10));
        assert_eq!(
            store.metrics().misses,
            1,
            "contains() is a warmth probe and must not count"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_truncates_torn_tail_at_every_offset_of_the_final_record() {
        let dir = tmpdir("tail");
        let p0 = sample_prediction(0);
        let p1 = sample_prediction(1);
        {
            let store = DiskStore::open(&dir).expect("open");
            store.append(1, &p0).unwrap();
            store.append(2, &p1).unwrap();
        }
        let path = DiskStore::segment_path(&dir);
        let full = std::fs::read(&path).unwrap();
        let first_end = SEGMENT_MAGIC.len() + RECORD_HEADER_LEN + encode_prediction(&p0).len();
        // Cut the file anywhere inside the final record: recovery must
        // keep exactly the first record and drop the torn tail.
        for cut in first_end..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let store = DiskStore::open(&dir).expect("recovering open");
            assert_eq!(store.metrics().restored, 1, "cut at {cut}");
            assert_eq!(store.metrics().truncated_bytes, (cut - first_end) as u64);
            assert_eq!(store.bytes(), first_end as u64);
            assert_eq!(bits(&store.get(1).unwrap()), bits(&p0));
            assert!(store.get(2).is_none(), "torn record must be dropped");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_catches_single_byte_flips() {
        let dir = tmpdir("crc");
        {
            let store = DiskStore::open(&dir).expect("open");
            store.append(1, &sample_prediction(0)).unwrap();
        }
        let path = DiskStore::segment_path(&dir);
        let clean = std::fs::read(&path).unwrap();
        let payload_at = SEGMENT_MAGIC.len() + RECORD_HEADER_LEN;
        for i in payload_at..clean.len() {
            let mut dirty = clean.clone();
            dirty[i] ^= 0x40;
            std::fs::write(&path, &dirty).unwrap();
            let store = DiskStore::open(&dir).expect("open survives corruption");
            assert_eq!(
                store.metrics().restored,
                0,
                "flip at byte {i} must fail the crc and drop the record"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sub_header_and_foreign_files_are_handled() {
        let dir = tmpdir("header");
        std::fs::create_dir_all(&dir).unwrap();
        let path = DiskStore::segment_path(&dir);
        // Shorter than the magic: treated as a torn header, reset clean.
        std::fs::write(&path, b"rvh").unwrap();
        let store = DiskStore::open(&dir).expect("open");
        assert_eq!(store.metrics().truncated_bytes, 3);
        assert_eq!(store.len(), 0);
        drop(store);
        // A full-length wrong magic is someone else's file: refuse.
        std::fs::write(&path, b"notasegmentfile!").unwrap();
        assert!(DiskStore::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shred_hook_tears_the_append_and_recovery_heals_it() {
        let dir = tmpdir("shred");
        let p = sample_prediction(3);
        {
            let store = DiskStore::open(&dir).expect("open");
            // Tear the first two appends after 5 bytes; pass the rest.
            let fired = std::sync::atomic::AtomicU64::new(0);
            store.set_shred_hook(Box::new(move || {
                (fired.fetch_add(1, Ordering::Relaxed) < 2).then_some(5)
            }));
            assert!(store.append(1, &p).unwrap());
            assert!(store.append(2, &sample_prediction(4)).unwrap());
            assert!(store.append(3, &sample_prediction(5)).unwrap());
            assert_eq!(store.metrics().torn_recoveries, 2);
            assert_eq!(store.metrics().appends, 3);
        }
        // Every record healed: a fresh open restores all three whole.
        let store = DiskStore::open(&dir).expect("reopen");
        assert_eq!(store.metrics().restored, 3);
        assert_eq!(store.metrics().truncated_bytes, 0);
        assert_eq!(bits(&store.get(1).unwrap()), bits(&p));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
