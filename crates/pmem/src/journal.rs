//! Pool-file codec: the on-disk format behind [`crate::FileBackend`].
//!
//! A v1 file-backed pool is **one** file laid out as
//!
//! ```text
//! [file header]  magic, format version, pool capacity      (fixed 24 B)
//! [snapshot]     full durable arena image at compaction     (one record)
//! [batch]*       one checksummed record per fence           (append-only)
//! ```
//!
//! A v2 **pool set** splits the journal across one file per address
//! shard so recovery can scan them in parallel:
//!
//! ```text
//! pool          [set header: base]  [snapshot]  [seq-mark: snap_seq]
//! pool.s0       [set header: shard 0]  [shard batch]*
//! pool.s1       [set header: shard 1]  [shard batch]*
//! ...
//! ```
//!
//! Every shard-batch record carries the **global** batch sequence plus a
//! bitmask of the shards that fence touched, so recovery merges the
//! per-shard journals back into one global order: a sequence is durable
//! only when *every* shard in its mask holds the record, and the durable
//! frontier is the largest prefix of complete sequences. The base file's
//! seq-mark pins the sequence the snapshot folded in; shard records below
//! it are stale leftovers of an interrupted post-compaction truncation
//! and are ignored.
//!
//! A v3 pool keeps the same file layout but writes **compact batch
//! records**: the fence's line set is deduplicated last-write-wins,
//! sorted by address, and the addresses are stored as varint *deltas*
//! over line indices instead of 8-byte absolutes. The header version
//! distinguishes the layouts — a v3 header with a zero geometry word is
//! a single-file pool, nonzero a set member — while the **record tag**
//! (not the header) names each record's codec, so every replay scanner
//! accepts both record generations in any journal: a v1/v2 pool keeps
//! replaying bit-identically under a v3 build and simply accumulates v3
//! records from then on (mixed journals are legal).
//!
//! Every record is framed as `[tag: u32][body_len: u32][body][fnv64 of
//! tag+len+body]`, so the replay scanner can always tell a *torn tail*
//! (the process died mid-`write(2)`) from a complete record: if the
//! remaining bytes cannot hold the frame, or the checksum does not match,
//! the scan stops **at the last complete record** and reports the torn
//! suffix for truncation. A batch record is the durability unit — exactly
//! the lines one `sfence` made durable — so a torn tail never resurrects
//! a partial fence: recovery lands on the previous complete fence, never
//! a partial batch.
//!
//! The codec is pure (byte slices in, byte vectors out, no IO) so the
//! property tests below can fuzz records and tear journals at every
//! offset without touching a filesystem.

use crate::line::CACHELINE;

/// Pool-file magic ("MODPOOLF").
pub const FILE_MAGIC: u64 = 0x4D4F_4450_4F4F_4C46;
/// On-disk format version (single-file pools).
pub const FORMAT_VERSION: u32 = 1;
/// On-disk format version for pool-set members (base + shard journals).
pub const SET_FORMAT_VERSION: u32 = 2;
/// On-disk format version for v3 pools (compact varint/delta batch
/// records). The geometry word routes the open: zero means a
/// single-file pool, nonzero a pool-set member.
pub const V3_FORMAT_VERSION: u32 = 3;
/// Bytes of the fixed file header.
pub const HEADER_BYTES: usize = 24;
/// `shard_index` sentinel naming the base (snapshot) member of a set.
pub const SHARD_BASE: u16 = 0xFFFF;
/// Most shards a set can have (the touched-shard mask is a `u64`).
pub const MAX_SHARDS: u16 = 64;

/// Record tag: a full durable-arena snapshot (compaction point).
const TAG_SNAPSHOT: u32 = 0x534E_4150; // "SNAP"
/// Record tag: one fence's worth of durable lines.
const TAG_BATCH: u32 = 0x4241_5443; // "BATC"
/// Record tag: one shard's slice of a fence, tagged with the global
/// sequence and the mask of shards the fence touched (pool sets only).
const TAG_SHARD_BATCH: u32 = 0x5342_4154; // "SBAT"
/// Record tag: the base file's sequence mark — the first global sequence
/// *not* folded into the snapshot it follows (pool sets only).
const TAG_SEQ_MARK: u32 = 0x5345_514D; // "SEQM"
/// Record tag: a compact (varint/delta) batch record.
const TAG_BATCH_V3: u32 = 0x4241_5433; // "BAT3"
/// Record tag: a compact shard-batch record (pool sets only).
const TAG_SHARD_BATCH_V3: u32 = 0x5342_4133; // "SBA3"

/// Why a batch of lines became durable.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BatchKind {
    /// An `sfence` ordered the lines: the normal one-record-per-fence
    /// append (one per FASE batch on the MOD commit path).
    Fence,
    /// `Inflight { done_ns }` lines whose background drain had already
    /// completed — persisted without a fence (a store racing an in-flight
    /// writeback, or drained-but-unfenced lines at an orderly
    /// checkpoint). The crash model says these reached the medium.
    Drained,
}

impl BatchKind {
    fn to_u32(self) -> u32 {
        match self {
            BatchKind::Fence => 0,
            BatchKind::Drained => 1,
        }
    }

    fn from_u32(v: u32) -> Option<BatchKind> {
        match v {
            0 => Some(BatchKind::Fence),
            1 => Some(BatchKind::Drained),
            _ => None,
        }
    }
}

/// One cacheline's durable image: address and contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineImage {
    /// Line-aligned pool address.
    pub addr: u64,
    /// The 64 content bytes.
    pub data: [u8; CACHELINE as usize],
}

/// One decoded batch record.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchRecord {
    /// Monotonic sequence number (debugging/ordering sanity).
    pub seq: u64,
    /// Why the lines became durable.
    pub kind: BatchKind,
    /// Simulated time of the fence (bit-exact f64).
    pub fence_ns: f64,
    /// The lines this record makes durable.
    pub lines: Vec<LineImage>,
}

/// One snapshot extent: a contiguous run of durable bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotExtent {
    /// Pool address of the first byte.
    pub addr: u64,
    /// The bytes.
    pub data: Vec<u8>,
}

/// FNV-1a 64-bit checksum (dependency-free, good torn-write detector).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// Appends a canonical LEB128 varint (7 payload bits per byte, high bit
/// = continuation, no redundant trailing zero bytes).
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a canonical LEB128 varint at `*at`, advancing it past the
/// encoding. `None` on truncation, 64-bit overflow, or a non-canonical
/// encoding (a redundant trailing zero byte) — the v3 decoders treat all
/// three as a malformed record, i.e. a torn tail.
fn read_varint(b: &[u8], at: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = b.get(*at)?;
        *at += 1;
        if shift > 63 || (shift == 63 && byte & 0x7E != 0) {
            return None; // would overflow u64
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift != 0 {
                return None; // non-canonical: redundant high byte
            }
            return Some(v);
        }
        shift += 7;
    }
}

/// Encodes the fixed file header.
pub fn encode_header(capacity: u64) -> [u8; HEADER_BYTES] {
    let mut out = [0u8; HEADER_BYTES];
    out[0..8].copy_from_slice(&FILE_MAGIC.to_le_bytes());
    out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    // [12..16) reserved (zero).
    out[16..24].copy_from_slice(&capacity.to_le_bytes());
    out
}

/// Encodes the fixed file header of a v3 single-file pool (zero
/// geometry word).
pub fn encode_header_v3(capacity: u64) -> [u8; HEADER_BYTES] {
    let mut out = [0u8; HEADER_BYTES];
    out[0..8].copy_from_slice(&FILE_MAGIC.to_le_bytes());
    out[8..12].copy_from_slice(&V3_FORMAT_VERSION.to_le_bytes());
    // [12..16) geometry (zero: single-file).
    out[16..24].copy_from_slice(&capacity.to_le_bytes());
    out
}

/// Decodes and validates a single-file pool header (v1, or v3 with a
/// zero geometry word), returning the pool capacity.
pub fn decode_header(bytes: &[u8]) -> Result<u64, ReplayError> {
    match header_version(bytes)? {
        FORMAT_VERSION => Ok(read_u64(bytes, 16)),
        V3_FORMAT_VERSION => {
            if read_u32(bytes, 12) != 0 {
                return Err(ReplayError::NotAPool(
                    "pool-set member where a single-file pool belongs",
                ));
            }
            Ok(read_u64(bytes, 16))
        }
        v => Err(ReplayError::UnsupportedVersion(v)),
    }
}

/// Whether a pool header names a set member (per-shard journals) or a
/// single-file pool — the routing decision behind `FileBackend::open`.
/// v1 is always single-file and v2 always a set member; a v3 header is
/// a set member exactly when its geometry word is nonzero.
pub fn is_set_member(bytes: &[u8]) -> Result<bool, ReplayError> {
    match header_version(bytes)? {
        FORMAT_VERSION => Ok(false),
        SET_FORMAT_VERSION => Ok(true),
        V3_FORMAT_VERSION => Ok(read_u32(bytes, 12) != 0),
        v => Err(ReplayError::UnsupportedVersion(v)),
    }
}

/// The on-disk format version of a pool file, if it is one at all. Used
/// to route an `open` to the v1 single-file or v2 pool-set reader.
pub fn header_version(bytes: &[u8]) -> Result<u32, ReplayError> {
    if bytes.len() < HEADER_BYTES {
        return Err(ReplayError::NotAPool("file shorter than the header"));
    }
    if read_u64(bytes, 0) != FILE_MAGIC {
        return Err(ReplayError::NotAPool("bad magic"));
    }
    Ok(read_u32(bytes, 8))
}

/// Decoded v2 pool-set member header.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SetHeader {
    /// Pool capacity in bytes (identical across every member).
    pub capacity: u64,
    /// Number of journal shards in the set.
    pub shards: u16,
    /// Which member this file is: `0..shards` for a shard journal,
    /// [`SHARD_BASE`] for the base (snapshot) file.
    pub shard_index: u16,
}

/// Encodes a v2 pool-set member header. The reserved word of the v1
/// header carries the shard geometry: low half the shard count, high
/// half this member's index ([`SHARD_BASE`] for the base file).
pub fn encode_set_header(capacity: u64, shards: u16, shard_index: u16) -> [u8; HEADER_BYTES] {
    let mut out = [0u8; HEADER_BYTES];
    out[0..8].copy_from_slice(&FILE_MAGIC.to_le_bytes());
    out[8..12].copy_from_slice(&SET_FORMAT_VERSION.to_le_bytes());
    let geom = (shards as u32) | ((shard_index as u32) << 16);
    out[12..16].copy_from_slice(&geom.to_le_bytes());
    out[16..24].copy_from_slice(&capacity.to_le_bytes());
    out
}

/// Encodes a v3 pool-set member header (same geometry word as v2, but
/// the journal carries compact batch records).
pub fn encode_set_header_v3(capacity: u64, shards: u16, shard_index: u16) -> [u8; HEADER_BYTES] {
    let mut out = [0u8; HEADER_BYTES];
    out[0..8].copy_from_slice(&FILE_MAGIC.to_le_bytes());
    out[8..12].copy_from_slice(&V3_FORMAT_VERSION.to_le_bytes());
    let geom = (shards as u32) | ((shard_index as u32) << 16);
    out[12..16].copy_from_slice(&geom.to_le_bytes());
    out[16..24].copy_from_slice(&capacity.to_le_bytes());
    out
}

/// Decodes and validates a pool-set member header (v2, or v3 with a
/// nonzero geometry word).
pub fn decode_set_header(bytes: &[u8]) -> Result<SetHeader, ReplayError> {
    let version = header_version(bytes)?;
    if version != SET_FORMAT_VERSION && version != V3_FORMAT_VERSION {
        return Err(ReplayError::UnsupportedVersion(version));
    }
    let geom = read_u32(bytes, 12);
    if version == V3_FORMAT_VERSION && geom == 0 {
        return Err(ReplayError::NotAPool(
            "single-file pool where a pool-set member belongs",
        ));
    }
    let shards = (geom & 0xFFFF) as u16;
    let shard_index = (geom >> 16) as u16;
    if shards == 0 || shards > MAX_SHARDS {
        return Err(ReplayError::NotAPool("pool-set shard count out of range"));
    }
    if shard_index != SHARD_BASE && shard_index >= shards {
        return Err(ReplayError::NotAPool("pool-set shard index out of range"));
    }
    Ok(SetHeader {
        capacity: read_u64(bytes, 16),
        shards,
        shard_index,
    })
}

/// Frames `body` as a record: tag, length, body, checksum.
fn encode_record(tag: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + body.len());
    push_u32(&mut out, tag);
    push_u32(&mut out, body.len() as u32);
    out.extend_from_slice(body);
    let sum = fnv1a64(&out);
    push_u64(&mut out, sum);
    out
}

/// Encodes one batch record (the per-fence append).
pub fn encode_batch(seq: u64, kind: BatchKind, fence_ns: f64, lines: &[LineImage]) -> Vec<u8> {
    let mut body = Vec::with_capacity(24 + lines.len() * (8 + CACHELINE as usize));
    push_u64(&mut body, seq);
    push_u32(&mut body, kind.to_u32());
    push_u32(&mut body, lines.len() as u32);
    push_u64(&mut body, fence_ns.to_bits());
    for l in lines {
        push_u64(&mut body, l.addr);
        body.extend_from_slice(&l.data);
    }
    encode_record(TAG_BATCH, &body)
}

/// Encodes one shard-batch record: shard `slice` of the fence `seq`,
/// which touched the shards in `shard_mask` (bit *i* = shard *i*).
pub fn encode_shard_batch(
    seq: u64,
    kind: BatchKind,
    fence_ns: f64,
    shard_mask: u64,
    lines: &[LineImage],
) -> Vec<u8> {
    let mut body = Vec::with_capacity(32 + lines.len() * (8 + CACHELINE as usize));
    push_u64(&mut body, seq);
    push_u32(&mut body, kind.to_u32());
    push_u32(&mut body, lines.len() as u32);
    push_u64(&mut body, fence_ns.to_bits());
    push_u64(&mut body, shard_mask);
    for l in lines {
        push_u64(&mut body, l.addr);
        body.extend_from_slice(&l.data);
    }
    encode_record(TAG_SHARD_BATCH, &body)
}

/// Builds a v3 body: the line set deduplicated last-write-wins and
/// sorted by address, addresses delta-encoded as varints over line
/// indices (`addr / 64`): the first delta is the index itself, each
/// subsequent one the gap to the previous index minus one (indices are
/// strictly ascending). `fence_ns` stays a bit-exact 8-byte f64.
fn encode_v3_body(
    seq: u64,
    kind: BatchKind,
    fence_ns: f64,
    shard_mask: Option<u64>,
    lines: &[LineImage],
) -> Vec<u8> {
    use std::collections::BTreeMap;
    let mut sorted: BTreeMap<u64, &[u8; CACHELINE as usize]> = BTreeMap::new();
    for l in lines {
        debug_assert_eq!(l.addr % CACHELINE, 0, "v3 records hold whole lines");
        sorted.insert(l.addr / CACHELINE, &l.data);
    }
    let mut body = Vec::with_capacity(24 + sorted.len() * (3 + CACHELINE as usize));
    push_varint(&mut body, seq);
    body.push(kind.to_u32() as u8);
    push_varint(&mut body, sorted.len() as u64);
    push_u64(&mut body, fence_ns.to_bits());
    if let Some(mask) = shard_mask {
        push_varint(&mut body, mask);
    }
    let mut prev: Option<u64> = None;
    for (&index, data) in &sorted {
        let delta = match prev {
            None => index,
            Some(p) => index - p - 1,
        };
        push_varint(&mut body, delta);
        body.extend_from_slice(&data[..]);
        prev = Some(index);
    }
    body
}

/// Encodes one compact (v3) batch record. The line set is deduplicated
/// last-write-wins and sorted by address before encoding, so the decoded
/// record may be smaller than the input. Addresses must be line-aligned.
pub fn encode_batch_v3(seq: u64, kind: BatchKind, fence_ns: f64, lines: &[LineImage]) -> Vec<u8> {
    encode_record(
        TAG_BATCH_V3,
        &encode_v3_body(seq, kind, fence_ns, None, lines),
    )
}

/// Encodes one compact (v3) shard-batch record; see [`encode_batch_v3`]
/// and [`encode_shard_batch`].
pub fn encode_shard_batch_v3(
    seq: u64,
    kind: BatchKind,
    fence_ns: f64,
    shard_mask: u64,
    lines: &[LineImage],
) -> Vec<u8> {
    encode_record(
        TAG_SHARD_BATCH_V3,
        &encode_v3_body(seq, kind, fence_ns, Some(shard_mask), lines),
    )
}

/// Decodes a v3 body (batch, or shard batch when `with_mask`), returning
/// the record and its shard mask (0 for plain batches). `None` marks a
/// malformed record — truncation, a non-canonical varint, an index
/// overflow, or trailing bytes — which replay treats as a torn tail.
fn decode_v3_body(body: &[u8], with_mask: bool) -> Option<(BatchRecord, u64)> {
    let mut at = 0usize;
    let seq = read_varint(body, &mut at)?;
    let kind = BatchKind::from_u32(*body.get(at)? as u32)?;
    at += 1;
    let n = read_varint(body, &mut at)?;
    if body.len() < at + 8 {
        return None;
    }
    let fence_ns = f64::from_bits(read_u64(body, at));
    at += 8;
    let shard_mask = if with_mask {
        let mask = read_varint(body, &mut at)?;
        if mask == 0 {
            return None;
        }
        mask
    } else {
        0
    };
    // Each line needs at least one delta byte plus its 64 content bytes;
    // a count the remaining body cannot hold is malformed (and must not
    // drive a huge allocation).
    if n as u128 * (1 + CACHELINE as u128) > (body.len() - at) as u128 {
        return None;
    }
    let mut lines = Vec::with_capacity(n as usize);
    let mut prev: Option<u64> = None;
    for _ in 0..n {
        let delta = read_varint(body, &mut at)?;
        let index = match prev {
            None => delta,
            Some(p) => p.checked_add(delta)?.checked_add(1)?,
        };
        let addr = index.checked_mul(CACHELINE)?;
        if body.len() < at + CACHELINE as usize {
            return None;
        }
        let mut data = [0u8; CACHELINE as usize];
        data.copy_from_slice(&body[at..at + CACHELINE as usize]);
        at += CACHELINE as usize;
        lines.push(LineImage { addr, data });
        prev = Some(index);
    }
    (at == body.len()).then_some((
        BatchRecord {
            seq,
            kind,
            fence_ns,
            lines,
        },
        shard_mask,
    ))
}

/// Encodes the base file's sequence mark: the first global sequence not
/// folded into the preceding snapshot.
pub fn encode_seq_mark(snap_seq: u64) -> Vec<u8> {
    encode_record(TAG_SEQ_MARK, &snap_seq.to_le_bytes())
}

/// Encodes a snapshot record from durable extents.
pub fn encode_snapshot(extents: &[SnapshotExtent]) -> Vec<u8> {
    let payload: usize = extents.iter().map(|e| 16 + e.data.len()).sum();
    let mut body = Vec::with_capacity(8 + payload);
    push_u64(&mut body, extents.len() as u64);
    for e in extents {
        push_u64(&mut body, e.addr);
        push_u64(&mut body, e.data.len() as u64);
        body.extend_from_slice(&e.data);
    }
    encode_record(TAG_SNAPSHOT, &body)
}

/// A hard replay failure: the file is not a pool at all (a torn tail is
/// *not* an error — it is the expected crash outcome and is reported in
/// [`Replay::torn_bytes`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The header is missing or the magic does not match.
    NotAPool(&'static str),
    /// The header names a format version this binary does not read.
    UnsupportedVersion(u32),
    /// The mandatory snapshot record (directly after the header) is
    /// damaged: with no base image the journal cannot be replayed.
    SnapshotDamaged,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::NotAPool(why) => write!(f, "not a MOD pool file: {why}"),
            ReplayError::UnsupportedVersion(v) => write!(f, "unsupported pool format v{v}"),
            ReplayError::SnapshotDamaged => write!(f, "pool snapshot record damaged"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// The result of scanning a pool file.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Pool capacity from the header.
    pub capacity: u64,
    /// The snapshot's durable extents (the base image).
    pub extents: Vec<SnapshotExtent>,
    /// Every complete batch record after the snapshot, in journal order.
    pub batches: Vec<BatchRecord>,
    /// Length of the valid prefix; bytes past this are the torn tail and
    /// should be truncated before appending resumes.
    pub valid_len: usize,
    /// Bytes discarded as a torn/corrupt tail.
    pub torn_bytes: usize,
}

enum Scan<'a> {
    Record {
        tag: u32,
        /// Borrowed from the scanned file image: a snapshot body is the
        /// whole pool, and recovery already holds it once in `bytes` and
        /// once more as decoded extents.
        body: &'a [u8],
        next: usize,
    },
    Torn,
}

/// Scans one framed record at `at`. Anything short, oversized or
/// checksum-failing is `Torn` — the crash model's "partial write".
fn scan_record(bytes: &[u8], at: usize) -> Scan<'_> {
    let remaining = bytes.len() - at;
    if remaining < 16 {
        return Scan::Torn;
    }
    let body_len = read_u32(bytes, at + 4) as usize;
    let total = match body_len.checked_add(16) {
        Some(t) if t <= remaining => t,
        _ => return Scan::Torn, // length field torn or record truncated
    };
    let sum = read_u64(bytes, at + 8 + body_len);
    if fnv1a64(&bytes[at..at + 8 + body_len]) != sum {
        return Scan::Torn;
    }
    Scan::Record {
        tag: read_u32(bytes, at),
        body: &bytes[at + 8..at + 8 + body_len],
        next: at + total,
    }
}

fn decode_batch_body(body: &[u8]) -> Option<BatchRecord> {
    if body.len() < 24 {
        return None;
    }
    let seq = read_u64(body, 0);
    let kind = BatchKind::from_u32(read_u32(body, 8))?;
    let n = read_u32(body, 12) as usize;
    let fence_ns = f64::from_bits(read_u64(body, 16));
    let line_bytes = 8 + CACHELINE as usize;
    if body.len() != 24 + n * line_bytes {
        return None;
    }
    let mut lines = Vec::with_capacity(n);
    for i in 0..n {
        let at = 24 + i * line_bytes;
        let mut data = [0u8; CACHELINE as usize];
        data.copy_from_slice(&body[at + 8..at + line_bytes]);
        lines.push(LineImage {
            addr: read_u64(body, at),
            data,
        });
    }
    Some(BatchRecord {
        seq,
        kind,
        fence_ns,
        lines,
    })
}

fn decode_snapshot_body(body: &[u8]) -> Option<Vec<SnapshotExtent>> {
    if body.len() < 8 {
        return None;
    }
    let n = read_u64(body, 0) as usize;
    let mut extents = Vec::with_capacity(n);
    let mut at = 8usize;
    for _ in 0..n {
        if body.len() - at < 16 {
            return None;
        }
        let addr = read_u64(body, at);
        let len = read_u64(body, at + 8) as usize;
        at += 16;
        if body.len() - at < len {
            return None;
        }
        extents.push(SnapshotExtent {
            addr,
            data: body[at..at + len].to_vec(),
        });
        at += len;
    }
    (at == body.len()).then_some(extents)
}

/// Replays a pool file image: header, snapshot, then every complete batch
/// record. Scanning stops at the first torn or corrupt record — the state
/// recovered is exactly the last complete fence, never a partial batch.
pub fn replay(bytes: &[u8]) -> Result<Replay, ReplayError> {
    let capacity = decode_header(bytes)?;
    // The snapshot directly after the header is mandatory: compaction
    // writes the whole file (header + snapshot) before the atomic rename,
    // so a pool file can never legally have a torn snapshot.
    let (extents, mut at) = match scan_record(bytes, HEADER_BYTES) {
        Scan::Record {
            tag: TAG_SNAPSHOT,
            body,
            next,
        } => (
            decode_snapshot_body(body).ok_or(ReplayError::SnapshotDamaged)?,
            next,
        ),
        _ => return Err(ReplayError::SnapshotDamaged),
    };
    let mut batches = Vec::new();
    loop {
        if at == bytes.len() {
            break;
        }
        // Both record generations are accepted in any journal: a pre-v3
        // pool keeps its v1 records and accumulates v3 appends.
        match scan_record(bytes, at) {
            Scan::Record {
                tag: TAG_BATCH,
                body,
                next,
            } => match decode_batch_body(body) {
                Some(b) => {
                    batches.push(b);
                    at = next;
                }
                None => break, // framed but malformed: stop, truncate
            },
            Scan::Record {
                tag: TAG_BATCH_V3,
                body,
                next,
            } => match decode_v3_body(body, false) {
                Some((b, _)) => {
                    batches.push(b);
                    at = next;
                }
                None => break,
            },
            // An unknown tag or a torn frame ends the valid prefix.
            _ => break,
        }
    }
    Ok(Replay {
        capacity,
        extents,
        batches,
        valid_len: at,
        torn_bytes: bytes.len() - at,
    })
}

/// One decoded shard-batch record: the global batch plus the mask of
/// shards its fence touched.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardBatchRecord {
    /// The batch slice this journal holds (lines restricted to the
    /// owning shard's address range, still in ascending address order).
    pub batch: BatchRecord,
    /// Bit *i* set ⇔ shard *i* holds a slice of this fence.
    pub shard_mask: u64,
}

fn decode_shard_batch_body(body: &[u8]) -> Option<ShardBatchRecord> {
    if body.len() < 32 {
        return None;
    }
    let seq = read_u64(body, 0);
    let kind = BatchKind::from_u32(read_u32(body, 8))?;
    let n = read_u32(body, 12) as usize;
    let fence_ns = f64::from_bits(read_u64(body, 16));
    let shard_mask = read_u64(body, 24);
    let line_bytes = 8 + CACHELINE as usize;
    if shard_mask == 0 || body.len() != 32 + n * line_bytes {
        return None;
    }
    let mut lines = Vec::with_capacity(n);
    for i in 0..n {
        let at = 32 + i * line_bytes;
        let mut data = [0u8; CACHELINE as usize];
        data.copy_from_slice(&body[at + 8..at + line_bytes]);
        lines.push(LineImage {
            addr: read_u64(body, at),
            data,
        });
    }
    Some(ShardBatchRecord {
        batch: BatchRecord {
            seq,
            kind,
            fence_ns,
            lines,
        },
        shard_mask,
    })
}

/// The decoded base member of a pool set: the snapshot image plus the
/// sequence mark that fences its journals.
#[derive(Clone, Debug)]
pub struct SetBase {
    /// Pool capacity from the header.
    pub capacity: u64,
    /// Number of journal shards in the set.
    pub shards: u16,
    /// The snapshot's durable extents (the base image).
    pub extents: Vec<SnapshotExtent>,
    /// First global sequence *not* folded into the snapshot: shard
    /// records below this are stale and must be ignored.
    pub snap_seq: u64,
}

/// Replays a pool-set base file: set header (base member), snapshot,
/// sequence mark. The base is only ever written whole (create, or
/// compaction's write-then-rename), so any damage is a hard error — a
/// torn base is not a legal crash outcome.
pub fn replay_set_base(bytes: &[u8]) -> Result<SetBase, ReplayError> {
    let hdr = decode_set_header(bytes)?;
    if hdr.shard_index != SHARD_BASE {
        return Err(ReplayError::NotAPool(
            "shard journal where the base file belongs",
        ));
    }
    let (extents, at) = match scan_record(bytes, HEADER_BYTES) {
        Scan::Record {
            tag: TAG_SNAPSHOT,
            body,
            next,
        } => (
            decode_snapshot_body(body).ok_or(ReplayError::SnapshotDamaged)?,
            next,
        ),
        _ => return Err(ReplayError::SnapshotDamaged),
    };
    let snap_seq = match scan_record(bytes, at) {
        Scan::Record {
            tag: TAG_SEQ_MARK,
            body,
            next,
        } if body.len() == 8 && next == bytes.len() => read_u64(body, 0),
        _ => return Err(ReplayError::SnapshotDamaged),
    };
    Ok(SetBase {
        capacity: hdr.capacity,
        shards: hdr.shards,
        extents,
        snap_seq,
    })
}

/// One scanned shard journal: its complete records plus, for each, the
/// byte offset just past it (so the caller can truncate the journal back
/// to any record boundary — the durable frontier may sit below the last
/// complete record when a sibling journal lost part of a later fence).
#[derive(Clone, Debug)]
pub struct ShardReplay {
    /// The member header (capacity, shard count, this journal's index).
    pub header: SetHeader,
    /// Every complete shard-batch record, in journal (= sequence) order.
    pub records: Vec<ShardBatchRecord>,
    /// `ends[i]` = byte offset just past `records[i]`.
    pub ends: Vec<usize>,
    /// Length of the valid prefix (end of the last complete record).
    pub valid_len: usize,
    /// Bytes past `valid_len` — the torn tail.
    pub torn_bytes: usize,
}

/// Scans one shard journal: set header, then shard-batch records until
/// the torn tail. Pure and thread-safe — pool-set recovery runs one scan
/// per journal in parallel.
pub fn replay_shard_journal(bytes: &[u8]) -> Result<ShardReplay, ReplayError> {
    let header = decode_set_header(bytes)?;
    if header.shard_index == SHARD_BASE {
        return Err(ReplayError::NotAPool(
            "base file where a shard journal belongs",
        ));
    }
    let mut records = Vec::new();
    let mut ends = Vec::new();
    let mut at = HEADER_BYTES;
    loop {
        if at == bytes.len() {
            break;
        }
        match scan_record(bytes, at) {
            Scan::Record {
                tag: TAG_SHARD_BATCH,
                body,
                next,
            } => match decode_shard_batch_body(body) {
                Some(r) => {
                    records.push(r);
                    ends.push(next);
                    at = next;
                }
                None => break,
            },
            Scan::Record {
                tag: TAG_SHARD_BATCH_V3,
                body,
                next,
            } => match decode_v3_body(body, true) {
                Some((batch, shard_mask)) => {
                    records.push(ShardBatchRecord { batch, shard_mask });
                    ends.push(next);
                    at = next;
                }
                None => break,
            },
            _ => break,
        }
    }
    Ok(ShardReplay {
        header,
        records,
        ends,
        valid_len: at,
        torn_bytes: bytes.len() - at,
    })
}

/// The merge of a pool set's shard journals back into one global order.
#[derive(Clone, Debug, Default)]
pub struct MergedJournal {
    /// Every *complete* batch at or above the snapshot's sequence mark,
    /// in ascending sequence order, each with its slices concatenated in
    /// shard-index order. Because a fence's lines are sorted by address
    /// before being sliced across the set's contiguous address ranges,
    /// this restores exactly the line order a v1 single journal records —
    /// which is what makes pool-set replay bit-identical to serial
    /// single-journal replay.
    pub batches: Vec<BatchRecord>,
    /// The next expected global sequence: every sequence below it is
    /// complete and merged; everything at or above it (incomplete sets,
    /// records past a gap) is discarded.
    pub frontier: u64,
    /// Complete shard records discarded for sitting at or past the
    /// frontier (their fence lost a slice in a sibling journal).
    pub dropped_records: usize,
}

/// Merges per-shard records (indexed by shard) into the global batch
/// order, computing the durable frontier.
///
/// A sequence is durable only if every shard in its mask holds its
/// record. Sequences are allocated densely, so a missing sequence (every
/// slice torn) or an incomplete one ends the durable prefix: later
/// records — even complete ones — belong to fences that were never fully
/// on disk and are dropped, exactly as a v1 journal drops everything
/// past its first torn record. Records below `snap_seq` are stale
/// leftovers of an interrupted post-compaction truncation; their content
/// is already in the snapshot and they are skipped entirely.
pub fn merge_shard_records(per_shard: &[Vec<ShardBatchRecord>], snap_seq: u64) -> MergedJournal {
    use std::collections::BTreeMap;
    struct Pending {
        want: u64,
        have: u64,
        kind: BatchKind,
        fence_ns_bits: u64,
        slices: Vec<(usize, Vec<LineImage>)>,
        damaged: bool,
    }
    let mut by_seq: BTreeMap<u64, Pending> = BTreeMap::new();
    for (shard, records) in per_shard.iter().enumerate() {
        for r in records {
            if r.batch.seq < snap_seq {
                continue;
            }
            let p = by_seq.entry(r.batch.seq).or_insert_with(|| Pending {
                want: r.shard_mask,
                have: 0,
                kind: r.batch.kind,
                fence_ns_bits: r.batch.fence_ns.to_bits(),
                slices: Vec::new(),
                damaged: false,
            });
            // Every slice of a fence carries identical metadata; a
            // mismatch (or a duplicate slice) means the set is not a
            // consistent image of that fence.
            if p.want != r.shard_mask
                || p.kind != r.batch.kind
                || p.fence_ns_bits != r.batch.fence_ns.to_bits()
                || p.have & (1 << shard) != 0
                || r.shard_mask & (1 << shard) == 0
            {
                p.damaged = true;
                continue;
            }
            p.have |= 1 << shard;
            p.slices.push((shard, r.batch.lines.clone()));
        }
    }
    let mut batches = Vec::new();
    let mut frontier = snap_seq;
    for (&seq, p) in by_seq.iter_mut() {
        if seq != frontier || p.damaged || p.have != p.want {
            break;
        }
        p.slices.sort_by_key(|(shard, _)| *shard);
        let lines = p.slices.drain(..).flat_map(|(_, l)| l).collect();
        batches.push(BatchRecord {
            seq,
            kind: p.kind,
            fence_ns: f64::from_bits(p.fence_ns_bits),
            lines,
        });
        frontier = seq + 1;
    }
    let dropped_records = by_seq
        .range(frontier..)
        .map(|(_, p)| p.have.count_ones() as usize)
        .sum();
    MergedJournal {
        batches,
        frontier,
        dropped_records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* for fuzzed records.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    fn fuzz_line(rng: &mut XorShift) -> LineImage {
        let mut data = [0u8; 64];
        for chunk in data.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next().to_le_bytes());
        }
        LineImage {
            addr: (rng.next() % (1 << 26)) & !63,
            data,
        }
    }

    fn fuzz_batch(rng: &mut XorShift) -> BatchRecord {
        let n = (rng.next() % 9) as usize;
        BatchRecord {
            seq: rng.next(),
            kind: if rng.next() % 4 == 0 {
                BatchKind::Drained
            } else {
                BatchKind::Fence
            },
            fence_ns: f64::from_bits(rng.next() % (1 << 62)).abs(),
            lines: (0..n).map(|_| fuzz_line(rng)).collect(),
        }
    }

    fn file_with(extents: &[SnapshotExtent], batches: &[BatchRecord]) -> Vec<u8> {
        let mut f = encode_header(1 << 26).to_vec();
        f.extend_from_slice(&encode_snapshot(extents));
        for b in batches {
            f.extend_from_slice(&encode_batch(b.seq, b.kind, b.fence_ns, &b.lines));
        }
        f
    }

    #[test]
    fn fuzzed_batches_roundtrip() {
        let mut rng = XorShift(0x5EED_CAFE);
        for _ in 0..200 {
            let batch = fuzz_batch(&mut rng);
            let file = file_with(&[], std::slice::from_ref(&batch));
            let r = replay(&file).unwrap();
            assert_eq!(r.capacity, 1 << 26);
            assert_eq!(r.batches, vec![batch]);
            assert_eq!(r.torn_bytes, 0);
            assert_eq!(r.valid_len, file.len());
        }
    }

    #[test]
    fn fuzzed_snapshots_roundtrip() {
        let mut rng = XorShift(0x00A1_1CE5);
        for _ in 0..50 {
            let n = (rng.next() % 6) as usize;
            let extents: Vec<SnapshotExtent> = (0..n)
                .map(|_| SnapshotExtent {
                    addr: rng.next() % (1 << 20),
                    data: (0..(rng.next() % 300)).map(|_| rng.next() as u8).collect(),
                })
                .collect();
            let r = replay(&file_with(&extents, &[])).unwrap();
            assert_eq!(r.extents, extents);
        }
    }

    #[test]
    fn torn_tail_recovers_to_last_complete_fence_at_every_offset() {
        // Truncate the journal at EVERY byte length: replay must always
        // recover exactly the batches whose records fit completely —
        // never a partial batch, never an error.
        let mut rng = XorShift(7);
        let batches: Vec<BatchRecord> = (0..5).map(|_| fuzz_batch(&mut rng)).collect();
        let file = file_with(&[], &batches);
        // Record boundaries: offsets at which k complete batches end.
        let mut boundaries = vec![HEADER_BYTES + encode_snapshot(&[]).len()];
        for b in &batches {
            boundaries.push(
                boundaries.last().unwrap()
                    + encode_batch(b.seq, b.kind, b.fence_ns, &b.lines).len(),
            );
        }
        for cut in boundaries[0]..=file.len() {
            let r = replay(&file[..cut]).unwrap();
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(
                r.batches.len(),
                complete,
                "cut at {cut}: must land on the last complete fence"
            );
            assert_eq!(r.batches[..], batches[..complete]);
            assert_eq!(r.valid_len, boundaries[complete]);
            assert_eq!(r.torn_bytes, cut - boundaries[complete]);
        }
    }

    #[test]
    fn corrupt_byte_in_tail_record_discards_it() {
        let mut rng = XorShift(99);
        let batches: Vec<BatchRecord> = (0..3).map(|_| fuzz_batch(&mut rng)).collect();
        let clean = file_with(&[], &batches);
        let last_len = encode_batch(
            batches[2].seq,
            batches[2].kind,
            batches[2].fence_ns,
            &batches[2].lines,
        )
        .len();
        // Flip one byte inside the last record: checksum must reject it.
        for victim in [clean.len() - last_len + 2, clean.len() - 5] {
            let mut file = clean.clone();
            file[victim] ^= 0x40;
            let r = replay(&file).unwrap();
            assert_eq!(r.batches[..], batches[..2], "corrupt record dropped");
            assert!(r.torn_bytes > 0);
        }
    }

    #[test]
    fn header_validation() {
        assert!(matches!(replay(&[]), Err(ReplayError::NotAPool(_))));
        assert!(matches!(replay(&[0u8; 64]), Err(ReplayError::NotAPool(_))));
        let mut bad_version = encode_header(1 << 20).to_vec();
        bad_version[8] = 99;
        bad_version.extend_from_slice(&encode_snapshot(&[]));
        assert!(matches!(
            replay(&bad_version),
            Err(ReplayError::UnsupportedVersion(99))
        ));
        // Missing or torn snapshot is a hard error, not a torn tail.
        let headless = encode_header(1 << 20).to_vec();
        assert!(matches!(
            replay(&headless),
            Err(ReplayError::SnapshotDamaged)
        ));
    }

    #[test]
    fn oversized_length_field_is_torn_not_a_panic() {
        // A torn length field can claim a huge body: the scanner must
        // treat it as torn instead of slicing out of bounds.
        let mut file = file_with(&[], &[]);
        file.extend_from_slice(&TAG_BATCH.to_le_bytes());
        file.extend_from_slice(&u32::MAX.to_le_bytes());
        file.extend_from_slice(&[0u8; 32]);
        let r = replay(&file).unwrap();
        assert_eq!(r.batches.len(), 0);
        assert_eq!(r.torn_bytes, 40);
    }

    /// Fixed 4-shard geometry for the pool-set tests: contiguous equal
    /// address ranges, the same map [`crate::FileBackend`] uses.
    const SET_SHARDS: usize = 4;
    const SET_SPAN: u64 = (1 << 26) / SET_SHARDS as u64;

    fn shard_of(addr: u64) -> usize {
        ((addr / SET_SPAN) as usize).min(SET_SHARDS - 1)
    }

    /// Slices globally-ordered batches into per-shard journal images,
    /// returning the shard journal bytes plus each shard's records.
    fn shard_journals(batches: &[BatchRecord]) -> (Vec<Vec<u8>>, Vec<Vec<ShardBatchRecord>>) {
        let mut bytes: Vec<Vec<u8>> = (0..SET_SHARDS)
            .map(|i| encode_set_header(1 << 26, SET_SHARDS as u16, i as u16).to_vec())
            .collect();
        let mut records: Vec<Vec<ShardBatchRecord>> = vec![Vec::new(); SET_SHARDS];
        for b in batches {
            let mut slices: Vec<Vec<LineImage>> = vec![Vec::new(); SET_SHARDS];
            for l in &b.lines {
                slices[shard_of(l.addr)].push(l.clone());
            }
            let mask: u64 = slices
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.is_empty())
                .map(|(i, _)| 1u64 << i)
                .sum();
            // An empty fence never reaches the backend; every encoded
            // batch touches at least one shard.
            for (i, lines) in slices.into_iter().enumerate() {
                if lines.is_empty() {
                    continue;
                }
                bytes[i].extend_from_slice(&encode_shard_batch(
                    b.seq, b.kind, b.fence_ns, mask, &lines,
                ));
                records[i].push(ShardBatchRecord {
                    batch: BatchRecord {
                        seq: b.seq,
                        kind: b.kind,
                        fence_ns: b.fence_ns,
                        lines,
                    },
                    shard_mask: mask,
                });
            }
        }
        (bytes, records)
    }

    /// Dense-seq batches with sorted line addresses — the exact shape
    /// the `sfence` path appends.
    fn fenced_batches(rng: &mut XorShift, n: usize) -> Vec<BatchRecord> {
        (0..n as u64)
            .map(|seq| {
                let mut b = fuzz_batch(rng);
                b.seq = seq;
                if b.lines.is_empty() {
                    b.lines.push(fuzz_line(rng));
                }
                b.lines.sort_by_key(|l| l.addr);
                b.lines.dedup_by_key(|l| l.addr);
                b
            })
            .collect()
    }

    #[test]
    fn set_header_roundtrip_and_validation() {
        let h = encode_set_header(1 << 26, 4, 2);
        let d = decode_set_header(&h).unwrap();
        assert_eq!(
            d,
            SetHeader {
                capacity: 1 << 26,
                shards: 4,
                shard_index: 2
            }
        );
        let base = encode_set_header(1 << 20, 8, SHARD_BASE);
        assert_eq!(decode_set_header(&base).unwrap().shard_index, SHARD_BASE);
        // A v1 header is not a set member; a v2 header is not a v1 pool.
        assert!(matches!(
            decode_set_header(&encode_header(1 << 20)),
            Err(ReplayError::UnsupportedVersion(1))
        ));
        assert!(matches!(
            decode_header(&h),
            Err(ReplayError::UnsupportedVersion(2))
        ));
        assert!(decode_set_header(&encode_set_header(1, 4, 4)).is_err());
        assert!(decode_set_header(&encode_set_header(1, 0, 0)).is_err());
        assert!(decode_set_header(&encode_set_header(1, 65, 0)).is_err());
        assert_eq!(header_version(&h).unwrap(), SET_FORMAT_VERSION);
    }

    #[test]
    fn set_base_roundtrips_and_rejects_damage() {
        let extents = vec![SnapshotExtent {
            addr: 128,
            data: vec![7u8; 100],
        }];
        let mut f = encode_set_header(1 << 26, 3, SHARD_BASE).to_vec();
        f.extend_from_slice(&encode_snapshot(&extents));
        f.extend_from_slice(&encode_seq_mark(42));
        let base = replay_set_base(&f).unwrap();
        assert_eq!(base.shards, 3);
        assert_eq!(base.snap_seq, 42);
        assert_eq!(base.extents, extents);
        // The base is written whole then renamed: any tear is a hard
        // error, never a silently-truncated recovery.
        for cut in HEADER_BYTES..f.len() {
            assert!(replay_set_base(&f[..cut]).is_err(), "cut at {cut}");
        }
        // A shard journal is not a base.
        let j = encode_set_header(1 << 26, 3, 0);
        assert!(matches!(replay_set_base(&j), Err(ReplayError::NotAPool(_))));
    }

    #[test]
    fn pool_set_merge_is_bit_identical_to_single_journal_replay() {
        // The headline property, journal level: slice fenced batches
        // across 4 shard journals, scan each independently, merge — the
        // merged batches must equal the single v1 journal's replay,
        // record for record, line order and all.
        let mut rng = XorShift(0xD15C_0B07);
        let batches = fenced_batches(&mut rng, 24);
        let single = replay(&file_with(&[], &batches)).unwrap();
        let (bytes, _) = shard_journals(&batches);
        let scans: Vec<ShardReplay> = bytes
            .iter()
            .map(|b| replay_shard_journal(b).unwrap())
            .collect();
        let per_shard: Vec<Vec<ShardBatchRecord>> = scans.into_iter().map(|s| s.records).collect();
        let merged = merge_shard_records(&per_shard, 0);
        assert_eq!(merged.frontier, 24);
        assert_eq!(merged.dropped_records, 0);
        assert_eq!(merged.batches, single.batches);
    }

    #[test]
    fn pool_set_torn_tail_per_shard_at_every_offset_recovers_a_maximal_prefix() {
        // Truncate EACH shard journal at EVERY byte offset (siblings
        // intact): the merge must always converge on a prefix of the
        // global batch order — bit-identical to the single journal
        // truncated at the same frontier — and the frontier must be
        // maximal (the first dropped fence really lost a slice).
        let mut rng = XorShift(0x7EA2_7A11);
        let batches = fenced_batches(&mut rng, 12);
        let (bytes, full_records) = shard_journals(&batches);
        for victim in 0..SET_SHARDS {
            for cut in HEADER_BYTES..=bytes[victim].len() {
                let scan = replay_shard_journal(&bytes[victim][..cut]).unwrap();
                let mut per_shard: Vec<Vec<ShardBatchRecord>> = full_records.clone();
                per_shard[victim] = scan.records;
                let merged = merge_shard_records(&per_shard, 0);
                let n = merged.batches.len();
                assert_eq!(merged.frontier, n as u64, "cut {victim}@{cut}");
                assert_eq!(
                    merged.batches[..],
                    batches[..n],
                    "cut {victim}@{cut}: must be a bit-identical prefix"
                );
                // Maximality: the first dropped fence, if any, must have
                // lost its slice in the victim journal.
                if n < batches.len() {
                    let next = &batches[n];
                    let touched = next.lines.iter().any(|l| shard_of(l.addr) == victim);
                    let survived = per_shard[victim].iter().any(|r| r.batch.seq == next.seq);
                    assert!(
                        touched && !survived,
                        "cut {victim}@{cut}: fence {} dropped without cause",
                        next.seq
                    );
                }
            }
        }
    }

    #[test]
    fn stale_records_below_the_seq_mark_are_ignored() {
        // Crash between compaction's base rename and the journal
        // truncations: shard journals still hold records below the new
        // snap_seq. They are already folded into the snapshot and must
        // not cap the frontier or resurface.
        let mut rng = XorShift(0x57A1E);
        let batches = fenced_batches(&mut rng, 8);
        let (_, per_shard) = shard_journals(&batches);
        let merged = merge_shard_records(&per_shard, 5);
        assert_eq!(merged.frontier, 8);
        assert_eq!(merged.batches[..], batches[5..]);
        // ... including when a stale record is torn away entirely: only
        // sequences >= snap_seq gate the frontier.
        let mut holey = per_shard.clone();
        for recs in &mut holey {
            recs.retain(|r| r.batch.seq >= 3);
        }
        let merged = merge_shard_records(&holey, 5);
        assert_eq!(merged.batches[..], batches[5..]);
    }

    #[test]
    fn inconsistent_slices_end_the_durable_prefix() {
        let mut rng = XorShift(0xBAD);
        let batches = fenced_batches(&mut rng, 6);
        let (_, per_shard) = shard_journals(&batches);
        // Corrupt one fence's metadata in one shard: mask disagreement.
        let mut bad = per_shard.clone();
        'outer: for recs in bad.iter_mut() {
            for r in recs.iter_mut() {
                if r.batch.seq == 3 {
                    r.shard_mask ^= 1 << 63;
                    break 'outer;
                }
            }
        }
        let merged = merge_shard_records(&bad, 0);
        assert_eq!(merged.batches[..], batches[..3], "prefix before the damage");
        assert_eq!(merged.frontier, 3);
        assert!(merged.dropped_records > 0);
    }

    #[test]
    fn shard_batch_records_roundtrip_with_offsets() {
        let mut rng = XorShift(0x0FF5);
        let batches = fenced_batches(&mut rng, 5);
        let (bytes, records) = shard_journals(&batches);
        for (i, b) in bytes.iter().enumerate() {
            let scan = replay_shard_journal(b).unwrap();
            assert_eq!(scan.header.shard_index, i as u16);
            assert_eq!(scan.records, records[i]);
            assert_eq!(scan.torn_bytes, 0);
            assert_eq!(scan.valid_len, b.len());
            assert_eq!(scan.ends.last().copied().unwrap_or(HEADER_BYTES), b.len());
            // ends[] really are record boundaries: rescanning a prefix
            // cut at ends[k] yields exactly k+1 records.
            for (k, &end) in scan.ends.iter().enumerate() {
                let again = replay_shard_journal(&b[..end]).unwrap();
                assert_eq!(again.records.len(), k + 1);
                assert_eq!(again.torn_bytes, 0);
            }
        }
    }

    /// The v3 encoder's normalization: last-write-wins per address,
    /// ascending address order.
    fn v3_normalize(lines: &[LineImage]) -> Vec<LineImage> {
        let mut m = std::collections::BTreeMap::new();
        for l in lines {
            m.insert(l.addr, l.data);
        }
        m.into_iter()
            .map(|(addr, data)| LineImage { addr, data })
            .collect()
    }

    fn file_with_v3(extents: &[SnapshotExtent], batches: &[BatchRecord]) -> Vec<u8> {
        let mut f = encode_header_v3(1 << 26).to_vec();
        f.extend_from_slice(&encode_snapshot(extents));
        for b in batches {
            f.extend_from_slice(&encode_batch_v3(b.seq, b.kind, b.fence_ns, &b.lines));
        }
        f
    }

    #[test]
    fn varint_roundtrips_and_rejects_noncanonical() {
        let mut rng = XorShift(0x7A21_0717);
        let probe = |v: u64| {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut at = 0;
            assert_eq!(read_varint(&buf, &mut at), Some(v));
            assert_eq!(at, buf.len(), "no trailing bytes consumed or left");
            // Every strict prefix is truncation, not a value.
            for cut in 0..buf.len() {
                let mut at = 0;
                assert_eq!(read_varint(&buf[..cut], &mut at), None, "v={v} cut={cut}");
            }
        };
        for v in [0u64, 1, 127, 128, 129, 16383, 16384, u64::MAX - 1, u64::MAX] {
            probe(v);
        }
        for _ in 0..500 {
            let shift = rng.next() % 64;
            probe(rng.next() >> shift);
        }
        // Non-canonical: the same value padded with a redundant zero
        // continuation byte must be rejected, so every value has exactly
        // one encoding (re-encoding a decoded record is byte-identical).
        for v in [0u64, 1, 127, 300] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let last = buf.len() - 1;
            buf[last] |= 0x80;
            buf.push(0x00);
            let mut at = 0;
            assert_eq!(read_varint(&buf, &mut at), None, "padded v={v}");
        }
        // Overflow: 11 continuation bytes, or bit 64 and up set.
        let mut too_long = vec![0x80u8; 10];
        too_long.push(0x01);
        let mut at = 0;
        assert_eq!(read_varint(&too_long, &mut at), None);
        let mut overflow = vec![0xFFu8; 9];
        overflow.push(0x02); // bit 64
        let mut at = 0;
        assert_eq!(read_varint(&overflow, &mut at), None);
        let mut max = vec![0xFFu8; 9];
        max.push(0x01); // exactly u64::MAX
        let mut at = 0;
        assert_eq!(read_varint(&max, &mut at), Some(u64::MAX));
    }

    #[test]
    fn fuzzed_v3_batches_roundtrip() {
        // Same shape as `fuzzed_batches_roundtrip`, through the compact
        // codec: the decoded record is the encoder's normalized line set
        // (sorted, deduplicated last-write-wins), metadata bit-exact.
        let mut rng = XorShift(0x5EED_BA73);
        for _ in 0..200 {
            let batch = fuzz_batch(&mut rng);
            let file = file_with_v3(&[], std::slice::from_ref(&batch));
            let r = replay(&file).unwrap();
            assert_eq!(r.capacity, 1 << 26);
            assert_eq!(r.batches.len(), 1);
            assert_eq!(r.batches[0].seq, batch.seq);
            assert_eq!(r.batches[0].kind, batch.kind);
            assert_eq!(
                r.batches[0].fence_ns.to_bits(),
                batch.fence_ns.to_bits(),
                "fence_ns stays bit-exact through v3"
            );
            assert_eq!(r.batches[0].lines, v3_normalize(&batch.lines));
            assert_eq!(r.torn_bytes, 0);
            assert_eq!(r.valid_len, file.len());
        }
    }

    #[test]
    fn v3_dedup_is_last_write_wins() {
        let mk = |addr: u64, fill: u8| LineImage {
            addr,
            data: [fill; 64],
        };
        // Two writes to 0x1000 (the later wins), one to 0x0040, out of
        // address order on purpose.
        let lines = vec![mk(0x1000, 0xAA), mk(0x40, 0x11), mk(0x1000, 0xBB)];
        let file = file_with_v3(
            &[],
            &[BatchRecord {
                seq: 9,
                kind: BatchKind::Fence,
                fence_ns: 1.5,
                lines,
            }],
        );
        let r = replay(&file).unwrap();
        assert_eq!(
            r.batches[0].lines,
            vec![mk(0x40, 0x11), mk(0x1000, 0xBB)],
            "sorted ascending, duplicate collapsed to the last write"
        );
    }

    #[test]
    fn v3_records_are_smaller_than_v1() {
        // The win the compact codec exists for: sorted fence batches
        // (the real append shape) shrink per record, dramatically so for
        // address-local batches where most deltas are one byte.
        let mut rng = XorShift(0xC0DE_C355);
        let batches = fenced_batches(&mut rng, 30);
        let mut v1 = 0usize;
        let mut v3 = 0usize;
        for b in &batches {
            v1 += encode_batch(b.seq, b.kind, b.fence_ns, &b.lines).len();
            v3 += encode_batch_v3(b.seq, b.kind, b.fence_ns, &b.lines).len();
        }
        assert!(
            v3 < v1,
            "compact codec must shrink fenced batches: {v3} vs {v1}"
        );
        // A dense run of adjacent lines: every delta after the first is
        // one byte, so the per-line overhead drops from 8 B to ~1 B.
        let dense: Vec<LineImage> = (0..32u64)
            .map(|i| LineImage {
                addr: 0x8000 + i * 64,
                data: [i as u8; 64],
            })
            .collect();
        let v1 = encode_batch(1, BatchKind::Fence, 0.0, &dense).len();
        let v3 = encode_batch_v3(1, BatchKind::Fence, 0.0, &dense).len();
        assert!(
            (v3 as f64) < (v1 as f64) * 0.92,
            "dense batch must shrink ≥8%: v3={v3} v1={v1}"
        );
    }

    #[test]
    fn v3_torn_tail_recovers_to_last_complete_fence_at_every_offset() {
        // The v1 tear battery, replayed over compact records: truncate
        // at EVERY byte length — replay always lands on the last
        // complete fence, never a partial batch, never an error. Tears
        // mid-varint are exercised by construction.
        let mut rng = XorShift(0x7EA2_0003);
        let batches = fenced_batches(&mut rng, 5);
        let file = file_with_v3(&[], &batches);
        let mut boundaries = vec![HEADER_BYTES + encode_snapshot(&[]).len()];
        for b in &batches {
            boundaries.push(
                boundaries.last().unwrap()
                    + encode_batch_v3(b.seq, b.kind, b.fence_ns, &b.lines).len(),
            );
        }
        for cut in boundaries[0]..=file.len() {
            let r = replay(&file[..cut]).unwrap();
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(
                r.batches.len(),
                complete,
                "cut at {cut}: must land on the last complete fence"
            );
            assert_eq!(r.batches[..], batches[..complete]);
            assert_eq!(r.valid_len, boundaries[complete]);
            assert_eq!(r.torn_bytes, cut - boundaries[complete]);
        }
    }

    #[test]
    fn mixed_generation_journal_replays_in_order() {
        // A pre-upgrade pool keeps its v1 records and accumulates v3
        // appends: the record tag, not the header version, names each
        // record's codec, so one journal legally holds both.
        let mut rng = XorShift(0x3311_BEEF);
        let batches = fenced_batches(&mut rng, 9);
        for header in [encode_header(1 << 26), encode_header_v3(1 << 26)] {
            let mut f = header.to_vec();
            f.extend_from_slice(&encode_snapshot(&[]));
            for (i, b) in batches.iter().enumerate() {
                let rec = if i < 4 {
                    encode_batch(b.seq, b.kind, b.fence_ns, &b.lines)
                } else {
                    encode_batch_v3(b.seq, b.kind, b.fence_ns, &b.lines)
                };
                f.extend_from_slice(&rec);
            }
            let r = replay(&f).unwrap();
            assert_eq!(r.batches, batches, "both generations, one order");
            assert_eq!(r.torn_bytes, 0);
        }
    }

    #[test]
    fn v2_shard_set_with_v3_appends_merges_bit_identically() {
        // Mixed-version pool set: a v2-era set (v2 headers, v2 records)
        // that a v3 build appended compact records to. Scan + merge must
        // equal the single-journal replay of the same batches.
        let mut rng = XorShift(0xAB5E_7001);
        let batches = fenced_batches(&mut rng, 16);
        let (mut bytes, _) = shard_journals(&batches[..8]); // v2 era
        for b in &batches[8..] {
            // Append the upgrade-era fences as v3 shard records.
            let mut slices: Vec<Vec<LineImage>> = vec![Vec::new(); SET_SHARDS];
            for l in &b.lines {
                slices[shard_of(l.addr)].push(l.clone());
            }
            let mask: u64 = slices
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.is_empty())
                .map(|(i, _)| 1u64 << i)
                .sum();
            for (i, lines) in slices.into_iter().enumerate() {
                if lines.is_empty() {
                    continue;
                }
                bytes[i].extend_from_slice(&encode_shard_batch_v3(
                    b.seq, b.kind, b.fence_ns, mask, &lines,
                ));
            }
        }
        let per_shard: Vec<Vec<ShardBatchRecord>> = bytes
            .iter()
            .map(|b| replay_shard_journal(b).unwrap().records)
            .collect();
        let merged = merge_shard_records(&per_shard, 0);
        assert_eq!(merged.frontier, 16);
        assert_eq!(merged.dropped_records, 0);
        let single = replay(&file_with(&[], &batches)).unwrap();
        assert_eq!(merged.batches, single.batches);
    }

    #[test]
    fn v3_header_roundtrip_and_routing() {
        // Single-file v3: decode_header accepts it, set decoding and the
        // set-member route reject it.
        let single = encode_header_v3(1 << 22);
        assert_eq!(decode_header(&single).unwrap(), 1 << 22);
        assert!(!is_set_member(&single).unwrap());
        assert!(matches!(
            decode_set_header(&single),
            Err(ReplayError::NotAPool(_))
        ));
        // Set-member v3: decode_set_header accepts it, single rejects.
        let member = encode_set_header_v3(1 << 22, 4, 1);
        assert_eq!(
            decode_set_header(&member).unwrap(),
            SetHeader {
                capacity: 1 << 22,
                shards: 4,
                shard_index: 1
            }
        );
        assert!(is_set_member(&member).unwrap());
        assert!(matches!(
            decode_header(&member),
            Err(ReplayError::NotAPool(_))
        ));
        // The v3 base member replays like a v2 base.
        let mut base = encode_set_header_v3(1 << 22, 4, SHARD_BASE).to_vec();
        base.extend_from_slice(&encode_snapshot(&[]));
        base.extend_from_slice(&encode_seq_mark(7));
        assert_eq!(replay_set_base(&base).unwrap().snap_seq, 7);
        // Routing over the old generations is unchanged.
        assert!(!is_set_member(&encode_header(1)).unwrap());
        assert!(is_set_member(&encode_set_header(1, 2, 0)).unwrap());
        assert!(matches!(
            is_set_member(&{
                let mut h = encode_header(1);
                h[8] = 9;
                h
            }),
            Err(ReplayError::UnsupportedVersion(9))
        ));
        // Geometry validation still applies to v3 members.
        assert!(decode_set_header(&encode_set_header_v3(1, 4, 4)).is_err());
        assert!(decode_set_header(&encode_set_header_v3(1, 65, 0)).is_err());
    }

    #[test]
    fn v3_record_with_noncanonical_varint_is_torn() {
        // Corrupting a delta into a padded (non-canonical) encoding
        // changes the bytes, so the checksum already rejects it; here we
        // re-frame with a fixed checksum to prove the *decoder* also
        // refuses — torn tail, not a mis-parsed batch.
        let b = BatchRecord {
            seq: 1,
            kind: BatchKind::Fence,
            fence_ns: 2.0,
            lines: vec![LineImage {
                addr: 0x40,
                data: [3u8; 64],
            }],
        };
        let rec = encode_batch_v3(b.seq, b.kind, b.fence_ns, &b.lines);
        // Body layout: seq=1 (1 B), kind (1 B), n=1 (1 B), fence (8 B),
        // then the first delta varint — pad it to two bytes.
        let mut body = rec[8..rec.len() - 8].to_vec();
        assert_eq!(body[11], 1, "first delta is index 1, one byte");
        body[11] = 0x81;
        body.insert(12, 0x00);
        let reframed = encode_record(TAG_BATCH_V3, &body);
        let mut file = file_with_v3(&[], &[]);
        file.extend_from_slice(&reframed);
        let r = replay(&file).unwrap();
        assert_eq!(r.batches.len(), 0, "non-canonical delta is not a batch");
        assert_eq!(r.torn_bytes, reframed.len());
    }

    #[test]
    fn fence_ns_is_bit_exact() {
        let b = BatchRecord {
            seq: 1,
            kind: BatchKind::Fence,
            fence_ns: 353.000000000001,
            lines: vec![],
        };
        let r = replay(&file_with(&[], std::slice::from_ref(&b))).unwrap();
        assert_eq!(r.batches[0].fence_ns.to_bits(), b.fence_ns.to_bits());
    }
}
