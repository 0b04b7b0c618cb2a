//! Pool-file codec: the on-disk format behind [`crate::FileBackend`].
//!
//! A file-backed pool (header **generation 4**) is a *home-location
//! image plus a redo journal* — the classic write-ahead-log checkpoint:
//!
//! ```text
//! pool       [header: base, 24 B][mark slot 0][mark slot 1] … [raw arena image at IMAGE_OFFSET + addr]
//! pool.s0    [header: shard 0, 24 B][batch]*
//! pool.s1    [header: shard 1, 24 B][batch]*
//! ...
//! ```
//!
//! The base member holds the durable arena **at its home location**
//! (byte `addr` of the pool lives at file offset [`IMAGE_OFFSET`]` +
//! addr`; untouched ranges are holes) and two checksummed **mark
//! slots**; the valid slot with the larger value is the pool's *mark* —
//! the first global batch sequence the image does **not** already
//! contain. Each shard journal `pool.s<i>` receives the slice of every
//! fence that falls in its contiguous address range; a one-journal pool
//! is simply the one-shard set.
//!
//! Every batch record carries the **global** batch sequence plus a
//! bitmask of the shards its fence touched, so recovery merges the
//! journals back into one global order: a sequence is durable only when
//! *every* shard in its mask holds the record, and the durable frontier
//! is the largest prefix of complete sequences at or above the mark.
//! Records below the mark are stale leftovers of an interrupted
//! post-checkpoint truncation and are ignored. Batch bodies are compact:
//! the line set is deduplicated last-write-wins, sorted by address, and
//! the addresses are stored as varint *deltas* over line indices.
//!
//! Every record is framed as `[tag: u32][body_len: u32][body][fnv64 of
//! tag+len+body]`, so the scanner can always tell a *torn tail* (the
//! process died mid-`write(2)`) from a complete record: if the remaining
//! bytes cannot hold the frame, or the checksum does not match, the scan
//! stops **at the last complete record**. A batch record is the
//! durability unit — exactly the lines one `sfence` made durable — so
//! recovery lands on a complete fence, never a partial batch. The image
//! itself is **unchecksummed**, like the PM it stands for: whole-line
//! redo records make replay idempotent, so whatever a torn or
//! half-finished image write left behind is overwritten by the journal
//! records at or above the mark.
//!
//! Pools of header generation ≤ 3 (snapshot-record base files), of
//! generation 4 (the same file layout, but full-width CHAMP node pointers
//! in the pool image), of generation 5 (full-width pointers in cons
//! cells and in the vector and queue root objects) and of generation 6
//! (full-width children in vector inner nodes) are not readable:
//! opening one fails with the typed
//! [`ReplayError::UnsupportedGeneration`].
//!
//! The codec is pure (byte slices in, byte vectors out, no IO) so the
//! property tests below can fuzz records and tear journals at every
//! offset without touching a filesystem.

use crate::line::CACHELINE;
use std::collections::BTreeMap;

/// Pool-file magic ("MODPOOLF").
pub const FILE_MAGIC: u64 = 0x4D4F_4450_4F4F_4C46;
/// The one on-disk header generation this build reads and writes.
pub const FORMAT_GENERATION: u32 = 7;
/// Bytes of the fixed file header.
pub const HEADER_BYTES: usize = 24;
/// `shard_index` sentinel naming the base (image) member of a set.
pub const SHARD_BASE: u16 = 0xFFFF;
/// Most shards a set can have (the touched-shard mask is a `u64`).
pub const MAX_SHARDS: u16 = 64;
/// Bytes of one checkpoint-mark slot (a framed 8-byte record).
pub const MARK_SLOT_BYTES: usize = 24;
/// File offsets of the base member's two mark slots.
pub const MARK_SLOT_AT: [u64; 2] = [HEADER_BYTES as u64, (HEADER_BYTES + MARK_SLOT_BYTES) as u64];
/// File offset of pool address 0 in the base member (page-aligned, so
/// line-aligned pool addresses stay line-aligned in the file).
pub const IMAGE_OFFSET: u64 = 4096;

/// Record tag: a checkpoint mark — the first global sequence *not*
/// already folded into the base image.
const TAG_MARK: u32 = 0x4D41_524B; // "MARK"
/// Record tag: one shard's slice of a fence, tagged with the global
/// sequence and the mask of shards the fence touched.
const TAG_SHARD_BATCH: u32 = 0x5342_4133; // "SBA3"

/// One cacheline's content bytes.
pub type LineBytes = [u8; CACHELINE as usize];

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
    fn to_u8(self) -> u8 {
        match self {
            BatchKind::Fence => 0,
            BatchKind::Drained => 1,
        }
    }

    fn from_u8(v: u8) -> Option<BatchKind> {
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
    pub data: LineBytes,
}

/// One decoded batch record.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchRecord {
    /// Global batch sequence number.
    pub seq: u64,
    /// Why the lines became durable.
    pub kind: BatchKind,
    /// Simulated time of the fence (bit-exact f64).
    pub fence_ns: f64,
    /// The lines this record makes durable, ascending by address.
    pub lines: Vec<LineImage>,
}

/// 64-bit FNV-1a: the journal's record checksum (dependency-free, a good
/// torn-write detector) and, re-exported as `mod_core::codec::fnv1a_64`,
/// the bucket hash of every string or byte key. Changing it would reject
/// existing journals and re-bucket existing pools.
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
/// encoding (a redundant trailing zero byte) — the batch decoder treats
/// all three as a malformed record, i.e. a torn tail.
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

/// A hard open failure: the file is not a pool this build can read (a
/// torn journal tail is *not* an error — it is the expected crash
/// outcome and is truncated away).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The header is missing, the magic does not match, or the member is
    /// not the one its place in the set calls for.
    NotAPool(&'static str),
    /// The header names an on-disk generation this build does not read:
    /// pools written before the home-location image format (generations
    /// 1–3) or before half-width CHAMP nodes (generation 4) fail here,
    /// typed, rather than being migrated.
    UnsupportedGeneration {
        /// The generation the header names.
        found: u32,
        /// The one generation this build reads ([`FORMAT_GENERATION`]).
        supported: u32,
    },
    /// Neither checkpoint-mark slot of the base member is intact: with
    /// no mark the journal cannot be placed against the image.
    MarkDamaged,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::NotAPool(why) => write!(f, "not a MOD pool file: {why}"),
            ReplayError::UnsupportedGeneration { found, supported } => write!(
                f,
                "unsupported pool format generation {found} (this build reads generation {supported})"
            ),
            ReplayError::MarkDamaged => write!(f, "both pool checkpoint-mark slots are damaged"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Decoded pool member header.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SetHeader {
    /// Pool capacity in bytes (identical across every member).
    pub capacity: u64,
    /// Number of journal shards in the set.
    pub shards: u16,
    /// Which member this file is: `0..shards` for a shard journal,
    /// [`SHARD_BASE`] for the base (image) file.
    pub shard_index: u16,
}

/// Encodes a pool member header: magic, generation, the shard geometry
/// (low half the shard count, high half this member's index —
/// [`SHARD_BASE`] for the base file) and the pool capacity.
pub fn encode_header(capacity: u64, shards: u16, shard_index: u16) -> [u8; HEADER_BYTES] {
    let mut out = [0u8; HEADER_BYTES];
    out[0..8].copy_from_slice(&FILE_MAGIC.to_le_bytes());
    out[8..12].copy_from_slice(&FORMAT_GENERATION.to_le_bytes());
    let geom = (shards as u32) | ((shard_index as u32) << 16);
    out[12..16].copy_from_slice(&geom.to_le_bytes());
    out[16..24].copy_from_slice(&capacity.to_le_bytes());
    out
}

/// Decodes and validates a pool member header.
pub fn decode_header(bytes: &[u8]) -> Result<SetHeader, ReplayError> {
    if bytes.len() < HEADER_BYTES {
        return Err(ReplayError::NotAPool("file shorter than the header"));
    }
    if read_u64(bytes, 0) != FILE_MAGIC {
        return Err(ReplayError::NotAPool("bad magic"));
    }
    let found = read_u32(bytes, 8);
    if found != FORMAT_GENERATION {
        return Err(ReplayError::UnsupportedGeneration {
            found,
            supported: FORMAT_GENERATION,
        });
    }
    let geom = read_u32(bytes, 12);
    let shards = (geom & 0xFFFF) as u16;
    let shard_index = (geom >> 16) as u16;
    if shards == 0 || shards > MAX_SHARDS {
        return Err(ReplayError::NotAPool("shard count out of range"));
    }
    if shard_index != SHARD_BASE && shard_index >= shards {
        return Err(ReplayError::NotAPool("shard index out of range"));
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

/// Scans one framed record at `at`: `(tag, body, offset past it)`.
/// Anything short, oversized or checksum-failing is `None` — the crash
/// model's "partial write".
fn scan_record(bytes: &[u8], at: usize) -> Option<(u32, &[u8], usize)> {
    let remaining = bytes.len() - at;
    if remaining < 16 {
        return None;
    }
    let body_len = read_u32(bytes, at + 4) as usize;
    // A torn length field can claim a huge body: torn, not a slice panic.
    let total = body_len.checked_add(16).filter(|&t| t <= remaining)?;
    let sum = read_u64(bytes, at + 8 + body_len);
    if fnv1a64(&bytes[at..at + 8 + body_len]) != sum {
        return None;
    }
    Some((
        read_u32(bytes, at),
        &bytes[at + 8..at + 8 + body_len],
        at + total,
    ))
}

/// Encodes one checkpoint-mark slot: `mark` is the first global batch
/// sequence the base image does not already contain.
pub fn encode_mark(mark: u64) -> [u8; MARK_SLOT_BYTES] {
    encode_record(TAG_MARK, &mark.to_le_bytes())
        .try_into()
        .expect("a framed 8-byte body is one mark slot")
}

/// Decodes one mark slot; `None` if it is torn, corrupt or not a mark.
pub fn decode_mark(slot: &[u8]) -> Option<u64> {
    match scan_record(slot.get(..MARK_SLOT_BYTES)?, 0)? {
        (TAG_MARK, body, _) if body.len() == 8 => Some(read_u64(body, 0)),
        _ => None,
    }
}

/// Picks the pool's mark from its two slots: the valid slot with the
/// larger value wins (marks only grow, and a checkpoint always writes
/// the *other* slot, so a torn or corrupt newer slot falls back to the
/// older one, which the not-yet-truncated journal still covers).
/// Returns `(mark, index of the slot holding it)`.
pub fn newest_mark(slots: [Option<u64>; 2]) -> Result<(u64, usize), ReplayError> {
    match slots {
        [Some(a), Some(b)] if b > a => Ok((b, 1)),
        [Some(a), _] => Ok((a, 0)),
        [None, Some(b)] => Ok((b, 1)),
        [None, None] => Err(ReplayError::MarkDamaged),
    }
}

/// Coalesces a last-write-wins line set into **address runs** — maximal
/// stretches of adjacent lines, each capped at `max_run` bytes — and
/// hands each `(pool address, bytes)` run to `emit`, ascending. This is
/// what a checkpoint writes to the image: one positioned write per run,
/// through one reused buffer no larger than `max_run`.
pub fn coalesce_runs<E>(
    lines: &BTreeMap<u64, LineBytes>,
    max_run: usize,
    mut emit: impl FnMut(u64, &[u8]) -> Result<(), E>,
) -> Result<(), E> {
    let mut run: Vec<u8> = Vec::with_capacity(max_run.max(CACHELINE as usize));
    let mut start = 0u64;
    for (&addr, data) in lines {
        let adjacent = addr == start + run.len() as u64;
        if !run.is_empty() && (!adjacent || run.len() + data.len() > max_run) {
            emit(start, &run)?;
            run.clear();
        }
        if run.is_empty() {
            start = addr;
        }
        run.extend_from_slice(data);
    }
    if !run.is_empty() {
        emit(start, &run)?;
    }
    Ok(())
}

/// Encodes one shard-batch record: shard `lines` of the fence `seq`,
/// which touched the shards in `shard_mask` (bit *i* = shard *i*).
///
/// The line set is deduplicated last-write-wins and sorted by address,
/// and the addresses are delta-encoded as varints over line indices
/// (`addr / 64`): the first delta is the index itself, each subsequent
/// one the gap to the previous index minus one (indices are strictly
/// ascending). `fence_ns` stays a bit-exact 8-byte f64. Addresses must
/// be line-aligned.
pub fn encode_shard_batch(
    seq: u64,
    kind: BatchKind,
    fence_ns: f64,
    shard_mask: u64,
    lines: &[LineImage],
) -> Vec<u8> {
    let mut sorted: BTreeMap<u64, &LineBytes> = BTreeMap::new();
    for l in lines {
        debug_assert_eq!(l.addr % CACHELINE, 0, "batch records hold whole lines");
        sorted.insert(l.addr / CACHELINE, &l.data);
    }
    let mut body = Vec::with_capacity(32 + sorted.len() * (3 + CACHELINE as usize));
    push_varint(&mut body, seq);
    body.push(kind.to_u8());
    push_varint(&mut body, sorted.len() as u64);
    push_u64(&mut body, fence_ns.to_bits());
    push_varint(&mut body, shard_mask);
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
    encode_record(TAG_SHARD_BATCH, &body)
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

/// Decodes a shard-batch body. `None` marks a malformed record —
/// truncation, a non-canonical varint, an index overflow, an empty mask
/// or trailing bytes — which the scanner treats as a torn tail.
fn decode_shard_batch(body: &[u8]) -> Option<ShardBatchRecord> {
    let mut at = 0usize;
    let seq = read_varint(body, &mut at)?;
    let kind = BatchKind::from_u8(*body.get(at)?)?;
    at += 1;
    let n = read_varint(body, &mut at)?;
    if body.len() < at + 8 {
        return None;
    }
    let fence_ns = f64::from_bits(read_u64(body, at));
    at += 8;
    let shard_mask = read_varint(body, &mut at)?;
    if shard_mask == 0 {
        return None;
    }
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
        let data: LineBytes = body.get(at..at + CACHELINE as usize)?.try_into().ok()?;
        at += CACHELINE as usize;
        lines.push(LineImage { addr, data });
        prev = Some(index);
    }
    (at == body.len()).then_some(ShardBatchRecord {
        batch: BatchRecord {
            seq,
            kind,
            fence_ns,
            lines,
        },
        shard_mask,
    })
}

/// One scanned shard journal: its complete records plus, for each, its
/// sequence and the byte offset just past it (so the caller can truncate
/// the journal back to any record boundary — the durable frontier may
/// sit below the last complete record when a sibling journal lost part
/// of a later fence).
#[derive(Clone, Debug)]
pub struct ShardReplay {
    /// The member header (capacity, shard count, this journal's index).
    pub header: SetHeader,
    /// Every complete shard-batch record, in journal (= sequence) order.
    pub records: Vec<ShardBatchRecord>,
    /// `ends[i]` = `(records[i].batch.seq, byte offset just past it)`.
    pub ends: Vec<(u64, usize)>,
    /// Bytes past the last complete record — the torn tail.
    pub torn_bytes: usize,
}

/// Scans one shard journal: member header, then shard-batch records
/// until the torn tail. Pure and thread-safe — recovery runs one scan
/// per journal in parallel.
pub fn replay_shard_journal(bytes: &[u8]) -> Result<ShardReplay, ReplayError> {
    let header = decode_header(bytes)?;
    if header.shard_index == SHARD_BASE {
        return Err(ReplayError::NotAPool(
            "base file where a shard journal belongs",
        ));
    }
    let mut records = Vec::new();
    let mut ends = Vec::new();
    let mut at = HEADER_BYTES;
    // An unknown tag, a torn frame or a framed-but-malformed body ends
    // the valid prefix.
    while let Some((TAG_SHARD_BATCH, body, next)) = scan_record(bytes, at) {
        let Some(r) = decode_shard_batch(body) else {
            break;
        };
        ends.push((r.batch.seq, next));
        records.push(r);
        at = next;
    }
    Ok(ShardReplay {
        header,
        records,
        ends,
        torn_bytes: bytes.len() - at,
    })
}

/// The merge of a pool's shard journals back into one global order.
#[derive(Clone, Debug, Default)]
pub struct MergedJournal {
    /// Every *complete* batch at or above the checkpoint mark, in
    /// ascending sequence order, each with its slices concatenated in
    /// shard-index order. A fence's lines are sorted by address before
    /// being sliced across the set's contiguous address ranges, so this
    /// restores exactly the line order one journal records — which makes
    /// pool-set replay bit-identical to serial one-journal replay.
    pub batches: Vec<BatchRecord>,
    /// The next expected global sequence: every sequence below it is
    /// complete and merged; everything at or above it (incomplete sets,
    /// records past a gap) is discarded.
    pub frontier: u64,
}

/// Merges per-shard records (indexed by shard, taken by value — replay
/// holds one copy of the journal) into the global batch order, computing
/// the durable frontier.
///
/// A sequence is durable only if every shard in its mask holds its
/// record. Sequences are allocated densely, so a missing sequence (every
/// slice torn) or an incomplete one ends the durable prefix: later
/// records — even complete ones — belong to fences that were never fully
/// on disk and are dropped, exactly as one journal drops everything past
/// its first torn record. Records below `mark` are stale leftovers of an
/// interrupted post-checkpoint truncation; their content is already in
/// the image and they are skipped entirely.
pub fn merge_shard_records(per_shard: Vec<Vec<ShardBatchRecord>>, mark: u64) -> MergedJournal {
    struct Pending {
        batch: BatchRecord,
        want: u64,
        have: u64,
        damaged: bool,
    }
    let mut by_seq: BTreeMap<u64, Pending> = BTreeMap::new();
    for (shard, records) in per_shard.into_iter().enumerate() {
        for ShardBatchRecord { batch, shard_mask } in records {
            if batch.seq < mark {
                continue;
            }
            let Some(p) = by_seq.get_mut(&batch.seq) else {
                // Shards are visited in ascending order: the first slice
                // seen is the lowest, and later ones extend it in place
                // (a single-shard fence moves its lines without a copy).
                let p = Pending {
                    damaged: shard_mask & (1 << shard) == 0,
                    want: shard_mask,
                    have: 1 << shard,
                    batch,
                };
                by_seq.insert(p.batch.seq, p);
                continue;
            };
            // Every slice of a fence carries identical metadata; a
            // mismatch (or a duplicate slice) means the set is not a
            // consistent image of that fence.
            if p.want != shard_mask
                || p.batch.kind != batch.kind
                || p.batch.fence_ns.to_bits() != batch.fence_ns.to_bits()
                || (p.have | !p.want) & (1 << shard) != 0
            {
                p.damaged = true;
                continue;
            }
            p.have |= 1 << shard;
            p.batch.lines.extend(batch.lines);
        }
    }
    let mut merged = MergedJournal {
        batches: Vec::new(),
        frontier: mark,
    };
    for (seq, p) in by_seq {
        if seq != merged.frontier || p.damaged || p.have != p.want {
            break;
        }
        merged.batches.push(p.batch);
        merged.frontier = seq + 1;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_known_answers() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

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
        let n = 1 + (rng.next() % 9) as usize;
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

    /// The encoder's normalization: last-write-wins per address,
    /// ascending address order.
    fn normalize(lines: &[LineImage]) -> Vec<LineImage> {
        let mut m = BTreeMap::new();
        for l in lines {
            m.insert(l.addr, l.data);
        }
        m.into_iter()
            .map(|(addr, data)| LineImage { addr, data })
            .collect()
    }

    /// Fixed 4-shard geometry: contiguous equal address ranges, the same
    /// map [`crate::FileBackend`] uses.
    const SET_SHARDS: usize = 4;
    const SET_SPAN: u64 = (1 << 26) / SET_SHARDS as u64;

    fn shard_of(addr: u64) -> usize {
        ((addr / SET_SPAN) as usize).min(SET_SHARDS - 1)
    }

    /// Slices globally-ordered batches into per-shard journal images,
    /// returning the journal bytes plus each shard's records.
    fn shard_journals(batches: &[BatchRecord]) -> (Vec<Vec<u8>>, Vec<Vec<ShardBatchRecord>>) {
        let mut bytes: Vec<Vec<u8>> = (0..SET_SHARDS)
            .map(|i| encode_header(1 << 26, SET_SHARDS as u16, i as u16).to_vec())
            .collect();
        let mut records: Vec<Vec<ShardBatchRecord>> = vec![Vec::new(); SET_SHARDS];
        for b in batches {
            let mut slices: Vec<Vec<LineImage>> = vec![Vec::new(); SET_SHARDS];
            for l in &b.lines {
                slices[shard_of(l.addr)].push(l.clone());
            }
            let mask: u64 = (0..SET_SHARDS)
                .filter(|&i| !slices[i].is_empty())
                .map(|i| 1u64 << i)
                .sum();
            for (i, lines) in slices.into_iter().enumerate() {
                if lines.is_empty() {
                    continue;
                }
                bytes[i].extend_from_slice(&encode_shard_batch(
                    b.seq, b.kind, b.fence_ns, mask, &lines,
                ));
                records[i].push(ShardBatchRecord {
                    batch: BatchRecord { lines, ..b.clone() },
                    shard_mask: mask,
                });
            }
        }
        (bytes, records)
    }

    /// Dense-seq batches with sorted, distinct line addresses — the
    /// exact shape the `sfence` path appends.
    fn fenced_batches(rng: &mut XorShift, n: usize) -> Vec<BatchRecord> {
        (0..n as u64)
            .map(|seq| {
                let mut b = fuzz_batch(rng);
                b.seq = seq;
                b.lines = normalize(&b.lines);
                b
            })
            .collect()
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
        assert_eq!(read_varint(&too_long, &mut 0), None);
        let mut overflow = vec![0xFFu8; 9];
        overflow.push(0x02); // bit 64
        assert_eq!(read_varint(&overflow, &mut 0), None);
        let mut max = vec![0xFFu8; 9];
        max.push(0x01); // exactly u64::MAX
        assert_eq!(read_varint(&max, &mut 0), Some(u64::MAX));
    }

    #[test]
    fn header_roundtrip_and_validation() {
        let h = encode_header(1 << 26, 4, 2);
        assert_eq!(
            decode_header(&h).unwrap(),
            SetHeader {
                capacity: 1 << 26,
                shards: 4,
                shard_index: 2
            }
        );
        let base = encode_header(1 << 20, 8, SHARD_BASE);
        assert_eq!(decode_header(&base).unwrap().shard_index, SHARD_BASE);
        assert!(matches!(decode_header(&[]), Err(ReplayError::NotAPool(_))));
        assert!(matches!(
            decode_header(&[0u8; 64]),
            Err(ReplayError::NotAPool(_))
        ));
        assert!(decode_header(&encode_header(1, 4, 4)).is_err());
        assert!(decode_header(&encode_header(1, 0, 0)).is_err());
        assert!(decode_header(&encode_header(1, 65, 0)).is_err());
        // A base file is not a journal.
        assert!(matches!(
            replay_shard_journal(&base),
            Err(ReplayError::NotAPool(_))
        ));
    }

    #[test]
    fn older_and_newer_generations_fail_typed() {
        // Generations 1–3 (snapshot-record pools), 4 (full-width CHAMP
        // pointers), 5 (full-width cons-cell and root-object pointers),
        // 6 (full-width vector inner-node children) and anything newer
        // than this build: a typed error naming both sides, never a
        // panic, never a best-effort read.
        for found in [0u32, 1, 2, 3, 4, 5, 6, 8, 99] {
            let mut h = encode_header(1 << 20, 1, SHARD_BASE);
            h[8..12].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                decode_header(&h),
                Err(ReplayError::UnsupportedGeneration {
                    found,
                    supported: FORMAT_GENERATION
                })
            );
        }
        // The checked-in fixtures' base members: a generation-3
        // single-file pool exactly as that format laid it down (header +
        // empty snapshot), a generation-4 pool (a 3-key map in its
        // journal) and generation-5 and -6 pools (a vector, a queue and a
        // map in each journal). The header check rejects each before any
        // replay.
        let fixtures: [(u32, &[u8]); 4] = [
            (3, include_bytes!("../../../tests/fixtures/gen3_pool.bin")),
            (4, include_bytes!("../../../tests/fixtures/gen4_pool.bin")),
            (5, include_bytes!("../../../tests/fixtures/gen5_pool.bin")),
            (6, include_bytes!("../../../tests/fixtures/gen6_pool.bin")),
        ];
        for (found, fixture) in fixtures {
            assert_eq!(
                decode_header(fixture),
                Err(ReplayError::UnsupportedGeneration {
                    found,
                    supported: FORMAT_GENERATION
                })
            );
        }
    }

    #[test]
    fn mark_slot_roundtrips_and_rejects_every_tear_and_flip() {
        for mark in [0u64, 1, 41, u64::MAX] {
            let slot = encode_mark(mark);
            assert_eq!(decode_mark(&slot), Some(mark));
            // A torn slot (any strict prefix, zero- or garbage-padded)
            // and any single corrupted byte are rejected.
            for cut in 0..MARK_SLOT_BYTES {
                assert_eq!(decode_mark(&slot[..cut]), None, "short slot {cut}");
                let mut torn = [0u8; MARK_SLOT_BYTES];
                torn[..cut].copy_from_slice(&slot[..cut]);
                if torn != slot {
                    assert_eq!(decode_mark(&torn), None, "torn at {cut}");
                }
                let mut flipped = slot;
                flipped[cut] ^= 0x10;
                assert_eq!(decode_mark(&flipped), None, "flip at {cut}");
            }
        }
        // A batch record is not a mark.
        let rec = encode_shard_batch(1, BatchKind::Fence, 0.0, 1, &[]);
        assert_eq!(decode_mark(&rec), None);
    }

    #[test]
    fn mark_slot_choice_falls_back_to_the_older_and_types_double_damage() {
        assert_eq!(newest_mark([Some(3), Some(9)]), Ok((9, 1)));
        assert_eq!(newest_mark([Some(9), Some(3)]), Ok((9, 0)));
        assert_eq!(newest_mark([Some(0), Some(0)]), Ok((0, 0)), "fresh pool");
        // The newer slot was torn mid-write: the older one still stands.
        assert_eq!(newest_mark([Some(3), None]), Ok((3, 0)));
        assert_eq!(newest_mark([None, Some(3)]), Ok((3, 1)));
        assert_eq!(newest_mark([None, None]), Err(ReplayError::MarkDamaged));
    }

    fn runs_of(lines: &BTreeMap<u64, LineBytes>, max_run: usize) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        coalesce_runs(lines, max_run, |addr, bytes| {
            out.push((addr, bytes.to_vec()));
            Ok::<(), ()>(())
        })
        .unwrap();
        out
    }

    #[test]
    fn run_coalescing_joins_adjacent_lines_and_splits_at_gaps_and_the_cap() {
        let mut lines = BTreeMap::new();
        for (i, addr) in [0u64, 64, 128, 256, 4096, 4160].into_iter().enumerate() {
            lines.insert(addr, [i as u8 + 1; 64]);
        }
        let runs = runs_of(&lines, 1 << 20);
        let shape: Vec<(u64, usize)> = runs.iter().map(|(a, b)| (*a, b.len())).collect();
        assert_eq!(shape, vec![(0, 192), (256, 64), (4096, 128)]);
        assert_eq!(&runs[0].1[64..128], &[2u8; 64]);
        // The cap bounds the buffer: the 3-line run splits 2 + 1.
        let capped: Vec<(u64, usize)> = runs_of(&lines, 128)
            .iter()
            .map(|(a, b)| (*a, b.len()))
            .collect();
        assert_eq!(capped, vec![(0, 128), (128, 64), (256, 64), (4096, 128)]);
        assert!(runs_of(&BTreeMap::new(), 128).is_empty());
        // An emit error stops the walk and surfaces.
        let mut seen = 0;
        let r = coalesce_runs(&lines, 64, |_, _| {
            seen += 1;
            if seen == 2 {
                Err("stop")
            } else {
                Ok(())
            }
        });
        assert_eq!((r, seen), (Err("stop"), 2));
    }

    #[test]
    fn run_coalescing_reproduces_a_fuzzed_line_set_exactly() {
        let mut rng = XorShift(0xC0A1_E5CE);
        for max_run in [64usize, 192, 4096, 1 << 18] {
            let mut lines = BTreeMap::new();
            for _ in 0..400 {
                // Dense neighbourhoods so adjacency actually happens.
                let l = fuzz_line(&mut rng);
                lines.insert(l.addr % (1 << 14), l.data);
            }
            let mut back = BTreeMap::new();
            let mut last_end = 0u64;
            for (addr, bytes) in runs_of(&lines, max_run) {
                assert!(bytes.len() <= max_run && bytes.len() % 64 == 0);
                assert!(addr >= last_end, "runs ascend without overlap");
                last_end = addr + bytes.len() as u64;
                for (i, chunk) in bytes.chunks(64).enumerate() {
                    back.insert(addr + i as u64 * 64, LineBytes::try_from(chunk).unwrap());
                }
            }
            assert_eq!(back, lines, "max_run {max_run}");
        }
    }

    #[test]
    fn fuzzed_batches_roundtrip_normalized() {
        // The decoded record is the encoder's normalized line set
        // (sorted, deduplicated last-write-wins), metadata bit-exact.
        let mut rng = XorShift(0x5EED_BA73);
        for _ in 0..200 {
            let b = fuzz_batch(&mut rng);
            let mask = 1 | rng.next();
            let mut file = encode_header(1 << 26, 1, 0).to_vec();
            file.extend_from_slice(&encode_shard_batch(
                b.seq, b.kind, b.fence_ns, mask, &b.lines,
            ));
            let r = replay_shard_journal(&file).unwrap();
            assert_eq!(r.records.len(), 1);
            assert_eq!(r.records[0].shard_mask, mask);
            assert_eq!(r.records[0].batch.seq, b.seq);
            assert_eq!(r.records[0].batch.kind, b.kind);
            assert_eq!(
                r.records[0].batch.fence_ns.to_bits(),
                b.fence_ns.to_bits(),
                "fence_ns stays bit-exact"
            );
            assert_eq!(r.records[0].batch.lines, normalize(&b.lines));
            assert_eq!(r.ends, vec![(b.seq, file.len())]);
            assert_eq!(r.torn_bytes, 0);
        }
    }

    #[test]
    fn dedup_is_last_write_wins() {
        let mk = |addr: u64, fill: u8| LineImage {
            addr,
            data: [fill; 64],
        };
        // Two writes to 0x1000 (the later wins), one to 0x0040, out of
        // address order on purpose.
        let lines = vec![mk(0x1000, 0xAA), mk(0x40, 0x11), mk(0x1000, 0xBB)];
        let mut file = encode_header(1 << 26, 1, 0).to_vec();
        file.extend_from_slice(&encode_shard_batch(9, BatchKind::Fence, 1.5, 1, &lines));
        let r = replay_shard_journal(&file).unwrap();
        assert_eq!(
            r.records[0].batch.lines,
            vec![mk(0x40, 0x11), mk(0x1000, 0xBB)],
            "sorted ascending, duplicate collapsed to the last write"
        );
    }

    #[test]
    fn torn_tail_recovers_to_last_complete_fence_at_every_offset() {
        // Truncate the journal at EVERY byte length: the scan must
        // always recover exactly the batches whose records fit
        // completely — never a partial batch, never an error. Tears
        // mid-varint are exercised by construction.
        let mut rng = XorShift(0x7EA2_0003);
        let batches = fenced_batches(&mut rng, 5);
        let mut file = encode_header(1 << 26, 1, 0).to_vec();
        let mut boundaries = vec![file.len()];
        for b in &batches {
            file.extend_from_slice(&encode_shard_batch(b.seq, b.kind, b.fence_ns, 1, &b.lines));
            boundaries.push(file.len());
        }
        for cut in HEADER_BYTES..=file.len() {
            let r = replay_shard_journal(&file[..cut]).unwrap();
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(
                r.records.len(),
                complete,
                "cut at {cut}: must land on the last complete fence"
            );
            for (rec, b) in r.records.iter().zip(&batches) {
                assert_eq!(&rec.batch, b);
            }
            assert_eq!(r.torn_bytes, cut - boundaries[complete]);
            assert_eq!(
                r.ends.last().map_or(HEADER_BYTES, |e| e.1),
                boundaries[complete]
            );
        }
    }

    #[test]
    fn oversized_length_field_is_torn_not_a_panic() {
        // A torn length field can claim a huge body: the scanner must
        // treat it as torn instead of slicing out of bounds.
        let mut file = encode_header(1 << 26, 1, 0).to_vec();
        file.extend_from_slice(&TAG_SHARD_BATCH.to_le_bytes());
        file.extend_from_slice(&u32::MAX.to_le_bytes());
        file.extend_from_slice(&[0u8; 32]);
        let r = replay_shard_journal(&file).unwrap();
        assert_eq!(r.records.len(), 0);
        assert_eq!(r.torn_bytes, 40);
    }

    #[test]
    fn record_with_noncanonical_varint_is_torn() {
        // Corrupting a delta into a padded (non-canonical) encoding
        // changes the bytes, so the checksum already rejects it; here we
        // re-frame with a fixed checksum to prove the *decoder* also
        // refuses — torn tail, not a mis-parsed batch.
        let line = LineImage {
            addr: 0x40,
            data: [3u8; 64],
        };
        let rec = encode_shard_batch(1, BatchKind::Fence, 2.0, 1, &[line]);
        // Body layout: seq=1 (1 B), kind (1 B), n=1 (1 B), fence (8 B),
        // mask=1 (1 B), then the first delta varint — pad it to two bytes.
        let mut body = rec[8..rec.len() - 8].to_vec();
        assert_eq!(body[12], 1, "first delta is index 1, one byte");
        body[12] = 0x81;
        body.insert(13, 0x00);
        let reframed = encode_record(TAG_SHARD_BATCH, &body);
        let mut file = encode_header(1 << 26, 1, 0).to_vec();
        file.extend_from_slice(&reframed);
        let r = replay_shard_journal(&file).unwrap();
        assert_eq!(r.records.len(), 0, "non-canonical delta is not a batch");
        assert_eq!(r.torn_bytes, reframed.len());
    }

    #[test]
    fn merge_is_bit_identical_to_the_serial_batch_order() {
        // The headline property, journal level: slice fenced batches
        // across 4 shard journals, scan each independently, merge — the
        // merged batches must equal the serial stream, record for
        // record, line order and all.
        let mut rng = XorShift(0xD15C_0B07);
        let batches = fenced_batches(&mut rng, 24);
        let (bytes, records) = shard_journals(&batches);
        let per_shard: Vec<Vec<ShardBatchRecord>> = bytes
            .iter()
            .map(|b| replay_shard_journal(b).unwrap().records)
            .collect();
        assert_eq!(per_shard, records, "scans return what was encoded");
        let merged = merge_shard_records(per_shard, 0);
        assert_eq!(merged.frontier, 24);
        assert_eq!(merged.batches, batches);
    }

    #[test]
    fn torn_tail_per_shard_at_every_offset_recovers_a_maximal_prefix() {
        // Truncate EACH shard journal at EVERY byte offset (siblings
        // intact): the merge must always converge on a prefix of the
        // global batch order — bit-identical to the serial stream cut at
        // the same frontier — and the frontier must be maximal (the
        // first dropped fence really lost a slice).
        let mut rng = XorShift(0x7EA2_7A11);
        let batches = fenced_batches(&mut rng, 12);
        let (bytes, full_records) = shard_journals(&batches);
        for victim in 0..SET_SHARDS {
            for cut in HEADER_BYTES..=bytes[victim].len() {
                let scan = replay_shard_journal(&bytes[victim][..cut]).unwrap();
                let survivors: Vec<u64> = scan.records.iter().map(|r| r.batch.seq).collect();
                let mut per_shard = full_records.clone();
                per_shard[victim] = scan.records;
                let merged = merge_shard_records(per_shard, 0);
                let n = merged.batches.len();
                assert_eq!(merged.frontier, n as u64, "cut {victim}@{cut}");
                assert_eq!(
                    merged.batches[..],
                    batches[..n],
                    "cut {victim}@{cut}: must be a bit-identical prefix"
                );
                if n < batches.len() {
                    let next = &batches[n];
                    let touched = next.lines.iter().any(|l| shard_of(l.addr) == victim);
                    assert!(
                        touched && !survivors.contains(&next.seq),
                        "cut {victim}@{cut}: fence {} dropped without cause",
                        next.seq
                    );
                }
            }
        }
    }

    #[test]
    fn stale_records_below_the_mark_are_ignored() {
        // Crash between a checkpoint's mark write and the journal
        // truncations: shard journals still hold records below the new
        // mark. They are already in the image and must not cap the
        // frontier or resurface.
        let mut rng = XorShift(0x57A1E);
        let batches = fenced_batches(&mut rng, 8);
        let (_, per_shard) = shard_journals(&batches);
        let merged = merge_shard_records(per_shard.clone(), 5);
        assert_eq!(merged.frontier, 8);
        assert_eq!(merged.batches[..], batches[5..]);
        // ... including when some journals were already truncated: only
        // sequences >= mark gate the frontier.
        let mut holey = per_shard;
        for recs in &mut holey {
            recs.retain(|r| r.batch.seq >= 3);
        }
        let merged = merge_shard_records(holey, 5);
        assert_eq!(merged.batches[..], batches[5..]);
    }

    #[test]
    fn inconsistent_slices_end_the_durable_prefix() {
        let mut rng = XorShift(0xBAD);
        let batches = fenced_batches(&mut rng, 6);
        let (_, mut bad) = shard_journals(&batches);
        // Corrupt one fence's metadata in one shard: mask disagreement.
        let r = bad.iter_mut().flatten().find(|r| r.batch.seq == 3).unwrap();
        r.shard_mask ^= 1 << 63;
        let merged = merge_shard_records(bad, 0);
        assert_eq!(merged.batches[..], batches[..3], "prefix before the damage");
        assert_eq!(merged.frontier, 3);
    }
}
