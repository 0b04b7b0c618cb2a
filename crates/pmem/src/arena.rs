//! Segmented byte storage backing the simulated PM pool.
//!
//! [`SharedArena`] is the storage layer that makes lock-free shard
//! staging possible: it is a handle (cheap [`Clone`]) onto one shared,
//! lazily-allocated byte space, and every access goes through **relaxed
//! atomic `u64` words**. That gives the exact semantics of a real
//! `mmap`ed PM pool shared by several cores:
//!
//! * concurrent accesses to *disjoint* ranges (each worker writes only
//!   blocks inside its own allocation arena) are race-free and scale
//!   across host threads with no lock;
//! * racing accesses to the *same* 8-byte word are defined behavior —
//!   the reader sees some complete 8-byte value, never UB — which is
//!   precisely the publication guarantee MOD relies on for its one
//!   atomic root-pointer store;
//! * accesses spanning multiple words can tear at word granularity,
//!   exactly like real PM, which is why the commit protocol only ever
//!   publishes through single aligned 8-byte stores.
//!
//! Segments are allocated lazily (zero-filled) so a large pool costs
//! memory only where it is touched — important because a crash-simulating
//! pool keeps a second arena holding the durable image.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// log2 of the segment size (4 MiB).
const SEG_SHIFT: u32 = 22;
/// Segment size in bytes.
pub const SEGMENT_BYTES: u64 = 1 << SEG_SHIFT;
/// Words per segment.
const SEG_WORDS: usize = (SEGMENT_BYTES / 8) as usize;

type Seg = Box<[AtomicU64]>;

/// A fresh all-zero segment. Kept out of line so that, wherever a
/// caller materializes a segment, this stays the one allocate-and-zero
/// loop the optimizer folds into a zeroed allocation — which the OS
/// then backs lazily, page by page, as the segment is touched.
#[inline(never)]
fn zeroed_seg() -> Seg {
    (0..SEG_WORDS).map(|_| AtomicU64::new(0)).collect()
}

#[derive(Debug)]
struct ArenaInner {
    segs: Box<[OnceLock<Seg>]>,
    capacity: u64,
}

/// Lazily-allocated, zero-initialized flat byte space, shareable across
/// threads (see the module docs for the concurrency contract).
#[derive(Clone, Debug)]
pub struct SharedArena {
    inner: Arc<ArenaInner>,
}

impl SharedArena {
    /// Creates an arena addressing `[0, capacity)` bytes.
    pub fn new(capacity: u64) -> SharedArena {
        let n_segs = capacity.div_ceil(SEGMENT_BYTES) as usize;
        SharedArena {
            inner: Arc::new(ArenaInner {
                segs: (0..n_segs).map(|_| OnceLock::new()).collect(),
                capacity,
            }),
        }
    }

    /// Addressable capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.capacity
    }

    /// Bytes of host memory actually committed to segments.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.segs.iter().filter(|s| s.get().is_some()).count() as u64 * SEGMENT_BYTES
    }

    /// Whether `other` is a handle onto the same storage.
    pub fn same_storage(&self, other: &SharedArena) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    #[inline]
    fn check(&self, addr: u64, len: u64) {
        assert!(
            addr.checked_add(len)
                .is_some_and(|end| end <= self.inner.capacity),
            "PM access out of bounds: [{addr:#x}, +{len}) beyond capacity {:#x}",
            self.inner.capacity
        );
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the arena capacity.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        self.check(addr, buf.len() as u64);
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let seg_idx = (a >> SEG_SHIFT) as usize;
            let in_seg = (a & (SEGMENT_BYTES - 1)) as usize;
            let chunk = usize::min(buf.len() - off, SEGMENT_BYTES as usize - in_seg);
            match self.inner.segs[seg_idx].get() {
                Some(seg) => read_words(seg, in_seg, &mut buf[off..off + chunk]),
                None => buf[off..off + chunk].fill(0),
            }
            off += chunk;
        }
    }

    /// Writes `buf` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the arena capacity.
    pub fn write(&self, addr: u64, buf: &[u8]) {
        self.check(addr, buf.len() as u64);
        let mut off = 0usize;
        while off < buf.len() {
            let a = addr + off as u64;
            let seg_idx = (a >> SEG_SHIFT) as usize;
            let in_seg = (a & (SEGMENT_BYTES - 1)) as usize;
            let chunk = usize::min(buf.len() - off, SEGMENT_BYTES as usize - in_seg);
            let seg = self.inner.segs[seg_idx].get_or_init(zeroed_seg);
            write_words(seg, in_seg, &buf[off..off + chunk]);
            off += chunk;
        }
    }

    /// The words of `[addr, addr + len)` if the range is word-aligned and
    /// lies inside one segment: `Some(None)` when that segment was never
    /// materialized (all zero), `None` when the caller must take the
    /// byte path.
    fn aligned_words(&self, addr: u64, len: u64) -> Option<Option<&[AtomicU64]>> {
        let in_seg = addr & (SEGMENT_BYTES - 1);
        if addr % 8 != 0 || len % 8 != 0 || in_seg + len > SEGMENT_BYTES {
            return None;
        }
        self.check(addr, len);
        let words = (in_seg / 8) as usize..((in_seg + len) / 8) as usize;
        Some(
            self.inner.segs[(addr >> SEG_SHIFT) as usize]
                .get()
                .map(|seg| &seg[words]),
        )
    }

    /// The 64 bytes of the line at the 64-byte aligned `line` as words,
    /// zero past the arena's end.
    pub(crate) fn line_words(&self, line: u64) -> [u64; 8] {
        let mut words = [0u64; 8];
        let len = (self.inner.capacity - line).min(64);
        if len == 64 {
            self.read_words(line, &mut words);
        } else {
            let mut bytes = [0u8; 64];
            self.read(line, &mut bytes[..len as usize]);
            for (w, b) in words.iter_mut().zip(bytes.chunks_exact(8)) {
                *w = u64::from_le_bytes(b.try_into().unwrap());
            }
        }
        words
    }

    /// Copies `len` bytes at `addr` from `src` into `self` (used to build
    /// durable images line by line). Word-aligned ranges within one
    /// segment (every cacheline) move word by word.
    pub fn copy_from(&self, src: &SharedArena, addr: u64, len: u64) {
        if let Some(from) = src.aligned_words(addr, len) {
            let seg = self.inner.segs[(addr >> SEG_SHIFT) as usize].get_or_init(zeroed_seg);
            let first = ((addr & (SEGMENT_BYTES - 1)) / 8) as usize;
            let to = &seg[first..first + (len / 8) as usize];
            match from {
                Some(from) => {
                    for (d, s) in to.iter().zip(from) {
                        d.store(s.load(Ordering::Relaxed), Ordering::Relaxed);
                    }
                }
                None => to.iter().for_each(|d| d.store(0, Ordering::Relaxed)),
            }
            return;
        }
        let mut buf = [0u8; 64];
        let mut remaining = len;
        let mut a = addr;
        while remaining > 0 {
            let chunk = u64::min(remaining, 64);
            src.read(a, &mut buf[..chunk as usize]);
            self.write(a, &buf[..chunk as usize]);
            a += chunk;
            remaining -= chunk;
        }
    }

    /// Deep copy into fresh, unshared storage (crash images must be
    /// snapshots, not handles).
    pub fn snapshot(&self) -> SharedArena {
        let out = SharedArena::new(self.inner.capacity);
        for (i, slot) in self.inner.segs.iter().enumerate() {
            if let Some(seg) = slot.get() {
                let dst = out.inner.segs[i].get_or_init(zeroed_seg);
                for (d, s) in dst.iter().zip(seg.iter()) {
                    d.store(s.load(Ordering::Relaxed), Ordering::Relaxed);
                }
            }
        }
        out
    }

    /// Reads `out.len()` little-endian words starting at the 8-byte
    /// aligned `addr`: one atomic load per word, no byte shuffling.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned or the range exceeds the
    /// arena capacity.
    pub fn read_words(&self, addr: u64, out: &mut [u64]) {
        assert_eq!(addr % 8, 0, "word access at unaligned address {addr:#x}");
        self.check(addr, out.len() as u64 * 8);
        let mut done = 0;
        while done < out.len() {
            let a = addr + done as u64 * 8;
            let first = ((a & (SEGMENT_BYTES - 1)) / 8) as usize;
            let n = usize::min(out.len() - done, SEG_WORDS - first);
            let chunk = &mut out[done..done + n];
            match self.inner.segs[(a >> SEG_SHIFT) as usize].get() {
                Some(seg) => {
                    for (o, w) in chunk.iter_mut().zip(&seg[first..]) {
                        *o = w.load(Ordering::Relaxed);
                    }
                }
                None => chunk.fill(0),
            }
            done += n;
        }
    }

    /// Writes `words` as little-endian `u64`s starting at the 8-byte
    /// aligned `addr`: one atomic store per word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned or the range exceeds the
    /// arena capacity.
    pub fn write_words(&self, addr: u64, words: &[u64]) {
        assert_eq!(addr % 8, 0, "word access at unaligned address {addr:#x}");
        self.check(addr, words.len() as u64 * 8);
        let mut done = 0;
        while done < words.len() {
            let a = addr + done as u64 * 8;
            let first = ((a & (SEGMENT_BYTES - 1)) / 8) as usize;
            let n = usize::min(words.len() - done, SEG_WORDS - first);
            let seg = self.inner.segs[(a >> SEG_SHIFT) as usize].get_or_init(zeroed_seg);
            for (w, v) in seg[first..].iter().zip(&words[done..done + n]) {
                w.store(*v, Ordering::Relaxed);
            }
            done += n;
        }
    }

    /// Reads a little-endian `u64` at `addr`. An aligned read is a single
    /// atomic load (the root-pointer publication path).
    pub fn read_u64(&self, addr: u64) -> u64 {
        if addr % 8 == 0 {
            self.check(addr, 8);
            let seg_idx = (addr >> SEG_SHIFT) as usize;
            let word = ((addr & (SEGMENT_BYTES - 1)) / 8) as usize;
            return match self.inner.segs[seg_idx].get() {
                Some(seg) => seg[word].load(Ordering::Relaxed),
                None => 0,
            };
        }
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `addr`. An aligned write is a
    /// single atomic store (the root-pointer publication path).
    pub fn write_u64(&self, addr: u64, v: u64) {
        if addr % 8 == 0 {
            self.check(addr, 8);
            let seg_idx = (addr >> SEG_SHIFT) as usize;
            let word = ((addr & (SEGMENT_BYTES - 1)) / 8) as usize;
            let seg = self.inner.segs[seg_idx].get_or_init(zeroed_seg);
            seg[word].store(v, Ordering::Relaxed);
            return;
        }
        self.write(addr, &v.to_le_bytes());
    }
}

/// Reads `buf.len()` bytes starting at byte offset `start` of `seg`.
fn read_words(seg: &[AtomicU64], start: usize, buf: &mut [u8]) {
    let mut off = 0usize;
    while off < buf.len() {
        let byte = start + off;
        let word = byte / 8;
        let in_word = byte % 8;
        let n = usize::min(8 - in_word, buf.len() - off);
        let w = seg[word].load(Ordering::Relaxed).to_le_bytes();
        buf[off..off + n].copy_from_slice(&w[in_word..in_word + n]);
        off += n;
    }
}

/// Writes `buf` starting at byte offset `start` of `seg`. Partial-word
/// edges read-modify-write their word; callers keep concurrently written
/// ranges word-disjoint (allocation arenas are 64-byte aligned).
fn write_words(seg: &[AtomicU64], start: usize, buf: &[u8]) {
    let mut off = 0usize;
    while off < buf.len() {
        let byte = start + off;
        let word = byte / 8;
        let in_word = byte % 8;
        let n = usize::min(8 - in_word, buf.len() - off);
        if n == 8 {
            let w = u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
            seg[word].store(w, Ordering::Relaxed);
        } else {
            let mut w = seg[word].load(Ordering::Relaxed).to_le_bytes();
            w[in_word..in_word + n].copy_from_slice(&buf[off..off + n]);
            seg[word].store(u64::from_le_bytes(w), Ordering::Relaxed);
        }
        off += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let a = SharedArena::new(1 << 24);
        let mut buf = [0xFFu8; 16];
        a.read(12345, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn write_read_roundtrip() {
        let a = SharedArena::new(1 << 24);
        a.write(100, b"hello world");
        let mut buf = [0u8; 11];
        a.read(100, &mut buf);
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn unaligned_spans_roundtrip() {
        let a = SharedArena::new(1 << 22);
        for start in 0u64..16 {
            let data: Vec<u8> = (0..37).map(|i| (start as u8) ^ i).collect();
            a.write(1000 + start * 64 + start, &data);
            let mut buf = vec![0u8; 37];
            a.read(1000 + start * 64 + start, &mut buf);
            assert_eq!(buf, data, "offset {start}");
        }
    }

    #[test]
    fn cross_segment_access() {
        let a = SharedArena::new(3 * SEGMENT_BYTES);
        let addr = SEGMENT_BYTES - 5;
        let data: Vec<u8> = (0..32).collect();
        a.write(addr, &data);
        let mut buf = vec![0u8; 32];
        a.read(addr, &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn u64_roundtrip() {
        let a = SharedArena::new(1 << 22);
        a.write_u64(64, 0xDEADBEEF_CAFEBABE);
        assert_eq!(a.read_u64(64), 0xDEADBEEF_CAFEBABE);
        // Unaligned path too.
        a.write_u64(101, 0x0102030405060708);
        assert_eq!(a.read_u64(101), 0x0102030405060708);
    }

    #[test]
    fn word_access_matches_byte_access_across_segments() {
        let a = SharedArena::new(3 * SEGMENT_BYTES);
        let addr = SEGMENT_BYTES - 24; // 3 words before a segment edge
        let words: Vec<u64> = (1..=8).map(|i| i * 0x0101_0101_0101_0101).collect();
        a.write_words(addr, &words);
        let mut bytes = [0u8; 64];
        a.read(addr, &mut bytes);
        let expect: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(bytes.to_vec(), expect);
        let mut back = [0u64; 8];
        a.read_words(addr, &mut back);
        assert_eq!(back.to_vec(), words);
        // Untouched segments read as zero without materializing.
        let mut far = [7u64; 4];
        a.read_words(2 * SEGMENT_BYTES + 64, &mut far);
        assert_eq!(far, [0; 4]);
        assert_eq!(a.resident_bytes(), 2 * SEGMENT_BYTES);
    }

    #[test]
    fn line_words_read_whole_lines_and_zero_past_the_end() {
        let a = SharedArena::new(SEGMENT_BYTES + 100);
        assert_eq!(a.line_words(128), [0; 8], "never materialized");
        a.write_u64(136, 9);
        assert_eq!(a.line_words(128), [0, 9, 0, 0, 0, 0, 0, 0]);
        // The last line holds 36 bytes: four whole words and half a word.
        a.write(SEGMENT_BYTES + 64, &[0xAB; 36]);
        let tail = a.line_words(SEGMENT_BYTES + 64);
        assert_eq!(tail[..4], [u64::from_le_bytes([0xAB; 8]); 4]);
        assert_eq!(tail[4], 0xABAB_ABAB);
        assert_eq!(tail[5..], [0; 3]);
    }

    #[test]
    fn lazy_segments() {
        let a = SharedArena::new(64 * SEGMENT_BYTES);
        assert_eq!(a.resident_bytes(), 0);
        a.write_u64(0, 1);
        assert_eq!(a.resident_bytes(), SEGMENT_BYTES);
        a.write_u64(10 * SEGMENT_BYTES, 1);
        assert_eq!(a.resident_bytes(), 2 * SEGMENT_BYTES);
    }

    #[test]
    fn copy_from_moves_lines() {
        let src = SharedArena::new(1 << 23);
        let dst = SharedArena::new(1 << 23);
        src.write(128, b"durable-data");
        dst.copy_from(&src, 128, 12);
        let mut buf = [0u8; 12];
        dst.read(128, &mut buf);
        assert_eq!(&buf, b"durable-data");
        // A whole line (the word path), overwriting stale content.
        dst.write(192, &[0xFF; 64]);
        src.write(200, b"line");
        dst.copy_from(&src, 192, 64);
        let mut line = [0u8; 64];
        dst.read(192, &mut line);
        assert_eq!(&line[8..12], b"line");
        assert!(line[..8].iter().chain(&line[12..]).all(|&b| b == 0));
        // Copying a line of a never-touched source segment zeroes it.
        dst.write(SEGMENT_BYTES + 64, &[1; 64]);
        dst.copy_from(&src, SEGMENT_BYTES + 64, 64);
        dst.read(SEGMENT_BYTES + 64, &mut line);
        assert_eq!(line, [0; 64]);
    }

    #[test]
    fn clone_is_a_handle_snapshot_is_a_copy() {
        let a = SharedArena::new(1 << 22);
        a.write_u64(0, 7);
        let handle = a.clone();
        let snap = a.snapshot();
        assert!(a.same_storage(&handle));
        assert!(!a.same_storage(&snap));
        a.write_u64(0, 8);
        assert_eq!(handle.read_u64(0), 8, "handle sees later writes");
        assert_eq!(snap.read_u64(0), 7, "snapshot is frozen");
    }

    #[test]
    fn disjoint_concurrent_writes_land() {
        let a = SharedArena::new(1 << 22);
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let a = a.clone();
                std::thread::spawn(move || {
                    for i in 0..256u64 {
                        a.write_u64(t * 65536 + i * 8, t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for t in 0..4u64 {
            for i in 0..256u64 {
                assert_eq!(a.read_u64(t * 65536 + i * 8), t * 1000 + i);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let a = SharedArena::new(100);
        let mut b = [0u8; 8];
        a.read(96, &mut b);
    }
}
