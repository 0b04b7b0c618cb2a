//! Variable-size persistent byte blobs.
//!
//! Map values (and any other variable-size payloads) are stored out of
//! line as immutable blobs: `[len: u32][pad: u32][bytes...]`. Blobs are
//! reference counted like nodes because structural sharing makes multiple
//! node versions point at the same value.

use mod_alloc::{HeapRead, NvHeap};
use mod_pmem::PmPtr;

const BLOB_HEADER: u64 = 8;

/// Creates an immutable blob holding `bytes`, flushed (not fenced).
/// Returns [`PmPtr::NULL`] for empty input — the canonical encoding of
/// "no value" used by sets.
pub fn blob_create(heap: &mut NvHeap, bytes: &[u8]) -> PmPtr {
    if bytes.is_empty() {
        return PmPtr::NULL;
    }
    let len = BLOB_HEADER + bytes.len() as u64;
    let ptr = heap.alloc(len);
    heap.write_u32(ptr.addr(), bytes.len() as u32);
    heap.write_u32(ptr.addr() + 4, 0);
    heap.write_bytes(ptr.addr() + BLOB_HEADER, bytes);
    heap.flush_range(
        ptr.addr() - mod_alloc::HEADER_BYTES,
        mod_alloc::HEADER_BYTES + len,
    );
    ptr
}

/// Reads a blob's contents (charged on `&mut NvHeap`, free on `&NvHeap`;
/// see [`HeapRead`]). Null yields the empty vector.
pub fn blob_read<'a>(heap: impl Into<HeapRead<'a>>, ptr: PmPtr) -> Vec<u8> {
    if ptr.is_null() {
        return Vec::new();
    }
    let mut heap = heap.into();
    let len = heap.u32(ptr.addr()) as u64;
    heap.vec(ptr.addr() + BLOB_HEADER, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DsKind;
    use mod_alloc::Visit;
    use mod_pmem::{Pmem, PmemConfig};

    fn heap() -> NvHeap {
        NvHeap::format(Pmem::new(PmemConfig::testing()))
    }

    #[test]
    fn roundtrip() {
        let mut h = heap();
        let p = blob_create(&mut h, b"persistent value");
        assert_eq!(blob_read(&mut h, p), b"persistent value");
    }

    #[test]
    fn empty_is_null() {
        let mut h = heap();
        let p = blob_create(&mut h, b"");
        assert!(p.is_null());
        assert_eq!(blob_read(&mut h, p), Vec::<u8>::new());
    }

    #[test]
    fn refcounting_frees_at_zero() {
        let mut h = heap();
        let p = blob_create(&mut h, &[9u8; 100]);
        h.rc_inc(p);
        assert_eq!(h.rc_get(p), 2);
        h.walk(Visit::Release, p, DsKind::Blob);
        assert_eq!(h.stats().frees, 0);
        h.walk(Visit::Release, p, DsKind::Blob);
        assert_eq!(h.stats().frees, 1);
    }

    #[test]
    fn null_release_is_a_noop() {
        let mut h = heap();
        h.walk(Visit::Release, PmPtr::NULL, DsKind::Blob);
        assert_eq!(h.stats().frees, 0);
    }

    #[test]
    fn large_blob_512b() {
        // The memcached workload's 512-byte values.
        let mut h = heap();
        let data = vec![0xABu8; 512];
        let p = blob_create(&mut h, &data);
        assert_eq!(blob_read(&mut h, p), data);
        // 8 + 512 rounds to the 768 class.
        assert_eq!(h.block_len(p), 768);
    }

    #[test]
    fn blob_is_durable_after_fence() {
        let mut h = heap();
        let p = blob_create(&mut h, b"abc");
        h.sfence();
        let img = h.pm().crash_image(mod_pmem::CrashPolicy::OnlyFenced);
        assert_eq!(img.peek_u64(p.addr()) as u32, 3);
    }
}
