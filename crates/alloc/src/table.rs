//! Paged dense side table: one volatile `u32` per heap block.
//!
//! Reference counts (§5.3) are volatile bookkeeping, touched on every
//! path copy — up to 32 sibling increments per rewritten trie node — so
//! their host cost must be a shift and an index, not a hash probe.
//! Blocks are at least [`MIN_BLOCK`] bytes apart, so
//! `(payload − HEAP_BASE) / MIN_BLOCK` names a block uniquely and the
//! table is a flat array over that index. It is *paged*: a page exists
//! only while some block inside it has a non-zero entry, so host memory
//! tracks the live heap — never the pool capacity, and not the address
//! range a bump pointer has swept through either.

use crate::layout::{HEAP_BASE, MIN_BLOCK};

/// log2 of the entries per page: a 16 KiB page covers 128 KiB of heap.
const PAGE_SHIFT: u32 = 12;
const PAGE_ENTRIES: usize = 1 << PAGE_SHIFT;

#[derive(Debug)]
struct Page {
    /// Non-zero entries in `slots`; the page is retired at 0.
    live: u32,
    slots: Box<[u32]>,
}

/// A lazily-paged `payload address → u32` table; absent entries read 0.
#[derive(Debug, Default)]
pub(crate) struct BlockTable {
    pages: Vec<Option<Page>>,
    /// The last retired page's (all-zero) storage, reused by the next
    /// page to appear: an entry flickering between 0 and 1 on an
    /// otherwise empty page — a worker's fresh mark, every FASE — costs
    /// no allocator traffic.
    spare: Option<Box<[u32]>>,
}

/// `(page, slot)` of the block whose payload starts at `payload`.
#[inline]
fn locate(payload: u64) -> Option<(usize, usize)> {
    let idx = payload.checked_sub(HEAP_BASE)? / MIN_BLOCK;
    Some((
        (idx >> PAGE_SHIFT) as usize,
        idx as usize & (PAGE_ENTRIES - 1),
    ))
}

impl BlockTable {
    /// The entry for `payload` (0 if never set or outside the heap).
    #[inline]
    pub(crate) fn get(&self, payload: u64) -> u32 {
        locate(payload)
            .and_then(|(p, s)| Some(self.pages.get(p)?.as_ref()?.slots[s]))
            .unwrap_or(0)
    }

    /// Replaces the entry for `payload` with `f(entry)` and returns the
    /// new value. Pages appear with their first non-zero entry and are
    /// retired with their last.
    ///
    /// # Panics
    ///
    /// Panics if `payload` lies below the heap region.
    #[inline]
    pub(crate) fn update(&mut self, payload: u64, f: impl FnOnce(u32) -> u32) -> u32 {
        let (p, s) = locate(payload)
            .unwrap_or_else(|| panic!("block table access below the heap: {payload:#x}"));
        let old = match self.pages.get(p) {
            Some(Some(page)) => page.slots[s],
            _ => 0,
        };
        let new = f(old);
        if new == old {
            return new;
        }
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, || None);
        }
        let spare = &mut self.spare;
        let page = self.pages[p].get_or_insert_with(|| Page {
            live: 0,
            slots: spare
                .take()
                .unwrap_or_else(|| vec![0; PAGE_ENTRIES].into_boxed_slice()),
        });
        page.slots[s] = new;
        if old == 0 {
            page.live += 1;
        } else if new == 0 {
            page.live -= 1;
            if page.live == 0 {
                // Every slot is zero again: retire the page as the spare.
                self.spare = self.pages[p].take().map(|page| page.slots);
            }
        }
        new
    }

    /// Sets the entry for `payload`.
    #[inline]
    pub(crate) fn set(&mut self, payload: u64, value: u32) {
        self.update(payload, |_| value);
    }

    /// Host bytes held: the page directory plus every live page.
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> u64 {
        let pages = self.pages.iter().flatten().count() + self.spare.is_some() as usize;
        (self.pages.len() * std::mem::size_of::<Option<Page>>() + pages * PAGE_ENTRIES * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::HEADER_BYTES;

    #[test]
    fn absent_entries_read_zero_and_allocate_nothing() {
        let t = BlockTable::default();
        assert_eq!(t.get(HEAP_BASE + HEADER_BYTES), 0);
        assert_eq!(t.get(0), 0, "below the heap");
        assert_eq!(t.get(u64::MAX), 0);
        assert_eq!(t.resident_bytes(), 0);
    }

    #[test]
    fn adjacent_minimum_blocks_get_distinct_entries() {
        let mut t = BlockTable::default();
        let a = HEAP_BASE + HEADER_BYTES;
        let b = a + MIN_BLOCK;
        t.set(a, 3);
        t.set(b, 5);
        assert_eq!((t.get(a), t.get(b)), (3, 5));
        assert_eq!(t.update(a, |c| c - 3), 0);
        assert_eq!((t.get(a), t.get(b)), (0, 5));
    }

    #[test]
    fn pages_exist_only_while_an_entry_is_live() {
        let mut t = BlockTable::default();
        let live_pages = |t: &BlockTable| t.pages.iter().flatten().count();
        // A block 3 GiB into a pool: the directory grows to reach it,
        // one page appears, nothing in between does.
        let far = HEAP_BASE + HEADER_BYTES + (3 << 30);
        assert_eq!(t.update(far, |c| c + 1), 1);
        assert_eq!(live_pages(&t), 1);
        assert!(t.resident_bytes() < 1 << 20);
        // Zeroing an entry nobody set must not create its page.
        t.set(HEAP_BASE + HEADER_BYTES, 0);
        assert_eq!(live_pages(&t), 1);
        // The last live entry retires the page; its zeroed storage
        // serves the next page to appear, wherever that is.
        t.set(far + MIN_BLOCK, 9);
        t.set(far, 0);
        assert_eq!(live_pages(&t), 1);
        t.set(far + MIN_BLOCK, 0);
        assert_eq!(live_pages(&t), 0);
        assert!(t.spare.is_some());
        let near = HEAP_BASE + HEADER_BYTES;
        t.set(near, 4);
        assert!(t.spare.is_none(), "the spare page was reused");
        assert_eq!(
            (t.get(near), t.get(near + MIN_BLOCK), t.get(far)),
            (4, 0, 0)
        );
    }

    #[test]
    fn a_sweep_of_short_lived_entries_leaves_nothing_behind() {
        // A bump pointer sweeping 64 MiB with one live block at a time
        // (a worker's fresh mark) never holds more than one page.
        let mut t = BlockTable::default();
        for i in 0..(64 << 20) / 4096 {
            let p = HEAP_BASE + HEADER_BYTES + i * 4096;
            t.set(p, 1);
            t.set(p, 0);
        }
        assert_eq!(t.pages.iter().flatten().count(), 0);
        assert!(t.resident_bytes() < 64 << 10);
    }

    #[test]
    #[should_panic(expected = "below the heap")]
    fn writes_below_the_heap_are_rejected() {
        BlockTable::default().set(HEADER_BYTES, 1);
    }
}
