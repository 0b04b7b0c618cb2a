//! Commit-time release and recovery marking must agree on the block
//! graph. Release frees a superseded version's unshared blocks as FASEs
//! commit; after a crash, the mark walk rebuilds the live set from the
//! root directory alone. If either visit reads a block's children
//! differently, the blocks release left live and the blocks the mark
//! finds reachable differ — so the allocator's live counts before a crash
//! must equal the recovery report after it.

use mod_alloc::class_size;
use mod_core::{DurableStack, ModHeap, PersistPolicy};
use mod_funcds::champ::key_with_hash;
use mod_funcds::{PmMap, PmQueue, PmSet, PmStack, PmVector};
use mod_pmem::{CrashPolicy, Pmem, PmemConfig};

/// A map key whose trie hash shares its low 56 bits with every other
/// one's, so any two of them part ways eleven or more levels down.
fn deep(i: u64) -> u64 {
    key_with_hash(0x00AB_CDEF_0123_4567 | i << 56)
}

#[test]
fn mark_after_a_crash_finds_exactly_the_blocks_release_left_live() {
    let mut heap = ModHeap::create(Pmem::new(PmemConfig::testing()));
    let nv = heap.nv_mut();
    let map = PmMap::empty(nv);
    let set = PmSet::empty(nv);
    let vector = PmVector::from_slice(nv, &(0..1000).collect::<Vec<_>>());
    let stack = PmStack::empty(nv);
    let queue = PmQueue::empty(nv);
    let (map, set, vector, stack, queue) = (
        heap.publish(map),
        heap.publish(set),
        heap.publish(vector),
        heap.publish(stack),
        heap.publish(queue),
    );
    let hybrid: DurableStack<u64> = heap.root(5).policy(PersistPolicy::Hybrid).create();

    // Every FASE updates all five full roots, so each commit swings a
    // fresh multi-root directory and releases the old one; the second
    // map update in a FASE releases an intra-FASE intermediate.
    for i in 0..100u64 {
        heap.fase(|tx| {
            tx.update(map, |nv, m| m.insert(nv, deep(i), &[i as u8; 24]));
            tx.update(map, |nv, m| m.insert(nv, deep(i / 2), &[i as u8; 40]));
            tx.update(set, |nv, s| s.insert(nv, i * 7).0);
            tx.update(vector, |nv, v| v.push_back(nv, i));
            tx.update(stack, |nv, s| s.push(nv, i));
            tx.update(queue, |nv, q| q.enqueue(nv, i));
        });
        if i % 3 == 0 {
            heap.fase(|tx| {
                tx.update(map, |nv, m| m.remove(nv, deep(i / 3)).0);
                tx.update(set, |nv, s| s.remove(nv, i * 7 / 3).0);
                tx.update(vector, |nv, v| v.update(nv, i * 10, i));
                tx.update(stack, |nv, s| s.pop(nv).map_or(s, |(s, _)| s));
                tx.update_with(queue, |nv, q| q.dequeue(nv).unwrap());
            });
        }
    }
    // A dequeue that empties the front reverses the rear into it; the
    // enqueues after it leave both chains non-empty.
    heap.fase(|tx| tx.update_with(queue, |nv, q| q.dequeue(nv).unwrap()));
    heap.fase(|tx| {
        tx.update(queue, |nv, q| q.enqueue(nv, 1000));
        tx.update(queue, |nv, q| q.enqueue(nv, 1001));
    });
    // Pushes and pops on the hybrid root: a spine chain long enough to
    // compact once, reclaiming the superseded chain.
    for i in 0..5 {
        hybrid.push(&mut heap, &i);
    }
    for i in 0..60 {
        hybrid.push(&mut heap, &i);
        hybrid.pop(&mut heap);
    }
    heap.quiesce();
    assert_eq!(heap.pending_reclaims(), 0);

    let vec_len = heap.current(vector).len(heap.nv());
    assert!(vec_len > 32 * 32 + 32, "two inner levels and a tail");
    let queue_now = heap.current(queue).to_vec(heap.nv());

    // The hybrid stack's index — a 16-byte root object and one 16-byte
    // cell per element — lives in the pool's volatile range, which no
    // crash image holds: the mark never sees it, so it is the one class
    // of live blocks left out of the comparison.
    let index_blocks = hybrid.len(&heap) + 1;
    let pre = heap.nv().stats().clone();
    let image = heap.nv().pm().crash_image(CrashPolicy::OnlyFenced);
    let (reopened, report) = ModHeap::open(image);
    assert_eq!(report.live_blocks, pre.live_blocks - index_blocks);
    assert_eq!(
        report.live_bytes,
        pre.live_bytes - index_blocks * class_size(16)
    );
    assert_eq!(reopened.current(queue).to_vec(reopened.nv()), queue_now);
}
