//! The PM-STM reference the MOD numbers are read against (Figs 9/10):
//! the same upsert slice on `StmHashMap` under PMDK-1.5-style hybrid
//! logging. Simulated cost only; the model has no hardware reference in
//! this repository.

use crate::gen::{value32, MapOp};
use mod_pmem::{Pmem, PmemConfig};
use mod_stm::{StmHashMap, TxHeap, TxMode};

/// `(sim ns per op, fences per op)` of `ops` after `preload`.
pub fn pmdk15_reference(preload: &[MapOp], ops: &[MapOp], capacity: u64) -> (f64, f64) {
    let mut heap = TxHeap::format(
        Pmem::new(PmemConfig::benchmarking(capacity)),
        TxMode::Hybrid,
    );
    // ~1 entry per bucket at preload, as the paper-figure binaries size it.
    let bucket_bits = (64 - (preload.len().max(16) as u64 - 1).leading_zeros()).max(4);
    let map = StmHashMap::create(&mut heap, bucket_bits);
    for op in preload {
        map.insert(&mut heap, op.key, &value32(op.key, op.version));
    }
    let sim0 = heap.nv().pm().clock().now_ns();
    let fences0 = heap.nv().pm().stats().fences;
    for op in ops {
        map.insert(&mut heap, op.key, &value32(op.key, op.version));
    }
    let n = ops.len() as f64;
    (
        (heap.nv().pm().clock().now_ns() - sim0) / n,
        (heap.nv().pm().stats().fences - fences0) as f64 / n,
    )
}
