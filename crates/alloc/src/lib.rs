//! # mod-alloc — persistent heap allocator and recovery GC
//!
//! The `nvm_malloc` equivalent the MOD paper builds on (§4.2 step 1): a
//! segregated free-list allocator over the simulated PM pool, with
//!
//! * 64 persistent **root slots** — the well-known addresses from which
//!   applications find their datastructures across process lifetimes;
//! * **volatile reference counts** (§5.3) — never flushed, rebuilt on
//!   recovery from reachability;
//! * **one graph walk** ([`NvHeap::walk`]) for commit-time release and
//!   **recovery GC**: after a crash it marks every reachable block
//!   ([`NvHeap::mark_block`]) and [`NvHeap::finish_recovery`] turns all
//!   unmarked space (including mid-FASE leaks) back into free space;
//! * a **volatile range** beside the pool — hybrid roots' index blocks,
//!   allocated inside [`NvHeap::begin_volatile`] by the same algorithm
//!   over a free space of their own; an address says which space a block
//!   belongs to, so a free needs no other tag;
//! * allocation statistics backing Table 3 of the paper.
//!
//! ## Example
//!
//! ```
//! use mod_alloc::NvHeap;
//! use mod_pmem::{Pmem, PmemConfig};
//!
//! let mut heap = NvHeap::format(Pmem::new(PmemConfig::testing()));
//! let node = heap.alloc(32);
//! heap.write_u64(node.addr(), 42);
//! heap.flush_block(node);   // unordered clwbs
//! heap.sfence();            // one ordering point
//! assert_eq!(heap.read_u64(node.addr()), 42);
//! ```

#![warn(missing_docs)]

pub mod annex;
pub mod heap;
pub mod layout;
pub mod read;
pub mod recovery;
mod table;
pub mod walk;
pub mod worker;

pub use annex::RootAnnex;
pub use heap::{AllocStats, NvHeap};
pub use layout::{
    class_size, pack_ptr, pack_ptrs, unpack_ptr, unpack_ptrs, HEADER_BYTES, HEAP_BASE,
    MAX_POOL_BYTES, N_ROOTS, POOL_MAGIC,
};
pub use read::HeapRead;
pub use recovery::RecoveryReport;
pub use walk::{BlockKind, Visit};
pub use worker::{AllocDelta, StagedAllocEffects};
