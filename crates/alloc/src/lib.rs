//! # mod-alloc — persistent heap allocator and recovery GC
//!
//! The `nvm_malloc` equivalent the MOD paper builds on (§4.2 step 1): a
//! segregated free-list allocator over the simulated PM pool, with
//!
//! * 64 persistent **root slots** — the well-known addresses from which
//!   applications find their datastructures across process lifetimes;
//! * **volatile reference counts** (§5.3) — never flushed, rebuilt on
//!   recovery from reachability;
//! * **recovery GC** — after a crash, the typed datastructure layer marks
//!   every reachable block ([`NvHeap::mark_block`]) and
//!   [`NvHeap::finish_recovery`] turns all unmarked space (including
//!   mid-FASE leaks) back into free space;
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
pub mod epoch;
pub mod heap;
pub mod layout;
pub mod read;
pub mod recovery;
mod table;
pub mod worker;

pub use annex::RootAnnex;
pub use epoch::{EpochRegistry, MAX_READERS, UNPINNED};
pub use heap::{AllocStats, NvHeap};
pub use layout::{class_size, volatile_class_size, HEADER_BYTES, HEAP_BASE, N_ROOTS, POOL_MAGIC};
pub use read::HeapRead;
pub use recovery::RecoveryReport;
pub use worker::{AllocDelta, StagedAllocEffects};
