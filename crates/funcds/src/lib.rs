//! # mod-funcds — purely functional PM datastructures
//!
//! The functional-datastructure layer the MOD paper converts into durable
//! datastructures (§4.2's recipe): every structure lives in the persistent
//! heap, every update is a *pure* path copy that flushes its freshly
//! written cachelines with unordered `clwb`s and returns a new version
//! handle, and structural sharing keeps per-update allocation tiny.
//! No fences are issued here — ordering is the commit layer's job
//! (`mod-core`), giving the paper's one-fence-per-FASE property.
//!
//! | Type | Substrate | Paper reference |
//! |------|-----------|-----------------|
//! | [`PmMap`]/[`PmSet`] | CHAMP trie | §4.2 (Steindorfer & Vinju) |
//! | [`PmVector`] | radix-balanced tree + tail¹ | §4.2 (Stucki et al., Puente) |
//! | [`PmStack`] | cons list | Fig 1 |
//! | [`PmQueue`] | two-list banker's queue | §6.4 |
//!
//! ¹ The regular case of an RRB tree: no relaxed (size-table) nodes,
//! which only concatenation and slicing create and this vector offers
//! neither, so lookups and updates index by pure radix arithmetic.
//!
//! The CHAMP trie needs no collision nodes: its key hash
//! ([`champ::key_hash`]) is a bijection on `u64`, so distinct keys part
//! ways within its 13 five-bit levels.
//!
//! Reclamation uses the heap's volatile reference counts (§5.3): handles
//! expose `release` (drop one version). Every stored layout is a
//! [`DsKind`] whose one child enumerator serves both that release and
//! recovery marking, through [`mod_alloc::NvHeap::walk`].
//!
//! ## Example
//!
//! ```
//! use mod_alloc::NvHeap;
//! use mod_funcds::PmMap;
//! use mod_pmem::{Pmem, PmemConfig};
//!
//! let mut heap = NvHeap::format(Pmem::new(PmemConfig::testing()));
//! let v1 = PmMap::empty(&mut heap);
//! let v2 = v1.insert(&mut heap, 7, b"seven");   // pure: v1 unchanged
//! assert_eq!(v2.get(&mut heap, 7), Some(b"seven".to_vec())); // charged
//! assert_eq!(v1.get(&heap, 7), None); // free peek
//! ```
//!
//! Every read accessor takes its read path as its heap argument:
//! `&mut NvHeap` charges the simulated cache and clock, `&NvHeap` peeks
//! for free (see [`mod_alloc::HeapRead`]).

#![warn(missing_docs)]

pub mod blob;
pub mod champ;
pub mod list;
pub mod node;
pub mod queue;
pub mod rrb;
pub mod set;

pub use champ::PmMap;
pub use list::PmStack;
pub use node::DsKind;
pub use queue::PmQueue;
pub use rrb::PmVector;
pub use set::PmSet;

// Send/Sync audit: version handles are plain `(PmPtr, …)` values — pool
// offsets, no interior mutability, no thread affinity — so they must be
// freely sendable/shareable for the concurrent front end (`mod-core`'s
// `SharedModHeap`) and its multi-threaded drivers. A compile error here
// means a handle type grew non-`Send` state (e.g. an `Rc` or a raw
// pointer), which would silently forbid sharded use.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PmMap>();
    assert_send_sync::<PmSet>();
    assert_send_sync::<PmVector>();
    assert_send_sync::<PmStack>();
    assert_send_sync::<PmQueue>();
};
