//! # mod-core — MOD: Minimally Ordered Durable datastructures
//!
//! The primary contribution of *"MOD: Minimally Ordered Durable
//! Datastructures for Persistent Memory"* (Haria, Hill, Swift — ASPLOS
//! 2020), reproduced in Rust over a simulated PM substrate.
//!
//! MOD makes failure-atomic, durable updates cheap by **minimizing
//! ordering points**: instead of logging and carefully ordered in-place
//! writes (PM-STM), every update is a *pure* out-of-place shadow built
//! from a functional datastructure, flushed with freely overlapping
//! `clwb`s, and published with **one `sfence` plus one atomic 8-byte
//! pointer store** (Fig 8).
//!
//! Two interfaces, as in the paper (Fig 6), both typed:
//!
//! * **Basic** ([`basic`]) — [`DurableMap<K, V>`], [`DurableSet<K>`],
//!   [`DurableVector<V>`], [`DurableStack<V>`], [`DurableQueue<V>`]:
//!   mutable-looking collections where each update is a self-contained
//!   FASE and each read is one accessor over a [`ReadCtx`] (`&ModHeap`,
//!   `&Fase`, `&SnapshotView` read for free; `&mut ModHeap` is the
//!   charged path). Keys and values are application types, bridged by
//!   the [`codec`] traits.
//! * **Composition** ([`ModHeap::fase`]) — one closure stages pure
//!   updates to any number of typed [`Root`]s; all of them publish
//!   together with exactly one ordering point.
//!
//! Recovery ([`ModHeap::open`]) is self-describing: typed roots live in a
//! persistent root directory that records each structure's [`RootKind`]
//! and [`PersistPolicy`], and a file pool's header records its journal
//! shards, so reopening a pool needs no caller-supplied slot specs,
//! policies or shapes. One internal module, `dir`, owns that directory:
//! its layout, the commit swings that publish through it, and which
//! version a root index names (a hybrid root's volatile index). It
//! garbage-collects mid-FASE leaks by reachability and rebuilds the
//! volatile reference counts (§5.2–5.3).
//!
//! ## Example: one FASE over two structures
//!
//! ```
//! use mod_core::ModHeap;
//! use mod_funcds::{PmMap, PmQueue};
//! use mod_pmem::{Pmem, PmemConfig};
//!
//! let mut heap = ModHeap::create(Pmem::new(PmemConfig::testing()));
//! let m0 = PmMap::empty(heap.nv_mut());
//! let q0 = PmQueue::empty(heap.nv_mut());
//! let map = heap.publish(m0);
//! let queue = heap.publish(q0);
//!
//! // FASE: move a work item into the map, atomically w.r.t. failure —
//! // one sfence, one pointer store, however many structures.
//! heap.fase(|tx| {
//!     tx.update(queue, |nv, q| q.enqueue(nv, 42));
//!     tx.update(map, |nv, m| m.insert(nv, 42, b"payload"));
//! });
//!
//! assert_eq!(heap.current(queue).peek(heap.nv()), Some(42));
//! assert_eq!(
//!     heap.current(map).get(heap.nv(), 42),
//!     Some(b"payload".to_vec())
//! );
//! ```
//!
//! There is one way to do each thing: roots are created and reopened
//! through [`ModHeap::root`]'s builder, updated through FASEs, and read
//! through a [`ReadCtx`].

#![warn(missing_docs)]

pub mod basic;
pub mod codec;
mod dir;
pub mod erased;
pub mod fase;
pub mod heap;
pub mod recovery;
pub mod root;
pub mod sched;
pub mod shared;
pub mod snapshot;
pub mod spine;

pub use basic::{
    DurableMap, DurableQueue, DurableRoot, DurableSet, DurableStack, DurableVector, OpenError,
    ReadCtx, RootBuilder,
};
pub use codec::{PmKey, PmValue, PmWord};
pub use dir::ROOT_DIR_SLOT;
pub use erased::{DurableDs, ErasedDs, RootKind};
pub use fase::Fase;
pub use heap::ModHeap;
pub use root::Root;
pub use sched::{SeededRoundRobin, Turn};
pub use shared::{
    CommitMode, CommitTicket, EngineError, HeapPoisoned, LaneContention, PipelineStats,
    SharedModHeap,
};
pub use snapshot::{DirSnapshot, SnapshotView};
pub use spine::PersistPolicy;
