//! The Basic interface (paper Fig 6a), typed: mutable-looking durable
//! collections whose every update is a self-contained FASE.
//!
//! Each wrapper is a thin, `Copy` view over one generic handle — a typed
//! [`Root`] plus its [`PersistPolicy`]. An update names its substrate op
//! once and stages it through that handle: a pure shadow update inside
//! one [`ModHeap::fase`] (one ordering point, old version handed to
//! deferred reclamation) under full persistence, the same op applied to
//! the volatile index plus a spine record under hybrid persistence.
//! Reads are one accessor per operation, generic over a [`ReadCtx`]:
//! `&ModHeap`, `&Fase` and `&SnapshotView` read for free with no
//! exclusive access; only `&mut ModHeap` charges the simulated cache and
//! clock.
//!
//! Keys and values are application types bridged onto the raw `u64`/bytes
//! substrate by the [`crate::codec`] traits, so callers no longer
//! hand-roll FNV hashing or length-prefix framing:
//!
//! ```
//! use mod_core::{DurableMap, ModHeap};
//! use mod_pmem::{Pmem, PmemConfig};
//!
//! let mut heap = ModHeap::create(Pmem::new(PmemConfig::testing()));
//! let map: DurableMap<String, Vec<u8>> = DurableMap::create(&mut heap);
//! map.insert(&mut heap, &"user:42".to_string(), &b"Ada".to_vec());
//! assert_eq!(map.get(&heap, &"user:42".to_string()), Some(b"Ada".to_vec()));
//! ```
//!
//! Every wrapper also composes into multi-structure FASEs through its
//! `*_in` methods, which stage the update on a [`Fase`] instead of
//! committing immediately; inside the closure, `map.get(&*tx, &key)`
//! reads the FASE's own writes.

use crate::codec::{
    codec_compatible, codec_word_elem, codec_word_fields, codec_word_kv, frames, push_frame,
    KeyRepr, PmKey, PmValue, PmWord,
};
use crate::erased::{DurableDs, ErasedDs, RootKind};
use crate::fase::Fase;
use crate::heap::ModHeap;
use crate::root::Root;
use crate::snapshot::SnapshotView;
use crate::spine::{self, PersistPolicy, SpineOp};
use mod_alloc::HeapRead;
use mod_funcds::{PmMap, PmQueue, PmStack, PmVector};
use mod_pmem::PmPtr;
use std::marker::PhantomData;

/// Why reattaching a typed wrapper to a directory index failed.
///
/// Returned by [`RootBuilder::open`] and [`RootBuilder::open_or_create`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpenError {
    /// No root was ever published at this directory index.
    NoSuchRoot {
        /// The requested directory index.
        index: usize,
        /// How many roots the directory holds.
        roots: usize,
    },
    /// The directory records a different datastructure kind (e.g. the
    /// index holds a queue, not a map).
    KindMismatch {
        /// The requested directory index.
        index: usize,
        /// The kind recorded in the directory.
        stored: RootKind,
        /// The kind the wrapper expected.
        expected: RootKind,
    },
    /// The directory records a different key/value codec discipline than
    /// the wrapper's type parameters — e.g. a `DurableMap<u64, Vec<u8>>`
    /// opened as `DurableMap<String, u64>`. Without this check the wrong
    /// decoder would run over well-formed bytes and return garbage.
    CodecMismatch {
        /// The requested directory index.
        index: usize,
        /// The codec tag word recorded in the directory.
        stored: u64,
        /// The codec tag word derived from the wrapper's type parameters.
        expected: u64,
    },
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::NoSuchRoot { index, roots } => {
                write!(
                    f,
                    "no root published at directory index {index} ({roots} roots exist)"
                )
            }
            OpenError::KindMismatch {
                index,
                stored,
                expected,
            } => write!(f, "root {index} holds a {stored:?}, not a {expected:?}"),
            OpenError::CodecMismatch {
                index,
                stored,
                expected,
            } => {
                let (_, sk, sv) = codec_word_fields(*stored);
                let (_, ek, ev) = codec_word_fields(*expected);
                write!(
                    f,
                    "root {index} was written with codec key/elem={sk} value={sv}, \
                     but was opened expecting key/elem={ek} value={ev}"
                )
            }
        }
    }
}

impl std::error::Error for OpenError {}

// ---------------------------------------------------------------------
// Read contexts
// ---------------------------------------------------------------------

/// Where a typed read runs. Every read accessor of the `Durable*`
/// wrappers (`get`, `contains_key`, `len`, `peek`, `to_vec`, …) takes
/// one of these, and the context — not the accessor's name — decides
/// which version is read and whether the read is charged:
///
/// | context | version read | simulated cost |
/// |---|---|---|
/// | `&mut ModHeap` | latest committed | **charged** (cache model, clock, `PmStats::reads`) |
/// | `&ModHeap` | latest committed | free (peek) |
/// | `&Fase` | this FASE's staged writes over the latest staged head (read-your-writes) | free (peek) |
/// | `&SnapshotView` | the view's pinned epoch | free (peek) |
///
/// Only the exclusive heap handle can charge: the charged path mutates
/// the cache and clock model. A hybrid root's index is DRAM state, so
/// even a charged read of it costs nothing.
pub trait ReadCtx {
    /// The version of full-persistence `root` this context sees.
    #[doc(hidden)]
    fn published<D: DurableDs>(&self, root: Root<D>) -> D;

    /// The volatile-index version of hybrid `root` this context sees.
    #[doc(hidden)]
    fn volatile<D: DurableDs>(&self, root: Root<D>) -> D;

    /// The heap read path of this context.
    #[doc(hidden)]
    fn heap_read(&mut self) -> HeapRead<'_>;
}

impl ReadCtx for &ModHeap {
    fn published<D: DurableDs>(&self, root: Root<D>) -> D {
        self.current(root)
    }

    fn volatile<D: DurableDs>(&self, root: Root<D>) -> D {
        let (kind, addr) = self
            .hybrid_head(root.index())
            .expect("hybrid root has no volatile head (pool not opened hybrid-aware?)");
        debug_assert_eq!(kind, D::KIND);
        D::from_root_ptr(PmPtr::from_addr(addr))
    }

    fn heap_read(&mut self) -> HeapRead<'_> {
        HeapRead::Peek(self.nv())
    }
}

impl ReadCtx for &mut ModHeap {
    fn published<D: DurableDs>(&self, root: Root<D>) -> D {
        (&**self).published(root)
    }

    fn volatile<D: DurableDs>(&self, root: Root<D>) -> D {
        (&**self).volatile(root)
    }

    fn heap_read(&mut self) -> HeapRead<'_> {
        HeapRead::Charged(self.nv_mut())
    }
}

impl ReadCtx for &Fase<'_> {
    fn published<D: DurableDs>(&self, root: Root<D>) -> D {
        self.current(root)
    }

    fn volatile<D: DurableDs>(&self, root: Root<D>) -> D {
        D::from_root_ptr(PmPtr::from_addr(self.hybrid_vhead(root.index())))
    }

    fn heap_read(&mut self) -> HeapRead<'_> {
        HeapRead::Peek(self.nv())
    }
}

// A published snapshot already holds a hybrid root's committed volatile
// head under its logical kind, so both policies resolve the same way.
impl ReadCtx for &SnapshotView<'_> {
    fn published<D: DurableDs>(&self, root: Root<D>) -> D {
        self.resolve(root.index())
    }

    fn volatile<D: DurableDs>(&self, root: Root<D>) -> D {
        self.resolve(root.index())
    }

    fn heap_read(&mut self) -> HeapRead<'_> {
        HeapRead::Peek(self.nv())
    }
}

/// Runs one substrate read of `$me`'s current version in `$ctx` through
/// the context's read path: the charged accessor on `&mut ModHeap`, its
/// `peek_*` twin everywhere else.
macro_rules! read {
    ($me:expr, $ctx:expr, $charged:ident | $peek:ident ( $($arg:expr),* )) => {{
        let cur = $me.h.cur(&$ctx);
        match $ctx.heap_read() {
            HeapRead::Charged(nv) => cur.$charged(nv $(, $arg)*),
            HeapRead::Peek(nv) => cur.$peek(nv $(, $arg)*),
        }
    }};
}

// ---------------------------------------------------------------------
// The one durable handle
// ---------------------------------------------------------------------

/// What all five typed wrappers are: a typed root plus the policy it was
/// created under. Everything that depends on the policy lives here, once
/// — creation, the checked open, which version a read context sees, and
/// the single staging entry point — so the wrappers below describe each
/// operation exactly once and never branch on the policy themselves.
#[derive(Clone, Copy)]
struct Handle<D: DurableDs> {
    root: Root<D>,
    policy: PersistPolicy,
}

impl<D: DurableDs> Handle<D> {
    /// Creates an empty structure under `policy` and publishes it as a
    /// new root with `codec` recorded in its directory entry. A hybrid
    /// root is an empty volatile index, a durable genesis snapshot
    /// record, and a directory entry of kind [`RootKind::Spine`] (the
    /// durable policy record).
    fn create(heap: &mut ModHeap, policy: PersistPolicy, codec: u64) -> Self {
        let root = match policy {
            PersistPolicy::Full => {
                let v0 = D::empty_version(heap.nv_mut());
                heap.publish_tagged(v0, codec)
            }
            PersistPolicy::Hybrid => {
                let nv = heap.nv_mut();
                nv.begin_volatile();
                let v0 = D::empty_version(nv).root_ptr().addr();
                nv.end_volatile();
                let genesis = spine::state_of(nv, D::KIND, v0);
                let rec = spine::store_record(nv, PmPtr::NULL, D::KIND, 0, &genesis);
                let spine_head = ErasedDs {
                    kind: RootKind::Spine,
                    root: rec,
                };
                let index = heap.publish_erased_tagged(spine_head, codec);
                heap.nv().annex().set(index, spine::pack_annex(D::KIND, v0));
                Root::new(index)
            }
        };
        Handle { root, policy }
    }

    /// Reattaches to the root at `index` under the policy its directory
    /// entry records (the entry's kind *is* the durable policy record —
    /// hybrid roots are stored as [`RootKind::Spine`]), then checks the
    /// kind and the codec against the persisted tag word.
    fn open(heap: &ModHeap, index: usize, codec: u64) -> Result<Self, OpenError> {
        let entry = crate::root::peek_entry(heap.nv(), index).ok_or(OpenError::NoSuchRoot {
            index,
            roots: heap.root_count(),
        })?;
        let (policy, stored_kind) = match entry.kind {
            RootKind::Spine => (
                PersistPolicy::Hybrid,
                spine::logical_kind(heap.nv(), entry.root),
            ),
            k => (PersistPolicy::Full, k),
        };
        if stored_kind != D::KIND {
            return Err(OpenError::KindMismatch {
                index,
                stored: stored_kind,
                expected: D::KIND,
            });
        }
        let stored = heap.root_codec_tag(index);
        if !codec_compatible(stored, codec) {
            return Err(OpenError::CodecMismatch {
                index,
                stored,
                expected: codec,
            });
        }
        Ok(Handle {
            root: Root::new(index),
            policy,
        })
    }

    /// The substrate version `ctx` reads: the published structure
    /// (full) or the volatile index (hybrid).
    fn cur<C: ReadCtx>(&self, ctx: &C) -> D {
        match self.policy {
            PersistPolicy::Full => ctx.published(self.root),
            PersistPolicy::Hybrid => ctx.volatile(self.root),
        }
    }

    /// The single staging entry point. `lower` sees the version the op
    /// chains from and names the substrate op that carries it out, or
    /// `None` when the typed op is a no-op (an absent hashed key);
    /// [`SpineOp::apply`] then defines the effect. Returns `Some(taken)`
    /// iff the structure changed — `taken` being the element a pop or
    /// dequeue removed. A no-op stages nothing under either policy: no
    /// shadow, no spine record, no ordering point.
    ///
    /// The policy picks where the op runs and how `lower` reads. Full:
    /// on the durable heap inside [`Fase::update_with`], reads charged —
    /// a FASE's pre-reads are PM loads. Hybrid: on the volatile index
    /// inside [`Fase::apply_hybrid`], reads peek — the index is DRAM —
    /// and the op itself is what gets persisted, as a spine record.
    fn stage(
        &self,
        tx: &mut Fase<'_>,
        lower: impl FnOnce(&mut HeapRead<'_>, D) -> Option<SpineOp>,
    ) -> Option<u64> {
        match self.policy {
            PersistPolicy::Full => tx.update_with(self.root, |nv, cur| {
                let applied = lower(&mut HeapRead::Charged(nv), cur)
                    .and_then(|op| op.apply(nv, D::KIND, cur.root_ptr().addr()));
                match applied {
                    Some((new, taken)) => (D::from_root_ptr(PmPtr::from_addr(new)), Some(taken)),
                    None => (cur, None),
                }
            }),
            PersistPolicy::Hybrid => tx.apply_hybrid(self.root.index(), D::KIND, |read, v| {
                lower(read, D::from_root_ptr(v))
            }),
        }
    }
}

/// Stamps out one typed wrapper over [`Handle`]: the struct, its
/// `Clone`/`Copy`/`Debug`, the constructors and accessors every wrapper
/// shares, and its [`DurableRoot`] impl. `codec` is the directory tag
/// word derived from the wrapper's type parameters.
macro_rules! durable_wrapper {
    (
        $(#[$doc:meta])*
        $name:ident<$($p:ident: $bound:ident),+> over $ds:ident, codec = $codec:expr
    ) => {
        $(#[$doc])*
        pub struct $name<$($p: $bound),+> {
            h: Handle<$ds>,
            _t: PhantomData<fn() -> ($($p,)+)>,
        }

        impl<$($p: $bound),+> Clone for $name<$($p),+> {
            fn clone(&self) -> Self {
                *self
            }
        }

        impl<$($p: $bound),+> Copy for $name<$($p),+> {}

        impl<$($p: $bound),+> std::fmt::Debug for $name<$($p),+> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({:?})"), self.h.root)
            }
        }

        impl<$($p: $bound),+> $name<$($p),+> {
            fn on(h: Handle<$ds>) -> Self {
                $name { h, _t: PhantomData }
            }

            /// Creates an empty structure (full persistence) and
            /// publishes it as a new typed root, with the codec
            /// discipline of the type parameters recorded in the
            /// directory entry. For hybrid persistence, or to reopen a
            /// root, go through [`ModHeap::root`].
            pub fn create(heap: &mut ModHeap) -> Self {
                Self::create_with(heap, PersistPolicy::Full)
            }

            /// Wraps an already-opened typed root (full persistence).
            pub fn from_root(root: Root<$ds>) -> Self {
                Self::on(Handle {
                    root,
                    policy: PersistPolicy::Full,
                })
            }

            /// The typed root this structure is published under.
            pub fn root(&self) -> Root<$ds> {
                self.h.root
            }

            /// The persistence policy this handle operates under.
            pub fn policy(&self) -> PersistPolicy {
                self.h.policy
            }

            /// Acquires this root's staging lane without staging an
            /// update (worker FASEs only; a no-op in single-owner
            /// FASEs). Read-modify-write sequences need this *before*
            /// their in-FASE read: plain reads are lock-free, so
            /// without the lane hold a concurrent same-root FASE could
            /// stage between the read and the dependent write, losing
            /// its update — and a read that must stay consistent with
            /// reads of *other* roots in the same FASE needs it too.
            /// Stages nothing: a FASE that only touches commits nothing
            /// and costs no ordering point.
            pub fn touch_in(&self, tx: &mut Fase<'_>) {
                tx.hold_lane(self.h.root.index());
            }
        }

        impl<$($p: $bound),+> DurableRoot for $name<$($p),+> {
            fn create_with(heap: &mut ModHeap, policy: PersistPolicy) -> Self {
                Self::on(Handle::create(heap, policy, $codec))
            }

            fn open_with(heap: &ModHeap, index: usize) -> Result<Self, OpenError> {
                Handle::open(heap, index, $codec).map(Self::on)
            }
        }
    };
}

// ---------------------------------------------------------------------
// Root builder (the one constructor API)
// ---------------------------------------------------------------------

/// A typed wrapper that can be created and reopened through
/// [`ModHeap::root`]'s builder: the five `Durable*` collections. The
/// policy is a create-time choice: the directory entry records it, and
/// a reopen reads it back.
pub trait DurableRoot: Sized {
    /// Creates the structure under `policy`, publishing it as a new root
    /// at the directory's next free index.
    fn create_with(heap: &mut ModHeap, policy: PersistPolicy) -> Self;

    /// Reattaches to the root at `index` under the policy its durable
    /// directory entry records, checking kind and codec against it.
    fn open_with(heap: &ModHeap, index: usize) -> Result<Self, OpenError>;
}

/// Builder for opening or creating a typed root at one directory index —
/// the one constructor path for all five `Durable*` wrappers:
///
/// ```
/// use mod_core::{DurableMap, ModHeap, PersistPolicy};
/// use mod_pmem::{Pmem, PmemConfig};
///
/// let mut heap = ModHeap::create(Pmem::new(PmemConfig::testing()));
/// let map: DurableMap<u64, Vec<u8>> = heap
///     .root(0)
///     .policy(PersistPolicy::Hybrid)
///     .open_or_create()
///     .unwrap();
/// map.insert(&mut heap, &7, &b"x".to_vec());
/// ```
#[derive(Debug)]
pub struct RootBuilder<'h, D: DurableRoot> {
    heap: &'h mut ModHeap,
    index: usize,
    policy: PersistPolicy,
    _d: PhantomData<fn() -> D>,
}

impl ModHeap {
    /// Starts opening or creating the typed root at directory `index`.
    /// A create defaults to [`PersistPolicy::Full`]; select hybrid
    /// persistence with [`RootBuilder::policy`]. An open needs no
    /// policy: it reads the one the root was created under.
    pub fn root<D: DurableRoot>(&mut self, index: usize) -> RootBuilder<'_, D> {
        RootBuilder {
            heap: self,
            index,
            policy: PersistPolicy::Full,
            _d: PhantomData,
        }
    }
}

impl<D: DurableRoot> RootBuilder<'_, D> {
    /// Selects the persistence policy a create records in the durable
    /// directory entry. It matters only when the builder creates: an
    /// open always takes the recorded policy.
    pub fn policy(mut self, policy: PersistPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Reattaches to the existing root at this index, under the policy
    /// it was created with ([`DurableMap::policy`] and its siblings
    /// report it).
    pub fn open(self) -> Result<D, OpenError> {
        D::open_with(self.heap, self.index)
    }

    /// Opens the root if the index exists (under its recorded policy),
    /// creates it under the builder's policy if the index is the
    /// directory's next free slot, and fails with
    /// [`OpenError::NoSuchRoot`] on a gap (a create there would land at
    /// a different index than the one named).
    pub fn open_or_create(self) -> Result<D, OpenError> {
        let count = self.heap.root_count();
        match self.index {
            i if i < count => D::open_with(self.heap, i),
            i if i == count => Ok(D::create_with(self.heap, self.policy)),
            i => Err(OpenError::NoSuchRoot {
                index: i,
                roots: count,
            }),
        }
    }

    /// Creates the root at this index, which must be the directory's
    /// next free slot.
    ///
    /// # Panics
    ///
    /// Panics if the index is not `heap.root_count()`.
    pub fn create(self) -> D {
        assert_eq!(
            self.index,
            self.heap.root_count(),
            "create must target the directory's next free index"
        );
        D::create_with(self.heap, self.policy)
    }
}

// ---------------------------------------------------------------------
// Map
// ---------------------------------------------------------------------

/// One substrate-key lookup through either read path.
fn raw_get(cur: PmMap, read: &mut HeapRead<'_>, key: u64) -> Option<Vec<u8>> {
    match read {
        HeapRead::Charged(nv) => cur.get(nv, key),
        HeapRead::Peek(nv) => cur.peek_get(nv, key),
    }
}

/// A hashed key's bucket blob rebuilt without `key`'s frame and, when
/// `value` is given, with a fresh `(key, value)` frame in front. Every
/// colliding key other than ours is preserved.
fn rebucket(old: Option<&[u8]>, key: &[u8], value: Option<&[u8]>) -> Vec<u8> {
    let fresh = value.map_or(0, |v| 8 + key.len() + v.len());
    let mut bucket = Vec::with_capacity(old.map_or(0, <[u8]>::len) + fresh);
    if let Some(value) = value {
        push_frame(&mut bucket, key, value);
    }
    for (k, v) in frames(old.unwrap_or_default()) {
        if k != key {
            push_frame(&mut bucket, k, v);
        }
    }
    bucket
}

durable_wrapper! {
    /// A durable map with logically in-place updates (Basic interface).
    ///
    /// `K` selects the key encoding (exact integers or hashed-and-verified
    /// byte keys) and `V` the value encoding; see [`crate::codec`].
    /// Reopening checks both against the persistent directory entry:
    /// opening a `DurableMap<u64, Vec<u8>>` root as
    /// `DurableMap<String, u64>` fails instead of decoding garbage.
    DurableMap<K: PmKey, V: PmValue> over PmMap, codec = codec_word_kv(K::CODEC, V::CODEC)
}

impl<K: PmKey, V: PmValue> DurableMap<K, V> {
    /// Failure-atomically inserts or updates `key` (one FASE).
    pub fn insert(&self, heap: &mut ModHeap, key: &K, value: &V) {
        heap.fase(|tx| self.insert_in(tx, key, value));
    }

    /// Stages an insert on an in-progress FASE.
    pub fn insert_in(&self, tx: &mut Fase<'_>, key: &K, value: &V) {
        let (repr, value) = (key.repr(), value.value_bytes());
        self.h.stage(tx, |read, cur| {
            Some(match repr {
                KeyRepr::Exact(key) => SpineOp::MapInsert { key, val: value },
                KeyRepr::Hashed { hash, bytes } => {
                    let old = raw_get(cur, read, hash);
                    SpineOp::MapInsert {
                        key: hash,
                        val: rebucket(old.as_deref(), &bytes, Some(&value)),
                    }
                }
            })
        });
    }

    /// Failure-atomically removes `key` (one FASE); returns whether it
    /// was present. An absent key is a no-op FASE: no ordering point.
    pub fn remove(&self, heap: &mut ModHeap, key: &K) -> bool {
        heap.fase(|tx| self.remove_in(tx, key))
    }

    /// Stages a removal on an in-progress FASE.
    pub fn remove_in(&self, tx: &mut Fase<'_>, key: &K) -> bool {
        let repr = key.repr();
        let staged = self.h.stage(tx, |read, cur| match repr {
            KeyRepr::Exact(key) => Some(SpineOp::MapRemove { key }),
            KeyRepr::Hashed { hash, bytes } => {
                let old = raw_get(cur, read, hash)?;
                if !frames(&old).any(|(k, _)| k == bytes) {
                    return None;
                }
                let rest = rebucket(Some(&old), &bytes, None);
                // Draining the bucket removes the substrate entry.
                Some(if rest.is_empty() {
                    SpineOp::MapRemove { key: hash }
                } else {
                    SpineOp::MapInsert {
                        key: hash,
                        val: rest,
                    }
                })
            }
        });
        staged.is_some()
    }

    /// Looks up `key` in `ctx` (see [`ReadCtx`] for what each context
    /// reads and costs): exact keys read the value directly; hashed
    /// keys scan the bucket's frames for the matching key bytes.
    pub fn get<C: ReadCtx>(&self, mut ctx: C, key: &K) -> Option<V> {
        let cur = self.h.cur(&ctx);
        let read = &mut ctx.heap_read();
        match key.repr() {
            KeyRepr::Exact(w) => raw_get(cur, read, w).map(|b| V::from_value_bytes(&b)),
            KeyRepr::Hashed { hash, bytes } => {
                let bucket = raw_get(cur, read, hash)?;
                let (_, v) = frames(&bucket).find(|(k, _)| *k == bytes)?;
                Some(V::from_value_bytes(v))
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains_key<C: ReadCtx>(&self, mut ctx: C, key: &K) -> bool {
        match key.repr() {
            KeyRepr::Exact(w) => {
                read!(self, ctx, contains_key | peek_contains_key(w))
            }
            KeyRepr::Hashed { .. } => self.get(ctx, key).is_some(),
        }
    }

    /// Number of entries. `O(1)` for exact keys; for hashed keys this
    /// scans the buckets (`O(n)`) because a rare 64-bit hash collision
    /// packs two entries into one substrate slot.
    pub fn len<C: ReadCtx>(&self, mut ctx: C) -> u64 {
        if K::EXACT {
            return read!(self, ctx, len | peek_len());
        }
        read!(self, ctx, to_vec | peek_to_vec())
            .iter()
            .map(|(_, bucket)| frames(bucket).count() as u64)
            .sum()
    }

    /// Whether the map is empty. `O(1)`.
    pub fn is_empty<C: ReadCtx>(&self, mut ctx: C) -> bool {
        read!(self, ctx, is_empty | peek_is_empty())
    }
}

// ---------------------------------------------------------------------
// Set
// ---------------------------------------------------------------------

durable_wrapper! {
    /// A durable set with logically in-place updates (Basic interface).
    ///
    /// A [`DurableMap`] with unit values under another name, which makes
    /// hashed (byte) keys collision-correct; membership costs no value
    /// blobs.
    DurableSet<K: PmKey> over PmMap, codec = codec_word_kv(K::CODEC, <() as PmValue>::CODEC)
}

impl<K: PmKey> DurableSet<K> {
    fn map(&self) -> DurableMap<K, ()> {
        DurableMap::on(self.h)
    }

    /// Failure-atomically inserts `key`; returns whether it was new. A
    /// duplicate insert is a no-op FASE: no shadow, no ordering point.
    pub fn insert(&self, heap: &mut ModHeap, key: &K) -> bool {
        heap.fase(|tx| self.insert_in(tx, key))
    }

    /// Stages an insert on an in-progress FASE; returns whether new.
    pub fn insert_in(&self, tx: &mut Fase<'_>, key: &K) -> bool {
        if self.contains(&*tx, key) {
            return false;
        }
        self.map().insert_in(tx, key, &());
        true
    }

    /// Membership test.
    pub fn contains<C: ReadCtx>(&self, ctx: C, key: &K) -> bool {
        self.map().contains_key(ctx, key)
    }

    /// Failure-atomically removes `key`; returns whether it was present.
    pub fn remove(&self, heap: &mut ModHeap, key: &K) -> bool {
        self.map().remove(heap, key)
    }

    /// Stages a removal on an in-progress FASE.
    pub fn remove_in(&self, tx: &mut Fase<'_>, key: &K) -> bool {
        self.map().remove_in(tx, key)
    }

    /// Number of elements (`O(n)` for hashed keys, like the map).
    pub fn len<C: ReadCtx>(&self, ctx: C) -> u64 {
        self.map().len(ctx)
    }

    /// Whether the set is empty.
    pub fn is_empty<C: ReadCtx>(&self, ctx: C) -> bool {
        self.map().is_empty(ctx)
    }
}

// ---------------------------------------------------------------------
// Vector
// ---------------------------------------------------------------------

durable_wrapper! {
    /// A durable vector with logically in-place updates (Basic interface).
    DurableVector<V: PmWord> over PmVector, codec = codec_word_elem(V::CODEC)
}

impl<V: PmWord> DurableVector<V> {
    /// Creates a vector pre-filled from `elems`, published as a new root.
    pub fn create_from(heap: &mut ModHeap, elems: &[V]) -> Self {
        let words: Vec<u64> = elems.iter().map(PmWord::to_word).collect();
        let v0 = PmVector::from_slice(heap.nv_mut(), &words);
        Self::from_root(heap.publish_tagged(v0, codec_word_elem(V::CODEC)))
    }

    /// Failure-atomically appends `elem` (one FASE).
    pub fn push_back(&self, heap: &mut ModHeap, elem: &V) {
        heap.fase(|tx| self.push_back_in(tx, elem));
    }

    /// Stages an append on an in-progress FASE.
    pub fn push_back_in(&self, tx: &mut Fase<'_>, elem: &V) {
        let w = elem.to_word();
        self.h.stage(tx, |_, _| Some(SpineOp::VecPush(w)));
    }

    /// Failure-atomically writes `elem` at `index` (one FASE).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn update(&self, heap: &mut ModHeap, index: u64, elem: &V) {
        heap.fase(|tx| self.update_in(tx, index, elem));
    }

    /// Stages a point write on an in-progress FASE.
    pub fn update_in(&self, tx: &mut Fase<'_>, index: u64, elem: &V) {
        let elem = elem.to_word();
        self.h
            .stage(tx, |_, _| Some(SpineOp::VecSet { index, elem }));
    }

    /// Failure-atomically removes and returns the last element (no-op
    /// FASE when empty).
    pub fn pop_back(&self, heap: &mut ModHeap) -> Option<V> {
        heap.fase(|tx| self.pop_back_in(tx))
    }

    /// Stages a pop on an in-progress FASE.
    pub fn pop_back_in(&self, tx: &mut Fase<'_>) -> Option<V> {
        self.h
            .stage(tx, |_, _| Some(SpineOp::VecPop))
            .map(V::from_word)
    }

    /// Failure-atomically swaps elements `i` and `j` — the vec-swap FASE
    /// of Fig 7b: two chained pure updates, one ordering point.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn swap(&self, heap: &mut ModHeap, i: u64, j: u64) {
        heap.fase(|tx| self.swap_in(tx, i, j));
    }

    /// Stages a swap on an in-progress FASE.
    pub fn swap_in(&self, tx: &mut Fase<'_>, i: u64, j: u64) {
        if i == j {
            return;
        }
        // Read-modify-write: own the lane before reading.
        self.touch_in(tx);
        let (vi, vj) = (self.get(&*tx, i), self.get(&*tx, j));
        self.update_in(tx, i, &vj);
        self.update_in(tx, j, &vi);
    }

    /// Element at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn get<C: ReadCtx>(&self, mut ctx: C, index: u64) -> V {
        V::from_word(read!(self, ctx, get | peek_get(index)))
    }

    /// Number of elements.
    pub fn len<C: ReadCtx>(&self, mut ctx: C) -> u64 {
        read!(self, ctx, len | peek_len())
    }

    /// Whether the vector is empty.
    pub fn is_empty<C: ReadCtx>(&self, ctx: C) -> bool {
        self.len(ctx) == 0
    }

    /// Collects all elements in order.
    pub fn to_vec<C: ReadCtx>(&self, mut ctx: C) -> Vec<V> {
        let words = read!(self, ctx, to_vec | peek_to_vec());
        words.into_iter().map(V::from_word).collect()
    }
}

// ---------------------------------------------------------------------
// Stack
// ---------------------------------------------------------------------

durable_wrapper! {
    /// A durable stack with logically in-place updates (Basic interface).
    DurableStack<V: PmWord> over PmStack, codec = codec_word_elem(V::CODEC)
}

impl<V: PmWord> DurableStack<V> {
    /// Failure-atomically pushes `elem` (one FASE).
    pub fn push(&self, heap: &mut ModHeap, elem: &V) {
        heap.fase(|tx| self.push_in(tx, elem));
    }

    /// Stages a push on an in-progress FASE.
    pub fn push_in(&self, tx: &mut Fase<'_>, elem: &V) {
        let w = elem.to_word();
        self.h.stage(tx, |_, _| Some(SpineOp::StackPush(w)));
    }

    /// Failure-atomically pops the top element (no-op FASE when empty).
    pub fn pop(&self, heap: &mut ModHeap) -> Option<V> {
        heap.fase(|tx| self.pop_in(tx))
    }

    /// Stages a pop on an in-progress FASE.
    pub fn pop_in(&self, tx: &mut Fase<'_>) -> Option<V> {
        self.h
            .stage(tx, |_, _| Some(SpineOp::StackPop))
            .map(V::from_word)
    }

    /// Top element.
    pub fn peek<C: ReadCtx>(&self, mut ctx: C) -> Option<V> {
        read!(self, ctx, peek | peek_top()).map(V::from_word)
    }

    /// Number of elements.
    pub fn len<C: ReadCtx>(&self, mut ctx: C) -> u64 {
        read!(self, ctx, len | peek_len())
    }

    /// Whether the stack is empty.
    pub fn is_empty<C: ReadCtx>(&self, ctx: C) -> bool {
        self.len(ctx) == 0
    }
}

// ---------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------

durable_wrapper! {
    /// A durable FIFO queue with logically in-place updates (Basic
    /// interface).
    DurableQueue<V: PmWord> over PmQueue, codec = codec_word_elem(V::CODEC)
}

impl<V: PmWord> DurableQueue<V> {
    /// Failure-atomically enqueues `elem` (one FASE).
    pub fn enqueue(&self, heap: &mut ModHeap, elem: &V) {
        heap.fase(|tx| self.enqueue_in(tx, elem));
    }

    /// Stages an enqueue on an in-progress FASE.
    pub fn enqueue_in(&self, tx: &mut Fase<'_>, elem: &V) {
        let w = elem.to_word();
        self.h.stage(tx, |_, _| Some(SpineOp::QueueEnq(w)));
    }

    /// Failure-atomically dequeues the head (no-op FASE when empty).
    pub fn dequeue(&self, heap: &mut ModHeap) -> Option<V> {
        heap.fase(|tx| self.dequeue_in(tx))
    }

    /// Stages a dequeue on an in-progress FASE.
    pub fn dequeue_in(&self, tx: &mut Fase<'_>) -> Option<V> {
        self.h
            .stage(tx, |_, _| Some(SpineOp::QueueDeq))
            .map(V::from_word)
    }

    /// Head element.
    pub fn peek<C: ReadCtx>(&self, mut ctx: C) -> Option<V> {
        read!(self, ctx, peek | peek_front()).map(V::from_word)
    }

    /// Number of elements.
    pub fn len<C: ReadCtx>(&self, mut ctx: C) -> u64 {
        read!(self, ctx, len | peek_len())
    }

    /// Whether the queue is empty.
    pub fn is_empty<C: ReadCtx>(&self, ctx: C) -> bool {
        self.len(ctx) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mod_pmem::{CrashPolicy, Pmem, PmemConfig};

    fn mh() -> ModHeap {
        ModHeap::create(Pmem::new(PmemConfig::testing()))
    }

    /// A key type whose every value hashes to the same bucket, forcing
    /// the collision branches of the bucket framing.
    struct Colliding(&'static str);

    impl PmKey for Colliding {
        const EXACT: bool = false;

        fn repr(&self) -> KeyRepr {
            KeyRepr::Hashed {
                hash: 42,
                bytes: self.0.as_bytes().to_vec(),
            }
        }
    }

    #[test]
    fn colliding_hashed_keys_stay_distinct() {
        let mut h = mh();
        let map: DurableMap<Colliding, String> = DurableMap::create(&mut h);
        map.insert(&mut h, &Colliding("alpha"), &"a1".to_string());
        map.insert(&mut h, &Colliding("beta"), &"b1".to_string());
        map.insert(&mut h, &Colliding("gamma"), &"c1".to_string());
        assert_eq!(map.len(&h), 3, "three frames share one bucket");
        assert_eq!(map.get(&h, &Colliding("alpha")).as_deref(), Some("a1"));
        assert_eq!(map.get(&h, &Colliding("beta")).as_deref(), Some("b1"));
        assert_eq!(map.get(&h, &Colliding("gamma")).as_deref(), Some("c1"));
        assert_eq!(map.get(&h, &Colliding("delta")), None);

        // Overwriting one colliding key must preserve its siblings.
        map.insert(&mut h, &Colliding("beta"), &"b2".to_string());
        assert_eq!(map.len(&h), 3);
        assert_eq!(map.get(&h, &Colliding("alpha")).as_deref(), Some("a1"));
        assert_eq!(map.get(&h, &Colliding("beta")).as_deref(), Some("b2"));
        assert_eq!(map.get(&h, &Colliding("gamma")).as_deref(), Some("c1"));

        // Removing one colliding key re-packs the bucket without the rest.
        assert!(map.remove(&mut h, &Colliding("alpha")));
        assert!(!map.remove(&mut h, &Colliding("alpha")));
        assert_eq!(map.len(&h), 2);
        assert_eq!(map.get(&h, &Colliding("alpha")), None);
        assert_eq!(map.get(&h, &Colliding("beta")).as_deref(), Some("b2"));

        // Draining the bucket removes the substrate entry entirely.
        assert!(map.remove(&mut h, &Colliding("beta")));
        assert!(map.remove(&mut h, &Colliding("gamma")));
        assert_eq!(map.len(&h), 0);
        assert!(map.is_empty(&h));

        // The bucket slot is reusable afterwards.
        map.insert(&mut h, &Colliding("omega"), &"o1".to_string());
        assert_eq!(map.get(&h, &Colliding("omega")).as_deref(), Some("o1"));
    }

    #[test]
    fn colliding_set_members_stay_distinct() {
        let mut h = mh();
        let set: DurableSet<Colliding> = DurableSet::create(&mut h);
        assert!(set.insert(&mut h, &Colliding("x")));
        assert!(set.insert(&mut h, &Colliding("y")));
        assert!(!set.insert(&mut h, &Colliding("x")), "duplicate");
        assert_eq!(set.len(&h), 2);
        assert!(set.contains(&h, &Colliding("x")));
        assert!(set.contains(&h, &Colliding("y")));
        assert!(!set.contains(&h, &Colliding("z")));
        assert!(set.remove(&mut h, &Colliding("x")));
        assert!(!set.contains(&h, &Colliding("x")));
        assert!(set.contains(&h, &Colliding("y")), "sibling survives");
    }

    #[test]
    fn open_rejects_codec_mismatch_with_typed_error() {
        let mut h = mh();
        let map: DurableMap<u64, Vec<u8>> = DurableMap::create(&mut h);
        map.insert(&mut h, &7, &vec![1, 2, 3]);
        h.quiesce();
        let img = h.into_pm().crash_image(CrashPolicy::OnlyFenced);
        let (mut h2, _) = ModHeap::open(img);
        // Correct types reopen fine.
        assert!(h2.root::<DurableMap<u64, Vec<u8>>>(0).open().is_ok());
        // Wrong key AND value codecs: typed error, not garbage.
        let err = h2.root::<DurableMap<String, u64>>(0).open().unwrap_err();
        assert!(matches!(err, OpenError::CodecMismatch { index: 0, .. }));
        assert!(err.to_string().contains("codec"));
        // Wrong value codec alone is also caught.
        assert!(matches!(
            h2.root::<DurableMap<u64, String>>(0).open(),
            Err(OpenError::CodecMismatch { .. })
        ));
        // Wrong kind reports KindMismatch before codec.
        assert!(matches!(
            h2.root::<DurableQueue<u64>>(0).open(),
            Err(OpenError::KindMismatch { .. })
        ));
        // Unpublished index reports NoSuchRoot.
        assert!(matches!(
            h2.root::<DurableMap<u64, Vec<u8>>>(9).open(),
            Err(OpenError::NoSuchRoot { index: 9, roots: 1 })
        ));
    }

    #[test]
    fn untagged_custom_codecs_stay_compatible() {
        // `Colliding` keeps the default CODEC = 0: nothing is recorded
        // for the key field, so reopening with any key type whose codec
        // could plausibly match is accepted (the historical behavior).
        let mut h = mh();
        let map: DurableMap<Colliding, String> = DurableMap::create(&mut h);
        map.insert(&mut h, &Colliding("a"), &"v".to_string());
        assert!(h.root::<DurableMap<Colliding, String>>(0).open().is_ok());
        assert!(h.root::<DurableMap<String, String>>(0).open().is_ok());
        // But a recorded *value* codec still protects against mismatch.
        assert!(matches!(
            h.root::<DurableMap<Colliding, u64>>(0).open(),
            Err(OpenError::CodecMismatch { .. })
        ));
    }

    #[test]
    fn elem_codec_mismatch_rejected_across_restart() {
        let mut h = mh();
        let q: DurableQueue<u64> = DurableQueue::create(&mut h);
        q.enqueue(&mut h, &5);
        h.quiesce();
        let img = h.into_pm().crash_image(CrashPolicy::OnlyFenced);
        let (mut h2, _) = ModHeap::open(img);
        assert!(h2.root::<DurableQueue<u64>>(0).open().is_ok());
        assert!(matches!(
            h2.root::<DurableQueue<i32>>(0).open(),
            Err(OpenError::CodecMismatch { .. })
        ));
    }

    #[test]
    fn typed_wrappers_roundtrip_and_survive_restart() {
        let mut h = mh();
        let map: DurableMap<String, u32> = DurableMap::create(&mut h);
        let vec: DurableVector<i64> = DurableVector::create_from(&mut h, &[-3, 0, 7]);
        let stack: DurableStack<u64> = DurableStack::create(&mut h);
        let queue: DurableQueue<u32> = DurableQueue::create(&mut h);
        map.insert(&mut h, &"k".to_string(), &9);
        stack.push(&mut h, &5);
        queue.enqueue(&mut h, &6);
        vec.update(&mut h, 1, &100);
        h.quiesce();
        let img = h.into_pm().crash_image(CrashPolicy::OnlyFenced);
        let (mut h2, _) = ModHeap::open(img);
        let map: DurableMap<String, u32> = h2.root(0).open().unwrap();
        let vec: DurableVector<i64> = h2.root(1).open().unwrap();
        let stack: DurableStack<u64> = h2.root(2).open().unwrap();
        let queue: DurableQueue<u32> = h2.root(3).open().unwrap();
        assert_eq!(map.get(&h2, &"k".to_string()), Some(9));
        assert_eq!(vec.to_vec(&h2), vec![-3, 100, 7]);
        assert_eq!(stack.peek(&h2), Some(5));
        assert_eq!(queue.peek(&h2), Some(6));
    }
}
