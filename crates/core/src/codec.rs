//! Key/value encodings for the typed Basic-interface wrappers.
//!
//! The raw MOD substrate stores `u64` keys, byte-blob values and `u64`
//! elements. Applications used to hand-roll the bridge (FNV-hash the
//! string key, length-prefix it into the value, verify on lookup — see
//! the old `examples/kvstore.rs`). These traits capture that bridge once:
//!
//! * [`PmKey`] — map/set keys. Types injective into `u64` (integers) are
//!   *exact*: the word is the map key, values are stored raw. Other types
//!   (strings, byte vectors) are *hashed*: a 64-bit FNV-1a of the key
//!   bytes selects the map slot, and the key bytes are framed into the
//!   stored blob so lookups verify them — hash collisions degrade to a
//!   short in-bucket scan instead of silently returning the wrong value.
//! * [`PmValue`] — map values, encoded to/from bytes.
//! * [`PmWord`] — vector/stack/queue elements, encoded to/from one word.

/// How a key type maps onto the raw `u64`-keyed substrate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyRepr {
    /// The key *is* this word (injective): no framing, no collisions.
    Exact(u64),
    /// The key hashes to this word; `bytes` are framed into the bucket
    /// blob for verification.
    Hashed {
        /// The 64-bit bucket selector.
        hash: u64,
        /// The encoded key, stored alongside each value for verification.
        bytes: Vec<u8>,
    },
}

impl KeyRepr {
    /// The `u64` the raw map is keyed by.
    pub fn word(&self) -> u64 {
        match self {
            KeyRepr::Exact(w) => *w,
            KeyRepr::Hashed { hash, .. } => *hash,
        }
    }
}

/// 64-bit FNV-1a, the default hash for byte-keyed maps: the one body
/// in the workspace, shared with the journal's record checksum.
pub use mod_pmem::journal::fnv1a64 as fnv1a_64;

/// A type usable as a [`crate::DurableMap`]/[`crate::DurableSet`] key.
pub trait PmKey {
    /// Whether this key type is injective into `u64` ([`KeyRepr::Exact`]
    /// for every value). Exact-key maps store values unframed and count
    /// entries in `O(1)`.
    const EXACT: bool;

    /// Stable codec identifier persisted in the root directory so
    /// reopening a structure with a different key encoding is rejected
    /// ([`crate::basic::OpenError::CodecMismatch`]). `0` means "no codec
    /// recorded": custom key types that keep the default are accepted
    /// against anything (and record nothing), preserving compatibility.
    const CODEC: u8 = 0;

    /// The key's representation on the `u64`-keyed substrate.
    fn repr(&self) -> KeyRepr;
}

macro_rules! exact_key {
    ($($ty:ty => $tag:expr),*) => {$(
        impl PmKey for $ty {
            const EXACT: bool = true;
            const CODEC: u8 = $tag;

            fn repr(&self) -> KeyRepr {
                KeyRepr::Exact(*self as u64)
            }
        }
    )*};
}

exact_key!(
    u64 => 1, u32 => 2, u16 => 3, u8 => 4, usize => 5,
    i64 => 6, i32 => 7, i16 => 8, i8 => 9, isize => 10,
    bool => 11, char => 12
);

/// Codec id shared by all byte-string keys (`String`, `str`, `Vec<u8>`,
/// `[u8]`, `[u8; N]`): they are interchangeable on the substrate (same
/// FNV-1a hash of the same bytes, same frame layout), so they share one
/// id and a pool written with `String` keys reopens fine with `&[u8]`.
pub const BYTES_KEY_CODEC: u8 = 13;

impl PmKey for String {
    const EXACT: bool = false;
    const CODEC: u8 = BYTES_KEY_CODEC;

    fn repr(&self) -> KeyRepr {
        KeyRepr::Hashed {
            hash: fnv1a_64(self.as_bytes()),
            bytes: self.as_bytes().to_vec(),
        }
    }
}

impl PmKey for str {
    const EXACT: bool = false;
    const CODEC: u8 = BYTES_KEY_CODEC;

    fn repr(&self) -> KeyRepr {
        KeyRepr::Hashed {
            hash: fnv1a_64(self.as_bytes()),
            bytes: self.as_bytes().to_vec(),
        }
    }
}

impl PmKey for Vec<u8> {
    const EXACT: bool = false;
    const CODEC: u8 = BYTES_KEY_CODEC;

    fn repr(&self) -> KeyRepr {
        KeyRepr::Hashed {
            hash: fnv1a_64(self),
            bytes: self.clone(),
        }
    }
}

impl PmKey for [u8] {
    const EXACT: bool = false;
    const CODEC: u8 = BYTES_KEY_CODEC;

    fn repr(&self) -> KeyRepr {
        KeyRepr::Hashed {
            hash: fnv1a_64(self),
            bytes: self.to_vec(),
        }
    }
}

impl<const N: usize> PmKey for [u8; N] {
    const EXACT: bool = false;
    const CODEC: u8 = BYTES_KEY_CODEC;

    fn repr(&self) -> KeyRepr {
        KeyRepr::Hashed {
            hash: fnv1a_64(self),
            bytes: self.to_vec(),
        }
    }
}

impl<K: PmKey + ?Sized> PmKey for &K {
    const EXACT: bool = K::EXACT;
    const CODEC: u8 = K::CODEC;

    fn repr(&self) -> KeyRepr {
        (**self).repr()
    }
}

/// A type usable as a [`crate::DurableMap`] value.
pub trait PmValue: Sized {
    /// Stable codec identifier persisted in the root directory (see
    /// [`PmKey::CODEC`]); `0` means "no codec recorded".
    const CODEC: u8 = 0;

    /// Encodes the value to bytes.
    fn value_bytes(&self) -> Vec<u8>;

    /// Decodes a value from its bytes.
    ///
    /// # Panics
    ///
    /// Implementations may panic on malformed input — stored bytes always
    /// come from [`PmValue::value_bytes`], so malformed input means heap
    /// corruption or a type confusion bug.
    fn from_value_bytes(bytes: &[u8]) -> Self;
}

impl PmValue for Vec<u8> {
    const CODEC: u8 = 1;

    fn value_bytes(&self) -> Vec<u8> {
        self.clone()
    }

    fn from_value_bytes(bytes: &[u8]) -> Self {
        bytes.to_vec()
    }
}

impl PmValue for String {
    const CODEC: u8 = 2;

    fn value_bytes(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }

    fn from_value_bytes(bytes: &[u8]) -> Self {
        String::from_utf8(bytes.to_vec()).expect("corrupt UTF-8 value")
    }
}

impl PmValue for () {
    const CODEC: u8 = 3;

    fn value_bytes(&self) -> Vec<u8> {
        Vec::new()
    }

    fn from_value_bytes(_: &[u8]) -> Self {}
}

macro_rules! int_value {
    ($($ty:ty => $tag:expr),*) => {$(
        impl PmValue for $ty {
            const CODEC: u8 = $tag;

            fn value_bytes(&self) -> Vec<u8> {
                self.to_le_bytes().to_vec()
            }

            fn from_value_bytes(bytes: &[u8]) -> Self {
                <$ty>::from_le_bytes(bytes.try_into().expect("corrupt integer value"))
            }
        }
    )*};
}

int_value!(u64 => 4, u32 => 5, u16 => 6, i64 => 7, i32 => 8, i16 => 9);

impl<const N: usize> PmValue for [u8; N] {
    const CODEC: u8 = 10;

    fn value_bytes(&self) -> Vec<u8> {
        self.to_vec()
    }

    fn from_value_bytes(bytes: &[u8]) -> Self {
        bytes.try_into().expect("corrupt fixed-size value")
    }
}

/// A type usable as a [`crate::DurableVector`]/[`crate::DurableStack`]/
/// [`crate::DurableQueue`] element (one 8-byte word on the substrate).
pub trait PmWord: Sized {
    /// Stable codec identifier persisted in the root directory (see
    /// [`PmKey::CODEC`]); `0` means "no codec recorded".
    const CODEC: u8 = 0;

    /// Encodes the element as a word.
    fn to_word(&self) -> u64;

    /// Decodes an element from its word.
    fn from_word(w: u64) -> Self;
}

macro_rules! word_elem {
    ($($ty:ty => $tag:expr),*) => {$(
        impl PmWord for $ty {
            const CODEC: u8 = $tag;

            fn to_word(&self) -> u64 {
                *self as u64
            }

            fn from_word(w: u64) -> Self {
                w as $ty
            }
        }
    )*};
}

word_elem!(u64 => 1, u32 => 2, u16 => 3, u8 => 4, usize => 5);

impl PmWord for i64 {
    const CODEC: u8 = 6;

    fn to_word(&self) -> u64 {
        *self as u64
    }

    fn from_word(w: u64) -> Self {
        w as i64
    }
}

impl PmWord for i32 {
    const CODEC: u8 = 7;

    fn to_word(&self) -> u64 {
        *self as i64 as u64
    }

    fn from_word(w: u64) -> Self {
        w as i64 as i32
    }
}

impl PmWord for bool {
    const CODEC: u8 = 8;

    fn to_word(&self) -> u64 {
        *self as u64
    }

    fn from_word(w: u64) -> Self {
        w != 0
    }
}

// ---------------------------------------------------------------------
// Directory codec tags
// ---------------------------------------------------------------------
//
// The root directory stores one tag word per entry recording the codec
// discipline the structure was written with, so `DurableMap::<K, V>::open`
// can reject a K/V mismatch the way `open_root` rejects a `RootKind`
// mismatch. Word layout (LE):
//
//     bit 0       "tagged" marker (0 = no codec recorded)
//     bits 8..16  key/element codec id
//     bits 16..24 value codec id (maps/sets only)

/// The directory tag word for a map/set written with key codec `key` and
/// value codec `value` (each a `PmKey::CODEC`/`PmValue::CODEC` id).
pub const fn codec_word_kv(key: u8, value: u8) -> u64 {
    1 | ((key as u64) << 8) | ((value as u64) << 16)
}

/// The directory tag word for a vector/stack/queue written with element
/// codec `elem` (a `PmWord::CODEC` id).
pub const fn codec_word_elem(elem: u8) -> u64 {
    1 | ((elem as u64) << 8)
}

/// Splits a tag word into `(tagged, key_or_elem, value)` fields.
pub const fn codec_word_fields(word: u64) -> (bool, u8, u8) {
    (word & 1 == 1, (word >> 8) as u8, (word >> 16) as u8)
}

/// Whether a structure written under `stored` may be opened as
/// `expected`. Untagged words (either side) accept anything, as does a
/// field whose id is 0 on either side (a custom codec that records
/// nothing); otherwise every recorded field must match.
pub fn codec_compatible(stored: u64, expected: u64) -> bool {
    let (s_tagged, s_key, s_val) = codec_word_fields(stored);
    let (e_tagged, e_key, e_val) = codec_word_fields(expected);
    if !s_tagged || !e_tagged {
        return true;
    }
    let field_ok = |s: u8, e: u8| s == 0 || e == 0 || s == e;
    field_ok(s_key, e_key) && field_ok(s_val, e_val)
}

// ---------------------------------------------------------------------
// Bucket framing for hashed keys
// ---------------------------------------------------------------------
//
// A hashed-key bucket blob is a sequence of frames:
//     [klen: u32 LE][key bytes][vlen: u32 LE][value bytes]
// Buckets almost always hold one frame; a 64-bit hash collision appends
// a second instead of corrupting the first.

/// Appends one `(key, value)` frame to `out`.
pub(crate) fn push_frame(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value);
}

/// Iterates the `(key, value)` frames of a bucket blob.
pub(crate) fn frames(bucket: &[u8]) -> impl Iterator<Item = (&[u8], &[u8])> {
    let mut rest = bucket;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let klen = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let key = &rest[4..4 + klen];
        let after_key = &rest[4 + klen..];
        let vlen = u32::from_le_bytes(after_key[..4].try_into().unwrap()) as usize;
        let value = &after_key[4..4 + vlen];
        rest = &after_key[4 + vlen..];
        Some((key, value))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_keys_are_exact() {
        assert_eq!(42u64.repr(), KeyRepr::Exact(42));
        assert_eq!(7u32.repr(), KeyRepr::Exact(7));
        assert_eq!((-1i64).repr(), KeyRepr::Exact(u64::MAX));
        assert_eq!(true.repr(), KeyRepr::Exact(1));
    }

    #[test]
    fn string_keys_hash_and_carry_bytes() {
        let k = "user:42".to_string();
        match k.repr() {
            KeyRepr::Hashed { hash, bytes } => {
                assert_eq!(hash, fnv1a_64(b"user:42"));
                assert_eq!(bytes, b"user:42");
            }
            other => panic!("expected hashed repr, got {other:?}"),
        }
        assert_eq!(k.repr().word(), "user:42".repr().word());
    }

    #[test]
    fn values_roundtrip() {
        assert_eq!(Vec::<u8>::from_value_bytes(&[1, 2]), vec![1, 2]);
        assert_eq!(String::from_value_bytes(b"hi"), "hi");
        assert_eq!(u64::from_value_bytes(&99u64.value_bytes()), 99);
        assert_eq!(i32::from_value_bytes(&(-5i32).value_bytes()), -5);
        assert_eq!(<[u8; 3]>::from_value_bytes(&[7, 8, 9]), [7, 8, 9]);
        ().value_bytes();
    }

    #[test]
    fn words_roundtrip() {
        assert_eq!(u64::from_word(5u64.to_word()), 5);
        assert_eq!(i64::from_word((-3i64).to_word()), -3);
        assert_eq!(i32::from_word((-3i32).to_word()), -3);
        assert_eq!(u32::from_word(7u32.to_word()), 7);
        assert!(bool::from_word(true.to_word()));
    }

    #[test]
    fn bucket_frames_roundtrip() {
        let mut b = Vec::new();
        push_frame(&mut b, b"alpha", b"1");
        push_frame(&mut b, b"beta", b"");
        push_frame(&mut b, b"", b"22");
        let got: Vec<_> = frames(&b).collect();
        assert_eq!(
            got,
            vec![
                (b"alpha".as_slice(), b"1".as_slice()),
                (b"beta".as_slice(), b"".as_slice()),
                (b"".as_slice(), b"22".as_slice()),
            ]
        );
    }
}
