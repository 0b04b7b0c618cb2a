//! Seeded input generation. Everything the product sees — keys, values,
//! op mixes, request bytes — is derived here from `--seed`; the product
//! never receives the seed itself.

/// splitmix64: one multiply-xorshift round per draw, full 64-bit period,
/// and — unlike xorshift — no weak low bits, so `below` can use `%`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for a sub-purpose (`lane` = worker,
    /// connection, phase…), so adding a consumer never shifts another's
    /// draws.
    pub fn fork(seed: u64, lane: u64) -> Rng {
        Rng(mix(seed ^ mix(lane.wrapping_add(0x9E37_79B9_7F4A_7C15))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is
    /// below 2^-40.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `n` flags of which exactly `pct` % are set in every block of 100, at
/// positions drawn from `rng` (a partial Fisher–Yates per block).
fn exact_share(rng: &mut Rng, n: u64, pct: u64) -> Vec<bool> {
    let mut out = Vec::with_capacity(n as usize + 100);
    while (out.len() as u64) < n {
        let mut block = [false; 100];
        let mut slots: Vec<usize> = (0..100).collect();
        for i in 0..pct as usize {
            let j = i + rng.below((100 - i) as u64) as usize;
            slots.swap(i, j);
            block[slots[i]] = true;
        }
        out.extend_from_slice(&block);
    }
    out.truncate(n as usize);
    out
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The 32-byte map value for `(key, version)`: recomputable by the
/// verifier, so the shadow model stores one `u32` version per key.
pub fn value32(key: u64, version: u32) -> [u8; 32] {
    let mut out = [0u8; 32];
    let base = mix(key ^ (u64::from(version) << 40));
    for (i, chunk) in out.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&mix(base.wrapping_add(i as u64)).to_le_bytes());
    }
    out
}

/// One op of the map workloads. For a lookup, `version` is what the
/// shadow model says the key held when the op was generated
/// ([`ABSENT`] if nothing); for an upsert it is the version written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MapOp {
    pub key: u64,
    pub version: u32,
    pub is_get: bool,
}

pub const ABSENT: u32 = u32::MAX;

/// Generates the map workloads' streams and the shadow model together:
/// `versions[key]` is the model (ABSENT = not present).
pub struct MapStream {
    rng: Rng,
    pub versions: Vec<u32>,
    next_version: u32,
}

impl MapStream {
    pub fn new(seed: u64, key_space: u64) -> MapStream {
        MapStream {
            rng: Rng::fork(seed, 1),
            versions: vec![ABSENT; key_space as usize],
            next_version: 0,
        }
    }

    fn upsert_of(&mut self, key: u64) -> MapOp {
        let version = self.next_version;
        self.next_version += 1;
        self.versions[key as usize] = version;
        MapOp {
            key,
            version,
            is_get: false,
        }
    }

    /// `n` uniform upserts over the key space.
    pub fn upserts(&mut self, n: u64) -> Vec<MapOp> {
        let ks = self.versions.len() as u64;
        (0..n)
            .map(|_| {
                let key = self.rng.below(ks);
                self.upsert_of(key)
            })
            .collect()
    }

    /// `n` ops, `get_pct` % lookups — exactly that share in every block
    /// of 100, at seeded positions, so per-op counts do not carry the
    /// binomial noise of a coin per op. 90 % of lookups go to `hot` (keys
    /// known present), the rest uniform over the key space (may miss).
    pub fn mixed(&mut self, n: u64, get_pct: u64, hot: &[u64]) -> Vec<MapOp> {
        let ks = self.versions.len() as u64;
        let is_get = exact_share(&mut self.rng, n, get_pct);
        is_get
            .into_iter()
            .map(|get| {
                if get {
                    let key = if self.rng.below(10) < 9 {
                        hot[self.rng.below(hot.len() as u64) as usize]
                    } else {
                        self.rng.below(ks)
                    };
                    MapOp {
                        key,
                        version: self.versions[key as usize],
                        is_get: true,
                    }
                } else {
                    let key = self.rng.below(ks);
                    self.upsert_of(key)
                }
            })
            .collect()
    }

    /// The first `n` distinct keys present in the model, in key order
    /// scrambled by the seed — the read-mostly workload's hot set.
    pub fn hot_set(&mut self, n: usize) -> Vec<u64> {
        let mut present: Vec<u64> = (0..self.versions.len() as u64)
            .filter(|&k| self.versions[k as usize] != ABSENT)
            .collect();
        // Partial Fisher–Yates: the first n slots become a uniform sample.
        let n = n.min(present.len());
        for i in 0..n {
            let j = i + self.rng.below((present.len() - i) as u64) as usize;
            present.swap(i, j);
        }
        present.truncate(n);
        present
    }

    pub fn live_keys(&self) -> u64 {
        self.versions.iter().filter(|&&v| v != ABSENT).count() as u64
    }
}

/// One composition-interface FASE of `compose_fsync_file`: a vector slot
/// update plus an enqueue, and on every second FASE a dequeue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ComposeOp {
    pub slot: u64,
    pub value: u64,
    pub dequeue: bool,
}

pub const COMPOSE_SLOTS: u64 = 1024;

pub fn compose_ops(seed: u64, worker: u64, n: u64) -> Vec<ComposeOp> {
    let mut rng = Rng::fork(seed, 100 + worker);
    (0..n)
        .map(|i| ComposeOp {
            slot: rng.below(COMPOSE_SLOTS),
            value: rng.next_u64() | 1,
            dequeue: i % 2 == 1,
        })
        .collect()
}

/// KV requests of `server_kv_mixed`.
pub const KV_KEYS: u64 = 4096;
pub const KV_VALUE_BYTES: usize = 64;

pub fn kv_key(index: u64) -> Vec<u8> {
    format!("key:{index:06}").into_bytes()
}

/// A 64-byte value carrying `tag` in every word, so a reply is checked
/// by its first eight bytes.
pub fn kv_value(tag: u64) -> Vec<u8> {
    tag.to_le_bytes().repeat(KV_VALUE_BYTES / 8)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvOp {
    pub key: u64,
    /// `Some(tag)` = SET that value; `None` = GET.
    pub set: Option<u64>,
    /// What a GET must return (the model's tag at generation time;
    /// 0 = never set).
    pub expect: u64,
}

/// A connection's request stream and model. Connection `conn` of
/// `conns` owns the keys `k % conns == conn`, so "the last acked SET of
/// a key" is well defined whatever the interleaving between connections.
pub struct KvStream {
    rng: Rng,
    conn: u64,
    conns: u64,
    seq: u64,
    /// key index → latest tag SET on this connection (0 = none).
    pub model: Vec<u64>,
}

impl KvStream {
    pub fn new(seed: u64, conn: u64, conns: u64) -> KvStream {
        KvStream {
            rng: Rng::fork(seed, 200 + conn),
            conn,
            conns,
            seq: 0,
            model: vec![0; KV_KEYS as usize],
        }
    }

    fn set_of(&mut self, key: u64) -> KvOp {
        self.seq += 1;
        let tag = ((self.conn + 1) << 48) | self.seq;
        self.model[key as usize] = tag;
        KvOp {
            key,
            set: Some(tag),
            expect: 0,
        }
    }

    /// One SET per owned key, in key order.
    pub fn preload(&mut self) -> Vec<KvOp> {
        let (conn, conns) = (self.conn, self.conns);
        (0..KV_KEYS)
            .filter(|k| k % conns == conn)
            .map(|k| self.set_of(k))
            .collect()
    }

    /// `n` requests, exactly 50 % SET / 50 % GET in every block of 100,
    /// uniform over the owned keys.
    pub fn mixed(&mut self, n: u64) -> Vec<KvOp> {
        let owned = KV_KEYS / self.conns;
        let is_set = exact_share(&mut self.rng, n, 50);
        is_set
            .into_iter()
            .map(|set| {
                let key = self.rng.below(owned) * self.conns + self.conn;
                if set {
                    self.set_of(key)
                } else {
                    KvOp {
                        key,
                        set: None,
                        expect: self.model[key as usize],
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_differs() {
        let a = MapStream::new(7, 1000).upserts(500);
        let b = MapStream::new(7, 1000).upserts(500);
        let c = MapStream::new(8, 1000).upserts(500);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mixed_gets_carry_the_model_version() {
        let mut s = MapStream::new(3, 64);
        let pre = s.upserts(200);
        let hot = s.hot_set(16);
        assert_eq!(hot.len(), 16);
        let mut model = vec![ABSENT; 64];
        for op in &pre {
            model[op.key as usize] = op.version;
        }
        for op in s.mixed(2000, 95, &hot) {
            if op.is_get {
                assert_eq!(op.version, model[op.key as usize]);
            } else {
                model[op.key as usize] = op.version;
            }
        }
    }

    #[test]
    fn mixes_hold_their_share_exactly() {
        let mut s = MapStream::new(9, 64);
        s.upserts(100);
        let hot = s.hot_set(8);
        let ops = s.mixed(5000, 95, &hot);
        assert_eq!(ops.iter().filter(|o| o.is_get).count(), 4750);
        assert!(ops
            .chunks(100)
            .all(|b| b.iter().filter(|o| !o.is_get).count() == 5));
        let kv = KvStream::new(9, 0, 2).mixed(3000);
        assert_eq!(kv.iter().filter(|o| o.set.is_some()).count(), 1500);
    }

    #[test]
    fn kv_connections_own_disjoint_keys() {
        let mut a = KvStream::new(1, 0, 2);
        let mut b = KvStream::new(1, 1, 2);
        let ka: Vec<u64> = a.mixed(500).iter().map(|o| o.key).collect();
        let kb: Vec<u64> = b.mixed(500).iter().map(|o| o.key).collect();
        assert!(ka.iter().all(|k| k % 2 == 0));
        assert!(kb.iter().all(|k| k % 2 == 1));
        assert_eq!(a.preload().len() as u64, KV_KEYS / 2);
    }

    #[test]
    fn values_are_recomputable_and_distinct() {
        assert_eq!(value32(5, 9), value32(5, 9));
        assert_ne!(value32(5, 9), value32(5, 10));
        assert_ne!(value32(5, 9), value32(6, 9));
        assert_eq!(kv_value(77).len(), KV_VALUE_BYTES);
    }
}
