//! Memcached — the KV-store application kernel.
//!
//! The paper ports memcached to keep its cache in one recoverable map
//! (§4.3.1: "memcached relies on a single recoverable map to implement
//! its cache and FASEs involve a single set operation"). Table 2's mix:
//! 95 % sets, 5 % gets, 16-byte keys, 512-byte values.
//!
//! The MOD side stores the 16-byte keys directly in a typed
//! [`DurableMap<[u8; 16], Vec<u8>>`]: the codec layer hashes the key to
//! the substrate's 64-bit key and frames the key bytes for verification —
//! the collision check a real KV store performs, which this module used
//! to hand-roll. The STM baselines keep the manual hash-and-embed scheme
//! (they model PMDK applications, which have no such codec layer).
//!
//! The MOD op stream is the **same command enum the network server
//! executes**: every simulated op is a [`mod_server::Command`] round-
//! tripped through the shared wire codec (encode → [`FrameDecoder`] →
//! parse) before it touches the heap, so the closed-loop sim and
//! `mod-server` cannot drift apart in what GET/SET mean. The roundtrip
//! is host-time only — it never touches the simulated Pmem, so the
//! gated simulated metrics are bit-identical to executing directly.

use crate::report::{MeasuredRun, RunReport};
use crate::spec::{ScaleConfig, System, Workload, WorkloadRng};
use mod_core::{DurableMap, ModHeap};
use mod_server::{Command, FrameDecoder};
use mod_stm::{StmHashMap, TxHeap, TxMode};

/// Value payload size (Table 2).
pub const VALUE_BYTES: usize = 512;

/// A 16-byte key and its 64-bit map key.
fn gen_key(rng: &mut WorkloadRng, key_space: u64) -> ([u8; 16], u64) {
    let a = rng.below(key_space);
    let b = a.wrapping_mul(0x9E3779B97F4A7C15); // second half derived
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&a.to_le_bytes());
    key[8..].copy_from_slice(&b.to_le_bytes());
    // 64-bit map key: mix of both halves.
    let mut z = a ^ b.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    (key, z ^ (z >> 31))
}

/// Value for the STM paths: the key is embedded at the head so their
/// hand-rolled `verify_get` can check it.
fn build_value(key: &[u8; 16], payload_seed: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_BYTES];
    v[..16].copy_from_slice(key);
    v[16..24].copy_from_slice(&payload_seed.to_le_bytes());
    v
}

/// Value for the MOD path: the codec layer already frames and verifies
/// the key, so embedding it again would double-store it and inflate
/// MOD's write traffic relative to the baselines.
fn build_payload(payload_seed: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_BYTES];
    v[..8].copy_from_slice(&payload_seed.to_le_bytes());
    v
}

/// Round-trips a command through the server's wire codec: encode to the
/// RESP-style frame, feed it to the resumable decoder, parse the tokens
/// back. What comes out is what a real connection would execute.
fn wire_roundtrip(cmd: &Command) -> Command {
    let mut dec = FrameDecoder::new();
    dec.feed(&cmd.encode());
    let tokens = dec
        .next_frame()
        .expect("sim-generated frame is well formed")
        .expect("one complete frame");
    assert!(dec.is_empty(), "one command encodes to exactly one frame");
    Command::parse(&tokens).expect("sim-generated command parses")
}

fn verify_get(key: &[u8; 16], stored: Option<&[u8]>) -> bool {
    match stored {
        Some(bytes) => &bytes[..16] == key,
        None => false,
    }
}

/// Runs the memcached kernel: 95 % sets / 5 % gets.
pub fn run_memcached(sys: System, scale: &ScaleConfig) -> RunReport {
    match sys {
        System::Mod => memcached_mod(scale),
        System::Pmdk14 => memcached_stm(scale, TxMode::Undo, sys),
        System::Pmdk15 => memcached_stm(scale, TxMode::Hybrid, sys),
    }
}

fn memcached_mod(scale: &ScaleConfig) -> RunReport {
    let mut heap = ModHeap::create(scale.pmem());
    let map: DurableMap<[u8; 16], Vec<u8>> = DurableMap::create(&mut heap);
    let mut rng = WorkloadRng::new(scale.seed);
    let key_space = scale.preload.max(16);
    for _ in 0..scale.preload {
        let (key, _) = gen_key(&mut rng, key_space);
        let cmd = wire_roundtrip(&Command::Set {
            key: key.to_vec(),
            value: build_payload(0),
        });
        let Command::Set { key, value } = cmd else {
            unreachable!("SET round-trips as SET")
        };
        let key: [u8; 16] = key.try_into().expect("16-byte keys");
        map.insert(&mut heap, &key, &value);
    }
    let mut run = MeasuredRun::start(
        heap.nv(),
        Workload::Memcached,
        System::Mod,
        &["memcached-set"],
    );
    for op in 0..scale.ops {
        let (key, _) = gen_key(&mut rng, key_space);
        if rng.percent(95) {
            let cmd = wire_roundtrip(&Command::Set {
                key: key.to_vec(),
                value: build_payload(op),
            });
            let Command::Set { key, value } = cmd else {
                unreachable!("SET round-trips as SET")
            };
            let key: [u8; 16] = key.try_into().expect("16-byte keys");
            run.op(0, &mut heap, |h| map.insert(h, &key, &value));
        } else {
            let cmd = wire_roundtrip(&Command::Get { key: key.to_vec() });
            let Command::Get { key } = cmd else {
                unreachable!("GET round-trips as GET")
            };
            let key: [u8; 16] = key.try_into().expect("16-byte keys");
            // Charged read path so MOD gets pay the same simulated
            // cache/time costs the STM baselines pay (Fig 9 fidelity);
            // the codec layer already verified the framed key bytes.
            let _ = map.get(&mut heap, &key);
        }
    }
    run.finish(heap.nv(), scale.ops)
}

fn memcached_stm(scale: &ScaleConfig, mode: TxMode, sys: System) -> RunReport {
    let mut heap = TxHeap::format(scale.pmem(), mode);
    let map = StmHashMap::create(&mut heap, scale.bucket_bits());
    let mut rng = WorkloadRng::new(scale.seed);
    let key_space = scale.preload.max(16);
    for _ in 0..scale.preload {
        let (key, mk) = gen_key(&mut rng, key_space);
        map.insert(&mut heap, mk, &build_value(&key, 0));
    }
    let mut run = MeasuredRun::start(heap.nv(), Workload::Memcached, sys, &["memcached-set"]);
    for op in 0..scale.ops {
        let (key, mk) = gen_key(&mut rng, key_space);
        if rng.percent(95) {
            run.op(0, &mut heap, |h| map.insert(h, mk, &build_value(&key, op)));
        } else {
            let got = map.get(&mut heap, mk);
            let _ = verify_get(&key, got.as_deref());
        }
    }
    run.finish(heap.nv(), scale.ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_generation_is_stable() {
        let mut a = WorkloadRng::new(5);
        let mut b = WorkloadRng::new(5);
        for _ in 0..50 {
            assert_eq!(gen_key(&mut a, 100), gen_key(&mut b, 100));
        }
    }

    #[test]
    fn value_embeds_key() {
        let key = [7u8; 16];
        let v = build_value(&key, 9);
        assert!(verify_get(&key, Some(&v)));
        assert!(!verify_get(&[8u8; 16], Some(&v)));
        assert!(!verify_get(&key, None));
        assert_eq!(v.len(), VALUE_BYTES);
    }

    #[test]
    fn wire_roundtrip_is_identity_for_sim_ops() {
        let mut rng = WorkloadRng::new(42);
        for op in 0..200u64 {
            let (key, _) = gen_key(&mut rng, 64);
            let cmds = [
                Command::Set {
                    key: key.to_vec(),
                    value: build_payload(op),
                },
                Command::Get { key: key.to_vec() },
            ];
            for cmd in cmds {
                assert_eq!(wire_roundtrip(&cmd), cmd);
            }
        }
    }
}
