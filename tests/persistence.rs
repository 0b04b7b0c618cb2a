//! File-backed pools: cross-process kill/recover, torn journal tails,
//! checkpoint kill points and bounds, and MemBackend behavior-identity.
//!
//! The kill test re-invokes this very test binary as the writer child
//! (the `writer_child` "test" below becomes the child's entry point when
//! `MOD_SESSION_POOL` is set), so a genuine `SIGKILL` lands on a process
//! mid-FASE-stream and recovery runs in a different process — no shared
//! memory, only the pool file. The kill battery runs once per
//! [`SessionShape`], the checkpoint batteries once per journal shape.

use mod_core::{DurableMap, ModHeap};
use mod_funcds::PmMap;
use mod_pmem::journal::{
    ReplayError, FORMAT_GENERATION, IMAGE_OFFSET, MARK_SLOT_AT, MARK_SLOT_BYTES,
};
use mod_pmem::{CrashPolicy, FileBackend, Pmem, PmemConfig};
use mod_workloads::session::{open_session, run_ops, verify_session, SessionShape, SLOTS, WINDOW};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_pool(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mod_persist_{}_{name}.pool", std::process::id()));
    remove_pool(&p);
    p
}

/// Removes a pool's base file and any shard journals beside it.
fn remove_pool(path: &Path) {
    for member in FileBackend::member_paths(path, 4) {
        let _ = std::fs::remove_file(member);
    }
}

/// Every member path of a pool created in `shape` (base first).
fn members(path: &Path, shape: SessionShape) -> Vec<PathBuf> {
    FileBackend::member_paths(path, shape.pool_config().journal_shards)
}

/// Every member of the pool at `path` (base first), as bytes.
fn read_members(path: &Path, shape: SessionShape) -> Vec<Vec<u8>> {
    members(path, shape)
        .iter()
        .map(|p| std::fs::read(p).unwrap())
        .collect()
}

/// Writes a whole pool set (base first, then one journal per shard).
fn write_members(path: &Path, members: &[Vec<u8>]) {
    let shards = members.len() as u16 - 1;
    for (p, m) in FileBackend::member_paths(path, shards).iter().zip(members) {
        std::fs::write(p, m).unwrap();
    }
}

/// The first `len` bytes a journal-level recovery of `path` rebuilds
/// (no typed recovery on top: nothing is appended to the pool).
fn recovered_bytes(path: &Path, len: usize) -> Vec<u8> {
    let pm = Pmem::open_file(path, SessionShape::Buffered.pool_config()).unwrap();
    let mut bytes = vec![0u8; len];
    pm.peek_bytes(0, &mut bytes);
    bytes
}

fn replay_error(err: &std::io::Error) -> Option<&ReplayError> {
    err.get_ref()?.downcast_ref::<ReplayError>()
}

/// Child entry point: under `MOD_SESSION_POOL=<shape>:<path>` this
/// "test" writes the session, created in that [`SessionShape`], until
/// killed; in a normal test run it is an instant no-op.
#[test]
fn writer_child() {
    let Ok(pool) = std::env::var("MOD_SESSION_POOL") else {
        return;
    };
    let (shape, path) = pool.split_once(':').unwrap();
    let shape = SessionShape::ALL
        .into_iter()
        .find(|s| format!("{s:?}") == shape)
        .unwrap();
    let seed: u64 = std::env::var("MOD_SESSION_SEED").unwrap().parse().unwrap();
    let mut session = open_session(Path::new(path), shape, seed).unwrap();
    run_ops(&mut session, u64::MAX / 2); // write until the kill arrives
}

/// Re-invokes this binary as the writer child of the session at `path`.
fn spawn_writer(path: &Path, shape: SessionShape, seed: u64) -> Child {
    Command::new(std::env::current_exe().unwrap())
        .args(["writer_child", "--exact", "--nocapture"])
        .env("MOD_SESSION_POOL", format!("{shape:?}:{}", path.display()))
        .env("MOD_SESSION_SEED", seed.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap()
}

fn kill_and_reopen(shape: SessionShape) {
    let path = temp_pool(&format!("kill_{shape:?}"));
    let seed = 0xDEAD_BEEFu64;
    let mut last = 0u64;
    // The last round is generous so even a debug build on a loaded host
    // commits work; an early kill that beats initialization verifies as
    // the legal 0-committed state.
    for (round, ms) in [60u64, 150, 400].into_iter().enumerate() {
        let mut kid = spawn_writer(&path, shape, seed);
        std::thread::sleep(Duration::from_millis(ms));
        kid.kill().unwrap(); // SIGKILL: no destructors, no checkpoint
        kid.wait().unwrap();
        let committed = verify_session(&path, seed)
            .unwrap_or_else(|e| panic!("round {round}: verification failed: {e}"));
        assert!(
            committed >= last,
            "round {round}: committed count regressed {last} -> {committed}"
        );
        last = committed;
    }
    assert!(
        last > 0,
        "three kill rounds committed nothing — writer never reached a fence"
    );
    // The survivor pool still works: resume, close cleanly, verify.
    let mut session = open_session(&path, shape, seed).unwrap();
    assert_eq!(session.roots.map.policy(), shape.policy());
    let resume = session.committed;
    assert_eq!(resume, last);
    run_ops(&mut session, resume + 100);
    drop(session.heap.close().unwrap());
    assert_eq!(verify_session(&path, seed).unwrap(), resume + 100);
    remove_pool(&path);
}

#[test]
fn kill_and_reopen_recovers_committed_fases() {
    kill_and_reopen(SessionShape::Buffered);
}

#[test]
fn kill_and_reopen_recovers_committed_fases_fsync_set() {
    kill_and_reopen(SessionShape::FsyncSet);
}

#[test]
fn kill_and_reopen_recovers_committed_fases_fsync_set_hybrid() {
    // Every recovery rebuilds the volatile index from the op spine
    // before the verifier walks the shadow model.
    kill_and_reopen(SessionShape::FsyncSetHybrid);
}

#[test]
fn torn_journal_tail_recovers_to_a_complete_fence_at_any_cut() {
    // Write a session, then simulate kills at many byte offsets by
    // truncating a copy of the pool's journal: every cut must verify as
    // a consistent all-or-nothing prefix, monotone in the cut point.
    let shape = SessionShape::Buffered;
    let path = temp_pool("torn");
    let seed = 7u64;
    let mut session = open_session(&path, shape, seed).unwrap();
    run_ops(&mut session, 120);
    drop(session); // no close/checkpoint: the files are as a kill leaves them
    let full = read_members(&path, shape);
    let cut_path = temp_pool("torn_cut");
    let verify_cut = |cut: usize| {
        // Recovery truncates (and typed recovery appends) in place, so
        // every cut starts from a fresh copy of the set.
        write_members(&cut_path, &[full[0].clone(), full[1][..cut].to_vec()]);
        verify_session(&cut_path, seed)
            .unwrap_or_else(|e| panic!("cut at {cut}: inconsistent state: {e}"))
    };
    // The last FASE's directory swing is fenced by the *next* FASE (or a
    // close), so an un-closed pool holds one less than the staged count.
    let journal_len = full[1].len();
    assert_eq!(verify_cut(journal_len), 119);
    // The init's close checkpointed, so the journal holds only the 120
    // ops: with no record at all the image alone is the empty session.
    assert_eq!(verify_cut(24), 0);
    // ~100 cuts spread over the whole journal plus every byte of the tail.
    let mut cuts: Vec<usize> = (0..100)
        .map(|i| 24 + i * (journal_len - 24) / 100)
        .collect();
    cuts.extend(journal_len - 200..=journal_len);
    let mut prev_n = None::<u64>;
    let mut distinct = std::collections::BTreeSet::new();
    for cut in cuts {
        let n = verify_cut(cut);
        if let Some(p) = prev_n {
            assert!(
                n >= p,
                "cut {cut}: committed count not monotone ({p} -> {n})"
            );
        }
        prev_n = Some(n);
        distinct.insert(n);
    }
    assert!(
        distinct.len() > 10,
        "cuts should land on many distinct fences, got {distinct:?}"
    );
    remove_pool(&path);
    remove_pool(&cut_path);
}

/// The busiest shard journal's size at which the pool-set torn-tail
/// test kills its writer.
const KILL_AT_JOURNAL_BYTES: u64 = 64 * 1024;

#[test]
fn pool_set_torn_shard_tail_recovers_to_the_frontier_at_any_cut() {
    // The pool-set variant of the torn-tail test, driven end-to-end: a
    // writer child runs in the power-loss-grade shape (4 shard journals,
    // fsync per fence), gets SIGKILLed, and then one shard journal of a
    // copy of the set is truncated at many byte offsets. Every cut must
    // recover to a consistent all-or-nothing prefix — the durable
    // frontier: losing a record in one shard journal must also retire
    // every *complete* record of later fences sitting in the sibling
    // journals.
    let shape = SessionShape::FsyncSet;
    let path = temp_pool("set_torn");
    let seed = 21u64;
    let mut kid = spawn_writer(&path, shape, seed);
    let shard_paths = members(&path, shape).split_off(1);
    // Kill once the busiest journal holds a few dozen fence records, so
    // the cut sweep below has many frontiers to land on however slow
    // the host is. The threshold stays far below the checkpoint trigger.
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        let busiest = shard_paths
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .max()
            .unwrap_or(0);
        if busiest >= KILL_AT_JOURNAL_BYTES {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    kid.kill().unwrap(); // SIGKILL: no destructors, no checkpoint
    kid.wait().unwrap();
    // First recovery truncates real torn tails in place and leaves a
    // clean set at the frontier — the baseline for the cut sweep.
    let committed = verify_session(&path, seed).unwrap();
    assert!(committed > 0, "child committed nothing before the kill");
    let full = read_members(&path, shape);
    // Shards own contiguous address ranges, so a small workload in a big
    // pool concentrates in the low shards: cut the busiest journal.
    let victim = (1..full.len()).max_by_key(|&m| full[m].len()).unwrap();
    assert!(
        full[victim].len() > 24,
        "no shard journal holds any records"
    );
    let cut_path = temp_pool("set_torn_cut");
    let victim_path = &members(&cut_path, shape)[victim];
    // 24 = the shard-journal header; below that the member is invalid,
    // which a power loss cannot produce (headers are synced at create).
    let len = full[victim].len();
    let mut cuts: Vec<usize> = (0..60).map(|i| 24 + i * (len - 24) / 60).collect();
    cuts.extend(len.saturating_sub(100).max(24)..=len);
    let mut prev_n = None::<u64>;
    let mut distinct = std::collections::BTreeSet::new();
    for cut in cuts {
        // Recovery truncates in place, so every cut starts from a fresh
        // copy of the whole set.
        write_members(&cut_path, &full);
        std::fs::write(victim_path, &full[victim][..cut]).unwrap();
        let n = verify_session(&cut_path, seed)
            .unwrap_or_else(|e| panic!("cut member {victim} at {cut}: inconsistent state: {e}"));
        if let Some(p) = prev_n {
            assert!(
                n >= p,
                "cut {cut}: committed count not monotone ({p} -> {n})"
            );
        }
        prev_n = Some(n);
        distinct.insert(n);
    }
    assert_eq!(
        prev_n,
        Some(committed),
        "an uncut victim journal must recover everything"
    );
    assert!(
        distinct.len() > 5,
        "cuts should land on many distinct frontiers, got {distinct:?}"
    );
    remove_pool(&path);
    remove_pool(&cut_path);
}

/// A journal-*volume* battery: it pins how much the Full-policy journal
/// grows, when it checkpoints and what a checkpoint leaves on disk. (A
/// hybrid session journals a fraction of the bytes and never crosses
/// the threshold in this many ops, so it runs only the Full shapes.)
fn compaction_bounds(shape: SessionShape) {
    // The backend's private trigger, and a generous bound on one fence
    // record of this session (≈ 20 lines).
    const THRESHOLD: u64 = 1 << 20;
    const ONE_RECORD: u64 = 16 << 10;
    let path = temp_pool(&format!("compaction_{shape:?}"));
    let members = members(&path, shape);
    let journal_bytes = || -> u64 {
        let len = |p: &PathBuf| std::fs::metadata(p).unwrap().len() - 24;
        members[1..].iter().map(len).sum()
    };
    let seed = 42u64;
    let mut session = open_session(&path, shape, seed).unwrap();
    // Enough churn that the journal crosses the checkpoint threshold —
    // and at no point may it sit more than one record above it.
    for target in (100..=1_500).step_by(100) {
        run_ops(&mut session, target);
        assert!(
            journal_bytes() < THRESHOLD + ONE_RECORD,
            "journals hold {} B at op {target}",
            journal_bytes()
        );
    }
    let stats = session.heap.nv().pm().backend_stats();
    assert!(
        stats.compactions >= 1 && stats.checkpoint_failures == 0,
        "1.5k FASEs must have crossed the checkpoint threshold \
         ({} journal bytes appended)",
        stats.journal_bytes
    );
    assert!(
        stats.checkpoint_bytes <= stats.journal_bytes,
        "checkpoints write what was journaled ({} B), not the pool: {} B",
        stats.journal_bytes,
        stats.checkpoint_bytes
    );
    drop(session.heap.close().unwrap());
    assert_eq!(journal_bytes(), 0, "a close leaves empty journals");
    // The base is the header page plus the image up to the highest line
    // the session ever made durable — found here as the highest nonzero
    // line of the recovered pool (the flush cache never journals a line
    // that is still all zero).
    let base_len = std::fs::metadata(&path).unwrap().len();
    let image = recovered_bytes(&path, 1 << 26);
    let high_water = image
        .rchunks(64)
        .position(|line| line.iter().any(|&b| b != 0));
    let high_water = image.len() as u64 - 64 * high_water.unwrap() as u64;
    assert!(
        base_len <= IMAGE_OFFSET + high_water,
        "base is {base_len} B for a touched high-water mark of {high_water} B"
    );
    assert!(
        base_len < stats.journal_bytes,
        "the pool ({base_len} B) stays well under the total journal \
         traffic ({} B)",
        stats.journal_bytes
    );
    // All state survives the checkpoints and the reopen.
    let committed = verify_session(&path, seed).unwrap();
    assert_eq!(committed, 1_500);
    let mut session = open_session(&path, shape, seed).unwrap();
    run_ops(&mut session, 1_600);
    drop(session.heap.close().unwrap());
    assert_eq!(verify_session(&path, seed).unwrap(), 1_600);
    remove_pool(&path);
}

#[test]
fn compaction_bounds_the_file_and_preserves_state() {
    compaction_bounds(SessionShape::Buffered);
}

#[test]
fn compaction_bounds_the_file_and_preserves_state_fsync_set() {
    compaction_bounds(SessionShape::FsyncSet);
}

/// The differing 64-byte-aligned runs of two images, `(offset, len)`,
/// split every 4 KiB: a kill can stop a long image write part-way too.
fn differing_runs(before: &[u8], after: &[u8]) -> Vec<(usize, usize)> {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for at in (IMAGE_OFFSET as usize..after.len()).step_by(64) {
        let end = (at + 64).min(after.len());
        if before.get(at..end) == Some(&after[at..end]) {
            continue;
        }
        match runs.last_mut() {
            Some((start, len)) if *start + *len == at && *len < 4096 => *len += end - at,
            _ => runs.push((at, end - at)),
        }
    }
    runs
}

/// File level of the kill-atomicity battery.
fn checkpoint_killed_at_any_point(shape: SessionShape) {
    // `before` is a killed, un-checkpointed session; `after` is the same
    // pool checkpointed. Every on-disk state a kill *inside* that
    // checkpoint can leave is rebuilt from the two — image runs landed
    // one by one (the last one torn), the mark slot written or torn, the
    // journals truncated one by one — and every one of them must recover
    // the same committed session and the same bytes.
    let path = temp_pool(&format!("ckpt_kill_{shape:?}"));
    let seed = 0xC4EC_4B17u64;
    let mut session = open_session(&path, shape, seed).unwrap();
    run_ops(&mut session, 400);
    drop(session); // the kill
    let before = read_members(&path, shape);
    // Journal-level open + checkpoint: nothing is appended, so `after`
    // is exactly `before`'s journal written home.
    let mut pm = Pmem::open_file(&path, shape.pool_config()).unwrap();
    assert!(pm.replay_stats().unwrap().batches >= 399);
    pm.checkpoint().unwrap();
    assert_eq!(pm.backend_stats().compactions, 1);
    drop(pm);
    let after = read_members(&path, shape);
    let image_len = after[0].len() - IMAGE_OFFSET as usize;
    let oracle = recovered_bytes(&path, image_len);
    let committed = verify_session(&path, seed).unwrap();
    assert_eq!(committed, 399);

    let state = temp_pool(&format!("ckpt_kill_state_{shape:?}"));
    let check = |what: &str, members: &[Vec<u8>]| {
        write_members(&state, members);
        assert!(
            recovered_bytes(&state, image_len) == oracle,
            "{what}: bytes"
        );
        write_members(&state, members); // the open above truncated in place
        let n = verify_session(&state, seed).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(n, committed, "{what}");
    };
    check("before", &before);
    check("after", &after);

    // Step 1: the image runs land one by one; the old mark and the whole
    // journal still stand. The image only ever grows.
    let runs = differing_runs(&before[0], &after[0]);
    assert!(runs.len() >= 3, "only {} runs differ", runs.len());
    let mut members = before.clone();
    members[0].resize(after[0].len().max(before[0].len()), 0);
    for (k, &(at, len)) in runs.iter().enumerate() {
        if k == runs.len() / 2 {
            // This run is torn at every byte offset on its way down.
            for cut in 0..len.min(192) {
                let mut torn = members.clone();
                torn[0][at..at + cut].copy_from_slice(&after[0][at..at + cut]);
                check(&format!("run {k} torn at byte {cut}"), &torn);
            }
        }
        members[0][at..at + len].copy_from_slice(&after[0][at..at + len]);
        if k % 8 == 0 || k + 1 == runs.len() {
            check(
                &format!("{} of {} runs written", k + 1, runs.len()),
                &members,
            );
        }
    }
    // Steps 2–3: base synced, then the newer mark slot written — torn at
    // every byte on the way, where the older slot must carry the open.
    let newer = (0..2)
        .map(|i| MARK_SLOT_AT[i] as usize)
        .find(|&at| before[0][at..at + MARK_SLOT_BYTES] != after[0][at..at + MARK_SLOT_BYTES])
        .expect("the checkpoint wrote one mark slot");
    for cut in 0..=MARK_SLOT_BYTES {
        members[0][newer..newer + cut].copy_from_slice(&after[0][newer..newer + cut]);
        check(&format!("mark slot torn at byte {cut}"), &members);
    }
    assert!(
        members[0] == after[0],
        "runs + mark slot are the whole checkpoint"
    );
    // Step 4: the journals are truncated one by one.
    for j in 1..members.len() {
        members[j] = after[j].clone();
        check(&format!("{j} journal(s) truncated"), &members);
    }
    // Both mark slots damaged: a typed error, never a guess.
    let mut damaged = after.clone();
    for at in MARK_SLOT_AT {
        damaged[0][at as usize + 9] ^= 0x01;
    }
    write_members(&state, &damaged);
    let err = Pmem::open_file(&state, shape.pool_config()).unwrap_err();
    assert_eq!(replay_error(&err), Some(&ReplayError::MarkDamaged), "{err}");
    remove_pool(&path);
    remove_pool(&state);
}

#[test]
fn checkpoint_killed_at_any_point_recovers_the_same_session() {
    checkpoint_killed_at_any_point(SessionShape::Buffered);
}

#[test]
fn checkpoint_killed_at_any_point_recovers_the_same_session_fsync_set() {
    checkpoint_killed_at_any_point(SessionShape::FsyncSet);
}

/// Reopen an un-checkpointed pool, write on until the threshold
/// checkpoint fires, get killed: that checkpoint truncated the records
/// the reopen replayed, so their lines must have been seeded into it —
/// the verifier walks every slot, old and new. (Full shapes only: it
/// needs the Full journal volume to cross the threshold.)
fn replayed_lines_survive_the_next_checkpoint(shape: SessionShape) {
    let path = temp_pool(&format!("seeded_{shape:?}"));
    let seed = 0x5EED_ED00u64;
    let mut session = open_session(&path, shape, seed).unwrap();
    run_ops(&mut session, 300);
    drop(session); // killed, un-checkpointed
    let mut session = open_session(&path, shape, seed).unwrap();
    assert_eq!(session.committed, 299);
    let replayed = session.heap.nv().pm().replay_stats().unwrap().batches;
    assert!(replayed >= 299, "reopen replayed {replayed} batches");
    let mut target = 300;
    while session.heap.nv().pm().backend_stats().compactions == 0 {
        target += 100;
        run_ops(&mut session, target);
    }
    drop(session); // killed right after the checkpoint
    assert_eq!(verify_session(&path, seed).unwrap(), target - 1);
    remove_pool(&path);
}

#[test]
fn lines_only_the_replayed_journal_held_survive_the_next_checkpoint() {
    replayed_lines_survive_the_next_checkpoint(SessionShape::Buffered);
}

#[test]
fn lines_only_the_replayed_journal_held_survive_the_next_checkpoint_fsync_set() {
    replayed_lines_survive_the_next_checkpoint(SessionShape::FsyncSet);
}

/// The checked-in pools of every older generation: `(fixture, has a
/// journal member, generation)`. Each was written by the last build of
/// its generation.
const OLD_GENERATIONS: [(&str, bool, u32); 4] = [
    // A single-file pool: header + empty snapshot record.
    ("gen3_pool.bin", false, 3),
    // A 3-key `DurableMap`: today's file layout, but full-width CHAMP
    // node pointers in the image.
    ("gen4_pool.bin", true, 4),
    // A `DurableVector<u64>`, a `DurableQueue<u64>` and a
    // `DurableMap<u64, u64>` under a three-root directory, with
    // full-width pointers in cons cells and the vector and queue root
    // objects.
    ("gen5_pool.bin", true, 5),
    // The same three roots, the vector 101 elements long (an inner-node
    // root with full-width children).
    ("gen6_pool.bin", true, 6),
];

#[test]
fn older_generation_fixtures_cover_every_superseded_generation() {
    // A layout change that bumps the generation must check in its
    // predecessor's pool here, as a table row and a test of its own.
    let found: Vec<u32> = OLD_GENERATIONS.iter().map(|row| row.2).collect();
    assert_eq!(found, (3..FORMAT_GENERATION).collect::<Vec<_>>());
}

/// Old pools fail typed — at the pmem level and through the heap —
/// before any of their journal is replayed: never a panic and never a
/// best-effort read.
fn old_generation_pool_fails_typed(found: u32) {
    let (fixture, journaled, _) = *OLD_GENERATIONS
        .iter()
        .find(|row| row.2 == found)
        .expect("a checked-in fixture for this generation");
    let path = temp_pool(&format!("gen{found}"));
    std::fs::copy(format!("tests/fixtures/{fixture}"), &path).unwrap();
    if journaled {
        let journal = FileBackend::member_paths(&path, 1).pop().unwrap();
        std::fs::copy(format!("tests/fixtures/{fixture}.s0"), journal).unwrap();
    }
    let want = ReplayError::UnsupportedGeneration {
        found,
        supported: FORMAT_GENERATION,
    };
    let cfg = SessionShape::Buffered.pool_config();
    let err = Pmem::open_file(&path, cfg.clone()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{fixture}");
    assert_eq!(replay_error(&err), Some(&want), "{fixture}: {err}");
    let err = ModHeap::open_file(&path, cfg).map(drop).unwrap_err();
    assert_eq!(replay_error(&err), Some(&want), "{fixture}: {err}");
    assert!(verify_session(&path, 1).is_err(), "{fixture}");
    remove_pool(&path);
}

#[test]
fn generation_3_pool_fails_to_open_with_a_typed_error() {
    old_generation_pool_fails_typed(3);
}

#[test]
fn generation_4_pool_fails_to_open_with_a_typed_error() {
    old_generation_pool_fails_typed(4);
}

#[test]
fn generation_5_pool_fails_to_open_with_a_typed_error() {
    old_generation_pool_fails_typed(5);
}

#[test]
fn generation_6_pool_fails_to_open_with_a_typed_error() {
    old_generation_pool_fails_typed(6);
}

/// A map root object's third word is reserved and 0. Earlier generation-7
/// builds wrote 1 there for a map keyed by a test-only hash, a trie whose
/// keys today's lookups miss: reopening such a pool refuses it, naming
/// the block.
#[test]
fn map_root_object_with_a_nonzero_reserved_word_fails_at_reopen() {
    let mut heap = ModHeap::create(Pmem::new(PmemConfig::testing()));
    let map = PmMap::empty(heap.nv_mut());
    let map = heap.publish(map);
    heap.fase(|tx| {
        tx.update(map, |nv, m| m.insert(nv, 7, b"seven"));
    });
    let root = heap.current(map).root();
    let nv = heap.nv_mut();
    nv.write_u64(root.addr() + 16, 1);
    nv.flush_range(root.addr() + 16, 8);
    nv.sfence();
    let image = heap.nv().pm().crash_image(CrashPolicy::OnlyFenced);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ModHeap::open(image)))
        .map(drop)
        .unwrap_err();
    let msg = err
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    let want = format!("map root object at {root} holds 1 in its reserved word");
    assert!(msg.contains(&want), "{msg}");
}

#[test]
fn verifier_rejects_a_wrong_shadow_model() {
    // The kill tests are only as strong as the verifier: feed it the
    // wrong seed and it must notice every slot mismatching.
    let path = temp_pool("wrong_seed");
    let mut session = open_session(&path, SessionShape::Buffered, 1).unwrap();
    run_ops(&mut session, 50);
    drop(session.heap.close().unwrap());
    assert!(verify_session(&path, 2).is_err(), "wrong seed must fail");
    assert_eq!(verify_session(&path, 1).unwrap(), 50);
    remove_pool(&path);
}

const _: () = assert!(WINDOW < SLOTS, "session model: window must fit the map");

#[test]
fn mem_backend_paths_are_behavior_identical_to_file_pools_minus_io() {
    // The pluggable backend must not perturb the simulation: the same
    // typed workload on a MemBackend pool and a FileBackend pool charges
    // identical simulated time and identical PM counters — the only
    // difference is where durable bytes land.
    let run = |pm: Pmem| {
        let mut h = ModHeap::create(pm);
        let map: DurableMap<u64, u64> = DurableMap::create(&mut h);
        for i in 0..64u64 {
            map.insert(&mut h, &(i % 8), &i);
        }
        h.quiesce();
        let stats = h.nv().pm().stats().clone();
        let wall = h.nv().pm().clock().now_ns();
        (stats, wall)
    };
    let (mem_stats, mem_wall) = run(Pmem::new(PmemConfig::testing()));
    let path = temp_pool("identical");
    let (file_stats, file_wall) = run(Pmem::create_file(&path, PmemConfig::testing()).unwrap());
    assert_eq!(mem_stats, file_stats, "identical PM counters");
    assert_eq!(
        mem_wall.to_bits(),
        file_wall.to_bits(),
        "bit-identical simulated time"
    );
    remove_pool(&path);
}
