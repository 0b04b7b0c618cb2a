//! End-to-end kill -9 battery for `mod-server`: a real child process
//! serving a real `FileBackend` pool over real sockets, killed mid-
//! stream, reopened, and replayed from the client's request log.
//!
//! The contract under test is the wire contract:
//!
//! * **reply-after-fence** — an acknowledged op is durable: after any
//!   SIGKILL, a direct reopen of the pool shows every acked `(seq)`
//!   applied;
//! * **exactly-once sessions** — replaying the request log never
//!   double-applies: stale seqs are rejected with a typed error, the
//!   last seq returns the memoized reply, and the maybe-in-flight op a
//!   kill leaves behind is resolved by the client's ordinary retry.
//!
//! The `quorum_*` tests pin the server's commit quorum in process: a
//! slot counts toward a batch only while one of its connections holds a
//! request, so an idle client never delays a peer's write, and two
//! clients that are both mid-window still share batches.
//!
//! The child entry point mirrors `persistence.rs`: the `server_child`
//! "test" below becomes a real server process when `MOD_SERVER_POOL` is
//! set, so the SIGKILL lands on a different process and recovery shares
//! nothing with the writer but the pool file. The SIGKILL batteries run
//! once per [`PersistPolicy`]: the parent creates the pool under it, and
//! the child, like any reopen, serves whatever policy the pool records.

use mod_core::{CommitMode, ModHeap, PersistPolicy, SharedModHeap};
use mod_pmem::{CrashPolicy, Durability, FileBackend, Pmem, PmemConfig};
use mod_server::{pool, serve, Command, Reply, ReplyDecoder, ServerRoots};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Stdio};
use std::time::{Duration, Instant};

/// Journal shards of every pool the server children serve.
const SHARDS: u16 = 2;

fn temp_pool(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mod_server_{}_{name}.pool", std::process::id()));
    remove_pool(&p);
    p
}

/// Removes a pool and the shard journals of its set.
fn remove_pool(path: &Path) {
    for member in FileBackend::member_paths(path, SHARDS) {
        let _ = std::fs::remove_file(member);
    }
}

/// Opens the pool at `path` the way a server child does — a **2-shard
/// pool set with `Durability::Fsync`**, the power-loss-grade shape, so
/// every SIGKILL round also exercises per-shard journal recovery with
/// parallel replay — creating it under `policy` if it does not exist.
fn open_pool(path: &Path, policy: PersistPolicy) -> (SharedModHeap, ServerRoots) {
    pool::open_or_create_with(
        path,
        2,
        CommitMode::Group {
            max_batch: 8,
            timeout: Duration::from_millis(2),
        },
        Durability::Fsync,
        SHARDS,
        policy,
    )
    .unwrap()
}

/// Child entry point: under `MOD_SERVER_POOL` this "test" serves the
/// pool until killed; in a normal test run it is an instant no-op. A
/// pool the parent created keeps the policy it recorded.
#[test]
fn server_child() {
    let Ok(path) = std::env::var("MOD_SERVER_POOL") else {
        return;
    };
    let (heap, roots) = open_pool(Path::new(&path), PersistPolicy::Full);
    let handle = serve(heap, roots, "127.0.0.1:0").unwrap();
    println!("LISTENING {}", handle.addr());
    std::io::stdout().flush().unwrap();
    loop {
        std::thread::park(); // until SIGKILL
    }
}

// The returned child is always SIGKILLed and reaped by the caller; the
// lint can't see ownership across the return.
#[allow(clippy::zombie_processes)]
fn spawn_server(path: &Path) -> (Child, SocketAddr) {
    let exe = std::env::current_exe().unwrap();
    let mut kid = std::process::Command::new(&exe)
        .args(["server_child", "--exact", "--nocapture"])
        .env("MOD_SERVER_POOL", path)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(kid.stdout.take().unwrap());
    let mut line = String::new();
    loop {
        line.clear();
        let n = lines.read_line(&mut line).unwrap();
        assert!(n > 0, "server child exited before listening");
        // The marker may share a line with libtest's "test ..." banner.
        if let Some(at) = line.find("LISTENING ") {
            let addr = line[at + "LISTENING ".len()..].trim();
            return (kid, addr.parse().unwrap());
        }
    }
}

/// One synchronous request: write the frame, block for the reply. By
/// reply-after-fence, returning from here means the op is durable.
fn request(stream: &mut TcpStream, dec: &mut ReplyDecoder, cmd: &Command) -> Reply {
    stream.write_all(&cmd.encode()).unwrap();
    read_reply(stream, dec)
}

/// Blocks for the next reply on `stream`.
fn read_reply(stream: &mut TcpStream, dec: &mut ReplyDecoder) -> Reply {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(r) = dec.next_reply().expect("valid reply stream") {
            return r;
        }
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "server hung up mid-request");
        dec.feed(&buf[..n]);
    }
}

fn sess(client: u64, seq: u64, inner: Command) -> Command {
    Command::Session {
        client,
        seq,
        inner: Box::new(inner),
    }
}

fn incr(seq: u64) -> Command {
    sess(
        7,
        seq,
        Command::Incr {
            key: b"counter".to_vec(),
        },
    )
}

fn lpush(seq: u64) -> Command {
    sess(
        9,
        seq,
        Command::LPush {
            value: format!("job-{seq}").into_bytes(),
        },
    )
}

/// Reads the pool directly (no server) and returns the counter value
/// and the list length, checking that its roots kept `policy`.
fn inspect_pool(path: &Path, policy: PersistPolicy) -> (i64, u64) {
    let (mut heap, _) = ModHeap::open_file(path, pool::pool_config()).unwrap();
    let roots = ServerRoots::open(&mut heap).unwrap();
    assert_eq!(roots.kv.policy(), policy, "the pool's recorded policy");
    let counter = roots
        .kv
        .get(&heap, &b"counter".to_vec())
        .map(|b| String::from_utf8(b).unwrap().parse().unwrap())
        .unwrap_or(0);
    (counter, roots.list_ids.len(&heap))
}

fn acked_ops_survive_sigkill(policy: PersistPolicy) {
    let path = temp_pool(&format!("kill_{policy:?}"));
    drop(open_pool(&path, policy));
    // The client's durable request log: every acked (seq, reply) pair
    // for the INCR session; LPUSH acks counted separately.
    let mut acked: Vec<(u64, Reply)> = Vec::new();
    let mut pushes = 0u64;
    // Whether the previous round's in-flight INCR committed before the
    // kill: then it, not the last acked seq, holds the session's memo.
    let mut inflight_landed = false;
    for round in 0..3u64 {
        let (mut kid, addr) = spawn_server(&path);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut dec = ReplyDecoder::new();
        // Replay the whole log from the top: exactly-once means stale
        // seqs are rejected (typed error, no re-execution) and the most
        // recent seq returns its memoized reply verbatim — unless the
        // in-flight op landed, which makes every acked seq stale.
        for (i, (seq, reply)) in acked.iter().enumerate() {
            let got = request(&mut stream, &mut dec, &incr(*seq));
            if i + 1 == acked.len() && !inflight_landed {
                assert_eq!(&got, reply, "memoized replay of seq {seq}");
            } else {
                match &got {
                    Reply::Err(e) => assert!(
                        e.contains("out of order"),
                        "stale seq {seq} must be rejected, got {e:?}"
                    ),
                    other => panic!("stale seq {seq} re-executed: {other:?}"),
                }
            }
        }
        // The kill may have left one request in flight: retry it. The
        // server either applies it now (it was lost) or replays the
        // memoized reply (it committed before the kill) — the client
        // cannot tell and must not need to.
        let mut seq = acked.len() as u64 + 1;
        let retry = request(&mut stream, &mut dec, &incr(seq));
        assert_eq!(
            retry,
            Reply::Int(seq as i64),
            "retried seq {seq}: exactly-once INCR implies reply == seq"
        );
        acked.push((seq, retry));
        // Fresh traffic for this round: INCRs with an LPUSH sprinkled in.
        for _ in 0..10 {
            seq += 1;
            let r = request(&mut stream, &mut dec, &incr(seq));
            assert_eq!(r, Reply::Int(seq as i64), "acked INCR reply == seq");
            acked.push((seq, r));
        }
        let p = request(&mut stream, &mut dec, &lpush(pushes + 1));
        assert!(matches!(p, Reply::Int(_)), "LPUSH acks an id: {p:?}");
        pushes += 1;
        // Fire one more request and kill without reading the reply —
        // a genuinely in-flight op for the next round to resolve.
        stream.write_all(&incr(seq + 1).encode()).unwrap();
        stream.flush().unwrap();
        kid.kill().unwrap(); // SIGKILL: no destructors, no checkpoint
        kid.wait().unwrap();
        drop(stream);
        // Reply-after-fence, checked in a third process-independent way:
        // a direct reopen shows every acked op, and at most the one
        // in-flight op beyond them.
        let (counter, list_len) = inspect_pool(&path, policy);
        let max_acked = acked.len() as i64;
        assert!(
            counter >= max_acked,
            "round {round}: acked seq {max_acked} lost (counter {counter})"
        );
        assert!(
            counter <= max_acked + 1,
            "round {round}: counter {counter} beyond sent ops {}",
            max_acked + 1
        );
        assert_eq!(list_len, pushes, "round {round}: LPUSH exactly-once");
        inflight_landed = counter == max_acked + 1;
    }
    // Final session: resolve the last in-flight op, then verify the
    // whole history one more time.
    let (mut kid, addr) = spawn_server(&path);
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut dec = ReplyDecoder::new();
    let seq = acked.len() as u64 + 1;
    let r = request(&mut stream, &mut dec, &incr(seq));
    assert_eq!(r, Reply::Int(seq as i64));
    acked.push((seq, r));
    // Retrying an LPUSH seq must not grow the list.
    let p = request(&mut stream, &mut dec, &lpush(pushes));
    assert!(matches!(p, Reply::Int(_)), "memoized LPUSH id: {p:?}");
    let v = request(
        &mut stream,
        &mut dec,
        &Command::Get {
            key: b"counter".to_vec(),
        },
    );
    assert_eq!(
        v,
        Reply::Value(Some(acked.len().to_string().into_bytes())),
        "counter equals the number of distinct acked seqs: exactly-once"
    );
    kid.kill().unwrap();
    kid.wait().unwrap();
    let (counter, list_len) = inspect_pool(&path, policy);
    assert_eq!(counter, acked.len() as i64);
    assert_eq!(list_len, pushes, "LPUSH retries never double-apply");
    remove_pool(&path);
}

#[test]
fn acked_ops_survive_sigkill_and_replay_is_exactly_once() {
    acked_ops_survive_sigkill(PersistPolicy::Full);
}

#[test]
fn acked_ops_survive_sigkill_and_replay_is_exactly_once_hybrid() {
    // The index is volatile: every recovery rebuilds it by spine replay.
    acked_ops_survive_sigkill(PersistPolicy::Hybrid);
}

fn memoized_error_replays_verbatim(policy: PersistPolicy) {
    // Exactly-once covers failures too: a SESSION op that answered
    // `-ERR` has *completed* — the error is the memoized reply, and a
    // retry of that seq must replay it verbatim, never re-execute the
    // inner command. Re-execution is observable here because the key is
    // repaired between the first delivery and the retry: a re-executed
    // INCR would suddenly succeed with `:6`.
    let path = temp_pool(&format!("memoerr_{policy:?}"));
    drop(open_pool(&path, policy));
    let key = || b"gauge".to_vec();
    let (mut kid, addr) = spawn_server(&path);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut dec = ReplyDecoder::new();
    // Poison the key: INCR over a non-integer value fails.
    let r = request(
        &mut stream,
        &mut dec,
        &Command::Set {
            key: key(),
            value: b"not-a-number".to_vec(),
        },
    );
    assert_eq!(r, Reply::Ok);
    let first = request(
        &mut stream,
        &mut dec,
        &sess(11, 1, Command::Incr { key: key() }),
    );
    let Reply::Err(msg) = &first else {
        panic!("INCR over a non-integer must fail, got {first:?}");
    };
    assert!(!msg.is_empty());
    // Repair the key: a *re-executed* INCR would now succeed.
    let r = request(
        &mut stream,
        &mut dec,
        &Command::Set {
            key: key(),
            value: b"5".to_vec(),
        },
    );
    assert_eq!(r, Reply::Ok);
    let retry = request(
        &mut stream,
        &mut dec,
        &sess(11, 1, Command::Incr { key: key() }),
    );
    assert_eq!(retry, first, "retried seq 1 must replay the memoized -ERR");
    // The memoized error must survive a SIGKILL too: the (seq, reply)
    // pair committed in the same FASE as the session bump.
    kid.kill().unwrap();
    kid.wait().unwrap();
    drop(stream);
    let (mut kid, addr) = spawn_server(&path);
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut dec = ReplyDecoder::new();
    let replayed = request(
        &mut stream,
        &mut dec,
        &sess(11, 1, Command::Incr { key: key() }),
    );
    assert_eq!(
        replayed, first,
        "memoized -ERR must replay verbatim across a kill"
    );
    // A fresh seq executes for real — proof the session is live and the
    // replays above were memoization, not a wedged error state.
    let next = request(
        &mut stream,
        &mut dec,
        &sess(11, 2, Command::Incr { key: key() }),
    );
    assert_eq!(
        next,
        Reply::Int(6),
        "seq 2 executes against the repaired key"
    );
    // And the failed seq never bumped the value behind the scenes.
    let v = request(&mut stream, &mut dec, &Command::Get { key: key() });
    assert_eq!(v, Reply::Value(Some(b"6".to_vec())));
    kid.kill().unwrap();
    kid.wait().unwrap();
    remove_pool(&path);
}

#[test]
fn session_retry_replays_a_memoized_error_verbatim() {
    memoized_error_replays_verbatim(PersistPolicy::Full);
}

#[test]
fn session_retry_replays_a_memoized_error_verbatim_hybrid() {
    memoized_error_replays_verbatim(PersistPolicy::Hybrid);
}

#[test]
fn reopen_keeps_the_recorded_policy_whatever_is_asked() {
    // A policy is a create-time choice: reopening a pool under the other
    // policy opens it as recorded and serves what was written before.
    for (created, asked) in [
        (PersistPolicy::Full, PersistPolicy::Hybrid),
        (PersistPolicy::Hybrid, PersistPolicy::Full),
    ] {
        let path = temp_pool(&format!("reopen_{created:?}"));
        let (heap, roots) = open_pool(&path, created);
        let (_, ticket) = heap.fase_ticketed(0, |tx| roots.execute_in(tx, &set("k".into())));
        heap.wait_durable(&ticket);
        drop(heap);
        let (heap, roots) = open_pool(&path, asked);
        assert_eq!(roots.kv.policy(), created);
        let handle = serve(heap, roots, "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut dec = ReplyDecoder::new();
        let get = Command::Get { key: b"k".to_vec() };
        assert_eq!(
            request(&mut stream, &mut dec, &get),
            Reply::Value(Some(b"v".to_vec())),
            "{created:?} pool reopened asking for {asked:?}"
        );
        drop(stream);
        handle.stop();
        remove_pool(&path);
    }
}

#[test]
fn acked_op_is_recoverable_at_every_step() {
    // The in-process, deterministic half of the battery: drive the exact
    // code path a connection uses (ticketed FASE → wait_durable → ack)
    // and take a crash image at *every* step — both before the fence
    // wait (op may or may not be in; state must be consistent) and after
    // it (op must be in: that is the ack the server would flush).
    for policy in [PersistPolicy::Full, PersistPolicy::Hybrid] {
        acked_op_recoverable_at_every_step(policy);
    }
}

fn acked_op_recoverable_at_every_step(policy: PersistPolicy) {
    let mut heap = ModHeap::create(Pmem::new(PmemConfig::testing()));
    let roots = ServerRoots::create(&mut heap, policy);
    let sh = SharedModHeap::from_heap_with(
        heap,
        2,
        CommitMode::Group {
            max_batch: 4,
            timeout: Duration::from_millis(1),
        },
    );
    sh.deregister(1); // one-connection server: a lone slot carries all ops
    let reopen = |img: Pmem| {
        let (mut h, _) = ModHeap::open(img);
        let counter: i64 = ServerRoots::open(&mut h)
            .unwrap()
            .kv
            .get(&h, &b"counter".to_vec())
            .map(|b| String::from_utf8(b).unwrap().parse().unwrap())
            .unwrap_or(0);
        counter
    };
    for k in 1..=32i64 {
        let (reply, ticket) = sh
            .try_fase_ticketed(0, |tx| roots.execute_in(tx, &incr(k as u64)))
            .unwrap();
        assert_eq!(reply, Reply::Int(k));
        // Crash between commit-request and fence wait: the op is either
        // fully in or fully out, never torn.
        let mid = reopen(sh.crash_image(CrashPolicy::OnlyFenced));
        assert!(
            mid == k || mid == k - 1,
            "step {k}: torn recovery state (counter {mid})"
        );
        // The ack point. Crashing anywhere after this — before the
        // reply bytes ever reach the socket — must preserve the op.
        sh.wait_durable(&ticket);
        let acked = reopen(sh.crash_image(CrashPolicy::OnlyFenced));
        assert_eq!(acked, k, "step {k}: acknowledged op lost");
    }
}

/// The group wait of the quorum tests: long enough that a write which
/// waits it out cannot pass for one that did not.
const QUORUM_TIMEOUT: Duration = Duration::from_millis(500);

/// A 2-worker in-memory heap whose batches close at 4 FASEs, when every
/// quorum slot has staged, or after [`QUORUM_TIMEOUT`].
fn quorum_heap() -> (SharedModHeap, ServerRoots) {
    let mut heap = ModHeap::create(Pmem::new(PmemConfig::testing()));
    let roots = ServerRoots::create(&mut heap, PersistPolicy::Full);
    let shared = SharedModHeap::from_heap_with(
        heap,
        2,
        CommitMode::Group {
            max_batch: 4,
            timeout: QUORUM_TIMEOUT,
        },
    );
    (shared, roots)
}

fn set(key: String) -> Command {
    Command::Set {
        key: key.into_bytes(),
        value: b"v".to_vec(),
    }
}

#[test]
fn quorum_idle_connection_does_not_hold_a_lone_set() {
    let (heap, roots) = quorum_heap();
    let handle = serve(heap, roots, "127.0.0.1:0").unwrap();
    // The PING round trip proves the idle client was accepted (onto
    // slot 0) before the writer connects (onto slot 1).
    let mut idle = TcpStream::connect(handle.addr()).unwrap();
    let mut idle_dec = ReplyDecoder::new();
    assert_eq!(
        request(&mut idle, &mut idle_dec, &Command::Ping),
        Reply::Pong
    );
    let mut writer = TcpStream::connect(handle.addr()).unwrap();
    let mut dec = ReplyDecoder::new();
    for i in 0..5 {
        let t0 = Instant::now();
        assert_eq!(
            request(&mut writer, &mut dec, &set(format!("k{i}"))),
            Reply::Ok
        );
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(100),
            "SET {i} took {took:?}: it waited on the idle client's slot"
        );
    }
    drop((idle, writer));
    handle.stop();
}

/// The largest value a frame may carry.
fn big_value() -> Vec<u8> {
    vec![b'x'; mod_server::MAX_BULK]
}

#[test]
fn quorum_mid_window_connections_share_one_batch() {
    let (heap, roots) = quorum_heap();
    let stats = heap.clone();
    let handle = serve(heap, roots, "127.0.0.1:0").unwrap();
    // B lands on slot 0, A on slot 1.
    let mut b = TcpStream::connect(handle.addr()).unwrap();
    let mut b_dec = ReplyDecoder::new();
    let big = Command::Set {
        key: b"big".to_vec(),
        value: big_value(),
    };
    assert_eq!(request(&mut b, &mut b_dec, &big), Reply::Ok);
    let mut a = TcpStream::connect(handle.addr()).unwrap();
    let mut a_dec = ReplyDecoder::new();
    assert_eq!(request(&mut a, &mut a_dec, &Command::Ping), Reply::Pong);
    // B holds a request mid-window: one full window of GETs whose 16 MiB
    // of replies cannot fit in the socket buffers while its client
    // reads nothing, then a SET for the next window.
    let get = Command::Get {
        key: b"big".to_vec(),
    };
    let mut wire: Vec<u8> = (0..16).flat_map(|_| get.encode()).collect();
    wire.extend(set("b".into()).encode());
    b.write_all(&wire).unwrap();
    // The first reply arriving means B's thread is in its `write`.
    assert_eq!(
        read_reply(&mut b, &mut b_dec),
        Reply::Value(Some(big_value()))
    );
    // A's SET stages, and its batch stays open: B's slot is in the
    // quorum and has not staged.
    let before = stats.stats();
    a.write_all(&set("a".into()).encode()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats.stats().fases == before.fases {
        assert!(Instant::now() < deadline, "A's SET never staged");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(stats.stats().batches, before.batches, "A's batch closed");
    // Let B finish its window: its SET stages, every quorum slot has now
    // staged, and the batch publishes.
    for _ in 1..16 {
        assert_eq!(
            read_reply(&mut b, &mut b_dec),
            Reply::Value(Some(big_value()))
        );
    }
    assert_eq!(read_reply(&mut b, &mut b_dec), Reply::Ok);
    assert_eq!(read_reply(&mut a, &mut a_dec), Reply::Ok);
    let after = stats.stats();
    assert_eq!(
        (
            after.batches - before.batches,
            after.batched_fases - before.batched_fases
        ),
        (1, 2),
        "A's SET and B's must share one batch"
    );
    drop((a, b));
    handle.stop();
}
