//! Durable server, end to end: serve a file-backed pool over TCP, talk
//! to it with real clients, `SIGKILL` the server mid-stream, recover,
//! and re-query — the wire contract (`reply-after-fence` + exactly-once
//! sessions) demonstrated in one run.
//!
//! The parent spawns this same binary in `server` mode as the child
//! process, so the kill lands on a real process and recovery shares
//! nothing with it but the pool file.
//!
//! ```text
//! cargo run --release --example durable_server
//! ```

use mod_core::CommitMode;
use mod_server::{pool, serve, Command, Reply, ReplyDecoder};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Stdio};
use std::time::Duration;

fn main() {
    let mut args = std::env::args().skip(1);
    if let Some(mode) = args.next() {
        assert_eq!(mode, "server", "usage: durable_server [server <path>]");
        let path = PathBuf::from(args.next().expect("server needs a pool path"));
        server(&path);
        return;
    }
    parent();
}

/// Child mode: serve the pool until killed.
fn server(path: &Path) {
    let (heap, roots) = pool::open_or_create(
        path,
        2,
        CommitMode::Group {
            max_batch: 8,
            timeout: Duration::from_millis(2),
        },
    )
    .expect("open pool");
    let handle = serve(heap, roots, "127.0.0.1:0").expect("bind");
    println!("LISTENING {}", handle.addr());
    std::io::stdout().flush().unwrap();
    loop {
        std::thread::park(); // until SIGKILL
    }
}

fn spawn_server(exe: &Path, pool: &Path) -> (Child, SocketAddr) {
    let mut kid = std::process::Command::new(exe)
        .arg("server")
        .arg(pool)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn server child");
    let mut lines = BufReader::new(kid.stdout.take().unwrap());
    let mut line = String::new();
    lines.read_line(&mut line).expect("server banner");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .expect("LISTENING banner")
        .parse()
        .expect("socket address");
    (kid, addr)
}

/// One synchronous request. Returning from here is the durability
/// guarantee: the reply was flushed only after the op's batch fence.
fn request(stream: &mut TcpStream, dec: &mut ReplyDecoder, cmd: &Command) -> Reply {
    stream.write_all(&cmd.encode()).expect("send");
    let mut buf = [0u8; 4096];
    loop {
        if let Some(r) = dec.next_reply().expect("valid reply stream") {
            return r;
        }
        let n = stream.read(&mut buf).expect("recv");
        assert!(n > 0, "server hung up");
        dec.feed(&buf[..n]);
    }
}

fn sess(seq: u64, inner: Command) -> Command {
    Command::Session {
        client: 1,
        seq,
        inner: Box::new(inner),
    }
}

fn parent() {
    let mut path = std::env::temp_dir();
    path.push(format!("mod_durable_server_{}.pool", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let exe = std::env::current_exe().expect("current_exe");

    // ---- Lifetime 1: a client does acknowledged, sessioned work. ----
    let (mut kid, addr) = spawn_server(&exe, &path);
    let mut c = TcpStream::connect(addr).expect("connect");
    let mut dec = ReplyDecoder::new();
    for seq in 1..=20u64 {
        let r = request(
            &mut c,
            &mut dec,
            &sess(
                seq,
                Command::Incr {
                    key: b"hits".to_vec(),
                },
            ),
        );
        assert_eq!(r, Reply::Int(seq as i64), "acked INCR == seq");
    }
    let r = request(
        &mut c,
        &mut dec,
        &Command::Set {
            key: b"motd".to_vec(),
            value: b"durable hello".to_vec(),
        },
    );
    assert_eq!(r, Reply::Ok);
    println!("lifetime 1: 20 sessioned INCRs + a SET acknowledged");

    // Fire one more request and pull the plug before reading the reply:
    // a genuinely in-flight op whose fate the client cannot know.
    c.write_all(
        &sess(
            21,
            Command::Incr {
                key: b"hits".to_vec(),
            },
        )
        .encode(),
    )
    .expect("send in-flight op");
    kid.kill().expect("SIGKILL the server"); // no destructors, no checkpoint
    kid.wait().expect("reap");
    drop(c);
    println!("killed the server with seq 21 in flight");

    // ---- Lifetime 2: recover, retry, verify exactly-once. ----
    let (mut kid, addr) = spawn_server(&exe, &path);
    let mut c = TcpStream::connect(addr).expect("reconnect");
    let mut dec = ReplyDecoder::new();
    // Everything acknowledged before the kill must still be there.
    let motd = request(
        &mut c,
        &mut dec,
        &Command::Get {
            key: b"motd".to_vec(),
        },
    );
    assert_eq!(motd, Reply::Value(Some(b"durable hello".to_vec())));
    // The ordinary client retry resolves the in-flight op: the server
    // either applies it now or replays the memoized reply — exactly
    // once either way.
    let r = request(
        &mut c,
        &mut dec,
        &sess(
            21,
            Command::Incr {
                key: b"hits".to_vec(),
            },
        ),
    );
    assert_eq!(r, Reply::Int(21), "retried seq 21 applied exactly once");
    // And retrying it *again* replays the memoized reply, no re-execute.
    let again = request(
        &mut c,
        &mut dec,
        &sess(
            21,
            Command::Incr {
                key: b"hits".to_vec(),
            },
        ),
    );
    assert_eq!(again, Reply::Int(21), "memoized replay");
    let hits = request(
        &mut c,
        &mut dec,
        &Command::Get {
            key: b"hits".to_vec(),
        },
    );
    assert_eq!(hits, Reply::Value(Some(b"21".to_vec())));
    println!("lifetime 2: recovery kept all 20 acks, retry applied seq 21 exactly once");
    kid.kill().expect("final kill");
    kid.wait().expect("reap");
    for member in mod_pmem::FileBackend::member_paths(&path, 1) {
        std::fs::remove_file(member).expect("cleanup");
    }
    println!("durable_server: acked ⇒ durable, retries ⇒ exactly-once ✓");
}
