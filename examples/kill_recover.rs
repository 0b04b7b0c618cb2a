//! Kill-and-recover: the first crash test in this repo that survives a
//! real process death.
//!
//! The parent spawns a **child process** (this same binary in `child`
//! mode) that writes a persistent session — one FASE per op over a map,
//! a queue and a counter in a file-backed pool — then `SIGKILL`s it at
//! an arbitrary point, reopens the pool file in the parent, and verifies
//! the recovered state against the session's shadow model: every
//! committed FASE present, all-or-nothing across all three structures,
//! any torn journal tail discarded at the last complete fence. Several
//! rounds run back-to-back, each child resuming from the state the
//! previous kill left behind.
//!
//! ```text
//! cargo run --release --example kill_recover
//! ```

use mod_workloads::session::{open_session, run_ops, verify_session, SessionShape};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

const SEED: u64 = 0xC0FF_EE00;
/// Ops the child aims for — far more than it survives to write.
const CHILD_TARGET: u64 = 5_000_000;
/// Kill delays per round, ms (progressively longer lifetimes).
const ROUND_MS: [u64; 6] = [40, 70, 110, 150, 200, 260];

fn main() {
    let mut args = std::env::args().skip(1);
    if let Some(mode) = args.next() {
        assert_eq!(mode, "child", "usage: kill_recover [child <path>]");
        let path = PathBuf::from(args.next().expect("child needs a pool path"));
        child(&path);
        return;
    }
    parent();
}

/// The writer: open (or create) the session and write until killed.
fn child(path: &Path) {
    let mut session =
        open_session(path, SessionShape::Buffered, SEED).expect("child failed to open session");
    run_ops(&mut session, CHILD_TARGET);
    drop(session.heap.close().expect("orderly close"));
}

fn parent() {
    let mut path = std::env::temp_dir();
    path.push(format!("mod_kill_recover_{}.pool", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let exe = std::env::current_exe().expect("current_exe");

    let mut last_committed = 0u64;
    for (round, &ms) in ROUND_MS.iter().enumerate() {
        let mut kid = Command::new(&exe)
            .arg("child")
            .arg(&path)
            .spawn()
            .expect("spawn child writer");
        std::thread::sleep(Duration::from_millis(ms));
        kid.kill().expect("SIGKILL the writer"); // SIGKILL on unix
        let status = kid.wait().expect("reap child");
        // The child either died of the kill or (unlikely, huge target)
        // finished cleanly; both are valid inputs to recovery.
        let committed = verify_session(&path, SEED)
            .unwrap_or_else(|e| panic!("round {round}: recovery verification failed: {e}"));
        assert!(
            committed >= last_committed,
            "round {round}: committed ops went backwards ({last_committed} -> {committed})"
        );
        println!(
            "round {round}: killed after {ms} ms (status {status}) — \
             {committed} committed FASEs verified intact (+{})",
            committed - last_committed
        );
        last_committed = committed;
    }
    assert!(
        last_committed > 0,
        "no round committed anything — kills came before the first fence"
    );

    // Final lifetime: finish a clean tail in-process and close properly.
    let mut session = open_session(&path, SessionShape::Buffered, SEED).expect("final reopen");
    let resume = session.committed;
    run_ops(&mut session, resume + 1_000);
    let pm = session.heap.close().expect("orderly close");
    let backend = pm.backend_stats();
    let pool_bytes = pm.backend_file_bytes().expect("pool members");
    drop(pm);
    let committed = verify_session(&path, SEED).expect("post-close verify");
    assert_eq!(committed, resume + 1_000);
    println!(
        "clean tail: resumed at {resume}, closed at {committed} \
         ({} fence records, {} journal bytes, pool files {pool_bytes} B)",
        backend.fence_batches, backend.journal_bytes
    );
    println!(
        "checkpoints: {} completed ({} failed), {} B written home, longest {:.2} ms",
        backend.compactions,
        backend.checkpoint_failures,
        backend.checkpoint_bytes,
        backend.longest_checkpoint_ns as f64 / 1e6
    );
    for member in mod_pmem::FileBackend::member_paths(&path, backend.journal_shards as u16) {
        std::fs::remove_file(member).expect("cleanup");
    }
    println!("kill_recover: all rounds recovered all-or-nothing ✓");
}
