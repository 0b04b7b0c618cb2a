//! The `mod-server` binary: serve a file-backed durable pool over TCP.
//!
//! ```text
//! mod_server serve <pool-file> [--addr A] [--workers N] [--window W] [--timeout-ms T]
//!                              [--durability fsync|buffered] [--journal-shards N]
//!                              [--persist-policy full|hybrid]
//! ```
//!
//! `serve` prints `LISTENING <addr>` once the socket is bound and runs
//! until killed; a `SIGKILL` at any point leaves the pool recoverable
//! (that is the point).

use mod_core::{CommitMode, PersistPolicy};
use mod_pmem::Durability;
use mod_server::{pool, serve_with, ServerConfig};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         mod_server serve <pool-file> [--addr A] [--workers N] [--window W] [--timeout-ms T]\n  \
         \x20                         [--durability fsync|buffered] [--journal-shards N]\n  \
         \x20                         [--persist-policy full|hybrid]\n\n\
         --timeout-ms bounds how long a write waits for another connection that is\n\
         mid-request to stage into the same batch (default 2); an idle connection\n\
         never holds a batch open.\n\n\
         --persist-policy hybrid keeps interior index nodes volatile (journaling only\n\
         compact op records; the index is rebuilt from them at recovery).\n\
         --persist-policy applies when the pool is created; an existing pool keeps its\n\
         recorded policy, like --journal-shards."
    );
    std::process::exit(2);
}

/// Pulls `--flag value` pairs out of `args`, returning leftover
/// positional arguments.
fn split_flags(args: &[String]) -> (Vec<String>, Vec<(String, String)>) {
    let mut pos = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            match it.next() {
                Some(v) => flags.push((name.to_string(), v.clone())),
                None => usage(),
            }
        } else {
            pos.push(a.clone());
        }
    }
    (pos, flags)
}

fn flag<T: std::str::FromStr>(flags: &[(String, String)], name: &str, default: T) -> T {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else { usage() };
    let (pos, flags) = split_flags(&args[1..]);
    match mode.as_str() {
        "serve" => {
            let [pool_path] = pos.as_slice() else { usage() };
            let addr: String = flag(&flags, "addr", "127.0.0.1:0".to_string());
            let workers: usize = flag(&flags, "workers", 4).max(1);
            let window: usize = flag(&flags, "window", 16).max(1);
            let timeout_ms: u64 = flag(&flags, "timeout-ms", 2);
            // Power-loss-grade by default: an acked op must survive a
            // power cut, not just a SIGKILL. A connection's reply wait
            // runs the sync round, off the commit lock, and it covers
            // every batch any connection committed before it.
            let durability = match flag(&flags, "durability", "fsync".to_string()).as_str() {
                "fsync" => Durability::Fsync,
                "buffered" => Durability::Buffered,
                _ => usage(),
            };
            let journal_shards: u16 = flag(&flags, "journal-shards", workers as u16).max(1);
            let policy = match flag(&flags, "persist-policy", "full".to_string()).as_str() {
                "full" => PersistPolicy::Full,
                "hybrid" => PersistPolicy::Hybrid,
                _ => usage(),
            };
            let mode = CommitMode::Group {
                max_batch: workers.max(4),
                timeout: Duration::from_millis(timeout_ms.max(1)),
            };
            let (heap, roots) = pool::open_or_create_with(
                pool_path.as_ref(),
                workers,
                mode,
                durability,
                journal_shards,
                policy,
            )
            .unwrap_or_else(|e| {
                eprintln!("cannot open pool {pool_path}: {e}");
                std::process::exit(1);
            });
            let handle = serve_with(heap, roots, addr.as_str(), ServerConfig { window })
                .unwrap_or_else(|e| {
                    eprintln!("cannot bind {addr}: {e}");
                    std::process::exit(1);
                });
            // Parsable by scripts and the kill -9 battery.
            println!("LISTENING {}", handle.addr());
            use std::io::Write;
            let _ = std::io::stdout().flush();
            loop {
                std::thread::park();
            }
        }
        _ => usage(),
    }
}
