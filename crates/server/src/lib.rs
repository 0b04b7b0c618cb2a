//! # mod-server — a durable network front end over `SharedModHeap`
//!
//! The repo's workloads are closed-loop in-process simulations; this
//! crate puts real bytes on real sockets in front of the MOD heap, with
//! the two guarantees a durable store owes its clients:
//!
//! * **Reply-after-fence.** A worker FASE's reply is queued until the
//!   batch carrying that FASE publishes — one `sfence`, one root
//!   directory swing — and, on an fsync pool, a sync round has put its
//!   journal record on the medium; only then is it flushed to the socket
//!   ([`mod_core::CommitTicket`] + [`mod_core::SharedModHeap::wait_durable`]).
//!   A client that reads `+OK` knows the operation survives a crash:
//!   MOD's single commit point makes the durability boundary exactly
//!   one fence wait wide.
//! * **Exactly-once sessions.** `SESSION <client> <seq>`-prefixed
//!   requests record `(seq, reply)` in the same FASE as the application
//!   update, so a retry after reconnect or crash replays the memoized
//!   reply instead of re-executing (see [`engine`]).
//!
//! The pieces: [`proto`] (the RESP-style wire codec, shared with the
//! closed-loop memcached simulation), [`engine`] (typed durable state +
//! command execution) and [`serve`] (threaded TCP listener multiplexing
//! connections onto worker shards). Load generation and every
//! throughput/latency number live in `benchmark/` (workload
//! `server_kv_mixed`), which spawns the `mod_server` binary.
//!
//! ## Example
//!
//! ```
//! use mod_core::{CommitMode, SharedModHeap};
//! use mod_pmem::{Pmem, PmemConfig};
//! use mod_server::{serve, Command, Reply, ServerRoots};
//! use std::time::Duration;
//!
//! let mut heap = mod_core::ModHeap::create(Pmem::new(PmemConfig::testing()));
//! let roots = ServerRoots::create(&mut heap, mod_core::PersistPolicy::Full);
//! let shared = SharedModHeap::from_heap_with(
//!     heap,
//!     2,
//!     CommitMode::Group { max_batch: 8, timeout: Duration::from_millis(2) },
//! );
//! let handle = serve(shared, roots, "127.0.0.1:0").unwrap();
//!
//! // Any RESP client works; here: raw sockets.
//! use std::io::{Read, Write};
//! let mut c = std::net::TcpStream::connect(handle.addr()).unwrap();
//! c.write_all(&Command::Set { key: b"k".to_vec(), value: b"v".to_vec() }.encode())
//!     .unwrap();
//! let mut dec = mod_server::ReplyDecoder::new();
//! let mut buf = [0u8; 512];
//! let reply = loop {
//!     let n = c.read(&mut buf).unwrap();
//!     dec.feed(&buf[..n]);
//!     if let Some(r) = dec.next_reply().unwrap() {
//!         break r;
//!     }
//! };
//! assert_eq!(reply, Reply::Ok); // and the SET is already fenced
//! handle.stop();
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod pool;
pub mod proto;

mod conn;
mod listener;

pub use engine::ServerRoots;
pub use listener::{serve, serve_with, ServerConfig, ServerHandle};
pub use proto::{
    encode_tokens, Command, FrameDecoder, ProtoError, Reply, ReplyDecoder, MAX_ARGS, MAX_BULK,
};
