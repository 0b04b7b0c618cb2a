//! Per-connection loop: windowed pipelining with reply-after-fence.
//!
//! Each connection is pinned to a `SharedModHeap` worker slot and
//! processes requests in windows of up to `window` frames: every decoded
//! command stages one ticketed FASE, and the whole window's replies are
//! flushed **only after** [`mod_core::SharedModHeap::wait_durable`] on
//! the *last* ticket returns. Batches drain the handoff queue in FIFO
//! order, so the last FASE durable implies every earlier FASE of the
//! window is durable too — one wait covers the window. Under `Fsync`
//! that wait runs the sync round (or finds a concurrent one covered it),
//! so a connection's round covers every other connection's batches
//! committed before it too.
//!
//! The slot counts toward the batch-completion quorum only while the
//! connection holds a request: from a `read` that returns bytes until
//! the last window those bytes completed has been answered (a `Busy`
//! guard, so every exit path releases it). A connection blocked in
//! `read` — idle, or holding half a frame — never makes a peer's write
//! wait out the group timeout.
//!
//! Backpressure is explicit: a FASE that loses its staging-lane retry
//! budget is not buffered or blocked on — the client gets a `-BUSY`
//! reply (queue-full) and decides when to retry. `PING` never touches
//! the heap but its reply still rides the window, preserving
//! per-connection reply order.

use crate::engine::ServerRoots;
use crate::listener::Slots;
use crate::proto::{Command, FrameDecoder, Reply};
use mod_core::{CommitTicket, EngineError, SharedModHeap};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long a blocked read waits before re-checking the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

pub(crate) struct ConnCtx {
    pub heap: SharedModHeap,
    pub roots: ServerRoots,
    /// The worker slot this connection stages on (possibly shared).
    pub worker: usize,
    /// Max frames staged before a durability wait + reply flush.
    pub window: usize,
    /// The listener's slot table: `worker`'s busy count lives here.
    pub slots: Arc<Slots>,
    pub shutdown: Arc<AtomicBool>,
}

pub(crate) fn serve_conn(ctx: &ConnCtx, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut dec = FrameDecoder::new();
    let mut chunk = vec![0u8; 16 * 1024];
    let mut out = Vec::new();
    'conn: while !ctx.shutdown.load(Ordering::SeqCst) {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break, // orderly EOF
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => break,
        };
        // In the quorum until every window these bytes complete is
        // answered; the guard drops before the next `read` blocks, and
        // on every `break 'conn`. Poll wake-ups above never get here.
        let _busy = ctx.slots.hold(&ctx.heap, ctx.worker);
        dec.feed(&chunk[..n]);
        // Drain everything decodable, one reply window at a time.
        loop {
            out.clear();
            let mut batch = 0usize;
            let mut last_ticket: Option<CommitTicket> = None;
            // The journal sequence the window's snapshot reads need on
            // the medium before their replies may reveal what they saw.
            let mut read_frontier = 0u64;
            while batch < ctx.window {
                let tokens = match dec.next_frame() {
                    Ok(Some(t)) => t,
                    Ok(None) => break,
                    Err(e) => {
                        // Unframeable stream: report and hang up.
                        let _ = stream.write_all(&Reply::Err(format!("ERR {e}")).encode());
                        break 'conn;
                    }
                };
                batch += 1;
                let reply = match Command::parse(&tokens) {
                    Err(msg) => Reply::Err(msg),
                    Ok(Command::Ping) => Reply::Pong,
                    // Plain reads with no write in flight in this window
                    // are served from the latest published snapshot:
                    // off the commit pipeline entirely (no lane, no
                    // handoff push, no fence). Once a write has
                    // staged, reads rejoin the pipeline so the window
                    // keeps read-your-writes; sessioned reads always take
                    // the pipeline (their reply must be memoized in a
                    // FASE). Writes of *earlier* windows are covered:
                    // their snapshot published before their reply was
                    // flushed, so a client that saw an ack sees its write
                    // in every later snapshot. A snapshot publishes at
                    // commit, before its batch is on the medium, so the
                    // window waits for the view's frontier before any of
                    // its replies go out.
                    Ok(Command::Get { ref key }) if last_ticket.is_none() => {
                        let view = ctx.heap.snapshot();
                        read_frontier = read_frontier.max(view.frontier());
                        ctx.roots.get_from_snapshot(&view, key)
                    }
                    Ok(Command::RPeek) if last_ticket.is_none() => {
                        let view = ctx.heap.snapshot();
                        read_frontier = read_frontier.max(view.frontier());
                        ctx.roots.rpeek_from_snapshot(&view)
                    }
                    Ok(cmd) => {
                        match ctx
                            .heap
                            .try_fase_ticketed(ctx.worker, |tx| ctx.roots.execute_in(tx, &cmd))
                        {
                            Ok((reply, ticket)) => {
                                last_ticket = Some(ticket);
                                reply
                            }
                            // Queue-full backpressure, not buffering.
                            Err(EngineError::Contention(_)) => {
                                Reply::Err("BUSY staging lanes contended; retry the request".into())
                            }
                            // Engine-fatal: another thread panicked
                            // mid-commit. Earlier replies in this window
                            // were never acked (their fence can't run),
                            // so drop them — flushing would promise
                            // durability the journal no longer has —
                            // answer with the typed error, and hang up.
                            Err(EngineError::Poisoned(e)) => {
                                let _ = stream.write_all(&Reply::Err(format!("ERR {e}")).encode());
                                break 'conn;
                            }
                        }
                    }
                };
                reply.encode_into(&mut out);
            }
            if batch == 0 {
                break;
            }
            // Reply-after-fence: nothing reaches the socket until every
            // batch a reply reveals is on the medium — the snapshots the
            // window read (a single comparison under `Buffered`), then
            // the window's last FASE and, by drain order, all before it.
            // A poisoned engine fails the ticket wait: the window's
            // replies are unackable, so they are dropped and the
            // connection closes with a typed error instead of a
            // worker-thread panic cascade.
            ctx.heap.wait_synced(read_frontier);
            if let Some(t) = &last_ticket {
                if let Err(e) = ctx.heap.try_wait_durable(t) {
                    let _ = stream.write_all(&Reply::Err(format!("ERR {e}")).encode());
                    break 'conn;
                }
            }
            if stream.write_all(&out).is_err() || stream.flush().is_err() {
                break 'conn;
            }
        }
    }
}
