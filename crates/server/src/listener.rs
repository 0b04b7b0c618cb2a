//! The TCP listener: accepts connections and multiplexes them onto the
//! shared heap's worker shards.
//!
//! Each accepted connection is pinned to the worker slot with the fewest
//! connections for its lifetime (connections may share a slot — staging
//! serializes on the shard mutex). The connection count only places
//! connections. The batch-completion quorum counts **busy** slots: a slot
//! joins it ([`SharedModHeap::register`]) when one of its connections
//! reads request bytes and leaves it ([`SharedModHeap::deregister`]) when
//! its last busy connection has answered everything it read and goes back
//! to blocking in `read`. A connected but idle client therefore never
//! holds a batch open, and leaving the quorum also publishes a batch the
//! remaining busy slots have all staged — the peer's waiting write.

use crate::conn::{serve_conn, ConnCtx};
use crate::engine::ServerRoots;
use mod_core::SharedModHeap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tunables for [`serve`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Per-connection pipelining window: max frames staged before a
    /// durability wait and reply flush.
    pub window: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { window: 16 }
    }
}

/// Starts the server on `addr` (use port 0 for an ephemeral port) with
/// the default config. Returns once the listener is bound; connections
/// are served on background threads until [`ServerHandle::stop`].
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn serve(
    heap: SharedModHeap,
    roots: ServerRoots,
    addr: impl ToSocketAddrs,
) -> io::Result<ServerHandle> {
    serve_with(heap, roots, addr, ServerConfig::default())
}

/// [`serve`] with explicit tunables.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable.
pub fn serve_with(
    heap: SharedModHeap,
    roots: ServerRoots,
    addr: impl ToSocketAddrs,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    // No request held yet: take every shard out of the quorum so the
    // first request's FASEs don't wait on idle workers.
    let workers = heap.workers();
    for w in 0..workers {
        heap.deregister(w);
    }
    let slots = Arc::new(Slots(Mutex::new(vec![SlotLoad::default(); workers])));
    let accept = {
        let shutdown = Arc::clone(&shutdown);
        let slots = Arc::clone(&slots);
        let window = cfg.window.max(1);
        std::thread::spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            while !shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let worker = slots.place();
                        let ctx = ConnCtx {
                            heap: heap.clone(),
                            roots,
                            worker,
                            window,
                            slots: Arc::clone(&slots),
                            shutdown: Arc::clone(&shutdown),
                        };
                        conns.push(std::thread::spawn(move || {
                            serve_conn(&ctx, stream);
                            ctx.slots.lock()[worker].conns -= 1;
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                        conns.retain(|h| !h.is_finished());
                    }
                    Err(_) => break,
                }
            }
            for h in conns {
                let _ = h.join();
            }
        })
    };
    Ok(ServerHandle {
        addr: local,
        shutdown,
        accept: Some(accept),
        #[cfg(test)]
        slots,
    })
}

/// Per-slot load, under one mutex so that a busy-count transition and
/// the (de)registration it implies stay atomic.
#[derive(Debug)]
pub(crate) struct Slots(Mutex<Vec<SlotLoad>>);

#[derive(Clone, Copy, Debug, Default)]
struct SlotLoad {
    /// Connections pinned to the slot; only used to place new ones.
    conns: usize,
    /// Connections on the slot that hold a request: the slot is in the
    /// quorum exactly while this is nonzero.
    busy: usize,
}

impl Slots {
    /// Held only for count updates and the (de)registration a busy
    /// transition makes. A panic cannot leave a count half-updated, so
    /// a poisoned lock is still consistent.
    fn lock(&self) -> MutexGuard<'_, Vec<SlotLoad>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pins a new connection to the slot with the fewest connections.
    fn place(&self) -> usize {
        let mut s = self.lock();
        let w = (0..s.len()).min_by_key(|&w| s[w].conns).unwrap_or(0);
        s[w].conns += 1;
        w
    }

    /// Marks `worker` busy until the returned guard drops. The first
    /// busy connection registers the slot; the last one to drop its
    /// guard deregisters it, which publishes a batch every remaining
    /// busy slot has staged.
    pub(crate) fn hold<'a>(&'a self, heap: &'a SharedModHeap, worker: usize) -> Busy<'a> {
        let mut s = self.lock();
        s[worker].busy += 1;
        if s[worker].busy == 1 {
            heap.register(worker);
        }
        Busy {
            slots: self,
            heap,
            worker,
        }
    }
}

/// A connection's claim on its slot's quorum membership (see
/// [`Slots::hold`]); dropping it on any exit path leaves the slot idle.
pub(crate) struct Busy<'a> {
    slots: &'a Slots,
    heap: &'a SharedModHeap,
    worker: usize,
}

impl Drop for Busy<'_> {
    fn drop(&mut self) {
        let mut s = self.slots.lock();
        s[self.worker].busy -= 1;
        if s[self.worker].busy == 0 {
            self.heap.deregister(self.worker);
        }
    }
}

/// A running server. Dropping it (or calling [`ServerHandle::stop`])
/// shuts the listener down and joins every connection thread, so the
/// caller's `SharedModHeap` clone is the only one left afterwards.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    #[cfg(test)]
    slots: Arc<Slots>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, disconnects idle connections, and joins all
    /// server threads.
    pub fn stop(mut self) {
        self.shutdown_join();
    }

    fn shutdown_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Command, Reply, ReplyDecoder};
    use mod_core::{CommitMode, ModHeap, PersistPolicy};
    use mod_pmem::{Pmem, PmemConfig};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Instant;

    const TIMEOUT: Duration = Duration::from_millis(500);

    fn start() -> ServerHandle {
        let mut heap = ModHeap::create(Pmem::new(PmemConfig::testing()));
        let roots = ServerRoots::create(&mut heap, PersistPolicy::Full);
        let heap = SharedModHeap::from_heap_with(
            heap,
            2,
            CommitMode::Group {
                max_batch: 4,
                timeout: TIMEOUT,
            },
        );
        serve(heap, roots, "127.0.0.1:0").unwrap()
    }

    fn set(key: String) -> Vec<u8> {
        Command::Set {
            key: key.into_bytes(),
            value: b"v".to_vec(),
        }
        .encode()
    }

    /// Writes `wire`, then reads replies until `n` arrived or the server
    /// hung up; returns them.
    fn exchange(s: &mut TcpStream, wire: &[u8], n: usize) -> Vec<Reply> {
        s.write_all(wire).unwrap();
        let mut dec = ReplyDecoder::new();
        let mut got = Vec::new();
        let mut buf = [0u8; 4096];
        while got.len() < n {
            if let Some(r) = dec.next_reply().unwrap() {
                got.push(r);
                continue;
            }
            match s.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(k) => dec.feed(&buf[..k]),
            }
        }
        got
    }

    #[test]
    fn quorum_busy_counts_return_to_zero_on_every_exit_path() {
        let handle = start();
        let addr = handle.addr();
        // Three connections on two slots, bursts of 1..=5 pipelined SETs.
        let bursts: Vec<_> = (0..3)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut s = TcpStream::connect(addr).unwrap();
                    for round in 0..20usize {
                        let k = 1 + (round + c) % 5;
                        let wire: Vec<u8> = (0..k)
                            .flat_map(|i| set(format!("c{c}r{round}i{i}")))
                            .collect();
                        assert_eq!(exchange(&mut s, &wire, k), vec![Reply::Ok; k]);
                    }
                })
            })
            .collect();
        // Half a frame, then a hang-up: the decoder never completes it.
        let mut half = TcpStream::connect(addr).unwrap();
        let frame = set("half".into());
        half.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(half);
        // A staged SET followed by an unframeable stream: `-ERR`, close.
        let mut bad = TcpStream::connect(addr).unwrap();
        let mut wire = set("staged".into());
        wire.extend_from_slice(b"*x\r\n");
        let replies = exchange(&mut bad, &wire, 2);
        assert!(
            matches!(replies.as_slice(), [Reply::Err(_)]),
            "unframeable stream: {replies:?}"
        );
        drop(bad);
        for b in bursts {
            b.join().unwrap();
        }
        // Every connection is gone once its thread drops its count.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let load = handle.slots.lock().clone();
            if load.iter().all(|l| l.conns == 0 && l.busy == 0) {
                break;
            }
            assert!(Instant::now() < deadline, "slot load stuck at {load:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
        // No slot stayed in the quorum: a lone SET on either slot (the
        // second connection lands on slot 1) acks well under the wait.
        let mut fresh: Vec<TcpStream> = (0..2)
            .map(|_| {
                let mut s = TcpStream::connect(addr).unwrap();
                let ping = Command::Ping.encode();
                assert_eq!(exchange(&mut s, &ping, 1), vec![Reply::Pong]);
                s
            })
            .collect();
        for (i, s) in fresh.iter_mut().enumerate() {
            let t0 = Instant::now();
            assert_eq!(exchange(s, &set(format!("fresh{i}")), 1), vec![Reply::Ok]);
            let took = t0.elapsed();
            assert!(took < TIMEOUT / 5, "fresh SET {i} took {took:?}");
        }
        drop(fresh);
        handle.stop();
    }
}
