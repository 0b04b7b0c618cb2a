//! The durable command engine: typed server state over a `ModHeap` and
//! the exactly-once session discipline.
//!
//! All server state lives in five typed roots, created (and reopened) in
//! a fixed directory order chosen so that **every command acquires its
//! staging lanes in ascending root order** — the deadlock-free fast path
//! of the concurrent staging layer — whatever mix of sessioned and plain
//! commands the connections throw at it:
//!
//! | root | structure | role |
//! |------|-----------|------|
//! | 0 | `DurableMap<u64, Vec<u8>>` | sessions: client → seq ‖ memoized reply |
//! | 1 | `DurableMap<Vec<u8>, Vec<u8>>` | the KV store (GET/SET/DEL/INCR) |
//! | 2 | `DurableVector<u64>` | next list-element id (one slot) |
//! | 3 | `DurableQueue<u64>` | list order: element ids FIFO |
//! | 4 | `DurableMap<u64, Vec<u8>>` | list payloads: id → bytes |
//!
//! (The list is id-indirected because the queue substrate carries `u64`
//! words; LPUSH allocates an id from root 2, stores the payload in root
//! 4 and enqueues the id in root 3 — one FASE, one ordering point.)
//!
//! ## Exactly-once sessions
//!
//! A [`Command::Session`] wraps an inner command with `(client, seq)`.
//! The session record — `seq` (8 bytes LE) followed by the wire-encoded
//! reply — is written **in the same FASE as the application update**, so
//! the root-directory swing that makes the update durable also makes the
//! "already applied" marker durable: there is no window where one is
//! persistent without the other. A retried `seq` therefore returns the
//! memoized reply without re-executing (and without staging anything —
//! the replay FASE is a free no-op), and an out-of-order `seq` is
//! rejected.
//!
//! Read-modify-write commands take the root's staging lane *before*
//! reading (`touch_in`): plain in-FASE reads are lock-free, so without
//! the hold two workers could interleave read→write on the same root
//! and lose an update or double-apply a session.

use crate::proto::{Command, Reply};
use mod_core::{
    DurableMap, DurableQueue, DurableVector, Fase, ModHeap, OpenError, PersistPolicy, SnapshotView,
};

/// Handles to the five typed server roots (cheap to copy; all state is
/// in the heap).
#[derive(Clone, Copy, Debug)]
pub struct ServerRoots {
    /// Root 0 — session records: client id → `seq ‖ encoded reply`.
    pub sessions: DurableMap<u64, Vec<u8>>,
    /// Root 1 — the KV store.
    pub kv: DurableMap<Vec<u8>, Vec<u8>>,
    /// Root 2 — next list-element id (single slot).
    pub next_id: DurableVector<u64>,
    /// Root 3 — list element ids, FIFO.
    pub list_ids: DurableQueue<u64>,
    /// Root 4 — list element payloads by id.
    pub list_blobs: DurableMap<u64, Vec<u8>>,
}

impl ServerRoots {
    /// Publishes the five roots into a fresh heap (directory indices
    /// 0–4, in lane order).
    pub fn create(heap: &mut ModHeap, policy: PersistPolicy) -> ServerRoots {
        let sessions = heap.root(0).policy(policy).create();
        let kv = heap.root(1).policy(policy).create();
        let next_id: DurableVector<u64> = heap.root(2).policy(policy).create();
        next_id.push_back(heap, &0);
        let list_ids = heap.root(3).policy(policy).create();
        let list_blobs = heap.root(4).policy(policy).create();
        ServerRoots {
            sessions,
            kv,
            next_id,
            list_ids,
            list_blobs,
        }
    }

    /// Reattaches to the roots of a reopened pool under the persistence
    /// policy they were created with, verifying kinds and codecs against
    /// the persistent directory.
    ///
    /// # Errors
    ///
    /// Returns the first root that is missing or of the wrong shape.
    pub fn open(heap: &mut ModHeap) -> Result<ServerRoots, OpenError> {
        Ok(ServerRoots {
            sessions: heap.root(0).open()?,
            kv: heap.root(1).open()?,
            next_id: heap.root(2).open()?,
            list_ids: heap.root(3).open()?,
            list_blobs: heap.root(4).open()?,
        })
    }

    /// Executes one command inside an in-progress FASE and returns its
    /// reply. The staged updates — application state *and* session
    /// record — publish together at the FASE's single ordering point;
    /// the caller must not flush the reply to a client before that fence
    /// has executed (reply-after-fence).
    pub fn execute_in(&self, tx: &mut Fase<'_>, cmd: &Command) -> Reply {
        match cmd {
            Command::Session { client, seq, inner } => {
                self.execute_session(tx, *client, *seq, inner)
            }
            plain => self.execute_plain(tx, plain),
        }
    }

    fn execute_plain(&self, tx: &mut Fase<'_>, cmd: &Command) -> Reply {
        match cmd {
            Command::Ping => Reply::Pong,
            Command::Get { key } => {
                // Lane-held read: serializes against in-flight same-batch
                // writers, so a GET pipelined behind a SET sees it.
                self.kv.touch_in(tx);
                Reply::Value(self.kv.get(&*tx, key))
            }
            Command::Set { key, value } => {
                self.kv.insert_in(tx, key, value);
                Reply::Ok
            }
            Command::Del { key } => Reply::Int(i64::from(self.kv.remove_in(tx, key))),
            Command::Incr { key } => {
                self.kv.touch_in(tx); // hold the lane across read → write
                let cur = match self.kv.get(&*tx, key) {
                    None => 0,
                    Some(bytes) => match std::str::from_utf8(&bytes)
                        .ok()
                        .and_then(|s| s.parse::<i64>().ok())
                    {
                        Some(v) => v,
                        None => {
                            return Reply::Err("ERR value is not an integer or out of range".into())
                        }
                    },
                };
                let next = cur.wrapping_add(1);
                self.kv.insert_in(tx, key, &next.to_string().into_bytes());
                Reply::Int(next)
            }
            Command::LPush { value } => {
                self.next_id.touch_in(tx); // id allocation is read-modify-write
                let id = self.next_id.get(&*tx, 0);
                self.next_id.update_in(tx, 0, &(id + 1));
                self.list_ids.enqueue_in(tx, &id);
                self.list_blobs.insert_in(tx, &id, value);
                Reply::Int(id as i64)
            }
            Command::RPeek => {
                // Lane-held read pair: the front id and its payload must
                // come from one list state, so both lanes are taken in
                // root order before either read.
                self.list_ids.touch_in(tx);
                match self.list_ids.peek(&*tx) {
                    None => Reply::Value(None),
                    Some(id) => {
                        self.list_blobs.touch_in(tx);
                        match self.list_blobs.get(&*tx, &id) {
                            Some(b) => Reply::Value(Some(b)),
                            None => Reply::Err("ERR list id without payload".into()),
                        }
                    }
                }
            }
            Command::RPop => match self.list_ids.dequeue_in(tx) {
                None => Reply::Value(None),
                Some(id) => {
                    self.list_blobs.touch_in(tx); // lane before lock-free read
                    let blob = self.list_blobs.get(&*tx, &id);
                    self.list_blobs.remove_in(tx, &id);
                    match blob {
                        Some(b) => Reply::Value(Some(b)),
                        None => Reply::Err("ERR list id without payload".into()),
                    }
                }
            },
            Command::Session { .. } => Reply::Err("ERR SESSION cannot nest".into()),
        }
    }

    /// Answers a `GET` from a pinned snapshot view — wait-free: no
    /// staging lanes, no handoff push, no fence. The view is one
    /// batch-atomic image, so the reply can never mix commits.
    pub fn get_from_snapshot(&self, view: &SnapshotView<'_>, key: &Vec<u8>) -> Reply {
        Reply::Value(self.kv.get(view, key))
    }

    /// Answers an `RPEEK` from a pinned snapshot view. The front id and
    /// its payload come from the same epoch by construction — the
    /// cross-root consistency the pipelined path needs two lane holds
    /// for is free here.
    pub fn rpeek_from_snapshot(&self, view: &SnapshotView<'_>) -> Reply {
        match self.list_ids.peek(view) {
            None => Reply::Value(None),
            Some(id) => match self.list_blobs.get(view, &id) {
                Some(b) => Reply::Value(Some(b)),
                None => Reply::Err("ERR list id without payload".into()),
            },
        }
    }

    fn execute_session(&self, tx: &mut Fase<'_>, client: u64, seq: u64, inner: &Command) -> Reply {
        if matches!(inner, Command::Session { .. }) {
            return Reply::Err("ERR SESSION cannot nest".into());
        }
        if seq == 0 {
            return Reply::Err("ERR session seq starts at 1".into());
        }
        // Hold the session lane before reading the record: two workers
        // racing on the same client must serialize here, or both could
        // observe `last` and double-apply seq = last + 1.
        self.sessions.touch_in(tx);
        let record = self.sessions.get(&*tx, &client);
        let last = match &record {
            None => 0,
            Some(r) if r.len() >= 8 => u64::from_le_bytes(r[..8].try_into().unwrap()),
            Some(_) => return Reply::Err("ERR corrupt session record".into()),
        };
        if seq == last {
            // Retry of the last applied request: replay the memoized
            // reply. Nothing is staged — the FASE stays a free no-op.
            let rec = record.unwrap();
            return Reply::decode_exact(&rec[8..])
                .unwrap_or_else(|| Reply::Err("ERR corrupt session record".into()));
        }
        if seq != last + 1 {
            return Reply::Err(format!("ERR seq {seq} out of order (session at {last})"));
        }
        // First delivery: execute, then record (seq, reply) in the SAME
        // FASE — the one directory swing commits both or neither.
        let reply = self.execute_plain(tx, inner);
        let mut rec = seq.to_le_bytes().to_vec();
        reply.encode_into(&mut rec);
        self.sessions.insert_in(tx, &client, &rec);
        reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mod_pmem::{Pmem, PmemConfig};

    fn heap() -> (ModHeap, ServerRoots) {
        let mut h = ModHeap::create(Pmem::new(PmemConfig::testing()));
        let roots = ServerRoots::create(&mut h, PersistPolicy::Full);
        (h, roots)
    }

    fn run(h: &mut ModHeap, roots: &ServerRoots, cmd: Command) -> Reply {
        h.fase(|tx| roots.execute_in(tx, &cmd))
    }

    #[test]
    fn kv_commands() {
        let (mut h, r) = heap();
        let key = b"k".to_vec();
        assert_eq!(
            run(&mut h, &r, Command::Get { key: key.clone() }),
            Reply::Value(None)
        );
        assert_eq!(
            run(
                &mut h,
                &r,
                Command::Set {
                    key: key.clone(),
                    value: b"v".to_vec()
                }
            ),
            Reply::Ok
        );
        assert_eq!(
            run(&mut h, &r, Command::Get { key: key.clone() }),
            Reply::Value(Some(b"v".to_vec()))
        );
        assert_eq!(
            run(&mut h, &r, Command::Del { key: key.clone() }),
            Reply::Int(1)
        );
        assert_eq!(run(&mut h, &r, Command::Del { key }), Reply::Int(0));
    }

    #[test]
    fn incr_is_ascii_decimal() {
        let (mut h, r) = heap();
        let key = b"c".to_vec();
        assert_eq!(
            run(&mut h, &r, Command::Incr { key: key.clone() }),
            Reply::Int(1)
        );
        assert_eq!(
            run(&mut h, &r, Command::Incr { key: key.clone() }),
            Reply::Int(2)
        );
        assert_eq!(
            run(&mut h, &r, Command::Get { key: key.clone() }),
            Reply::Value(Some(b"2".to_vec()))
        );
        run(
            &mut h,
            &r,
            Command::Set {
                key: key.clone(),
                value: b"not a number".to_vec(),
            },
        );
        assert!(matches!(
            run(&mut h, &r, Command::Incr { key }),
            Reply::Err(_)
        ));
    }

    #[test]
    fn list_is_fifo_with_ids() {
        let (mut h, r) = heap();
        assert_eq!(
            run(
                &mut h,
                &r,
                Command::LPush {
                    value: b"a".to_vec()
                }
            ),
            Reply::Int(0)
        );
        assert_eq!(
            run(
                &mut h,
                &r,
                Command::LPush {
                    value: b"b".to_vec()
                }
            ),
            Reply::Int(1)
        );
        assert_eq!(
            run(&mut h, &r, Command::RPop),
            Reply::Value(Some(b"a".to_vec()))
        );
        assert_eq!(
            run(&mut h, &r, Command::RPop),
            Reply::Value(Some(b"b".to_vec()))
        );
        assert_eq!(run(&mut h, &r, Command::RPop), Reply::Value(None));
        // Ids keep advancing — they are allocation order, not list length.
        assert_eq!(
            run(
                &mut h,
                &r,
                Command::LPush {
                    value: b"c".to_vec()
                }
            ),
            Reply::Int(2)
        );
    }

    #[test]
    fn rpeek_reads_without_removing() {
        let (mut h, r) = heap();
        run(
            &mut h,
            &r,
            Command::LPush {
                value: b"a".to_vec(),
            },
        );
        run(
            &mut h,
            &r,
            Command::LPush {
                value: b"b".to_vec(),
            },
        );
        let fences = h.nv().pm().stats().fences;
        assert_eq!(
            run(&mut h, &r, Command::RPeek),
            Reply::Value(Some(b"a".to_vec()))
        );
        assert_eq!(
            run(&mut h, &r, Command::RPeek),
            Reply::Value(Some(b"a".to_vec())),
            "peek does not consume"
        );
        assert_eq!(
            h.nv().pm().stats().fences,
            fences,
            "RPEEK stages nothing and pays no ordering point"
        );
        assert_eq!(
            run(&mut h, &r, Command::RPop),
            Reply::Value(Some(b"a".to_vec()))
        );
        assert_eq!(
            run(&mut h, &r, Command::RPeek),
            Reply::Value(Some(b"b".to_vec()))
        );
        run(&mut h, &r, Command::RPop);
        assert_eq!(run(&mut h, &r, Command::RPeek), Reply::Value(None));
    }

    #[test]
    fn snapshot_helpers_serve_published_state() {
        use mod_core::SharedModHeap;
        let sh = SharedModHeap::create(Pmem::new(PmemConfig::testing()), 1);
        let r = sh.setup(|h| ServerRoots::create(h, PersistPolicy::Full));
        sh.fase(0, |tx| {
            r.execute_in(
                tx,
                &Command::Set {
                    key: b"k".to_vec(),
                    value: b"v".to_vec(),
                },
            );
            r.execute_in(
                tx,
                &Command::LPush {
                    value: b"job".to_vec(),
                },
            )
        });
        sh.flush();
        let view = sh.snapshot();
        assert_eq!(
            r.get_from_snapshot(&view, &b"k".to_vec()),
            Reply::Value(Some(b"v".to_vec()))
        );
        assert_eq!(
            r.get_from_snapshot(&view, &b"absent".to_vec()),
            Reply::Value(None)
        );
        assert_eq!(
            r.rpeek_from_snapshot(&view),
            Reply::Value(Some(b"job".to_vec()))
        );
    }

    #[test]
    fn session_applies_exactly_once() {
        let (mut h, r) = heap();
        let incr = |seq| Command::Session {
            client: 9,
            seq,
            inner: Box::new(Command::Incr { key: b"n".to_vec() }),
        };
        assert_eq!(run(&mut h, &r, incr(1)), Reply::Int(1));
        // Retry of seq 1: memoized, not re-executed.
        assert_eq!(run(&mut h, &r, incr(1)), Reply::Int(1));
        assert_eq!(run(&mut h, &r, incr(2)), Reply::Int(2));
        assert_eq!(run(&mut h, &r, incr(2)), Reply::Int(2));
        // Stale and gapped seqs are rejected without executing.
        assert!(matches!(run(&mut h, &r, incr(1)), Reply::Err(_)));
        assert!(matches!(run(&mut h, &r, incr(5)), Reply::Err(_)));
        assert_eq!(
            run(&mut h, &r, Command::Get { key: b"n".to_vec() }),
            Reply::Value(Some(b"2".to_vec())),
            "the counter equals the last applied seq: no double-apply"
        );
        // Sessions are independent per client.
        let other = Command::Session {
            client: 10,
            seq: 1,
            inner: Box::new(Command::Incr { key: b"n".to_vec() }),
        };
        assert_eq!(run(&mut h, &r, other), Reply::Int(3));
    }

    #[test]
    fn session_retry_of_lpush_does_not_double_apply() {
        let (mut h, r) = heap();
        let push = |seq| Command::Session {
            client: 1,
            seq,
            inner: Box::new(Command::LPush {
                value: b"job".to_vec(),
            }),
        };
        assert_eq!(run(&mut h, &r, push(1)), Reply::Int(0));
        assert_eq!(run(&mut h, &r, push(1)), Reply::Int(0), "memoized id");
        assert_eq!(run(&mut h, &r, push(2)), Reply::Int(1));
        assert_eq!(
            run(&mut h, &r, Command::RPop),
            Reply::Value(Some(b"job".to_vec()))
        );
        assert_eq!(
            run(&mut h, &r, Command::RPop),
            Reply::Value(Some(b"job".to_vec()))
        );
        assert_eq!(
            run(&mut h, &r, Command::RPop),
            Reply::Value(None),
            "exactly two"
        );
    }

    #[test]
    fn memoized_replay_is_a_free_noop_fase() {
        let (mut h, r) = heap();
        let cmd = Command::Session {
            client: 2,
            seq: 1,
            inner: Box::new(Command::Set {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            }),
        };
        run(&mut h, &r, cmd.clone());
        let fences = h.nv().pm().stats().fences;
        assert_eq!(run(&mut h, &r, cmd), Reply::Ok);
        assert_eq!(
            h.nv().pm().stats().fences,
            fences,
            "replaying a memoized reply stages nothing and pays no fence"
        );
    }

    #[test]
    fn roots_survive_reopen() {
        let (mut h, r) = heap();
        run(
            &mut h,
            &r,
            Command::Set {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
        );
        run(
            &mut h,
            &r,
            Command::LPush {
                value: b"x".to_vec(),
            },
        );
        h.quiesce();
        let img = h.nv().pm().crash_image(mod_pmem::CrashPolicy::OnlyFenced);
        let (mut h2, _) = ModHeap::open(img);
        let r2 = ServerRoots::open(&mut h2).unwrap();
        assert_eq!(r2.kv.get(&h2, &b"k".to_vec()), Some(b"v".to_vec()));
        assert_eq!(r2.list_ids.len(&h2), 1);
    }
}
