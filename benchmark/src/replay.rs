//! Rungs 3 and 4 of the ladder: the product's own §5.4 event trace,
//! captured once with `PmemConfig::trace` on (never while timing — the
//! flag costs ~60 %), replayed through the public functions of a lower
//! layer on a fresh pool of its own.
//!
//! The product's trace names the address and length of every store but
//! not its bytes, and the flush cache's elision depends on the bytes.
//! [`EventLog::capture`] therefore copies each store's bytes out of the
//! captured pool right after the op that made them, so a replay stores
//! what the product stored and its `PmStats` counts equal the captured
//! run's. Loads are not in the product trace at all: read cost stays
//! with the layer that issued the read until spans exist inside it.

use mod_alloc::{NvHeap, HEADER_BYTES, HEAP_BASE};
use mod_pmem::{PmPtr, Pmem, TraceEvent};
use std::time::Instant;

/// The events of a stretch of ops plus the bytes of their stores, in
/// event order.
#[derive(Default)]
pub struct EventLog {
    pub events: Vec<TraceEvent>,
    bytes: Vec<u8>,
}

impl EventLog {
    /// Moves the events recorded on `pm` since the last capture into the
    /// log, with the bytes each store left behind. Call after every op:
    /// a block recycled by a later op would otherwise show that op's
    /// bytes.
    pub fn capture(&mut self, pm: &mut Pmem) {
        for ev in pm.take_trace() {
            if let TraceEvent::Write { addr, len } = ev {
                let at = self.bytes.len();
                self.bytes.resize(at + len as usize, 0);
                pm.peek_bytes(addr, &mut self.bytes[at..]);
            }
            self.events.push(ev);
        }
    }

    pub fn clear(&mut self) {
        self.events.clear();
        self.bytes.clear();
    }

    pub fn counts(&self) -> EventCounts {
        let mut c = EventCounts::default();
        for ev in &self.events {
            match ev {
                TraceEvent::Alloc { addr, .. } if *addr < HEAP_BASE => {}
                TraceEvent::Alloc { .. } => c.allocs += 1,
                TraceEvent::Free { .. } => c.frees += 1,
                TraceEvent::Write { .. } => c.writes += 1,
                TraceEvent::Clwb { .. } => c.clwbs += 1,
                TraceEvent::Fence => c.fences += 1,
                TraceEvent::CommitBegin | TraceEvent::CommitEnd => {}
            }
        }
        c
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    pub allocs: u64,
    pub frees: u64,
    pub writes: u64,
    pub clwbs: u64,
    pub fences: u64,
}

impl std::ops::AddAssign for EventCounts {
    fn add_assign(&mut self, o: EventCounts) {
        self.allocs += o.allocs;
        self.frees += o.frees;
        self.writes += o.writes;
        self.clwbs += o.clwbs;
        self.fences += o.fences;
    }
}

/// Host time of individually timed `Pmem` calls, by call kind. Only
/// every [`SAMPLE_EVERY`]th call is timed, so the clock reads add ~1 %
/// to the replay they sit in; each sample has the cost of the clock
/// reads themselves taken off.
#[derive(Clone, Debug, Default)]
pub struct CallSamples {
    /// 8-byte stores (headers, root slots, refcount-free metadata).
    pub write8: KindSamples,
    /// Wider stores (node bodies).
    pub write_wide: KindSamples,
    pub clwb: KindSamples,
    pub sfence: KindSamples,
    /// The longest single `sfence` seen, ns — on a file-backed pool that
    /// is a journal compaction.
    pub longest_sfence_ns: u64,
    /// Every `sfence` is timed (not sampled) when set: fences of a
    /// file-backed replay cost far more than the clock.
    pub time_every_fence: bool,
    /// Calls replayed so far (the sampling phase).
    pub seen: u64,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct KindSamples {
    pub samples: u64,
    pub total_ns: u64,
}

impl KindSamples {
    pub fn mean_ns(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.samples as f64
        }
    }

    fn add(&mut self, ns: u64) {
        self.samples += 1;
        self.total_ns += ns;
    }
}

/// A prime, so sampling cannot lock onto the period of an op's events.
pub const SAMPLE_EVERY: u64 = 61;

impl CallSamples {
    /// Mean over all sampled stores, both widths.
    pub fn write_mean_ns(&self) -> f64 {
        KindSamples {
            samples: self.write8.samples + self.write_wide.samples,
            total_ns: self.write8.total_ns + self.write_wide.total_ns,
        }
        .mean_ns()
    }
}

/// What two back-to-back clock reads cost on this machine, ns (median
/// of many), taken off every sampled call.
pub fn clock_cost_ns() -> u64 {
    let mut v: Vec<u64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(t).elapsed().as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// Rung 4: the log's stores, flushes and fences through
/// `Pmem::write_bytes` / `clwb` / `sfence` (commit markers mirrored).
/// Returns the host ns the whole replay took.
pub fn replay_pmem(pm: &mut Pmem, log: &EventLog, samples: &mut CallSamples, clock_ns: u64) -> u64 {
    let t0 = Instant::now();
    let mut at = 0usize;
    for ev in &log.events {
        samples.seen += 1;
        let fence = matches!(ev, TraceEvent::Fence);
        let timed = samples.seen % SAMPLE_EVERY == 0 || (fence && samples.time_every_fence);
        let t = timed.then(Instant::now);
        match *ev {
            TraceEvent::Write { addr, len } => {
                let end = at + len as usize;
                pm.write_bytes(addr, &log.bytes[at..end]);
                at = end;
            }
            TraceEvent::Clwb { line } => pm.clwb(line),
            TraceEvent::Fence => pm.sfence(),
            TraceEvent::CommitBegin => pm.begin_commit(),
            TraceEvent::CommitEnd => pm.end_commit(),
            TraceEvent::Alloc { .. } | TraceEvent::Free { .. } => {}
        }
        if let Some(t) = t {
            let raw = t.elapsed().as_nanos() as u64;
            let ns = raw.saturating_sub(clock_ns);
            match *ev {
                TraceEvent::Write { len: 8, .. } => samples.write8.add(ns),
                TraceEvent::Write { .. } => samples.write_wide.add(ns),
                TraceEvent::Clwb { .. } => samples.clwb.add(ns),
                TraceEvent::Fence => {
                    samples.sfence.add(ns);
                    samples.longest_sfence_ns = samples.longest_sfence_ns.max(raw);
                }
                _ => {}
            }
        }
    }
    t0.elapsed().as_nanos() as u64
}

/// Rung 3: the log's allocations and frees through `NvHeap::alloc` /
/// `free`. The allocator is deterministic, so a replay from the first
/// event on hands out the captured addresses; a mismatch (counted in
/// the second value) means the replay no longer mirrors the run.
/// Returns `(host ns, address mismatches)`.
pub fn replay_alloc(nv: &mut NvHeap, log: &EventLog) -> (u64, u64) {
    let t0 = Instant::now();
    let mut mismatches = 0u64;
    for ev in &log.events {
        match *ev {
            // `NvHeap::format` traces the pool's metadata region as an
            // allocation below the heap; the replay pool formatted its own.
            TraceEvent::Alloc { addr, .. } if addr < HEAP_BASE => {}
            TraceEvent::Alloc { addr, len } => {
                let p = nv.alloc(len - HEADER_BYTES);
                mismatches += u64::from(p.addr() != addr + HEADER_BYTES);
            }
            TraceEvent::Free { addr, .. } => nv.free(PmPtr::from_addr(addr + HEADER_BYTES)),
            _ => {}
        }
    }
    (t0.elapsed().as_nanos() as u64, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{value32, Rng};
    use mod_core::{DurableMap, ModHeap};
    use mod_pmem::PmemConfig;

    fn cfg(trace: bool) -> PmemConfig {
        PmemConfig {
            trace,
            ..PmemConfig::benchmarking(1 << 26)
        }
    }

    /// The round trip the ladder rests on: a replay of the captured
    /// stream — from the pool's first event on — leaves the replay pools
    /// with the captured run's counters.
    #[test]
    fn replayed_counts_equal_the_captured_run() {
        let mut heap = ModHeap::create(Pmem::new(cfg(true)));
        let mut log = EventLog::default();
        log.capture(heap.nv_mut().pm_mut());
        let map: DurableMap<u64, [u8; 32]> = DurableMap::create(&mut heap);
        log.capture(heap.nv_mut().pm_mut());
        let mut rng = Rng::fork(42, 0);
        for i in 0..600u32 {
            let k = rng.below(200);
            map.insert(&mut heap, &k, &value32(k, i));
            log.capture(heap.nv_mut().pm_mut());
        }
        let captured = heap.nv().pm().stats().clone();
        let counts = log.counts();
        assert_eq!(counts.fences, captured.fences);
        assert_eq!(counts.clwbs, captured.flushes_issued);
        assert_eq!(counts.writes, captured.writes);

        let mut pm = Pmem::new(cfg(false));
        let mut samples = CallSamples::default();
        replay_pmem(&mut pm, &log, &mut samples, 0);
        let replayed = pm.stats();
        assert_eq!(replayed.writes, captured.writes);
        assert_eq!(replayed.bytes_written, captured.bytes_written);
        assert_eq!(replayed.fences, captured.fences);
        assert_eq!(replayed.flushes_issued, captured.flushes_issued);
        assert_eq!(replayed.effective_flushes, captured.effective_flushes);
        assert_eq!(replayed.flushes_deduped, captured.flushes_deduped);
        assert!(samples.clwb.samples > 0 && samples.write_wide.samples > 0);

        let mut nv = NvHeap::format(Pmem::new(cfg(false)));
        let (_, mismatches) = replay_alloc(&mut nv, &log);
        assert_eq!(mismatches, 0, "the allocator replays to the same addresses");
        assert_eq!(nv.stats().allocs, heap.nv().stats().allocs);
        assert_eq!(nv.stats().frees, heap.nv().stats().frees);
        assert_eq!(nv.stats().live_bytes, heap.nv().stats().live_bytes);
    }

    #[test]
    fn clock_cost_is_small() {
        assert!(clock_cost_ns() < 5_000);
    }
}
