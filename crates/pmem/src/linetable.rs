//! The volatile line-state table: which cachelines are dirty or in
//! flight.
//!
//! Every charged store and every `clwb` consults this table, so a lookup
//! must cost a multiply and a probe, not a SipHash. The table only ever
//! holds the lines written since the last few fences — a FASE flushes
//! what it wrote and `sfence` retires it — so it stays small: an
//! open-addressed, linear-probed array keyed by line address (Fibonacci
//! hash, backward-shift deletion, no tombstones). Lines are 64-byte
//! aligned, which leaves the low bits of a key free to carry the state
//! tag; 0 is the empty slot.
//!
//! Lines turned in flight are additionally logged in **issue order**, so
//! a fence walks exactly the lines it retires instead of scanning and
//! filtering the whole table.

/// Persistence state of a written cacheline.
#[derive(Copy, Clone, Debug, PartialEq)]
pub(crate) enum LineState {
    /// Written but not flushed: lost at a crash unless the policy evicts.
    Dirty,
    /// `clwb` issued; the background drain completes at `done_ns` on the
    /// global timeline. Before `done_ns` the line is
    /// *issued-but-undrained* (crash persistence is policy-dependent);
    /// after it the line is *drained-but-unfenced* (the writeback reached
    /// the medium, so it survives any crash — only the *ordering*
    /// guarantee still waits for the fence).
    Inflight {
        /// Completion time of the line's background drain.
        done_ns: f64,
    },
}

const TAG_DIRTY: u64 = 1;
const TAG_INFLIGHT: u64 = 2;
const TAG_MASK: u64 = 3;

/// Slots allocated by the first insert; doubles at 3/4 load.
const INITIAL_SLOTS: usize = 64;

/// Line address → [`LineState`], plus the issue-order in-flight log.
#[derive(Debug, Default)]
pub(crate) struct LineTable {
    /// `line | tag` per slot, 0 when empty. Length is 0 or a power of two.
    keys: Vec<u64>,
    /// `done_ns` of the in-flight line in the same slot.
    done: Vec<f64>,
    len: usize,
    inflight: usize,
    /// Every line turned in flight since the last [`LineTable::fence`],
    /// in issue order. A line re-dirtied (and possibly re-flushed) later
    /// leaves its earlier entry stale; `fence` resolves that against the
    /// table.
    issued: Vec<u64>,
}

impl LineTable {
    /// Number of tracked (dirty or in-flight) lines.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of in-flight lines.
    pub(crate) fn inflight(&self) -> usize {
        self.inflight
    }

    fn home(&self, line: u64) -> usize {
        let bits = self.keys.len().trailing_zeros();
        ((line >> 6).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// Slot holding `line`, or the empty slot its probe sequence ends at.
    fn probe(&self, line: u64) -> (usize, bool) {
        let mask = self.keys.len() - 1;
        let mut i = self.home(line);
        loop {
            let k = self.keys[i];
            if k == 0 {
                return (i, false);
            }
            if k & !TAG_MASK == line {
                return (i, true);
            }
            i = (i + 1) & mask;
        }
    }

    fn state_at(&self, i: usize) -> LineState {
        match self.keys[i] & TAG_MASK {
            TAG_DIRTY => LineState::Dirty,
            _ => LineState::Inflight {
                done_ns: self.done[i],
            },
        }
    }

    fn grow(&mut self) {
        let slots = (self.keys.len() * 2).max(INITIAL_SLOTS);
        let keys = std::mem::replace(&mut self.keys, vec![0; slots]);
        let done = std::mem::replace(&mut self.done, vec![0.0; slots]);
        for (k, d) in keys.into_iter().zip(done).filter(|&(k, _)| k != 0) {
            let (i, _) = self.probe(k & !TAG_MASK);
            self.keys[i] = k;
            self.done[i] = d;
        }
    }

    /// The state of `line`, if tracked.
    pub(crate) fn get(&self, line: u64) -> Option<LineState> {
        if self.len == 0 {
            return None;
        }
        let (i, found) = self.probe(line);
        found.then(|| self.state_at(i))
    }

    /// Sets `line` to `state`, returning its previous state. A line set
    /// in flight joins the issue-order log.
    pub(crate) fn set(&mut self, line: u64, state: LineState) -> Option<LineState> {
        debug_assert_eq!(line & 63, 0, "line addresses are 64-byte aligned");
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let (i, found) = self.probe(line);
        let prev = found.then(|| self.state_at(i));
        if matches!(prev, Some(LineState::Inflight { .. })) {
            self.inflight -= 1;
        }
        if !found {
            self.len += 1;
        }
        match state {
            LineState::Dirty => self.keys[i] = line | TAG_DIRTY,
            LineState::Inflight { done_ns } => {
                self.keys[i] = line | TAG_INFLIGHT;
                self.done[i] = done_ns;
                self.inflight += 1;
                self.issued.push(line);
            }
        }
        prev
    }

    /// Stops tracking `line` (no-op if untracked).
    pub(crate) fn remove(&mut self, line: u64) {
        if self.len == 0 {
            return;
        }
        let (mut hole, found) = self.probe(line);
        if !found {
            return;
        }
        if self.keys[hole] & TAG_MASK == TAG_INFLIGHT {
            self.inflight -= 1;
        }
        self.len -= 1;
        // Backward-shift deletion: pull every later entry of the probe
        // run whose home lies at or before the hole into it.
        let mask = self.keys.len() - 1;
        let mut j = hole;
        loop {
            self.keys[hole] = 0;
            loop {
                j = (j + 1) & mask;
                let k = self.keys[j];
                if k == 0 {
                    return;
                }
                let home = self.home(k & !TAG_MASK);
                // `home` cyclically within (hole, j]: the entry is
                // reachable without passing the hole — leave it.
                let stays = if hole <= j {
                    hole < home && home <= j
                } else {
                    hole < home || home <= j
                };
                if !stays {
                    break;
                }
            }
            self.keys[hole] = self.keys[j];
            self.done[hole] = self.done[j];
            hole = j;
        }
    }

    /// Retires every in-flight line — the fence waited for their drains —
    /// and returns them in the order each was first issued.
    pub(crate) fn fence(&mut self) -> Vec<u64> {
        let issued = std::mem::take(&mut self.issued);
        let mut fenced = Vec::with_capacity(self.inflight);
        for line in issued {
            // Stale entries: re-dirtied since (state is Dirty), or a
            // duplicate of a line already retired by this loop.
            if matches!(self.get(line), Some(LineState::Inflight { .. })) {
                self.remove(line);
                fenced.push(line);
            }
        }
        debug_assert_eq!(self.inflight, 0);
        fenced
    }

    /// Every tracked line with its state, in table order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, LineState)> + '_ {
        (0..self.keys.len())
            .filter(|&i| self.keys[i] != 0)
            .map(|i| (self.keys[i] & !TAG_MASK, self.state_at(i)))
    }

    /// Empties the table, returning what it tracked.
    pub(crate) fn take(&mut self) -> Vec<(u64, LineState)> {
        let all = self.iter().collect();
        *self = LineTable::default();
        all
    }

    /// Rebases every in-flight line's drain completion to time zero (the
    /// clocks were reset underneath them).
    pub(crate) fn rebase_inflight(&mut self) {
        self.done.iter_mut().for_each(|d| *d = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LineState::{Dirty, Inflight};

    #[test]
    fn empty_table_allocates_nothing() {
        let mut t = LineTable::default();
        assert_eq!(t.get(0), None);
        t.remove(64);
        assert!(t.fence().is_empty());
        assert_eq!(t.keys.capacity() + t.issued.capacity(), 0);
    }

    #[test]
    fn set_get_remove_roundtrip_including_line_zero() {
        let mut t = LineTable::default();
        assert_eq!(t.set(0, Dirty), None);
        assert_eq!(t.set(64, Inflight { done_ns: 5.0 }), None);
        assert_eq!(t.get(0), Some(Dirty));
        assert_eq!(t.get(64), Some(Inflight { done_ns: 5.0 }));
        assert_eq!((t.len(), t.inflight()), (2, 1));
        assert_eq!(t.set(64, Dirty), Some(Inflight { done_ns: 5.0 }));
        assert_eq!((t.len(), t.inflight()), (2, 0));
        t.remove(0);
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(64), Some(Dirty));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn matches_a_reference_map_under_churn_and_growth() {
        // Colliding, growing, shrinking: every lookup agrees with a
        // BTreeMap model after every mutation batch.
        let mut t = LineTable::default();
        let mut model = std::collections::BTreeMap::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for round in 0..4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = (x % 512) * 64;
            match x >> 62 {
                0 => {
                    t.remove(line);
                    model.remove(&line);
                }
                1 => {
                    let s = Inflight {
                        done_ns: round as f64,
                    };
                    assert_eq!(t.set(line, s), model.insert(line, s));
                }
                _ => assert_eq!(t.set(line, Dirty), model.insert(line, Dirty)),
            }
            if round % 64 == 0 {
                assert_eq!(t.len(), model.len());
                for l in (0..512 * 64).step_by(64) {
                    assert_eq!(t.get(l), model.get(&l).copied(), "line {l:#x}");
                }
                let n = model
                    .values()
                    .filter(|s| matches!(s, Inflight { .. }))
                    .count();
                assert_eq!(t.inflight(), n);
            }
        }
        let mut all = t.take();
        all.sort_by_key(|&(l, _)| l);
        assert_eq!(all, model.into_iter().collect::<Vec<_>>());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn fence_retires_inflight_lines_in_issue_order() {
        let mut t = LineTable::default();
        for line in [640, 128, 0, 4096] {
            t.set(line, Dirty);
            t.set(line, Inflight { done_ns: 1.0 });
        }
        t.set(8192, Dirty); // never flushed
        t.set(128, Dirty); // re-dirtied: its log entry is stale
        t.set(0, Dirty); // re-dirtied, then flushed again: logged twice
        t.set(0, Inflight { done_ns: 2.0 });
        assert_eq!(t.fence(), [640, 0, 4096]);
        assert_eq!((t.len(), t.inflight()), (2, 0));
        assert_eq!(t.get(128), Some(Dirty));
        assert_eq!(t.get(8192), Some(Dirty));
        assert!(t.fence().is_empty(), "the log was consumed");
    }

    #[test]
    fn rebase_zeroes_drain_times() {
        let mut t = LineTable::default();
        t.set(64, Inflight { done_ns: 9.0 });
        t.rebase_inflight();
        assert_eq!(t.get(64), Some(Inflight { done_ns: 0.0 }));
    }
}
