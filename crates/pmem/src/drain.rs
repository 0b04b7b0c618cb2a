//! Background write-pending-queue (WPQ) drain channels.
//!
//! The paper's §3 microbenchmark shows that a `clwb`'s writeback does not
//! wait for the `sfence`: it *launches* as the instruction issues and
//! drains through the memory controller's write-pending queue in the
//! background, so a fence pays only the **residual** drain that has not
//! finished by the time it executes. [`WpqDrain`] is that queue: a small
//! event calendar of per-line drain completions. Each `clwb` schedules a
//! drain at its issue timestamp — an overlappable *launch* phase
//! ([`crate::LatencyModel::wpq_launch_ns()`]) followed by a serialized
//! per-line *drain* occupancy ([`crate::LatencyModel::wpq_drain_ns()`]) on
//! the line's WPQ lane — and `sfence` stalls until the latest scheduled
//! completion, not for the whole backlog from scratch.
//!
//! With the default single WPQ lane and flushes issued back-to-back, the
//! last completion lands at `launch + n·drain` past the first issue —
//! exactly the Amdahl stall `fence_base · (f + (1 − f)·n)` the old
//! charge-everything-at-the-fence model used, so the saturated limit (no
//! compute between flush and fence) reproduces Fig 4 unchanged. Any
//! compute charged between the `clwb`s and the fence now genuinely hides
//! drain work, which is the lever batched group commits exploit.

/// One timeline's WPQ: per-lane drain-channel occupancy plus the latest
/// scheduled completion. Times are simulated nanoseconds on the clock of
/// whichever timeline (global, or the shard-lane group) owns the queue.
#[derive(Clone, Debug, Default)]
pub struct WpqDrain {
    /// Time each WPQ lane's serialized drain channel frees up.
    lane_free_at: Vec<f64>,
    /// Completion time of the latest drain scheduled since the last fence.
    last_done: f64,
}

impl WpqDrain {
    /// An empty queue with no lanes materialized.
    pub fn new() -> WpqDrain {
        WpqDrain::default()
    }

    /// Schedules the writeback of `line`, issued at time `now`: the
    /// launch phase overlaps freely, then the drain occupies the line's
    /// WPQ lane (`line % n_lanes`) after any earlier drain queued there.
    /// Returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if `n_lanes` is zero.
    pub fn schedule(
        &mut self,
        line: u64,
        now: f64,
        launch_ns: f64,
        drain_ns: f64,
        n_lanes: usize,
    ) -> f64 {
        assert!(n_lanes > 0, "a WPQ needs at least one drain lane");
        if self.lane_free_at.len() < n_lanes {
            self.lane_free_at.resize(n_lanes, 0.0);
        }
        let lane = (line % n_lanes as u64) as usize;
        let start = (now + launch_ns).max(self.lane_free_at[lane]);
        let done = start + drain_ns;
        self.lane_free_at[lane] = done;
        self.last_done = self.last_done.max(done);
        done
    }

    /// Completion time of the latest scheduled drain (0 when idle).
    pub fn last_done(&self) -> f64 {
        self.last_done
    }

    /// Merges another calendar's watermark: a fence on this timeline now
    /// also waits for drains scheduled there (used when a worker shard
    /// hands its staged lines — and their in-flight drains — to the
    /// commit stage).
    pub fn note_done(&mut self, t: f64) {
        self.last_done = self.last_done.max(t);
    }

    /// Residual stall a fence executing at time `now` pays: how far the
    /// latest in-flight drain completion lies in the future (0 when the
    /// backlog already drained in the background).
    pub fn residual_at(&self, now: f64) -> f64 {
        (self.last_done - now).max(0.0)
    }

    /// Empties the queue — the fence just waited for every in-flight
    /// drain, so the WPQ is idle again.
    pub fn reset(&mut self) {
        self.lane_free_at.iter_mut().for_each(|t| *t = 0.0);
        self.last_done = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_drains_serialize_on_one_lane() {
        let mut q = WpqDrain::new();
        // 4 lines issued at t=0: launch 289, drain 63.5 each, one lane.
        let mut done = 0.0;
        for line in 0..4u64 {
            done = q.schedule(line, 0.0, 289.0, 63.5, 1);
        }
        assert!((done - (289.0 + 4.0 * 63.5)).abs() < 1e-9);
        assert_eq!(q.last_done(), done);
    }

    #[test]
    fn residual_shrinks_as_time_passes() {
        let mut q = WpqDrain::new();
        q.schedule(0, 0.0, 289.0, 63.5, 1);
        assert!((q.residual_at(0.0) - 352.5).abs() < 1e-9);
        assert!((q.residual_at(300.0) - 52.5).abs() < 1e-9);
        assert_eq!(q.residual_at(400.0), 0.0, "fully drained in background");
    }

    #[test]
    fn lanes_drain_in_parallel() {
        let mut q = WpqDrain::new();
        let a = q.schedule(0, 0.0, 10.0, 50.0, 2);
        let b = q.schedule(1, 0.0, 10.0, 50.0, 2); // other lane: no queueing
        let c = q.schedule(2, 0.0, 10.0, 50.0, 2); // lane 0 again: queues
        assert_eq!(a, 60.0);
        assert_eq!(b, 60.0);
        assert_eq!(c, 110.0);
        assert_eq!(q.last_done(), 110.0);
    }

    #[test]
    fn late_issue_starts_after_launch_not_channel() {
        let mut q = WpqDrain::new();
        q.schedule(0, 0.0, 10.0, 5.0, 1); // done at 15
        let done = q.schedule(1, 100.0, 10.0, 5.0, 1);
        assert_eq!(done, 115.0, "idle channel: launch bound, not queueing");
    }

    #[test]
    fn reset_empties_the_queue() {
        let mut q = WpqDrain::new();
        q.schedule(0, 0.0, 10.0, 5.0, 1);
        q.reset();
        assert_eq!(q.last_done(), 0.0);
        assert_eq!(q.residual_at(0.0), 0.0);
        assert_eq!(q.schedule(0, 0.0, 10.0, 5.0, 1), 15.0);
    }

    #[test]
    #[should_panic(expected = "at least one drain lane")]
    fn zero_lanes_rejected() {
        WpqDrain::new().schedule(0, 0.0, 1.0, 1.0, 0);
    }
}
