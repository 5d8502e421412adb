//! Deterministic pending-event set: one binary heap beside an armed-slot
//! lane.
//!
//! The queue orders events by `(time, sequence)`. The sequence number is
//! assigned at insertion, so two events scheduled for the same instant pop
//! in insertion order — the property that makes whole-system replays
//! bit-identical.
//!
//! # Structure
//!
//! A recurring discrete-event pattern is "at most one pending event per
//! entity" (one armed boundary event per simulated core).
//! [`EventQueue::alloc_slot`] gives an entity a *slot*:
//! [`EventQueue::schedule_in_slot`] replaces the slot's armed event and
//! [`EventQueue::cancel_slot`] disarms it. Pending events live in one of
//! two places, and neither ever holds a dead entry:
//!
//! * **The lane** holds each slot's armed event in three parallel vectors
//!   indexed by slot (`lane_time`, `lane_seq`, `lane_event`). Arming,
//!   re-arming and cancelling overwrite the slot's cell on the spot, so a
//!   superseded event is gone the moment it is replaced. The lane's
//!   `(time, seq)` minimum comes from a scan over the core-count-sized
//!   vectors, memoized until the lane changes.
//! * **The heap** holds every plain event (wakeups, balancer timers,
//!   frequency steps, trace samples) in one [`BinaryHeap`] keyed by
//!   `(time, seq)`.
//!
//! [`EventQueue::pop`] serves whichever of the lane minimum and the heap
//! top has the smaller key. On the benchmark workloads plain events never
//! number more than 128 at once, so the heap stays a few levels deep
//! (DESIGN.md §5e has the measured traffic).
//!
//! Sequence numbers are consumed by every insertion, slot-armed or not, so
//! a slot-armed schedule produces the exact pop order of the equivalent
//! post-and-invalidate schedule on a plain priority queue (proved
//! continuously by the differential fuzz in `speedbal-check`).
//!
//! # Same-instant ordering
//!
//! Under a non-FIFO [`OrderingPolicy`], [`EventQueue::pop`] pulls every
//! event of the earliest instant into a stash through the FIFO pop and
//! serves the policy's pick among them; see `crate::ordering`.

use crate::ordering::OrderingPolicy;
use crate::rng::SimRng;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt::Debug;

/// An event plus its scheduled time, as returned by [`EventQueue::pop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    pub time: SimTime,
    pub event: E,
}

/// Handle to an at-most-one-pending-event slot (see [`EventQueue::alloc_slot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotId(u32);

/// Marker for events not owned by any slot.
const NO_SLOT: u32 = u32::MAX;

/// `lane_time` of a disarmed slot. Slot events may therefore not be
/// scheduled at `u64::MAX` ns.
const DISARMED: u64 = u64::MAX;

/// A plain event in the heap. Ordered so that [`BinaryHeap`] (a
/// max-heap) keeps the smallest `(time, seq)` on top.
#[derive(Debug)]
struct HeapEntry<E> {
    time: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<E> Eq for HeapEntry<E> {}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Engine state for a non-FIFO [`OrderingPolicy`]. `None` on the queue
/// means FIFO: the entire reordering machinery stays off the hot path.
#[derive(Debug)]
enum ReorderState {
    Lifo,
    Shuffle(SimRng),
    Exhaustive {
        /// Batches wider than `k` are served FIFO (arity 1), keeping
        /// the choice tree finite.
        k: u32,
        /// Branch choices to replay, consumed left to right; running
        /// off the end falls back to choice 0 (FIFO-first descent).
        prefix: Vec<u32>,
        /// Next prefix position to consume.
        cursor: usize,
        /// `(choice, arity)` actually taken at each branch point.
        log: Vec<(u32, u32)>,
    },
}

/// One same-instant event pulled out of the queue for reordered
/// service. `slot` is the owning slot (or [`NO_SLOT`]); `event` is
/// `None` once the entry is served — or killed by a same-instant
/// cancel/re-arm of its slot, exactly as that cancel would have removed
/// it under FIFO had the cancel popped first.
#[derive(Debug)]
struct StashEntry<E> {
    slot: u32,
    event: Option<E>,
}

/// A min-queue of future events ordered by time, FIFO within a single
/// instant.
///
/// The queue enforces monotonicity: popping advances an internal clock and
/// scheduling an event before that clock is a logic error that panics in all
/// builds (a simulator that time-travels produces silently wrong results,
/// which is far worse than a crash).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Plain (slot-less) events, smallest `(time, seq)` on top.
    heap: BinaryHeap<HeapEntry<E>>,
    /// Lane: scheduled time (ns) of each slot's armed event; [`DISARMED`]
    /// when the slot has none.
    lane_time: Vec<u64>,
    /// Lane: sequence number of each slot's armed event (valid only while
    /// armed).
    lane_seq: Vec<u64>,
    /// Lane: payload of each slot's armed event.
    lane_event: Vec<Option<E>>,
    /// Number of armed slots.
    armed: usize,
    /// Memoized [`EventQueue::lane_min`] result, reused until the lane
    /// changes (arm, cancel, serve). A peek followed by the pop of the
    /// same event — the dominant event-loop pattern — scans the lane once.
    lane_memo: Option<(u64, u64, usize)>,
    lane_memo_valid: bool,
    /// Same-instant ordering engine; `None` = the FIFO default.
    reorder: Option<ReorderState>,
    /// The instant currently being served out of order: every pending
    /// event at `stash_time`, pulled via the FIFO path (so pull order
    /// is seq order). Only ever non-empty under a non-FIFO policy.
    stash: Vec<StashEntry<E>>,
    /// Live (not yet served or killed) stash entries.
    stash_live: usize,
    /// The instant the stash holds.
    stash_time: SimTime,
    /// Slot of the most recently FIFO-popped event ([`NO_SLOT`] for
    /// plain events): how the reordered pull remembers which slot each
    /// stashed entry belongs to.
    served_slot: u32,
    next_seq: u64,
    now: SimTime,
    cancellations: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane_time: Vec::new(),
            lane_seq: Vec::new(),
            lane_event: Vec::new(),
            armed: 0,
            lane_memo: None,
            lane_memo_valid: false,
            reorder: None,
            stash: Vec::new(),
            stash_live: 0,
            stash_time: SimTime::ZERO,
            served_slot: NO_SLOT,
            next_seq: 0,
            now: SimTime::ZERO,
            cancellations: 0,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events (a stashed same-instant event awaiting
    /// reordered service is still pending).
    pub fn len(&self) -> usize {
        self.heap.len() + self.armed + self.stash_live
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slot events cancelled (superseded or disarmed) so far.
    pub fn cancellations(&self) -> u64 {
        self.cancellations
    }

    /// Allocates a slot: a handle under which at most one event is pending
    /// at a time.
    pub fn alloc_slot(&mut self) -> SlotId {
        let id = self.lane_time.len();
        assert!(id < NO_SLOT as usize, "slot namespace exhausted");
        self.lane_time.push(DISARMED);
        self.lane_seq.push(0);
        self.lane_event.push(None);
        SlotId(id as u32)
    }

    /// True iff the slot currently has a pending event.
    pub fn slot_armed(&self, slot: SlotId) -> bool {
        self.lane_time[slot.0 as usize] != DISARMED
    }

    /// Selects the same-instant [`OrderingPolicy`]. Must be called while
    /// no instant is mid-service (in practice: before the run starts).
    /// [`OrderingPolicy::Fifo`] disengages the reordering machinery
    /// entirely — the queue is bit-identical to one that never had a
    /// policy set.
    pub fn set_ordering(&mut self, policy: OrderingPolicy) {
        assert!(
            self.stash_live == 0,
            "ordering policy changed while an instant is mid-service"
        );
        self.stash.clear();
        self.reorder = match policy {
            OrderingPolicy::Fifo => None,
            OrderingPolicy::Lifo => Some(ReorderState::Lifo),
            OrderingPolicy::SeededShuffle(seed) => Some(ReorderState::Shuffle(SimRng::new(seed))),
            OrderingPolicy::Exhaustive { k, prefix } => Some(ReorderState::Exhaustive {
                k: k.max(1),
                prefix,
                cursor: 0,
                log: Vec::new(),
            }),
        };
    }

    /// The `(choice, arity)` decision log of an
    /// [`OrderingPolicy::Exhaustive`] run: one entry per same-instant
    /// branch point (batches of one, and batches wider than `k`, are
    /// served FIFO and not logged). Empty under every other policy.
    pub fn ordering_log(&self) -> &[(u32, u32)] {
        match &self.reorder {
            Some(ReorderState::Exhaustive { log, .. }) => log,
            _ => &[],
        }
    }

    fn assert_future(&self, at: SimTime, event: &E)
    where
        E: Debug,
    {
        assert!(
            at >= self.now,
            "scheduled an event in the past: {at} < now {} (event {event:?})",
            self.now,
        );
    }

    /// Schedules `event` at absolute time `at`. Panics if `at` is in the
    /// past.
    pub fn schedule(&mut self, at: SimTime, event: E)
    where
        E: Debug,
    {
        self.assert_future(at, &event);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry {
            time: at.as_nanos(),
            seq,
            event,
        });
    }

    /// Schedules `event` at `at` under `slot`, cancelling the slot's
    /// previously armed event (if any). Panics if `at` is in the past, or
    /// at `u64::MAX` ns, the value that marks a disarmed slot.
    pub fn schedule_in_slot(&mut self, slot: SlotId, at: SimTime, event: E)
    where
        E: Debug,
    {
        self.assert_future(at, &event);
        let at_ns = at.as_nanos();
        assert!(at_ns != DISARMED, "slot event scheduled at the end of time");
        let s = slot.0 as usize;
        self.stash_kill(s);
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.lane_time[s] == DISARMED {
            self.armed += 1;
        } else {
            self.cancellations += 1;
        }
        self.lane_time[s] = at_ns;
        self.lane_seq[s] = seq;
        self.lane_event[s] = Some(event);
        self.lane_memo_valid = false;
    }

    /// Cancels the slot's armed event, if any.
    pub fn cancel_slot(&mut self, slot: SlotId) {
        let s = slot.0 as usize;
        self.stash_kill(s);
        if self.lane_time[s] != DISARMED {
            self.lane_time[s] = DISARMED;
            self.lane_event[s] = None;
            self.armed -= 1;
            self.cancellations += 1;
            self.lane_memo_valid = false;
        }
    }

    /// Kills the stash's live entry for slot `s`, if any. A handler that
    /// cancels or re-arms a slot mid-instant must prevent the slot's
    /// not-yet-served same-instant event from firing — under FIFO the
    /// lane overwrite does this; under reordering the entry has already
    /// been pulled into the stash, so it is killed in place. This matches
    /// the legal serialization in which the cancelling handler runs before
    /// the cancelled event. No-op (one load and branch) under FIFO,
    /// where the stash is always empty.
    #[inline]
    fn stash_kill(&mut self, s: usize) {
        if self.stash_live == 0 {
            return;
        }
        // A slot has at most one pending event, so at most one live
        // stash entry can belong to it.
        for entry in &mut self.stash {
            if entry.slot == s as u32 && entry.event.is_some() {
                entry.event = None;
                self.stash_live -= 1;
                self.cancellations += 1;
                return;
            }
        }
    }

    /// The earliest armed lane entry by `(time, seq)`: `(time_ns, seq,
    /// slot)`, or `None` when no slot is armed. The scan is branchless
    /// min passes over the contiguous lane vectors — same-instant ties (a
    /// whole barrier arming at one boundary) would make a
    /// compare-and-branch scan mispredict on nearly every element.
    fn scan_lane(&self) -> Option<(u64, u64, usize)> {
        let mut tmin = DISARMED;
        for &t in &self.lane_time {
            tmin = tmin.min(t);
        }
        if tmin == DISARMED {
            return None;
        }
        let mut smin = u64::MAX;
        for (s, &t) in self.lane_time.iter().enumerate() {
            let cand = if t == tmin {
                self.lane_seq[s]
            } else {
                u64::MAX
            };
            smin = smin.min(cand);
        }
        let mut idx = 0;
        for (s, &t) in self.lane_time.iter().enumerate() {
            if t == tmin && self.lane_seq[s] == smin {
                idx = s;
                break;
            }
        }
        Some((tmin, smin, idx))
    }

    /// [`EventQueue::scan_lane`], memoized until the lane changes.
    #[inline]
    fn lane_min(&mut self) -> Option<(u64, u64, usize)> {
        if !self.lane_memo_valid {
            self.lane_memo = self.scan_lane();
            self.lane_memo_valid = true;
        }
        self.lane_memo
    }

    /// Serves slot `s`'s lane entry: disarms the slot and advances the
    /// clock.
    fn serve_lane(&mut self, s: usize) -> ScheduledEvent<E> {
        let time = SimTime::from_nanos(self.lane_time[s]);
        let event = self.lane_event[s]
            .take()
            .expect("armed lane slot without an event");
        self.lane_time[s] = DISARMED;
        self.armed -= 1;
        self.lane_memo_valid = false;
        self.served_slot = s as u32;
        debug_assert!(time >= self.now, "queue order violated");
        self.now = time;
        ScheduledEvent { time, event }
    }

    /// Serves the heap top and advances the clock.
    fn serve_heap(&mut self) -> Option<ScheduledEvent<E>> {
        let HeapEntry { time, event, .. } = self.heap.pop()?;
        let time = SimTime::from_nanos(time);
        self.served_slot = NO_SLOT;
        debug_assert!(time >= self.now, "queue order violated");
        self.now = time;
        Some(ScheduledEvent { time, event })
    }

    /// Time of the earliest pending event, if any. An instant
    /// mid-reordered-service reports its own time until its last
    /// stashed event is served.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.stash_live > 0 {
            return Some(self.stash_time);
        }
        self.peek_time_queue()
    }

    /// [`EventQueue::peek_time`] over the lane and heap only, ignoring
    /// the reorder stash (whose entries are counterfactually already
    /// popped).
    fn peek_time_queue(&mut self) -> Option<SimTime> {
        let lane = self.lane_min().map(|(t, _, _)| t);
        let heap = self.heap.peek().map(|h| h.time);
        let t = match (lane, heap) {
            (Some(l), Some(h)) => l.min(h),
            (l, h) => l.or(h)?,
        };
        Some(SimTime::from_nanos(t))
    }

    /// Pops the earliest event and advances the clock to its time.
    /// Under a non-FIFO [`OrderingPolicy`] the event served is the
    /// policy's pick among every event at the earliest instant;
    /// the clock still advances identically (reordering permutes
    /// within instants, never across them).
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.reorder.is_some() {
            return self.pop_reordered();
        }
        self.pop_fifo()
    }

    /// The committed `(time, seq)` FIFO pop: the lane minimum or the heap
    /// top, whichever comes first. This *is* [`EventQueue::pop`] when no
    /// reordering policy is set, and the pull primitive of
    /// [`EventQueue::pop_reordered`] when one is.
    #[inline]
    fn pop_fifo(&mut self) -> Option<ScheduledEvent<E>> {
        if let Some((t, seq, s)) = self.lane_min() {
            if self.heap.peek().is_none_or(|h| (t, seq) < (h.time, h.seq)) {
                return Some(self.serve_lane(s));
            }
        }
        self.serve_heap()
    }

    /// Policy-directed pop: pulls every event of the earliest pending
    /// instant into the stash via the FIFO path (so pull order is seq
    /// order), then serves the policy's pick among the live stash
    /// entries. The merge step re-runs on every pop of the open instant,
    /// so same-instant late-comers scheduled by handlers of
    /// already-served events join the candidate set — a legal pick,
    /// since their causes have fired, exactly as FIFO would have served
    /// them after the events already pending.
    fn pop_reordered(&mut self) -> Option<ScheduledEvent<E>> {
        if self.stash_live == 0 {
            self.stash.clear();
            match self.peek_time_queue() {
                Some(t) => self.stash_time = t,
                None => return None,
            }
        }
        while self.peek_time_queue() == Some(self.stash_time) {
            let e = self.pop_fifo().expect("peeked event vanished");
            debug_assert_eq!(e.time, self.stash_time);
            self.stash.push(StashEntry {
                slot: self.served_slot,
                event: Some(e.event),
            });
            self.stash_live += 1;
        }
        let n = self.stash_live;
        debug_assert!(n > 0, "stash_live out of sync with the stash");
        let pick = match self
            .reorder
            .as_mut()
            .expect("reordered pop without a policy")
        {
            ReorderState::Lifo => n - 1,
            ReorderState::Shuffle(rng) => {
                // Singleton batches draw nothing: the rng stream
                // advances only at real choice points.
                if n == 1 {
                    0
                } else {
                    rng.next_below(n as u64) as usize
                }
            }
            ReorderState::Exhaustive {
                k,
                prefix,
                cursor,
                log,
            } => {
                // Only real branch points consume the prefix and are
                // logged; singleton batches and batches wider than `k`
                // serve FIFO without growing the tree.
                if n == 1 || n as u32 > *k {
                    0
                } else {
                    let arity = n as u32;
                    let choice = prefix.get(*cursor).copied().unwrap_or(0).min(arity - 1);
                    log.push((choice, arity));
                    *cursor += 1;
                    choice as usize
                }
            }
        };
        // `pick` indexes the still-live stash entries in pull (seq)
        // order.
        let mut live_idx = 0;
        for entry in &mut self.stash {
            if entry.event.is_some() {
                if live_idx == pick {
                    let event = entry.event.take().expect("liveness checked above");
                    self.stash_live -= 1;
                    return Some(ScheduledEvent {
                        time: self.stash_time,
                        event,
                    });
                }
                live_idx += 1;
            }
        }
        unreachable!("stash_live counted more live entries than stored")
    }

    /// Discards every pending event (used when tearing a simulation down
    /// early).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lane_time.fill(DISARMED);
        self.lane_event.iter_mut().for_each(|e| *e = None);
        self.armed = 0;
        self.lane_memo_valid = false;
        self.stash.clear();
        self.stash_live = 0;
    }

    /// Checks the queue's internal invariants, returning every violation
    /// found (empty = consistent). O(heap + slots + stash); meant for the
    /// invariant-checking harness, not the hot path.
    ///
    /// Checked: no heap entry or armed lane entry is scheduled before the
    /// queue clock; a slot's lane time and payload agree on whether it is
    /// armed; the armed counter matches the armed cells; a valid lane memo
    /// matches a fresh scan; the stash's live counter matches, the stash
    /// is empty under FIFO, and no armed slot also has a live stashed
    /// event.
    pub fn validate(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let now = self.now.as_nanos();
        for h in self.heap.iter() {
            if h.time < now {
                violations.push(format!(
                    "heap entry (seq {}) at {}ns is before the clock {}",
                    h.seq, h.time, self.now
                ));
            }
        }
        let mut armed = 0usize;
        for (s, &t) in self.lane_time.iter().enumerate() {
            let has_event = self.lane_event[s].is_some();
            if t == DISARMED {
                if has_event {
                    violations.push(format!("slot {s}'s vacant lane cell holds an event"));
                }
                continue;
            }
            armed += 1;
            if !has_event {
                violations.push(format!(
                    "slot {s} armed at {t}ns but its lane cell holds no event"
                ));
            }
            if t < now {
                violations.push(format!(
                    "lane entry of slot {s} (seq {}) at {t}ns is before the clock {}",
                    self.lane_seq[s], self.now
                ));
            }
        }
        if armed != self.armed {
            violations.push(format!(
                "armed counter {} != {armed} armed lane cells",
                self.armed
            ));
        }
        if self.lane_memo_valid && self.lane_memo != self.scan_lane() {
            violations.push(format!(
                "lane memo {:?} != lane minimum {:?}",
                self.lane_memo,
                self.scan_lane()
            ));
        }
        let stash_live = self.stash.iter().filter(|e| e.event.is_some()).count();
        if stash_live != self.stash_live {
            violations.push(format!(
                "stash-live counter {} != {} live stash entries",
                self.stash_live, stash_live
            ));
        }
        if self.reorder.is_none() && self.stash_live != 0 {
            violations.push("live stash entries under the FIFO policy".into());
        }
        for e in &self.stash {
            if e.event.is_some() && e.slot != NO_SLOT && self.lane_time[e.slot as usize] != DISARMED
            {
                violations.push(format!(
                    "slot {} armed while its same-instant event awaits reordered service",
                    e.slot
                ));
            }
        }
        violations
    }

    /// Advances the clock to `t` without processing events. Panics if an
    /// event earlier than `t` is still pending (that event must be popped
    /// first). Used to settle the clock at a run deadline when the next
    /// event lies beyond it.
    pub fn advance_to(&mut self, t: SimTime) {
        if let Some(p) = self.peek_time() {
            assert!(p >= t, "advance_to({t}) would skip a pending event at {p}");
        }
        if t > self.now {
            self.now = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn lockstep_instant_is_served_in_seq_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(3);
        let slots: Vec<SlotId> = (0..64).map(|_| q.alloc_slot()).collect();
        // Arm in a scrambled slot order; seq order is arming order.
        for i in 0..64usize {
            let s = slots[(i * 37) % 64];
            q.schedule_in_slot(s, t, i);
        }
        // Supersede one mid-instant arm to a later time and cancel
        // another outright: both must vanish from the instant. The
        // slots are the ones arms i=1 and i=2 landed in above.
        q.schedule_in_slot(slots[37], SimTime::from_micros(9), 100);
        q.cancel_slot(slots[(2 * 37) % 64]);
        let mut order = Vec::new();
        while q.peek_time() == Some(t) {
            order.push(q.pop().unwrap().event);
            let violations = q.validate();
            assert!(violations.is_empty(), "invariants violated: {violations:?}");
        }
        let expect: Vec<usize> = (0..64).filter(|&i| i != 1 && i != 2).collect();
        assert_eq!(order, expect);
        assert_eq!(q.pop().unwrap().event, 100);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(1));
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        q.pop();
        q.schedule(SimTime::from_millis(9), ());
    }

    #[test]
    fn past_panic_names_the_event() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "later");
        q.pop(); // clock at 10 ms
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.schedule(SimTime::from_millis(9), "timewarp");
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("\"timewarp\""), "event repr in panic: {msg}");
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 1);
        q.pop();
        q.schedule(q.now(), 2); // immediate follow-up event
        assert_eq!(q.pop().unwrap().event, 2);
    }

    #[test]
    #[should_panic(expected = "end of time")]
    fn slot_event_at_the_end_of_time_panics() {
        // `u64::MAX` ns marks a disarmed lane cell, so it cannot be armed.
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        q.schedule_in_slot(s, SimTime::from_nanos(u64::MAX), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        for i in 0..5u32 {
            q.schedule(SimTime::from_nanos(i as u64), i);
        }
        assert_eq!(q.len(), 5);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), "first");
        let e = q.pop().unwrap();
        assert_eq!(e.event, "first");
        q.schedule(e.time + SimDuration::from_millis(1), "second");
        assert_eq!(q.pop().unwrap().event, "second");
    }

    #[test]
    fn slot_rearm_supersedes_previous_event() {
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        q.schedule_in_slot(s, SimTime::from_millis(5), "old");
        q.schedule_in_slot(s, SimTime::from_millis(2), "new");
        assert_eq!(q.len(), 1, "superseded entry is gone");
        assert_eq!(q.cancellations(), 1);
        assert_eq!(q.pop().unwrap().event, "new");
        assert_eq!(q.pop(), None, "the superseded entry never fires");
        assert!(!q.slot_armed(s));
    }

    #[test]
    fn cancel_slot_kills_pending_event() {
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        q.schedule(SimTime::from_millis(1), "live");
        q.schedule_in_slot(s, SimTime::from_millis(2), "doomed");
        assert!(q.slot_armed(s));
        q.cancel_slot(s);
        assert!(!q.slot_armed(s));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec!["live"]);
        q.cancel_slot(s); // idempotent
        assert_eq!(q.cancellations(), 1);
    }

    #[test]
    fn slot_disarms_when_its_event_fires() {
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        q.schedule_in_slot(s, SimTime::from_millis(1), "bang");
        assert_eq!(q.pop().unwrap().event, "bang");
        assert!(!q.slot_armed(s));
        // Cancelling after the fire is a no-op, not a phantom cancellation.
        q.cancel_slot(s);
        assert_eq!(q.cancellations(), 0);
    }

    #[test]
    fn same_instant_fifo_survives_mass_cancellation() {
        // Schedule interleaved plain events and slot events at one
        // instant, cancel every slot event, and check the survivors still
        // pop in insertion order.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(3);
        let mut doomed = Vec::new();
        let mut expect = Vec::new();
        for i in 0..96u32 {
            if i % 2 == 0 {
                let s = q.alloc_slot();
                q.schedule_in_slot(s, t, i);
                doomed.push(s);
            } else {
                q.schedule(t, i);
                expect.push(i);
            }
        }
        for s in doomed {
            q.cancel_slot(s);
        }
        assert_eq!(q.len(), expect.len());
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(
            order, expect,
            "FIFO within the instant, cancelled entries gone"
        );
    }

    #[test]
    fn validate_accepts_consistent_queue() {
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        q.schedule(SimTime::from_millis(1), "plain");
        q.schedule_in_slot(s, SimTime::from_millis(5), "old");
        q.schedule_in_slot(s, SimTime::from_millis(2), "new"); // supersedes "old"
        assert!(q.validate().is_empty(), "{:?}", q.validate());
        q.pop();
        q.pop();
        assert!(q.validate().is_empty(), "{:?}", q.validate());
    }

    #[test]
    fn validate_flags_desynced_armed_count_and_lane_cell() {
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        let _idle = q.alloc_slot();
        q.schedule_in_slot(s, SimTime::from_millis(1), ());
        assert!(q.validate().is_empty(), "{:?}", q.validate());
        // An armed counter that disagrees with the lane.
        q.armed += 1;
        let v = q.validate();
        assert!(
            v.iter().any(|m| m.contains("armed counter")),
            "armed-count desync not reported: {v:?}"
        );
        q.armed -= 1;
        // A lane cell that reads disarmed but still holds its payload.
        q.lane_time[0] = DISARMED;
        let v = q.validate();
        assert!(
            v.iter()
                .any(|m| m.contains("vacant lane cell holds an event")),
            "lane-cell desync not reported: {v:?}"
        );
        // A cell armed with no payload behind it.
        q.lane_time[1] = 5;
        let v = q.validate();
        assert!(
            v.iter().any(|m| m.contains("holds no event")),
            "phantom arm not reported: {v:?}"
        );
    }

    #[test]
    fn validate_flags_a_stale_lane_memo() {
        let mut q = EventQueue::new();
        let a = q.alloc_slot();
        let b = q.alloc_slot();
        q.schedule_in_slot(a, SimTime::from_millis(4), "a");
        q.schedule_in_slot(b, SimTime::from_millis(2), "b");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        // Move slot b's event without invalidating the memo.
        q.lane_time[1] = SimTime::from_millis(9).as_nanos();
        let v = q.validate();
        assert!(
            v.iter().any(|m| m.contains("lane memo")),
            "stale memo not reported: {v:?}"
        );
    }

    #[test]
    fn peek_time_ignores_cancelled_slot_events() {
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        q.schedule_in_slot(s, SimTime::from_millis(1), "cancelled");
        q.schedule(SimTime::from_millis(4), "live");
        q.cancel_slot(s);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(4)));
        // advance_to must likewise ignore it.
        q.advance_to(SimTime::from_millis(3));
        assert_eq!(q.now(), SimTime::from_millis(3));
    }

    // ------------------------------------------------------------------
    // Orderings that stress the lane-vs-heap merge: times far apart,
    // schedules before an already-peeked event, and same-instant events
    // added or cancelled while their instant is being served.

    #[test]
    fn pops_in_order_across_powers_of_64() {
        // Times straddling every power of 64 from 64 ns to 2^48 ns.
        let mut times = Vec::new();
        for k in 1..=8u32 {
            let edge = 1u64 << (6 * k);
            times.extend_from_slice(&[edge - 1, edge, edge + 1]);
        }
        let mut q = EventQueue::new();
        // Insert in reverse so the order is not free.
        for (i, &t) in times.iter().rev().enumerate() {
            q.schedule(SimTime::from_nanos(t), (t, i));
        }
        let mut last = 0u64;
        let mut popped = 0;
        while let Some(e) = q.pop() {
            assert!(e.event.0 >= last, "out of order at {:?}", e.event);
            assert_eq!(e.time.as_nanos(), e.event.0);
            last = e.event.0;
            popped += 1;
        }
        assert_eq!(popped, times.len());
    }

    #[test]
    fn far_future_events_round_trip() {
        // A year-away event pops in order, FIFO at its instant.
        let mut q = EventQueue::new();
        let year = SimTime::from_secs(365 * 24 * 3600);
        q.schedule(year, "far-a");
        q.schedule(SimTime::from_millis(1), "near");
        q.schedule(year, "far-b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().event, "near");
        assert_eq!(q.peek_time(), Some(year));
        assert_eq!(q.pop().unwrap().event, "far-a");
        assert_eq!(q.pop().unwrap().event, "far-b");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_slot_cancellation_never_fires() {
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        let far = SimTime::from_secs(30 * 24 * 3600);
        q.schedule_in_slot(s, far, "doomed");
        q.schedule(far, "survivor");
        q.cancel_slot(s);
        assert_eq!(q.pop().unwrap().event, "survivor");
        assert_eq!(q.pop(), None);
        assert!(q.validate().is_empty(), "{:?}", q.validate());
    }

    #[test]
    fn schedule_before_a_peeked_event_pops_first() {
        // A peek looks ahead to the next event; a later schedule between
        // the clock and that event must still pop first.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "late");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(10)));
        q.schedule(SimTime::from_millis(3), "mid");
        q.schedule(SimTime::from_micros(1), "soon");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec!["soon", "mid", "late"]);
    }

    #[test]
    fn same_instant_appends_during_service() {
        // Pop one event of an instant, then schedule more at that same
        // instant: they are served after the pending ones, in insertion
        // order.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(77);
        q.schedule(t, 0);
        q.schedule(t, 1);
        assert_eq!(q.pop().unwrap().event, 0);
        q.schedule(t, 2);
        q.schedule(t, 3);
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 3);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancellation_inside_the_served_instant_is_skipped() {
        let mut q = EventQueue::new();
        let s = q.alloc_slot();
        let t = SimTime::from_micros(5);
        q.schedule(t, "a");
        q.schedule_in_slot(s, t, "doomed");
        q.schedule(t, "b");
        assert_eq!(q.pop().unwrap().event, "a"); // instant now being served
        q.cancel_slot(s);
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop(), None);
    }

    // ------------------------------------------------------------------
    // Same-instant ordering policies (see `crate::ordering`).

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(SimTime, E)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.event))
            .collect()
    }

    #[test]
    fn explicit_fifo_policy_is_the_default_behavior() {
        let mut q = EventQueue::new();
        q.set_ordering(OrderingPolicy::Fifo);
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn lifo_reverses_each_instant_but_never_crosses_instants() {
        let mut q = EventQueue::new();
        q.set_ordering(OrderingPolicy::Lifo);
        let t1 = SimTime::from_millis(1);
        let t2 = SimTime::from_millis(2);
        for i in 0..4 {
            q.schedule(t1, i);
            q.schedule(t2, 10 + i);
        }
        let order = drain(&mut q);
        assert_eq!(
            order,
            vec![
                (t1, 3),
                (t1, 2),
                (t1, 1),
                (t1, 0),
                (t2, 13),
                (t2, 12),
                (t2, 11),
                (t2, 10),
            ]
        );
    }

    #[test]
    fn shuffle_is_a_seeded_per_instant_permutation() {
        let run = |seed: u64| {
            let mut q = EventQueue::new();
            q.set_ordering(OrderingPolicy::SeededShuffle(seed));
            let t = SimTime::from_micros(9);
            for i in 0..32 {
                q.schedule(t, i);
            }
            q.schedule(SimTime::from_micros(10), 99);
            drain(&mut q)
        };
        let a = run(1);
        assert_eq!(a, run(1), "same seed replays bit-identically");
        let mut events: Vec<i32> = a[..32].iter().map(|&(_, e)| e).collect();
        assert_eq!(a[32].1, 99, "later instants never mix in");
        events.sort_unstable();
        assert_eq!(events, (0..32).collect::<Vec<_>>(), "a permutation");
        assert_ne!(a, run(2), "different seeds explore different orders");
    }

    #[test]
    fn reordered_peek_len_and_validate_mid_instant() {
        let mut q = EventQueue::new();
        q.set_ordering(OrderingPolicy::Lifo);
        let t = SimTime::from_millis(3);
        for i in 0..3 {
            q.schedule(t, i);
        }
        q.schedule(SimTime::from_millis(7), 9);
        assert_eq!(q.pop().unwrap().event, 2);
        // Two stashed events remain at t; they are still pending.
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(t));
        assert!(q.validate().is_empty(), "{:?}", q.validate());
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.pop().unwrap().event, 9);
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_mid_instant_kills_the_stashed_entry() {
        // Under FIFO the cancel would come too late ("doomed" pops
        // before the canceller could run), but under LIFO the cancel
        // handler runs first — the stashed entry must die exactly as a
        // queue-resident one would.
        let mut q = EventQueue::new();
        q.set_ordering(OrderingPolicy::Lifo);
        let s = q.alloc_slot();
        let t = SimTime::from_micros(5);
        q.schedule_in_slot(s, t, "doomed");
        q.schedule(t, "canceller");
        assert_eq!(q.pop().unwrap().event, "canceller");
        q.cancel_slot(s);
        assert!(!q.slot_armed(s));
        assert_eq!(q.cancellations(), 1);
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert!(q.validate().is_empty(), "{:?}", q.validate());
    }

    #[test]
    fn rearm_mid_instant_supersedes_the_stashed_entry() {
        let mut q = EventQueue::new();
        q.set_ordering(OrderingPolicy::Lifo);
        let s = q.alloc_slot();
        let t = SimTime::from_micros(5);
        q.schedule_in_slot(s, t, "old");
        q.schedule(t, "rearmer");
        assert_eq!(q.pop().unwrap().event, "rearmer");
        q.schedule_in_slot(s, SimTime::from_micros(8), "new");
        assert!(q.validate().is_empty(), "{:?}", q.validate());
        let order = drain(&mut q);
        assert_eq!(order, vec![(SimTime::from_micros(8), "new")]);
    }

    #[test]
    fn same_instant_latecomers_join_the_open_instant() {
        let mut q = EventQueue::new();
        q.set_ordering(OrderingPolicy::Lifo);
        let t = SimTime::from_micros(77);
        q.schedule(t, 0);
        q.schedule(t, 1);
        assert_eq!(q.pop().unwrap().event, 1);
        // A handler of event 1 schedules two more at the same instant:
        // they are candidates of the still-open instant.
        q.schedule(t, 2);
        q.schedule(t, 3);
        assert_eq!(q.pop().unwrap().event, 3);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn exhaustive_replays_prefixes_and_logs_branch_points() {
        let run = |prefix: Vec<u32>| {
            let mut q = EventQueue::new();
            q.set_ordering(OrderingPolicy::Exhaustive { k: 3, prefix });
            let t = SimTime::from_millis(1);
            for i in 0..3 {
                q.schedule(t, i);
            }
            q.schedule(SimTime::from_millis(2), 9); // singleton: not logged
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
            (order, q.ordering_log().to_vec())
        };
        let (order, log) = run(vec![]);
        assert_eq!(order, vec![0, 1, 2, 9], "empty prefix descends FIFO-first");
        assert_eq!(log, vec![(0, 3), (0, 2)]);
        let (order, log) = run(vec![2, 1]);
        assert_eq!(order, vec![2, 1, 0, 9]);
        assert_eq!(log, vec![(2, 3), (1, 2)]);
        // A prefix choice past the arity clamps instead of panicking.
        let (order, _) = run(vec![9, 9]);
        assert_eq!(order, vec![2, 1, 0, 9]);
    }

    #[test]
    fn exhaustive_enumeration_visits_every_permutation_once() {
        let run = |prefix: Vec<u32>| {
            let mut q = EventQueue::new();
            q.set_ordering(OrderingPolicy::Exhaustive { k: 4, prefix });
            let t = SimTime::from_millis(1);
            for i in 0..3 {
                q.schedule(t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
            (order, q.ordering_log().to_vec())
        };
        let mut schedules = Vec::new();
        let mut prefix = Some(Vec::new());
        while let Some(p) = prefix {
            let (order, log) = run(p);
            schedules.push(order);
            prefix = crate::ordering::next_prefix(&log);
        }
        schedules.sort();
        let expect = vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        assert_eq!(schedules, expect, "3! distinct schedules, each once");
    }

    #[test]
    fn exhaustive_batches_wider_than_k_fall_back_to_fifo() {
        let mut q = EventQueue::new();
        q.set_ordering(OrderingPolicy::Exhaustive {
            k: 2,
            prefix: vec![],
        });
        let t = SimTime::from_millis(1);
        for i in 0..5 {
            q.schedule(t, i);
        }
        // 5 > k: FIFO until the live batch shrinks to k.
        assert_eq!(q.pop().unwrap().event, 0);
        assert_eq!(q.pop().unwrap().event, 1);
        assert_eq!(q.pop().unwrap().event, 2);
        assert!(q.ordering_log().is_empty());
        assert_eq!(q.pop().unwrap().event, 3);
        assert_eq!(q.ordering_log(), &[(0, 2)]);
        assert_eq!(q.pop().unwrap().event, 4);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reordering_respects_advance_to_and_clear() {
        let mut q = EventQueue::new();
        q.set_ordering(OrderingPolicy::Lifo);
        let t = SimTime::from_millis(4);
        q.schedule(t, 0);
        q.schedule(t, 1);
        q.advance_to(SimTime::from_millis(2));
        assert_eq!(q.pop().unwrap().event, 1);
        // The open instant still holds a pending event: advancing past
        // it must panic, same as FIFO would.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.advance_to(SimTime::from_millis(9));
        }));
        assert!(err.is_err(), "advance_to skipped a stashed event");
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert!(q.validate().is_empty(), "{:?}", q.validate());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever the insertion order, pops come out sorted by time, and
        /// same-time events preserve insertion order (stable).
        #[test]
        fn pops_sorted_and_stable(times in proptest::collection::vec(0u64..1000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(*t), (*t, i));
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some(e) = q.pop() {
                let (t, i) = e.event;
                prop_assert_eq!(SimTime::from_nanos(t), e.time);
                if let Some((lt, li)) = last {
                    prop_assert!(e.time >= lt);
                    if e.time == lt {
                        prop_assert!(i > li, "FIFO within an instant");
                    }
                }
                last = Some((e.time, i));
            }
        }

        /// Explicitly setting the FIFO ordering policy is a bit-exact
        /// no-op: for any same-instant collision pattern the policy'd
        /// queue pops the identical `(time, event)` sequence as an
        /// untouched queue — the pre-ordering-machinery contract.
        #[test]
        fn explicit_fifo_policy_replays_identically(
            times in proptest::collection::vec(0u64..50, 1..150)
        ) {
            let mut plain = EventQueue::new();
            let mut fifo = EventQueue::new();
            fifo.set_ordering(OrderingPolicy::Fifo);
            for (i, t) in times.iter().enumerate() {
                plain.schedule(SimTime::from_nanos(*t), i);
                fifo.schedule(SimTime::from_nanos(*t), i);
            }
            loop {
                let a = plain.pop().map(|e| (e.time, e.event));
                let b = fifo.pop().map(|e| (e.time, e.event));
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// A seeded shuffle never invents, drops, or time-travels an
        /// event: the drain stays sorted by time and every instant's
        /// batch is a permutation of the FIFO batch at that instant.
        #[test]
        fn shuffle_permutes_within_instants_only(
            times in proptest::collection::vec(0u64..40, 1..150),
            seed in 0u64..u64::MAX,
        ) {
            let mut shuf = EventQueue::new();
            shuf.set_ordering(OrderingPolicy::SeededShuffle(seed));
            for (i, t) in times.iter().enumerate() {
                shuf.schedule(SimTime::from_nanos(*t), i);
            }
            // Reference batches straight from the input.
            let mut expected: std::collections::BTreeMap<u64, Vec<usize>> =
                std::collections::BTreeMap::new();
            for (i, t) in times.iter().enumerate() {
                expected.entry(*t).or_default().push(i);
            }
            let mut got: std::collections::BTreeMap<u64, Vec<usize>> =
                std::collections::BTreeMap::new();
            let mut last = SimTime::ZERO;
            while let Some(e) = shuf.pop() {
                prop_assert!(e.time >= last, "shuffle time-travelled");
                last = e.time;
                got.entry(e.time.as_nanos()).or_default().push(e.event);
            }
            for batch in got.values_mut() {
                batch.sort_unstable();
            }
            prop_assert_eq!(got, expected);
        }

        /// The clock equals the time of the last popped event and never
        /// regresses across interleaved schedule/pop sequences.
        #[test]
        fn clock_monotone_under_interleaving(
            ops in proptest::collection::vec((0u64..1000, any::<bool>()), 1..200)
        ) {
            let mut q = EventQueue::new();
            let mut max_seen = SimTime::ZERO;
            for (t, do_pop) in ops {
                let at = q.now() + crate::time::SimDuration::from_nanos(t);
                q.schedule(at, ());
                if do_pop {
                    let e = q.pop().unwrap();
                    prop_assert!(e.time >= max_seen);
                    max_seen = e.time;
                    prop_assert_eq!(q.now(), e.time);
                }
            }
        }

        /// Slot-armed scheduling pops the same live-event sequence as the
        /// post-and-invalidate idiom it replaces: a reference queue posts
        /// every event plainly, remembers each slot's latest sequence
        /// number, and filters stale pops by hand. The optimised queue must
        /// produce exactly the reference's surviving pop order.
        #[test]
        fn slot_arming_matches_heap_posting(
            ops in proptest::collection::vec((0u8..4, 0u8..4, 0u64..50), 1..300)
        ) {
            const N_SLOTS: usize = 4;
            let mut slotted = EventQueue::new();
            let mut posted = EventQueue::new();
            let slots: Vec<SlotId> = (0..N_SLOTS).map(|_| slotted.alloc_slot()).collect();
            // The reference's staleness guard: latest armed seq per slot.
            let mut armed: [Option<u64>; N_SLOTS] = [None; N_SLOTS];
            let mut ref_seq = 0u64;
            // Live events in the reference queue, tracked independently so
            // an all-dead pop is skipped in both queues (popping through a
            // dead tail would advance only the reference's clock).
            let mut ref_live = 0usize;
            let mut fired = Vec::new();
            let mut ref_fired = Vec::new();
            for (op, slot, dt) in ops {
                let at = slotted.now() + crate::time::SimDuration::from_nanos(dt);
                let s = slot as usize;
                match op {
                    0 => {
                        // Plain one-shot event (a wakeup).
                        slotted.schedule(at, (255u8, ref_seq));
                        posted.schedule(at, (255u8, ref_seq));
                        ref_seq += 1;
                        ref_live += 1;
                    }
                    1 => {
                        // (Re-)arm the slot's boundary event.
                        slotted.schedule_in_slot(slots[s], at, (slot, ref_seq));
                        posted.schedule(at, (slot, ref_seq));
                        if armed[s].is_none() {
                            ref_live += 1;
                        }
                        armed[s] = Some(ref_seq);
                        ref_seq += 1;
                    }
                    2 => {
                        // Cancel the slot.
                        slotted.cancel_slot(slots[s]);
                        if armed[s].take().is_some() {
                            ref_live -= 1;
                        }
                    }
                    _ => {
                        if ref_live == 0 {
                            prop_assert!(slotted.pop().is_none());
                            continue;
                        }
                        // Pop one live event from each queue.
                        let e = slotted.pop().unwrap();
                        fired.push((e.time, e.event));
                        loop {
                            let e = posted.pop().unwrap();
                            let (tag, seq) = e.event;
                            let live = tag == 255 || armed[tag as usize] == Some(seq);
                            if live {
                                if tag != 255 {
                                    armed[tag as usize] = None;
                                }
                                ref_live -= 1;
                                ref_fired.push((e.time, e.event));
                                break;
                            }
                        }
                        prop_assert_eq!(&fired, &ref_fired);
                    }
                }
            }
            // Drain both queues completely and compare the tails.
            while let Some(e) = slotted.pop() {
                fired.push((e.time, e.event));
            }
            while let Some(e) = posted.pop() {
                let (tag, seq) = e.event;
                if tag == 255 || armed[tag as usize] == Some(seq) {
                    if tag != 255 {
                        armed[tag as usize] = None;
                    }
                    ref_fired.push((e.time, e.event));
                }
            }
            prop_assert_eq!(fired, ref_fired);
        }

        /// A seeded shuffle serves exactly the same per-instant multiset
        /// of events as FIFO — reordering permutes within instants,
        /// never across them — and the clock stays monotone.
        #[test]
        fn shuffle_preserves_per_instant_multisets(
            times in proptest::collection::vec(0u64..60, 1..150),
            seed in 0u64..u64::MAX
        ) {
            let mut fifo = EventQueue::new();
            let mut shuf = EventQueue::new();
            shuf.set_ordering(OrderingPolicy::SeededShuffle(seed));
            for (i, t) in times.iter().enumerate() {
                fifo.schedule(SimTime::from_nanos(*t), i);
                shuf.schedule(SimTime::from_nanos(*t), i);
            }
            let mut a: Vec<(SimTime, usize)> = Vec::new();
            while let Some(e) = fifo.pop() {
                a.push((e.time, e.event));
            }
            let mut b: Vec<(SimTime, usize)> = Vec::new();
            let mut last = SimTime::ZERO;
            while let Some(e) = shuf.pop() {
                prop_assert!(e.time >= last, "clock regressed");
                last = e.time;
                b.push((e.time, e.event));
            }
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }

        /// Slot arming and cancelling under a shuffle keep the queue's
        /// internal invariants intact and the clock monotone — the
        /// reordered analogue of `slot_arming_matches_heap_posting`.
        #[test]
        fn slot_ops_under_shuffle_stay_consistent(
            ops in proptest::collection::vec((0u8..4, 0u8..4, 0u64..50), 1..250),
            seed in 0u64..u64::MAX
        ) {
            const N_SLOTS: usize = 4;
            let mut q = EventQueue::new();
            q.set_ordering(OrderingPolicy::SeededShuffle(seed));
            let slots: Vec<SlotId> = (0..N_SLOTS).map(|_| q.alloc_slot()).collect();
            let mut max_seen = SimTime::ZERO;
            for (op, slot, dt) in ops {
                let at = q.now() + crate::time::SimDuration::from_nanos(dt);
                match op {
                    0 => q.schedule(at, 0u8),
                    1 => q.schedule_in_slot(slots[slot as usize], at, 1u8),
                    2 => q.cancel_slot(slots[slot as usize]),
                    _ => {
                        if let Some(e) = q.pop() {
                            prop_assert!(e.time >= max_seen, "clock regressed");
                            max_seen = e.time;
                        }
                    }
                }
                let v = q.validate();
                prop_assert!(v.is_empty(), "violations: {:?}", v);
            }
            while let Some(e) = q.pop() {
                prop_assert!(e.time >= max_seen, "clock regressed");
                max_seen = e.time;
            }
            prop_assert!(q.is_empty());
        }
    }
}
