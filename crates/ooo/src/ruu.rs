//! The Register Update Unit: the instruction window of the out-of-order
//! core (SimpleScalar's RUU — a combined ROB/reservation-station array).
//!
//! The window is a ring of `capacity` slots. Sequence numbers are
//! contiguous and the first dispatched entry takes slot 0, so the entry
//! with sequence `seq` always lives in slot `seq % capacity` and is located
//! from the front in O(1). Wakeup state is kept per slot as bitsets
//! ([`SlotSet`]): every producer slot holds the set of consumer slots
//! waiting on its result, and the core's ready set is one more `SlotSet`.

use hidisc_isa::instr::{FuClass, Instr};
use hidisc_isa::wire::{Dec, Enc, WireError, WireResult};

/// A set of RUU slots: one bit per slot, `ceil(capacity / 64)` words.
///
/// Bits at or beyond the capacity are never set, so a partial last word
/// (the CP's 16-slot window) needs no masking. Walking the members in
/// cyclic order from the window's front slot visits them oldest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    /// An empty set over `capacity` slots.
    pub fn new(capacity: usize) -> SlotSet {
        SlotSet {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Adds `slot`; returns true when it was not already a member.
    pub fn insert(&mut self, slot: usize) -> bool {
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        fresh
    }

    /// Removes `slot`.
    pub fn remove(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1u64 << (slot % 64));
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Overwrites this set with `other` (same capacity) without allocating.
    pub fn copy_from(&mut self, other: &SlotSet) {
        self.words.copy_from_slice(&other.words);
    }

    /// The first member at or after `start` in cyclic slot order: the
    /// oldest member when `start` is the window's front slot.
    pub fn first_from(&self, start: usize) -> Option<usize> {
        if let [w] = self.words[..] {
            // One word: rotate the front to bit 0, then find-first-set.
            // Unused high bits are zero, so the rotation keeps age order
            // for partial words too.
            let r = w.rotate_right(start as u32);
            return (r != 0).then(|| (start + r.trailing_zeros() as usize) % 64);
        }
        let n = self.words.len();
        let (w0, b0) = (start / 64, start % 64);
        let at_or_after = self.words[w0] & (!0u64 << b0);
        if at_or_after != 0 {
            return Some(w0 * 64 + at_or_after.trailing_zeros() as usize);
        }
        for i in 1..n {
            let wi = (w0 + i) % n;
            if self.words[wi] != 0 {
                return Some(wi * 64 + self.words[wi].trailing_zeros() as usize);
            }
        }
        let before = self.words[w0] & !(!0u64 << b0);
        (before != 0).then(|| w0 * 64 + before.trailing_zeros() as usize)
    }

    /// Removes and returns [`first_from`](Self::first_from)`(start)`.
    pub fn pop_first_from(&mut self, start: usize) -> Option<usize> {
        let slot = self.first_from(start)?;
        self.remove(slot);
        Some(slot)
    }
}

/// Timing state of an RUU entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Dispatched, waiting for operands or a functional unit.
    Waiting,
    /// Issued to a functional unit; completes at `complete_at`.
    Issued,
    /// Result available.
    Done,
}

/// One instruction in flight.
#[derive(Debug, Clone, Copy)]
pub struct RuuEntry {
    /// Sequence number (dispatch order, contiguous).
    pub seq: u64,
    /// Static instruction index.
    pub pc: u32,
    /// The instruction.
    pub instr: Instr,
    /// Functional-unit class.
    pub fu: FuClass,
    /// Timing state.
    pub state: EntryState,
    /// Cycle the result becomes available (valid once issued).
    pub complete_at: u64,
    /// Producers of the source operands (sequence numbers); `None` = ready
    /// at dispatch.
    pub deps: [Option<u64>; 3],
    /// Value carried to commit (queue pushes: the 64-bit payload to push).
    pub payload: u64,
    /// Conditional branch: direction predicted at fetch.
    pub predicted_taken: bool,
    /// Conditional branch: actual direction (known at dispatch).
    pub actual_taken: bool,
    /// The correct next pc (branches only).
    pub correct_next: u32,
    /// This branch was mispredicted; fetch resumes when it completes.
    pub mispredicted: bool,
    /// Index is a memory instruction with a matching LSQ entry.
    pub is_mem: bool,
    /// Ready-list scheduling: *distinct* producers whose result is not yet
    /// available. The entry enters the ready set when this reaches 0.
    pub pending_deps: u8,
}

impl RuuEntry {
    /// Creates a fresh entry in the `Waiting` state.
    pub fn new(seq: u64, pc: u32, instr: Instr) -> RuuEntry {
        RuuEntry {
            seq,
            pc,
            instr,
            fu: instr.fu_class(),
            state: EntryState::Waiting,
            complete_at: 0,
            deps: [None; 3],
            payload: 0,
            predicted_taken: false,
            actual_taken: false,
            correct_next: 0,
            mispredicted: false,
            is_mem: instr.is_mem(),
            pending_deps: 0,
        }
    }
}

/// The instruction window.
#[derive(Debug, Clone)]
pub struct Ruu {
    /// Ring storage; the entry of sequence `seq` lives in slot
    /// `seq % capacity`. Slots outside the occupied run hold stale entries.
    slots: Vec<RuuEntry>,
    /// Ready-list scheduling: `consumers[p]` is the set of slots whose
    /// entries wait on the result of the entry in slot `p`.
    consumers: Vec<SlotSet>,
    /// Slot of the oldest entry.
    head: usize,
    /// Entries in flight.
    len: usize,
    next_seq: u64,
    /// Entries in the `Waiting` state (maintained, not scanned).
    n_waiting: usize,
    /// Entries in the `Done` state (maintained, not scanned).
    n_done: usize,
}

impl Ruu {
    /// Creates an empty window of the given capacity (at least 1).
    pub fn new(capacity: usize) -> Ruu {
        assert!(capacity > 0, "RUU must be non-empty");
        Ruu {
            slots: vec![RuuEntry::new(0, 0, Instr::Nop); capacity],
            consumers: vec![SlotSet::new(capacity); capacity],
            head: 0,
            len: 0,
            next_seq: 0,
            n_waiting: 0,
            n_done: 0,
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// `head + off`, wrapped into the ring (`off < capacity`).
    fn wrap(&self, off: usize) -> usize {
        let i = self.head + off;
        if i >= self.capacity() {
            i - self.capacity()
        } else {
            i
        }
    }

    fn front_seq(&self) -> u64 {
        self.next_seq - self.len as u64
    }

    /// True when no more instructions can dispatch.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity()
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of instructions in flight.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Allocates an entry; returns its sequence number. Panics when full
    /// (caller checks `is_full`).
    pub fn push(&mut self, pc: u32, instr: Instr) -> u64 {
        assert!(!self.is_full(), "RUU overflow");
        let seq = self.next_seq;
        let slot = self.wrap(self.len);
        debug_assert_eq!(slot as u64, seq % self.capacity() as u64);
        debug_assert!(self.consumers[slot].is_empty(), "stale wakeup links");
        self.slots[slot] = RuuEntry::new(seq, pc, instr);
        self.next_seq += 1;
        self.len += 1;
        self.n_waiting += 1;
        seq
    }

    /// The oldest entry.
    pub fn front(&self) -> Option<&RuuEntry> {
        (self.len > 0).then(|| &self.slots[self.head])
    }

    /// Slot of the oldest entry (where the next entry would go when the
    /// window is empty): the start of oldest-first slot order.
    pub fn front_slot(&self) -> usize {
        self.head
    }

    /// Removes and returns the oldest entry.
    pub fn pop_front(&mut self) -> Option<RuuEntry> {
        let e = *self.front()?;
        self.head = self.wrap(1);
        self.len -= 1;
        match e.state {
            EntryState::Waiting => self.n_waiting -= 1,
            EntryState::Done => self.n_done -= 1,
            EntryState::Issued => {}
        }
        Some(e)
    }

    /// Slot of the in-flight entry `seq`, or `None` when it is not in the
    /// window.
    pub fn slot_of(&self, seq: u64) -> Option<usize> {
        let off = seq.wrapping_sub(self.front_seq());
        (off < self.len as u64).then(|| self.wrap(off as usize))
    }

    /// Sequence number of the entry in an occupied `slot`.
    pub fn seq_at(&self, slot: usize) -> u64 {
        let age = if slot >= self.head {
            slot - self.head
        } else {
            slot + self.capacity() - self.head
        };
        debug_assert!(age < self.len, "slot {slot} is not occupied");
        self.front_seq() + age as u64
    }

    /// Looks up an entry by sequence number.
    pub fn get(&self, seq: u64) -> Option<&RuuEntry> {
        self.slot_of(seq).map(|s| &self.slots[s])
    }

    /// Mutable lookup by sequence number.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut RuuEntry> {
        self.slot_of(seq).map(|s| &mut self.slots[s])
    }

    /// True if the producer with sequence `seq` has its result available at
    /// `now` — i.e. it already committed (left the window) or is `Done`.
    pub fn producer_done(&self, seq: u64, now: u64) -> bool {
        match self.get(seq) {
            None => true, // committed
            Some(e) => e.state == EntryState::Done && e.complete_at <= now,
        }
    }

    /// Iterates entries oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RuuEntry> {
        (0..self.len).map(|i| &self.slots[self.wrap(i)])
    }

    /// Marks `seq` as issued, completing at `complete_at`. The only legal
    /// transition out of `Waiting`; keeps the state counts exact.
    pub fn mark_issued(&mut self, seq: u64, complete_at: u64) {
        let e = self.get_mut(seq).expect("mark_issued: seq not in window");
        debug_assert_eq!(e.state, EntryState::Waiting);
        e.state = EntryState::Issued;
        e.complete_at = complete_at;
        self.n_waiting -= 1;
    }

    /// Registers `consumer` as waiting on the result of the in-flight
    /// `producer`. Returns true for a new link, false when `consumer`
    /// already waits on `producer` (a duplicated operand) — so summing the
    /// results counts distinct producers.
    pub fn add_consumer(&mut self, producer: u64, consumer: u64) -> bool {
        let p = self.slot_of(producer).expect("producer in window");
        let c = self.slot_of(consumer).expect("consumer in window");
        self.consumers[p].insert(c)
    }

    /// Marks `seq` as done (result available) and wakes its consumers:
    /// each loses one pending producer, and those left with none join
    /// `ready`. The only legal transition out of `Issued`; keeps the state
    /// counts exact. A consumer is younger than its producer and commit
    /// is in order, so every linked consumer is still in the window.
    pub fn mark_done(&mut self, seq: u64, ready: &mut SlotSet) {
        let p = self.slot_of(seq).expect("mark_done: seq not in window");
        debug_assert_eq!(self.slots[p].state, EntryState::Issued);
        self.slots[p].state = EntryState::Done;
        self.n_done += 1;
        for wi in 0..self.consumers[p].words.len() {
            let mut bits = std::mem::take(&mut self.consumers[p].words[wi]);
            while bits != 0 {
                let c = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let e = &mut self.slots[c];
                e.pending_deps -= 1;
                if e.pending_deps == 0 {
                    ready.insert(c);
                }
            }
        }
    }

    /// `(waiting, done)` counts, maintained across state transitions —
    /// equal by construction to what a full window scan would count.
    pub fn state_counts(&self) -> (usize, usize) {
        (self.n_waiting, self.n_done)
    }

    /// Promotes `Issued` entries whose completion time has passed to
    /// `Done` (the scan scheduler's harvest; no wakeup links involved).
    pub fn harvest_completions(&mut self, now: u64) {
        for i in 0..self.len {
            let s = self.wrap(i);
            let e = &mut self.slots[s];
            if e.state == EntryState::Issued && e.complete_at <= now {
                e.state = EntryState::Done;
                self.n_done += 1;
            }
        }
    }

    /// Serialises the window. Instructions are *not* stored — only
    /// correct-path instructions dispatch (functional execution is
    /// in-order), so the loader re-derives them from the static program
    /// by pc. Each entry's wakeup links are stored as the ascending
    /// sequence numbers of its consumers.
    pub fn save_state(&self, e: &mut Enc) {
        e.u64(self.next_seq);
        e.usize(self.len);
        for i in 0..self.len {
            let s = self.wrap(i);
            let en = &self.slots[s];
            e.u64(en.seq);
            e.u32(en.pc);
            e.u8(match en.state {
                EntryState::Waiting => 0,
                EntryState::Issued => 1,
                EntryState::Done => 2,
            });
            e.u64(en.complete_at);
            for dep in en.deps {
                match dep {
                    None => e.bool(false),
                    Some(s) => {
                        e.bool(true);
                        e.u64(s);
                    }
                }
            }
            e.u64(en.payload);
            e.bool(en.predicted_taken);
            e.bool(en.actual_taken);
            e.u32(en.correct_next);
            e.bool(en.mispredicted);
            let mut links = self.consumers[s].clone();
            e.usize(links.len());
            while let Some(c) = links.pop_first_from(self.head) {
                e.u64(self.seq_at(c));
            }
            e.u8(en.pending_deps);
        }
    }

    /// Restores from a [`save_state`](Self::save_state) stream.
    /// `instr_at` resolves a pc to the static instruction (the owning
    /// core's program); state counts are recomputed. A window larger than
    /// the capacity, non-contiguous sequence numbers, a wakeup link that
    /// does not point from a pending producer to a younger in-window
    /// entry, or a `pending_deps` that differs from the entry's incoming
    /// links are decode errors: each would break wakeup later.
    pub fn load_state(
        &mut self,
        d: &mut Dec,
        mut instr_at: impl FnMut(u32) -> Option<Instr>,
    ) -> WireResult<()> {
        let bad = |what| WireError { pos: 0, what };
        let next_seq = d.u64()?;
        let n = d.usize()?;
        if n > self.capacity() || n as u64 > next_seq {
            return Err(bad("ruu occupancy out of range"));
        }
        let cap = self.capacity() as u64;
        self.next_seq = next_seq;
        self.len = n;
        self.head = ((next_seq - n as u64) % cap) as usize;
        self.n_waiting = 0;
        self.n_done = 0;
        self.consumers.iter_mut().for_each(SlotSet::clear);
        let mut incoming = vec![0usize; self.capacity()];
        for i in 0..n {
            let seq = d.u64()?;
            if seq != self.front_seq() + i as u64 {
                return Err(bad("ruu sequence numbers not contiguous"));
            }
            let pc = d.u32()?;
            let instr = instr_at(pc).ok_or(bad("ruu pc out of program range"))?;
            let mut en = RuuEntry::new(seq, pc, instr);
            en.state = match d.u8()? {
                0 => EntryState::Waiting,
                1 => EntryState::Issued,
                2 => EntryState::Done,
                _ => return Err(bad("ruu state out of range")),
            };
            en.complete_at = d.u64()?;
            for dep in en.deps.iter_mut() {
                *dep = if d.bool()? { Some(d.u64()?) } else { None };
            }
            en.payload = d.u64()?;
            en.predicted_taken = d.bool()?;
            en.actual_taken = d.bool()?;
            en.correct_next = d.u32()?;
            en.mispredicted = d.bool()?;
            let s = self.wrap(i);
            for _ in 0..d.usize()? {
                let c_seq = d.u64()?;
                let c = self
                    .slot_of(c_seq)
                    .filter(|_| c_seq > seq && en.state != EntryState::Done)
                    .ok_or(bad("ruu wakeup link out of range"))?;
                if self.consumers[s].insert(c) {
                    incoming[c] += 1;
                }
            }
            en.pending_deps = d.u8()?;
            match en.state {
                EntryState::Waiting => self.n_waiting += 1,
                EntryState::Done => self.n_done += 1,
                EntryState::Issued => {}
            }
            self.slots[s] = en;
        }
        if (0..n).any(|i| {
            let s = self.wrap(i);
            self.slots[s].pending_deps as usize != incoming[s]
        }) {
            return Err(bad("ruu pending_deps disagree with wakeup links"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidisc_isa::Instr;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn seq_numbers_are_contiguous_and_lookup_works() {
        let mut r = Ruu::new(4);
        let a = r.push(0, Instr::Nop);
        let b = r.push(1, Instr::Nop);
        assert_eq!(b, a + 1);
        assert_eq!(r.get(a).unwrap().pc, 0);
        assert_eq!(r.get(b).unwrap().pc, 1);
        r.pop_front();
        assert!(r.get(a).is_none());
        assert_eq!(r.get(b).unwrap().pc, 1);
    }

    #[test]
    fn slots_follow_seq_modulo_capacity_across_wrap() {
        let mut r = Ruu::new(3);
        for pc in 0..10 {
            let seq = r.push(pc, Instr::Nop);
            assert_eq!(r.slot_of(seq), Some(seq as usize % 3));
            assert_eq!(r.seq_at(seq as usize % 3), seq);
            if r.is_full() {
                r.pop_front();
            }
        }
        assert_eq!(r.front_slot(), r.slot_of(r.front().unwrap().seq).unwrap());
        let pcs: Vec<u32> = r.iter().map(|e| e.pc).collect();
        assert_eq!(pcs, vec![8, 9]);
    }

    #[test]
    fn capacity_respected() {
        let mut r = Ruu::new(2);
        r.push(0, Instr::Nop);
        assert!(!r.is_full());
        r.push(1, Instr::Nop);
        assert!(r.is_full());
    }

    #[test]
    fn producer_done_semantics() {
        let mut r = Ruu::new(4);
        let a = r.push(0, Instr::Nop);
        assert!(!r.producer_done(a, 10)); // Waiting
        r.mark_issued(a, 5);
        assert!(!r.producer_done(a, 4));
        r.harvest_completions(5);
        assert!(r.producer_done(a, 5));
        r.pop_front();
        assert!(r.producer_done(a, 0)); // committed ⇒ done
    }

    #[test]
    fn state_counts_track_transitions() {
        let mut r = Ruu::new(4);
        let mut ready = SlotSet::new(4);
        let a = r.push(0, Instr::Nop);
        let b = r.push(1, Instr::Nop);
        assert_eq!(r.state_counts(), (2, 0));
        r.mark_issued(a, 3);
        assert_eq!(r.state_counts(), (1, 0));
        r.mark_done(a, &mut ready);
        assert!(ready.is_empty());
        assert_eq!(r.state_counts(), (1, 1));
        r.pop_front(); // pops a (Done)
        assert_eq!(r.state_counts(), (1, 0));
        r.mark_issued(b, 9);
        r.harvest_completions(9);
        assert_eq!(r.state_counts(), (0, 1));
    }

    #[test]
    fn mark_done_wakes_consumers_once_per_distinct_producer() {
        let mut r = Ruu::new(4);
        let mut ready = SlotSet::new(4);
        let a = r.push(0, Instr::Nop);
        let b = r.push(1, Instr::Nop);
        let c = r.push(2, Instr::Nop);
        // `c` reads `a` twice (a duplicated operand) and `b` once.
        let links = [(a, b), (a, c), (a, c), (b, c)];
        let fresh: Vec<bool> = links.iter().map(|&(p, q)| r.add_consumer(p, q)).collect();
        assert_eq!(fresh, vec![true, true, false, true]);
        r.get_mut(b).unwrap().pending_deps = 1;
        r.get_mut(c).unwrap().pending_deps = 2;
        r.mark_issued(a, 2);
        r.mark_done(a, &mut ready);
        assert_eq!(ready.first_from(0), r.slot_of(b));
        assert_eq!(r.get(c).unwrap().pending_deps, 1);
        r.mark_issued(b, 3);
        r.mark_done(b, &mut ready);
        assert_eq!(ready.len(), 2);
        assert_eq!(ready.first_from(r.slot_of(c).unwrap()), r.slot_of(c));
        assert!(r.consumers.iter().all(SlotSet::is_empty));
    }

    #[test]
    fn slot_set_selects_across_words_and_wraps() {
        let mut s = SlotSet::new(130);
        for slot in [3, 64, 70, 129] {
            assert!(s.insert(slot));
        }
        assert!(!s.insert(70));
        assert_eq!(s.len(), 4);
        assert_eq!(s.first_from(0), Some(3));
        assert_eq!(s.first_from(4), Some(64));
        assert_eq!(s.first_from(71), Some(129));
        assert_eq!(s.first_from(129), Some(129));
        s.remove(129);
        assert_eq!(s.first_from(71), Some(3)); // wraps to the low word
        assert_eq!(s.pop_first_from(65), Some(70));
        assert_eq!(s.pop_first_from(65), Some(3));
        assert_eq!(s.pop_first_from(65), Some(64));
        assert_eq!(s.pop_first_from(65), None);
        assert!(s.is_empty());
    }

    #[test]
    fn partial_word_keeps_age_order() {
        // The CP's 16-slot window: the front at slot 10 makes 10..=15
        // older than 0..=9.
        let mut s = SlotSet::new(16);
        for slot in [2, 11, 15, 0] {
            s.insert(slot);
        }
        let order: Vec<usize> = std::iter::from_fn(|| s.pop_first_from(10)).collect();
        assert_eq!(order, vec![11, 15, 0, 2]);
    }

    /// Saves `r` and loads the bytes into a fresh window of `capacity`.
    fn reload(r: &Ruu, capacity: usize) -> WireResult<Ruu> {
        let mut e = Enc::new();
        r.save_state(&mut e);
        let bytes = e.finish();
        let mut fresh = Ruu::new(capacity);
        fresh.load_state(&mut Dec::new(&bytes), |_| Some(Instr::Nop))?;
        Ok(fresh)
    }

    #[test]
    fn wakeup_links_round_trip_and_inconsistent_ones_are_refused() {
        let mut r = Ruu::new(3);
        r.push(0, Instr::Nop);
        r.pop_front(); // the window now wraps: seqs 1..=3 in slots 1, 2, 0
        let a = r.push(1, Instr::Nop);
        let b = r.push(2, Instr::Nop);
        let c = r.push(3, Instr::Nop);
        r.add_consumer(a, c);
        r.add_consumer(b, c);
        r.get_mut(c).unwrap().pending_deps = 2;

        let back = reload(&r, 3).expect("consistent state loads");
        assert_eq!(back.consumers, r.consumers);
        assert_eq!(back.slot_of(c), Some(0));
        assert_eq!(back.get(c).unwrap().pending_deps, 2);

        assert!(reload(&r, 2).is_err(), "more entries than slots");
        r.get_mut(c).unwrap().pending_deps = 1;
        assert!(reload(&r, 3).is_err(), "pending count without its link");
    }

    #[test]
    #[should_panic]
    fn push_past_capacity_panics() {
        let mut r = Ruu::new(1);
        r.push(0, Instr::Nop);
        r.push(1, Instr::Nop);
    }

    /// One step of the slot-set model test.
    #[derive(Debug, Clone)]
    enum Op {
        /// Dispatch the next sequence number (if the window has room) and
        /// mark it ready.
        Insert,
        /// Drop the `i`-th (mod len) ready member.
        Remove(usize),
        /// Commit the oldest in-flight sequence number.
        Advance,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Insert),
            any::<usize>().prop_map(Op::Remove),
            Just(Op::Advance),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random insert/remove/front-advance sequences over a window of
        /// `cap` slots: draining the slot set oldest-first from the front
        /// slot visits exactly the sequence numbers of a `BTreeSet<u64>`
        /// model, in ascending order.
        #[test]
        fn slot_set_selects_like_a_sorted_seq_set(
            cap in prop_oneof![1usize..=3, 15usize..=17, 63usize..=66, 127usize..=131],
            ops in prop::collection::vec(op(), 0..300),
        ) {
            let mut set = SlotSet::new(cap);
            let mut model = BTreeSet::<u64>::new();
            let (mut front, mut next) = (0u64, 0u64);
            let slot = |seq: u64| (seq % cap as u64) as usize;
            for op in ops {
                match op {
                    Op::Insert if next - front < cap as u64 => {
                        prop_assert!(set.insert(slot(next)));
                        model.insert(next);
                        next += 1;
                    }
                    Op::Insert => {}
                    Op::Remove(i) if !model.is_empty() => {
                        let seq = *model.iter().nth(i % model.len()).unwrap();
                        model.remove(&seq);
                        set.remove(slot(seq));
                    }
                    Op::Remove(_) => {}
                    Op::Advance if front < next => {
                        if model.remove(&front) {
                            set.remove(slot(front));
                        }
                        front += 1;
                    }
                    Op::Advance => {}
                }
                prop_assert_eq!(set.len(), model.len());
                let oldest = set.first_from(slot(front));
                prop_assert_eq!(oldest, model.first().map(|&s| slot(s)));
            }
            let mut drain = set.clone();
            let order: Vec<u64> = std::iter::from_fn(|| drain.pop_first_from(slot(front)))
                .map(|s| front + ((s + cap - slot(front)) % cap) as u64)
                .collect();
            prop_assert_eq!(order, model.into_iter().collect::<Vec<_>>());
        }
    }
}
