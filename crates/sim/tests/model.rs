//! Model-based property tests: the kernel queues against simple
//! reference implementations, and the snapshot encoding of the
//! `VecDeque` under them.

use proptest::prelude::*;
use sim::fifo::DelayQueue;
use sim::persist::{PersistValue, SnapshotReader, SnapshotWriter};
use sim::TimedFifo;
use std::collections::VecDeque;

/// One randomized timed-queue operation, covering the API surface the
/// interconnect models use.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push the next sequence number.
    Push,
    /// Pop if the head is visible.
    Pop,
    /// Advance the clock.
    Advance(u8),
    /// Decouple-and-drop: flush everything regardless of visibility.
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Push and Pop appear twice so sequences reach occupancy (the
    // vendored proptest's `prop_oneof!` draws arms uniformly).
    prop_oneof![
        Just(Op::Push),
        Just(Op::Push),
        Just(Op::Pop),
        Just(Op::Pop),
        (1u8..5).prop_map(Op::Advance),
        Just(Op::Clear),
    ]
}

/// One randomized operation on a bare deque, including the in-place
/// updates EXBAR write routing and the split queues perform.
#[derive(Debug, Clone, Copy)]
enum DequeOp {
    /// Push the next sequence number at the back.
    Push,
    /// Pop the front.
    Pop,
    /// Mutate the front in place.
    BumpFront,
    /// Mutate element `i % len` in place.
    BumpAt(u8),
    /// Drop every element.
    Clear,
}

fn deque_op() -> impl Strategy<Value = DequeOp> {
    prop_oneof![
        Just(DequeOp::Push),
        Just(DequeOp::Push),
        Just(DequeOp::Pop),
        Just(DequeOp::BumpFront),
        (0u8..16).prop_map(DequeOp::BumpAt),
        Just(DequeOp::Clear),
    ]
}

fn apply(q: &mut VecDeque<u64>, seq: &mut u64, op: DequeOp) {
    match op {
        DequeOp::Push => {
            q.push_back(*seq);
            *seq += 1;
        }
        DequeOp::Pop => {
            q.pop_front();
        }
        DequeOp::BumpFront => {
            if let Some(v) = q.front_mut() {
                *v += 1000;
            }
        }
        DequeOp::BumpAt(i) => {
            if !q.is_empty() {
                let idx = i as usize % q.len();
                q[idx] += 7;
            }
        }
        DequeOp::Clear => q.clear(),
    }
}

proptest! {
    /// `TimedFifo` matches a reference deque of `(visible_at, value)`
    /// pairs over its entire API — including the decouple-and-drop
    /// flush and the lifetime counters the fast-forward fingerprints
    /// depend on.
    #[test]
    fn timed_fifo_matches_reference(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        capacity in 1usize..20,
        latency in 0u64..6,
    ) {
        let mut dut: TimedFifo<u64> = TimedFifo::new(capacity, latency);
        let mut reference: VecDeque<(u64, u64)> = VecDeque::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut ref_pushed = 0u64;
        let mut ref_popped = 0u64;
        let mut ref_high_water = 0usize;
        for op in ops {
            match op {
                Op::Push => {
                    let dut_ok = dut.push(now, seq).is_ok();
                    let ref_ok = reference.len() < capacity;
                    prop_assert_eq!(dut_ok, ref_ok, "push acceptance at {}", now);
                    if ref_ok {
                        reference.push_back((now + latency, seq));
                        ref_pushed += 1;
                        ref_high_water = ref_high_water.max(reference.len());
                    }
                    seq += 1;
                }
                Op::Pop => {
                    let expect = match reference.front() {
                        Some(&(ready, v)) if ready <= now => {
                            reference.pop_front();
                            ref_popped += 1;
                            Some(v)
                        }
                        _ => None,
                    };
                    prop_assert_eq!(dut.pop_ready(now), expect, "pop at {}", now);
                }
                Op::Advance(d) => now += d as u64,
                Op::Clear => {
                    dut.clear();
                    reference.clear();
                }
            }
            prop_assert_eq!(dut.len(), reference.len());
            prop_assert_eq!(dut.is_empty(), reference.is_empty());
            prop_assert_eq!(dut.is_full(), reference.len() >= capacity);
            prop_assert_eq!(dut.free(), capacity - reference.len());
            prop_assert_eq!(dut.total_pushed(), ref_pushed);
            prop_assert_eq!(dut.total_popped(), ref_popped);
            prop_assert!(dut.max_occupancy() >= ref_high_water);
            prop_assert_eq!(dut.next_ready_at(), reference.front().map(|&(r, _)| r));
            let visible = reference
                .iter()
                .take_while(|&&(ready, _)| ready <= now)
                .count();
            prop_assert_eq!(dut.ready_len(now), visible);
            let dut_all: Vec<u64> = dut.iter().copied().collect();
            let ref_all: Vec<u64> = reference.iter().map(|&(_, v)| v).collect();
            prop_assert_eq!(dut_all, ref_all);
        }
    }

    /// `DelayQueue` with per-entry delays matches the same reference.
    #[test]
    fn delay_queue_matches_reference(
        ops in proptest::collection::vec((op_strategy(), 0u64..6), 1..200),
        capacity in 1usize..8,
    ) {
        let mut dut: DelayQueue<u64> = DelayQueue::new(capacity);
        let mut reference: VecDeque<(u64, u64)> = VecDeque::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for (op, delay) in ops {
            match op {
                Op::Push => {
                    let dut_ok = dut.push(now, delay, seq).is_ok();
                    let ref_ok = reference.len() < capacity;
                    prop_assert_eq!(dut_ok, ref_ok);
                    if ref_ok {
                        reference.push_back((now + delay, seq));
                    }
                    seq += 1;
                }
                Op::Pop => {
                    let expect = match reference.front() {
                        Some(&(ready, v)) if ready <= now => {
                            reference.pop_front();
                            Some(v)
                        }
                        _ => None,
                    };
                    prop_assert_eq!(dut.pop_ready(now), expect);
                }
                Op::Advance(d) => now += d as u64,
                Op::Clear => {
                    dut.clear();
                    reference.clear();
                }
            }
            prop_assert_eq!(dut.len(), reference.len());
        }
    }

    /// Whatever goes in comes out, once, in order — across any schedule.
    #[test]
    fn timed_fifo_conserves_elements(
        gaps in proptest::collection::vec(0u64..4, 1..64),
        capacity in 1usize..6,
        latency in 0u64..3,
    ) {
        let mut fifo = TimedFifo::new(capacity, latency);
        let mut now = 0;
        let mut pushed = Vec::new();
        let mut popped = Vec::new();
        for (seq, gap) in gaps.into_iter().enumerate() {
            now += gap;
            if fifo.push(now, seq as u64).is_ok() {
                pushed.push(seq as u64);
            }
            if let Some(v) = fifo.pop_ready(now) {
                popped.push(v);
            }
        }
        // Drain.
        now += latency + 1;
        while let Some(v) = fifo.pop_ready(now) {
            popped.push(v);
        }
        prop_assert_eq!(popped, pushed);
    }

    /// Snapshot/restore mid-wrap: a deque frozen at an arbitrary point of
    /// a random op schedule — its live region typically split across the
    /// end of its buffer — saves its elements in logical (front-to-back)
    /// order, restores to the same queue, re-saves to the same bytes and
    /// behaves identically under the rest of the schedule.
    #[test]
    fn snapshot_restore_mid_wrap_preserves_logical_order(
        warm in proptest::collection::vec(deque_op(), 1..150),
        rest in proptest::collection::vec(deque_op(), 1..150),
    ) {
        // Start with the head mid-buffer so early pushes already wrap.
        let mut dut: VecDeque<u64> = VecDeque::with_capacity(8);
        dut.extend(0..6);
        dut.drain(..6);
        let mut seq = 0u64;
        for op in warm {
            apply(&mut dut, &mut seq, op);
        }

        let mut w = SnapshotWriter::new();
        dut.save_value(&mut w);
        let bytes = w.into_bytes();
        let mut logical = SnapshotWriter::new();
        dut.iter().copied().collect::<Vec<u64>>().save_value(&mut logical);
        prop_assert_eq!(&bytes, &logical.into_bytes());

        let mut r = SnapshotReader::new(&bytes);
        let mut thawed = VecDeque::<u64>::load_value(&mut r).expect("deque restores");
        prop_assert_eq!(&dut, &thawed);
        let mut w2 = SnapshotWriter::new();
        thawed.save_value(&mut w2);
        prop_assert_eq!(&bytes, &w2.into_bytes());

        let mut seq2 = seq;
        for op in rest {
            apply(&mut dut, &mut seq, op);
            apply(&mut thawed, &mut seq2, op);
            prop_assert_eq!(&dut, &thawed);
        }
    }
}
