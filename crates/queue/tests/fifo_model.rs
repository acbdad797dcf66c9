//! Reference-model testing: the queue specification against a plain
//! `VecDeque`.
//!
//! Random walks over the complete system `CQ` are replayed against a
//! reference FIFO. Every `Enq` must append exactly the value the
//! environment last put on the input channel; every `Deq` must emit
//! exactly the reference head; and the spec's internal `q` variable
//! must mirror the reference contents at every state.

use opentla_check::{explore, ExploreOptions};
use opentla_kernel::Value;
use opentla_queue::{FairnessStyle, SingleQueue};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

fn walk_and_check(n: usize, v: i64, seed: u64, steps: usize) {
    let world = SingleQueue::new(n, v, FairnessStyle::Joint);
    let sys = world.complete_system().unwrap();
    let graph = explore(&sys, &ExploreOptions::default()).unwrap();
    let q = world.q();
    let i = world.input().clone();
    let o = world.output().clone();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut cur = graph.init()[rng.gen_range(0..graph.init().len())];
    let mut reference: VecDeque<Value> = VecDeque::new();

    for _ in 0..steps {
        let edges = graph.edges(cur);
        if edges.is_empty() {
            break;
        }
        let e = edges[rng.gen_range(0..edges.len())];
        let s = graph.state(cur);
        let t = graph.state(e.target as usize);
        let action = sys.actions()[e.action as usize].name();
        match action {
            "Enq" => {
                // The enqueued value is the input channel's current val.
                reference.push_back(s.get(i.val).clone());
                assert!(
                    reference.len() <= n,
                    "reference model overflows the declared capacity"
                );
            }
            "Deq" => {
                let expected = reference.pop_front().expect("spec Deq on empty queue");
                assert_eq!(
                    t.get(o.val),
                    &expected,
                    "Deq must emit the FIFO head (action {action})"
                );
            }
            _ => {} // Put(v) / Get don't touch the queue content.
        }
        // The spec's q mirrors the reference at every state.
        let spec_q: Vec<Value> = t.get(q).as_items().expect("q is a sequence").to_vec();
        let model_q: Vec<Value> = reference.iter().cloned().collect();
        assert_eq!(spec_q, model_q, "q diverged from the reference FIFO");
        cur = e.target as usize;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The queue spec is observationally a FIFO, for every parameter
    /// combination and random walk.
    #[test]
    fn queue_is_a_fifo(
        n in 1usize..=3,
        v in 2i64..=3,
        seed in any::<u64>(),
    ) {
        walk_and_check(n, v, seed, 60);
    }
}

/// End-to-end FIFO through the double queue: values entering on `i`
/// leave on `o` in order, tracked against one reference FIFO spanning
/// both queues and the middle channel.
fn walk_double(n: usize, v: i64, seed: u64, steps: usize) {
    use opentla_queue::DoubleQueue;
    let w = DoubleQueue::new(n, v, FairnessStyle::Joint);
    let sys = w.cdq_system().unwrap();
    let graph = explore(&sys, &ExploreOptions::default()).unwrap();
    let i = w.i().clone();
    let o = w.o().clone();
    let mapping = w.refinement_mapping();
    let q_bar = mapping.get(w.q_dbl()).unwrap().clone();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut cur = graph.init()[rng.gen_range(0..graph.init().len())];
    let mut reference: VecDeque<Value> = VecDeque::new();
    for _ in 0..steps {
        let edges = graph.edges(cur);
        if edges.is_empty() {
            break;
        }
        let e = edges[rng.gen_range(0..edges.len())];
        let s = graph.state(cur);
        let t = graph.state(e.target as usize);
        let action = sys.actions()[e.action as usize].name();
        // Only the end-to-end events touch the reference model:
        // queue 1's Enq consumes from i; queue 2's Deq produces on o.
        let enq1 = action == "Enq" && t.get(i.ack) != s.get(i.ack);
        let deq2 = action == "Deq" && t.get(o.sig) != s.get(o.sig);
        if enq1 {
            reference.push_back(s.get(i.val).clone());
            assert!(reference.len() <= 2 * n + 1);
        }
        if deq2 {
            let expected = reference.pop_front().expect("Deq on empty pipeline");
            assert_eq!(t.get(o.val), &expected, "FIFO order violated end to end");
        }
        // The refinement mapping's q̄ mirrors the reference contents.
        let spec_q: Vec<Value> = q_bar
            .eval_state(t)
            .unwrap()
            .as_items()
            .expect("q̄ is a sequence")
            .to_vec();
        let model_q: Vec<Value> = reference.iter().cloned().collect();
        assert_eq!(spec_q, model_q, "q̄ diverged from the reference FIFO");
        cur = e.target as usize;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The double queue is observationally one FIFO of capacity 2N+1.
    #[test]
    fn double_queue_is_a_fifo(seed in any::<u64>()) {
        walk_double(1, 2, seed, 80);
    }
}

#[test]
fn long_walk_double_queue() {
    walk_double(1, 3, 3, 400);
}

#[test]
fn long_walk_small_queue() {
    walk_and_check(1, 2, 7, 500);
}

#[test]
fn long_walk_bigger_queue() {
    walk_and_check(3, 2, 11, 500);
}
