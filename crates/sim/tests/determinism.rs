//! Seeded-determinism property suite for the cluster simulator.
//!
//! * **replay** — the same scenario (same seed) produces a byte-identical
//!   replay blob: job statuses and output digests, virtual makespan, event
//!   counts, the service's event log and report counters, trace, span tree
//!   and metrics snapshot all reproduce exactly;
//! * **tie order** — simulator events scheduled for the same virtual
//!   instant pop in insertion-sequence order, for both messages and
//!   timers (the `(SimTime, sequence)` heap key);
//! * **enumeration** — sweep scenario generation is a pure function of
//!   the sweep seed.

use netsim::{Actor, ActorContext, ActorId, ClusterSim, Duration, SimConfig};
use proptest::prelude::*;
use sim::{SimHarness, Sweep};
use std::cell::RefCell;
use std::rc::Rc;

// ---------------------------------------------------------------- replay

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn same_seed_reproduces_the_run_byte_for_byte(
        sweep_seed in 0u64..1_000_000,
        index in 0usize..36,
    ) {
        let scenario = Sweep::new(sweep_seed, index + 1)
            .scenarios()
            .pop()
            .expect("sweep enumerates requested count");
        let a = SimHarness::new(scenario.clone()).run().expect("scenario runs");
        let b = SimHarness::new(scenario).run().expect("scenario runs");
        prop_assert_eq!(&a.event_log, &b.event_log);
        prop_assert_eq!(format!("{:?}", a.service), format!("{:?}", b.service));
        // Statuses, image digests, makespan, event and message counts,
        // detection latencies, trace, span tree and metrics.
        prop_assert_eq!(a.replay_blob(), b.replay_blob());
    }

    #[test]
    fn sweep_enumeration_is_a_pure_function_of_the_seed(
        sweep_seed in 0u64..u64::MAX,
        count in 1usize..40,
    ) {
        let a = Sweep::new(sweep_seed, count).scenarios();
        let b = Sweep::new(sweep_seed, count).scenarios();
        prop_assert_eq!(a.len(), count);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(&x.name, &y.name);
            prop_assert_eq!(x.seed, y.seed);
            prop_assert_eq!(x.members(), y.members());
            prop_assert_eq!(x.makespan_bound, y.makespan_bound);
        }
    }
}

// --------------------------------------------------------------- tie order

/// Sends `n` self-addressed messages in one callback (all arrive at the
/// same virtual instant via the fixed intra-node hand-off) and records the
/// arrival order.
struct Burst {
    n: u32,
    log: Rc<RefCell<Vec<u32>>>,
}

impl Actor<u32> for Burst {
    fn on_start(&mut self, ctx: &mut ActorContext<u32>) {
        for i in 0..self.n {
            ctx.send(ctx.self_id(), i, 64);
        }
    }
    fn on_message(&mut self, ctx: &mut ActorContext<u32>, _from: ActorId, msg: u32) {
        self.log.borrow_mut().push(msg);
        if self.log.borrow().len() as u32 == self.n {
            ctx.halt();
        }
    }
}

/// Arms `n` timers with the same delay in one callback and records the
/// firing order of their tags.
struct TimerBurst {
    n: u32,
    log: Rc<RefCell<Vec<u64>>>,
}

impl Actor<u32> for TimerBurst {
    fn on_start(&mut self, ctx: &mut ActorContext<u32>) {
        for i in 0..self.n {
            ctx.set_timer(i as u64, Duration::from_millis(5));
        }
    }
    fn on_timer(&mut self, ctx: &mut ActorContext<u32>, tag: u64) {
        self.log.borrow_mut().push(tag);
        if self.log.borrow().len() as u32 == self.n {
            ctx.halt();
        }
    }
    fn on_message(&mut self, _ctx: &mut ActorContext<u32>, _from: ActorId, _msg: u32) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn simultaneous_messages_pop_in_insertion_sequence_order(n in 2u32..40) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut cluster =
            ClusterSim::<u32>::new(SimConfig::lan_of_workstations(1)).expect("build");
        cluster
            .add_actor(
                netsim::NodeId(0),
                Box::new(Burst {
                    n,
                    log: Rc::clone(&log),
                }),
            )
            .expect("add actor");
        cluster.run().expect("run");
        let got = log.borrow().clone();
        let want: Vec<u32> = (0..n).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn simultaneous_timers_fire_in_insertion_sequence_order(n in 2u32..40) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut cluster =
            ClusterSim::<u32>::new(SimConfig::lan_of_workstations(1)).expect("build");
        cluster
            .add_actor(
                netsim::NodeId(0),
                Box::new(TimerBurst {
                    n,
                    log: Rc::clone(&log),
                }),
            )
            .expect("add actor");
        cluster.run().expect("run");
        let got = log.borrow().clone();
        let want: Vec<u64> = (0..n as u64).collect();
        prop_assert_eq!(got, want);
    }
}
