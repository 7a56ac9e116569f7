//! Property-based tests of the simulation kernel.

use cad3_sim::{SampleSet, SimRng, Simulation};
use cad3_types::SimTime;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

proptest! {
    /// Events always fire in (time, insertion) order, whatever the
    /// scheduling order.
    #[test]
    fn events_fire_in_causal_order(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut sim = Simulation::new();
        let fired: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &t) in times.iter().enumerate() {
            let fired = Rc::clone(&fired);
            sim.schedule_at(SimTime::from_nanos(t), move |sim| {
                fired.borrow_mut().push((sim.now().as_nanos(), i));
            });
        }
        let executed = sim.run_to_completion();
        prop_assert_eq!(executed as usize, times.len());
        let fired = fired.borrow();
        for w in fired.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "tie-break order violated");
            }
        }
    }

    /// run_until never executes events beyond the deadline and the clock
    /// never runs backwards.
    #[test]
    fn run_until_respects_deadline(
        times in prop::collection::vec(0u64..10_000, 1..100),
        deadline in 0u64..12_000,
    ) {
        let mut sim = Simulation::new();
        let fired = Rc::new(RefCell::new(Vec::new()));
        for &t in &times {
            let fired = Rc::clone(&fired);
            sim.schedule_at(SimTime::from_nanos(t), move |sim| {
                fired.borrow_mut().push(sim.now().as_nanos());
            });
        }
        sim.run_until(SimTime::from_nanos(deadline));
        prop_assert!(fired.borrow().iter().all(|&t| t <= deadline));
        prop_assert!(sim.now() >= SimTime::from_nanos(deadline));
        let expected = times.iter().filter(|&&t| t <= deadline).count();
        prop_assert_eq!(fired.borrow().len(), expected);
    }

    /// Percentiles are order statistics: within [min, max] and monotone.
    #[test]
    fn percentiles_are_monotone(xs in prop::collection::vec(-1e3f64..1e3, 1..300)) {
        let s: SampleSet = xs.iter().copied().collect();
        let p25 = s.percentile(25.0);
        let p50 = s.percentile(50.0);
        let p75 = s.percentile(75.0);
        prop_assert!(s.min() <= p25 && p25 <= p50 && p50 <= p75 && p75 <= s.max());
    }

    /// The RNG stream is identical for identical seeds and forks.
    #[test]
    fn rng_determinism(seed in any::<u64>(), stream in any::<u64>()) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        let mut fa = a.fork(stream);
        let mut fb = b.fork(stream);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
            prop_assert_eq!(fa.next_u64(), fb.next_u64());
        }
    }

    /// Uniform draws respect their bounds.
    #[test]
    fn uniform_bounds(seed in any::<u64>(), lo in -1e6f64..1e6, span in 1e-3f64..1e6) {
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..50 {
            let x = rng.uniform(lo, lo + span);
            prop_assert!(x >= lo && x < lo + span);
        }
    }
}
