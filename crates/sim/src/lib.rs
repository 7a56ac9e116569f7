//! Deterministic discrete-event simulation kernel for the CAD3 reproduction.
//!
//! The paper evaluates CAD3 on a two-PC physical testbed. This crate provides
//! the virtual-time substrate we substitute for wall-clock time: an event
//! queue with a deterministic tie-break order ([`Simulation`]), a seedable
//! random source with the distributions the models need ([`SimRng`]), and the
//! sample set used to aggregate latency/bandwidth measurements
//! ([`SampleSet`]).
//!
//! # Example
//!
//! ```
//! use cad3_sim::Simulation;
//! use cad3_types::SimTime;
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let mut sim = Simulation::new();
//! let fired = Rc::new(RefCell::new(Vec::new()));
//! for ms in [30u64, 10, 20] {
//!     let fired = Rc::clone(&fired);
//!     sim.schedule_at(SimTime::from_millis(ms), move |sim| {
//!         fired.borrow_mut().push(sim.now().as_millis_f64() as u64);
//!     });
//! }
//! sim.run_to_completion();
//! assert_eq!(&*fired.borrow(), &[10, 20, 30]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rng;
mod sim;
mod stats;

pub use rng::SimRng;
pub use sim::Simulation;
pub use stats::SampleSet;
