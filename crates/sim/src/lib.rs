//! Deterministic discrete-event simulation engine for the WiSync simulator.
//!
//! This crate is the substrate every other WiSync crate builds on. It
//! provides:
//!
//! - [`Cycle`], a newtype for simulated time (1 cycle = 1 ns at the paper's
//!   1 GHz clock),
//! - [`EventQueue`], a deterministic priority queue of timestamped events
//!   with FIFO tie-breaking for events scheduled at the same cycle
//!   (a bucketed timing wheel; [`ReferenceEventQueue`] is the heap-based
//!   executable specification it is differentially tested against),
//! - [`FxHashMap`]/[`FxHashSet`], `HashMap`/`HashSet` aliases using the
//!   in-repo deterministic [`hash::FxHasher`] — the only hasher hot-path
//!   code should use, so no run-to-run variation can creep in via
//!   `RandomState`,
//! - [`DetRng`], a small deterministic xorshift random-number generator so
//!   identical configurations replay to identical cycle counts,
//! - statistics helpers ([`Counter`], [`Histogram`], [`Utilization`],
//!   [`StatSet`]) used for the paper's utilization and latency reports.
//!
//! # Examples
//!
//! ```
//! use wisync_sim::{Cycle, EventQueue};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(Cycle(5), "later");
//! q.push(Cycle(2), "sooner");
//! assert_eq!(q.pop(), Some((Cycle(2), "sooner")));
//! assert_eq!(q.pop(), Some((Cycle(5), "later")));
//! assert_eq!(q.pop(), None);
//! ```

pub mod hash;
pub mod queue;
pub mod rng;
pub mod snap;
pub mod stats;
pub mod time;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use queue::{EventQueue, ReferenceEventQueue};
pub use rng::DetRng;
pub use snap::{SnapError, SnapReader, SnapWriter};
pub use stats::{Counter, Histogram, StatSet, Utilization};
pub use time::Cycle;
