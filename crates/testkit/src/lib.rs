//! Hermetic property-testing and sweep toolkit.
//!
//! The WiSync workspace builds in environments with no access to a crate
//! registry, so it cannot depend on `proptest`. This crate provides the
//! subset of it that the workspace actually needs, built
//! entirely on `std` and the deterministic [`wisync_sim::DetRng`]:
//!
//! * [`gen`] — composable value generators with integer/vector shrinking,
//!   mirroring the `proptest` strategy combinators used by the test suites
//!   (`range`, `vecs`, `one_of`, `map`, tuples, …).
//! * [`runner`] — an N-case property runner: every case derives its own
//!   seed, failures are shrunk to a minimal counterexample, and the
//!   reproduction seed is printed so
//!   `WISYNC_TESTKIT_SEED=<seed> cargo test <name>` replays the identical
//!   failure.
//! * [`sweep`] — a `std::thread` pool that runs experiment configurations
//!   concurrently with deterministic per-job seeds and deterministic
//!   output ordering.
//! * [`json`] — a minimal, deterministic JSON value/serializer (no serde).
//!
//! # Writing a property
//!
//! ```
//! use wisync_testkit::gen::{self, Gen};
//! use wisync_testkit::{check, prop_assert, prop_assert_eq};
//!
//! check("vec reverse roundtrips", gen::vecs(gen::range(0u64..100), 0..20), |v| {
//!     let mut r = v.clone();
//!     r.reverse();
//!     r.reverse();
//!     prop_assert_eq!(&r, &v);
//!     prop_assert!(r.len() == v.len());
//!     Ok(())
//! });
//! ```

pub mod gen;
pub mod json;
pub mod runner;
pub mod sweep;

pub use json::{write_doc, Json, JsonError};
pub use runner::{check, check_with, Config, Failed, PropResult};
pub use sweep::{derive_seed, run_sweep, run_sweep_indexed, run_sweep_timed, SweepJob};
