//! Workloads for the WiSync evaluation (Table 3).
//!
//! - [`TightLoop`] — the barrier microbenchmark of §6 / Figure 7,
//! - [`AluPhases`] — a compute-heavy phased loop with a barrier per
//!   phase,
//! - [`Livermore`] — parallelized Livermore loops 2, 3, and 6 (Figure 8),
//! - [`CasKernel`] — the FIFO/LIFO/ADD lock-free CAS kernels (Figure 9),
//! - [`apps`] — synthetic synchronization profiles standing in for the
//!   PARSEC and SPLASH-2 suites (Figure 10, Table 5, Figure 11; see
//!   DESIGN.md §2 for the substitution rationale),
//! - [`MultiprogramMix`] — several applications sharing one chip under
//!   distinct PIDs (§3.1).
//!
//! Every workload knows how to load itself onto a [`wisync_core::Machine`]
//! of any [`wisync_core::MachineKind`], picking the matching lock/barrier
//! implementations from `wisync-sync` (Table 2).

pub mod addr;
pub mod alu;
pub mod apps;
pub mod cas_kernels;
pub mod kit;
pub mod livermore;
pub mod multiprog;
pub mod search;
pub mod tight_loop;

pub use addr::AddrSpace;
pub use alu::AluPhases;
pub use apps::{AppProfile, AppWorkload, Suite};
pub use cas_kernels::{CasKernel, CasKind};
pub use kit::{BarrierHandle, LockHandle};
pub use livermore::{Livermore, LivermoreLoop};
pub use multiprog::{MultiprogramMix, Slice};
pub use search::EurekaSearch;
pub use tight_loop::TightLoop;
