//! Benchmark harness reproducing every table and figure of the BFHRF
//! paper's evaluation (§V–§VI).
//!
//! The `repro` binary drives one experiment per paper artifact:
//!
//! | Command          | Paper artifact |
//! |------------------|----------------|
//! | `repro datasets` | Table II (dataset inventory) |
//! | `repro fig1`     | Figure 1 (Avian runtime + memory vs `r`) |
//! | `repro tbl3`     | Table III (Insect, all algorithms) |
//! | `repro tbl4`     | Table IV (variable taxa) + §VI.C linearity stats |
//! | `repro tbl5`     | Table V / Figure 2 (variable trees) |
//! | `repro ablations`| thread-scaling, ID-width, compact-hash, filter ablations |
//! | `repro all`      | everything above |
//!
//! Measurements follow the paper's protocol: wall-clock runtime, maximum
//! resident memory (here: a byte-exact peak-allocation counter instead of
//! RSS), `Q` is `R`, the BFHRF columns time `bfhrf avgrf` itself through
//! `bfhrf_cli::run_full`, and sequential baselines too slow to finish are
//! **rate-extrapolated from a prefix and marked `est.`** — the paper did
//! exactly this for DS ("we estimated the rate of trees per minute...").
//! HashRF runs that would exceed the memory budget are reported as `-`,
//! the paper's notation for jobs its kernel killed.

pub mod budget;
pub mod datasets;
pub mod measure;
pub mod peak_alloc;
pub mod runner;
pub mod stats;

pub use budget::CellBudget;
pub use measure::{measured, Measurement};
pub use peak_alloc::PeakAlloc;
pub use runner::{Experiment, Scale};
