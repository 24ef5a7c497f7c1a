//! # lunule
//!
//! Facade crate for the Lunule reproduction: re-exports the namespace
//! substrate, the balancing algorithms (the paper's contribution), the MDS
//! cluster simulator, and the workload generators under one roof so examples
//! and downstream users need a single dependency.
//!
//! See `README.md` for a tour and `DESIGN.md` for the architecture.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lunule_core as core;
pub use lunule_daemon as daemon;
pub use lunule_faults as faults;
pub use lunule_namespace as namespace;
pub use lunule_sim as sim;
pub use lunule_telemetry as telemetry;
pub use lunule_workloads as workloads;
