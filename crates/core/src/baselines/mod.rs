//! Baseline balancers the paper compares Lunule against.

pub mod dir_hash;
pub mod greedy_spill;
pub mod vanilla;

pub use dir_hash::DirHashBalancer;
pub use greedy_spill::GreedySpillBalancer;
pub use vanilla::VanillaBalancer;
