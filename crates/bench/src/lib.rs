//! Shared experiment harness for regenerating every table and figure
//! of the paper's evaluation (§5). Each `src/bin/*.rs` binary drives
//! one artifact; this library holds the common machinery: generating a
//! benchmark at a manageable scale, running the full Propeller
//! pipeline, building the BOLT comparator inputs, simulating all
//! binaries under the same workload, and extrapolating memory/time
//! figures back to Table 2 scale. [`chaos`] holds the built-in fault
//! matrix behind `propeller_cli chaos`.

pub mod chaos;
pub mod runner;
pub mod table;

pub use runner::{generate_for, run_benchmark, run_benchmark_at, BenchArtifacts, RunConfig};
pub use table::Table;
