//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each binary in `src/bin/` reproduces one exhibit:
//!
//! | Binary   | Exhibit | Contents |
//! |----------|---------|----------|
//! | `table1` | Table 1 | network settings + reconstructed parameter counts |
//! | `table2` | Table 2 | CIFAR-10 accuracy/storage/throughput, networks 1–3 |
//! | `table3` | Table 3 | SVHN, networks 4–5 |
//! | `table4` | Table 4 | CIFAR-100, networks 6–7 |
//! | `table5` | Table 5 | ImageNet (top-5), network 8 |
//! | `table6` | Table 6 | FPGA resource utilization, networks 7–8 |
//! | `fig4`   | Fig. 4  | regularization loss curve vs weight value |
//! | `fig5`   | Fig. 5  | accuracy vs ASIC energy, all 8 networks |
//! | `fig6`   | Fig. 6  | accuracy-storage Pareto front, width sweep |
//!
//! Set `FLIGHT_FIDELITY=smoke|bench|full` to trade regeneration time for
//! statistical resolution (default `bench`). All randomness is seeded;
//! identical invocations print identical numbers.
//!
//! Every binary is also observable: set `FLIGHT_TELEMETRY=stderr` or
//! `FLIGHT_TELEMETRY=jsonl:<path>` and the run emits structured
//! training/kernel/bench events through [`run::BenchRun`], and each run
//! writes a `BENCH_<exhibit>.manifest.json` next to its output (see
//! `DESIGN.md` §Observability).
//!
//! The Criterion benches in `benches/` exercise the integer kernels
//! (shift-add vs fixed-point multiply), the quantizer, a training step,
//! and the null-sink telemetry overhead of the integer engine.

pub mod profile;
pub mod run;
pub mod suite;

pub use profile::BenchProfile;
pub use run::BenchRun;
pub use suite::{run_network_suite, standard_schemes, ModelRow, NATIVE_IMAGE};
