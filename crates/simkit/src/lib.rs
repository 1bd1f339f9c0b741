//! Event-driven simulation substrate and the disaggregated-memory case
//! study (paper Case Study 2).
//!
//! The paper connects its performance model to "a simple network model from
//! MGPUSim ... a pure event-driven simulator, allowing us to fast-forward to
//! the end of each kernel without simulating cycle-by-cycle details". This
//! crate provides the corresponding pieces:
//!
//! * [`event`] — a discrete event queue with cancellation;
//! * [`link`] — a serializing network-link model;
//! * [`disagg`] — a disaggregated-memory GPU system: compute times come from
//!   a dnnperf performance model, layer parameters are prefetched from a
//!   remote memory pool over the link while earlier layers compute.
//!
//! On top of that substrate sits the fleet what-if engine (ROADMAP item 5):
//!
//! * [`workload`] — deterministic mixed request streams (network × batch ×
//!   tenant) under Poisson or closed-loop arrivals, seeded by an LCG;
//! * [`policy`] — pluggable placement ([`PlacementPolicy`]) and batching
//!   ([`BatchingPolicy`]) behind small traits;
//! * [`fleet`] — the simulator itself: heterogeneous GPU pools whose
//!   service times come from `dnnperf_core::PredictionOracle` (cached
//!   ladder answers, IGKW fallback for never-profiled GPUs);
//! * [`report`] — the [`FleetReport`] output: utilization, queue-depth
//!   time series, sojourn percentiles, SLO attainment, with a
//!   deterministic JSON encoding.
//!
//! The oracle boundary: this crate consumes only the answers the oracle
//! reads from `CompiledPlan` entries or the IGKW model — never
//! `dnnperf_gpu::timing` — so simulated
//! what-ifs are honest products of the trained models. The lint's
//! oracle-isolation pass enforces this.

#![warn(missing_docs)]
// Simulation code must surface failures as typed errors, never crash:
// dnnperf-lint's panic-policy pass verifies this attribute stays in place.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod disagg;
pub mod event;
pub mod fleet;
pub mod link;
pub mod policy;
pub mod report;
pub mod workload;

pub use disagg::{simulate_disaggregated, DisaggConfig, DisaggResult, LayerWork};
pub use event::{CancelToken, EventQueue};
pub use fleet::{simulate_fleet, FleetConfig, PoolSpec};
pub use link::Link;
pub use policy::{
    BatchingPolicy, LeastLoaded, NetworkAffinity, NoBatching, PlacementPolicy, PoolView,
    RoundRobin, SizeCap, TimeWindow,
};
pub use report::{FleetReport, PoolReport};
pub use workload::{ArrivalProcess, Lcg, RequestClass, WorkloadSpec};
