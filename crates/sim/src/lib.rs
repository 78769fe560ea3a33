//! Deterministic-simulation harness for the Reef federation, and its only
//! in-process driver.
//!
//! [`Cluster`] runs N real broker cores — the same
//! [`reef_pubsub::BrokerNode`] state machines the TCP daemon drives, in
//! tree mode (the daemon's default, with or without covering) or mesh
//! mode — against a simulated network with per-link drop, duplicate, and
//! delay faults, partitions, and broker crash/restart, one step at a
//! time. [`execute_plan`] adds a [`reef_attention::DurableClickStore`]
//! WAL per broker and drives a mesh `Cluster` from a [`SimPlan`].
//! Virtual time, a seeded PRNG, and ordered collections make every run
//! a pure function of one `u64` seed: a failure report is a seed plus a
//! minimized step trace, and replaying the seed reproduces the run
//! byte-for-byte.
//!
//! The paper's federation (Brenna & Johansen, "Configuring Push-Based
//! Web Services", and the automatic-subscription work it carries)
//! promises availability under the exact conditions wall-clock tests
//! are worst at provoking: lost links, partitions, crashed daemons.
//! This crate provokes them thousands of times per second and checks
//! the promised invariants at every quiescent point — exactly-once
//! delivery, shortest-path convergence, no routes through dead state,
//! and WAL recovery to an acknowledged prefix.
//!
//! Entry points: [`Cluster`] for step-driven tests and proptests,
//! [`run_seed`] for seed-driven runs (what the 200-seed smoke suite
//! calls), [`execute_plan`] with a hand-built [`SimPlan`] for porting
//! specific integration scenarios onto virtual time.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod net;
pub mod plan;
pub mod rng;
pub mod world;

pub use cluster::Cluster;
pub use net::{Delivery, FaultyNet, LinkFaults, NetFaultStats};
pub use plan::{SimPlan, SimStep};
pub use rng::SimRng;
pub use world::{execute_plan, run_seed, SimFailure, SimStats};
