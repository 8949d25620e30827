//! The deterministic simulation of the GHHR recovery core, in tier-1: the
//! facade's `cargo test -q` runs the same thousands of seeded fault schedules
//! as `graphh-runtime`'s own suite — one source, two harnesses.

#[path = "../crates/runtime/tests/fabric_sim.rs"]
mod fabric_sim;
