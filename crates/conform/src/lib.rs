//! Differential conformance engine for the hardware-design-pattern
//! stack.
//!
//! This crate closes the loop between the pattern generators
//! (`hdp-metagen`), the simulator (`hdp-sim`) and the VHDL emitter
//! (`hdp-hdl`): it samples random-but-valid designs from the metagen
//! design space, drives each one with random stimulus through five
//! independent oracles, and demands bit-for-bit agreement every
//! cycle on every output port:
//!
//! 1. `full_sweep` — the simulator re-evaluating every component
//!    per delta cycle (the reference),
//! 2. `event_driven` — sensitivity-based scheduling,
//! 3. `lowered` — the levelized rank-schedule walk over a bit-packed
//!    signal arena, executing flat word-level op streams instead of
//!    the netlist interpreter,
//! 4. `levelized` — the non-incremental [`NetlistComponent`] fast
//!    path,
//! 5. `vhdl_interp` — an interpreter executing the *emitted VHDL
//!    text* ([`hdp_hdl::interp::VhdlInterp`]), so the comparison
//!    covers the emitter as well as the netlist semantics.
//!
//! That keeps one independent oracle per layer: the generator's
//! netlist, the netlist interpreter, and the VHDL interpreter.
//!
//! [`check_lanes`] adds a throughput-oriented sixth angle: up to 64
//! random stimuli packed one-per-bit into a single
//! [`hdp_sim::LaneBatch`] run, each lane refereed against its own
//! scalar event-driven simulation. Designs the lane engine cannot
//! pack — tri-state nets, `inout` ports, multi-clock-domain
//! netlists — are reported as out-of-scope, not as failures.
//!
//! Diverging cases are shrunk greedily ([`mod@shrink`]) to minimal
//! reproducers and serialised as self-contained JSON documents in the
//! versioned [`wire`] format that replay as regression tests. The
//! same wire format carries job submissions for the `hdp-service`
//! simulation server.
//!
//! [`NetlistComponent`]: hdp_sim::NetlistComponent
//!
//! # Example
//!
//! ```
//! use hdp_conform::{check, Stimulus};
//! use hdp_metagen::sampler::sample_spec;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let spec = sample_spec(&mut rng);
//! let netlist = spec.instantiate().unwrap();
//! let stimulus = Stimulus::sample(&netlist, 8, &mut rng);
//! assert!(check(&netlist, &stimulus).is_none(), "oracles diverged");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod oracle;
pub mod repro;
pub mod shrink;
pub mod wire;

pub use json::Json;
pub use oracle::{check, check_lanes, Divergence, Stimulus, ORACLE_LABELS};
pub use shrink::{shrink, Case};
pub use wire::WireError;
