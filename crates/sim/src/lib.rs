//! # hdp-sim — cycle-accurate simulation substrate
//!
//! The paper evaluates its generated components on the XESS XSB-300E
//! prototyping board (§3.4/§4): a Spartan-IIE FPGA surrounded by a
//! SAA7113 video decoder, a VGA DAC and external static RAM. This crate
//! replaces that board with deterministic device models and a
//! delta-cycle simulator so the same designs can be exercised
//! end-to-end on a workstation:
//!
//! * [`Simulator`] — two-phase clocked scheduler: combinational
//!   settling to a fixpoint (delta cycles), then a synchronous clock
//!   edge. Settling is event-driven by default — only components
//!   sensitive to a changed signal re-evaluate — with a full-sweep
//!   reference mode and a lowered mode ([`SchedMode::Lowered`])
//!   selectable via [`SchedMode`]. Lowered mode freezes the design
//!   into a levelized rank schedule over a bit-packed signal arena,
//!   settles in one walk, and translates every [`NetlistComponent`]
//!   on that walk into a flat word-level op stream executed straight
//!   against `u64` planes. Every mode produces bit-identical traces.
//!   Parallelism lives at batch level: whole simulators are sharded
//!   over worker threads ([`Simulator`] is [`Send`]).
//! * [`LaneBatch`] — 64-way bit-parallel execution of one feed-forward
//!   netlist: [`LANES`] independent stimulus lanes are packed one per
//!   bit of a `u64` word per net-bit column, so a single settle/tick
//!   advances 64 runs at once (conformance fuzzing, service batches).
//! * [`SimBuilder`] — builder-style construction that freezes the
//!   scheduler's sensitivity tables once and applies power-on reset.
//! * [`Component`] — the trait every hardware model implements,
//!   including its [`Sensitivity`] declaration.
//! * [`devices`] — the board: FIFO and LIFO cores, synchronous block
//!   RAM, external SRAM with a req/ack handshake and configurable
//!   latency, a 3-line video buffer, a video-decoder stream source and
//!   a VGA sink.
//! * [`NetlistComponent`] — interprets an [`hdp_hdl::Netlist`] produced
//!   by the metaprogramming generator, so generated designs and
//!   hand-written models run side by side in one simulation.
//! * [`probe`] — stimulus and monitor helpers for testbenches.
//! * [`telemetry`] — opt-in counters (eval counts, delta-pass depth,
//!   wake shapes, per-signal toggle activity) and a Chrome trace-event
//!   exporter; see [`Simulator::stats`] and [`TelemetryLevel`].
//! * [`vcd`] — waveform dumping for debugging.
//!
//! ## Example
//!
//! ```
//! use hdp_sim::{SimBuilder, devices::FifoCore};
//!
//! # fn main() -> Result<(), hdp_sim::SimError> {
//! let mut b = SimBuilder::new();
//! let push = b.signal("push", 1)?;
//! let pop = b.signal("pop", 1)?;
//! let wdata = b.signal("wdata", 8)?;
//! let rdata = b.signal("rdata", 8)?;
//! let empty = b.signal("empty", 1)?;
//! let full = b.signal("full", 1)?;
//! b.component(FifoCore::new("u_fifo", 16, 8, push, pop, wdata, rdata, empty, full));
//! let mut sim = b.build()?; // sensitivity tables frozen, reset applied
//! sim.poke(push, 1)?;
//! sim.poke(wdata, 0x42)?;
//! sim.step()?; // push 0x42
//! sim.poke(push, 0)?;
//! sim.step()?;
//! assert_eq!(sim.peek(rdata)?.to_u64(), Some(0x42));
//! assert_eq!(sim.peek(empty)?.to_u64(), Some(0));
//! # Ok(())
//! # }
//! ```
//!
//! ## Choosing a scheduler
//!
//! All three [`SchedMode`]s run the same designs and produce
//! bit-identical settled values; they differ only in how the settle
//! phase finds the fixpoint. The default event-driven mode needs no
//! setup:
//!
//! ```
//! use hdp_sim::{SchedMode, SimBuilder, devices::FifoCore};
//!
//! # fn main() -> Result<(), hdp_sim::SimError> {
//! let mut b = SimBuilder::new(); // SchedMode::EventDriven
//! let push = b.signal("push", 1)?;
//! let pop = b.signal("pop", 1)?;
//! let wdata = b.signal("wdata", 8)?;
//! let rdata = b.signal("rdata", 8)?;
//! let empty = b.signal("empty", 1)?;
//! let full = b.signal("full", 1)?;
//! b.component(FifoCore::new("u_fifo", 16, 8, push, pop, wdata, rdata, empty, full));
//! let mut sim = b.build()?;
//! assert_eq!(sim.mode(), SchedMode::EventDriven);
//! sim.step()?;
//! # Ok(())
//! # }
//! ```
//!
//! The full sweep is the executable reference model, useful when
//! debugging a suspected scheduling problem:
//!
//! ```
//! use hdp_sim::{SchedMode, SimBuilder};
//!
//! # fn main() -> Result<(), hdp_sim::SimError> {
//! let mut b = SimBuilder::with_mode(SchedMode::FullSweep);
//! let clk_count = b.signal("unused", 4)?;
//! let mut sim = b.build()?;
//! sim.poke(clk_count, 3)?;
//! sim.step()?;
//! assert_eq!(sim.peek(clk_count)?.to_u64(), Some(3));
//! # Ok(())
//! # }
//! ```
//!
//! Lowered mode freezes the design after a validation settle and
//! replaces the delta loop with one walk of a levelized schedule —
//! the fastest mode for fixed netlists simulated over many cycles.
//! Designs it cannot levelize fall back to event-driven evaluation
//! transparently ([`Simulator::compile_fallback_reason`] says why):
//!
//! ```
//! use hdp_sim::{SchedMode, SimBuilder, devices::LifoCore};
//!
//! # fn main() -> Result<(), hdp_sim::SimError> {
//! let mut b = SimBuilder::with_mode(SchedMode::Lowered);
//! let push = b.signal("push", 1)?;
//! let pop = b.signal("pop", 1)?;
//! let wdata = b.signal("wdata", 8)?;
//! let rdata = b.signal("rdata", 8)?;
//! let empty = b.signal("empty", 1)?;
//! let full = b.signal("full", 1)?;
//! b.component(LifoCore::new("u_lifo", 8, 8, push, pop, wdata, rdata, empty, full));
//! b.poke(push, 0)?;
//! b.poke(pop, 0)?;
//! b.poke(wdata, 0)?;
//! let mut sim = b.build()?;
//! assert_eq!(sim.mode(), SchedMode::Lowered);
//! assert!(sim.compile()?, "a LIFO levelizes cleanly");
//! sim.poke(push, 1)?;
//! sim.poke(wdata, 0x5A)?;
//! sim.step()?;
//! sim.poke(push, 0)?;
//! sim.settle()?;
//! assert_eq!(sim.peek(rdata)?.to_u64(), Some(0x5A));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod component;
pub mod devices;
mod error;
mod lower;
mod netlist_sim;
pub mod probe;
mod sched;
mod signal;
pub mod telemetry;
pub mod vcd;

pub use compiled::CompiledPlan;
pub use component::{ClockDomain, Component, Sensitivity, DEFAULT_CLOCK};
pub use error::SimError;
pub use lower::{LaneBatch, LANES};
pub use netlist_sim::NetlistComponent;
pub use sched::{ComponentId, SchedMode, SimBuilder, Simulator};
pub use signal::{BusAccess, SignalBus, SignalId};
pub use telemetry::{
    ComponentStats, FallbackCause, SignalStats, SimStats, TelemetryLevel, TraceEvent,
};
