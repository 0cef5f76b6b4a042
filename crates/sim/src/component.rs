//! The [`Component`] trait implemented by every simulated hardware model.

use crate::signal::BusAccess;
use crate::{SignalBus, SignalId, SimError};

/// The name of the implicit default clock domain, period 1.
pub const DEFAULT_CLOCK: &str = "clk";

/// A named clock with an integer period in simulator base steps.
///
/// The simulator advances in *base steps* (what [`crate::Simulator::step`]
/// has always counted); a domain with period `p` presents a rising edge
/// at every step `t` with `t % p == 0`, so all domains coincide at step
/// 0 and the interleaving of any set of domains is fully determined by
/// their integer periods — the deterministic stand-in for rational
/// frequency ratios. Components declare their domains via
/// [`Component::clock_domains`]; a design whose every domain has period
/// 1 behaves exactly like the historical single-clock simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockDomain {
    /// The domain name; [`DEFAULT_CLOCK`] is the implicit default.
    pub name: String,
    /// The period in base steps (>= 1).
    pub period: u64,
}

impl ClockDomain {
    /// Creates a domain.
    #[must_use]
    pub fn new(name: impl Into<String>, period: u64) -> Self {
        Self {
            name: name.into(),
            period,
        }
    }

    /// The implicit default domain: `clk`, period 1.
    #[must_use]
    pub fn default_clock() -> Self {
        Self::new(DEFAULT_CLOCK, 1)
    }

    /// Whether this domain presents a rising edge at base step `t`.
    #[must_use]
    pub fn fires_at(&self, t: u64) -> bool {
        t.is_multiple_of(self.period.max(1))
    }
}

/// What wakes a component's [`Component::eval`] during settling.
///
/// The event-driven scheduler evaluates a component only when a signal
/// it is sensitive to changed in the previous delta pass (plus once
/// after every clock edge for clocked components, and once after
/// reset). [`Sensitivity::Always`] opts out of that filtering and
/// restores full-sweep behaviour for one component — the safe default
/// for implementations that predate the sensitivity API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sensitivity {
    /// Evaluate in every settle pass (full-sweep semantics).
    Always,
    /// Evaluate only when one of these signals changes. An empty list
    /// is valid and means `eval` depends on registered state alone:
    /// the component is still evaluated after clock edges and reset,
    /// where that state changes.
    Signals(Vec<SignalId>),
}

/// A clocked hardware component.
///
/// The simulator drives components in two phases per clock cycle:
///
/// 1. **Settle** — [`Component::eval`] is called repeatedly (delta
///    cycles) until no signal changes. `eval` must be a pure function
///    of the current signal values and the component's *registered*
///    state: read inputs, drive outputs, never update state.
/// 2. **Clock edge** — [`Component::tick`] is called exactly once with
///    the settled signal values. `tick` samples inputs and updates
///    internal state; outputs become visible in the next cycle's
///    settle phase.
///
/// This split gives well-defined synchronous semantics: every
/// component observes the same settled pre-edge values, exactly like
/// flip-flops sharing one clock.
///
/// ## Scheduling contract
///
/// Under the event-driven scheduler (the default,
/// [`crate::SchedMode::EventDriven`]) two further declarations matter:
///
/// * [`Component::sensitivity`] names the signals whose changes require
///   re-evaluation. Every signal `eval` *reads* must be listed —
///   listing extra signals merely costs spurious wake-ups, omitting a
///   read signal produces stale outputs. The default is
///   [`Sensitivity::Always`], which is always correct.
/// * [`Component::is_clocked`] splits sequential from combinational
///   components: a component returning `false` promises its `tick` is
///   a no-op and its `eval` output never depends on clock edges, so
///   the scheduler may skip both.
pub trait Component {
    /// The instance name, used in error reports, telemetry
    /// ([`crate::SimStats`] component tables, Chrome trace spans,
    /// non-convergence forensics) and waveform traces.
    ///
    /// Names should be stable for the component's lifetime and unique
    /// within a simulation — telemetry aggregates by instance, so two
    /// components sharing a name become indistinguishable in reports.
    fn name(&self) -> &str;

    /// Combinational settle: drive outputs from inputs and registered
    /// state. Called one or more times per cycle; must be idempotent
    /// for fixed inputs.
    ///
    /// The bus is handed out as [`BusAccess`] so the same
    /// implementation serves both the delta-cycle schedulers (which
    /// pass the exclusive [`SignalBus`]) and the lowered rank walk
    /// (which passes a view of its signal arena).
    ///
    /// # Errors
    ///
    /// Implementations report wiring mistakes and protocol violations
    /// as [`SimError`].
    fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError>;

    /// Clock edge: sample settled inputs and update registered state.
    ///
    /// # Errors
    ///
    /// Implementations report protocol violations (overflow, underrun,
    /// handshake misuse) as [`SimError`].
    fn tick(&mut self, bus: &mut SignalBus) -> Result<(), SimError>;

    /// The clock domains this component's state belongs to. The
    /// default — the single [`ClockDomain::default_clock`] — keeps
    /// every pre-existing component on the historical implicit clock.
    ///
    /// Domains are merged by name across the whole simulation (see
    /// [`crate::Simulator::clock_domains`]); two components naming the
    /// same domain with different periods is a wiring error. Must be
    /// stable for the component's lifetime; the scheduler caches it.
    fn clock_domains(&self) -> Vec<ClockDomain> {
        vec![ClockDomain::default_clock()]
    }

    /// Clock edge restricted to the domains named in `firing` — the
    /// multi-domain generalisation of [`Component::tick`].
    ///
    /// The default forwards to `tick` when the default clock fires and
    /// does nothing otherwise, which is exactly right for any
    /// component that left [`Component::clock_domains`] at its default.
    /// Multi-domain components must override both: on a step where only
    /// a subset of their domains fire, only state in those domains may
    /// advance. The scheduler calls plain `tick` whenever *all* domains
    /// fire, so single-rate simulations never take this path.
    ///
    /// # Errors
    ///
    /// As [`Component::tick`].
    fn tick_domains(&mut self, bus: &mut SignalBus, firing: &[&str]) -> Result<(), SimError> {
        if firing.contains(&DEFAULT_CLOCK) {
            self.tick(bus)
        } else {
            Ok(())
        }
    }

    /// Synchronous reset: restore power-on state. The default does
    /// nothing, which suits purely combinational components.
    ///
    /// # Errors
    ///
    /// Implementations may report wiring mistakes as [`SimError`].
    fn reset(&mut self, bus: &mut SignalBus) -> Result<(), SimError> {
        let _ = bus;
        Ok(())
    }

    /// The signals whose changes require re-evaluating this component
    /// (see the trait-level scheduling contract). Must be stable for
    /// the lifetime of the component; the scheduler caches it.
    fn sensitivity(&self) -> Sensitivity {
        Sensitivity::Always
    }

    /// Whether this component has clock-edge behaviour. Return `false`
    /// only if [`Component::tick`] is a no-op.
    fn is_clocked(&self) -> bool {
        true
    }

    /// The signals [`Component::eval`] may drive, when statically
    /// known. The lowered scheduler
    /// ([`crate::SchedMode::Lowered`]) unions this declaration with
    /// the drives observed during its validation settle to complete
    /// the write side of its dependency graph before a conditional
    /// drive has ever fired; the other schedulers ignore it.
    ///
    /// The default, `None`, means "discover at runtime" and is always
    /// safe: a drive on a signal the scheduler had not attributed to
    /// this component merely invalidates the levelized schedule for
    /// one settle. Declaring a superset of the real drive set is also
    /// safe (it only adds dependency edges); omitting a driven signal
    /// from a `Some` list is not an error but forfeits the guarantee
    /// the declaration exists to provide. Like
    /// [`Component::sensitivity`], the list must be stable for the
    /// component's lifetime.
    fn drives(&self) -> Option<Vec<SignalId>> {
        None
    }
}

impl<T: Component + ?Sized> Component for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn eval(&mut self, bus: &mut dyn BusAccess) -> Result<(), SimError> {
        (**self).eval(bus)
    }

    fn tick(&mut self, bus: &mut SignalBus) -> Result<(), SimError> {
        (**self).tick(bus)
    }

    fn clock_domains(&self) -> Vec<ClockDomain> {
        (**self).clock_domains()
    }

    fn tick_domains(&mut self, bus: &mut SignalBus, firing: &[&str]) -> Result<(), SimError> {
        (**self).tick_domains(bus, firing)
    }

    fn reset(&mut self, bus: &mut SignalBus) -> Result<(), SimError> {
        (**self).reset(bus)
    }

    fn sensitivity(&self) -> Sensitivity {
        (**self).sensitivity()
    }

    fn is_clocked(&self) -> bool {
        (**self).is_clocked()
    }

    fn drives(&self) -> Option<Vec<SignalId>> {
        (**self).drives()
    }
}
