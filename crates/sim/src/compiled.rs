//! The lowered scheduler's data plane: a bit-packed signal arena and
//! the ahead-of-time levelized evaluation schedule that walks it.
//!
//! [`crate::SchedMode::Lowered`] freezes a settled design into a
//! [`CompiledSchedule`]: every signal's value lives in a contiguous
//! [`SignalArena`] of `u64` words (three logic planes, bit-packed, with
//! precomputed word/shift offsets), and components are sorted into
//! static ranks by longest combinational path so one in-order walk
//! reaches the fixpoint a delta-cycle loop would. The schedule is
//! built and owned by the scheduler in `sched.rs`; this module holds
//! the pure data structures plus [`CompiledBus`], the [`BusAccess`]
//! façade components see while evaluating against the arena.

use crate::lower::LoweredProgram;
use crate::signal::{BusAccess, DRIVER_POKE};
use crate::{SignalBus, SignalId, SimError};
use hdp_hdl::LogicVector;
use std::sync::Arc;

/// A reusable snapshot of a validated compiled schedule: everything
/// the compile step derives from a design that is *independent of
/// signal values* — the levelized component order, the per-rank
/// counts, and the `(signal, driver)` links the validation settle
/// discovered.
///
/// Exported from a simulator whose [`crate::SchedMode::Lowered`]
/// schedule is active ([`crate::Simulator::export_plan`]) and
/// installed into a *freshly built* simulator of the same design
/// ([`crate::Simulator::install_plan`]), skipping the levelization
/// step entirely. The plan carries a structural signature (signal
/// names/widths, component names, sensitivities, clocking and
/// declared drives) so installation into a different design is
/// rejected instead of silently mis-scheduling. Settled values are
/// bit-identical with or without plan reuse: the installed schedule
/// is byte-for-byte the one a cold compile would have produced.
///
/// This is the unit a content-addressed plan cache stores —
/// compile a design once, then simulate millions of stimuli against
/// installed copies of the plan (see `hdp-service`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPlan {
    /// Structural signature of the source design
    /// ([`crate::Simulator::design_signature`]).
    pub(crate) signature: u64,
    /// Signal count at export time.
    pub(crate) n_sigs: usize,
    /// Component count at export time.
    pub(crate) n_comps: usize,
    /// Every `(signal slot, driver component)` link the source bus
    /// had observed, in slot order.
    pub(crate) links: Vec<(u32, u32)>,
    /// Component indices sorted by `(rank, registration order)`.
    pub(crate) order: Vec<u32>,
    /// Component count per levelized rank.
    pub(crate) rank_counts: Vec<u64>,
    /// Per-component lowered op-stream programs (`None` where the
    /// component keeps interpreted evaluation), indexed by component
    /// registration order. Populated when the exporting simulator ran
    /// [`crate::SchedMode::Lowered`]; empty otherwise. Value-free like
    /// the rest of the plan, so the service's content-addressed cache
    /// hands warm jobs a ready-to-run op stream and the lowering
    /// translation happens once per design, not once per job.
    pub(crate) lowered: Vec<Option<Arc<LoweredProgram>>>,
}

impl CompiledPlan {
    /// The structural signature of the design this plan was compiled
    /// from. [`crate::Simulator::install_plan`] refuses a plan whose
    /// signature does not match the target simulator.
    #[must_use]
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// Component count per levelized rank (index = rank).
    #[must_use]
    pub fn rank_counts(&self) -> &[u64] {
        &self.rank_counts
    }

    /// Number of components the plan schedules.
    #[must_use]
    pub fn components(&self) -> usize {
        self.n_comps
    }

    /// Number of signals the plan's source design declared.
    #[must_use]
    pub fn signals(&self) -> usize {
        self.n_sigs
    }

    /// Number of components the plan carries a lowered op-stream
    /// program for (zero when the plan was exported from a
    /// non-lowered simulator).
    #[must_use]
    pub fn lowered_components(&self) -> usize {
        self.lowered.iter().filter(|p| p.is_some()).count()
    }

    /// Rough resident-memory estimate of this plan in bytes: the
    /// backing vectors' element counts times their element sizes,
    /// including each lowered program's op stream. An estimate for
    /// cache-sizing gauges, not an allocator measurement.
    #[must_use]
    pub fn estimate_bytes(&self) -> u64 {
        let base = std::mem::size_of::<Self>()
            + self.links.len() * std::mem::size_of::<(u32, u32)>()
            + self.order.len() * std::mem::size_of::<u32>()
            + self.rank_counts.len() * std::mem::size_of::<u64>()
            + self.lowered.len() * std::mem::size_of::<Option<Arc<LoweredProgram>>>();
        let lowered: usize = self
            .lowered
            .iter()
            .flatten()
            .map(|p| {
                p.masks.len() * std::mem::size_of::<u64>()
                    + p.shared_z.len() * std::mem::size_of::<u32>()
                    + p.ops.len() * std::mem::size_of::<crate::lower::LoweredOp>()
                    + (p.in_ports.len() + p.out_ports.len())
                        * std::mem::size_of::<(u32, SignalId)>()
            })
            .sum();
        (base + lowered) as u64
    }
}

/// Bit mask selecting the low `width` bits of a word.
fn mask(width: u8) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Placement of one signal inside the arena: the word it lives in and
/// the bit offset of its low bit. Signals never span a word boundary,
/// so every access is a single shift-and-mask on each plane.
#[derive(Debug, Clone, Copy)]
struct ArenaSlot {
    word: u32,
    shift: u8,
    width: u8,
}

/// Flattened storage for every signal value: three parallel `u64`
/// planes (payload, unknown, high-impedance — the same three masks a
/// [`LogicVector`] carries) with signals bump-allocated into words in
/// id order. A 1-bit strobe costs one bit per plane instead of a
/// 24-byte `LogicVector` slot, and a whole design's worth of signals
/// fits in a few cache lines.
#[derive(Debug)]
pub(crate) struct SignalArena {
    value: Vec<u64>,
    unknown: Vec<u64>,
    highz: Vec<u64>,
    slots: Vec<ArenaSlot>,
}

impl SignalArena {
    /// Lays out an arena for every signal currently on the bus and
    /// loads their present values.
    pub(crate) fn build(bus: &SignalBus) -> Self {
        let mut slots = Vec::with_capacity(bus.len());
        let mut word: u32 = 0;
        let mut used: u8 = 0;
        for i in 0..bus.len() {
            let width = bus
                .width(SignalId(i))
                .expect("arena build: slot index in range") as u8;
            if used as usize + width as usize > 64 {
                word += 1;
                used = 0;
            }
            slots.push(ArenaSlot {
                word,
                shift: used,
                width,
            });
            used += width;
        }
        let words = slots.last().map_or(0, |s| s.word as usize + 1);
        let mut arena = Self {
            value: vec![0; words],
            unknown: vec![0; words],
            highz: vec![0; words],
            slots,
        };
        arena.load_from(bus);
        arena
    }

    /// Reloads every slot from the live bus (used after an event-driven
    /// fallback settle left the arena stale).
    pub(crate) fn load_from(&mut self, bus: &SignalBus) {
        for i in 0..self.slots.len() {
            let v = bus
                .read(SignalId(i))
                .expect("arena reload: slot index in range");
            self.set(i, v);
        }
    }

    /// The number of signals placed in the arena.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The declared width of a slot, in bits.
    pub(crate) fn width(&self, slot: usize) -> usize {
        self.slots[slot].width as usize
    }

    /// Reads a slot back as a [`LogicVector`].
    pub(crate) fn get(&self, slot: usize) -> LogicVector {
        let s = self.slots[slot];
        let m = mask(s.width);
        let w = s.word as usize;
        LogicVector::from_raw_masks(
            s.width as usize,
            (self.value[w] >> s.shift) & m,
            (self.unknown[w] >> s.shift) & m,
            (self.highz[w] >> s.shift) & m,
        )
        .expect("arena slot width was validated at build")
    }

    /// Writes a slot, returning whether the stored bits changed.
    pub(crate) fn set(&mut self, slot: usize, v: LogicVector) -> bool {
        let s = self.slots[slot];
        let m = mask(s.width);
        let w = s.word as usize;
        let (val, unk, hz) = v.raw_masks();
        let old = (
            (self.value[w] >> s.shift) & m,
            (self.unknown[w] >> s.shift) & m,
            (self.highz[w] >> s.shift) & m,
        );
        if old == (val, unk, hz) {
            return false;
        }
        let clear = !(m << s.shift);
        self.value[w] = (self.value[w] & clear) | (val << s.shift);
        self.unknown[w] = (self.unknown[w] & clear) | (unk << s.shift);
        self.highz[w] = (self.highz[w] & clear) | (hz << s.shift);
        true
    }
}

/// A frozen evaluation plan: the arena plus components sorted into
/// levelized ranks, with the per-settle scratch state the walk needs.
///
/// Per-slot bookkeeping (`written`, `changed_tag`, `woken`) is
/// epoch-tagged rather than cleared, so starting a settle is O(1) in
/// the design size.
#[derive(Debug)]
pub(crate) struct CompiledSchedule {
    /// Bit-packed signal storage.
    pub(crate) arena: SignalArena,
    /// Component indices sorted by `(rank, registration order)`.
    pub(crate) order: Vec<u32>,
    /// How many components sit at each rank (diagnostics/telemetry).
    pub(crate) rank_counts: Vec<u64>,
    /// Whether the arena no longer mirrors the bus (an event-driven
    /// fallback settle ran since the last arena commit) and must be
    /// reloaded before the next compiled walk.
    pub(crate) arena_stale: bool,
    /// Current settle epoch for the tag vectors below.
    epoch: u64,
    /// Per-slot epoch of the last arena write this settle (selects
    /// replace-vs-resolve drive semantics).
    written: Vec<u64>,
    /// Per-slot epoch marking membership of `changed`.
    changed_tag: Vec<u64>,
    /// Slots whose arena value changed this settle, in first-change
    /// order. The walk drains this as a wake queue; the commit replays
    /// it onto the bus.
    pub(crate) changed: Vec<usize>,
    /// Per-slot index of the driver whose write last changed the slot.
    pub(crate) changer: Vec<usize>,
    /// Per-component epoch marking "already queued for evaluation this
    /// settle".
    woken: Vec<u64>,
    /// Telemetry: drive calls per slot this settle (drained at commit).
    drive_counts: Vec<u64>,
    /// Slots with a nonzero `drive_counts` entry this settle.
    drives_touched: Vec<usize>,
    /// `(slot, driver)` pairs observed this settle that the schedule
    /// was not built with. Non-empty means the schedule is stale: the
    /// walk aborts, the links are recorded on the bus and the settle
    /// re-runs event-driven.
    pub(crate) new_links: Vec<(usize, usize)>,
    /// Set as soon as `new_links` gains an entry.
    pub(crate) stale: bool,
}

impl CompiledSchedule {
    pub(crate) fn new(arena: SignalArena, order: Vec<u32>, rank_counts: Vec<u64>) -> Self {
        let n_slots = arena.len();
        let n_comps = order.len();
        Self {
            arena,
            order,
            rank_counts,
            arena_stale: false,
            epoch: 0,
            written: vec![0; n_slots],
            changed_tag: vec![0; n_slots],
            changed: Vec::new(),
            changer: vec![DRIVER_POKE; n_slots],
            woken: vec![0; n_comps],
            drive_counts: vec![0; n_slots],
            drives_touched: Vec::new(),
            new_links: Vec::new(),
            stale: false,
        }
    }

    /// Opens a new settle: bumps the epoch and clears the per-settle
    /// queues. Epoch tags make the per-slot state implicitly fresh.
    pub(crate) fn begin_settle(&mut self) {
        self.epoch += 1;
        self.changed.clear();
        self.new_links.clear();
        self.stale = false;
    }

    /// Queues a component for evaluation this settle (idempotent).
    pub(crate) fn wake(&mut self, comp: usize) {
        self.woken[comp] = self.epoch;
    }

    /// Whether a component has been queued this settle.
    pub(crate) fn is_woken(&self, comp: usize) -> bool {
        self.woken[comp] == self.epoch
    }

    /// Drains the per-settle telemetry drive counts as
    /// `(slot, count)` pairs.
    pub(crate) fn take_drive_counts(&mut self) -> Vec<(usize, u64)> {
        let mut out = Vec::with_capacity(self.drives_touched.len());
        for slot in self.drives_touched.drain(..) {
            out.push((slot, self.drive_counts[slot]));
            self.drive_counts[slot] = 0;
        }
        out
    }
}

/// The [`BusAccess`] view a component gets while the compiled walk
/// evaluates it: reads and drives go to the arena, names come from the
/// live bus, and any drive by a component the schedule did not list as
/// a driver of that slot flags the schedule stale.
pub(crate) struct CompiledBus<'a> {
    pub(crate) sched: &'a mut CompiledSchedule,
    pub(crate) bus: &'a SignalBus,
    /// Component index of the evaluating driver, or [`DRIVER_POKE`].
    pub(crate) driver: usize,
    /// Whether per-slot drive telemetry is collected.
    pub(crate) telemetry: bool,
}

impl CompiledBus<'_> {
    fn slot(&self, id: SignalId) -> Result<usize, SimError> {
        if id.0 < self.sched.arena.len() {
            Ok(id.0)
        } else {
            Err(SimError::UnknownSignal { index: id.0 })
        }
    }
}

impl BusAccess for CompiledBus<'_> {
    fn read(&self, id: SignalId) -> Result<LogicVector, SimError> {
        let slot = self.slot(id)?;
        Ok(self.sched.arena.get(slot))
    }

    fn read_u64(&self, id: SignalId, component: &str) -> Result<u64, SimError> {
        let v = self.read(id)?;
        v.to_u64().ok_or_else(|| SimError::Protocol {
            component: component.to_owned(),
            message: format!(
                "signal `{}` is undefined ({v})",
                self.bus.name(id).unwrap_or("?")
            ),
        })
    }

    fn drive(&mut self, id: SignalId, value: LogicVector) -> Result<(), SimError> {
        let slot = self.slot(id)?;
        let sched = &mut *self.sched;
        let width = sched.arena.width(slot);
        if width != value.width() {
            return Err(SimError::SignalWidth {
                signal: self.bus.name(id).unwrap_or("?").to_owned(),
                expected: width,
                found: value.width(),
            });
        }
        if self.telemetry {
            if sched.drive_counts[slot] == 0 {
                sched.drives_touched.push(slot);
            }
            sched.drive_counts[slot] += 1;
        }
        // A drive the schedule was not built with (a conditional drive
        // firing for the first time) invalidates the levelization: the
        // new writer may sit at a later rank than this slot's readers.
        // Record the link, mark the schedule stale and let the walk
        // abort; the settle re-runs event-driven with full semantics.
        if self.driver != DRIVER_POKE
            && !self.bus.slot_drivers(slot).contains(&self.driver)
            && !sched.new_links.contains(&(slot, self.driver))
        {
            sched.new_links.push((slot, self.driver));
            sched.stale = true;
        }
        let resolved = if sched.written[slot] == sched.epoch {
            sched
                .arena
                .get(slot)
                .resolve(&value)
                .map_err(SimError::from)?
        } else {
            value
        };
        sched.written[slot] = sched.epoch;
        if sched.arena.set(slot, resolved) {
            sched.changer[slot] = self.driver;
            if sched.changed_tag[slot] != sched.epoch {
                sched.changed_tag[slot] = sched.epoch;
                sched.changed.push(slot);
            }
        }
        Ok(())
    }

    fn drive_u64(&mut self, id: SignalId, value: u64) -> Result<(), SimError> {
        let slot = self.slot(id)?;
        let width = self.sched.arena.width(slot);
        let v = LogicVector::from_u64(value, width).map_err(SimError::from)?;
        self.drive(id, v)
    }

    fn width(&self, id: SignalId) -> Result<usize, SimError> {
        let slot = self.slot(id)?;
        Ok(self.sched.arena.width(slot))
    }

    fn name(&self, id: SignalId) -> Result<&str, SimError> {
        self.bus.name(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;

    fn arena_rig(widths: &[usize]) -> (Simulator, SignalArena) {
        let mut sim = Simulator::new();
        for (i, &w) in widths.iter().enumerate() {
            sim.add_signal(format!("s{i}"), w).unwrap();
        }
        let arena = SignalArena::build(sim.bus());
        (sim, arena)
    }

    #[test]
    fn arena_packs_without_spanning_words() {
        // 40 + 40 cannot share a word, so the second signal starts a
        // new one; the 8-bit signal still fits beside it (40 + 8 = 48).
        // 48 + 56 overflows again, and the final 1-bit signal rides
        // along in that word (56 + 1 = 57).
        let (_sim, arena) = arena_rig(&[40, 40, 8, 56, 1]);
        assert_eq!(arena.len(), 5);
        assert_eq!(arena.slots[0].word, 0);
        assert_eq!(arena.slots[1].word, 1);
        assert_eq!(arena.slots[2].word, 1);
        assert_eq!(arena.slots[2].shift, 40);
        assert_eq!(arena.slots[3].word, 2);
        assert_eq!(arena.slots[3].shift, 0);
        assert_eq!(arena.slots[4].word, 2);
        assert_eq!(arena.slots[4].shift, 56);
    }

    #[test]
    fn arena_round_trips_all_logic_planes() {
        let (_sim, mut arena) = arena_rig(&[4, 4, 64]);
        let v = LogicVector::parse("10XZ").unwrap();
        assert!(arena.set(1, v));
        assert_eq!(arena.get(1), v);
        // Neighbours are untouched (still all-unknown from the bus).
        assert_eq!(arena.get(0), LogicVector::unknown(4).unwrap());
        let wide = LogicVector::from_u64(u64::MAX, 64).unwrap();
        assert!(arena.set(2, wide));
        assert_eq!(arena.get(2), wide);
        assert_eq!(arena.get(1), v);
    }

    #[test]
    fn arena_set_reports_change() {
        let (_sim, mut arena) = arena_rig(&[8]);
        let v = LogicVector::from_u64(0xA5, 8).unwrap();
        assert!(arena.set(0, v));
        assert!(!arena.set(0, v));
    }

    #[test]
    fn compiled_bus_resolves_second_drive_of_a_settle() {
        let (sim, arena) = arena_rig(&[1]);
        let n = arena.len();
        let mut sched = CompiledSchedule::new(arena, Vec::new(), Vec::new());
        let _ = n;
        sched.begin_settle();
        let id = SignalId(0);
        let z = LogicVector::parse("Z").unwrap();
        let one = LogicVector::from_u64(1, 1).unwrap();
        {
            let mut cb = CompiledBus {
                sched: &mut sched,
                bus: sim.bus(),
                driver: DRIVER_POKE,
                telemetry: false,
            };
            cb.drive(id, z).unwrap();
            // Second drive of the same settle resolves: Z resolves to
            // the driven value instead of replacing it.
            cb.drive(id, one).unwrap();
        }
        assert_eq!(sched.arena.get(0), one);
        // A fresh settle replaces again.
        sched.begin_settle();
        let mut cb = CompiledBus {
            sched: &mut sched,
            bus: sim.bus(),
            driver: DRIVER_POKE,
            telemetry: false,
        };
        cb.drive(id, z).unwrap();
        assert_eq!(cb.sched.arena.get(0), z);
    }
}
