//! # hdp-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | binary | artefact |
//! |---|---|
//! | `table1` | Table 1 — container classification |
//! | `table2` | Table 2 — iterator operations |
//! | `table3` | Table 3 — pattern vs. custom synthesis results |
//! | `figure4_5` | Figures 4 and 5 — generated VHDL components |
//! | `design_space` | §3.4 — characterisation sweep and regions of interest |
//!
//! Criterion benches (`cargo bench`) measure the generator, the
//! synthesis flow and cycle-accurate simulation throughput of the
//! Table 3 designs.

use hdp_metagen::design::{generate, DesignKind, DesignParams, Style};
use hdp_sim::devices::{Sram, VideoIn, VideoOut};
use hdp_sim::{NetlistComponent, SchedMode, SignalId, SimError, Simulator, TelemetryLevel};

/// Complete configuration for one generated Table 3 design
/// simulation: the design-space point (kind, style, parameters), the
/// stimulus the video decoder model feeds it, and the simulator
/// set-up (scheduler mode, interpreter strategy, telemetry). The one
/// argument of [`build_design_sim`].
///
/// Construct with [`DesignSimSpec::new`] and refine with the
/// builder-style setters:
///
/// ```
/// use hdp_bench::DesignSimSpec;
/// use hdp_metagen::design::{DesignKind, DesignParams, Style};
/// use hdp_sim::SchedMode;
///
/// let spec = DesignSimSpec::new(
///     DesignKind::Saa2vga1,
///     Style::Pattern,
///     DesignParams::small(8),
///     (0..16).collect(),
/// )
/// .mode(SchedMode::Lowered);
/// let (mut sim, sink) = hdp_bench::build_design_sim(&spec).unwrap();
/// let frame = hdp_bench::run_design_sim(&mut sim, sink, 4000);
/// assert_eq!(frame.len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct DesignSimSpec {
    /// Which Table 3 design to generate.
    pub kind: DesignKind,
    /// Pattern-based or custom implementation style.
    pub style: Style,
    /// Generator parameters (widths, depth, address bus).
    pub params: DesignParams,
    /// Pixel stream the video decoder model emits.
    pub pixels: Vec<u64>,
    /// Idle cycles the decoder inserts between pixels.
    pub gap: u32,
    /// Frame length the VGA sink collects before reporting a frame.
    pub out_len: usize,
    /// Scheduler mode for the simulator.
    pub mode: SchedMode,
    /// Whether the netlist interpreter evaluates incrementally.
    /// `(FullSweep, false)` reproduces the legacy evaluate-everything
    /// behaviour for baseline measurements.
    pub incremental: bool,
    /// Instrumentation level for the simulator.
    pub telemetry: TelemetryLevel,
}

impl DesignSimSpec {
    /// A spec with the common defaults: no inter-pixel gap, a frame
    /// as long as the pixel stream, the default scheduler, the
    /// incremental interpreter and no telemetry.
    #[must_use]
    pub fn new(kind: DesignKind, style: Style, params: DesignParams, pixels: Vec<u64>) -> Self {
        let out_len = pixels.len();
        Self {
            kind,
            style,
            params,
            pixels,
            gap: 0,
            out_len,
            mode: SchedMode::default(),
            incremental: true,
            telemetry: TelemetryLevel::default(),
        }
    }

    /// Sets the idle-cycle gap between pixels.
    #[must_use]
    pub fn gap(mut self, gap: u32) -> Self {
        self.gap = gap;
        self
    }

    /// Sets the frame length the sink collects.
    #[must_use]
    pub fn out_len(mut self, out_len: usize) -> Self {
        self.out_len = out_len;
        self
    }

    /// Sets the scheduler mode.
    #[must_use]
    pub fn mode(mut self, mode: SchedMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects incremental or evaluate-everything interpretation.
    #[must_use]
    pub fn incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// Sets the telemetry level.
    #[must_use]
    pub fn telemetry(mut self, level: TelemetryLevel) -> Self {
        self.telemetry = level;
        self
    }
}

/// Builds a ready-to-run simulation of one generated Table 3 design:
/// the design netlist plus video source, sink and (for the SRAM
/// design) two external memories, configured exactly as the spec
/// says. Returns the simulator and the sink handle.
///
/// # Errors
///
/// Propagates generation and wiring failures as [`SimError`].
pub fn build_design_sim(
    spec: &DesignSimSpec,
) -> Result<(Simulator, hdp_sim::ComponentId), SimError> {
    let params = spec.params;
    let design = generate(spec.kind, spec.style, params)?;
    let mut sim = Simulator::new();
    sim.set_mode(spec.mode);
    sim.set_telemetry(spec.telemetry);
    let vid_valid = sim.add_signal("vid_valid", 1)?;
    let vid_data = sim.add_signal("vid_data", params.data_width)?;
    let vga_valid = sim.add_signal("vga_valid", 1)?;
    let vga_data = sim.add_signal("vga_data", params.data_width)?;
    let mut map: Vec<(String, SignalId)> = vec![
        ("vid_valid".into(), vid_valid),
        ("vid_data".into(), vid_data),
        ("vga_valid".into(), vga_valid),
        ("vga_data".into(), vga_data),
    ];
    if spec.kind == DesignKind::Saa2vga2 {
        for prefix in ["im", "om"] {
            let req = sim.add_signal(format!("{prefix}_req"), 1)?;
            let we = sim.add_signal(format!("{prefix}_we"), 1)?;
            let addr = sim.add_signal(format!("{prefix}_addr"), params.addr_width)?;
            let wdata = sim.add_signal(format!("{prefix}_wdata"), params.data_width)?;
            let ack = sim.add_signal(format!("{prefix}_ack"), 1)?;
            let rdata = sim.add_signal(format!("{prefix}_rdata"), params.data_width)?;
            sim.add_component(Sram::new(
                format!("sram_{prefix}"),
                params.addr_width,
                params.data_width,
                2,
                req,
                we,
                addr,
                wdata,
                ack,
                rdata,
            ));
            for (p, s) in [
                (format!("{prefix}_req"), req),
                (format!("{prefix}_we"), we),
                (format!("{prefix}_addr"), addr),
                (format!("{prefix}_wdata"), wdata),
                (format!("{prefix}_ack"), ack),
                (format!("{prefix}_rdata"), rdata),
            ] {
                map.push((p, s));
            }
        }
    }
    let map_refs: Vec<(&str, SignalId)> = map.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    let dut = NetlistComponent::new("dut", design.netlist, sim.bus(), &map_refs)?;
    let dut = sim.add_component(dut);
    if !spec.incremental {
        sim.component_mut::<NetlistComponent>(dut)
            .ok_or_else(|| SimError::Protocol {
                component: "dut".into(),
                message: "netlist component vanished after registration".into(),
            })?
            .set_incremental(false);
    }
    sim.add_component(VideoIn::new(
        "video_decoder",
        spec.pixels.clone(),
        params.data_width,
        spec.gap,
        false,
        vid_valid,
        vid_data,
    ));
    let sink = sim.add_component(VideoOut::new(
        "vga_coder",
        spec.out_len,
        None,
        vga_valid,
        vga_data,
    ));
    sim.reset()?;
    Ok((sim, sink))
}

/// Legacy positional form of [`build_design_sim`].
///
/// # Panics
///
/// Panics on generation or wiring failures, preserving the original
/// contract.
#[deprecated(
    since = "0.1.0",
    note = "use `build_design_sim(&DesignSimSpec)` — scheduler and telemetry now live in the spec"
)]
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn build_design_sim_scheduled(
    kind: DesignKind,
    style: Style,
    params: DesignParams,
    pixels: Vec<u64>,
    gap: u32,
    out_len: usize,
    mode: SchedMode,
    incremental: bool,
) -> (Simulator, hdp_sim::ComponentId) {
    let spec = DesignSimSpec::new(kind, style, params, pixels)
        .gap(gap)
        .out_len(out_len)
        .mode(mode)
        .incremental(incremental);
    build_design_sim(&spec).expect("design builds")
}

/// Runs a built design simulation until a frame is collected or the
/// cycle budget runs out; returns the frame.
///
/// # Panics
///
/// Panics on simulation errors or if no frame arrives in time.
#[must_use]
pub fn run_design_sim(sim: &mut Simulator, sink: hdp_sim::ComponentId, budget: u64) -> Vec<u64> {
    let mut remaining = budget;
    while remaining > 0 {
        let chunk = remaining.min(256);
        sim.run(chunk).expect("simulation error");
        remaining -= chunk;
        if !sim.component::<VideoOut>(sink).unwrap().frames().is_empty() {
            break;
        }
    }
    sim.component::<VideoOut>(sink)
        .unwrap()
        .frames()
        .first()
        .cloned()
        .expect("frame collected within budget")
}

/// Runs several independent, already-built design simulations to
/// frame completion, distributed round-robin over `threads` worker
/// threads ([`Simulator`] is `Send`, so whole simulations migrate to
/// workers). Returns each design's first frame in input order —
/// frame-throughput workloads (the paper's video pipelines processing
/// a stream of frames, or a design-space sweep) are embarrassingly
/// parallel at this granularity, so this is where `hdp` runs
/// simulation work in parallel; a single simulation stays on one
/// thread.
///
/// # Panics
///
/// Panics on simulation errors or if any design misses its budget,
/// like [`run_design_sim`].
#[must_use]
pub fn run_design_batch(
    sims: Vec<(Simulator, hdp_sim::ComponentId)>,
    budget: u64,
    threads: usize,
) -> Vec<Vec<u64>> {
    hdp_service::pool::run_sharded(sims, threads, |(mut sim, sink)| {
        run_design_sim(&mut sim, sink, budget)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_the_fifo_design() {
        let pixels: Vec<u64> = (0..32).map(|i| i & 0xFF).collect();
        let spec = DesignSimSpec::new(
            DesignKind::Saa2vga1,
            Style::Pattern,
            DesignParams::small(8),
            pixels.clone(),
        );
        let (mut sim, sink) = build_design_sim(&spec).unwrap();
        let out = run_design_sim(&mut sim, sink, 4000);
        assert_eq!(out, pixels);
    }

    #[test]
    fn batch_matches_sequential_runs() {
        let pixels: Vec<u64> = (0..32).map(|i| (i * 7) & 0xFF).collect();
        let base = DesignSimSpec::new(
            DesignKind::Saa2vga1,
            Style::Pattern,
            DesignParams::small(8),
            pixels.clone(),
        );
        let sims: Vec<_> = (0..5)
            .map(|i| {
                let mode = if i % 2 == 0 {
                    SchedMode::EventDriven
                } else {
                    SchedMode::Lowered
                };
                build_design_sim(&base.clone().mode(mode)).unwrap()
            })
            .collect();
        let frames = run_design_batch(sims, 4000, 3);
        assert_eq!(frames.len(), 5);
        for f in frames {
            assert_eq!(f, pixels);
        }
    }

    #[test]
    #[allow(deprecated)]
    fn legacy_shim_matches_the_spec_api() {
        let pixels: Vec<u64> = (0..16).collect();
        let (mut old_sim, old_sink) = build_design_sim_scheduled(
            DesignKind::Saa2vga1,
            Style::Pattern,
            DesignParams::small(8),
            pixels.clone(),
            0,
            pixels.len(),
            SchedMode::EventDriven,
            true,
        );
        let spec = DesignSimSpec::new(
            DesignKind::Saa2vga1,
            Style::Pattern,
            DesignParams::small(8),
            pixels.clone(),
        );
        let (mut new_sim, new_sink) = build_design_sim(&spec).unwrap();
        assert_eq!(
            run_design_sim(&mut old_sim, old_sink, 4000),
            run_design_sim(&mut new_sim, new_sink, 4000),
        );
    }
}
