//! The `video` workload: the paper's Table 3 designs streaming frames.
//!
//! Twelve configurations — saa2vga 1, saa2vga 2 and blur, pattern and
//! custom, at the paper's parameters and at a smaller point — are
//! generated, synthesized and wired into simulators under the
//! service's default scheduler ([`SchedMode::Lowered`]), on one
//! thread. An operation is one input line period of simulation; each
//! frame ends with a drain operation that finishes the frame, checks
//! it against the `hdp-core` golden model and resets the simulator.
//! Every configuration alternates two seeded frames, so memory a reset
//! keeps (the SRAM design's external memories) cannot pass for a frame
//! the design failed to store.

use crate::checks;
use crate::stats::{Window, WindowStat};
use crate::trace::Tracer;
use hdp_core::golden::{blur3x3, BlurBorder};
use hdp_core::pixel::{Frame, PixelFormat};
use hdp_metagen::design::{generate, DesignKind, DesignParams, Style};
use hdp_sim::devices::{Sram, VideoIn, VideoOut};
use hdp_sim::{
    ComponentId, NetlistComponent, SchedMode, SignalId, SimError, SimStats, Simulator,
    TelemetryLevel,
};
use hdp_synth::{synthesize, SynthReport};
use std::time::Instant;

/// Idle cycles between pixels for the SRAM design: it needs 20 cycles
/// a pixel (below 19 it drops pixels or violates the SRAM protocol);
/// the FIFO and blur designs take a pixel every cycle.
const SRAM_GAP: u32 = 19;

/// Cycles per drain step after the last input line.
const DRAIN_CHUNK: u64 = 64;

/// Drain budget in cycles: a frame not complete by then is a failed
/// operation.
const DRAIN_BUDGET: u64 = 1 << 16;

/// One parameter point of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Short name used in labels.
    pub name: &'static str,
    /// Generator parameters.
    pub params: DesignParams,
    /// Input frame height for the FIFO and blur designs.
    pub lines: usize,
    /// Input frame height for the SRAM design, whose pixels cost 20
    /// cycles each; kept short so it does not dominate the run.
    pub sram_lines: usize,
}

/// The parameter points: the paper's (8-bit pixels, 512-element
/// buffers, 512-pixel lines) and a smaller one (64-element buffers,
/// 128-pixel lines).
#[must_use]
pub fn points() -> [Point; 2] {
    [
        Point {
            name: "paper",
            params: DesignParams::paper_default(),
            lines: 32,
            sram_lines: 2,
        },
        Point {
            name: "small",
            params: DesignParams::small(128),
            lines: 16,
            sram_lines: 2,
        },
    ]
}

/// Seeded input frames per configuration, streamed in turn.
pub const FRAMES: usize = 2;

/// One configuration's inputs and golden outputs, made from the seed
/// before any set-up is timed.
#[derive(Debug, Clone)]
pub struct Input {
    /// Design row.
    pub kind: DesignKind,
    /// Pattern or custom.
    pub style: Style,
    /// Parameter point.
    pub point: Point,
    /// Row-major input pixels of each frame.
    pub frames: [Vec<u64>; FRAMES],
    /// The golden model's output for each frame.
    pub golden: [Vec<u64>; FRAMES],
    /// Input lines per frame.
    pub lines: usize,
    /// Idle cycles between input pixels.
    pub gap: u32,
}

impl Input {
    /// `paper saa2vga 1 Pattern` style label.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{} {} {:?}", self.point.name, self.kind.label(), self.style)
    }

    /// Simulated cycles per input line.
    #[must_use]
    pub fn line_cycles(&self) -> u64 {
        self.point.params.line_width as u64 * u64::from(self.gap + 1)
    }
}

/// Makes every configuration's input frames and golden outputs.
///
/// # Panics
///
/// When the golden blur rejects a frame (frames are at least 3×3 by
/// construction).
#[must_use]
pub fn inputs(seed: u64) -> Vec<Input> {
    let mut out = Vec::new();
    for (pi, point) in points().into_iter().enumerate() {
        for (ki, kind) in DesignKind::ALL.into_iter().enumerate() {
            let (lines, gap) = if kind == DesignKind::Saa2vga2 {
                (point.sram_lines, SRAM_GAP)
            } else {
                (point.lines, 0)
            };
            let frame = |f: usize| {
                let frame_seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(((pi * 8 + ki) * FRAMES + f) as u64);
                Frame::noise(
                    point.params.line_width,
                    lines,
                    PixelFormat::Gray8,
                    frame_seed,
                )
            };
            let frames: [Frame; FRAMES] = std::array::from_fn(frame);
            let golden = frames.each_ref().map(|frame| match kind {
                DesignKind::Blur => blur3x3(frame, BlurBorder::Crop)
                    .expect("frames are at least 3x3")
                    .into_pixels(),
                _ => frame.pixels().to_vec(),
            });
            for style in [Style::Pattern, Style::Custom] {
                out.push(Input {
                    kind,
                    style,
                    point,
                    frames: frames.each_ref().map(|f| f.pixels().to_vec()),
                    golden: golden.clone(),
                    lines,
                    gap,
                });
            }
        }
    }
    out
}

/// A configuration ready to stream.
pub struct Built {
    /// The simulator (design, video source and sink, SRAMs).
    pub sim: Simulator,
    /// The VGA sink.
    pub sink: ComponentId,
    /// The video source.
    pub source: ComponentId,
    /// A source for the other frame, swapped in after each frame.
    pub spare: VideoIn,
    /// Which of the input's frames the simulator streams next.
    pub frame: usize,
    /// Synthesis report of the generated netlist.
    pub report: SynthReport,
    /// The generated netlist, kept so a traced run can rebuild the
    /// simulator per frame.
    pub netlist: hdp_hdl::Netlist,
}

/// A simulator wired for one configuration, streaming one frame.
struct Wired {
    sim: Simulator,
    sink: ComponentId,
    source: ComponentId,
    /// A source for the other frame, on the same signals.
    spare: VideoIn,
}

/// Wires a generated netlist with its video source (streaming frame
/// `frame`), sink and — for the SRAM design — two external memories,
/// then resets it.
fn build_sim(input: &Input, netlist: hdp_hdl::Netlist, frame: usize) -> Result<Wired, SimError> {
    let p = input.point.params;
    let mut sim = Simulator::with_mode(SchedMode::Lowered);
    let vid_valid = sim.add_signal("vid_valid", 1)?;
    let vid_data = sim.add_signal("vid_data", p.data_width)?;
    let vga_valid = sim.add_signal("vga_valid", 1)?;
    let vga_data = sim.add_signal("vga_data", p.data_width)?;
    let mut map: Vec<(String, SignalId)> = vec![
        ("vid_valid".into(), vid_valid),
        ("vid_data".into(), vid_data),
        ("vga_valid".into(), vga_valid),
        ("vga_data".into(), vga_data),
    ];
    if input.kind == DesignKind::Saa2vga2 {
        for prefix in ["im", "om"] {
            let req = sim.add_signal(format!("{prefix}_req"), 1)?;
            let we = sim.add_signal(format!("{prefix}_we"), 1)?;
            let addr = sim.add_signal(format!("{prefix}_addr"), p.addr_width)?;
            let wdata = sim.add_signal(format!("{prefix}_wdata"), p.data_width)?;
            let ack = sim.add_signal(format!("{prefix}_ack"), 1)?;
            let rdata = sim.add_signal(format!("{prefix}_rdata"), p.data_width)?;
            sim.add_component(Sram::new(
                format!("sram_{prefix}"),
                p.addr_width,
                p.data_width,
                2,
                req,
                we,
                addr,
                wdata,
                ack,
                rdata,
            ));
            for (port, id) in [
                ("req", req),
                ("we", we),
                ("addr", addr),
                ("wdata", wdata),
                ("ack", ack),
                ("rdata", rdata),
            ] {
                map.push((format!("{prefix}_{port}"), id));
            }
        }
    }
    let refs: Vec<(&str, SignalId)> = map.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    let dut = NetlistComponent::new("dut", netlist, sim.bus(), &refs)?;
    sim.add_component(dut);
    let video_in = |f: usize| {
        VideoIn::new(
            "video_decoder",
            input.frames[f].clone(),
            p.data_width,
            input.gap,
            false,
            vid_valid,
            vid_data,
        )
    };
    let source = sim.add_component(video_in(frame));
    let sink = sim.add_component(VideoOut::new(
        "vga_coder",
        input.golden[frame].len(),
        None,
        vga_valid,
        vga_data,
    ));
    sim.reset()?;
    Ok(Wired {
        sim,
        sink,
        source,
        spare: video_in((frame + 1) % FRAMES),
    })
}

/// Set-up of one configuration: generate → synthesize → build
/// simulator, each call a span when tracing. The traced run also
/// probes `hdl::validate::check` on the generated netlist.
///
/// # Errors
///
/// Generation, synthesis or wiring failures, as text.
pub fn build(input: &Input, tracer: &mut Tracer) -> Result<Built, String> {
    let design = tracer
        .time("metagen.generate", || {
            generate(input.kind, input.style, input.point.params)
        })
        .map_err(|e| format!("{}: generate: {e}", input.label()))?;
    if tracer.on() {
        tracer
            .time("hdl.validate", || hdp_hdl::validate::check(&design.netlist))
            .map_err(|e| format!("{}: validate: {e}", input.label()))?;
    }
    let report = tracer
        .time("synth.synthesize", || synthesize(&design.netlist))
        .map_err(|e| format!("{}: synthesize: {e}", input.label()))?;
    let w = tracer
        .time("sim.build", || build_sim(input, design.netlist.clone(), 0))
        .map_err(|e| format!("{}: build: {e}", input.label()))?;
    Ok(Built {
        sim: w.sim,
        sink: w.sink,
        source: w.source,
        spare: w.spare,
        frame: 0,
        report,
        netlist: design.netlist,
    })
}

/// Builds every configuration.
///
/// # Errors
///
/// The first configuration that fails to build.
pub fn setup(inputs: &[Input], tracer: &mut Tracer) -> Result<Vec<Built>, String> {
    inputs.iter().map(|input| build(input, tracer)).collect()
}

/// Checks the Table 3 property that pattern and custom cost the same
/// on the saa2vga 1 and blur rows. `inputs` come in (pattern, custom)
/// pairs.
///
/// # Errors
///
/// The first row whose styles differ.
pub fn check_table3(inputs: &[Input], built: &[Built]) -> Result<(), String> {
    for (pair, inp) in built.chunks(2).zip(inputs.chunks(2)) {
        if inp[0].kind != DesignKind::Saa2vga2 {
            checks::check_pattern_equals_custom(
                &format!("{} {}", inp[0].point.name, inp[0].kind.label()),
                &pair[0].report,
                &pair[1].report,
            )?;
        }
    }
    Ok(())
}

/// What the timed region produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or did not finish their frame.
    pub failed: u64,
    /// Completed windows of [`WINDOW_ROUNDS`] rounds.
    pub windows: Vec<WindowStat>,
    /// The window being filled.
    current: Window,
    /// Whole rounds (every configuration one frame) completed.
    pub rounds: u64,
    /// First golden-model mismatch, if any.
    pub mismatch: Option<String>,
    /// Simulated cycles in the timed region.
    pub cycles: u64,
    /// Host time inside `Simulator::run`, nanoseconds.
    pub run_ns: u64,
    /// Simulator telemetry summed over a traced run's frames.
    pub layer: SimLayer,
}

fn frame_done(sim: &Simulator, sink: ComponentId) -> bool {
    sim.component::<VideoOut>(sink)
        .is_some_and(|s| !s.frames().is_empty())
}

/// Streams one frame through one configuration: `lines` line-period
/// operations, then a drain operation that completes and checks the
/// frame, swaps in the source of the other frame and resets the
/// simulator.
fn stream_frame(input: &Input, b: &mut Built, out: &mut Outcome, tracer: &mut Tracer) {
    let line_cycles = input.line_cycles();
    let mut ok = true;
    if tracer.on() {
        // `Full` telemetry keeps a span per eval with no way to clear
        // them, so the traced run gives every frame a fresh simulator
        // and harvests its figures when the frame ends.
        match tracer.time("sim.build", || build_sim(input, b.netlist.clone(), b.frame)) {
            Ok(w) => {
                b.sim = w.sim;
                b.sink = w.sink;
                b.source = w.source;
                b.spare = w.spare;
                b.sim.set_telemetry(TelemetryLevel::Full);
            }
            Err(_) => ok = false,
        }
    }
    for _ in 0..input.lines {
        out.attempted += 1;
        let t0 = Instant::now();
        let r = b.sim.run(line_cycles);
        let t1 = Instant::now();
        tracer.record("sim.run", t0, t1);
        out.current.latencies_ns.push(ns_between(t0, t1));
        out.run_ns += ns_between(t0, t1);
        out.cycles += line_cycles;
        if r.is_err() {
            out.failed += 1;
            ok = false;
            break;
        }
        out.current.completed += 1;
    }
    out.attempted += 1;
    let t0 = Instant::now();
    let mut drained = 0;
    while ok && !frame_done(&b.sim, b.sink) && drained < DRAIN_BUDGET {
        let r0 = Instant::now();
        let r = b.sim.run(DRAIN_CHUNK);
        let r1 = Instant::now();
        tracer.record("sim.run", r0, r1);
        out.run_ns += ns_between(r0, r1);
        out.cycles += DRAIN_CHUNK;
        drained += DRAIN_CHUNK;
        ok = r.is_ok();
    }
    if tracer.on() {
        // Harvested before the reset below, whose settle is not part
        // of any timed `Simulator::run`.
        out.layer.absorb(&b.sim.stats(), out.rounds == 0);
    }
    if ok && frame_done(&b.sim, b.sink) {
        let frame = &b.sim.component::<VideoOut>(b.sink).expect("sink").frames()[0];
        if let Err(e) = checks::check_frame(&input.label(), frame, &input.golden[b.frame]) {
            out.mismatch.get_or_insert(e);
        }
    } else {
        ok = false;
    }
    match b.sim.component_mut::<VideoIn>(b.source) {
        Some(source) => std::mem::swap(source, &mut b.spare),
        None => ok = false,
    }
    b.frame = (b.frame + 1) % FRAMES;
    if b.sim.reset().is_err() {
        ok = false;
    }
    let t1 = Instant::now();
    out.current.latencies_ns.push(ns_between(t0, t1));
    if ok {
        out.current.completed += 1;
    } else {
        out.failed += 1;
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// Rounds per measurement window: about 1000 operations, so a
/// window's 99th percentile has ten samples above it.
pub const WINDOW_ROUNDS: u64 = 5;

/// The timed region: whole windows of [`WINDOW_ROUNDS`] rounds (one
/// frame through every configuration, in order) until `seconds` have
/// passed.
pub fn run(inputs: &[Input], built: &mut [Built], seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    loop {
        let window_start = Instant::now();
        for _ in 0..WINDOW_ROUNDS {
            for (input, b) in inputs.iter().zip(built.iter_mut()) {
                stream_frame(input, b, &mut out, tracer);
            }
            out.rounds += 1;
        }
        let w = std::mem::take(&mut out.current);
        out.windows
            .extend(w.finish(window_start.elapsed().as_secs_f64()));
        if start.elapsed().as_secs_f64() >= seconds {
            return out;
        }
    }
}

/// Simulator telemetry from a traced run, where every frame ran on a
/// fresh simulator at [`TelemetryLevel::Full`].
#[derive(Debug, Default, Clone, Copy)]
pub struct SimLayer {
    /// Eval time of the generated design (`dut`), nanoseconds.
    pub dut_eval_ns: u64,
    /// Eval time of the device models (video source and sink, SRAMs),
    /// nanoseconds.
    pub device_eval_ns: u64,
    /// Simulated cycles in the first round.
    pub cycles: u64,
    /// Settles in the first round.
    pub settles: u64,
    /// Component evaluations in the first round.
    pub evals: u64,
    /// Lowered word-level ops executed in the first round.
    pub ops_executed: u64,
    /// Event-driven fallback settles in the first round.
    pub fallback_settles: u64,
}

impl SimLayer {
    /// Adds one frame's telemetry. Counts are kept for the first round
    /// only; eval times are summed over every round.
    pub fn absorb(&mut self, stats: &SimStats, first_round: bool) {
        for c in &stats.components {
            if c.name == "dut" {
                self.dut_eval_ns += c.eval_ns;
            } else {
                self.device_eval_ns += c.eval_ns;
            }
        }
        if first_round {
            self.cycles += stats.steps;
            self.settles += stats.settles;
            self.evals += stats.total_evals();
            self.ops_executed += stats.ops_executed;
            self.fallback_settles += stats.fallback_settles;
        }
    }
}
