//! Scheduling-mode performance matrix, the start of the perf
//! trajectory record: times the blur-filter frame workload under the
//! full-sweep, event-driven and lowered schedulers, plus the
//! multi-design batch runner at 1 and N worker threads and the 64-way
//! bit-parallel [`LaneBatch`] engine, and writes the numbers to
//! `BENCH_sched_modes.json`.
//!
//! Every configuration is asserted bit-identical against the
//! full-sweep reference before any time is measured; every lane of
//! the packed run is asserted bit-identical against its own scalar
//! event-driven run.

use hdp_bench::{build_design_sim, run_design_batch, run_design_sim, DesignSimSpec};
use hdp_core::pixel::{Frame, PixelFormat};
use hdp_hdl::prim::{GateOp, Prim};
use hdp_hdl::{Entity, LogicVector, Netlist, PortDir};
use hdp_metagen::design::{DesignKind, DesignParams, Style};
use hdp_sim::{LaneBatch, NetlistComponent, SchedMode, SimStats, Simulator, TelemetryLevel, LANES};
use std::fmt::Write as _;
use std::time::Instant;

const WIDTH: usize = 32;
const HEIGHT: usize = 8;
const GAP: u32 = 1;
const BATCH: usize = 8;
const REPS: usize = 20;
/// Lane workload shape: a feed-forward add/xor pipeline.
const LANE_STAGES: usize = 24;
const LANE_WIDTH: usize = 16;
const LANE_CYCLES: usize = 256;

fn build(
    frame: &Frame,
    mode: SchedMode,
    incremental: bool,
) -> (hdp_sim::Simulator, hdp_sim::ComponentId) {
    let spec = DesignSimSpec::new(
        DesignKind::Blur,
        Style::Pattern,
        DesignParams::small(32),
        frame.pixels().to_vec(),
    )
    .gap(GAP)
    .out_len((WIDTH - 2) * (HEIGHT - 2))
    .mode(mode)
    .incremental(incremental);
    build_design_sim(&spec).expect("design builds")
}

fn budget(frame: &Frame) -> u64 {
    frame.pixels().len() as u64 * u64::from(GAP + 1) * 4 + 2000
}

/// The 64-way lane workload: `LANE_STAGES` Fibonacci-style add/xor
/// stages feeding a register, `dout` tapping the last combinational
/// net. Entirely feed-forward, so the lane engine packs it exactly.
fn lane_pipeline() -> Netlist {
    let width = LANE_WIDTH;
    let entity = Entity::builder("pipe")
        .port("din", PortDir::In, width)
        .unwrap()
        .port("dout", PortDir::Out, width)
        .unwrap()
        .build()
        .unwrap();
    let mut nl = Netlist::new(entity);
    let din = nl.add_net("din", width).unwrap();
    let q = nl.add_net("q", width).unwrap();
    let mut prev = din;
    let mut older = q;
    for i in 0..LANE_STAGES {
        let sum = nl.add_net(format!("s{i}"), width).unwrap();
        nl.add_cell(
            format!("u_add{i}"),
            Prim::Add { width },
            vec![prev, older],
            vec![sum],
        )
        .unwrap();
        let mix = nl.add_net(format!("x{i}"), width).unwrap();
        nl.add_cell(
            format!("u_xor{i}"),
            Prim::Gate {
                op: GateOp::Xor,
                width,
            },
            vec![sum, prev],
            vec![mix],
        )
        .unwrap();
        older = prev;
        prev = mix;
    }
    nl.add_cell(
        "u_reg",
        Prim::Reg {
            width,
            has_enable: false,
            reset_value: 0,
        },
        vec![prev],
        vec![q],
    )
    .unwrap();
    nl.bind_port("din", din).unwrap();
    nl.bind_port("dout", prev).unwrap();
    nl
}

/// One scalar event-driven run of the lane workload, returning the
/// settled `dout` trace.
fn scalar_lane_run(nl: &Netlist, stim: &[u64]) -> Vec<LogicVector> {
    let mut sim = Simulator::with_mode(SchedMode::EventDriven);
    let din = sim.add_signal("din", LANE_WIDTH).unwrap();
    let dout = sim.add_signal("dout", LANE_WIDTH).unwrap();
    let comp = NetlistComponent::new(
        "dut",
        nl.clone(),
        sim.bus(),
        &[("din", din), ("dout", dout)],
    )
    .unwrap();
    sim.add_component(comp);
    let mut trace = Vec::with_capacity(stim.len());
    for (c, &v) in stim.iter().enumerate() {
        sim.poke(din, v).unwrap();
        if c == 0 {
            sim.reset().unwrap();
        } else {
            sim.settle().unwrap();
        }
        trace.push(sim.peek(dout).unwrap());
        sim.step().unwrap();
    }
    trace
}

/// One packed run: all 64 stimuli advanced by the same settles and
/// ticks. Returns per-lane `dout` traces.
fn packed_lane_run(nl: &Netlist, stims: &[Vec<u64>]) -> Vec<Vec<LogicVector>> {
    let mut lanes = LaneBatch::new("lanes", nl).unwrap();
    lanes.reset();
    let cycles = stims[0].len();
    let mut traces = vec![Vec::with_capacity(cycles); stims.len()];
    for c in 0..cycles {
        for (k, stim) in stims.iter().enumerate() {
            lanes.poke("din", k, stim[c]).unwrap();
        }
        lanes.settle();
        for (k, t) in traces.iter_mut().enumerate() {
            t.push(lanes.peek("dout", k).unwrap());
        }
        lanes.tick().unwrap();
    }
    traces
}

/// Mean wall-clock milliseconds of `REPS` runs of `f`.
fn time_ms(mut f: impl FnMut()) -> f64 {
    // One warm-up run keeps first-touch page faults out of the mean.
    f();
    let start = Instant::now();
    for _ in 0..REPS {
        f();
    }
    start.elapsed().as_secs_f64() * 1000.0 / REPS as f64
}

fn main() {
    let frame = Frame::noise(WIDTH, HEIGHT, PixelFormat::Gray8, 11);
    let budget = budget(&frame);
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    // Always record a >=2-worker batch point, even on single-core
    // hosts (there it measures scheduling overhead rather than
    // speedup).
    let threads = host.clamp(2, 8);

    // Bit-identity gate: no timing without agreement.
    let reference = {
        let (mut sim, sink) = build(&frame, SchedMode::FullSweep, false);
        run_design_sim(&mut sim, sink, budget)
    };
    for (label, mode) in [
        ("event", SchedMode::EventDriven),
        ("lowered", SchedMode::Lowered),
    ] {
        let (mut sim, sink) = build(&frame, mode, true);
        assert_eq!(
            run_design_sim(&mut sim, sink, budget),
            reference,
            "{label} must match the full sweep bit for bit"
        );
    }

    println!("Scheduling-mode matrix — blur 32x8, gap {GAP} ({REPS} reps)");
    println!();
    // Timed runs stay at TelemetryLevel::Off (the zero-cost default);
    // a separate instrumented run per mode records the activity shape
    // behind each number.
    let mut single = Vec::new();
    let mut shapes: Vec<(&str, SimStats)> = Vec::new();
    for (label, mode, incremental) in [
        ("full_sweep", SchedMode::FullSweep, false),
        ("event_driven", SchedMode::EventDriven, true),
        ("lowered", SchedMode::Lowered, true),
    ] {
        let ms = time_ms(|| {
            let (mut sim, sink) = build(&frame, mode, incremental);
            std::hint::black_box(run_design_sim(&mut sim, sink, budget));
        });
        println!("  {label:<14} {ms:>8.3} ms/frame");
        single.push((label, ms));
        let (mut sim, sink) = build(&frame, mode, incremental);
        sim.set_telemetry(TelemetryLevel::Counters);
        std::hint::black_box(run_design_sim(&mut sim, sink, budget));
        shapes.push((label, sim.stats()));
    }

    // Batch: the frame-throughput workload. Built once per timing run
    // inside the closure so construction cost is paid equally.
    let batch_frames_1 = run_design_batch(
        (0..BATCH)
            .map(|_| build(&frame, SchedMode::EventDriven, true))
            .collect(),
        budget,
        1,
    );
    let batch_frames_n = run_design_batch(
        (0..BATCH)
            .map(|_| build(&frame, SchedMode::EventDriven, true))
            .collect(),
        budget,
        threads,
    );
    assert_eq!(
        batch_frames_1, batch_frames_n,
        "batch results must not depend on worker count"
    );
    println!();
    let mut batch = Vec::new();
    // Simulations are consumed by a batch run; rebuild per rep but
    // time only the run itself.
    for t in [1usize, threads] {
        let mut total = 0.0f64;
        {
            // Warm-up.
            let sims: Vec<_> = (0..BATCH)
                .map(|_| build(&frame, SchedMode::EventDriven, true))
                .collect();
            std::hint::black_box(run_design_batch(sims, budget, t));
        }
        for _ in 0..REPS {
            let sims: Vec<_> = (0..BATCH)
                .map(|_| build(&frame, SchedMode::EventDriven, true))
                .collect();
            let start = Instant::now();
            std::hint::black_box(run_design_batch(sims, budget, t));
            total += start.elapsed().as_secs_f64() * 1000.0;
        }
        let ms = total / REPS as f64;
        println!("  batch x{BATCH}, {t:>2} thread(s) {ms:>8.3} ms");
        batch.push((t, ms));
    }
    let speedup = batch[0].1 / batch[1].1;
    println!();
    if host == 1 {
        println!(
            "  batch thread-scaling skipped: single-core host (x{BATCH} on {} threads measured {speedup:.2}x, overhead only)",
            batch[1].0
        );
    } else {
        println!(
            "  batch speedup {speedup:.2}x on {} threads (event-driven baseline)",
            batch[1].0
        );
    }
    let event_ms = single
        .iter()
        .find(|(l, _)| *l == "event_driven")
        .expect("event timing recorded")
        .1;
    let lowered_ms = single
        .iter()
        .find(|(l, _)| *l == "lowered")
        .expect("lowered timing recorded")
        .1;
    let lowered_speedup = event_ms / lowered_ms;
    println!("  lowered speedup {lowered_speedup:.2}x vs event-driven (single sim, blur frame)");

    // 64-way lane engine: one packed run carries 64 independent
    // stimuli, refereed lane by lane against scalar event-driven runs
    // before any timing.
    let pipe = lane_pipeline();
    let mut stims: Vec<Vec<u64>> = Vec::with_capacity(LANES);
    let mut state = 0x243F_6A88_85A3_08D3u64;
    for _ in 0..LANES {
        let mut lane = Vec::with_capacity(LANE_CYCLES);
        for _ in 0..LANE_CYCLES {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            lane.push(state & ((1 << LANE_WIDTH) - 1));
        }
        stims.push(lane);
    }
    let packed_traces = packed_lane_run(&pipe, &stims);
    for (k, stim) in stims.iter().enumerate() {
        assert_eq!(
            packed_traces[k],
            scalar_lane_run(&pipe, stim),
            "lane {k} must match its scalar event-driven run bit for bit"
        );
    }
    let packed64_ms = time_ms(|| {
        std::hint::black_box(packed_lane_run(&pipe, &stims));
    });
    let scalar_event_ms = time_ms(|| {
        std::hint::black_box(scalar_lane_run(&pipe, &stims[0]));
    });
    let per_lane_ms = packed64_ms / LANES as f64;
    let lane64_speedup = scalar_event_ms / per_lane_ms;
    println!();
    println!(
        "  lane64 pipeline ({LANE_STAGES} stages x {LANE_WIDTH} bits, {LANE_CYCLES} cycles): \
         packed {packed64_ms:.3} ms for {LANES} lanes ({per_lane_ms:.4} ms/lane), \
         scalar event-driven {scalar_event_ms:.3} ms/run"
    );
    println!("  lane64 speedup {lane64_speedup:.2}x vs event-driven (per packed lane)");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"sched_modes\",");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"design\": \"blur\", \"width\": {WIDTH}, \"height\": {HEIGHT}, \"gap\": {GAP}, \"reps\": {REPS}}},"
    );
    json.push_str("  \"single_sim_ms_per_frame\": {\n");
    for (i, (label, ms)) in single.iter().enumerate() {
        let sep = if i + 1 == single.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{label}\": {ms:.4}{sep}");
    }
    json.push_str("  },\n");
    let _ = writeln!(
        json,
        "  \"batch\": {{\"designs\": {BATCH}, \"mode\": \"event_driven\","
    );
    for (i, (t, ms)) in batch.iter().enumerate() {
        let sep = if i + 1 == batch.len() { "" } else { "," };
        let _ = writeln!(json, "    \"threads_{t}_ms\": {ms:.4}{sep}");
    }
    json.push_str("  },\n");
    // Per-run scheduler shape from an instrumented (Counters) rerun of
    // each single-sim configuration: activity totals and fallbacks.
    json.push_str("  \"telemetry\": {\n");
    for (i, (label, stats)) in shapes.iter().enumerate() {
        let sep = if i + 1 == shapes.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    \"{label}\": {{\"evals\": {}, \"delta_passes\": {}, \"max_wake\": {}, \
             \"toggles\": {}, \"fallback_settles\": {}, \"lowered_settles\": {}, \
             \"ops_executed\": {}}}{sep}",
            stats.total_evals(),
            stats.passes,
            stats.max_wake,
            stats.total_toggles(),
            stats.fallback_settles,
            stats.lowered_settles,
            stats.ops_executed,
        );
    }
    json.push_str("  },\n");
    let _ = writeln!(
        json,
        "  \"lane64\": {{\"stages\": {LANE_STAGES}, \"width\": {LANE_WIDTH}, \
         \"cycles\": {LANE_CYCLES}, \"lanes\": {LANES}, \
         \"packed_ms\": {packed64_ms:.4}, \"per_lane_ms\": {per_lane_ms:.4}, \
         \"scalar_event_ms\": {scalar_event_ms:.4}}},"
    );
    // Scalar blur frame, one simulator: event-driven ms / lowered ms.
    let _ = writeln!(
        json,
        "  \"lowered_speedup_vs_event\": {lowered_speedup:.4},"
    );
    // Lane workload: scalar event-driven ms / (packed ms / 64 lanes).
    let _ = writeln!(json, "  \"lane64_speedup_vs_event\": {lane64_speedup:.4},");
    // A one-worker host cannot measure thread scaling; a sub-1.0
    // "speedup" there is scheduling overhead, not a regression.
    if host == 1 {
        let _ = writeln!(json, "  \"batch_speedup\": \"skipped_single_core\",");
    } else {
        let _ = writeln!(json, "  \"batch_speedup\": {speedup:.4},");
    }
    let _ = writeln!(json, "  \"batch_threads\": {threads},");
    let _ = writeln!(json, "  \"host_threads\": {host}");
    json.push_str("}\n");
    std::fs::write("BENCH_sched_modes.json", json).expect("write BENCH_sched_modes.json");
    println!("wrote BENCH_sched_modes.json");
}
