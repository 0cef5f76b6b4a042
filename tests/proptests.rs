//! Property-based tests over the DESIGN.md invariants.
//!
//! Hardware components are driven with arbitrary operation
//! interleavings and compared against the behavioural golden models;
//! structural transformations (wrapper dissolution, width adaptation)
//! are checked for behaviour preservation.

mod common;

use common::{build_transform_pipeline, queue_op, QueueOp};
use hdp::hdl::LogicVector;
use hdp::pattern::golden;
use hdp::pattern::hw::{ReadBufferFifo, StackLifo, VectorBram};
use hdp::pattern::iface::{IfaceBundle, IterIface, RandomIterIface, StreamIface};
use hdp::pattern::pixel::{join_pixel, split_pixel, PixelFormat};
use hdp::sim::devices::{FifoCore, LifoCore, VideoOut};
use hdp::sim::vcd::VcdRecorder;
use hdp::sim::{SchedMode, SignalId, Simulator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The FIFO device implements exact queue semantics under
    /// arbitrary interleavings (overflow/underflow attempts are
    /// filtered by the testbench, as the generated guards would).
    #[test]
    fn fifo_core_matches_golden_queue(ops in prop::collection::vec(queue_op(), 1..120)) {
        let depth = 8;
        let mut sim = Simulator::new();
        let push = sim.add_signal("push", 1).unwrap();
        let pop = sim.add_signal("pop", 1).unwrap();
        let wdata = sim.add_signal("wdata", 8).unwrap();
        let rdata = sim.add_signal("rdata", 8).unwrap();
        let empty = sim.add_signal("empty", 1).unwrap();
        let full = sim.add_signal("full", 1).unwrap();
        sim.add_component(FifoCore::new("dut", depth, 8, push, pop, wdata, rdata, empty, full));
        for s in [push, pop, wdata] { sim.poke(s, 0).unwrap(); }
        sim.reset().unwrap();
        let mut model = golden::Queue::new(depth);
        for op in ops {
            match op {
                QueueOp::Push(v) => {
                    if model.is_full() { continue; }
                    model.push(u64::from(v)).unwrap();
                    sim.poke(push, 1).unwrap();
                    sim.poke(wdata, u64::from(v)).unwrap();
                    sim.step().unwrap();
                    sim.poke(push, 0).unwrap();
                }
                QueueOp::Pop => {
                    if model.is_empty() { continue; }
                    sim.settle().unwrap();
                    let head = sim.peek(rdata).unwrap().to_u64();
                    prop_assert_eq!(head, model.front());
                    let _ = model.pop();
                    sim.poke(pop, 1).unwrap();
                    sim.step().unwrap();
                    sim.poke(pop, 0).unwrap();
                }
            }
            sim.settle().unwrap();
            prop_assert_eq!(
                sim.peek(empty).unwrap().to_u64(),
                Some(u64::from(model.is_empty()))
            );
            prop_assert_eq!(
                sim.peek(full).unwrap().to_u64(),
                Some(u64::from(model.is_full()))
            );
        }
    }

    /// The LIFO device implements exact stack semantics.
    #[test]
    fn lifo_core_matches_golden_stack(ops in prop::collection::vec(queue_op(), 1..120)) {
        let depth = 8;
        let mut sim = Simulator::new();
        let push = sim.add_signal("push", 1).unwrap();
        let pop = sim.add_signal("pop", 1).unwrap();
        let wdata = sim.add_signal("wdata", 8).unwrap();
        let rdata = sim.add_signal("rdata", 8).unwrap();
        let empty = sim.add_signal("empty", 1).unwrap();
        let full = sim.add_signal("full", 1).unwrap();
        sim.add_component(LifoCore::new("dut", depth, 8, push, pop, wdata, rdata, empty, full));
        for s in [push, pop, wdata] { sim.poke(s, 0).unwrap(); }
        sim.reset().unwrap();
        let mut model = golden::Stack::new(depth);
        for op in ops {
            match op {
                QueueOp::Push(v) => {
                    if model.is_full() { continue; }
                    model.push(u64::from(v)).unwrap();
                    sim.poke(push, 1).unwrap();
                    sim.poke(wdata, u64::from(v)).unwrap();
                    sim.step().unwrap();
                    sim.poke(push, 0).unwrap();
                }
                QueueOp::Pop => {
                    if model.is_empty() { continue; }
                    sim.settle().unwrap();
                    prop_assert_eq!(sim.peek(rdata).unwrap().to_u64(), model.top());
                    let _ = model.pop();
                    sim.poke(pop, 1).unwrap();
                    sim.step().unwrap();
                    sim.poke(pop, 0).unwrap();
                }
            }
        }
    }

    /// Pixel split/join round-trips for every legal bus ratio.
    #[test]
    fn split_join_round_trip(pixel in 0u64..0x1_000_000, bus in prop::sample::select(vec![1usize, 2, 3, 4, 6, 8, 12, 24])) {
        let factor = 24 / bus;
        let words = split_pixel(pixel, bus, factor);
        prop_assert_eq!(words.len(), factor);
        prop_assert!(words.iter().all(|w| *w < (1 << bus)));
        prop_assert_eq!(join_pixel(&words, bus), pixel);
    }

    /// The FIFO-backed read-buffer container agrees with the golden
    /// queue when driven through the iterator interface with random
    /// interleavings of stream pushes and iterator reads.
    #[test]
    fn read_buffer_matches_golden(ops in prop::collection::vec(queue_op(), 1..100)) {
        let depth = 8;
        let mut sim = Simulator::new();
        let up = StreamIface::alloc(&mut sim, "up", 8).unwrap();
        let it = IterIface::alloc(&mut sim, "it", 8).unwrap();
        sim.add_component(ReadBufferFifo::new("dut", depth, 8, up, it));
        for s in [up.valid, up.data, it.read, it.inc, it.write, it.wdata] {
            sim.poke(s, 0).unwrap();
        }
        sim.reset().unwrap();
        let mut model = golden::Queue::new(depth);
        for op in ops {
            match op {
                QueueOp::Push(v) => {
                    if model.is_full() { continue; }
                    model.push(u64::from(v)).unwrap();
                    sim.poke(up.valid, 1).unwrap();
                    sim.poke(up.data, u64::from(v)).unwrap();
                    sim.step().unwrap();
                    sim.poke(up.valid, 0).unwrap();
                }
                QueueOp::Pop => {
                    if model.is_empty() { continue; }
                    sim.poke(it.read, 1).unwrap();
                    sim.poke(it.inc, 1).unwrap();
                    sim.settle().unwrap();
                    prop_assert_eq!(sim.peek(it.done).unwrap().to_u64(), Some(1));
                    prop_assert_eq!(sim.peek(it.rdata).unwrap().to_u64(), model.front());
                    let _ = model.pop();
                    sim.step().unwrap();
                    sim.poke(it.read, 0).unwrap();
                    sim.poke(it.inc, 0).unwrap();
                }
            }
            sim.settle().unwrap();
            prop_assert_eq!(
                sim.peek(it.can_read).unwrap().to_u64(),
                Some(u64::from(!model.is_empty()))
            );
        }
    }

    /// The LIFO-backed stack container agrees with the golden stack
    /// through the push/pop iterator roles.
    #[test]
    fn stack_hw_matches_golden(ops in prop::collection::vec(queue_op(), 1..80)) {
        let depth = 8;
        let mut sim = Simulator::new();
        let it = IterIface::alloc(&mut sim, "it", 8).unwrap();
        let dec = sim.add_signal("it_dec", 1).unwrap();
        sim.add_component(StackLifo::new("dut", depth, 8, it, dec));
        for s in [it.read, it.inc, it.write, it.wdata, dec] {
            sim.poke(s, 0).unwrap();
        }
        sim.reset().unwrap();
        let mut model = golden::Stack::new(depth);
        for op in ops {
            match op {
                QueueOp::Push(v) => {
                    if model.is_full() { continue; }
                    model.push(u64::from(v)).unwrap();
                    sim.poke(it.write, 1).unwrap();
                    sim.poke(it.inc, 1).unwrap();
                    sim.poke(it.wdata, u64::from(v)).unwrap();
                    sim.step().unwrap();
                    sim.poke(it.write, 0).unwrap();
                    sim.poke(it.inc, 0).unwrap();
                }
                QueueOp::Pop => {
                    if model.is_empty() { continue; }
                    sim.poke(it.read, 1).unwrap();
                    sim.poke(dec, 1).unwrap();
                    sim.settle().unwrap();
                    prop_assert_eq!(sim.peek(it.rdata).unwrap().to_u64(), model.top());
                    let _ = model.pop();
                    sim.step().unwrap();
                    sim.poke(it.read, 0).unwrap();
                    sim.poke(dec, 0).unwrap();
                }
            }
        }
    }

    /// The BRAM-backed vector agrees with the golden vector cursor
    /// semantics under random index/read/write/inc/dec sequences.
    #[test]
    fn vector_hw_matches_golden(ops in prop::collection::vec(0u8..5, 1..60), values in prop::collection::vec(any::<u8>(), 60), positions in prop::collection::vec(0usize..8, 60)) {
        let capacity = 8;
        let mut sim = Simulator::new();
        let it = RandomIterIface::alloc(&mut sim, "it", 8, 8).unwrap();
        sim.add_component(VectorBram::new("dut", capacity, 8, it));
        for s in [it.seq.read, it.seq.inc, it.seq.write, it.seq.wdata, it.dec, it.index, it.pos] {
            sim.poke(s, 0).unwrap();
        }
        sim.reset().unwrap();
        let mut model = golden::Vector::new(capacity);
        let mut written = vec![false; capacity];
        let run_op = |sim: &mut Simulator, strobes: &[SignalId]| {
            for &s in strobes { sim.poke(s, 1).unwrap(); }
            for _ in 0..10 {
                sim.step().unwrap();
                if sim.peek(it.seq.done).unwrap().to_u64() == Some(1) {
                    let v = sim.peek(it.seq.rdata).unwrap().to_u64();
                    for &s in strobes { sim.poke(s, 0).unwrap(); }
                    sim.step().unwrap();
                    return v;
                }
            }
            panic!("op did not complete");
        };
        for (i, op) in ops.into_iter().enumerate() {
            let v = u64::from(values[i]);
            let p = positions[i];
            match op {
                0 => {
                    // index
                    sim.poke(it.pos, p as u64).unwrap();
                    run_op(&mut sim, &[it.index]);
                    model.index(p).unwrap();
                }
                1 => {
                    // write
                    sim.poke(it.seq.wdata, v).unwrap();
                    run_op(&mut sim, &[it.seq.write]);
                    written[model.cursor()] = true;
                    model.write(v);
                }
                2 => {
                    // read (only at initialised positions)
                    if !written[model.cursor()] { continue; }
                    let got = run_op(&mut sim, &[it.seq.read]);
                    prop_assert_eq!(got, model.read());
                }
                3 => {
                    // inc: bare movement, no done pulse — just step.
                    sim.poke(it.seq.inc, 1).unwrap();
                    sim.step().unwrap();
                    sim.poke(it.seq.inc, 0).unwrap();
                    model.inc();
                }
                _ => {
                    // dec
                    sim.poke(it.dec, 1).unwrap();
                    sim.step().unwrap();
                    sim.poke(it.dec, 0).unwrap();
                    model.dec();
                }
            }
        }
    }

    /// Wrapper dissolution never changes simulated behaviour: a
    /// random arithmetic pipeline wrapped in buffers computes the
    /// same outputs before and after optimization.
    #[test]
    fn dissolution_preserves_behaviour(inputs in prop::collection::vec(0u64..256, 1..10)) {
        use hdp::hdl::prim::Prim;
        use hdp::hdl::{Entity, Netlist, PortDir};
        use hdp::sim::NetlistComponent;
        let entity = Entity::builder("p")
            .port("a", PortDir::In, 8).unwrap()
            .port("y", PortDir::Out, 8).unwrap()
            .build().unwrap();
        let mut nl = Netlist::new(entity);
        let a = nl.add_net("a", 8).unwrap();
        let b1 = nl.add_net("b1", 8).unwrap();
        let m = nl.add_net("m", 8).unwrap();
        let b2 = nl.add_net("b2", 8).unwrap();
        let n2 = nl.add_net("n2", 8).unwrap();
        let y = nl.add_net("y", 8).unwrap();
        nl.add_cell("w1", Prim::Buf { width: 8 }, vec![a], vec![b1]).unwrap();
        nl.add_cell("u1", Prim::Inc { width: 8 }, vec![b1], vec![m]).unwrap();
        nl.add_cell("w2", Prim::Buf { width: 8 }, vec![m], vec![b2]).unwrap();
        nl.add_cell("u2", Prim::Not { width: 8 }, vec![b2], vec![n2]).unwrap();
        nl.add_cell("w3", Prim::Buf { width: 8 }, vec![n2], vec![y]).unwrap();
        nl.bind_port("a", a).unwrap();
        nl.bind_port("y", y).unwrap();
        let optimized = hdp::synth::dissolve_wrappers(&nl).unwrap();
        for netlist in [nl, optimized] {
            let mut sim = Simulator::new();
            let a_s = sim.add_signal("a", 8).unwrap();
            let y_s = sim.add_signal("y", 8).unwrap();
            let dut = NetlistComponent::new("dut", netlist, sim.bus(), &[("a", a_s), ("y", y_s)]).unwrap();
            sim.add_component(dut);
            for &v in &inputs {
                sim.poke(a_s, v).unwrap();
                sim.settle().unwrap();
                prop_assert_eq!(
                    sim.peek(y_s).unwrap().to_u64(),
                    Some(!(v.wrapping_add(1)) & 0xFF)
                );
            }
        }
    }

    /// IEEE 1164 bus resolution is commutative and associative over
    /// whole vectors, with `Z` as the identity — the algebra the
    /// tri-state buses rely on.
    #[test]
    fn bus_resolution_algebra(a in "[01XZ]{8}", b in "[01XZ]{8}", c in "[01XZ]{8}") {
        use hdp::hdl::LogicVector;
        let va = LogicVector::parse(&a).unwrap();
        let vb = LogicVector::parse(&b).unwrap();
        let vc = LogicVector::parse(&c).unwrap();
        let z = LogicVector::high_z(8).unwrap();
        // Identity.
        prop_assert_eq!(va.resolve(&z).unwrap(), va);
        prop_assert_eq!(z.resolve(&va).unwrap(), va);
        // Commutativity.
        prop_assert_eq!(va.resolve(&vb).unwrap(), vb.resolve(&va).unwrap());
        // Associativity.
        let left = va.resolve(&vb).unwrap().resolve(&vc).unwrap();
        let right = va.resolve(&vb.resolve(&vc).unwrap()).unwrap();
        prop_assert_eq!(left, right);
        // Idempotence.
        prop_assert_eq!(va.resolve(&va).unwrap(), va);
    }

    /// Slicing then concatenating reconstructs the vector for every
    /// split point.
    #[test]
    fn slice_concat_round_trip(value in any::<u64>(), split in 1usize..16, text in "[01XZ]{16}") {
        use hdp::hdl::LogicVector;
        let v = LogicVector::from_u64(value & 0xFFFF, 16).unwrap();
        let lo = v.slice(0, split).unwrap();
        let hi = v.slice(split, 16 - split).unwrap();
        prop_assert_eq!(hi.concat(&lo).unwrap(), v);
        // Also with undefined bits.
        let vx = LogicVector::parse(&text).unwrap();
        let lo = vx.slice(0, split).unwrap();
        let hi = vx.slice(split, 16 - split).unwrap();
        prop_assert_eq!(hi.concat(&lo).unwrap(), vx);
    }

    /// The event-driven scheduler is bit-identical to the retained
    /// full-sweep reference on a complete randomized pipeline: same
    /// per-signal waveforms (VCD), same delivered frames.
    #[test]
    fn event_scheduler_matches_sweep_on_pipeline(
        pixels in prop::collection::vec(0u64..256, 1..32),
        gap in 0u32..3,
        op in prop::sample::select(vec![
            golden::PixelOp::Identity,
            golden::PixelOp::Invert,
            golden::PixelOp::Threshold(128),
        ]),
    ) {
        let run = |mode: SchedMode| -> (String, Vec<Vec<u64>>) {
            let n = pixels.len();
            let mut sim = Simulator::new();
            sim.set_mode(mode);
            let p = build_transform_pipeline(&mut sim, "", pixels.clone(), gap, op);
            let mut watched = p.vin.signal_ids();
            watched.extend(p.it_in.signal_ids());
            watched.extend(p.it_out.signal_ids());
            watched.extend(p.vout.signal_ids());
            let rec = sim.add_component(VcdRecorder::new("vcd", watched));
            sim.reset().unwrap();
            sim.run((gap as u64 + 4) * n as u64 + 30).unwrap();
            let vcd = sim.component::<VcdRecorder>(rec).unwrap().render(sim.bus());
            let frames = sim.component::<VideoOut>(p.sink).unwrap().frames().to_vec();
            (vcd, frames)
        };
        let (event_vcd, event_frames) = run(SchedMode::EventDriven);
        let (sweep_vcd, sweep_frames) = run(SchedMode::FullSweep);
        prop_assert_eq!(&event_frames, &sweep_frames);
        prop_assert_eq!(&event_vcd, &sweep_vcd);
        // The lowered rank walk must reproduce the same waveforms and
        // frames bit for bit.
        let (lowered_vcd, lowered_frames) = run(SchedMode::Lowered);
        prop_assert_eq!(&lowered_frames, &event_frames);
        prop_assert_eq!(&lowered_vcd, &event_vcd);
    }

    /// The scheduler modes also agree cycle by cycle on a random
    /// container driven through its iterator: every observable signal
    /// settles to the same value after every step.
    #[test]
    fn event_scheduler_matches_sweep_on_container_ops(
        ops in prop::collection::vec(queue_op(), 1..60),
        use_stack in any::<bool>(),
    ) {
        let depth = 4;
        let run = |mode: SchedMode| -> Vec<Vec<LogicVector>> {
            let mut sim = Simulator::new();
            sim.set_mode(mode);
            let it = IterIface::alloc(&mut sim, "it", 8).unwrap();
            let dec = sim.add_signal("it_dec", 1).unwrap();
            let up = StreamIface::alloc(&mut sim, "up", 8).unwrap();
            if use_stack {
                sim.add_component(StackLifo::new("dut", depth, 8, it, dec));
            } else {
                sim.add_component(ReadBufferFifo::new("dut", depth, 8, up, it));
            }
            for s in [it.read, it.inc, it.write, it.wdata, dec, up.valid, up.data] {
                sim.poke(s, 0).unwrap();
            }
            sim.reset().unwrap();
            let mut watched = it.signal_ids();
            watched.push(dec);
            watched.extend(up.signal_ids());
            let mut trace = Vec::new();
            let mut filled = 0usize;
            for &op in &ops {
                match op {
                    QueueOp::Push(v) => {
                        if filled == depth { continue; }
                        filled += 1;
                        if use_stack {
                            sim.poke(it.write, 1).unwrap();
                            sim.poke(it.inc, 1).unwrap();
                            sim.poke(it.wdata, u64::from(v)).unwrap();
                            sim.step().unwrap();
                            sim.poke(it.write, 0).unwrap();
                            sim.poke(it.inc, 0).unwrap();
                        } else {
                            sim.poke(up.valid, 1).unwrap();
                            sim.poke(up.data, u64::from(v)).unwrap();
                            sim.step().unwrap();
                            sim.poke(up.valid, 0).unwrap();
                        }
                    }
                    QueueOp::Pop => {
                        if filled == 0 { continue; }
                        filled -= 1;
                        sim.poke(it.read, 1).unwrap();
                        if use_stack {
                            sim.poke(dec, 1).unwrap();
                        } else {
                            sim.poke(it.inc, 1).unwrap();
                        }
                        sim.step().unwrap();
                        sim.poke(it.read, 0).unwrap();
                        sim.poke(dec, 0).unwrap();
                        sim.poke(it.inc, 0).unwrap();
                    }
                }
                sim.settle().unwrap();
                trace.push(
                    watched.iter().map(|&s| sim.peek(s).unwrap()).collect::<Vec<_>>(),
                );
            }
            trace
        };
        let reference = run(SchedMode::EventDriven);
        prop_assert_eq!(&run(SchedMode::FullSweep), &reference);
        prop_assert_eq!(&run(SchedMode::Lowered), &reference);
    }

    /// Several independent randomized pipelines in ONE simulator:
    /// disjoint connectivity that the lowered walk levelizes as one
    /// schedule. Frames and waveforms must match the delta-cycle
    /// schedulers bit for bit.
    #[test]
    fn lowered_scheduler_matches_on_multi_pipeline(
        pixels in prop::collection::vec(0u64..256, 1..16),
        gap in 0u32..2,
        copies in 2usize..4,
        ops in prop::collection::vec(prop::sample::select(vec![
            golden::PixelOp::Identity,
            golden::PixelOp::Invert,
            golden::PixelOp::Threshold(128),
        ]), 3),
    ) {
        let run = |mode: SchedMode| -> (String, Vec<Vec<Vec<u64>>>) {
            let n = pixels.len();
            let mut sim = Simulator::new();
            sim.set_mode(mode);
            let mut sinks = Vec::new();
            let mut watched = Vec::new();
            for k in 0..copies {
                let p = build_transform_pipeline(
                    &mut sim, &k.to_string(), pixels.clone(), gap, ops[k % ops.len()],
                );
                sinks.push(p.sink);
                watched.extend(p.vin.signal_ids());
                watched.extend(p.it_out.signal_ids());
                watched.extend(p.vout.signal_ids());
            }
            let rec = sim.add_component(VcdRecorder::new("vcd", watched));
            sim.reset().unwrap();
            sim.run((gap as u64 + 4) * n as u64 + 30).unwrap();
            let vcd = sim.component::<VcdRecorder>(rec).unwrap().render(sim.bus());
            let frames = sinks
                .iter()
                .map(|&s| sim.component::<VideoOut>(s).unwrap().frames().to_vec())
                .collect();
            (vcd, frames)
        };
        let (event_vcd, event_frames) = run(SchedMode::EventDriven);
        let (sweep_vcd, sweep_frames) = run(SchedMode::FullSweep);
        prop_assert_eq!(&event_frames, &sweep_frames);
        prop_assert_eq!(&event_vcd, &sweep_vcd);
        let (lowered_vcd, lowered_frames) = run(SchedMode::Lowered);
        prop_assert_eq!(&lowered_frames, &event_frames);
        prop_assert_eq!(&lowered_vcd, &event_vcd);
    }

    /// Telemetry invariants on the multi-pipeline family: settled
    /// per-signal toggle counts are identical between the event-driven
    /// scheduler and the full sweep (both produce bit-identical
    /// waveforms), the sweep's eval counts upper-bound the event
    /// scheduler's, and `TelemetryLevel::Off` leaves stats completely
    /// empty.
    #[test]
    fn telemetry_invariants_on_multi_pipeline(
        pixels in prop::collection::vec(0u64..256, 1..8),
        gap in 0u32..2,
        copies in 2usize..4,
    ) {
        use hdp::sim::{SimStats, TelemetryLevel};
        let run = |mode: SchedMode, level: TelemetryLevel| -> SimStats {
            let n = pixels.len();
            let mut sim = Simulator::new();
            sim.set_mode(mode);
            sim.set_telemetry(level);
            for k in 0..copies {
                build_transform_pipeline(
                    &mut sim, &k.to_string(), pixels.clone(), gap, golden::PixelOp::Invert,
                );
            }
            sim.reset().unwrap();
            sim.run((gap as u64 + 4) * n as u64 + 10).unwrap();
            sim.stats()
        };
        let reference = run(SchedMode::EventDriven, TelemetryLevel::Counters);
        prop_assert!(reference.total_evals() > 0);
        let sweep = run(SchedMode::FullSweep, TelemetryLevel::Counters);
        prop_assert_eq!(sweep.total_toggles(), reference.total_toggles());
        for (s, rs) in sweep.signals.iter().zip(&reference.signals) {
            prop_assert_eq!(s.toggles, rs.toggles, "signal {} (sweep)", s.name);
        }
        prop_assert!(sweep.total_evals() >= reference.total_evals());
        let off = run(SchedMode::EventDriven, TelemetryLevel::Off);
        prop_assert!(off.is_empty());
        prop_assert_eq!(off, SimStats::default());
    }

    /// Pixel operations stay in range for every format.
    #[test]
    fn pixel_ops_stay_in_range(p in 0u64..0x1_000_000, t in 0u64..256, mul in 1u64..8, shift in 0u32..4) {
        for format in [PixelFormat::Gray8, PixelFormat::Rgb24] {
            let p = p & format.max_value();
            for op in [
                golden::PixelOp::Identity,
                golden::PixelOp::Invert,
                golden::PixelOp::Threshold(t),
                golden::PixelOp::Gain { mul, shift },
            ] {
                let out = op.apply(p, format);
                prop_assert!(out <= format.max_value(), "{op:?} {format} {p:#x} -> {out:#x}");
            }
        }
    }
}
