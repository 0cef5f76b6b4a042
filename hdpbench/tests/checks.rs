//! Every output check accepts the program's real output and rejects
//! the same output with one corruption: a flipped pixel, trace bit,
//! selection or counter.

use hdp_conform::wire::job_to_json;
use hdp_conform::{Case, Stimulus};
use hdp_metagen::design::{DesignKind, Style};
use hdp_metagen::sampler::sample_spec_in;
use hdp_service::{handle_line, ObsMode, Service};
use hdp_sim::devices::VideoOut;
use hdp_synth::{CharDb, SelectConstraints};
use hdpbench::checks::{self, StatsExpect};
use hdpbench::trace::Tracer;
use hdpbench::video;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Flips the first `0`/`1` character at or after `from`.
fn flip_bit_after(text: &str, from: usize) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let i = (from..bytes.len())
        .find(|&i| bytes[i] == b'0' || bytes[i] == b'1')
        .expect("a bit to flip");
    bytes[i] = if bytes[i] == b'0' { b'1' } else { b'0' };
    String::from_utf8(bytes).expect("ascii")
}

#[test]
fn frame_check_rejects_one_flipped_pixel() {
    let input = video::inputs(7)
        .into_iter()
        .find(|i| {
            i.kind == DesignKind::Blur && i.style == Style::Pattern && i.point.name == "small"
        })
        .expect("small blur configuration");
    let mut tracer = Tracer::new(false, Instant::now(), 0);
    let mut built = video::build(&input, &mut tracer).expect("builds");
    let budget = input.line_cycles() * (input.lines as u64 + 4);
    let mut ran = 0;
    while built
        .sim
        .component::<VideoOut>(built.sink)
        .unwrap()
        .frames()
        .is_empty()
    {
        assert!(ran < budget, "frame did not complete");
        built.sim.run(64).unwrap();
        ran += 64;
    }
    let frame = built
        .sim
        .component::<VideoOut>(built.sink)
        .unwrap()
        .frames()[0]
        .clone();
    checks::check_frame("blur", &frame, &input.golden[0]).unwrap();
    let mut bad = frame;
    bad[17] ^= 1;
    assert!(checks::check_frame("blur", &bad, &input.golden[0]).is_err());
}

#[test]
fn sram_design_streams_alternating_frames_and_rejects_a_stale_one() {
    let input = video::inputs(3)
        .into_iter()
        .find(|i| {
            i.kind == DesignKind::Saa2vga2 && i.style == Style::Pattern && i.point.name == "small"
        })
        .expect("small saa2vga 2 configuration");
    let mut tracer = Tracer::new(false, Instant::now(), 0);
    let mut built = [video::build(&input, &mut tracer).expect("builds")];
    // One window: several rounds, so each frame follows the other
    // through the same simulator and its SRAMs.
    let out = video::run(std::slice::from_ref(&input), &mut built, 0.0, &mut tracer);
    assert!(out.rounds >= 2);
    assert_eq!(out.failed, 0);
    assert_eq!(out.mismatch, None);
    // The previous frame's output left in memory is not the next one's.
    assert!(checks::check_frame("saa2vga 2", &input.golden[0], &input.golden[1]).is_err());
}

#[test]
fn table3_check_rejects_a_style_that_costs_more() {
    let inputs: Vec<_> = video::inputs(1)
        .into_iter()
        .filter(|i| i.point.name == "small" && i.kind == DesignKind::Saa2vga1)
        .collect();
    let mut tracer = Tracer::new(false, Instant::now(), 0);
    let built = video::setup(&inputs, &mut tracer).unwrap();
    video::check_table3(&inputs, &built).unwrap();
    let mut custom = built[1].report;
    custom.luts += 1;
    assert!(checks::check_pattern_equals_custom("saa2vga 1", &built[0].report, &custom).is_err());
}

#[test]
fn trace_checks_reject_one_flipped_bit() {
    let service = Service::with_obs(16, ObsMode::Sampled);
    let mut rng = StdRng::seed_from_u64(11);
    // One design from each of three families, the clock-domain
    // crossing queue among them.
    for family in [0, 6, 11] {
        let spec = sample_spec_in(&mut rng, family);
        let netlist = spec.instantiate().unwrap();
        let stimulus = Stimulus::sample(&netlist, 8, &mut rng);
        let line = job_to_json(&Case {
            spec,
            stimulus: stimulus.clone(),
        });
        let response = handle_line(&service, &line);
        let reference = checks::reference_trace(&netlist, &stimulus).unwrap();
        let vhdl = checks::vhdl_trace(&netlist, &stimulus).unwrap();
        checks::check_job_response(&response, &reference).unwrap();
        checks::check_job_response(&response, &vhdl).unwrap();
        let bad = flip_bit_after(&response, response.find("\"trace\"").unwrap());
        assert!(checks::check_job_response(&bad, &reference).is_err());
        assert!(checks::check_job_response(&bad, &vhdl).is_err());
    }
}

fn catalog() -> Arc<CharDb> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../chardb.json");
    Arc::new(CharDb::load(path).unwrap())
}

#[test]
fn select_check_rejects_another_selection() {
    let db = catalog();
    let service = Service::new(4);
    service.set_catalog(Arc::clone(&db));
    let c = SelectConstraints {
        kind: "queue".into(),
        min_data_width: 4,
        ..SelectConstraints::default()
    };
    let line = format!("{{\"verb\":\"select\",\"constraints\":{}}}", c.to_json());
    let response = handle_line(&service, &line);
    checks::check_select_response(&response, &db, &c).unwrap();
    let chosen = checks::brute_force_select(&db, &c).unwrap();
    let other = db
        .records()
        .iter()
        .map(hdp_synth::CharRecord::key)
        .find(|k| *k != chosen)
        .unwrap();
    let bad = response.replace(&chosen, &other);
    assert!(checks::check_select_response(&bad, &db, &c).is_err());
    // A request nothing satisfies must come back as "no target".
    let none = SelectConstraints {
        kind: "queue".into(),
        min_clk_khz: u64::MAX,
        ..SelectConstraints::default()
    };
    let line = format!("{{\"verb\":\"select\",\"constraints\":{}}}", none.to_json());
    checks::check_select_response(&handle_line(&service, &line), &db, &none).unwrap();
    assert!(checks::check_select_response(&bad, &db, &none).is_err());
}

#[test]
fn stats_check_rejects_a_miscounted_snapshot() {
    let service = Service::with_obs(16, ObsMode::Sampled);
    let mut rng = StdRng::seed_from_u64(5);
    let spec = sample_spec_in(&mut rng, 5);
    let netlist = spec.instantiate().unwrap();
    let line = job_to_json(&Case {
        stimulus: Stimulus::sample(&netlist, 6, &mut rng),
        spec,
    });
    for _ in 0..3 {
        let _ = handle_line(&service, &line);
    }
    let snapshot = handle_line(&service, "{\"verb\":\"stats\"}");
    assert!(checks::snapshot_problems(&snapshot).is_empty());
    let want = StatsExpect {
        jobs: 3,
        selects: 0,
        stats: 1,
        misses: 1,
    };
    let snap = checks::parse_snapshot(&snapshot).unwrap();
    checks::check_stats(&snap, &want).unwrap();
    assert!(checks::check_stats(&snap, &StatsExpect { jobs: 4, ..want }).is_err());
    assert!(checks::check_stats(&snap, &StatsExpect { misses: 0, ..want }).is_err());
}
