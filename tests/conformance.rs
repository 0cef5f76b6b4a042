//! Fixed-seed differential conformance sweep.
//!
//! Samples 200 designs from the metagen design space — including the
//! multi-clock `async_fifo` family — and demands that all five
//! oracles — three simulator scheduling modes, the levelized netlist
//! path and the VHDL-text interpreter — agree bit-for-bit on every
//! output, every cycle. This is the committed, deterministic slice of
//! what the `conform` fuzz binary explores with arbitrary seeds.

use hdp::conform::{check, shrink, Case, Stimulus};
use hdp::metagen::sampler::{sample_spec, DesignSpec, RATIOS};
use hdp::metagen::OpSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

const SEED: u64 = 0xC0F0;
const COUNT: usize = 200;
const CYCLES: usize = 10;

#[test]
fn two_hundred_sampled_designs_conform_across_all_oracles() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut kinds = BTreeSet::new();
    let mut targets = BTreeSet::new();
    let mut failures = Vec::new();
    for index in 0..COUNT {
        let spec = sample_spec(&mut rng);
        kinds.insert(spec.kind().to_owned());
        targets.insert(spec.target().to_owned());
        let label = spec.label();
        let netlist = spec
            .instantiate()
            .unwrap_or_else(|e| panic!("design #{index} ({label}) failed to generate: {e}"));
        let stimulus = Stimulus::sample(&netlist, CYCLES, &mut rng);
        if let Some(divergence) = check(&netlist, &stimulus) {
            // Shrink before reporting so the assertion message is a
            // ready-made minimal reproducer.
            let (minimal, d) = shrink(&Case { spec, stimulus });
            let d = d.expect("diverging case still diverges after shrinking");
            failures.push(format!(
                "design #{index} ({label}), shrunk to {} over {} cycle(s): {d} (original: {divergence})",
                minimal.spec.label(),
                minimal.stimulus.cycles.len(),
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {COUNT} designs diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
    // The fixed seed must exercise the whole design space: every
    // container kind and every physical target goes through every
    // oracle, including the VHDL interpreter.
    let expect = |label: &str, set: &BTreeSet<String>, want: &[&str]| {
        for item in want {
            assert!(
                set.contains(*item),
                "{label} `{item}` never sampled: {set:?}"
            );
        }
    };
    expect(
        "kind",
        &kinds,
        &[
            "read_buffer",
            "write_buffer",
            "stack",
            "queue",
            "vector",
            "assoc_array",
            "iterator",
        ],
    );
    expect(
        "target",
        &targets,
        &[
            "fifo_core",
            "lifo_core",
            "sram",
            "block_ram",
            "registers",
            "async_fifo",
        ],
    );
}

/// Every `wr:rd` period ratio the sampler draws, at two depths, must
/// conform across the full five-oracle stack: the deterministic
/// multi-domain interleaving has to come out bit-identical whether
/// the ticks are dispatched by the full sweep, the event queue, the
/// lowered op streams (which fall back to interpreted ticks on
/// partial firings), the levelized path or the VHDL-text
/// interpreter's per-rail clock stepping.
#[test]
fn async_fifo_conforms_across_all_period_ratios() {
    let mut rng = StdRng::seed_from_u64(0xCDC);
    let mut failures = Vec::new();
    for &(wr_period, rd_period) in &RATIOS {
        for depth in [2usize, 4] {
            let spec = DesignSpec {
                family: 11,
                data_width: 4,
                depth,
                addr_width: 8,
                key_width: 8,
                wide: 0,
                write_side: false,
                ops: OpSet::new(),
                wr_period,
                rd_period,
            };
            let label = spec.label();
            let netlist = spec
                .instantiate()
                .unwrap_or_else(|e| panic!("{label} failed to generate: {e}"));
            // 18 base steps cover three full lcm(2,3)=6 interleaving
            // periods of the largest ratio in the table.
            let stimulus = Stimulus::sample(&netlist, 18, &mut rng);
            if let Some(d) = check(&netlist, &stimulus) {
                failures.push(format!("{label}: {d}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} async_fifo points diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn committed_reproducers_replay_and_still_parse() {
    // Divergences found by the fuzzer are committed under
    // tests/repros/ and must keep parsing; a reproducer that no
    // longer diverges marks a fixed bug and should be deleted.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/repros");
    if !dir.is_dir() {
        return; // No outstanding divergences.
    }
    for entry in std::fs::read_dir(&dir).expect("readable repros dir") {
        let path = entry.expect("readable entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable reproducer");
        let divergence = hdp::conform::wire::replay(&text)
            .unwrap_or_else(|e| panic!("{}: malformed reproducer: {e}", path.display()));
        assert!(
            divergence.is_some(),
            "{}: no longer diverges — the bug it pinned is fixed; delete it",
            path.display()
        );
    }
}
