//! Output checks. Each compares what the timed path produced against
//! a computation made apart from it: the `hdp-core` golden models, the
//! VHDL-text interpreter or the full-sweep reference scheduler, a
//! brute-force catalog scan, and counter reconciliation.

use hdp_conform::{Json, Stimulus};
use hdp_hdl::interp::VhdlInterp;
use hdp_hdl::{LogicVector, Netlist, PortDir};
use hdp_service::{validate_snapshot, Counter, MetricsSnapshot};
use hdp_sim::{NetlistComponent, SchedMode, SignalId, Simulator};
use hdp_synth::{CharDb, CharRecord, SelectConstraints, SynthReport};

/// Compares a streamed frame with its golden frame.
///
/// # Errors
///
/// The first differing pixel, or a length mismatch.
pub fn check_frame(label: &str, got: &[u64], want: &[u64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{label}: frame has {} pixels, golden model {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(g, w)| g != w) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{label}: pixel {i} is {:#x}, golden model {:#x}",
            got[i], want[i]
        )),
    }
}

/// The paper's Table 3 property: the pattern-based and custom styles
/// of a design cost the same flip-flops, LUTs and block RAMs.
///
/// # Errors
///
/// Names the first resource that differs.
pub fn check_pattern_equals_custom(
    label: &str,
    pattern: &SynthReport,
    custom: &SynthReport,
) -> Result<(), String> {
    for (what, p, c) in [
        ("FFs", pattern.ffs, custom.ffs),
        ("LUTs", pattern.luts, custom.luts),
        ("block RAMs", pattern.brams, custom.brams),
    ] {
        if p != c {
            return Err(format!("{label}: pattern {p} {what}, custom {c} {what}"));
        }
    }
    Ok(())
}

fn mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// The output trace of a job computed by the VHDL-text interpreter:
/// the emitted VHDL of `netlist`, driven with the service's protocol
/// (poke, reset on cycle 0 / settle after, sample outputs, clock
/// edge). Rails fire on base step `t` when `t % period == 0`, the
/// scheduler's multi-domain rule.
///
/// # Errors
///
/// Interpreter construction or execution failures.
pub fn vhdl_trace(netlist: &Netlist, stim: &Stimulus) -> Result<Vec<Vec<String>>, String> {
    let mut vm = VhdlInterp::from_netlist(netlist, "rtl").map_err(|e| e.to_string())?;
    let outputs: Vec<&str> = netlist
        .entity()
        .ports()
        .iter()
        .filter(|p| p.dir() != PortDir::In)
        .map(hdp_hdl::Port::name)
        .collect();
    let clocks: Vec<(&str, u64)> = netlist
        .domains()
        .iter()
        .map(|d| (d.name(), d.period().max(1)))
        .collect();
    let mut trace = Vec::with_capacity(stim.cycles.len());
    for (cycle, row) in stim.cycles.iter().enumerate() {
        for ((name, width), &value) in stim.inputs.iter().zip(row) {
            let v =
                LogicVector::from_u64(value & mask(*width), *width).map_err(|e| e.to_string())?;
            vm.poke(name, v).map_err(|e| e.to_string())?;
        }
        if cycle == 0 {
            vm.reset();
        }
        vm.settle().map_err(|e| e.to_string())?;
        let mut settled = Vec::with_capacity(outputs.len());
        for name in &outputs {
            settled.push(vm.peek(name).map_err(|e| e.to_string())?.to_bit_string());
        }
        trace.push(settled);
        let t = cycle as u64;
        let firing: Vec<&str> = clocks
            .iter()
            .filter(|(_, p)| t.is_multiple_of(*p))
            .map(|(n, _)| *n)
            .collect();
        vm.step_clocks(&firing).map_err(|e| e.to_string())?;
    }
    Ok(trace)
}

/// The output trace of a job computed by the conformance engine's
/// reference oracle: a fresh, cache-free full-sweep simulation.
///
/// # Errors
///
/// Build or simulation failures.
pub fn reference_trace(netlist: &Netlist, stim: &Stimulus) -> Result<Vec<Vec<String>>, String> {
    let e = |e: hdp_sim::SimError| e.to_string();
    let mut sim = Simulator::with_mode(SchedMode::FullSweep);
    let mut bindings: Vec<(String, SignalId)> = Vec::new();
    let mut outputs = Vec::new();
    for port in netlist.entity().ports() {
        let id = sim.add_signal(port.name(), port.width()).map_err(e)?;
        bindings.push((port.name().to_owned(), id));
        if port.dir() != PortDir::In {
            outputs.push(id);
        }
    }
    let inputs: Vec<SignalId> = stim
        .inputs
        .iter()
        .map(|(name, _)| {
            bindings
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, id)| id)
                .ok_or_else(|| format!("stimulus input `{name}` is not a port"))
        })
        .collect::<Result<_, _>>()?;
    let refs: Vec<(&str, SignalId)> = bindings.iter().map(|(n, id)| (n.as_str(), *id)).collect();
    let comp = NetlistComponent::new("dut", netlist.clone(), sim.bus(), &refs).map_err(e)?;
    sim.add_component(comp);
    let mut trace = Vec::with_capacity(stim.cycles.len());
    for (cycle, row) in stim.cycles.iter().enumerate() {
        for (&id, &value) in inputs.iter().zip(row) {
            sim.poke(id, value).map_err(e)?;
        }
        if cycle == 0 {
            sim.reset().map_err(e)?;
        } else {
            sim.settle().map_err(e)?;
        }
        let mut settled = Vec::with_capacity(outputs.len());
        for &id in &outputs {
            settled.push(sim.peek(id).map_err(e)?.to_bit_string());
        }
        trace.push(settled);
        sim.step().map_err(e)?;
    }
    Ok(trace)
}

/// Compares a job response document with an independently computed
/// trace, bit for bit.
///
/// # Errors
///
/// An error response, a malformed document, or the first differing
/// cycle and port.
pub fn check_job_response(response: &str, want: &[Vec<String>]) -> Result<(), String> {
    let doc = Json::parse(response).map_err(|e| format!("response is not JSON: {e}"))?;
    if let Some(err) = doc.get("error") {
        return Err(format!("job failed: {err}"));
    }
    let rows = doc
        .get("trace")
        .and_then(Json::as_arr)
        .ok_or("response has no trace")?;
    if rows.len() != want.len() {
        return Err(format!(
            "trace has {} cycles, reference {}",
            rows.len(),
            want.len()
        ));
    }
    for (cycle, (row, want_row)) in rows.iter().zip(want).enumerate() {
        let got: Vec<&str> = row
            .as_arr()
            .ok_or("trace row is not an array")?
            .iter()
            .map(|v| v.as_str().unwrap_or("?"))
            .collect();
        if got.len() != want_row.len() {
            return Err(format!(
                "cycle {cycle}: {} ports, reference {}",
                got.len(),
                want_row.len()
            ));
        }
        if let Some(p) = got.iter().zip(want_row).position(|(g, w)| g != w) {
            return Err(format!(
                "cycle {cycle} port {p}: service {} reference {}",
                got[p], want_row[p]
            ));
        }
    }
    Ok(())
}

fn satisfies(r: &CharRecord, c: &SelectConstraints) -> bool {
    r.spec.kind() == c.kind
        && r.spec.data_width >= c.min_data_width
        && r.spec.depth >= c.min_depth
        && r.clk_khz >= c.min_clk_khz
        && c.max_area_cells.is_none_or(|m| r.area_cells() <= m)
        && c.max_power_uw.is_none_or(|m| r.power_uw <= m)
        && c.max_access_cycles.is_none_or(|m| r.access_cycles <= m)
}

/// The answer a `select` query must give, by scanning every record:
/// the key of the cheapest satisfying record under (area, power,
/// access cycles, key), or `None`.
#[must_use]
pub fn brute_force_select(db: &CharDb, c: &SelectConstraints) -> Option<String> {
    db.records()
        .iter()
        .filter(|r| satisfies(r, c))
        .map(|r| {
            (
                r.area_cells(),
                r.power_uw,
                u64::from(r.access_cycles),
                r.key(),
            )
        })
        .min()
        .map(|(_, _, _, key)| key)
}

/// Checks a `select` response against the brute-force answer.
///
/// # Errors
///
/// A malformed document or a different selection.
pub fn check_select_response(
    response: &str,
    db: &CharDb,
    c: &SelectConstraints,
) -> Result<(), String> {
    let doc = Json::parse(response).map_err(|e| format!("select response is not JSON: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(hdp_service::SELECT_SCHEMA) {
        return Err(format!("select response has the wrong schema: {response}"));
    }
    let result = doc.get("result").ok_or("select response has no result")?;
    let selected = result.get("selected").and_then(Json::as_bool);
    let key = result.get("key").and_then(Json::as_str);
    let want = brute_force_select(db, c);
    match (&want, selected, key) {
        (Some(w), Some(true), Some(k)) if w == k => Ok(()),
        (None, Some(false), None) => Ok(()),
        _ => Err(format!(
            "select for {:?}: service chose {key:?} (selected {selected:?}), brute force {want:?}",
            c.kind
        )),
    }
}

/// What a final `stats` snapshot must reconcile with.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsExpect {
    /// Job lines the client sent (every one a cache lookup).
    pub jobs: u64,
    /// `select` verbs the client sent.
    pub selects: u64,
    /// `stats` verbs the client sent, this snapshot's included.
    pub stats: u64,
    /// Cache misses the job stream must have caused.
    pub misses: u64,
}

/// The service's own invariants over a `stats` snapshot
/// ([`validate_snapshot`]); an unparsable snapshot is one problem.
#[must_use]
pub fn snapshot_problems(snapshot: &str) -> Vec<String> {
    match Json::parse(snapshot) {
        Ok(doc) => validate_snapshot(&doc),
        Err(e) => vec![format!("stats is not JSON: {e}")],
    }
}

/// Parses a `stats` response into a snapshot.
///
/// # Errors
///
/// A response that is not a metrics snapshot.
pub fn parse_snapshot(snapshot: &str) -> Result<MetricsSnapshot, String> {
    let doc = Json::parse(snapshot).map_err(|e| format!("stats is not JSON: {e}"))?;
    MetricsSnapshot::from_json(&doc).map_err(|e| format!("stats snapshot: {e}"))
}

/// Checks a snapshot's counters against what the client sent.
///
/// # Errors
///
/// Every counter that differs from the client's count.
pub fn check_stats(snap: &MetricsSnapshot, want: &StatsExpect) -> Result<(), String> {
    let cache = snap.cache.unwrap_or_default();
    let mut errs = Vec::new();
    for (what, got, expect) in [
        ("jobs_total", snap.counter(Counter::JobsTotal), want.jobs),
        ("jobs_ok", snap.counter(Counter::JobsOk), want.jobs),
        (
            "select_requests",
            snap.counter(Counter::SelectRequests),
            want.selects,
        ),
        (
            "select_hits + select_no_target",
            snap.counter(Counter::SelectHits) + snap.counter(Counter::SelectNoTarget),
            want.selects,
        ),
        (
            "stats_requests",
            snap.counter(Counter::StatsRequests),
            want.stats,
        ),
        ("cache hits + misses", cache.hits + cache.misses, want.jobs),
        ("cache misses", cache.misses, want.misses),
    ] {
        if got != expect {
            errs.push(format!("{what} is {got}, client sent {expect}"));
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs.join("; "))
    }
}
