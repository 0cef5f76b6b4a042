//! # hdpbench — end-to-end and per-layer benchmark for `hdp`
//!
//! One command runs one workload (`video`, `jobs-warm` or `jobs-cold`)
//! for a given seed and length, checks every output against a
//! computation made apart from the timed path, and prints one JSON
//! result line. Untraced runs print the end-to-end metrics; traced runs
//! time the benchmark's own calls into each workspace crate, read the
//! counters the program already exposes, print the per-layer metrics
//! and write the spans as a Chrome trace. See `README.md`.

pub mod alloc;
pub mod checks;
pub mod compare;
pub mod jobs;
pub mod json;
pub mod report;
pub mod stats;
pub mod trace;
pub mod video;

use hdp_service::{Counter, MetricsSnapshot, Stage};
use report::RunResult;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Set-ups timed before the timed region; the last one is used.
pub const SETUPS_BEFORE: usize = 5;
/// Set-ups timed after the timed region, so the median of all of them
/// spans the run rather than one moment of it.
pub const SETUPS_AFTER: usize = 6;

/// Where run documents and traces go, relative to the checkout root.
pub const OUT_DIR: &str = ".hdpbench";

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed-region length in seconds.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Directory for run documents.
    pub out: PathBuf,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--out DIR]`.
    ///
    /// # Errors
    ///
    /// Unknown, missing or malformed arguments.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut out = PathBuf::from(OUT_DIR).join("runs");
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => {
                    seed = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|e| format!("--seed: {e}"))?,
                    )
                }
                "--seconds" => {
                    seconds = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|e| format!("--seconds: {e}"))?,
                    );
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    });
                }
                "--out" => out = PathBuf::from(value()?),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !report::WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` (one of {:?})",
                report::WORKLOADS
            ));
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            out,
        })
    }
}

/// Sets the windowed end-to-end figures; traced runs keep only the
/// rate, as `traced.ops_per_s`.
fn set_summary(
    r: &mut RunResult,
    windows: &[stats::WindowStat],
    trace: bool,
) -> Result<(), String> {
    let s = stats::summarize(windows).ok_or("the timed region completed no window")?;
    if trace {
        r.set("traced.ops_per_s", s.ops_per_s);
    } else {
        r.set("ops_per_s", s.ops_per_s);
        r.set("op_p50_us", s.p50_us);
        r.set("op_p99_us", s.p99_us);
    }
    Ok(())
}

/// The heap the benchmark's own inputs hold when set-up starts, and the
/// peak above it from then on.
struct HeapMark {
    base: usize,
}

impl HeapMark {
    /// Marks the live heap now as the baseline and restarts the peak
    /// from it, so the inputs' construction does not count.
    fn start() -> Self {
        alloc::reset_peak();
        let base = alloc::current_bytes();
        eprintln!(
            "hdpbench: heap baseline (benchmark inputs) {:.3} MiB",
            alloc::mib(base)
        );
        Self { base }
    }

    /// The highest live heap since [`HeapMark::start`], less the
    /// baseline, in MiB.
    fn peak_mb(&self) -> f64 {
        alloc::mib(alloc::peak_bytes().saturating_sub(self.base))
    }
}

/// Times `reps` set-ups, tearing each down before the next starts and
/// keeping the last one.
fn timed_setups<T>(
    reps: usize,
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<T, String> {
    let mut last: Option<T> = None;
    for _ in 0..reps {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    last.ok_or_else(|| "no set-up ran".to_owned())
}

/// Runs one workload and returns its result (values for the metric
/// table of the run's mode).
///
/// # Errors
///
/// Set-up failures and broken measurement invariants; wrong outputs
/// are reported as `correct: false` instead.
pub fn run_workload(args: &Args) -> Result<RunResult, String> {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(args.trace, epoch, 0);
    #[allow(clippy::cast_precision_loss)]
    let seconds = args.seconds as f64;
    let r = match args.workload.as_str() {
        "video" => run_video(args, seconds, &mut tracer)?,
        "jobs-warm" => run_warm(args, seconds, &mut tracer)?,
        _ => run_cold(args, seconds, &mut tracer)?,
    };
    if args.trace {
        let path = PathBuf::from(OUT_DIR)
            .join("traces")
            .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        tracer
            .write_chrome_trace(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("hdpbench: wrote {}", path.display());
    }
    Ok(r)
}

fn run_video(args: &Args, seconds: f64, tracer: &mut Tracer) -> Result<RunResult, String> {
    let inputs = video::inputs(args.seed);
    let heap = HeapMark::start();
    let mut setups = Vec::new();
    let mut built = timed_setups(
        SETUPS_BEFORE,
        &mut setups,
        || video::setup(&inputs, tracer),
        drop,
    )?;
    let table3 = video::check_table3(&inputs, &built);
    let out = video::run(&inputs, &mut built, seconds, tracer);
    let peak_mb = heap.peak_mb();
    drop(built);
    drop(timed_setups(
        SETUPS_AFTER,
        &mut setups,
        || video::setup(&inputs, tracer),
        drop,
    )?);
    let setup_s = stats::median(&setups).ok_or("no set-up ran")?;
    let mut r = RunResult {
        correct: table3.is_ok() && out.mismatch.is_none(),
        attempted: out.attempted,
        failed: out.failed,
        values: Vec::new(),
    };
    for e in table3.err().iter().chain(out.mismatch.iter()) {
        eprintln!("hdpbench: video: {e}");
    }
    r.set("setup_s", setup_s);
    r.set("peak_heap_mb", peak_mb);
    set_summary(&mut r, &out.windows, args.trace)?;
    if args.trace {
        #[allow(clippy::cast_precision_loss)]
        let (rounds, run_ns, cycles) = (
            out.rounds.max(1) as f64,
            out.run_ns as f64,
            out.cycles.max(1) as f64,
        );
        let l = out.layer;
        #[allow(clippy::cast_precision_loss)]
        let (dut, dev) = (l.dut_eval_ns as f64, l.device_eval_ns as f64);
        if dut + dev > run_ns {
            return Err(format!(
                "component eval time {} ns exceeds Simulator::run time {run_ns} ns",
                dut + dev
            ));
        }
        r.set(
            "metagen.generate_ms",
            tracer.mean_ns("metagen.generate") / 1e6,
        );
        r.set("hdl.validate_us", tracer.mean_ns("hdl.validate") / 1e3);
        r.set(
            "synth.synthesize_ms",
            tracer.mean_ns("synth.synthesize") / 1e6,
        );
        r.set("sim.build_ms", tracer.mean_ns("sim.build") / 1e6);
        r.set("sim.ns_per_cycle", run_ns / cycles);
        r.set("sim.dut_eval_ms", dut / 1e6 / rounds);
        r.set("sim.device_eval_ms", dev / 1e6 / rounds);
        r.set("sim.sched_other_ms", (run_ns - dut - dev) / 1e6 / rounds);
        set_counts(
            &mut r,
            [
                l.cycles,
                l.settles,
                l.evals,
                l.ops_executed,
                l.fallback_settles,
            ],
        );
    }
    Ok(r)
}

#[allow(clippy::cast_precision_loss)]
fn set_counts(r: &mut RunResult, counts: [u64; 5]) {
    for (name, n) in [
        "sim.cycles",
        "sim.settles",
        "sim.evals",
        "sim.ops_executed",
        "sim.fallback_settles",
    ]
    .into_iter()
    .zip(counts)
    {
        r.set(name, n as f64);
    }
}

fn run_warm(args: &Args, seconds: f64, tracer: &mut Tracer) -> Result<RunResult, String> {
    let connections = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let pool = jobs::warm_pool(args.seed, tracer);
    let heap = HeapMark::start();
    let mut setups = Vec::new();
    let mut warm = timed_setups(
        SETUPS_BEFORE,
        &mut setups,
        || jobs::warm_setup(&pool, connections, tracer),
        jobs::Warm::shutdown,
    )?;
    let catalog = warm
        .handle
        .service()
        .catalog()
        .ok_or("warm set-up installs the catalog")?;
    let mut out = jobs::warm_run(&mut warm, &pool, seconds, tracer);
    out.peak_mb = heap.peak_mb();
    warm.shutdown();
    timed_setups(
        SETUPS_AFTER,
        &mut setups,
        || jobs::warm_setup(&pool, connections, tracer),
        jobs::Warm::shutdown,
    )?
    .shutdown();
    let setup_s = stats::median(&setups).ok_or("no set-up ran")?;
    let checked = jobs::check_outputs(&pool, &out, &catalog, args.seed);
    jobs_result(args, &pool, &mut out, setup_s, checked, tracer)
}

fn run_cold(args: &Args, seconds: f64, tracer: &mut Tracer) -> Result<RunResult, String> {
    let pool = jobs::cold_pool(args.seed, tracer);
    let heap = HeapMark::start();
    let mut setups = Vec::new();
    let service = timed_setups(
        SETUPS_BEFORE,
        &mut setups,
        || jobs::cold_setup(tracer),
        drop,
    )?;
    let mut out = jobs::cold_run(&service, &pool, seconds, tracer);
    out.peak_mb = heap.peak_mb();
    let catalog = service
        .catalog()
        .ok_or("cold set-up installs the catalog")?;
    drop(service);
    drop(timed_setups(
        SETUPS_AFTER,
        &mut setups,
        || jobs::cold_setup(tracer),
        drop,
    )?);
    let setup_s = stats::median(&setups).ok_or("no set-up ran")?;
    let checked = jobs::check_outputs(&pool, &out, &catalog, args.seed);
    jobs_result(args, &pool, &mut out, setup_s, checked, tracer)
}

#[allow(clippy::cast_precision_loss)]
fn jobs_result(
    args: &Args,
    pool: &jobs::Pool,
    out: &mut jobs::Outcome,
    setup_s: f64,
    checked: Result<(), String>,
    tracer: &Tracer,
) -> Result<RunResult, String> {
    if let Err(e) = &checked {
        eprintln!("hdpbench: {}: {e}", args.workload);
    }
    if let Some(e) = &out.snapshot_fault {
        eprintln!("hdpbench: {}: every stats scrape fails: {e}", args.workload);
    }
    let mut r = RunResult {
        correct: checked.is_ok(),
        attempted: out.attempted,
        failed: out.failed,
        values: Vec::new(),
    };
    r.set("setup_s", setup_s);
    r.set("peak_heap_mb", out.peak_mb);
    set_summary(&mut r, &out.windows, args.trace)?;
    if !args.trace {
        return Ok(r);
    }
    let end = checks::parse_snapshot(&out.final_stats)?;
    let start = out.snapshots.first().ok_or("no start snapshot")?;
    let first_pass = out
        .snapshots
        .get(1)
        .ok_or("no end-of-first-pass snapshot")?;
    let stage = |s| jobs::stage_mean_us(start, &end, s);
    r.set(
        "metagen.instantiate_us",
        tracer.mean_ns("metagen.instantiate") / 1e3,
    );
    r.set("hdl.validate_us", tracer.mean_ns("hdl.validate") / 1e3);
    r.set(
        "synth.catalog_load_ms",
        tracer.mean_ns("synth.catalog_load") / 1e6,
    );
    r.set("synth.select_us", tracer.mean_ns("synth.select") / 1e3);
    let exec_ns = |s: &MetricsSnapshot| s.stage(Stage::Execute).map_or(0, |h| h.sum_ns);
    let cycles = out.jobs * jobs::STIMULUS_CYCLES as u64;
    r.set(
        "sim.ns_per_cycle",
        exec_ns(&end).saturating_sub(exec_ns(start)) as f64 / cycles.max(1) as f64,
    );
    let pass = |c| first_pass.counter(c).saturating_sub(start.counter(c));
    set_counts(
        &mut r,
        [
            pool.jobs.len() as u64 * jobs::STIMULUS_CYCLES as u64,
            pass(Counter::SimSettles),
            0,
            pass(Counter::SimOpsExecuted),
            pass(Counter::SimFallbackSettles),
        ],
    );
    let parse = stage(Stage::Parse);
    let render = stage(Stage::Render);
    r.set("wire.parse_us", parse);
    r.set("service.lookup_us", stage(Stage::CacheLookup));
    r.set("service.build_us", stage(Stage::Build));
    r.set("service.execute_us", stage(Stage::Execute));
    r.set("service.publish_us", stage(Stage::Publish));
    r.set("service.render_us", render);
    r.set(
        "service.stats_us",
        out.scrape_ns as f64 / out.scrapes.max(1) as f64 / 1e3,
    );
    let (c0, c1) = (
        start.cache.unwrap_or_default(),
        end.cache.unwrap_or_default(),
    );
    r.set("cache.hits", c1.hits.saturating_sub(c0.hits) as f64);
    r.set("cache.misses", c1.misses.saturating_sub(c0.misses) as f64);
    r.set(
        "cache.evictions",
        c1.evictions.saturating_sub(c0.evictions) as f64,
    );
    r.set(
        "cache.resident_mb",
        alloc::mib(usize::try_from(c1.bytes_resident).unwrap_or(usize::MAX)),
    );
    if args.workload == "jobs-warm" {
        let rtt_us = out.job_ns as f64 / out.jobs.max(1) as f64 / 1e3;
        let server_us = parse + stage(Stage::Total) + render;
        r.set("server.transport_us", (rtt_us - server_us).max(0.0));
    }
    Ok(r)
}
