//! The two job workloads: `jobs-warm` (a TCP server whose plan cache
//! holds every design the stream uses) and `jobs-cold` (one thread
//! calling `handle_line` on a stream of designs the cache cannot hold).
//!
//! Inputs are made from the seed before set-up: design specs drawn
//! round-robin over all 12 sampler families, one random stimulus per
//! job line, and a pool of `select` constraint sets. A pass sends every
//! line of the pool once, in order; runs consist of whole passes, each
//! followed by one `stats` scrape. The first pass's responses are kept
//! and checked after the timed region against independent oracles;
//! every later response must repeat its first-pass response exactly.

use crate::checks::{self, StatsExpect};
use crate::stats::{Window, WindowStat};
use crate::trace::Tracer;
use hdp_conform::wire::{design_hash, job_to_json};
use hdp_conform::{Case, Stimulus};
use hdp_hdl::Netlist;
use hdp_metagen::sampler::{sample_spec_in, DesignSpec, FAMILIES};
use hdp_service::{handle_line, serve, MetricsSnapshot, ObsMode, ServerHandle, Service, Stage};
use hdp_synth::{auto_select, CharDb, SelectConstraints};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

// Where each constant of the traffic mix comes from is listed in
// README.md ("Input make-up"); the ones marked "a choice" have no
// source in the repository.

/// Plan-cache capacity: `service serve`'s `--cache` default.
pub const CACHE_CAPACITY: usize = 256;
/// Stimulus cycles per job: `service bench`'s default stimulus length
/// (`BenchConfig::default().cycles`), which that driver keeps short
/// for the many-small-stimuli sweep regime.
pub const STIMULUS_CYCLES: usize = 6;
/// Warm designs per family: the most designs with an equal share per
/// family that the cache holds (12 × 21 = 252 ≤ 256).
pub const WARM_DESIGNS_PER_FAMILY: usize = CACHE_CAPACITY / FAMILIES.len();
/// Job lines per pass (both workloads); a choice: at least 1000
/// operations per window, so a window's 99th percentile has ten
/// samples above it, and 16 times the cache, so a cold pass never
/// comes back to a design the cache still holds.
pub const POOL_LINES: usize = 16 * CACHE_CAPACITY;
/// Cold workload: one `select` query after every this many jobs; a
/// choice (no caller in the repository fixes a ratio).
pub const SELECT_EVERY: usize = 8;
/// Distinct `select` constraint sets; a choice.
pub const SELECT_POOL: usize = 256;
/// Cold workload: designs checked with the VHDL-text interpreter per
/// family (every design is also checked with the reference oracle); a
/// choice that keeps the check a few seconds long.
pub const VHDL_SAMPLE_PER_FAMILY: usize = 4;
/// The committed characterisation catalog the service loads.
pub const CATALOG_PATH: &str = "chardb.json";

/// One job of a pool.
#[derive(Debug, Clone)]
pub struct Job {
    /// Index of the job's design in the pool's design list.
    pub design: usize,
    /// The stimulus.
    pub stimulus: Stimulus,
    /// The wire line (`hdp-conform-repro-v1`).
    pub line: String,
}

/// A seeded job pool.
#[derive(Debug)]
pub struct Pool {
    /// Distinct designs, round-robin over the families.
    pub specs: Vec<DesignSpec>,
    /// Instantiated netlists, kept only for the warm pool.
    pub netlists: Vec<Netlist>,
    /// The job lines of one pass.
    pub jobs: Vec<Job>,
    /// `select` constraint sets and their wire lines.
    pub selects: Vec<(SelectConstraints, String)>,
}

/// Samples `count` designs with distinct content addresses, families
/// round-robin so every family has the same share, and hands each to
/// `keep` with its netlist.
fn distinct_specs(
    rng: &mut StdRng,
    count: usize,
    tracer: &mut Tracer,
    mut keep: impl FnMut(DesignSpec, Netlist),
) {
    let mut seen = HashSet::new();
    let mut kept = 0;
    while kept < count {
        let family = kept % FAMILIES.len();
        let spec = sample_spec_in(rng, family);
        if !seen.insert(design_hash(&spec)) {
            continue;
        }
        let netlist = tracer
            .time("metagen.instantiate", || spec.instantiate())
            .expect("sampled specs instantiate");
        if tracer.on() {
            tracer
                .time("hdl.validate", || hdp_hdl::validate::check(&netlist))
                .expect("sampled designs validate");
        }
        keep(spec, netlist);
        kept += 1;
    }
}

/// The `select` constraint sets: kinds in the sampler families'
/// proportions, limits spread over the committed catalog's ranges
/// (widths 1–16, depths 2–8, clocks 59–200 MHz) so that answers
/// include both selections and no-target results.
fn select_pool(rng: &mut StdRng) -> Vec<(SelectConstraints, String)> {
    const CLOCKS: [u64; 4] = [0, 60_000, 100_000, 140_000];
    (0..SELECT_POOL)
        .map(|_| {
            let c = SelectConstraints {
                kind: FAMILIES[rng.gen_range(0..FAMILIES.len())].0.to_owned(),
                min_data_width: rng.gen_range(0..=16usize),
                min_depth: rng.gen_range(0..=8usize),
                min_clk_khz: CLOCKS[rng.gen_range(0..CLOCKS.len())],
                max_area_cells: (rng.gen_range(0..2u32) == 1).then(|| rng.gen_range(20..=600u64)),
                max_power_uw: None,
                max_access_cycles: (rng.gen_range(0..4u32) == 0).then_some(1),
            };
            let line = format!("{{\"verb\":\"select\",\"constraints\":{}}}", c.to_json());
            (c, line)
        })
        .collect()
}

/// The warm pool: 252 designs (21 per family) and 4096 job lines that
/// cycle over them, each with its own stimulus. The first 252 lines
/// cover every design once and double as the priming set.
#[must_use]
pub fn warm_pool(seed: u64, tracer: &mut Tracer) -> Pool {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5741_524D);
    let (mut specs, mut netlists) = (Vec::new(), Vec::new());
    distinct_specs(
        &mut rng,
        WARM_DESIGNS_PER_FAMILY * FAMILIES.len(),
        tracer,
        |spec, netlist| {
            specs.push(spec);
            netlists.push(netlist);
        },
    );
    let jobs = (0..POOL_LINES)
        .map(|i| {
            let d = i % specs.len();
            let stimulus = Stimulus::sample(&netlists[d], STIMULUS_CYCLES, &mut rng);
            let line = job_to_json(&Case {
                spec: specs[d].clone(),
                stimulus: stimulus.clone(),
            });
            Job {
                design: d,
                stimulus,
                line,
            }
        })
        .collect();
    Pool {
        specs,
        netlists,
        jobs,
        selects: Vec::new(),
    }
}

/// The cold pool: 4096 distinct designs, one job line each — 16 times
/// the cache capacity, so a design is always evicted before the stream
/// comes back to it — plus the `select` pool. Each netlist is dropped
/// as soon as its stimulus is drawn.
#[must_use]
pub fn cold_pool(seed: u64, tracer: &mut Tracer) -> Pool {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x434F_4C44);
    let mut stimulus_rng = StdRng::seed_from_u64(seed ^ 0x5354_494D);
    let mut specs = Vec::with_capacity(POOL_LINES);
    let mut jobs = Vec::with_capacity(POOL_LINES);
    distinct_specs(&mut rng, POOL_LINES, tracer, |spec, netlist| {
        let stimulus = Stimulus::sample(&netlist, STIMULUS_CYCLES, &mut stimulus_rng);
        let line = job_to_json(&Case {
            spec: spec.clone(),
            stimulus: stimulus.clone(),
        });
        jobs.push(Job {
            design: specs.len(),
            stimulus,
            line,
        });
        specs.push(spec);
    });
    Pool {
        specs,
        netlists: Vec::new(),
        jobs,
        selects: select_pool(&mut rng),
    }
}

/// Loads the committed catalog.
///
/// # Errors
///
/// The catalog file is missing or malformed.
pub fn load_catalog(tracer: &mut Tracer) -> Result<Arc<CharDb>, String> {
    tracer
        .time("synth.catalog_load", || CharDb::load(CATALOG_PATH))
        .map(Arc::new)
        .map_err(|e| format!("{CATALOG_PATH}: {e}"))
}

/// A service configured like `service serve`'s defaults: sampled
/// observability, a 256-design cache and the committed catalog.
fn new_service(catalog: Arc<CharDb>) -> Arc<Service> {
    let service = Arc::new(Service::with_obs(CACHE_CAPACITY, ObsMode::Sampled));
    service.set_catalog(catalog);
    service
}

/// What a timed region produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: job lines, `select` and `stats` verbs.
    pub attempted: u64,
    /// Operations answered with an error document or lost to I/O.
    pub failed: u64,
    /// One window per pass.
    pub windows: Vec<WindowStat>,
    /// The window being filled.
    current: Window,
    /// Whole passes completed.
    pub passes: u64,
    /// Job lines sent in the timed region.
    pub jobs: u64,
    /// `select` verbs sent in the timed region.
    pub selects: u64,
    /// `stats` verbs sent in the timed region.
    pub scrapes: u64,
    /// Summed latency of job lines, nanoseconds.
    pub job_ns: u64,
    /// Summed latency of `stats` verbs, nanoseconds.
    pub scrape_ns: u64,
    /// First-pass response of every job line.
    pub job_responses: Vec<String>,
    /// First-pass response of every `select` line.
    pub select_responses: Vec<String>,
    /// First later response that differed from its first-pass one.
    pub drift: Option<String>,
    /// First violation of the service's own snapshot invariants.
    pub snapshot_fault: Option<String>,
    /// First `stats` counter that disagreed with the client's count.
    pub count_fault: Option<String>,
    /// Metrics snapshots at the start of the timed region and at the
    /// end of its first pass.
    pub snapshots: Vec<MetricsSnapshot>,
    /// The last `stats` response of the run.
    pub final_stats: String,
    /// Peak live heap of set-up and timed region above the inputs, MiB.
    pub peak_mb: f64,
}

impl Outcome {
    /// Accounts one operation of the current pass.
    fn record(&mut self, ns: u64, ok: bool) {
        self.attempted += 1;
        self.current.latencies_ns.push(ns);
        if ok {
            self.current.completed += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Ends the current pass's window.
    fn close_window(&mut self, seconds: f64) {
        let w = std::mem::take(&mut self.current);
        self.windows.extend(w.finish(seconds));
    }
}

fn is_error(response: &str) -> bool {
    response.contains("\"error\":")
}

fn elapsed_ns(t0: Instant, t1: Instant) -> u64 {
    u64::try_from(t1.saturating_duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}

/// Records one response: first-pass responses are kept for the
/// oracles, later ones must repeat them.
fn keep_or_compare(
    slot: &mut String,
    response: String,
    first_pass: bool,
    drift: &mut Option<String>,
) {
    if first_pass {
        *slot = response;
    } else if *slot != response && drift.is_none() {
        *drift = Some(format!(
            "response changed between passes: {slot} then {response}"
        ));
    }
}

// ---------------------------------------------------------------------
// jobs-cold
// ---------------------------------------------------------------------

/// The cold workload's set-up: catalog load and service construction.
///
/// # Errors
///
/// Catalog load failures.
pub fn cold_setup(tracer: &mut Tracer) -> Result<Arc<Service>, String> {
    Ok(new_service(load_catalog(tracer)?))
}

/// The cold timed region: whole passes of `handle_line` calls on one
/// thread until `seconds` have passed.
pub fn cold_run(service: &Service, pool: &Pool, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome {
        job_responses: vec![String::new(); pool.jobs.len()],
        select_responses: vec![String::new(); pool.selects.len()],
        ..Outcome::default()
    };
    let catalog = service.catalog().expect("cold set-up installs the catalog");
    out.snapshots.push(service.metrics_snapshot());
    let start = Instant::now();
    let op = |line: &str, tracer: &mut Tracer, out: &mut Outcome| -> (String, u64) {
        let t0 = Instant::now();
        let response = handle_line(service, line);
        let t1 = Instant::now();
        tracer.record("service.handle_line", t0, t1);
        let ns = elapsed_ns(t0, t1);
        out.record(ns, !is_error(&response));
        (response, ns)
    };
    loop {
        let pass_start = Instant::now();
        let first = out.passes == 0;
        for (i, job) in pool.jobs.iter().enumerate() {
            if tracer.on() {
                // Probes of the miss path's first two layers, on the
                // same spec the service is about to instantiate.
                let spec = &pool.specs[job.design];
                if let Ok(netlist) = tracer.time("metagen.instantiate", || spec.instantiate()) {
                    let _ = tracer.time("hdl.validate", || hdp_hdl::validate::check(&netlist));
                }
            }
            let (response, ns) = op(&job.line, tracer, &mut out);
            out.jobs += 1;
            out.job_ns += ns;
            keep_or_compare(&mut out.job_responses[i], response, first, &mut out.drift);
            if (i + 1) % SELECT_EVERY == 0 {
                let s = (i / SELECT_EVERY) % pool.selects.len();
                let (constraints, line) = &pool.selects[s];
                if tracer.on() {
                    let _ = tracer.time("synth.select", || auto_select(&catalog, constraints));
                }
                let (response, _) = op(line, tracer, &mut out);
                out.selects += 1;
                keep_or_compare(
                    &mut out.select_responses[s],
                    response,
                    first,
                    &mut out.drift,
                );
            }
        }
        let t0 = Instant::now();
        let stats = tracer.time("service.stats", || handle_line(service, STATS_LINE));
        let ns = elapsed_ns(t0, Instant::now());
        out.passes += 1;
        let expect = StatsExpect {
            jobs: out.jobs,
            selects: out.selects,
            stats: out.passes,
            misses: out.jobs,
        };
        account_scrape(&mut out, stats, ns, &expect);
        out.close_window(pass_start.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= seconds {
            return out;
        }
    }
}

const STATS_LINE: &str = "{\"verb\":\"stats\"}";

/// Accounts the `stats` scrape that ends a pass. A snapshot that
/// breaks the service's own invariants ([`checks::snapshot_problems`])
/// is a failed operation; counters that disagree with what the client
/// sent are a wrong output. The last scrape is the run's final one.
fn account_scrape(out: &mut Outcome, response: String, ns: u64, expect: &StatsExpect) {
    out.scrapes += 1;
    out.scrape_ns += ns;
    let problems = checks::snapshot_problems(&response);
    out.record(ns, problems.is_empty());
    if !problems.is_empty() {
        out.snapshot_fault.get_or_insert(problems.join("; "));
    }
    match checks::parse_snapshot(&response) {
        Ok(snap) => {
            if let Err(e) = checks::check_stats(&snap, expect) {
                out.count_fault.get_or_insert(e);
            }
            if out.passes == 1 {
                out.snapshots.push(snap);
            }
        }
        Err(e) => {
            out.count_fault.get_or_insert(e);
        }
    }
    out.final_stats = response;
}

// ---------------------------------------------------------------------
// jobs-warm
// ---------------------------------------------------------------------

/// A running warm server with its client connections.
pub struct Warm {
    /// The server (shut down on drop).
    pub handle: ServerHandle,
    /// One persistent connection per server worker, one client thread
    /// each.
    pub conns: Vec<Conn>,
}

/// One persistent client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one line and reads its one-line response.
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }
}

/// The warm workload's set-up: catalog load, the priming pass that
/// sends every design once so the cache holds them all, `serve()` with
/// `connections` workers and one connection per worker.
///
/// # Errors
///
/// Catalog, bind, connect or priming failures.
pub fn warm_setup(pool: &Pool, connections: usize, tracer: &mut Tracer) -> Result<Warm, String> {
    let service = new_service(load_catalog(tracer)?);
    // Priming runs the function the server runs per line, in-process:
    // thread wake-ups on a TCP round trip would make the set-up time
    // swing more than the priming work itself.
    for job in &pool.jobs[..pool.specs.len()] {
        let response = handle_line(&service, &job.line);
        if is_error(&response) {
            return Err(format!("priming job failed: {response}"));
        }
    }
    let handle = serve("127.0.0.1:0", service, connections).map_err(|e| format!("serve: {e}"))?;
    let addr = handle.addr();
    let conns = (0..connections)
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    Ok(Warm { handle, conns })
}

impl Warm {
    /// Closes the connections, then stops and joins the server.
    pub fn shutdown(self) {
        drop(self.conns);
        self.handle.shutdown();
    }
}

/// The warm timed region: one client thread per connection, each
/// sending its share of every pass (line `i` goes to connection
/// `i mod connections`) in a closed loop. Between passes the clients
/// meet at a barrier while client 0 scrapes `stats`, closes the pass's
/// window and decides whether time is up.
pub fn warm_run(warm: &mut Warm, pool: &Pool, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let clients = warm.conns.len();
    let primed = pool.specs.len() as u64;
    let barrier = Barrier::new(clients);
    let stop = AtomicBool::new(false);
    // Every client's share of the current pass, finished by client 0.
    let pass = Mutex::new(Window::default());
    let start_snapshot = warm.handle.service().metrics_snapshot();
    let start = Instant::now();
    let results: Vec<(Outcome, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = warm
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (barrier, stop, pass) = (&barrier, &stop, &pass);
                let mut t = tracer.child(u32::try_from(c + 1).unwrap_or(u32::MAX));
                scope.spawn(move || {
                    let mut o = Outcome::default();
                    let mine: Vec<usize> = (c..pool.jobs.len()).step_by(clients).collect();
                    o.job_responses = vec![String::new(); mine.len()];
                    let mut broken = false;
                    loop {
                        let pass_start = Instant::now();
                        let first = o.passes == 0;
                        for (k, &i) in mine.iter().enumerate() {
                            o.jobs += 1;
                            if broken {
                                o.attempted += 1;
                                o.failed += 1;
                                continue;
                            }
                            let t0 = Instant::now();
                            let r = conn.request(&pool.jobs[i].line);
                            let t1 = Instant::now();
                            t.record("server.round_trip", t0, t1);
                            let ns = elapsed_ns(t0, t1);
                            o.job_ns += ns;
                            match r {
                                Ok(response) => {
                                    o.record(ns, !is_error(&response));
                                    keep_or_compare(
                                        &mut o.job_responses[k],
                                        response,
                                        first,
                                        &mut o.drift,
                                    );
                                }
                                Err(_) => {
                                    o.record(ns, false);
                                    broken = true;
                                }
                            }
                        }
                        o.passes += 1;
                        pass.lock()
                            .expect("a client thread panicked")
                            .merge(std::mem::take(&mut o.current));
                        barrier.wait();
                        if c == 0 {
                            let t0 = Instant::now();
                            let r = conn.request(STATS_LINE);
                            let t1 = Instant::now();
                            t.record("service.stats", t0, t1);
                            let expect = StatsExpect {
                                jobs: primed + o.passes * pool.jobs.len() as u64,
                                selects: 0,
                                stats: o.passes,
                                misses: primed,
                            };
                            match r {
                                Ok(stats) => {
                                    account_scrape(&mut o, stats, elapsed_ns(t0, t1), &expect)
                                }
                                Err(_) => {
                                    o.scrapes += 1;
                                    o.record(elapsed_ns(t0, t1), false);
                                }
                            }
                            // Client 0's pass spans the others': it
                            // waited for them at the barrier.
                            let mut w = pass.lock().expect("a client thread panicked");
                            w.merge(std::mem::take(&mut o.current));
                            let w = std::mem::take(&mut *w);
                            o.windows
                                .extend(w.finish(pass_start.elapsed().as_secs_f64()));
                            if start.elapsed().as_secs_f64() >= seconds {
                                stop.store(true, Ordering::SeqCst);
                            }
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    (o, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Outcome {
        job_responses: vec![String::new(); pool.jobs.len()],
        snapshots: vec![start_snapshot],
        ..Outcome::default()
    };
    for (c, (o, t)) in results.into_iter().enumerate() {
        out.attempted += o.attempted;
        out.failed += o.failed;
        out.jobs += o.jobs;
        out.scrapes += o.scrapes;
        out.job_ns += o.job_ns;
        out.scrape_ns += o.scrape_ns;
        out.passes = out.passes.max(o.passes);
        out.windows.extend(o.windows);
        out.snapshots.extend(o.snapshots);
        out.drift = out.drift.or(o.drift);
        out.snapshot_fault = out.snapshot_fault.or(o.snapshot_fault);
        out.count_fault = out.count_fault.or(o.count_fault);
        if !o.final_stats.is_empty() {
            out.final_stats = o.final_stats;
        }
        for (k, response) in o.job_responses.into_iter().enumerate() {
            out.job_responses[c + k * clients] = response;
        }
        tracer.absorb(t);
    }
    out
}

// ---------------------------------------------------------------------
// Checks and per-layer figures shared by both job workloads
// ---------------------------------------------------------------------

/// Checks a job workload's outputs after its timed region:
///
/// * every first-pass job response against the reference full-sweep
///   oracle (warm pools keep their netlists; cold pools re-instantiate
///   each design);
/// * a seeded sample — every warm design once, or
///   [`VHDL_SAMPLE_PER_FAMILY`] cold designs per family — against the
///   VHDL-text interpreter;
/// * every `select` response against a brute-force catalog scan;
/// * every `stats` snapshot's counters against the client's own counts
///   and later passes against the first (both recorded while running).
///
/// # Errors
///
/// The first failed check.
pub fn check_outputs(
    pool: &Pool,
    out: &Outcome,
    catalog: &CharDb,
    seed: u64,
) -> Result<(), String> {
    if let Some(e) = out.drift.as_ref().or(out.count_fault.as_ref()) {
        return Err(e.clone());
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4348_4543);
    let designs = pool.specs.len();
    // Which job of each design the VHDL interpreter checks.
    let vhdl_jobs: HashSet<usize> = if pool.netlists.is_empty() {
        (0..FAMILIES.len())
            .flat_map(|f| {
                let in_family: Vec<usize> = (f..pool.jobs.len()).step_by(FAMILIES.len()).collect();
                (0..VHDL_SAMPLE_PER_FAMILY)
                    .map(|_| in_family[rng.gen_range(0..in_family.len())])
                    .collect::<Vec<_>>()
            })
            .collect()
    } else {
        (0..designs)
            .map(|d| d + rng.gen_range(0..(pool.jobs.len() - d).div_ceil(designs)) * designs)
            .collect()
    };
    for (i, job) in pool.jobs.iter().enumerate() {
        let owned;
        let netlist = match pool.netlists.get(job.design) {
            Some(n) => n,
            None => {
                owned = pool.specs[job.design]
                    .instantiate()
                    .map_err(|e| format!("instantiate: {e}"))?;
                &owned
            }
        };
        let response = &out.job_responses[i];
        let label = pool.specs[job.design].label();
        let want = checks::reference_trace(netlist, &job.stimulus)
            .map_err(|e| format!("{label}: reference oracle: {e}"))?;
        checks::check_job_response(response, &want).map_err(|e| format!("{label}: {e}"))?;
        if vhdl_jobs.contains(&i) {
            let want = checks::vhdl_trace(netlist, &job.stimulus)
                .map_err(|e| format!("{label}: VHDL interpreter: {e}"))?;
            checks::check_job_response(response, &want)
                .map_err(|e| format!("{label} (VHDL interpreter): {e}"))?;
        }
    }
    for ((constraints, _), response) in pool.selects.iter().zip(&out.select_responses) {
        checks::check_select_response(response, catalog, constraints)?;
    }
    Ok(())
}

/// Mean of one stage's histogram between two snapshots, microseconds.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn stage_mean_us(a: &MetricsSnapshot, b: &MetricsSnapshot, stage: Stage) -> f64 {
    let (Some(ha), Some(hb)) = (a.stage(stage), b.stage(stage)) else {
        return 0.0;
    };
    let n = hb.count().saturating_sub(ha.count());
    if n == 0 {
        return 0.0;
    }
    hb.sum_ns.saturating_sub(ha.sum_ns) as f64 / n as f64 / 1000.0
}
