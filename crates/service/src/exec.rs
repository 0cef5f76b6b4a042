//! Job execution against the plan cache.
//!
//! A job is a [`Case`] (design-space point + stimulus) plus
//! [`JobOptions`]. Execution mirrors the conformance engine's oracle
//! harness cycle for cycle — poke the row, reset on cycle 0 / settle
//! otherwise, record the settled output ports, clock edge — so a
//! service trace is directly comparable to any oracle trace.
//!
//! The cache closes the reuse loop:
//!
//! * **miss** — instantiate the spec, validate it while wiring the
//!   interpreter, simulate (the default lowered scheduler levelizes
//!   the design and translates each interpreter into a word-level op
//!   stream on the fly), then publish the netlist and
//!   the exported [`CompiledPlan`](hdp_sim::CompiledPlan) under the
//!   design's content address;
//! * **hit** — clone the cached netlist and install the cached plan
//!   ([`Simulator::install_plan`]), skipping metagen instantiation,
//!   the levelization settle and the lowering pass entirely.
//!
//! Cached and cold execution are bit-identical: the installed
//! schedule is the one a local compile would have produced, and the
//! cycle protocol never changes. The `verify` option re-runs every
//! job against a cache-free full-sweep reference and compares traces
//! to prove it.

use crate::cache::{CacheStats, CachedDesign, PlanCache};
use crate::metrics::{CacheSection, Counter, MetricsRegistry, MetricsSnapshot, ObsMode};
use crate::obs::{timed, JobSpan, SpanBuilder, Stage};
use crate::pool::run_sharded_observed;
use hdp_conform::wire::{design_hash, WireError};
use hdp_conform::{Case, Stimulus};
use hdp_hdl::{Netlist, PortDir};
use hdp_metagen::sampler::FAMILIES;
use hdp_sim::vcd::VcdRecorder;
use hdp_sim::{
    NetlistComponent, SchedMode, SignalId, SimError, SimStats, Simulator, TelemetryLevel,
};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A failure while accepting or running a job.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServiceError {
    /// The submission document did not parse.
    Wire(WireError),
    /// The design could not be generated or wired.
    Build {
        /// What went wrong.
        message: String,
    },
    /// The simulation failed mid-run.
    Sim {
        /// The stimulus cycle that failed (0-based).
        cycle: usize,
        /// The simulator's error.
        source: SimError,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Wire(e) => write!(f, "bad submission: {e}"),
            ServiceError::Build { message } => write!(f, "design build failed: {message}"),
            ServiceError::Sim { cycle, source } => {
                write!(f, "simulation failed at cycle #{cycle}: {source}")
            }
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServiceError::Wire(e) => Some(e),
            ServiceError::Sim { source, .. } => Some(source),
            ServiceError::Build { .. } => None,
        }
    }
}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::Wire(e)
    }
}

/// Per-job execution options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOptions {
    /// Scheduler mode. The default, [`SchedMode::Lowered`], is the
    /// mode that exports and installs plans (levelized schedule plus
    /// the word-level op streams); the cache still serves netlists to
    /// the others.
    pub mode: SchedMode,
    /// Record and return a VCD waveform of every port. Disables plan
    /// reuse for the job (the recorder changes the design shape).
    pub vcd: bool,
    /// Collect telemetry counters and return a summary.
    pub telemetry: bool,
    /// Re-run the job cache-free under the full-sweep reference
    /// scheduler and compare traces bit for bit.
    pub verify: bool,
    /// Record this job's per-stage [`JobSpan`] and return it in the
    /// outcome, even when the service is not sampling.
    pub span: bool,
}

impl Default for JobOptions {
    fn default() -> Self {
        Self {
            mode: SchedMode::Lowered,
            vcd: false,
            telemetry: false,
            verify: false,
            span: false,
        }
    }
}

/// The result of one executed job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Content address of the design ([`design_hash`]).
    pub design_hash: String,
    /// Human-readable design label.
    pub label: String,
    /// Whether the design was served from the cache.
    pub cache_hit: bool,
    /// Whether a cached [`CompiledPlan`](hdp_sim::CompiledPlan) was
    /// installed (always `false` on a miss or for modes that neither
    /// export nor install plans).
    pub plan_installed: bool,
    /// The design's non-input ports as `(name, width)`, in entity
    /// order — the columns of `trace`.
    pub ports: Vec<(String, usize)>,
    /// Settled four-state values, one row per stimulus cycle, one
    /// bit-string per port (MSB first; `X` marks undefined bits).
    pub trace: Vec<Vec<String>>,
    /// Stimulus cycles executed.
    pub cycles: usize,
    /// Telemetry summary, when requested.
    pub stats: Option<SimStats>,
    /// VCD waveform text, when requested.
    pub vcd: Option<String>,
    /// Outcome of the cold-reference comparison, when requested.
    pub verified: Option<bool>,
    /// The job's server-side stage timeline, when requested
    /// ([`JobOptions::span`]).
    pub span: Option<JobSpan>,
}

/// A simulator wired for one job.
struct BuiltSim {
    sim: Simulator,
    inputs: Vec<SignalId>,
    outputs: Vec<(String, SignalId)>,
    recorder: Option<hdp_sim::ComponentId>,
}

/// Builds a simulator for one job. On a cache hit, `template` is the
/// pristine interpreter instance to clone; signal ids are assigned
/// deterministically (entity port order from a fresh simulator), so a
/// template wired against one job's bus is valid for every job of the
/// same design. On a miss the netlist is validated and a fresh
/// template is built — and returned, so the caller can publish it.
fn build_sim(
    netlist: &Arc<Netlist>,
    template: Option<&NetlistComponent>,
    stim: &Stimulus,
    mode: SchedMode,
    telemetry: TelemetryLevel,
    want_vcd: bool,
) -> Result<(BuiltSim, Option<Arc<NetlistComponent>>), ServiceError> {
    let build_err = |message: String| ServiceError::Build { message };
    let mut sim = Simulator::with_mode(mode);
    sim.set_telemetry(telemetry);
    let mut bindings: Vec<(String, SignalId)> = Vec::new();
    let mut outputs = Vec::new();
    for port in netlist.entity().ports() {
        let id = sim
            .add_signal(port.name(), port.width())
            .map_err(|e| build_err(e.to_string()))?;
        bindings.push((port.name().to_owned(), id));
        if port.dir() != PortDir::In {
            outputs.push((port.name().to_owned(), id));
        }
    }
    let inputs = stim
        .inputs
        .iter()
        .map(|(name, _)| {
            bindings
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, id)| id)
                .ok_or_else(|| build_err(format!("stimulus input `{name}` is not a port")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (comp, built_template) = match template {
        Some(t) => (t.clone(), None),
        None => {
            let binding_refs: Vec<(&str, SignalId)> =
                bindings.iter().map(|(n, id)| (n.as_str(), *id)).collect();
            hdp_hdl::validate::check(netlist).map_err(|e| build_err(e.to_string()))?;
            let comp = NetlistComponent::new_prevalidated(
                "dut",
                Arc::clone(netlist),
                sim.bus(),
                &binding_refs,
            )
            .map_err(|e| build_err(e.to_string()))?;
            let t = Arc::new(comp.clone());
            (comp, Some(t))
        }
    };
    sim.add_component(comp);
    let recorder = want_vcd.then(|| {
        let watched: Vec<SignalId> = bindings.iter().map(|&(_, id)| id).collect();
        sim.add_component(VcdRecorder::new("vcd", watched))
    });
    Ok((
        BuiltSim {
            sim,
            inputs,
            outputs,
            recorder,
        },
        built_template,
    ))
}

/// Drives the stimulus through a built simulator with the oracle
/// protocol, returning the rendered output trace.
fn drive(built: &mut BuiltSim, stim: &Stimulus) -> Result<Vec<Vec<String>>, ServiceError> {
    let mut trace = Vec::with_capacity(stim.cycles.len());
    for (cycle, row) in stim.cycles.iter().enumerate() {
        let at = |source: SimError| ServiceError::Sim { cycle, source };
        for (&id, &value) in built.inputs.iter().zip(row) {
            built.sim.poke(id, value).map_err(at)?;
        }
        if cycle == 0 {
            built.sim.reset().map_err(at)?;
        } else {
            built.sim.settle().map_err(at)?;
        }
        let mut settled = Vec::with_capacity(built.outputs.len());
        for &(_, id) in &built.outputs {
            let v = built.sim.peek(id).map_err(at)?;
            settled.push(v.to_bit_string());
        }
        trace.push(settled);
        built.sim.step().map_err(at)?;
    }
    Ok(trace)
}

/// The simulation service: a plan cache plus the execution engine and
/// its metrics plane.
///
/// `Service` is `Sync` — one instance is shared by every worker of a
/// [server](crate::server) or batch run. The cache lock is held only
/// for lookups and insertions, never across a simulation; the
/// [`MetricsRegistry`] is lock-free.
#[derive(Debug)]
pub struct Service {
    cache: Mutex<PlanCache>,
    metrics: MetricsRegistry,
    catalog: Mutex<Option<Arc<hdp_synth::CharDb>>>,
}

impl Service {
    /// A service whose cache holds at most `cache_capacity` designs,
    /// recording monotonic counters ([`ObsMode::Counters`]).
    #[must_use]
    pub fn new(cache_capacity: usize) -> Self {
        Self::with_obs(cache_capacity, ObsMode::Counters)
    }

    /// A service with an explicit observability mode:
    /// [`ObsMode::Disabled`] for benchmarking the bare job path,
    /// [`ObsMode::Sampled`] for stage histograms, spans and
    /// simulator-telemetry absorption on every job.
    #[must_use]
    pub fn with_obs(cache_capacity: usize, obs: ObsMode) -> Self {
        Self {
            cache: Mutex::new(PlanCache::new(cache_capacity)),
            metrics: MetricsRegistry::new(obs),
            catalog: Mutex::new(None),
        }
    }

    /// Installs a characterisation catalog, enabling the `select`
    /// wire verb. Replaces any previously installed catalog; the
    /// `Arc` lets every in-flight query keep a consistent snapshot
    /// while a newer catalog is swapped in.
    ///
    /// # Panics
    ///
    /// Panics if a previous catalog user panicked while holding the
    /// lock.
    pub fn set_catalog(&self, catalog: Arc<hdp_synth::CharDb>) {
        *self.catalog.lock().expect("catalog lock poisoned") = Some(catalog);
    }

    /// The installed characterisation catalog, if any.
    ///
    /// # Panics
    ///
    /// Panics if a previous catalog user panicked while holding the
    /// lock.
    #[must_use]
    pub fn catalog(&self) -> Option<Arc<hdp_synth::CharDb>> {
        self.catalog.lock().expect("catalog lock poisoned").clone()
    }

    /// The live metrics plane.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Cache counters since construction.
    ///
    /// # Panics
    ///
    /// Panics if a previous cache user panicked while holding the lock.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("cache lock poisoned").stats()
    }

    /// Number of designs currently cached.
    ///
    /// # Panics
    ///
    /// Panics if a previous cache user panicked while holding the lock.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.cache.lock().expect("cache lock poisoned").len()
    }

    /// A complete metrics snapshot: the registry's counters, gauges
    /// and histograms with the cache section stitched in from
    /// [`PlanCache::stats`]. This is the document behind the `stats`
    /// wire verb and the `hdp-service metrics` CLI.
    ///
    /// # Panics
    ///
    /// Panics if a previous cache user panicked while holding the lock.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let cache = self.cache.lock().expect("cache lock poisoned");
        let stats = cache.stats();
        snap.cache = Some(CacheSection {
            hits: stats.hits,
            misses: stats.misses,
            insertions: stats.insertions,
            evictions: stats.evictions,
            plan_attaches: stats.plan_attaches,
            bytes_inserted: stats.bytes_inserted,
            bytes_evicted: stats.bytes_evicted,
            bytes_resident: cache.bytes_resident(),
            len: cache.len() as u64,
            capacity: cache.capacity() as u64,
        });
        snap
    }

    /// Executes one job.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when the design cannot be built or the
    /// simulation fails; see the module docs for the cache protocol.
    pub fn run_case(&self, case: &Case, opts: &JobOptions) -> Result<JobOutcome, ServiceError> {
        // Reject before the job is counted: a rejected submission
        // never reaches the cache, so counting it in `jobs_total`
        // would break the `hits + misses == jobs_total` invariant.
        if case.spec.family >= FAMILIES.len() {
            self.metrics.inc(Counter::JobsRejected);
            return Err(ServiceError::Build {
                message: format!("design family index {} is out of range", case.spec.family),
            });
        }
        let mut span = (self.metrics.mode().sampled() || opts.span).then(SpanBuilder::new);
        let result = self.run_accepted(case, opts, &mut span);
        match &result {
            Ok(out) => {
                self.metrics.inc(Counter::JobsOk);
                self.metrics.inc(Counter::for_mode(opts.mode));
                if out.plan_installed {
                    self.metrics.inc(Counter::PlansInstalled);
                }
                if opts.vcd {
                    self.metrics.inc(Counter::JobsVcd);
                }
                if opts.verify {
                    self.metrics.inc(Counter::JobsVerify);
                }
                if out.verified == Some(false) {
                    self.metrics.inc(Counter::VerifyFailures);
                }
            }
            Err(ServiceError::Sim { .. }) => {
                self.metrics.inc(Counter::ErrorsSim);
                self.metrics.inc(Counter::for_mode(opts.mode));
            }
            Err(_) => {
                self.metrics.inc(Counter::ErrorsBuild);
                self.metrics.inc(Counter::for_mode(opts.mode));
            }
        }
        match result {
            Ok(mut out) => {
                if let Some(builder) = span {
                    let job_span = builder.finish();
                    for stage in &job_span.stages {
                        self.metrics.record_stage_ns(stage.stage, stage.dur_ns);
                    }
                    if opts.span {
                        out.span = Some(job_span);
                    }
                }
                Ok(out)
            }
            Err(e) => {
                // Errored jobs still record their timeline — a latency
                // regression visible only on failures is still real.
                if let Some(builder) = span {
                    let job_span = builder.finish();
                    for stage in &job_span.stages {
                        self.metrics.record_stage_ns(stage.stage, stage.dur_ns);
                    }
                }
                Err(e)
            }
        }
    }

    /// The accepted-job path: everything after the family-range
    /// check. `jobs_total` is incremented exactly at the cache
    /// lookup, so `cache hits + misses == jobs_total` by construction.
    fn run_accepted(
        &self,
        case: &Case,
        opts: &JobOptions,
        span: &mut Option<SpanBuilder>,
    ) -> Result<JobOutcome, ServiceError> {
        let label = case.spec.label();
        let (hash, cached) = timed(span, Stage::CacheLookup, || {
            let hash = design_hash(&case.spec);
            self.metrics.inc(Counter::JobsTotal);
            let cached = self
                .cache
                .lock()
                .expect("cache lock poisoned")
                .lookup(&hash);
            (hash, cached)
        });
        let cache_hit = cached.is_some();

        // A VCD recorder adds a component, so the sim no longer has
        // the shape the cached plan was exported from.
        let plan_eligible = opts.mode == SchedMode::Lowered && !opts.vcd;
        // Sampled services run every job with simulator counters on,
        // so settles / executed ops / fallback causes aggregate into
        // the service-wide metrics.
        let telemetry = if opts.telemetry || self.metrics.mode().sampled() {
            TelemetryLevel::Counters
        } else {
            TelemetryLevel::Off
        };
        let (mut built, built_template, plan_installed) = timed(span, Stage::Build, || {
            let (netlist, template, cached_plan) = match cached {
                Some(design) => (design.netlist, Some(design.template), design.plan),
                None => {
                    let netlist = case.spec.instantiate().map_err(|e| ServiceError::Build {
                        message: e.to_string(),
                    })?;
                    (Arc::new(netlist), None, None)
                }
            };
            let (mut built, built_template) = build_sim(
                &netlist,
                template.as_deref(),
                &case.stimulus,
                opts.mode,
                telemetry,
                opts.vcd,
            )?;
            let mut plan_installed = false;
            if plan_eligible {
                if let Some(plan) = &cached_plan {
                    // A mismatch can only mean the cached entry predates a
                    // generator change; fall back to a local compile.
                    plan_installed = built.sim.install_plan(plan).is_ok();
                }
            }
            Ok::<_, ServiceError>((built, (netlist, built_template), plan_installed))
        })?;
        let (netlist, built_template) = built_template;

        let trace = timed(span, Stage::Execute, || drive(&mut built, &case.stimulus))?;

        // Publish what this run derived. Exporting after the run (not
        // before) captures every driver link the stimulus exercised,
        // so the installed schedule ages exactly like this one did.
        timed(span, Stage::Publish, || {
            if plan_eligible && !plan_installed {
                let exported = match built.sim.export_plan() {
                    Some(plan) => Some(plan),
                    None => {
                        // Short stimuli can finish before the lazy build
                        // triggers; force it so the next submission wins.
                        built.sim.compile().map_err(|source| ServiceError::Sim {
                            cycle: case.stimulus.cycles.len(),
                            source,
                        })?;
                        built.sim.export_plan()
                    }
                };
                let mut cache = self.cache.lock().expect("cache lock poisoned");
                if cache_hit {
                    if let Some(plan) = exported {
                        cache.attach_plan(&hash, plan);
                    }
                } else {
                    cache.insert(
                        hash.clone(),
                        CachedDesign {
                            netlist: Arc::clone(&netlist),
                            template: built_template.expect("miss path built a template"),
                            plan: exported.map(Arc::new),
                        },
                    );
                }
            } else if !cache_hit {
                self.cache.lock().expect("cache lock poisoned").insert(
                    hash.clone(),
                    CachedDesign {
                        netlist: Arc::clone(&netlist),
                        template: built_template.expect("miss path built a template"),
                        plan: None,
                    },
                );
            }
            Ok::<_, ServiceError>(())
        })?;

        let verified = timed(span, Stage::Verify, || {
            if !opts.verify {
                return Ok::<_, ServiceError>(None);
            }
            let cold_netlist = case.spec.instantiate().map_err(|e| ServiceError::Build {
                message: e.to_string(),
            })?;
            let (mut cold, _) = build_sim(
                &Arc::new(cold_netlist),
                None,
                &case.stimulus,
                SchedMode::FullSweep,
                TelemetryLevel::Off,
                false,
            )?;
            Ok(Some(drive(&mut cold, &case.stimulus)? == trace))
        })?;

        let stats = (telemetry != TelemetryLevel::Off).then(|| built.sim.stats());
        if let Some(stats) = &stats {
            self.metrics.absorb_sim_stats(stats);
        }
        let vcd = built.recorder.map(|id| {
            built
                .sim
                .component::<VcdRecorder>(id)
                .expect("recorder present")
                .render(built.sim.bus())
        });
        Ok(JobOutcome {
            design_hash: hash,
            label,
            cache_hit,
            plan_installed,
            ports: built
                .outputs
                .iter()
                .map(|(n, id)| (n.clone(), built.sim.bus().width(*id).unwrap_or(0)))
                .collect(),
            trace,
            cycles: case.stimulus.cycles.len(),
            stats: opts.telemetry.then(|| stats.clone()).flatten(),
            vcd,
            verified,
            span: None,
        })
    }

    /// Executes a batch of jobs on a sharded worker pool, sharing
    /// this service's cache. Results come back in input order; each
    /// shard reports its busy time and item count to the metrics
    /// plane (busy time only when sampling — it is a clock read).
    #[must_use]
    pub fn run_batch(
        &self,
        cases: Vec<Case>,
        opts: &JobOptions,
        threads: usize,
    ) -> Vec<Result<JobOutcome, ServiceError>> {
        let sampled = self.metrics.mode().sampled();
        run_sharded_observed(
            cases,
            threads,
            |case| self.run_case(&case, opts),
            |shard, busy_ns, items| {
                self.metrics
                    .record_shard(shard, if sampled { busy_ns } else { 0 }, items);
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdp_metagen::sampler::sample_spec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_case(seed: u64, cycles: usize) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = sample_spec(&mut rng);
        let netlist = spec.instantiate().unwrap();
        let stimulus = Stimulus::sample(&netlist, cycles, &mut rng);
        Case { spec, stimulus }
    }

    #[test]
    fn second_submission_hits_and_matches() {
        let service = Service::new(8);
        let case = sample_case(42, 10);
        let opts = JobOptions::default();
        let cold = service.run_case(&case, &opts).unwrap();
        let warm = service.run_case(&case, &opts).unwrap();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert!(warm.plan_installed || cold.trace.is_empty());
        assert_eq!(cold.trace, warm.trace, "cached run must be bit-identical");
        assert_eq!(cold.design_hash, warm.design_hash);
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn lowered_default_executes_op_streams_and_hits_warm() {
        let service = Service::new(8);
        let case = sample_case(42, 10);
        let opts = JobOptions {
            telemetry: true,
            ..JobOptions::default()
        };
        assert_eq!(opts.mode, SchedMode::Lowered);
        let cold = service.run_case(&case, &opts).unwrap();
        let warm = service.run_case(&case, &opts).unwrap();
        assert!(warm.cache_hit && warm.plan_installed);
        assert_eq!(
            cold.trace, warm.trace,
            "warm lowered run must be bit-identical"
        );
        let stats = warm.stats.expect("telemetry requested");
        assert!(
            stats.lowered_settles > 0,
            "the warm job must settle on the lowered op-stream walk"
        );
    }

    #[test]
    fn verify_option_confirms_against_the_reference() {
        let service = Service::new(8);
        let case = sample_case(7, 6);
        let opts = JobOptions {
            verify: true,
            ..JobOptions::default()
        };
        let out = service.run_case(&case, &opts).unwrap();
        assert_eq!(out.verified, Some(true));
    }

    #[test]
    fn vcd_option_returns_a_waveform() {
        let service = Service::new(8);
        let case = sample_case(11, 5);
        let opts = JobOptions {
            vcd: true,
            ..JobOptions::default()
        };
        let out = service.run_case(&case, &opts).unwrap();
        let vcd = out.vcd.expect("vcd requested");
        assert!(vcd.contains("$var wire"));
        assert!(!out.plan_installed, "vcd jobs never install plans");
    }

    #[test]
    fn batch_shares_the_cache_across_workers() {
        let service = Service::new(8);
        let case = sample_case(99, 8);
        let cases: Vec<Case> = (0..6).map(|_| case.clone()).collect();
        let results = service.run_batch(cases, &JobOptions::default(), 3);
        let outcomes: Vec<_> = results.into_iter().map(Result::unwrap).collect();
        let reference = &outcomes[0].trace;
        for out in &outcomes {
            assert_eq!(&out.trace, reference);
        }
        let stats = service.cache_stats();
        assert_eq!(stats.hits + stats.misses, 6);
        assert!(stats.hits >= 1, "same design must eventually hit");
    }

    /// The multi-clock `async_fifo` family rides through the service
    /// like any other design: the family-range gate admits it, the
    /// cold run executes (falling back from lowered op streams to
    /// interpreted ticks on partial firings), the warm run serves the
    /// cached artefacts bit-identically, and the trace is independent
    /// of the scheduler mode.
    #[test]
    fn async_fifo_jobs_run_and_cache_across_modes() {
        use hdp_metagen::sampler::DesignSpec;
        use hdp_metagen::OpSet;
        let service = Service::new(8);
        let mut rng = StdRng::seed_from_u64(0xF1F0);
        let spec = DesignSpec {
            family: 11,
            data_width: 4,
            depth: 4,
            addr_width: 8,
            key_width: 8,
            wide: 0,
            write_side: false,
            ops: OpSet::new(),
            wr_period: 2,
            rd_period: 3,
        };
        let netlist = spec.instantiate().unwrap();
        let stimulus = Stimulus::sample(&netlist, 12, &mut rng);
        let case = Case { spec, stimulus };
        let cold = service.run_case(&case, &JobOptions::default()).unwrap();
        let warm = service.run_case(&case, &JobOptions::default()).unwrap();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert_eq!(cold.trace, warm.trace);
        assert!(!cold.trace.is_empty());
        let full = service
            .run_case(
                &case,
                &JobOptions {
                    mode: SchedMode::FullSweep,
                    ..JobOptions::default()
                },
            )
            .unwrap();
        assert_eq!(cold.trace, full.trace, "trace must be mode-independent");
    }
}
