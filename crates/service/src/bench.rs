//! The service's self-benchmark: cold pass vs warm pass.
//!
//! Samples a fixed-seed batch of distinct designs and measures two
//! regimes. **Cold**: every design misses the cache (instantiate +
//! validate + levelize + compile). **Warm**: the cache already holds
//! every design, so a submission only pays the netlist replay and the
//! cycle loop. Each regime is measured `reps` times — cold against a
//! fresh service per repetition, warm against one primed service —
//! and the best repetition is reported, which washes out scheduler
//! noise on passes that only take a few milliseconds. The report
//! records sustained designs/sec for both regimes, the warm hit
//! ratio, and whether warm execution reproduced the cold traces bit
//! for bit — which it must.
//!
//! The run also prices the observability plane: a second primed
//! service with metrics fully disabled ([`ObsMode::Disabled`]) is
//! timed on the same warm batch, and the report's
//! `obs_overhead_pct` is how much slower the default
//! counters-enabled warm pass is than that baseline. CI gates it
//! below a few percent — the counters fast path is a handful of
//! relaxed atomic increments per job.

use crate::cache::CacheStats;
use crate::exec::{JobOptions, JobOutcome, Service, ServiceError};
use crate::metrics::ObsMode;
use hdp_conform::wire::design_hash;
use hdp_conform::{Case, Stimulus};
use hdp_metagen::sampler::sample_spec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

/// Parameters of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Distinct designs in the batch.
    pub designs: usize,
    /// Stimulus length per design, in cycles. The default is short on
    /// purpose: the service's dispatch regime is many small stimuli
    /// against a cached design (conformance fuzzing, stimulus
    /// sweeps), where the per-design preparation the cache removes
    /// dominates the cycle loop it cannot remove.
    pub cycles: usize,
    /// RNG seed for design and stimulus sampling.
    pub seed: u64,
    /// Worker threads for batch execution.
    pub threads: usize,
    /// Plan-cache entry budget (must hold the whole batch for a
    /// fully warm second pass).
    pub cache_capacity: usize,
    /// Timed repetitions per regime; the best one is reported.
    pub reps: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            designs: 50,
            cycles: 6,
            seed: 0xda7e_2005,
            threads: 4,
            cache_capacity: 64,
            reps: 5,
        }
    }
}

/// The measurements of one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The configuration that produced this report.
    pub config: BenchConfig,
    /// Best wall-clock seconds for a cold (all-miss) pass.
    pub cold_secs: f64,
    /// Best wall-clock seconds for a warm (all-hit) pass.
    pub warm_secs: f64,
    /// Cache counters of the warm service (priming pass included).
    pub stats: CacheStats,
    /// Hit ratio over the timed warm passes alone (1.0 when every
    /// submission reused a cached design).
    pub warm_hit_ratio: f64,
    /// Whether the warm pass reproduced the cold traces bit for bit.
    pub identical: bool,
    /// Designs whose compiled plan was installed on the warm pass.
    pub plans_installed: usize,
    /// Warm-pass slowdown of the default counters-enabled service
    /// over an observability-disabled baseline, in percent (clamped
    /// at 0 — measurement noise can make the instrumented pass win).
    pub obs_overhead_pct: f64,
}

impl BenchReport {
    /// Sustained designs/sec of the cold pass.
    #[must_use]
    pub fn cold_rate(&self) -> f64 {
        rate(self.config.designs, self.cold_secs)
    }

    /// Sustained designs/sec of the warm pass.
    #[must_use]
    pub fn warm_rate(&self) -> f64 {
        rate(self.config.designs, self.warm_secs)
    }

    /// Warm throughput over cold throughput.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.warm_secs > 0.0 {
            self.cold_secs / self.warm_secs
        } else {
            f64::INFINITY
        }
    }

    /// Renders the report as the `BENCH_service.json` document.
    ///
    /// Hand-formatted because the report carries floating-point rates
    /// ([`hdp_conform::Json`] is integer-only by design).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"schema\": \"hdp-service-bench-v1\",\n");
        let _ = writeln!(json, "  \"designs\": {},", self.config.designs);
        let _ = writeln!(json, "  \"cycles\": {},", self.config.cycles);
        let _ = writeln!(json, "  \"seed\": {},", self.config.seed);
        let _ = writeln!(json, "  \"threads\": {},", self.config.threads);
        let _ = writeln!(json, "  \"reps\": {},", self.config.reps);
        let mode = JobOptions::default().mode.label();
        let _ = writeln!(json, "  \"mode\": \"{mode}\",");
        let _ = writeln!(json, "  \"cold_secs\": {:.6},", self.cold_secs);
        let _ = writeln!(json, "  \"warm_secs\": {:.6},", self.warm_secs);
        let _ = writeln!(json, "  \"cold_designs_per_sec\": {:.1},", self.cold_rate());
        let _ = writeln!(json, "  \"warm_designs_per_sec\": {:.1},", self.warm_rate());
        let _ = writeln!(json, "  \"speedup\": {:.2},", self.speedup());
        let _ = writeln!(json, "  \"warm_hit_ratio\": {:.4},", self.warm_hit_ratio);
        let _ = writeln!(
            json,
            "  \"cache_hit_ratio\": {:.4},",
            self.stats.hit_ratio()
        );
        let _ = writeln!(json, "  \"cache_hits\": {},", self.stats.hits);
        let _ = writeln!(json, "  \"cache_misses\": {},", self.stats.misses);
        let _ = writeln!(json, "  \"plans_installed\": {},", self.plans_installed);
        let _ = writeln!(
            json,
            "  \"obs_overhead_pct\": {:.2},",
            self.obs_overhead_pct
        );
        let _ = writeln!(json, "  \"identical\": {}", self.identical);
        json.push('}');
        json
    }
}

/// Back-to-back warm (and baseline) passes per timed repetition. A
/// single warm pass over the default batch is only a couple of
/// milliseconds — far too short to resolve a few-percent
/// observability overhead against scheduler noise — so each timed
/// region runs this many passes and reports the per-pass average.
pub const WARM_PASSES: usize = 8;

fn rate(designs: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        #[allow(clippy::cast_precision_loss)]
        {
            designs as f64 / secs
        }
    } else {
        f64::INFINITY
    }
}

/// Samples `count` cases with pairwise-distinct design hashes.
///
/// # Panics
///
/// When a sampled design fails to instantiate (a metagen bug).
#[must_use]
pub fn sample_batch(count: usize, cycles: usize, seed: u64) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut cases = Vec::with_capacity(count);
    while cases.len() < count {
        let spec = sample_spec(&mut rng);
        if !seen.insert(design_hash(&spec)) {
            continue; // duplicate design: resample
        }
        let netlist = spec.instantiate().expect("sampled design instantiates");
        let stimulus = Stimulus::sample(&netlist, cycles, &mut rng);
        cases.push(Case { spec, stimulus });
    }
    cases
}

/// Runs the cold-vs-warm benchmark.
///
/// # Errors
///
/// The first [`ServiceError`] any job produced.
pub fn run(config: &BenchConfig) -> Result<BenchReport, ServiceError> {
    let cases = sample_batch(config.designs, config.cycles, config.seed);
    let opts = JobOptions::default();
    let reps = config.reps.max(1);

    // Warm service: primed with an untimed pass so every timed warm
    // repetition hits the cache on every design.
    let service = Service::new(config.cache_capacity);
    let primer = service.run_batch(cases.clone(), &opts, config.threads);
    let _: Vec<JobOutcome> = primer.into_iter().collect::<Result<_, _>>()?;
    let primed_stats = service.cache_stats();

    // Observability baseline: an identically primed service with the
    // metrics plane disabled, timed on the same warm batch. The gap
    // between this and the default (counters-on) warm pass is the
    // price of observability.
    let baseline = Service::with_obs(config.cache_capacity, ObsMode::Disabled);
    let primer = baseline.run_batch(cases.clone(), &opts, config.threads);
    let _: Vec<JobOutcome> = primer.into_iter().collect::<Result<_, _>>()?;

    // The regimes are interleaved — cold pass, warm pass, repeat — so
    // a load or frequency shift mid-benchmark skews both the same
    // way instead of silently inflating (or deflating) the ratio.
    // Each repetition's cold pass uses a fresh (empty-cache) service,
    // so every submission pays the full instantiate/validate/compile.
    //
    let mut cold_secs = f64::INFINITY;
    let mut warm_secs = f64::INFINITY;
    let mut baseline_secs = f64::INFINITY;
    let mut cold_outcomes: Option<Vec<JobOutcome>> = None;
    let mut warm_outcomes: Option<Vec<JobOutcome>> = None;
    for rep in 0..reps {
        let cold_service = Service::new(config.cache_capacity);
        let start = Instant::now();
        let pass = cold_service.run_batch(cases.clone(), &opts, config.threads);
        cold_secs = cold_secs.min(start.elapsed().as_secs_f64());
        let pass: Vec<JobOutcome> = pass.into_iter().collect::<Result<_, _>>()?;
        cold_outcomes.get_or_insert(pass);

        // Alternate which regime runs first: whichever goes second
        // starts with caches and branch predictors warmed by the
        // first, so a fixed order would systematically flatter one
        // side of the overhead ratio. Taking the per-regime minimum
        // over alternating reps gives both sides equal chances at
        // the favoured slot.
        let mut time_warm = |warm_secs: &mut f64| -> Result<(), ServiceError> {
            let start = Instant::now();
            for _ in 0..WARM_PASSES {
                let pass = service.run_batch(cases.clone(), &opts, config.threads);
                let pass: Vec<JobOutcome> = pass.into_iter().collect::<Result<_, _>>()?;
                warm_outcomes.get_or_insert(pass);
            }
            #[allow(clippy::cast_precision_loss)]
            {
                *warm_secs = warm_secs.min(start.elapsed().as_secs_f64() / WARM_PASSES as f64);
            }
            Ok(())
        };
        let time_baseline = |baseline_secs: &mut f64| -> Result<(), ServiceError> {
            let start = Instant::now();
            for _ in 0..WARM_PASSES {
                let pass = baseline.run_batch(cases.clone(), &opts, config.threads);
                let _: Vec<JobOutcome> = pass.into_iter().collect::<Result<_, _>>()?;
            }
            #[allow(clippy::cast_precision_loss)]
            {
                *baseline_secs =
                    baseline_secs.min(start.elapsed().as_secs_f64() / WARM_PASSES as f64);
            }
            Ok(())
        };
        if rep % 2 == 0 {
            time_warm(&mut warm_secs)?;
            time_baseline(&mut baseline_secs)?;
        } else {
            time_baseline(&mut baseline_secs)?;
            time_warm(&mut warm_secs)?;
        }
    }
    let cold = cold_outcomes.expect("at least one cold repetition ran");
    let warm = warm_outcomes.expect("at least one warm repetition ran");

    let identical = cold.len() == warm.len()
        && cold
            .iter()
            .zip(&warm)
            .all(|(c, w)| c.trace == w.trace && c.ports == w.ports);
    let plans_installed = warm.iter().filter(|w| w.plan_installed).count();
    let stats = service.cache_stats();
    let warm_lookups = (stats.hits + stats.misses) - (primed_stats.hits + primed_stats.misses);
    #[allow(clippy::cast_precision_loss)]
    let warm_hit_ratio = if warm_lookups == 0 {
        0.0
    } else {
        (stats.hits - primed_stats.hits) as f64 / warm_lookups as f64
    };

    let obs_overhead_pct = if baseline_secs > 0.0 {
        ((warm_secs / baseline_secs) - 1.0).max(0.0) * 100.0
    } else {
        0.0
    };

    Ok(BenchReport {
        config: *config,
        cold_secs,
        warm_secs,
        stats,
        warm_hit_ratio,
        identical,
        plans_installed,
        obs_overhead_pct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_designs_are_pairwise_distinct() {
        let cases = sample_batch(12, 4, 9);
        let hashes: std::collections::HashSet<String> =
            cases.iter().map(|c| design_hash(&c.spec)).collect();
        assert_eq!(hashes.len(), 12);
    }

    #[test]
    fn warm_pass_hits_and_reproduces() {
        let config = BenchConfig {
            designs: 8,
            cycles: 6,
            threads: 2,
            reps: 2,
            ..BenchConfig::default()
        };
        let report = run(&config).unwrap();
        assert!(report.identical, "warm trace must match cold trace");
        assert_eq!(report.stats.misses, 8, "only the primer pass misses");
        assert_eq!(
            report.stats.hits,
            (2 * WARM_PASSES * 8) as u64,
            "every timed warm pass hits"
        );
        assert!((report.warm_hit_ratio - 1.0).abs() < 1e-9);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"hdp-service-bench-v1\""));
        assert!(json.contains("\"identical\": true"));
        assert!(json.contains("\"obs_overhead_pct\""));
        assert!(report.obs_overhead_pct >= 0.0);
    }
}
