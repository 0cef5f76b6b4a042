//! The content-addressed plan cache.
//!
//! The expensive part of simulating a generated design is not the
//! cycle loop — it is everything before it: metagen instantiation,
//! netlist validation and the lowered scheduler's levelization. All
//! three depend only on the *design*, never on the stimulus, so the
//! service caches their products keyed by the design's content
//! address ([`hdp_conform::wire::design_hash`]): the validated
//! [`Netlist`], the pristine (never-evaluated) [`NetlistComponent`]
//! built from it, and, when the design levelizes, the exported
//! [`CompiledPlan`]. A warm submission clones the component template
//! (a memcpy of its state vectors — the netlist itself is shared
//! behind an `Arc`) and installs the plan
//! ([`hdp_sim::Simulator::install_plan`]) instead of re-deriving any
//! of it — compile once, simulate millions of stimuli.
//!
//! Eviction is least-recently-used over a fixed entry budget, and
//! every lookup outcome is counted so the server can report its hit
//! ratio. Alongside the entry count the cache keeps a byte-level
//! estimate of what is resident ([`PlanCache::bytes_resident`]) and
//! cumulative inserted/evicted byte counters, so the metrics plane
//! can expose cache pressure, not just hit ratio.

use hdp_hdl::{Cell, Netlist};
use hdp_sim::{CompiledPlan, NetlistComponent};
use std::collections::HashMap;
use std::sync::Arc;

/// Lookup / insertion counters of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a cached entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted (first insertion per key).
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Plans attached to already cached designs
    /// ([`PlanCache::attach_plan`] calls that stuck).
    pub plan_attaches: u64,
    /// Estimated bytes ever made resident (insertions plus plan
    /// attachments; cumulative, survives evictions).
    pub bytes_inserted: u64,
    /// Estimated bytes released by evictions (cumulative).
    pub bytes_evicted: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when none happened).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / total as f64
            }
        }
    }
}

/// The per-design artefacts the cache hands out on a hit.
#[derive(Debug, Clone)]
pub struct CachedDesign {
    /// The validated netlist.
    pub netlist: Arc<Netlist>,
    /// A pristine, never-evaluated interpreter instance; clone it per
    /// job instead of re-levelizing and re-wiring.
    pub template: Arc<NetlistComponent>,
    /// The exported compiled schedule, once some job derived one.
    pub plan: Option<Arc<CompiledPlan>>,
}

impl CachedDesign {
    /// Estimated resident footprint of this entry in bytes: netlist
    /// structure plus the compiled plan's
    /// [`CompiledPlan::estimate_bytes`]. A cache-sizing estimate, not
    /// an allocator measurement — the interpreter template is counted
    /// via its netlist, whose shape dominates its state vectors.
    #[must_use]
    pub fn estimate_bytes(&self) -> u64 {
        let nets: u64 = self
            .netlist
            .nets()
            .iter()
            .map(|n| (std::mem::size_of::<hdp_hdl::Net>() + n.name().len()) as u64)
            .sum();
        let cells: u64 = self
            .netlist
            .cells()
            .iter()
            .map(|c| {
                (std::mem::size_of::<Cell>()
                    + c.name().len()
                    + (c.inputs().len() + c.outputs().len()) * std::mem::size_of::<u32>())
                    as u64
            })
            .sum();
        let plan = self.plan.as_ref().map_or(0, |p| p.estimate_bytes());
        nets + cells + plan
    }
}

/// One cached design plus its LRU stamp and byte estimate.
#[derive(Debug, Clone)]
struct Entry {
    design: CachedDesign,
    last_used: u64,
    bytes: u64,
}

/// An LRU cache of per-design artefacts, keyed by content address.
///
/// Not internally synchronised — the service wraps it in a mutex and
/// holds the lock only for lookups and insertions, never while a
/// simulation runs.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<String, Entry>,
    stats: CacheStats,
    bytes_resident: u64,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` designs. A zero
    /// capacity disables caching: every lookup misses and inserts are
    /// dropped.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            entries: HashMap::new(),
            stats: CacheStats::default(),
            bytes_resident: 0,
        }
    }

    /// Looks up a design by content address, refreshing its LRU
    /// position. Returns shared handles — the cache keeps ownership,
    /// and a lookup costs reference-count bumps, not deep clones.
    pub fn lookup(&mut self, hash: &str) -> Option<CachedDesign> {
        self.tick += 1;
        match self.entries.get_mut(hash) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(entry.design.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) a design, evicting the least recently
    /// used entry if the cache is full.
    pub fn insert(&mut self, hash: String, design: CachedDesign) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&hash) {
            // Concurrent submitters may both miss and both insert;
            // keep the richer entry (a plan beats no plan).
            entry.last_used = self.tick;
            if entry.design.plan.is_none() && design.plan.is_some() {
                entry.design.plan = design.plan;
                let grown = entry.design.estimate_bytes();
                self.stats.bytes_inserted += grown - entry.bytes;
                self.bytes_resident += grown - entry.bytes;
                entry.bytes = grown;
            }
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                if let Some(evicted) = self.entries.remove(&victim) {
                    self.stats.evictions += 1;
                    self.stats.bytes_evicted += evicted.bytes;
                    self.bytes_resident -= evicted.bytes;
                }
            }
        }
        let bytes = design.estimate_bytes();
        self.stats.bytes_inserted += bytes;
        self.bytes_resident += bytes;
        self.entries.insert(
            hash,
            Entry {
                design,
                last_used: self.tick,
                bytes,
            },
        );
        self.stats.insertions += 1;
    }

    /// Attaches a plan to an already cached design (a warm submission
    /// that had to compile locally publishes its schedule here).
    pub fn attach_plan(&mut self, hash: &str, plan: CompiledPlan) {
        if let Some(entry) = self.entries.get_mut(hash) {
            if entry.design.plan.is_none() {
                let plan_bytes = plan.estimate_bytes();
                entry.design.plan = Some(Arc::new(plan));
                self.stats.plan_attaches += 1;
                self.stats.bytes_inserted += plan_bytes;
                self.bytes_resident += plan_bytes;
                entry.bytes += plan_bytes;
            }
        }
    }

    /// Number of cached designs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry budget.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Estimated bytes currently resident across all entries (the
    /// gauge behind `cache.bytes_resident` in metrics snapshots;
    /// always `bytes_inserted - bytes_evicted`).
    #[must_use]
    pub fn bytes_resident(&self) -> u64 {
        self.bytes_resident
    }

    /// Counters since construction.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdp_hdl::{Entity, Netlist, PortDir};

    /// A minimal valid design (q' = q + 1) wrapped as a cache entry.
    fn tiny_design(name: &str) -> CachedDesign {
        let entity = Entity::builder(name)
            .port("q", PortDir::Out, 4)
            .unwrap()
            .build()
            .unwrap();
        let mut nl = Netlist::new(entity);
        let q = nl.add_net("q", 4).unwrap();
        let d = nl.add_net("d", 4).unwrap();
        nl.add_cell(
            "u_reg",
            hdp_hdl::prim::Prim::Reg {
                width: 4,
                has_enable: false,
                reset_value: 0,
            },
            vec![d],
            vec![q],
        )
        .unwrap();
        nl.add_cell(
            "u_inc",
            hdp_hdl::prim::Prim::Inc { width: 4 },
            vec![q],
            vec![d],
        )
        .unwrap();
        nl.bind_port("q", q).unwrap();
        let mut sim = hdp_sim::Simulator::new();
        let sig = sim.add_signal("q", 4).unwrap();
        let netlist = Arc::new(nl);
        let template = NetlistComponent::new_prevalidated(
            "dut",
            Arc::clone(&netlist),
            sim.bus(),
            &[("q", sig)],
        )
        .unwrap();
        CachedDesign {
            netlist,
            template: Arc::new(template),
            plan: None,
        }
    }

    #[test]
    fn counts_hits_and_misses() {
        let mut cache = PlanCache::new(4);
        assert!(cache.lookup("h1").is_none());
        cache.insert("h1".into(), tiny_design("a"));
        assert!(cache.lookup("h1").is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = PlanCache::new(2);
        cache.insert("h1".into(), tiny_design("a"));
        cache.insert("h2".into(), tiny_design("b"));
        assert!(cache.lookup("h1").is_some()); // refresh h1: h2 is now LRU
        cache.insert("h3".into(), tiny_design("c"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup("h2").is_none(), "h2 was the LRU victim");
        assert!(cache.lookup("h1").is_some());
        assert!(cache.lookup("h3").is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = PlanCache::new(0);
        cache.insert("h1".into(), tiny_design("a"));
        assert!(cache.is_empty());
        assert!(cache.lookup("h1").is_none());
    }

    #[test]
    fn byte_accounting_reconciles_across_insert_attach_evict() {
        let mut cache = PlanCache::new(1);
        cache.insert("h1".into(), tiny_design("a"));
        let after_insert = cache.bytes_resident();
        assert!(after_insert > 0, "a design has a nonzero footprint");
        assert_eq!(cache.stats().bytes_inserted, after_insert);

        // Attach a plan: resident and cumulative grow by the same amount.
        let design = tiny_design("a");
        let mut sim = hdp_sim::Simulator::new();
        let q = sim.add_signal("q", 4).unwrap();
        let comp = NetlistComponent::new_prevalidated(
            "dut",
            Arc::clone(&design.netlist),
            sim.bus(),
            &[("q", q)],
        )
        .unwrap();
        sim.add_component(comp);
        sim.set_mode(hdp_sim::SchedMode::Lowered);
        assert!(sim.compile().unwrap());
        let plan = sim.export_plan().expect("a counter levelizes");
        cache.attach_plan("h1", plan);
        let stats = cache.stats();
        assert_eq!(stats.plan_attaches, 1);
        assert!(cache.bytes_resident() > after_insert);
        assert_eq!(stats.bytes_inserted, cache.bytes_resident());

        // Evict by inserting a second design into capacity 1.
        cache.insert("h2".into(), tiny_design("b"));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(
            stats.bytes_inserted,
            stats.bytes_evicted + cache.bytes_resident(),
            "every byte is either resident or evicted"
        );
    }

    #[test]
    fn reinsert_keeps_existing_plan_slot_filled_once() {
        let mut cache = PlanCache::new(2);
        cache.insert("h1".into(), tiny_design("a"));
        cache.insert("h1".into(), tiny_design("a"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().insertions, 1);
    }
}
