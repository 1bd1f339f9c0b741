//! The plan cache: one sharded, memory-budgeted cache type behind every
//! [`Workflow`]'s own plan lookups and behind the prediction server's
//! shared resident set.
//!
//! [`SharedPlanCache`] holds immutable [`Arc<CompiledPlan>`] values — each
//! the stored answer of one request, strict and graceful — in `N`
//! independently locked shards, keyed by
//! `(suite generation, network fingerprint, batch)`:
//!
//! * the **suite generation** ([`Workflow::generation`]) is minted fresh
//!   by every training run, so swapping a retrained suite under the
//!   server changes every key it can produce — a reused cache
//!   *structurally cannot* serve plans compiled against retired models;
//! * the **network fingerprint** ([`Network::fingerprint`]) hashes the
//!   full layer structure, so two different networks never alias; it is
//!   computed once when the network is built, so making a key walks no
//!   layers and a warm hit costs one shard lock and one map lookup;
//! * the **batch** completes the request identity.
//!
//! Each shard runs LRU eviction under a per-shard slice of the
//! configured memory budget, charging each entry
//! [`CompiledPlan::approx_bytes`] (a fixed size, plus the notes of a
//! degraded answer); the measured size never exceeds the budget (an
//! entry larger than a whole shard's slice is served uncached rather
//! than admitted). A miss compiles — walks the trained models once —
//! *outside* the shard lock, with an in-flight set + condvar so
//! concurrent requests for the same key wait for the one compiling
//! thread instead of duplicating its work — lookups stay wait-free of
//! compilation, and each key compiles at most once per residency.
//!
//! Cloning a cache snapshots every shard's entries and LRU order (the
//! `Arc`s are shared, nothing recompiles) into an independent cache with
//! fresh counters, so a cloned [`Workflow`] starts warm and invalidating
//! it never drains its ancestor.

use crate::error::PredictError;
use crate::plan::CompiledPlan;
use crate::workflow::Workflow;
use dnnperf_dnn::Network;
use dnnperf_sched::sync::{lock_unpoisoned, wait_unpoisoned};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Identity of one cached plan. Ordering is derived so shards can use
/// ordinary B-tree maps (deterministic iteration, no hash seeding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlanKey {
    /// Suite generation the plan was compiled against.
    pub generation: u64,
    /// Structural fingerprint of the network.
    pub fingerprint: u64,
    /// Batch size of the request.
    pub batch: usize,
}

impl PlanKey {
    /// The key for a request against a given suite. O(1): the network's
    /// fingerprint was hashed when it was built.
    pub fn of(suite: &Workflow, net: &Network, batch: usize) -> Self {
        PlanKey {
            generation: suite.generation(),
            fingerprint: net.fingerprint(),
            batch,
        }
    }

    /// FNV-1a mix of the key fields (shard selection).
    fn mix(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = OFFSET;
        for v in [self.generation, self.fingerprint, self.batch as u64] {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        }
        h
    }
}

/// Configuration of a [`SharedPlanCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of lock-striped shards. More shards mean less contention;
    /// the key mix spreads requests uniformly. Clamped to at least 1.
    pub shards: usize,
    /// Total memory budget in bytes across all shards, charged per entry
    /// via [`CompiledPlan::approx_bytes`]. Each shard gets an equal
    /// slice. Clamped to at least 1 byte per shard.
    pub budget_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            budget_bytes: 64 << 20,
        }
    }
}

/// A point-in-time snapshot of cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a resident plan.
    pub hits: u64,
    /// Lookups that compiled a plan (including waiting on another
    /// thread's compile of the same key).
    pub misses: u64,
    /// Plans actually compiled (`misses` minus piggy-backed waiters).
    pub compiles: u64,
    /// Entries evicted to stay under the memory budget.
    pub evictions: u64,
    /// Plans served uncached because they alone exceed a shard's budget
    /// slice.
    pub uncacheable: u64,
    /// Resident entries right now.
    pub entries: usize,
    /// Measured resident bytes right now.
    pub bytes: usize,
}

#[derive(Clone)]
struct Entry {
    plan: Arc<CompiledPlan>,
    stamp: u64,
    bytes: usize,
}

#[derive(Default)]
struct ShardState {
    plans: BTreeMap<PlanKey, Entry>,
    /// LRU index: recency stamp -> key. Stamps are unique per shard.
    lru: BTreeMap<u64, PlanKey>,
    /// Keys currently being compiled by some thread.
    inflight: BTreeSet<PlanKey>,
    tick: u64,
    bytes: usize,
}

impl ShardState {
    fn touch(&mut self, key: PlanKey) -> Option<Arc<CompiledPlan>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.plans.get_mut(&key)?;
        self.lru.remove(&entry.stamp);
        entry.stamp = tick;
        self.lru.insert(tick, key);
        Some(entry.plan.clone())
    }

    /// Evicts least-recently-used entries (never `keep`) until the shard
    /// fits `budget`. Returns how many entries were evicted.
    fn evict_to_budget(&mut self, budget: usize, keep: PlanKey) -> u64 {
        let mut evicted = 0;
        while self.bytes > budget {
            let victim = match self
                .lru
                .iter()
                .map(|(s, k)| (*s, *k))
                .find(|(_, k)| *k != keep)
            {
                Some(v) => v,
                None => break,
            };
            self.lru.remove(&victim.0);
            if let Some(e) = self.plans.remove(&victim.1) {
                self.bytes = self.bytes.saturating_sub(e.bytes);
            }
            evicted += 1;
        }
        evicted
    }
}

struct Shard {
    state: Mutex<ShardState>,
    /// Signalled when an in-flight compile finishes (success or failure).
    compiled: Condvar,
}

/// The sharded, memory-budgeted, generation-keyed plan cache. See the
/// module docs for the design.
pub struct SharedPlanCache {
    shards: Vec<Shard>,
    budget_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    evictions: AtomicU64,
    uncacheable: AtomicU64,
}

impl SharedPlanCache {
    /// Creates a cache from `config` (shard count and budget are clamped
    /// to usable minimums).
    pub fn new(config: &CacheConfig) -> Self {
        let shards = config.shards.max(1);
        let budget_per_shard = (config.budget_bytes / shards).max(1);
        SharedPlanCache::with_states(
            (0..shards).map(|_| ShardState::default()).collect(),
            budget_per_shard,
        )
    }

    /// A cache over the given shard states with zeroed counters.
    fn with_states(states: Vec<ShardState>, budget_per_shard: usize) -> Self {
        SharedPlanCache {
            shards: states
                .into_iter()
                .map(|state| Shard {
                    state: Mutex::new(state),
                    compiled: Condvar::new(),
                })
                .collect(),
            budget_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            uncacheable: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard memory budget slice in bytes.
    pub fn budget_per_shard(&self) -> usize {
        self.budget_per_shard
    }

    /// Total configured memory budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.budget_per_shard * self.shards.len()
    }

    fn shard_of(&self, key: &PlanKey) -> &Shard {
        let idx = (key.mix() % self.shards.len() as u64) as usize;
        // idx < len by construction; the iterator fallback keeps the hot
        // path free of panicking accessors either way.
        self.shards
            .get(idx)
            .unwrap_or_else(|| match self.shards.first() {
                Some(s) => s,
                None => std::process::abort(), // new() guarantees >= 1 shard
            })
    }

    /// The cached plan for `(suite, net, batch)`, compiling on miss.
    ///
    /// The returned plan is always the one compiled against `suite`'s
    /// *current* generation: a racing [`Workflow::invalidate_plans`] or
    /// suite swap changes the key, never the meaning of a resident entry.
    ///
    /// # Errors
    ///
    /// Propagates [`PredictError`] from plan compilation (invalid
    /// requests fail here exactly as on the uncompiled path).
    pub fn get_or_compile(
        &self,
        suite: &Workflow,
        net: &Network,
        batch: usize,
    ) -> Result<Arc<CompiledPlan>, PredictError> {
        let key = PlanKey::of(suite, net, batch);
        let shard = self.shard_of(&key);
        {
            let mut st = lock_unpoisoned(&shard.state);
            loop {
                if let Some(plan) = st.touch(key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(plan);
                }
                if !st.inflight.contains(&key) {
                    st.inflight.insert(key);
                    break;
                }
                // Another thread is compiling this key: wait for it, then
                // re-check (its success puts the plan in the map; its
                // failure leaves us to retry the compile ourselves).
                st = wait_unpoisoned(&shard.compiled, st);
            }
        }
        // Compile outside the lock: other keys on this shard stay
        // servable while we work.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let compiled = CompiledPlan::compile(suite, net, batch);
        let mut st = lock_unpoisoned(&shard.state);
        st.inflight.remove(&key);
        let result = match compiled {
            Ok(plan) => {
                self.compiles.fetch_add(1, Ordering::Relaxed);
                let plan = Arc::new(plan);
                let bytes = plan.approx_bytes();
                if bytes > self.budget_per_shard {
                    // Larger than the whole shard slice: serving it
                    // uncached keeps the budget invariant exact.
                    self.uncacheable.fetch_add(1, Ordering::Relaxed);
                } else {
                    st.tick += 1;
                    let tick = st.tick;
                    st.plans.insert(
                        key,
                        Entry {
                            plan: plan.clone(),
                            stamp: tick,
                            bytes,
                        },
                    );
                    st.lru.insert(tick, key);
                    st.bytes += bytes;
                    let evicted = st.evict_to_budget(self.budget_per_shard, key);
                    if evicted > 0 {
                        self.evictions.fetch_add(evicted, Ordering::Relaxed);
                    }
                }
                Ok(plan)
            }
            Err(e) => Err(e),
        };
        drop(st);
        shard.compiled.notify_all();
        result
    }

    /// The resident plan for `key`, counted as a hit; `None` on a miss,
    /// which is not counted and compiles nothing (a caller that goes on
    /// to [`SharedPlanCache::get_or_compile`] counts it there).
    pub fn lookup(&self, key: PlanKey) -> Option<Arc<CompiledPlan>> {
        let plan = lock_unpoisoned(&self.shard_of(&key).state).touch(key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(plan)
    }

    /// Drops every resident plan compiled against `generation` (a retired
    /// suite). Entries of other generations are untouched. Returns how
    /// many entries were purged.
    pub fn purge_generation(&self, generation: u64) -> usize {
        let mut purged = 0;
        for shard in &self.shards {
            let mut st = lock_unpoisoned(&shard.state);
            let victims: Vec<(u64, PlanKey)> = st
                .plans
                .iter()
                .filter(|(k, _)| k.generation == generation)
                .map(|(k, e)| (e.stamp, *k))
                .collect();
            for (stamp, key) in victims {
                st.lru.remove(&stamp);
                if let Some(e) = st.plans.remove(&key) {
                    st.bytes = st.bytes.saturating_sub(e.bytes);
                    purged += 1;
                }
            }
        }
        purged
    }

    /// Drops every resident plan.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut st = lock_unpoisoned(&shard.state);
            st.plans.clear();
            st.lru.clear();
            st.bytes = 0;
        }
    }

    /// Resident entry count across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(&s.state).plans.len())
            .sum()
    }

    /// Whether no plans are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Measured resident bytes across all shards (always within the
    /// configured budget).
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_unpoisoned(&s.state).bytes)
            .sum()
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            uncacheable: self.uncacheable.load(Ordering::Relaxed),
            entries: self.len(),
            bytes: self.bytes(),
        }
    }
}

impl Clone for SharedPlanCache {
    /// Snapshots every shard's entries and LRU order under its lock. The
    /// plans are shared `Arc`s (nothing recompiles); the copy has the same
    /// geometry and budget, fresh counters and no in-flight compiles, and
    /// evicts, purges and clears independently of the original.
    fn clone(&self) -> Self {
        let states = self
            .shards
            .iter()
            .map(|s| {
                let st = lock_unpoisoned(&s.state);
                ShardState {
                    plans: st.plans.clone(),
                    lru: st.lru.clone(),
                    inflight: BTreeSet::new(),
                    tick: st.tick,
                    bytes: st.bytes,
                }
            })
            .collect();
        SharedPlanCache::with_states(states, self.budget_per_shard)
    }
}

impl std::fmt::Debug for SharedPlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "SharedPlanCache({} shards, {} entries, {}/{} bytes)",
            self.shards.len(),
            s.entries,
            s.bytes,
            self.budget_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnperf_data::collect::collect;
    use dnnperf_gpu::GpuSpec;

    fn suite() -> Workflow {
        let nets = [
            dnnperf_dnn::zoo::resnet::resnet18(),
            dnnperf_dnn::zoo::vgg::vgg11(),
        ];
        let ds = collect(&nets, &[GpuSpec::by_name("A100").unwrap()], &[32]);
        Workflow::train(&ds, "A100").unwrap()
    }

    #[test]
    fn clone_shares_plans_but_evicts_purges_and_counts_independently() {
        let suite = suite();
        let net = dnnperf_dnn::zoo::resnet::resnet50();
        // The three entries have the same size, so a one-shard cache
        // budgeted for exactly two of them evicts on the third.
        let bytes = CompiledPlan::compile(&suite, &net, 1)
            .unwrap()
            .approx_bytes();
        let original = SharedPlanCache::new(&CacheConfig {
            shards: 1,
            budget_bytes: 2 * bytes,
        });
        let a = original.get_or_compile(&suite, &net, 32).unwrap();
        let b = original.get_or_compile(&suite, &net, 64).unwrap();

        let copy = original.clone();
        assert_eq!(copy.budget_bytes(), original.budget_bytes());
        assert_eq!(
            copy.stats(),
            CacheStats {
                entries: 2,
                bytes: 2 * bytes,
                ..CacheStats::default()
            },
            "a clone starts with the entries but fresh counters"
        );

        // The third plan evicts the least recently used entry (`a`) from
        // the copy only.
        copy.get_or_compile(&suite, &net, 8).unwrap();
        assert_eq!(copy.stats().evictions, 1);
        assert_eq!(original.stats().evictions, 0);
        assert!(copy.lookup(PlanKey::of(&suite, &net, 32)).is_none());
        let kept = original.lookup(PlanKey::of(&suite, &net, 32)).unwrap();
        assert!(Arc::ptr_eq(&kept, &a));
        let shared = copy.lookup(PlanKey::of(&suite, &net, 64)).unwrap();
        assert!(
            Arc::ptr_eq(&shared, &b),
            "clones share plans, never recompile"
        );
        assert!(copy.bytes() <= copy.budget_bytes());

        assert_eq!(copy.purge_generation(suite.generation()), 2);
        assert!(copy.is_empty());
        assert_eq!(original.len(), 2);
        assert_eq!(original.stats().compiles, 2);
    }
}
