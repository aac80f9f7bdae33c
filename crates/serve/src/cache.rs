//! The per-shard warm-compilation cache.
//!
//! Each shard serves exactly one hardware point, so within a shard a
//! compilation is identified by the circuit alone; the cache keys entries
//! by [`CompiledCircuit::cache_key`] (circuit fingerprint × configuration
//! fingerprint) so entries remain globally unambiguous if a cache ever
//! outlives its shard. Fingerprints are 64-bit and non-cryptographic, so
//! every hit is verified by structural circuit equality before being
//! trusted — a colliding lookup falls through to a miss instead of
//! silently serving the wrong compilation.
//!
//! Eviction is least-recently-used over a bounded entry count. The store
//! is a plain vector with O(n) scans: shard caches are tens of entries
//! (one per distinct circuit in flight), where a linked-list LRU's
//! constant factors cost more than the scan.

use dqc_circuit::Circuit;
use dqc_core::CompiledCircuit;
use std::sync::Arc;

struct Entry {
    key: u64,
    compiled: Arc<CompiledCircuit>,
    last_used: u64,
}

/// A bounded LRU cache of warm [`CompiledCircuit`]s for one shard.
pub(crate) struct CompileCache {
    entries: Vec<Entry>,
    capacity: usize,
    clock: u64,
}

impl CompileCache {
    /// Creates a cache holding at most `capacity` compilations.
    /// `capacity == 0` disables caching entirely (every lookup misses and
    /// nothing is stored) — the no-cache baseline configuration.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity.min(64)),
            capacity,
            clock: 0,
        }
    }

    /// Number of cached compilations.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Looks up the compilation for `key`, verifying the candidate
    /// against `circuit` so a fingerprint collision degrades to a miss.
    pub(crate) fn get(&mut self, key: u64, circuit: &Circuit) -> Option<Arc<CompiledCircuit>> {
        self.clock += 1;
        let entry = self.entries.iter_mut().find(|e| e.key == key)?;
        if entry.compiled.circuit() != circuit {
            return None;
        }
        entry.last_used = self.clock;
        Some(Arc::clone(&entry.compiled))
    }

    /// Stores a compilation under `key`, evicting the least-recently-used
    /// entry when at capacity. Racing inserts for the same key (two
    /// workers missing concurrently) collapse to the latest value.
    pub(crate) fn insert(&mut self, key: u64, compiled: Arc<CompiledCircuit>) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        if let Some(entry) = self.entries.iter_mut().find(|e| e.key == key) {
            entry.compiled = compiled;
            entry.last_used = self.clock;
            return;
        }
        if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("cache at capacity > 0 is non-empty");
            self.entries.swap_remove(lru);
        }
        self.entries.push(Entry {
            key,
            compiled,
            last_used: self.clock,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqc_core::SystemConfig;

    fn circuit(n: u32) -> Circuit {
        let mut c = Circuit::new(4);
        for i in 0..n {
            c.cx(i % 4, (i + 1) % 4);
        }
        c
    }

    fn compiled(c: &Circuit) -> Arc<CompiledCircuit> {
        let config = SystemConfig::paper_two_node_32();
        Arc::new(CompiledCircuit::compile(c, &config).unwrap())
    }

    #[test]
    fn hit_requires_matching_circuit() {
        let mut cache = CompileCache::new(4);
        let a = circuit(3);
        let b = circuit(5);
        cache.insert(1, compiled(&a));
        assert!(cache.get(1, &a).is_some(), "genuine hit");
        assert!(
            cache.get(1, &b).is_none(),
            "a colliding key must degrade to a miss"
        );
        assert!(cache.get(2, &a).is_none(), "unknown key misses");
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = CompileCache::new(2);
        let (a, b, c) = (circuit(1), circuit(2), circuit(3));
        cache.insert(1, compiled(&a));
        cache.insert(2, compiled(&b));
        // Touch entry 1 so entry 2 becomes the LRU victim.
        assert!(cache.get(1, &a).is_some());
        cache.insert(3, compiled(&c));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1, &a).is_some(), "recently used survives");
        assert!(cache.get(2, &b).is_none(), "LRU entry evicted");
        assert!(cache.get(3, &c).is_some());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = CompileCache::new(0);
        let a = circuit(2);
        cache.insert(1, compiled(&a));
        assert_eq!(cache.len(), 0);
        assert!(cache.get(1, &a).is_none());
    }

    #[test]
    fn same_key_reinsert_replaces_without_growth() {
        let mut cache = CompileCache::new(2);
        let a = circuit(2);
        cache.insert(1, compiled(&a));
        cache.insert(1, compiled(&a));
        assert_eq!(cache.len(), 1);
    }
}
