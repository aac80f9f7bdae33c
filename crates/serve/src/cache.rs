//! The per-shard warm-compilation cache.
//!
//! Each shard serves exactly one hardware point, so within a shard a
//! compilation is identified by its circuit alone: a lookup finds the
//! entry whose circuit is structurally equal (`==`) to the request's.
//! There is no hash key to collide, so a hit is always the right
//! compilation. A circuit that is not `==` to itself (a NaN angle) never
//! hits; it compiles afresh each time and its entries stay bounded by the
//! capacity like any other.
//!
//! Eviction is least-recently-used over a bounded entry count. The store
//! is a plain vector with O(n) scans: shard caches are tens of entries
//! (one per distinct circuit in flight), where a linked-list LRU's
//! constant factors cost more than the scan.

use dqc_circuit::Circuit;
use dqc_core::CompiledCircuit;
use std::sync::Arc;

struct Entry {
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

    /// Looks up the compilation of a circuit `==` to `circuit`.
    pub(crate) fn get(&mut self, circuit: &Circuit) -> Option<Arc<CompiledCircuit>> {
        self.clock += 1;
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.compiled.circuit() == circuit)?;
        entry.last_used = self.clock;
        Some(Arc::clone(&entry.compiled))
    }

    /// Stores a compilation, replacing the entry for an equal circuit or
    /// else evicting the least-recently-used entry when at capacity.
    /// Racing inserts for equal circuits (two workers missing
    /// concurrently) collapse to the latest value.
    pub(crate) fn insert(&mut self, compiled: Arc<CompiledCircuit>) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        if let Some(entry) = self
            .entries
            .iter_mut()
            .find(|e| e.compiled.circuit() == compiled.circuit())
        {
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
        cache.insert(compiled(&circuit(3)));
        // Built separately, so no pointer is shared with the entry.
        let equal = circuit(3);
        let hit = cache.get(&equal).expect("an equal circuit hits");
        assert_eq!(hit.circuit(), &equal);
        assert!(cache.get(&circuit(5)).is_none(), "a longer circuit misses");
        let mut reversed = Circuit::new(4);
        reversed.cx(1, 0).cx(2, 1).cx(3, 2);
        assert!(cache.get(&reversed).is_none(), "swapped operands miss");
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = CompileCache::new(2);
        let (a, b, c) = (circuit(1), circuit(2), circuit(3));
        cache.insert(compiled(&a));
        cache.insert(compiled(&b));
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.get(&a).is_some());
        cache.insert(compiled(&c));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&a).is_some(), "recently used survives");
        assert!(cache.get(&b).is_none(), "LRU entry evicted");
        assert!(cache.get(&c).is_some());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = CompileCache::new(0);
        let a = circuit(2);
        cache.insert(compiled(&a));
        assert_eq!(cache.len(), 0);
        assert!(cache.get(&a).is_none());
    }

    #[test]
    fn equal_reinsert_replaces_without_growth() {
        let mut cache = CompileCache::new(2);
        let second = compiled(&circuit(2));
        cache.insert(compiled(&circuit(2)));
        cache.insert(Arc::clone(&second));
        assert_eq!(cache.len(), 1);
        let hit = cache.get(&circuit(2)).expect("the entry survives");
        assert!(Arc::ptr_eq(&hit, &second), "the latest insert wins");
    }

    #[test]
    fn a_circuit_unequal_to_itself_misses_and_stays_bounded() {
        let mut cache = CompileCache::new(2);
        let mut nan = Circuit::new(4);
        nan.rz(0, f64::NAN).cx(0, 1);
        assert_ne!(nan, nan, "a NaN angle is not equal to itself");
        for _ in 0..3 {
            assert!(cache.get(&nan).is_none());
            cache.insert(compiled(&nan));
        }
        assert_eq!(cache.len(), 2, "capacity still bounds the entries");
    }
}
