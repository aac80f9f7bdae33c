//! The daemon's parse cache: QASM texts it has already parsed.
//!
//! A client that evaluates a design replays a handful of circuits under
//! many seeds, so most submits resend a text the daemon has parsed
//! before. A text byte-for-byte equal to a cached one reuses that
//! [`Arc<Circuit>`] instead of running `from_qasm` again on the
//! connection's reader thread. Entries are keyed by the text itself in
//! an ordered map, so a lookup compares a few texts up to their first
//! differing byte and never hashes the whole text. Recency is a logical
//! clock, and a full cache evicts its least recently used entry, as the
//! shard compile caches do.
//!
//! The cache has no knob of its own. It holds at most as many entries
//! as the shard compile caches together (`cache_capacity × points`), so
//! `cache_capacity` 0 turns both off. A text over
//! [`MAX_CACHED_TEXT_BYTES`] is parsed and not kept, and a failed parse
//! is never kept: a broken text is parsed, and answered with its line,
//! every time.

use dqc_circuit::Circuit;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The longest text the cache keeps (64 KiB), about three times
/// QFT-32's.
pub(crate) const MAX_CACHED_TEXT_BYTES: usize = 64 * 1024;

#[derive(Debug)]
struct Entry {
    circuit: Arc<Circuit>,
    last_used: u64,
}

/// A bounded LRU map from QASM text to its parsed circuit.
#[derive(Debug)]
pub(crate) struct ParseCache {
    entries: BTreeMap<String, Entry>,
    capacity: usize,
    clock: u64,
}

impl ParseCache {
    /// Creates a cache holding at most `capacity` texts; `0` keeps none.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            entries: BTreeMap::new(),
            capacity,
            clock: 0,
        }
    }

    /// Number of cached texts.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The circuit parsed from exactly `text`, if it is cached.
    pub(crate) fn get(&mut self, text: &str) -> Option<Arc<Circuit>> {
        self.clock += 1;
        let entry = self.entries.get_mut(text)?;
        entry.last_used = self.clock;
        Some(Arc::clone(&entry.circuit))
    }

    /// Keeps `circuit` as the parse of `text`, evicting the least
    /// recently used entry when full. A text over
    /// [`MAX_CACHED_TEXT_BYTES`] is not kept. Two readers that miss on
    /// the same text both insert it, and the later one wins.
    pub(crate) fn insert(&mut self, mut text: String, circuit: Arc<Circuit>) {
        if self.capacity == 0 || text.len() > MAX_CACHED_TEXT_BYTES {
            return;
        }
        self.clock += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&text) {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone())
                .expect("a full cache of capacity > 0 has entries");
            self.entries.remove(&lru);
        }
        // The text arrived in a buffer sized for decoding; keep only
        // its bytes.
        text.shrink_to_fit();
        self.entries.insert(
            text,
            Entry {
                circuit,
                last_used: self.clock,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circuit(gates: u32) -> Arc<Circuit> {
        let mut c = Circuit::new(2);
        for _ in 0..gates {
            c.h(0);
        }
        Arc::new(c)
    }

    #[test]
    fn a_cached_text_returns_the_same_circuit() {
        let mut cache = ParseCache::new(2);
        let parsed = circuit(1);
        cache.insert("a".to_string(), Arc::clone(&parsed));
        let hit = cache.get("a").expect("cached");
        assert!(Arc::ptr_eq(&hit, &parsed));
        assert!(cache.get("b").is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = ParseCache::new(2);
        cache.insert("a".to_string(), circuit(1));
        cache.insert("b".to_string(), circuit(2));
        // Touch `a` so `b` becomes the victim.
        assert!(cache.get("a").is_some());
        cache.insert("c".to_string(), circuit(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_some(), "recently used survives");
        assert!(cache.get("b").is_none(), "LRU entry evicted");
        assert!(cache.get("c").is_some());
        // Re-inserting a cached text replaces it without evicting.
        cache.insert("a".to_string(), circuit(4));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("a").unwrap().len(), 4);
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn long_texts_and_zero_capacity_keep_nothing() {
        let mut cache = ParseCache::new(4);
        let long = "x".repeat(MAX_CACHED_TEXT_BYTES + 1);
        cache.insert(long.clone(), circuit(1));
        assert_eq!(cache.len(), 0);
        assert!(cache.get(&long).is_none());
        let at_bound = "x".repeat(MAX_CACHED_TEXT_BYTES);
        cache.insert(at_bound.clone(), circuit(1));
        assert!(cache.get(&at_bound).is_some());

        let mut off = ParseCache::new(0);
        off.insert("a".to_string(), circuit(1));
        assert_eq!(off.len(), 0);
        assert!(off.get("a").is_none());
    }
}
