//! A bounded multi-producer, multi-consumer job queue with batch pops.
//!
//! `std::sync::mpsc` channels are single-consumer and cannot report their
//! depth, so the shard queue is a hand-rolled `Mutex<VecDeque>` +
//! `Condvar` — ~100 lines buying exactly the three behaviors admission
//! control and batching need:
//!
//! 1. **Non-blocking bounded push** — [`BoundedQueue::try_push`] refuses
//!    at capacity instead of blocking, the mechanical half of the typed
//!    [`ServeError::Overloaded`](crate::ServeError::Overloaded) path.
//! 2. **Batched pops** — [`BoundedQueue::pop_batch`] hands a worker
//!    everything queued (up to a cap) in one wake-up, so same-shard
//!    requests coalesce into one dispatch instead of one lock round-trip
//!    each.
//! 3. **Graceful close** — after [`BoundedQueue::close`], producers are
//!    refused but consumers keep draining; `pop_batch` returns `None`
//!    only once the queue is both closed and empty.
//!
//! Every waiter on the `Condvar` is a consumer that can take any item,
//! so a push (or a batch that leaves items behind) wakes exactly one of
//! them; only [`BoundedQueue::close`] wakes them all.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushRefused {
    /// The queue is at capacity.
    Full,
    /// The queue has been closed.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue of jobs for one shard.
pub(crate) struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue refusing pushes beyond `capacity` items.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// The queue's capacity in items.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues `item` unless the queue is full or closed.
    pub(crate) fn try_push(&self, item: T) -> Result<(), PushRefused> {
        let mut state = self.state.lock().expect("queue lock not poisoned");
        if state.closed {
            return Err(PushRefused::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(PushRefused::Full);
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until at least one item is available, then drains up to
    /// `max` items in FIFO order. Returns `None` once the queue is closed
    /// *and* empty — the consumer's shutdown signal.
    pub(crate) fn pop_batch(&self, max: usize) -> Option<Vec<T>> {
        let max = max.max(1);
        let mut state = self.state.lock().expect("queue lock not poisoned");
        loop {
            if !state.items.is_empty() {
                let take = state.items.len().min(max);
                let batch = state.items.drain(..take).collect();
                // More items may remain for a sibling worker.
                if !state.items.is_empty() {
                    self.not_empty.notify_one();
                }
                return Some(batch);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue lock not poisoned");
        }
    }

    /// Current queue depth in items.
    pub(crate) fn depth(&self) -> usize {
        self.state
            .lock()
            .expect("queue lock not poisoned")
            .items
            .len()
    }

    /// Closes the queue: future pushes are refused, consumers drain what
    /// remains and then observe `None`.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().expect("queue lock not poisoned");
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_refuses_at_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushRefused::Full));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    fn pop_batch_coalesces_up_to_max() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.pop_batch(3), Some(vec![0, 1, 2]));
        assert_eq!(q.pop_batch(3), Some(vec![3, 4]));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn close_refuses_producers_but_drains_consumers() {
        let q = BoundedQueue::new(8);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(PushRefused::Closed));
        assert_eq!(q.pop_batch(4), Some(vec![1]));
        assert_eq!(q.pop_batch(4), None);
    }

    #[test]
    fn blocked_consumer_wakes_on_push_and_on_close() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(batch) = q.pop_batch(2) {
                    seen.extend(batch);
                }
                seen
            })
        };
        for i in 0..6 {
            while q.try_push(i) == Err(PushRefused::Full) {
                std::thread::yield_now();
            }
        }
        q.close();
        let mut seen = consumer.join().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }
}
