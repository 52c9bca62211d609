//! A poison-free bounded hand-off queue between the event loop and the
//! compute threads (the shadow executor reuses it for its own backlog).
//!
//! The PR-1 server handed connections over an unbounded `mpsc` channel
//! behind a `Mutex<Receiver>`. That design had two reliability holes:
//! overload queued connections forever (unbounded tail latency), and a
//! worker panicking while holding the receiver lock poisoned it, taking
//! every *other* worker down with `expect("worker poisoned")`.
//!
//! [`BoundedQueue`] fixes both. Capacity is fixed at construction —
//! [`BoundedQueue::push`] never blocks and hands the item straight back
//! when full, so the acceptor can shed load with an immediate `503`
//! instead of growing a queue. Every lock acquisition recovers from
//! poisoning via [`PoisonError::into_inner`]: the protected state is a
//! plain `VecDeque` plus two flags, which no panicking thread can leave
//! half-updated in a way that matters, so a dead worker never disables
//! its peers.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// What a [`BoundedQueue::pop`] produced.
#[derive(Debug)]
pub enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// The timeout elapsed with the queue open but empty — poll again.
    Empty,
    /// The queue is closed and fully drained — the consumer should exit.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
    /// Consumers blocked in [`BoundedQueue::pop`] waiting for an item.
    idle: usize,
}

/// A fixed-capacity multi-producer/multi-consumer queue that never
/// poisons and never blocks producers.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        let capacity = capacity.max(1);
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                capacity,
                closed: false,
                idle: 0,
            }),
            not_empty: Condvar::new(),
        }
    }

    /// Locks the state, recovering from poisoning: the invariants are
    /// simple enough that a panicked holder cannot corrupt them.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues without blocking. Returns the item when the queue is at
    /// capacity (or closed) so the caller can shed it.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.lock();
        if inner.closed || inner.items.len() >= inner.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues, waiting at most `timeout` for an item. Items still
    /// queued when [`BoundedQueue::close`] is called are drained before
    /// any consumer sees [`Pop::Closed`].
    pub fn pop(&self, timeout: Duration) -> Pop<T> {
        let mut inner = self.lock();
        if let Some(item) = inner.items.pop_front() {
            return Pop::Item(item);
        }
        if inner.closed {
            return Pop::Closed;
        }
        inner.idle += 1;
        let (mut inner, _timed_out) =
            self.not_empty.wait_timeout(inner, timeout).unwrap_or_else(PoisonError::into_inner);
        inner.idle -= 1;
        match inner.items.pop_front() {
            Some(item) => Pop::Item(item),
            None if inner.closed => Pop::Closed,
            None => Pop::Empty,
        }
    }

    /// Dequeues an immediately available item without waiting (a
    /// compute thread's drain-what's-queued step). Returns `None` when the queue
    /// is momentarily empty, open or closed alike — use
    /// [`BoundedQueue::pop`] to distinguish.
    pub fn try_pop(&self) -> Option<T> {
        self.lock().items.pop_front()
    }

    /// Items currently queued, and consumers currently blocked in
    /// [`BoundedQueue::pop`] waiting for one (a compute thread sizes its
    /// share of the backlog by both).
    pub fn backlog(&self) -> (usize, usize) {
        let inner = self.lock();
        (inner.items.len(), inner.idle)
    }

    /// Closes the queue: pushes start failing and consumers drain the
    /// remaining items, then observe [`Pop::Closed`].
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_sheds_at_capacity_and_pop_drains_in_order() {
        let q = BoundedQueue::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3));
        assert!(matches!(q.pop(Duration::from_millis(1)), Pop::Item(1)));
        assert!(q.push(3).is_ok());
        assert!(matches!(q.pop(Duration::from_millis(1)), Pop::Item(2)));
        assert!(matches!(q.pop(Duration::from_millis(1)), Pop::Item(3)));
        assert!(matches!(q.pop(Duration::from_millis(1)), Pop::Empty));
    }

    #[test]
    fn close_drains_queued_items_before_reporting_closed() {
        let q = BoundedQueue::new(4);
        q.push(7).unwrap();
        q.close();
        assert_eq!(q.push(8), Err(8));
        assert!(matches!(q.pop(Duration::from_millis(1)), Pop::Item(7)));
        assert!(matches!(q.pop(Duration::from_millis(1)), Pop::Closed));
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop(Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        assert!(matches!(waiter.join().unwrap(), Pop::Closed));
    }

    #[test]
    fn backlog_counts_queued_items_and_blocked_consumers() {
        let q = Arc::new(BoundedQueue::new(4));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop(Duration::from_secs(30)))
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while q.backlog() != (0, 1) {
            assert!(std::time::Instant::now() < deadline, "consumer never blocked");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(q.push(1).is_ok());
        assert!(matches!(waiter.join().unwrap(), Pop::Item(1)));
        assert!(q.push(2).is_ok());
        assert_eq!(q.backlog(), (1, 0), "the woken consumer is no longer idle");
    }

    #[test]
    fn survives_a_panicking_lock_holder() {
        let q = Arc::new(BoundedQueue::new(2));
        let poisoner = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let _guard = q.lock();
                panic!("poison the mutex on purpose");
            })
        };
        assert!(poisoner.join().is_err());
        // A poisoned std Mutex would now fail every lock(); ours recovers.
        assert!(q.push(1).is_ok());
        assert!(matches!(q.pop(Duration::from_millis(1)), Pop::Item(1)));
    }
}
