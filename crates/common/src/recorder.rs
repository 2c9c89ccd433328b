//! The one recording mechanism of the trace and profile planes: a bounded
//! overwrite-oldest [`Ring`], and a [`Registry`] holding one ring per
//! recording thread. A thread registers on its first record and writes
//! only its own ring; [`Registry::snapshot`] and [`Registry::take`] also
//! see the rings of threads that have exited. [`Registry::start`] begins a
//! session: it drops every ring, and a thread whose ring belongs to an
//! older session registers afresh on its next record.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::LocalKey;

/// The capacity of a ring that keeps everything; it preallocates nothing.
pub const UNBOUNDED: usize = usize::MAX;

/// Keeps the newest `capacity` items, overwriting the oldest once full.
#[derive(Debug)]
pub struct Ring<T> {
    buf: Vec<T>,
    cap: usize,
    /// The oldest item's slot once the ring is full.
    head: usize,
}

impl<T: Clone> Ring<T> {
    /// A ring of `capacity` items (at least 1). A bounded ring
    /// preallocates its slots, so recording never allocates.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        let buf = Vec::with_capacity(if cap == UNBOUNDED { 0 } else { cap });
        Ring { buf, cap, head: 0 }
    }

    /// Appends `item`, overwriting the oldest one if the ring is full.
    pub fn push(&mut self, item: T) {
        if self.buf.len() < self.cap {
            self.buf.push(item);
        } else {
            self.buf[self.head] = item;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// The retained items, oldest first.
    pub fn contents(&self) -> Vec<T> {
        [&self.buf[self.head..], &self.buf[..self.head]].concat()
    }

    /// Takes the retained items, oldest first, leaving the ring empty.
    pub fn take(&mut self) -> Vec<T> {
        let out = self.contents();
        self.buf.clear();
        self.head = 0;
        out
    }
}

/// A thread's ring in a [`Registry`], kept after the thread exits.
pub type SharedRing<T> = Arc<Mutex<Ring<T>>>;

/// A thread's slot for its ring in one [`Registry`]: the session the ring
/// was registered under, and the ring. Declare one per registry with
/// `thread_local!` and hand it to [`Registry::record`].
pub type LocalRing<T> = RefCell<Option<(u64, SharedRing<T>)>>;

/// One ring per recording thread, with the thread's name; see the module
/// documentation.
#[derive(Debug)]
pub struct Registry<T> {
    session: AtomicU64,
    capacity: AtomicUsize,
    threads: Mutex<Vec<(String, SharedRing<T>)>>,
}

impl<T: Clone> Registry<T> {
    /// An empty registry, usable as a `static`.
    #[allow(clippy::new_without_default)] // statics need the `const fn`
    pub const fn new() -> Self {
        Registry {
            session: AtomicU64::new(0),
            capacity: AtomicUsize::new(UNBOUNDED),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Starts a session whose threads record into rings of `capacity`.
    pub fn start(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        self.clear();
    }

    /// Drops every ring and ends the session.
    pub fn clear(&self) {
        let mut threads = self.threads.lock().expect("registry lock");
        threads.clear();
        self.session.fetch_add(1, Ordering::Relaxed);
    }

    #[cold]
    fn register(&self) -> SharedRing<T> {
        let ring = Arc::new(Mutex::new(Ring::new(self.capacity.load(Ordering::Relaxed))));
        let name = std::thread::current().name().unwrap_or("?").to_string();
        let mut threads = self.threads.lock().expect("registry lock");
        threads.push((name, Arc::clone(&ring)));
        ring
    }

    /// Appends `item` to the calling thread's ring, registering the thread
    /// first if its ring in `local` is from another session (or missing).
    pub fn record(&self, local: &'static LocalKey<LocalRing<T>>, item: T) {
        let session = self.session.load(Ordering::Relaxed);
        local.with(|slot| {
            let mut slot = slot.borrow_mut();
            if !matches!(&*slot, Some((s, _)) if *s == session) {
                *slot = Some((session, self.register()));
            }
            if let Some((_, ring)) = &*slot {
                ring.lock().expect("ring lock").push(item);
            }
        });
    }

    /// Every registered thread's name and items (oldest first), in
    /// registration order.
    pub fn snapshot(&self) -> Vec<(String, Vec<T>)> {
        self.each(|ring| ring.contents())
    }

    /// [`Registry::snapshot`], taking the items: every ring is left empty.
    pub fn take(&self) -> Vec<(String, Vec<T>)> {
        self.each(Ring::take)
    }

    fn each(&self, f: impl Fn(&mut Ring<T>) -> Vec<T>) -> Vec<(String, Vec<T>)> {
        let threads = self.threads.lock().expect("registry lock");
        threads
            .iter()
            .map(|(name, ring)| (name.clone(), f(&mut ring.lock().expect("ring lock"))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    proptest! {
        /// `Ring` against a `VecDeque` model. `cap` 9 stands for
        /// unbounded; an op 0–5 is a push, 6 a `contents`, 7 a `take`.
        #[test]
        fn ring_matches_a_vecdeque_model(
            cap in 1usize..10,
            ops in proptest::collection::vec(0u8..8, 0..64),
        ) {
            let cap = if cap == 9 { UNBOUNDED } else { cap };
            let mut ring = Ring::new(cap);
            let mut model = VecDeque::new();
            for (i, op) in ops.into_iter().enumerate() {
                match op {
                    6 => {
                        let want: Vec<usize> = model.iter().copied().collect();
                        prop_assert_eq!(ring.contents(), want.clone());
                        prop_assert_eq!(ring.contents(), want, "contents does not consume");
                    }
                    7 => {
                        let want: Vec<usize> = model.drain(..).collect();
                        prop_assert_eq!(ring.take(), want);
                        prop_assert!(ring.contents().is_empty());
                    }
                    _ => {
                        if model.len() == cap {
                            model.pop_front();
                        }
                        model.push_back(i);
                        ring.push(i);
                    }
                }
            }
        }
    }

    #[test]
    fn an_unbounded_ring_preallocates_nothing() {
        assert_eq!(Ring::<u64>::new(UNBOUNDED).buf.capacity(), 0);
        assert_eq!(Ring::<u64>::new(8).buf.capacity(), 8);
    }

    static REG: Registry<u32> = Registry::new();
    thread_local! {
        static LOCAL: LocalRing<u32> = const { RefCell::new(None) };
    }
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn a_thread_that_exited_is_still_seen() {
        let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        REG.start(4);
        std::thread::Builder::new()
            .name("gone".into())
            .spawn(|| (0..6).for_each(|i| REG.record(&LOCAL, i)))
            .unwrap()
            .join()
            .unwrap();
        REG.record(&LOCAL, 9);
        let snap = REG.snapshot();
        assert_eq!(snap[0], ("gone".to_string(), vec![2, 3, 4, 5]));
        assert_eq!(snap[1].1, vec![9]);
        assert_eq!(REG.take(), snap, "take sees what snapshot saw");
        assert!(REG.snapshot().iter().all(|(_, items)| items.is_empty()));
    }

    #[test]
    fn a_new_session_starts_from_empty_rings() {
        let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        REG.start(UNBOUNDED);
        REG.record(&LOCAL, 1);
        REG.start(UNBOUNDED);
        assert!(REG.snapshot().is_empty(), "old rings dropped");
        REG.record(&LOCAL, 2);
        assert_eq!(REG.snapshot().len(), 1, "the thread registered afresh");
        assert_eq!(REG.snapshot()[0].1, vec![2]);
        REG.clear();
        assert!(REG.snapshot().is_empty());
    }
}
