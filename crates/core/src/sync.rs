//! The workspace's mutex.
//!
//! The workspace must build offline, so the `parking_lot` mutex it
//! previously used is replaced by [`Mutex`] — `std::sync::Mutex` with
//! `parking_lot`'s ergonomics: `lock()` returns the guard directly
//! (poisoning is transparently recovered: every critical section in this
//! workspace leaves the data consistent at each await-free step, so a
//! panicking holder cannot expose a torn invariant). The guard is std's,
//! so it works with `std::sync::Condvar`.

use std::fmt;
use std::sync::{MutexGuard, PoisonError, TryLockError};

/// A mutex that hands out its guard directly, recovering from poison.
#[derive(Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires the lock if it is free, recovering from poison like
    /// [`Mutex::lock`]; `None` if another thread holds it.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &*guard).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic_and_into_inner() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn mutex_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison");
        })
        .join();
        assert_eq!(*m.lock(), 7, "poisoned lock must still hand out the data");
        assert_eq!(m.try_lock().as_deref(), Some(&7), "try_lock recovers from poison too");
    }

    #[test]
    fn try_lock_declines_a_held_lock() {
        let m = Mutex::new(1u32);
        let held = m.lock();
        assert!(m.try_lock().is_none(), "the lock is held");
        drop(held);
        assert_eq!(m.try_lock().as_deref(), Some(&1));
    }
}
