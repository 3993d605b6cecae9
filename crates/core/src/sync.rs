//! The pipeline's reader-writer lock: `std::sync::RwLock` minus
//! poisoning.
//!
//! Per-cluster panic isolation depends on this. A cluster whose
//! training or feedback panics under a guard is demoted to its floor by
//! the caller; the lock must stay usable so that cluster — and a
//! snapshot of it — can still be read afterwards instead of every later
//! `read()`/`write()` turning into an error.

use std::sync::{self, PoisonError, RwLockReadGuard, RwLockWriteGuard};

/// Non-poisoning reader-writer lock.
pub(crate) struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub(crate) fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    /// Shared lock; a holder that panicked does not make this fail.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive lock; a holder that panicked does not make this fail.
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Direct access through an exclusive reference (no locking).
    pub(crate) fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_survives_a_panicked_writer() {
        let lock = std::sync::Arc::new(RwLock::new(1u32));
        let l2 = std::sync::Arc::clone(&lock);
        let joined = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison attempt");
        })
        .join();
        assert!(joined.is_err(), "the writer panicked under its guard");
        assert_eq!(*lock.read(), 1, "non-poisoning: lock still readable");
        *lock.write() += 1;
        assert_eq!(*lock.read(), 2);
    }
}
