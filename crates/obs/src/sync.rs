//! Poison-free access to `std::sync` locks.
//!
//! std poisons a lock whose holder panicked; these helpers take the guard
//! anyway ([`PoisonError::into_inner`]), so one panicking test or thread
//! does not fail every later user of a process-wide lock. Every lock in
//! `obs` and `wil6210` guards plain data that a panic leaves consistent.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `mutex`, blocking until it is free.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes shared read access to `rwlock`.
pub fn read<T: ?Sized>(rwlock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rwlock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Takes exclusive write access to `rwlock`.
pub fn write<T: ?Sized>(rwlock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rwlock.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panicking_holder_does_not_poison_a_mutex() {
        let m = Arc::new(Mutex::new(0));
        let held = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            *lock(&held) += 1;
            let _guard = lock(&held);
            panic!("poison attempt");
        })
        .join();
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 2);
    }

    #[test]
    fn a_panicking_writer_does_not_poison_an_rwlock() {
        let l = Arc::new(RwLock::new(vec![1]));
        let held = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let mut guard = write(&held);
            guard.push(2);
            panic!("poison attempt");
        })
        .join();
        assert!(l.is_poisoned());
        write(&l).push(3);
        assert_eq!(*read(&l), vec![1, 2, 3]);
    }
}
