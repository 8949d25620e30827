//! The crate's reader-writer lock: `std::sync::RwLock` with poisoning
//! recovered instead of propagated. What is kept under one here is a map
//! changed by a single insert or remove, so the data is valid at every step and
//! a panic on another thread holding a guard must not turn every later storage
//! call into a second panic.

use std::sync::{self, PoisonError, RwLockReadGuard, RwLockWriteGuard};

#[derive(Debug, Default)]
pub(crate) struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::RwLock;

    #[test]
    fn a_panic_under_the_write_guard_does_not_wedge_the_lock() {
        let lock = RwLock(std::sync::RwLock::new(vec![1]));
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut guard = lock.write();
                    guard.push(2);
                    panic!("while holding the guard");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert_eq!(*lock.read(), [1, 2]);
        lock.write().push(3);
        assert_eq!(*lock.read(), [1, 2, 3]);
    }
}
