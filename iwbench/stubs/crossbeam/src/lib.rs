//! Offline stub of `crossbeam`: just `thread::scope`, delegated to
//! `std::thread::scope`. The closure passed to `spawn` receives the scope
//! again (crossbeam's signature), and `scope` returns `Ok` unless a spawned
//! thread panicked without being joined.

/// Scoped threads.
pub mod thread {
    /// A fork-join scope handle (wraps the std scope).
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Handle to a scoped thread.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Wait for the thread and return its result.
        pub fn join(self) -> std::thread::Result<T> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a thread inside the scope; the closure gets the scope back.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                inner: inner.spawn(move || f(&Scope { inner })),
            }
        }
    }

    /// Run `f` with a scope in which borrowing threads can be spawned; all
    /// threads are joined before this returns.
    pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scoped_borrow_and_join() {
        let data = vec![1u64, 2, 3];
        let sum: u64 = super::thread::scope(|scope| {
            let handles: Vec<_> = data
                .iter()
                .map(|&n| scope.spawn(move |_| n * 2))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
        .unwrap();
        assert_eq!(sum, 12);
    }
}
