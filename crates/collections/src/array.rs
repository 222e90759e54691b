//! Fixed-size transactional arrays.

use gstm_core::{Abort, TVar, Txn};

/// A fixed-length array of transactional cells.
///
/// Each element is its own [`TVar`], so transactions touching different
/// elements do not conflict (beyond rare stripe collisions) — the STAMP
/// suite's arrays (kmeans centroids, ssca2 adjacency) behave the same way.
///
/// ```
/// use gstm_core::{Stm, StmConfig, ThreadId, TxId};
/// use gstm_collections::TArray;
///
/// let stm = Stm::new(StmConfig::new(1));
/// let arr = TArray::new(4, |i| i as i64);
/// let sum = stm.run(ThreadId::new(0), TxId::new(0), |tx| {
///     let mut s = 0;
///     for i in 0..4 {
///         s += arr.read(tx, i)?;
///     }
///     Ok(s)
/// });
/// assert_eq!(sum, 6);
/// ```
#[derive(Clone)]
pub struct TArray<T> {
    cells: Vec<TVar<T>>,
}

impl<T> std::fmt::Debug for TArray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TArray({} cells)", self.cells.len())
    }
}

impl<T: Clone + Send + Sync + 'static> TArray<T> {
    /// Creates an array of `n` cells initialized by `init(i)`.
    pub fn new(n: usize, init: impl FnMut(usize) -> T) -> Self {
        let mut init = init;
        TArray { cells: (0..n).map(|i| TVar::new(init(i))).collect() }
    }

    /// Transactionally reads element `i`.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn read(&self, tx: &mut Txn<'_>, i: usize) -> Result<T, Abort> {
        tx.read(&self.cells[i])
    }

    /// Transactionally writes element `i`.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn write(&self, tx: &mut Txn<'_>, i: usize, value: T) -> Result<(), Abort> {
        tx.write(&self.cells[i], value)
    }

    /// Transactionally updates element `i` in place.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    pub fn update(&self, tx: &mut Txn<'_>, i: usize, f: impl FnOnce(T) -> T) -> Result<(), Abort> {
        let v = self.read(tx, i)?;
        self.write(tx, i, f(v))
    }

    /// Non-transactional snapshot of all elements (setup/teardown only).
    pub fn snapshot_unlogged(&self) -> Vec<T> {
        self.cells.iter().map(|c| (*c.load_unlogged()).clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{Stm, StmConfig, ThreadId, TxId};

    fn stm() -> Stm {
        Stm::new(StmConfig::new(1))
    }

    #[test]
    fn init_and_len() {
        let a = TArray::new(3, |i| i * 10);
        assert_eq!(a.snapshot_unlogged(), vec![0, 10, 20]);
    }

    #[test]
    fn transactional_rmw() {
        let stm = stm();
        let a = TArray::new(2, |_| 0i64);
        stm.run(ThreadId::new(0), TxId::new(0), |tx| {
            a.update(tx, 0, |v| v + 5)?;
            a.update(tx, 1, |v| v - 5)
        });
        assert_eq!(a.snapshot_unlogged(), vec![5, -5]);
    }

    #[test]
    fn empty_array() {
        let a: TArray<u8> = TArray::new(0, |_| 0);
        assert!(a.snapshot_unlogged().is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let stm = stm();
        let a = TArray::new(1, |_| 0u8);
        stm.run(ThreadId::new(0), TxId::new(0), |tx| a.read(tx, 5));
    }
}
