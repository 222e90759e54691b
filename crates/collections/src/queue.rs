//! Transactional queue, counter and sharded worklist.

use gstm_core::{Abort, TVar, Txn};

/// A transactional FIFO queue built from two stacks (head for dequeues,
/// tail for enqueues), so producers and consumers conflict with their own
/// kind but rarely with each other — the standard STM queue construction,
/// matching STAMP's `queue` used by intruder.
#[derive(Clone)]
pub struct TQueue<T> {
    head: TVar<Vec<T>>,
    tail: TVar<Vec<T>>,
}

impl<T> std::fmt::Debug for TQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TQueue")
    }
}

impl<T: Clone + Send + Sync + 'static> TQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        TQueue { head: TVar::new(Vec::new()), tail: TVar::new(Vec::new()) }
    }

    /// Creates a queue pre-filled with `items` (front of the queue first).
    pub fn seeded(items: Vec<T>) -> Self {
        let mut head = items;
        head.reverse(); // head stack pops from the back
        TQueue { head: TVar::new(head), tail: TVar::new(Vec::new()) }
    }

    /// Transactionally enqueues. Only the tests enqueue (intruder drains a
    /// seeded queue); it is their one way into `dequeue`'s refill branch.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    #[cfg(test)]
    pub(crate) fn enqueue(&self, tx: &mut Txn<'_>, item: T) -> Result<(), Abort> {
        let mut t = tx.read(&self.tail)?;
        t.push(item);
        tx.write(&self.tail, t)
    }

    /// Transactionally dequeues; `None` when empty.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    pub fn dequeue(&self, tx: &mut Txn<'_>) -> Result<Option<T>, Abort> {
        let mut h = tx.read(&self.head)?;
        if let Some(item) = h.pop() {
            tx.write(&self.head, h)?;
            return Ok(Some(item));
        }
        // Refill from the tail stack.
        let mut t = tx.read(&self.tail)?;
        if t.is_empty() {
            return Ok(None);
        }
        t.reverse();
        let item = t.pop();
        tx.write(&self.head, t)?;
        tx.write(&self.tail, Vec::new())?;
        Ok(item)
    }

    /// Non-transactional length (teardown only).
    pub fn len_unlogged(&self) -> usize {
        self.head.load_unlogged().len() + self.tail.load_unlogged().len()
    }
}

impl<T: Clone + Send + Sync + 'static> Default for TQueue<T> {
    fn default() -> Self {
        TQueue::new()
    }
}

/// A sharded transactional worklist with stealing: each shard is an
/// independent stack; threads push/pop their own shard and steal from
/// others when empty. Labyrinth and yada drive their refinement loops off
/// this shape.
#[derive(Clone)]
pub struct TWorklist<T> {
    shards: Vec<TVar<Vec<T>>>,
}

impl<T> std::fmt::Debug for TWorklist<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TWorklist({} shards)", self.shards.len())
    }
}

impl<T: Clone + Send + Sync + 'static> TWorklist<T> {
    /// Creates a worklist and distributes `items` round-robin.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn seeded(shards: usize, items: Vec<T>) -> Self {
        assert!(shards > 0, "a worklist needs at least one shard");
        let mut lists: Vec<Vec<T>> = (0..shards).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            lists[i % shards].push(item);
        }
        TWorklist { shards: lists.into_iter().map(TVar::new).collect() }
    }

    /// Transactionally pushes onto `shard` (wrapped into range).
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    pub fn push(&self, tx: &mut Txn<'_>, shard: usize, item: T) -> Result<(), Abort> {
        let var = &self.shards[shard % self.shards.len()];
        let mut list = tx.read(var)?;
        list.push(item);
        tx.write(var, list)
    }

    /// Transactionally pops, preferring `shard` and stealing from the
    /// others in order; `None` when every shard is empty.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    pub fn pop(&self, tx: &mut Txn<'_>, shard: usize) -> Result<Option<T>, Abort> {
        let n = self.shards.len();
        for off in 0..n {
            let var = &self.shards[(shard + off) % n];
            let mut list = tx.read(var)?;
            if let Some(item) = list.pop() {
                tx.write(var, list)?;
                return Ok(Some(item));
            }
        }
        Ok(None)
    }

    /// Non-transactional remaining count (teardown only).
    pub fn len_unlogged(&self) -> usize {
        self.shards.iter().map(|s| s.load_unlogged().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{Stm, StmConfig, ThreadId, TxId};

    fn with_tx<R>(f: impl FnMut(&mut Txn<'_>) -> Result<R, Abort>) -> R {
        let stm = Stm::new(StmConfig::new(1));
        stm.run(ThreadId::new(0), TxId::new(0), f)
    }

    #[test]
    fn queue_is_fifo() {
        let q = TQueue::new();
        let order = with_tx(|tx| {
            q.enqueue(tx, 1)?;
            q.enqueue(tx, 2)?;
            q.enqueue(tx, 3)?;
            let a = q.dequeue(tx)?;
            q.enqueue(tx, 4)?;
            let b = q.dequeue(tx)?;
            let c = q.dequeue(tx)?;
            let d = q.dequeue(tx)?;
            let e = q.dequeue(tx)?;
            Ok(vec![a, b, c, d, e])
        });
        assert_eq!(order, vec![Some(1), Some(2), Some(3), Some(4), None]);
    }

    #[test]
    fn seeded_queue_preserves_order() {
        let q = TQueue::seeded(vec![10, 20]);
        let (a, b) = with_tx(|tx| Ok((q.dequeue(tx)?, q.dequeue(tx)?)));
        assert_eq!((a, b), (Some(10), Some(20)));
        assert_eq!(q.len_unlogged(), 0);
    }

    #[test]
    fn worklist_prefers_own_shard_then_steals() {
        let wl = TWorklist::seeded(2, vec![1, 2, 3, 4]); // shard0: [1,3], shard1: [2,4]
        let got = with_tx(|tx| {
            let a = wl.pop(tx, 0)?; // own shard → 3 (stack order)
            let b = wl.pop(tx, 0)?; // own shard → 1
            let c = wl.pop(tx, 0)?; // steal from shard1 → 4
            Ok(vec![a, b, c])
        });
        assert_eq!(got, vec![Some(3), Some(1), Some(4)]);
        assert_eq!(wl.len_unlogged(), 1);
    }

    #[test]
    fn worklist_empty_pop_is_none() {
        let wl: TWorklist<u8> = TWorklist::seeded(3, Vec::new());
        assert_eq!(with_tx(|tx| wl.pop(tx, 1)), None);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _: TWorklist<u8> = TWorklist::seeded(0, Vec::new());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected_when_seeded() {
        let _ = TWorklist::seeded(0, vec![1u8, 2]);
    }
}
