//! A persistent pool of block-execution lanes.
//!
//! [`crate::execute_block`] spawns scoped helpers per call: fine for one
//! block, ruinous for a serve run of thousands of small ones (a thread
//! spawn costs tens of microseconds; a block's bodies often less). A
//! [`BlockPool`] of `threads` lanes spawns `threads − 1` helper threads
//! once; the thread that submits a job is always the remaining lane.
//!
//! The hand-off is **caller-first**: [`BlockPool::run`] posts the job with
//! one notify and immediately runs it on the submitting thread. Helpers
//! that wake up while the job is still posted join it; when the submitter's
//! own call returns it closes admission and waits only for helpers that
//! actually joined. A helper that wakes up late finds admission closed and
//! goes back to sleep without touching the job.
//!
//! The pool knows nothing about blocks. The job *is* the executor's lane
//! loop ([`crate::executor::execute_block_on`]), closed over a per-block
//! scheduler, and returns on every lane once the block has settled.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One job offered to the pool: every lane that joins calls the same
/// closure once, concurrently.
pub type Job = Arc<dyn Fn() + Send + Sync>;

#[derive(Default)]
struct PoolState {
    job: Option<Job>,
    /// Helpers the posted job still admits: zero once any lane has returned
    /// from it (its work is done then, on every lane).
    admitted: usize,
    /// Helpers currently inside the posted job.
    running: usize,
    /// First panic a helper's call of the job unwound with.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

#[derive(Default)]
struct PoolInner {
    state: Mutex<PoolState>,
    /// Helpers park here between jobs.
    work: Condvar,
    /// The submitter parks here until `running` drains to zero.
    done: Condvar,
}

/// `threads` lanes executing one job at a time: the submitting thread plus
/// `threads − 1` persistent helpers, joined when the pool is dropped.
pub struct BlockPool {
    inner: Arc<PoolInner>,
    helpers: Vec<JoinHandle<()>>,
}

impl BlockPool {
    /// A pool of `threads` lanes (spawns `threads − 1` helper threads).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a pool needs at least one lane");
        let inner = Arc::new(PoolInner::default());
        let helpers = (1..threads)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || helper(&inner))
            })
            .collect();
        BlockPool { inner, helpers }
    }

    /// Number of lanes: the submitting thread plus the helpers.
    pub fn threads(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Runs `job` on the calling thread and on up to
    /// `min(lanes, threads()) − 1` helpers — those that wake up before any
    /// lane has returned from it — and returns once every lane that joined
    /// has left it. The job must return on every lane once its work is
    /// done, whichever lane did it.
    ///
    /// # Panics
    ///
    /// A panic of the job on any lane is re-raised here once the other
    /// lanes have left it; the pool stays usable.
    pub fn run(&self, lanes: usize, job: Job) {
        let admitted = lanes.min(self.threads()).saturating_sub(1);
        if admitted == 0 {
            return job();
        }
        {
            let mut state = self.inner.state.lock().expect("pool poisoned");
            debug_assert_eq!(state.running, 0, "BlockPool::run is not reentrant");
            state.job = Some(Arc::clone(&job));
            state.admitted = admitted;
        }
        self.inner.work.notify_all();
        let mine = catch_unwind(AssertUnwindSafe(|| job()));
        // No clone may outlive the call: the submitter must end up with the
        // only reference to what the job closed over (the executor unwraps
        // an Arc on that promise).
        drop(job);
        let mut state = self.inner.state.lock().expect("pool poisoned");
        state.admitted = 0;
        state.job = None;
        while state.running > 0 {
            state = self.inner.done.wait(state).expect("pool poisoned");
        }
        let theirs = state.panic.take();
        drop(state);
        if let Some(payload) = mine.err().or(theirs) {
            resume_unwind(payload);
        }
    }
}

impl Drop for BlockPool {
    fn drop(&mut self) {
        // A poisoned lock must not turn a drop during unwinding into an abort.
        if let Ok(mut state) = self.inner.state.lock() {
            state.shutdown = true;
        }
        self.inner.work.notify_all();
        for h in self.helpers.drain(..) {
            let _ = h.join();
        }
    }
}

fn helper(inner: &PoolInner) {
    let mut state = inner.state.lock().expect("pool poisoned");
    loop {
        if state.shutdown {
            return;
        }
        if state.admitted > 0 {
            state.admitted -= 1;
            state.running += 1;
            let job = Arc::clone(state.job.as_ref().expect("an admitting job is posted"));
            drop(state);
            let outcome = catch_unwind(AssertUnwindSafe(|| job()));
            // Before signalling: see `run` on who may hold references.
            drop(job);
            state = inner.state.lock().expect("pool poisoned");
            if let Err(payload) = outcome {
                state.panic.get_or_insert(payload);
            }
            state.admitted = 0;
            state.running -= 1;
            if state.running == 0 {
                inner.done.notify_one();
            }
            continue;
        }
        state = inner.work.wait(state).expect("pool poisoned");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A job that returns on no lane before `lanes` of them are inside it:
    /// forces every admitted helper to join, whatever the wake-up latency.
    fn rendezvous(lanes: usize, calls: &Arc<AtomicUsize>) -> Job {
        let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
        let calls = Arc::clone(calls);
        Arc::new(move || {
            calls.fetch_add(1, Ordering::SeqCst);
            let (arrived, all_here) = &*gate;
            let mut arrived = arrived.lock().unwrap();
            *arrived += 1;
            all_here.notify_all();
            while *arrived < lanes {
                arrived = all_here.wait(arrived).unwrap();
            }
        })
    }

    #[test]
    fn helpers_that_wake_during_the_job_join_it_exactly_once() {
        let pool = BlockPool::new(4);
        assert_eq!(pool.threads(), 4);
        for round in 1..=10usize {
            let lanes = round.min(4);
            let calls = Arc::new(AtomicUsize::new(0));
            pool.run(lanes, rendezvous(lanes, &calls));
            assert_eq!(calls.load(Ordering::SeqCst), lanes, "round {round}");
        }
    }

    #[test]
    fn oversubscribed_request_clamps_to_pool_size() {
        let pool = BlockPool::new(2);
        let calls = Arc::new(AtomicUsize::new(0));
        pool.run(64, rendezvous(2, &calls));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn single_lane_pool_runs_the_job_on_the_caller_only() {
        let pool = BlockPool::new(1);
        let caller = std::thread::current().id();
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        pool.run(
            8,
            Arc::new(move || {
                assert_eq!(std::thread::current().id(), caller);
                c.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn runs_are_barriers_and_late_helpers_skip_closed_jobs() {
        // Jobs this short are usually over before a helper wakes: run()
        // must neither wait for helpers that never joined nor return while
        // one is still inside, and a helper that wakes late must not run a
        // job whose admission has closed.
        let pool = BlockPool::new(4);
        let inside = Arc::new(AtomicUsize::new(0));
        let calls = Arc::new(AtomicUsize::new(0));
        for _ in 0..2000 {
            let (i, c) = (Arc::clone(&inside), Arc::clone(&calls));
            let job: Job = Arc::new(move || {
                i.fetch_add(1, Ordering::SeqCst);
                c.fetch_add(1, Ordering::SeqCst);
                i.fetch_sub(1, Ordering::SeqCst);
            });
            pool.run(4, Arc::clone(&job));
            assert_eq!(inside.load(Ordering::SeqCst), 0, "a lane outlived its run");
            assert_eq!(Arc::strong_count(&job), 1, "the pool kept a clone of a finished job");
        }
        let calls = calls.load(Ordering::SeqCst);
        assert!(
            (2000..=8000).contains(&calls),
            "caller always runs, helpers at most once: {calls}"
        );
    }

    #[test]
    fn a_panicking_job_is_reraised_and_the_pool_survives() {
        let pool = BlockPool::new(3);
        for panicking_call in 0..3usize {
            // Whichever lane draws the panicking call — the caller or a
            // helper — the submitter gets the payload back.
            let order = Arc::new(AtomicUsize::new(0));
            let gate_calls = Arc::new(AtomicUsize::new(0));
            let gate = rendezvous(3, &gate_calls);
            let job: Job = Arc::new(move || {
                gate();
                if order.fetch_add(1, Ordering::SeqCst) == panicking_call {
                    panic!("job blew up");
                }
            });
            let err = catch_unwind(AssertUnwindSafe(|| pool.run(3, job))).unwrap_err();
            assert_eq!(err.downcast_ref::<&str>(), Some(&"job blew up"));
            let calls = Arc::new(AtomicUsize::new(0));
            pool.run(3, rendezvous(3, &calls));
            assert_eq!(calls.load(Ordering::SeqCst), 3, "pool unusable after a panic");
        }
    }

    #[test]
    fn drop_joins_idle_workers() {
        let pool = BlockPool::new(3);
        pool.run(3, Arc::new(|| {}));
        drop(pool); // must not hang
    }
}
