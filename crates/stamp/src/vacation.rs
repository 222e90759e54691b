//! vacation — a client/server travel reservation system.
//!
//! An in-memory database of three resource tables (flights, rooms, cars)
//! and a customer table. Client threads issue a pseudo-random stream of
//! operations, as in STAMP: **make reservation** (query several resources,
//! pick the cheapest available, reserve it), **delete customer** (release
//! every reservation), and **update tables** (add capacity / change
//! prices). The paper singles vacation out for its randomized client
//! behaviour being hard to model at 16 threads (§VII).
//!
//! Transaction sites: `a` = make, `b` = delete customer, `c` = update.

use gstm_core::rng::SmallRng;

use gstm_collections::{TArray, THashMap};
use gstm_core::{Abort, TxId, Txn};
use gstm_guide::{WorkerEnv, Workload, WorkloadRun};

use crate::size::InputSize;

/// Resource kinds, one table per kind.
const KINDS: usize = 3;

/// One row of a resource table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Resource {
    total: u32,
    reserved: u32,
    price: u32,
}

/// One customer reservation: (kind, row index).
type Reservation = (u8, u32);

/// The vacation benchmark.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Vacation {
    /// Rows per resource table.
    pub(crate) rows: usize,
    /// Customers.
    pub(crate) customers: usize,
    /// Operations per thread.
    pub(crate) ops_per_thread: usize,
    /// Rows examined per reservation query.
    pub(crate) query_span: usize,
}

impl Vacation {
    /// Size presets.
    pub(crate) fn with_size(size: InputSize) -> Self {
        Vacation {
            rows: size.pick(16, 48),
            customers: size.pick(32, 96),
            ops_per_thread: size.pick(40, 120),
            query_span: 4,
        }
    }
}

struct VacationRun {
    params: Vacation,
    tables: Vec<TArray<Resource>>,
    customers: THashMap<u32, Vec<Reservation>>,
}

impl Workload for Vacation {
    fn name(&self) -> &'static str {
        "vacation"
    }

    fn instantiate(&self, _threads: usize, seed: u64) -> Box<dyn WorkloadRun> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7661_6361);
        let tables = (0..KINDS)
            .map(|_| {
                TArray::new(self.rows, |_| Resource {
                    total: rng.gen_range(2..8),
                    reserved: 0,
                    price: rng.gen_range(100..1000),
                })
            })
            .collect();
        Box::new(VacationRun { params: *self, tables, customers: THashMap::new(64) })
    }
}

impl VacationRun {
    /// Reserve the cheapest available row among `span` candidates of one
    /// table for `customer`; no-op when none is available.
    fn make_reservation(
        &self,
        tx: &mut Txn<'_>,
        rng_vals: &[u32],
        kind: usize,
        customer: u32,
    ) -> Result<bool, Abort> {
        let table = &self.tables[kind];
        let mut best: Option<(u32, usize)> = None;
        for &r in rng_vals {
            let row = r as usize % self.params.rows;
            let res = table.read(tx, row)?;
            tx.work(2);
            if res.reserved < res.total {
                let better = best.map(|(p, _)| res.price < p).unwrap_or(true);
                if better {
                    best = Some((res.price, row));
                }
            }
        }
        let Some((_, row)) = best else { return Ok(false) };
        table.update(tx, row, |mut r| {
            r.reserved += 1;
            r
        })?;
        self.customers.upsert(tx, customer, Vec::new, |list| {
            list.push((kind as u8, row as u32));
        })?;
        Ok(true)
    }

    /// Delete a customer, releasing every reservation they hold.
    fn delete_customer(&self, tx: &mut Txn<'_>, customer: u32) -> Result<bool, Abort> {
        let Some(list) = self.customers.remove(tx, &customer)? else {
            return Ok(false);
        };
        for (kind, row) in list {
            self.tables[kind as usize].update(tx, row as usize, |mut r| {
                r.reserved = r.reserved.saturating_sub(1);
                r
            })?;
            tx.work(1);
        }
        Ok(true)
    }

    /// Update table rows: grow capacity and reprice.
    fn update_tables(&self, tx: &mut Txn<'_>, rng_vals: &[u32], kind: usize) -> Result<(), Abort> {
        for &r in rng_vals {
            let row = r as usize % self.params.rows;
            self.tables[kind].update(tx, row, |mut res| {
                res.total += 1;
                res.price = 100 + (res.price + 77) % 900;
                res
            })?;
            tx.work(1);
        }
        Ok(())
    }
}

impl WorkloadRun for VacationRun {
    fn worker(&self, env: WorkerEnv) -> Box<dyn FnOnce() + Send> {
        let params = self.params;
        // Clone the shared handles for the move into the closure; `self`'s
        // helper methods are reconstructed over the clones.
        let run =
            VacationRun { params, tables: self.tables.clone(), customers: self.customers.clone() };
        let me = env.thread.index();
        Box::new(move || {
            let mut rng = SmallRng::seed_from_u64(0x636c69 ^ (me as u64) << 32);
            for _ in 0..params.ops_per_thread {
                let dice = rng.gen_range(0..100);
                let kind = rng.gen_range(0..KINDS);
                let customer = rng.gen_range(0..params.customers as u32);
                let vals: Vec<u32> = (0..params.query_span).map(|_| rng.gen()).collect();
                if dice < 70 {
                    env.stm.run(env.thread, TxId::new(0), |tx| {
                        run.make_reservation(tx, &vals, kind, customer)
                    });
                } else if dice < 85 {
                    env.stm.run(env.thread, TxId::new(1), |tx| run.delete_customer(tx, customer));
                } else {
                    env.stm.run(env.thread, TxId::new(2), |tx| run.update_tables(tx, &vals, kind));
                }
            }
        })
    }

    fn verify(&self) -> Result<(), String> {
        // Full consistency: per-row reserved counts must equal the number of
        // live customer reservations pointing at the row, and never exceed
        // capacity.
        let mut expected = vec![vec![0u32; self.params.rows]; KINDS];
        for (_, list) in self.customers.snapshot_unlogged() {
            for (kind, row) in list {
                expected[kind as usize][row as usize] += 1;
            }
        }
        for (kind, table) in self.tables.iter().enumerate() {
            for (row, res) in table.snapshot_unlogged().into_iter().enumerate() {
                if res.reserved != expected[kind][row] {
                    return Err(format!(
                        "table {kind} row {row}: reserved {} but {} live reservations",
                        res.reserved, expected[kind][row]
                    ));
                }
                if res.reserved > res.total {
                    return Err(format!(
                        "table {kind} row {row}: overbooked {}/{}",
                        res.reserved, res.total
                    ));
                }
            }
        }
        Ok(())
    }

    fn stats(&self) -> Vec<(String, f64)> {
        vec![("customers_live".into(), self.customers.len_unlogged() as f64)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_guide::{run_workload, RunOptions};

    #[test]
    fn reservations_stay_consistent_under_contention() {
        let w = Vacation { rows: 8, customers: 12, ops_per_thread: 60, query_span: 3 };
        let out = run_workload(&w, &RunOptions::new(4, 11));
        assert_eq!(out.total_commits(), 4 * 60);
        assert!(out.total_aborts() > 0, "hot rows must conflict");
    }

    #[test]
    fn presets_scale() {
        let s = Vacation::with_size(InputSize::Small);
        let m = Vacation::with_size(InputSize::Medium);
        assert!(m.rows > s.rows && m.ops_per_thread > s.ops_per_thread);
    }

    #[test]
    fn single_thread_never_overbooks() {
        let w = Vacation { rows: 2, customers: 4, ops_per_thread: 100, query_span: 4 };
        run_workload(&w, &RunOptions::new(1, 3));
    }
}
