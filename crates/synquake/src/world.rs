//! The game world: players and the spatial grid.
//!
//! SynQuake's key design point (§VIII) is **object-granularity** conflict
//! detection: every player is its own transactional object and the spatial
//! index is cell-granular, "eliminating false sharing and reducing
//! contention time". We mirror that: one [`TVar`] per player, one grid-cell
//! list per region.

use gstm_collections::TArray;
use gstm_core::{Abort, TVar, Txn};

use crate::quest::MAP_SIZE;

/// Side length of one spatial grid cell, in map units.
pub(crate) const CELL_SIZE: i32 = 64;

/// Cells per map side.
pub(crate) const CELLS_PER_SIDE: i32 = MAP_SIZE / CELL_SIZE;

/// One player's state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Player {
    /// Map position.
    pub(crate) x: i32,
    /// Map position.
    pub(crate) y: i32,
    /// Hit points; respawns at full health when it reaches zero.
    pub(crate) health: i32,
    /// Frags scored.
    pub(crate) score: u32,
}

impl Player {
    /// Full health at (re)spawn.
    pub(crate) const FULL_HEALTH: i32 = 100;

    /// Spawns a player at a position.
    pub(crate) fn at(x: i32, y: i32) -> Self {
        Player { x, y, health: Self::FULL_HEALTH, score: 0 }
    }

    /// The grid cell this player occupies.
    pub(crate) fn cell(&self) -> usize {
        cell_of(self.x, self.y)
    }
}

/// Maps a position to its grid-cell index.
pub(crate) fn cell_of(x: i32, y: i32) -> usize {
    let cx = (x.clamp(0, MAP_SIZE - 1)) / CELL_SIZE;
    let cy = (y.clamp(0, MAP_SIZE - 1)) / CELL_SIZE;
    (cy * CELLS_PER_SIDE + cx) as usize
}

/// The shared world state.
#[derive(Clone, Debug)]
pub(crate) struct World {
    players: Vec<TVar<Player>>,
    cells: TArray<Vec<u16>>,
    /// Health-pack stock per grid cell.
    items: TArray<u32>,
}

impl World {
    /// Creates a world with players at the given spawn positions, the
    /// spatial grid consistent with them, and every grid cell stocked with
    /// `items_per_cell` health packs.
    pub(crate) fn with_items(spawns: &[(i32, i32)], items_per_cell: u32) -> Self {
        assert!(spawns.len() < u16::MAX as usize, "player ids are u16");
        let players: Vec<TVar<Player>> =
            spawns.iter().map(|&(x, y)| TVar::new(Player::at(x, y))).collect();
        let mut lists: Vec<Vec<u16>> = vec![Vec::new(); (CELLS_PER_SIDE * CELLS_PER_SIDE) as usize];
        for (id, &(x, y)) in spawns.iter().enumerate() {
            lists[cell_of(x, y)].push(id as u16);
        }
        let n_cells = lists.len();
        let cells = TArray::new(n_cells, |i| lists[i].clone());
        World { players, cells, items: TArray::new(n_cells, |_| items_per_cell) }
    }

    /// Transactionally reads a player.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    pub(crate) fn read_player(&self, tx: &mut Txn<'_>, id: u16) -> Result<Player, Abort> {
        tx.read(&self.players[id as usize])
    }

    /// Transactionally moves a player to a new position, keeping the grid
    /// index consistent (removing from the old cell, adding to the new).
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    pub(crate) fn move_player(
        &self,
        tx: &mut Txn<'_>,
        id: u16,
        x: i32,
        y: i32,
    ) -> Result<(), Abort> {
        let var = &self.players[id as usize];
        let mut p = tx.read(var)?;
        let old_cell = p.cell();
        p.x = x.clamp(0, MAP_SIZE - 1);
        p.y = y.clamp(0, MAP_SIZE - 1);
        let new_cell = p.cell();
        tx.write(var, p)?;
        if old_cell != new_cell {
            self.cells.update(tx, old_cell, |mut l| {
                l.retain(|&e| e != id);
                l
            })?;
            self.cells.update(tx, new_cell, |mut l| {
                l.push(id);
                l
            })?;
        }
        Ok(())
    }

    /// Transactionally applies damage; returns `Some(true)` if the victim
    /// died (and respawned in place at full health, crediting the attacker
    /// is the caller's job).
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    pub(crate) fn damage(&self, tx: &mut Txn<'_>, victim: u16, amount: i32) -> Result<bool, Abort> {
        let var = &self.players[victim as usize];
        let mut p = tx.read(var)?;
        p.health -= amount;
        let died = p.health <= 0;
        if died {
            p.health = Player::FULL_HEALTH;
        }
        tx.write(var, p)?;
        Ok(died)
    }

    /// Transactionally credits a frag to `attacker`.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    pub(crate) fn credit(&self, tx: &mut Txn<'_>, attacker: u16) -> Result<(), Abort> {
        let var = &self.players[attacker as usize];
        let mut p = tx.read(var)?;
        p.score += 1;
        tx.write(var, p)
    }

    /// Transactionally lists the other players in `id`'s cell.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    pub(crate) fn cohabitants(&self, tx: &mut Txn<'_>, id: u16) -> Result<Vec<u16>, Abort> {
        let p = self.read_player(tx, id)?;
        let mut list = self.cells.read(tx, p.cell())?;
        list.retain(|&e| e != id);
        Ok(list)
    }

    /// Full-world consistency check (teardown only): every player appears
    /// in exactly the cell its position maps to.
    ///
    /// # Errors
    ///
    /// Returns a description of the inconsistency.
    pub(crate) fn check_consistency(&self) -> Result<(), String> {
        let lists = self.cells.snapshot_unlogged();
        let mut seen = vec![0u32; self.players.len()];
        for (cell, list) in lists.iter().enumerate() {
            for &id in list {
                let p = *self.players[id as usize].load_unlogged();
                if p.cell() != cell {
                    return Err(format!(
                        "player {id} at ({}, {}) indexed in cell {cell}, belongs in {}",
                        p.x,
                        p.y,
                        p.cell()
                    ));
                }
                seen[id as usize] += 1;
            }
        }
        for (id, &count) in seen.iter().enumerate() {
            if count != 1 {
                return Err(format!("player {id} appears in {count} cells"));
            }
        }
        Ok(())
    }

    /// Total score across players (teardown only).
    pub(crate) fn total_score_unlogged(&self) -> u64 {
        self.players.iter().map(|p| p.load_unlogged().score as u64).sum()
    }

    /// Transactionally picks up a health pack from `id`'s cell, healing the
    /// player (capped at full health). Returns whether a pack was consumed.
    ///
    /// # Errors
    ///
    /// Propagates STM conflicts.
    pub(crate) fn try_pickup(&self, tx: &mut Txn<'_>, id: u16) -> Result<bool, Abort> {
        let var = &self.players[id as usize];
        let mut p = tx.read(var)?;
        let cell = p.cell();
        let stock = self.items.read(tx, cell)?;
        if stock == 0 {
            return Ok(false);
        }
        self.items.write(tx, cell, stock - 1)?;
        p.health = (p.health + 25).min(Player::FULL_HEALTH);
        tx.write(var, p)?;
        Ok(true)
    }

    /// Remaining health packs across the map (teardown only).
    pub(crate) fn items_remaining_unlogged(&self) -> u64 {
        self.items.snapshot_unlogged().iter().map(|&c| c as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{Stm, StmConfig, ThreadId, TxId};

    fn with_tx<R>(_world: &World, f: impl FnMut(&mut Txn<'_>) -> Result<R, Abort>) -> R {
        let stm = Stm::new(StmConfig::new(1));
        stm.run(ThreadId::new(0), TxId::new(0), f)
    }

    #[test]
    fn cell_mapping() {
        assert_eq!(cell_of(0, 0), 0);
        assert_eq!(cell_of(CELL_SIZE, 0), 1);
        assert_eq!(cell_of(0, CELL_SIZE), CELLS_PER_SIDE as usize);
        assert_eq!(cell_of(MAP_SIZE + 50, 0), (CELLS_PER_SIDE - 1) as usize);
    }

    #[test]
    fn world_starts_consistent() {
        let w = World::with_items(&[(0, 0), (100, 100), (1000, 1000)], 0);
        assert_eq!(w.players.len(), 3);
        w.check_consistency().unwrap();
    }

    #[test]
    fn move_updates_grid() {
        let w = World::with_items(&[(0, 0)], 0);
        with_tx(&w, |tx| w.move_player(tx, 0, 500, 500));
        w.check_consistency().unwrap();
        let p = with_tx(&w, |tx| w.read_player(tx, 0));
        assert_eq!((p.x, p.y), (500, 500));
    }

    #[test]
    fn move_clamps_to_map() {
        let w = World::with_items(&[(10, 10)], 0);
        with_tx(&w, |tx| w.move_player(tx, 0, -50, 99999));
        let p = with_tx(&w, |tx| w.read_player(tx, 0));
        assert_eq!((p.x, p.y), (0, MAP_SIZE - 1));
        w.check_consistency().unwrap();
    }

    #[test]
    fn damage_and_respawn() {
        let w = World::with_items(&[(0, 0), (1, 1)], 0);
        let died = with_tx(&w, |tx| w.damage(tx, 1, Player::FULL_HEALTH));
        assert!(died);
        let p = with_tx(&w, |tx| w.read_player(tx, 1));
        assert_eq!(p.health, Player::FULL_HEALTH);
        with_tx(&w, |tx| w.credit(tx, 0));
        assert_eq!(w.total_score_unlogged(), 1);
    }

    #[test]
    fn pickup_consumes_stock_and_heals() {
        let w = World::with_items(&[(5, 5)], 2);
        with_tx(&w, |tx| w.damage(tx, 0, 60).map(|_| ()));
        let took = with_tx(&w, |tx| w.try_pickup(tx, 0));
        assert!(took);
        let p = with_tx(&w, |tx| w.read_player(tx, 0));
        assert_eq!(p.health, Player::FULL_HEALTH - 60 + 25);
        // Drain the cell.
        assert!(with_tx(&w, |tx| w.try_pickup(tx, 0)));
        assert!(!with_tx(&w, |tx| w.try_pickup(tx, 0)), "stock exhausted");
    }

    #[test]
    fn pickup_never_overheals() {
        let w = World::with_items(&[(5, 5)], 1);
        assert!(with_tx(&w, |tx| w.try_pickup(tx, 0)));
        let p = with_tx(&w, |tx| w.read_player(tx, 0));
        assert_eq!(p.health, Player::FULL_HEALTH);
    }

    #[test]
    fn items_remaining_counts_map_wide() {
        let w = World::with_items(&[(0, 0), (600, 600)], 3);
        let total = w.items_remaining_unlogged();
        assert_eq!(total, 3 * (CELLS_PER_SIDE as u64) * (CELLS_PER_SIDE as u64));
    }

    #[test]
    fn cohabitants_excludes_self() {
        let w = World::with_items(&[(5, 5), (6, 6), (700, 700)], 0);
        let others = with_tx(&w, |tx| w.cohabitants(tx, 0));
        assert_eq!(others, vec![1]);
    }
}
