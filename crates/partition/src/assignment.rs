//! Stage two of the two-stage partitioning: assigning tiles to servers (§III-C.1).
//!
//! GraphH assigns tile `i` to server `i mod N` and each server then fetches its tiles
//! from the DFS to local disk. The assignment is computed once per (graph, cluster
//! size) pair and shared by every engine run.

use graphh_graph::ids::{tile_home_server, ServerId, TileId};

/// A mapping of tiles to servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileAssignment {
    num_servers: u32,
    /// `owner[t]` = server owning tile `t`.
    owner: Vec<ServerId>,
}

impl TileAssignment {
    /// Round-robin assignment of `num_tiles` tiles across `num_servers` servers.
    pub fn round_robin(num_tiles: u32, num_servers: u32) -> Self {
        assert!(num_servers > 0, "cluster must have at least one server");
        let owner = (0..num_tiles)
            .map(|t| tile_home_server(t, num_servers))
            .collect();
        Self { num_servers, owner }
    }

    /// Number of servers.
    pub fn num_servers(&self) -> u32 {
        self.num_servers
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> u32 {
        self.owner.len() as u32
    }

    /// Server owning tile `t`.
    pub fn owner_of(&self, t: TileId) -> ServerId {
        self.owner[t as usize]
    }

    /// Tiles owned by a server, in ascending tile order.
    pub fn tiles_of(&self, server: ServerId) -> Vec<TileId> {
        self.owner
            .iter()
            .enumerate()
            .filter_map(|(t, &s)| (s == server).then_some(t as TileId))
            .collect()
    }

    /// Number of tiles each server owns.
    pub fn tiles_per_server(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_servers as usize];
        for &s in &self.owner {
            counts[s as usize] += 1;
        }
        counts
    }

    /// Imbalance: max tiles per server over mean (1.0 = perfectly even).
    pub fn imbalance(&self) -> f64 {
        let counts = self.tiles_per_server();
        let total: u32 = counts.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = f64::from(total) / counts.len() as f64;
        f64::from(*counts.iter().max().unwrap()) / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_spreads_tiles_evenly() {
        let a = TileAssignment::round_robin(10, 3);
        assert_eq!(a.num_tiles(), 10);
        assert_eq!(a.num_servers(), 3);
        assert_eq!(a.tiles_per_server(), vec![4, 3, 3]);
        assert!(a.imbalance() < 1.3);
    }

    #[test]
    fn owner_and_tiles_of_are_consistent() {
        let a = TileAssignment::round_robin(12, 4);
        for server in 0..4 {
            for t in a.tiles_of(server) {
                assert_eq!(a.owner_of(t), server);
            }
        }
        let total: usize = (0..4).map(|s| a.tiles_of(s).len()).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn single_server_owns_everything() {
        let a = TileAssignment::round_robin(7, 1);
        assert_eq!(a.tiles_of(0).len(), 7);
        assert_eq!(a.imbalance(), 1.0);
    }

    #[test]
    fn more_servers_than_tiles_leaves_some_idle() {
        let a = TileAssignment::round_robin(2, 8);
        assert_eq!(a.tiles_per_server().iter().sum::<u32>(), 2);
        assert_eq!(a.tiles_of(5).len(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        let _ = TileAssignment::round_robin(4, 0);
    }
}
