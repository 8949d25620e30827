//! Identifier and count types shared across the workspace.
//!
//! The paper's graphs have up to 1.1 billion vertices; our scaled-down stand-ins
//! stay far below `u32::MAX`, so vertex ids are `u32` (matching the 4-byte ids the
//! paper assumes in its memory-model arithmetic, §IV-A), while counts that can
//! describe the *original* datasets (e.g. 91.8 billion edges for EU-2015) are `u64`.

/// Identifier of a vertex. Vertices are always densely numbered `0..num_vertices`.
pub type VertexId = u32;

/// Number of vertices in a graph.
pub type VertexCount = u64;

/// Number of edges in a graph.
pub type EdgeCount = u64;

/// Identifier of a tile produced by the pre-processing engine.
pub type TileId = u32;

/// Identifier of a (simulated) server in the cluster.
pub type ServerId = u32;

/// Returns the server a tile is assigned to under GraphH's round-robin placement:
/// tile `i` goes to server `i mod N` (§III-C.1).
#[inline]
pub fn tile_home_server(tile: TileId, num_servers: u32) -> ServerId {
    assert!(num_servers > 0, "cluster must have at least one server");
    tile % num_servers
}

/// Returns the server that owns vertex `v` under hash-based edge-cut partitioning
/// (Pregel+/GraphD, §II-B.1). We use a multiplicative hash rather than plain modulo
/// so that consecutive ids do not all land on the same server.
#[inline]
pub fn vertex_hash_server(v: VertexId, num_servers: u32) -> ServerId {
    assert!(num_servers > 0, "cluster must have at least one server");
    // Fibonacci hashing: spreads consecutive ids uniformly.
    let h = (u64::from(v)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 33) % u64::from(num_servers)) as ServerId
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_assignment_cycles() {
        assert_eq!(tile_home_server(0, 3), 0);
        assert_eq!(tile_home_server(1, 3), 1);
        assert_eq!(tile_home_server(2, 3), 2);
        assert_eq!(tile_home_server(3, 3), 0);
    }

    #[test]
    fn hash_assignment_in_range_and_spread() {
        let n = 8;
        let mut counts = vec![0u32; n as usize];
        for v in 0..10_000u32 {
            let s = vertex_hash_server(v, n);
            assert!(s < n);
            counts[s as usize] += 1;
        }
        // Every server should get a reasonable share (within 3x of uniform).
        for &c in &counts {
            assert!(
                c > 10_000 / (n * 3),
                "unbalanced hash distribution: {counts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        tile_home_server(0, 0);
    }
}
