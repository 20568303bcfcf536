//! Octant routing for the sharded baseline.
//!
//! [`crate::sharded::ShardedOctoMap`] — the paper's naive octree-sharding
//! baseline (Table 1) — partitions the key space by top-level octant: a
//! voxel's shard is the low `shard_bits` bits of its root-level child
//! index. Shards are therefore disjoint, so their trees merge structurally
//! with [`octocache_octomap::OccupancyOcTree::merge_disjoint_top_level`];
//! the differential test suite compares the merged tree voxel for voxel
//! against OctoMap.

use octocache_geom::{VoxelGrid, VoxelKey};

/// Maps voxel keys to shard indices by top-level octant.
///
/// Valid shard counts are 1, 2, 4 and 8: the root has eight children, and a
/// power-of-two count lets the shard be a bit-mask of the octant index so
/// every shard owns a disjoint, equal-sized group of octants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OctantRouter {
    /// log2(number of shards), 0..=3.
    shard_bits: u8,
    /// The key bit selecting the root-level octant (`grid.depth() - 1`).
    top_bit: u8,
}

impl OctantRouter {
    /// Creates a router over `num_shards` ∈ {1, 2, 4, 8} shards.
    ///
    /// # Panics
    ///
    /// Panics for shard counts other than 1, 2, 4 or 8.
    pub fn new(num_shards: usize, grid: &VoxelGrid) -> Self {
        assert!(
            matches!(num_shards, 1 | 2 | 4 | 8),
            "num_shards must be 1, 2, 4 or 8"
        );
        OctantRouter {
            shard_bits: num_shards.trailing_zeros() as u8,
            top_bit: grid.depth() - 1,
        }
    }

    /// Number of shards this router partitions into.
    pub fn num_shards(&self) -> usize {
        1 << self.shard_bits
    }

    /// The shard a voxel belongs to: the low `shard_bits` bits of its
    /// top-level octant index. Always 0 for a single shard.
    #[inline]
    pub fn shard_of(&self, key: VoxelKey) -> usize {
        if self.shard_bits == 0 {
            return 0;
        }
        let octant = key.child_index(self.top_bit).as_usize();
        octant & ((1 << self.shard_bits) - 1)
    }
}

/// Load skew of per-shard counts: the busiest shard's share divided by the
/// fair share `1/len`. `1.0` is perfect balance (and the value for an empty
/// or all-zero slice); `len as f64` means one shard did all the work.
pub fn skew(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 || counts.is_empty() {
        return 1.0;
    }
    let max = *counts.iter().max().expect("non-empty") as f64;
    max / (total as f64 / counts.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> VoxelGrid {
        VoxelGrid::new(0.5, 8).unwrap()
    }

    #[test]
    #[should_panic(expected = "must be 1, 2, 4 or 8")]
    fn rejects_invalid_shard_counts() {
        OctantRouter::new(5, &grid());
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r = OctantRouter::new(1, &grid());
        for key in [
            VoxelKey::new(0, 0, 0),
            VoxelKey::new(255, 255, 255),
            VoxelKey::new(128, 3, 200),
        ] {
            assert_eq!(r.shard_of(key), 0);
        }
    }

    #[test]
    fn shards_partition_and_nest() {
        // Every key routes to exactly one shard below num_shards, and the
        // 2- and 4-shard routings are coarsenings of the 8-shard one.
        let g = grid();
        let r8 = OctantRouter::new(8, &g);
        let r4 = OctantRouter::new(4, &g);
        let r2 = OctantRouter::new(2, &g);
        for x in (0..256u16).step_by(37) {
            for y in (0..256u16).step_by(41) {
                for z in (0..256u16).step_by(43) {
                    let key = VoxelKey::new(x, y, z);
                    let s8 = r8.shard_of(key);
                    assert!(s8 < 8);
                    assert_eq!(r4.shard_of(key), s8 & 3);
                    assert_eq!(r2.shard_of(key), s8 & 1);
                }
            }
        }
    }

    #[test]
    fn eight_shards_follow_octants() {
        // With 8 shards the shard IS the root octant: the half-grid split
        // along x/y/z determines bits 0/1/2.
        let r = OctantRouter::new(8, &grid());
        assert_eq!(r.shard_of(VoxelKey::new(0, 0, 0)), 0);
        assert_eq!(r.shard_of(VoxelKey::new(128, 0, 0)), 1);
        assert_eq!(r.shard_of(VoxelKey::new(0, 128, 0)), 2);
        assert_eq!(r.shard_of(VoxelKey::new(0, 0, 128)), 4);
        assert_eq!(r.shard_of(VoxelKey::new(128, 128, 128)), 7);
    }

    #[test]
    fn skew_metric() {
        assert_eq!(skew(&[]), 1.0);
        assert_eq!(skew(&[0, 0]), 1.0);
        assert_eq!(skew(&[5, 5, 5, 5]), 1.0);
        assert_eq!(skew(&[10, 0]), 2.0);
        assert_eq!(skew(&[8, 0, 0, 0, 0, 0, 0, 0]), 8.0);
    }
}
