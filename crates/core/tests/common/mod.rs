//! Shared scaffolding for the cross-backend integration suites: the seeded
//! scenario generator and the backend roster. Each `tests/*.rs` binary pulls
//! this in with `mod common;`, so the differential, query-consistency and
//! stress batteries all replay identical deterministic scan sequences.

// Each test binary compiles its own copy and uses a subset of the helpers.
#![allow(dead_code)]

use octocache::pipeline::{MappingSystem, OctoMapSystem, RayTracer};
use octocache::{CacheConfig, ParallelOctoCache, SerialOctoCache, ShardedOctoMap};
use octocache_geom::VoxelGrid;
use octocache_octomap::{OccupancyOcTree, OccupancyParams};

/// One deterministic scan: an origin and a point cloud. Re-exported from
/// the shared generator so every suite speaks the same type.
pub use octocache_datasets::Scan;

/// Scenario seeds exercised; `OCTO_TEST_ITERS` overrides (CI sets it
/// higher).
pub fn num_scenarios() -> u64 {
    std::env::var("OCTO_TEST_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

/// Generates a deterministic scan sequence over a synthetic scene: a sensor
/// random-walking through a field of spherical "blobs", sweeping ray fans
/// in random directions. Everything derives from `seed`, so every backend
/// replays the identical sequence. The generator itself lives in
/// `octocache_datasets::scenario` so the bench bins replay the same
/// distribution.
pub fn scenario(seed: u64) -> Vec<Scan> {
    octocache_datasets::scenario::blob_walk(seed)
}

pub fn grid() -> VoxelGrid {
    VoxelGrid::new(0.5, 8).unwrap()
}

/// A deliberately small cache so τ-eviction fires constantly and the
/// pipelines exercise their eviction/enqueue/merge paths.
pub fn cache() -> CacheConfig {
    CacheConfig::builder()
        .num_buckets(1 << 7)
        .tau(2)
        .build()
        .unwrap()
}

/// Replays `scans` through `backend` and returns the flushed tree.
pub fn build_tree(mut backend: Box<dyn MappingSystem>, scans: &[Scan]) -> OccupancyOcTree {
    for scan in scans {
        backend
            .insert_scan(scan.origin, &scan.points, 40.0)
            .expect("scan within grid");
    }
    backend.finish();
    backend.take_tree()
}

/// Every cache-backed and sharded backend under test (the OctoMap
/// baseline they are compared against excluded), with its display label.
pub fn backends() -> Vec<(String, Box<dyn MappingSystem>)> {
    all_backends(grid())
        .into_iter()
        .filter(|(label, _)| label != "octomap")
        .collect()
}

/// Every backend, the OctoMap baseline included, over an explicit voxel
/// grid (the golden-checksum suite replays dataset-scale scenarios that
/// need a larger grid than the default scenario one).
pub fn all_backends(grid: VoxelGrid) -> Vec<(String, Box<dyn MappingSystem>)> {
    let params = OccupancyParams::default();
    let mut v: Vec<(String, Box<dyn MappingSystem>)> = vec![
        (
            "octomap".to_string(),
            Box::new(OctoMapSystem::new(grid, params)),
        ),
        (
            "serial".to_string(),
            Box::new(SerialOctoCache::new(grid, params, cache())),
        ),
        (
            "sharded-x8".to_string(),
            Box::new(ShardedOctoMap::new(grid, params, 8)),
        ),
    ];
    for n in [1usize, 2, 4, 8] {
        v.push((
            format!("parallel-x{n}"),
            Box::new(ParallelOctoCache::with_workers(
                grid,
                params,
                cache(),
                RayTracer::Standard,
                n,
            )),
        ));
    }
    v
}
