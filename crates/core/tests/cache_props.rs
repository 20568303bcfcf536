//! Property tests for the voxel-cache invariants that the parallel
//! pipeline's correctness rests on:
//!
//! 1. τ-eviction is lossless — every accumulated update eventually reaches
//!    the eviction stream with exactly the accumulated value.
//! 2. `CacheStats::since`/`merge` form the algebra the telemetry layer
//!    assumes (associative merge, zero identity, since/merge inversion).
//! 3. Hash and Morton indexing agree on bucket membership: both place a
//!    key in exactly one in-range bucket, find it again, and account for
//!    every resident cell in the occupancy histogram.

use std::collections::HashMap;

use octocache::{CacheConfig, CacheStats, EvictedCell, IndexPolicy, VoxelCache};
use octocache_geom::VoxelKey;
use octocache_octomap::OccupancyParams;
use proptest::prelude::*;

/// Ops driving the eviction-loss property.
#[derive(Debug, Clone)]
enum Op {
    /// Offer an observation for key (x, y, z).
    Insert(u16, u16, u16, bool),
    /// Run a τ-eviction pass.
    Evict,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u16..20, 0u16..20, 0u16..20, any::<bool>())
            .prop_map(|(x, y, z, o)| Op::Insert(x, y, z, o)),
        1 => Just(Op::Evict),
    ]
}

/// An arbitrary stats snapshot with fields small enough that merged sums
/// never overflow.
fn arb_stats() -> impl Strategy<Value = CacheStats> {
    proptest::collection::vec(0u64..(1 << 30), 7..8).prop_map(|v| CacheStats {
        insertions: v[0],
        hits: v[1],
        misses: v[2],
        octree_seeds: v[3],
        evictions: v[4],
        query_hits: v[5],
        query_misses: v[6],
    })
}

fn merged(a: &CacheStats, b: &CacheStats) -> CacheStats {
    let mut m = *a;
    m.merge(b);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// τ-eviction never drops (or corrupts) an accumulated update: under
    /// any interleaving of insertions and eviction passes, the last evicted
    /// value of every voxel equals the flat model's accumulation, and
    /// nothing stays behind after `drain_all`.
    #[test]
    fn tau_eviction_is_lossless(
        ops in proptest::collection::vec(arb_op(), 1..300),
        tau in 1usize..5,
    ) {
        let params = OccupancyParams::default();
        let cfg = CacheConfig::builder()
            .num_buckets(16) // tiny: constant collision pressure
            .tau(tau)
            .build()
            .unwrap();
        let mut cache = VoxelCache::new(cfg, params);
        let mut model: HashMap<VoxelKey, f32> = HashMap::new();
        // The model octree: last value each voxel reached the eviction
        // stream with. Re-inserted voxels seed from here, exactly as the
        // pipelines seed misses from the real octree.
        let mut flushed: HashMap<VoxelKey, f32> = HashMap::new();
        let mut buf: Vec<EvictedCell> = Vec::new();

        for op in &ops {
            match *op {
                Op::Insert(x, y, z, occupied) => {
                    let key = VoxelKey::new(x, y, z);
                    let e = model.entry(key).or_insert(params.threshold);
                    *e = params.apply(*e, occupied);
                    cache.insert(key, occupied, |k| flushed.get(&k).copied());
                }
                Op::Evict => {
                    buf.clear();
                    cache.evict_into(&mut buf);
                    for cell in &buf {
                        flushed.insert(cell.key, cell.log_odds);
                    }
                }
            }
        }
        for cell in cache.drain_all() {
            flushed.insert(cell.key, cell.log_odds);
        }
        assert!(cache.is_empty());

        assert_eq!(flushed.len(), model.len());
        for (key, expected) in &model {
            let got = flushed.get(key).unwrap_or_else(|| panic!("{key} lost"));
            assert_eq!(
                got.to_bits(),
                expected.to_bits(),
                "{key}: flushed {got} != model {expected}"
            );
        }
    }

    /// `merge` is associative with `CacheStats::default()` as the zero.
    #[test]
    fn stats_merge_algebra(
        a in arb_stats(),
        b in arb_stats(),
        c in arb_stats(),
    ) {
        // Zero identity, both sides.
        assert_eq!(merged(&a, &CacheStats::default()), a);
        assert_eq!(merged(&CacheStats::default(), &a), a);
        // Associativity.
        assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
        // Commutativity (merge is a fieldwise sum).
        assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    /// `since` inverts `merge`: the delta of a merged snapshot over its
    /// base is the increment, and re-merging the delta restores the whole.
    #[test]
    fn stats_since_inverts_merge(
        base in arb_stats(),
        delta in arb_stats(),
    ) {
        let total = merged(&base, &delta);
        assert_eq!(total.since(&base), delta);
        assert_eq!(merged(&base, &total.since(&base)), total);
        // A snapshot's delta over itself is zero.
        assert_eq!(total.since(&total), CacheStats::default());
    }

    /// Hash and Morton indexing agree on bucket membership: under either
    /// policy every key lands in one in-range bucket, is found there again
    /// by `peek`/`bucket_index`, and the occupancy histogram accounts for
    /// every resident cell.
    #[test]
    fn indexing_policies_agree_on_membership(
        keys in proptest::collection::vec(
            (0u16..64, 0u16..64, 0u16..64).prop_map(|(x, y, z)| VoxelKey::new(x, y, z)),
            1..80,
        ),
        buckets_log2 in 4u32..9,
    ) {
        let params = OccupancyParams::default();
        for policy in [IndexPolicy::Hash, IndexPolicy::Morton] {
            let cfg = CacheConfig::builder()
                .num_buckets(1usize << buckets_log2)
                .tau(1 << 20) // effectively infinite: membership stays put
                .index_policy(policy)
                .build()
                .unwrap();
            let mut cache = VoxelCache::new(cfg, params);
            for key in &keys {
                cache.insert(*key, true, |_| None);
            }
            for key in &keys {
                let b = cache.bucket_index(*key);
                assert!(b < 1usize << buckets_log2, "{policy:?}: bucket {b} out of range");
                // bucket_index is a pure function of the key.
                assert_eq!(b, cache.bucket_index(*key), "{policy:?}: unstable index");
                assert!(cache.peek(*key).is_some(), "{policy:?}: {key} not found");
            }
            let distinct: std::collections::HashSet<VoxelKey> = keys.iter().copied().collect();
            assert_eq!(cache.len(), distinct.len(), "{policy:?}");
            // The histogram is indexed by occupancy count: summing
            // `count × buckets_with_that_count` must account for every
            // resident cell, and the bucket total must match `num_buckets`.
            let hist = cache.bucket_occupancy_histogram();
            let cells: usize = hist.iter().enumerate().map(|(c, n)| c * n).sum();
            assert_eq!(cells, cache.len(), "{policy:?}");
            assert!(
                hist.iter().sum::<usize>() <= 1usize << buckets_log2,
                "{policy:?}: more buckets than configured"
            );
        }
    }
}
