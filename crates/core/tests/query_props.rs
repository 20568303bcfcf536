//! Property tests for the batch query path: `MapSnapshot::batch_occupancy`
//! Morton-sorts the queries and reuses root-to-leaf traversal prefixes, so
//! the properties pin down that none of that reordering is observable:
//!
//! 1. **Singles equivalence** — batch answers are bit-identical to
//!    one-at-a-time `occupancy` lookups, in input order, for any tree and
//!    any query list (including keys never inserted).
//! 2. **Permutation invariance** — permuting the query list permutes the
//!    answers and nothing else; the per-query answer is a pure function of
//!    the key.
//! 3. **Degenerate batches** — empty batches, all-duplicate batches, and
//!    batches over an empty tree behave exactly like the equivalent
//!    single-query sequences (and report coherent [`BatchStats`]).

use octocache::MapSnapshot;
use octocache_geom::{VoxelGrid, VoxelKey};
use octocache_octomap::{OccupancyOcTree, OccupancyParams};
use proptest::prelude::*;

fn grid() -> VoxelGrid {
    VoxelGrid::new(0.5, 8).unwrap()
}

/// Keys confined to a 32³ block so random updates collide often enough to
/// build multi-level structure (and duplicates arise naturally).
fn arb_key() -> impl Strategy<Value = VoxelKey> {
    (100u16..132, 100u16..132, 100u16..132).prop_map(|(x, y, z)| VoxelKey::new(x, y, z))
}

/// A random map: a list of (key, occupied) integrations.
fn arb_updates() -> impl Strategy<Value = Vec<(VoxelKey, bool)>> {
    proptest::collection::vec((arb_key(), any::<bool>()), 0..200)
}

fn arb_queries() -> impl Strategy<Value = Vec<VoxelKey>> {
    proptest::collection::vec(arb_key(), 0..120)
}

fn build_snapshot(updates: &[(VoxelKey, bool)]) -> MapSnapshot {
    let mut tree = OccupancyOcTree::new(grid(), OccupancyParams::default());
    for (key, occupied) in updates {
        tree.update_node(*key, *occupied);
    }
    MapSnapshot::from_tree(tree)
}

fn bits(o: Option<f32>) -> Option<u32> {
    o.map(f32::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batch answers are the one-at-a-time answers, in input order,
    /// bit-for-bit.
    #[test]
    fn batch_matches_one_at_a_time(updates in arb_updates(), queries in arb_queries()) {
        let snap = build_snapshot(&updates);
        let (batch, stats) = snap.batch_occupancy(&queries);
        prop_assert_eq!(batch.len(), queries.len());
        prop_assert_eq!(stats.queries, queries.len() as u64);
        prop_assert!(stats.nodes_reused <= stats.nodes_visited + stats.nodes_reused);
        for (i, &k) in queries.iter().enumerate() {
            prop_assert_eq!(
                bits(batch[i]),
                bits(snap.occupancy(k)),
                "query {} for {:?}", i, k
            );
        }
    }

    /// Permuting the query list permutes the answers: answers follow their
    /// key, independent of batch position and of what else is in the batch.
    #[test]
    fn batch_is_permutation_invariant(
        updates in arb_updates(),
        queries in arb_queries(),
        rot in 0usize..120,
    ) {
        let snap = build_snapshot(&updates);
        let (base, _) = snap.batch_occupancy(&queries);

        // A rotation plus a reversal covers arbitrary reorderings without
        // needing a permutation strategy.
        let mut rotated = queries.clone();
        if !rotated.is_empty() {
            let r = rot % rotated.len();
            rotated.rotate_left(r);
        }
        let mut reversed = queries.clone();
        reversed.reverse();

        for variant in [rotated, reversed] {
            let (answers, stats) = snap.batch_occupancy(&variant);
            prop_assert_eq!(stats.queries, variant.len() as u64);
            for (i, &k) in variant.iter().enumerate() {
                let j = queries.iter().position(|&q| q == k).expect("same multiset");
                prop_assert_eq!(
                    answers[i].map(f32::to_bits),
                    base[j].map(f32::to_bits),
                    "answer for {:?} changed with batch order", k
                );
            }
        }
    }

    /// An all-duplicates batch answers every slot identically to the single
    /// query, and the prefix reuse path cannot conflate distinct keys.
    #[test]
    fn duplicate_queries_all_get_the_single_answer(
        updates in arb_updates(),
        key in arb_key(),
        copies in 1usize..50,
    ) {
        let snap = build_snapshot(&updates);
        let single = bits(snap.occupancy(key));
        let batch_input = vec![key; copies];
        let (answers, stats) = snap.batch_occupancy(&batch_input);
        prop_assert_eq!(answers.len(), copies);
        prop_assert_eq!(stats.queries, copies as u64);
        for a in answers {
            prop_assert_eq!(a.map(f32::to_bits), single);
        }
    }

    /// Empty batches do nothing; batches against an empty tree answer
    /// `None` everywhere — exactly like singles.
    #[test]
    fn degenerate_batches(queries in arb_queries()) {
        let snap = build_snapshot(&[]);

        let (empty, empty_stats) = snap.batch_occupancy(&[]);
        prop_assert!(empty.is_empty());
        prop_assert_eq!(empty_stats.queries, 0);
        prop_assert_eq!(empty_stats.nodes_visited, 0);
        prop_assert_eq!(empty_stats.nodes_reused, 0);

        let (answers, stats) = snap.batch_occupancy(&queries);
        prop_assert_eq!(stats.queries, queries.len() as u64);
        for (i, &k) in queries.iter().enumerate() {
            prop_assert!(answers[i].is_none(), "unknown key {:?} answered Some", k);
            prop_assert!(snap.occupancy(k).is_none());
        }
    }
}
