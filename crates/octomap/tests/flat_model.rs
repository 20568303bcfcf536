//! Flat-model oracle for the occupancy octree.
//!
//! The octree's observable contract is per voxel: each finest-level key
//! holds the clamped log-odds its updates produce, or nothing when it was
//! never touched. A `HashMap<VoxelKey, f32>` that applies the same update
//! rules states that contract with no tree at all. Every property replays a
//! random sequence of observe / add-delta / set / prune / clear operations
//! into both, then compares them on every key of a depth-4 grid — pruned
//! aggregates, expansions and block recycling included — and checks that
//! the `.ot` and `.bt` streams of the tree decode back to the same map.

use std::collections::HashMap;

use octocache_geom::{VoxelGrid, VoxelKey};
use octocache_octomap::{io, io_bt, OccupancyOcTree, OccupancyParams};
use proptest::prelude::*;

const EDGE: u16 = 16;

fn grid() -> VoxelGrid {
    VoxelGrid::new(1.0, 4).unwrap()
}

fn every_key() -> impl Iterator<Item = VoxelKey> {
    (0..EDGE)
        .flat_map(|x| (0..EDGE).flat_map(move |y| (0..EDGE).map(move |z| VoxelKey::new(x, y, z))))
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Observe(VoxelKey, bool),
    Add(VoxelKey, f32),
    Set(VoxelKey, f32),
    Prune,
    Clear,
}

/// Operations weighted towards updates; keys are drawn from one 4³ corner
/// half the time so sibling sets fill up, saturate and prune.
fn op_strategy() -> impl Strategy<Value = Op> {
    (
        (0u16..EDGE, 0u16..EDGE, 0u16..EDGE),
        any::<bool>(),
        0u8..40,
        -4.0f32..5.0,
    )
        .prop_map(|((x, y, z), dense, kind, value)| {
            let key = if dense {
                VoxelKey::new(x & 3, y & 3, z & 3)
            } else {
                VoxelKey::new(x, y, z)
            };
            match kind {
                0..=15 => Op::Observe(key, value > 0.0),
                16..=25 => Op::Add(key, value),
                26..=37 => Op::Set(key, value),
                38 => Op::Prune,
                _ => Op::Clear,
            }
        })
}

/// Applies `ops` to a fresh tree and to the flat model.
fn replay(ops: &[Op], auto_prune: bool) -> (OccupancyOcTree, HashMap<VoxelKey, f32>) {
    let params = OccupancyParams::default();
    let mut tree = OccupancyOcTree::new(grid(), params);
    tree.set_auto_prune(auto_prune);
    let mut model: HashMap<VoxelKey, f32> = HashMap::new();
    for &op in ops {
        match op {
            Op::Observe(key, occupied) => {
                let v = model.entry(key).or_insert(params.threshold);
                *v = params.apply(*v, occupied);
                tree.update_node(key, occupied);
            }
            Op::Add(key, delta) => {
                let v = model.entry(key).or_insert(params.threshold);
                *v = params.clamp(*v + delta);
                tree.update_node_log_odds(key, delta);
            }
            Op::Set(key, value) => {
                model.insert(key, params.clamp(value));
                tree.set_node_log_odds(key, value);
            }
            Op::Prune => tree.prune(),
            Op::Clear => {
                model.clear();
                tree.clear();
            }
        }
    }
    (tree, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every key answers exactly what the flat model holds, `None` exactly
    /// for untouched keys, and the structure stays valid.
    #[test]
    fn prop_tree_matches_flat_model(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        lazy in any::<bool>(),
    ) {
        let (tree, model) = replay(&ops, !lazy);
        if let Err(e) = tree.check_invariants() {
            prop_assert!(false, "invariants broken: {}", e);
        }
        for key in every_key() {
            prop_assert_eq!(tree.search(key), model.get(&key).copied(), "key {}", key);
        }
        let params = tree.params();
        let occupied = model.values().filter(|&&v| params.is_occupied(v)).count() as u64;
        prop_assert_eq!(tree.occupied_voxel_count(), occupied);
    }

    /// `.ot` streams carry every value exactly; `.bt` streams carry every
    /// occupancy decision (values become maximum-likelihood).
    #[test]
    fn prop_streams_round_trip_the_model(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        lazy in any::<bool>(),
    ) {
        let (tree, model) = replay(&ops, !lazy);
        let ot = io::read_tree(&io::write_tree(&tree)).unwrap();
        let bt = io_bt::read_binary_tree(&io_bt::write_binary_tree(&tree)).unwrap();
        for decoded in [&ot, &bt] {
            if let Err(e) = decoded.check_invariants() {
                prop_assert!(false, "decoded invariants broken: {}", e);
            }
        }
        prop_assert_eq!(ot.num_nodes(), tree.num_nodes());
        prop_assert_eq!(io::write_tree(&ot), io::write_tree(&tree));
        let params = tree.params();
        for key in every_key() {
            let expected = model.get(&key).copied();
            prop_assert_eq!(ot.search(key), expected, ".ot key {}", key);
            prop_assert_eq!(
                bt.is_occupied(key),
                expected.map(|v| params.is_occupied(v)),
                ".bt key {}",
                key
            );
        }
    }
}

#[test]
fn empty_trees_round_trip() {
    let tree = OccupancyOcTree::new(grid(), OccupancyParams::default());
    let ot = io::read_tree(&io::write_tree(&tree)).unwrap();
    assert!(ot.is_empty());
    let bt = io_bt::read_binary_tree(&io_bt::write_binary_tree(&tree)).unwrap();
    assert!(bt.is_empty());
}
