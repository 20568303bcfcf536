//! Cross-backend differential suite: every mapping backend must produce a
//! voxel-for-voxel identical occupancy map.
//!
//! A seeded scenario generator (shared with the query-consistency and
//! stress suites via `tests/common`) replays deterministic scan sequences
//! over synthetic scenes through the plain `OccupancyOcTree` baseline, the
//! serial OctoCache, the two-thread parallel OctoCache and the sharded
//! OctoMap, then compares the resulting trees with `octomap::compare` —
//! including a structural comparison after pruning. Any eviction, routing,
//! merge or ordering bug shows up as a log-odds mismatch here.
//!
//! Scenario count is scaled by the `OCTO_TEST_ITERS` env knob so CI can
//! crank iterations (see `.github/workflows/ci.yml`).

mod common;

use common::{all_backends, backends, build_tree, grid, num_scenarios, scenario};
use octocache::pipeline::OctoMapSystem;
use octocache_octomap::{compare, OccupancyParams};

#[test]
fn all_backends_match_octomap_baseline() {
    for seed in 0..num_scenarios() {
        let scans = scenario(seed * 7919 + 1);
        let baseline = build_tree(
            Box::new(OctoMapSystem::new(grid(), OccupancyParams::default())),
            &scans,
        );
        assert!(baseline.num_nodes() > 1, "scenario {seed} built nothing");

        for (label, backend) in backends() {
            let tree = build_tree(backend, &scans);
            let d = compare::diff(&baseline, &tree, 1e-4);
            assert!(
                d.is_identical(),
                "seed {seed}, backend {label}: {} value / {} coverage mismatches of {} \
                 voxels (agreement {:.6}, max |diff| {})",
                d.value_mismatches,
                d.coverage_mismatches,
                d.known_voxels,
                d.agreement(),
                d.max_abs_diff
            );
        }
    }
}

#[test]
fn pruned_trees_stay_equivalent_and_structurally_equal() {
    let scans = scenario(42);
    let mut baseline = build_tree(
        Box::new(OctoMapSystem::new(grid(), OccupancyParams::default())),
        &scans,
    );
    baseline.prune();

    for (label, backend) in backends() {
        let mut tree = build_tree(backend, &scans);
        tree.prune();
        // Pruning must not change the flattened map…
        let d = compare::diff(&baseline, &tree, 1e-4);
        assert!(
            d.is_identical(),
            "pruned {label}: {} value / {} coverage mismatches",
            d.value_mismatches,
            d.coverage_mismatches
        );
        // …and identical maps must prune to identical structure.
        assert_eq!(
            tree.num_nodes(),
            baseline.num_nodes(),
            "pruned node count differs for {label}"
        );
        assert_eq!(
            tree.num_leaves(),
            baseline.num_leaves(),
            "pruned leaf count differs for {label}"
        );
    }
}

#[test]
fn every_backend_is_bit_identical_to_octomap_before_and_after_prune() {
    // Stricter than the 1e-4 baseline comparison: the same scenario built by
    // every backend — the octant-sharded baseline (whose `take_tree`
    // exercises the child-block splice merge), the serial cache and the
    // two-thread parallel pipeline — must reproduce the OctoMap map bit for
    // bit (tolerance 0.0), and prune to the same structure.
    for seed in 0..num_scenarios() {
        let scans = scenario(seed * 6151 + 13);
        let mut backends = all_backends(grid()).into_iter();
        let (_, octomap) = backends.next().expect("octomap leads the roster");
        let mut reference = build_tree(octomap, &scans);
        let mut trees: Vec<_> = backends
            .map(|(label, b)| (label, build_tree(b, &scans)))
            .collect();
        for (label, tree) in &trees {
            let d = compare::diff(&reference, tree, 0.0);
            assert!(
                d.is_identical(),
                "seed {seed}, backend {label}: differs from octomap — {} value / \
                 {} coverage mismatches of {} voxels (max |diff| {})",
                d.value_mismatches,
                d.coverage_mismatches,
                d.known_voxels,
                d.max_abs_diff
            );
        }
        reference.prune();
        for (label, tree) in &mut trees {
            tree.prune();
            let d = compare::diff(&reference, tree, 0.0);
            assert!(
                d.is_identical(),
                "seed {seed}, backend {label}: diverges from octomap after prune"
            );
            assert_eq!(
                tree.num_nodes(),
                reference.num_nodes(),
                "seed {seed}, backend {label}: pruned node count differs"
            );
            assert_eq!(
                tree.num_leaves(),
                reference.num_leaves(),
                "seed {seed}, backend {label}: pruned leaf count differs"
            );
        }
    }
}
