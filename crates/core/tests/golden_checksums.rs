//! Golden-checksum regression fixtures: every backend replays the shared seeded scenarios (blob-walk and the three tiny
//! synthetic datasets) and the resulting [`leaf_checksum`] — an FNV-1a
//! digest over the sorted leaf set, independent of node placement and
//! insertion order — must equal the value committed in
//! `tests/golden/checksums.txt`.
//!
//! The fixture was generated at the pre-engine-refactor commit, so this
//! suite bit-verifies the unified scan-lifecycle engine (and any future
//! refactor) against history: a single flipped voxel anywhere in the
//! ray-tracing → cache → eviction → octree path changes the digest.
//!
//! Every row names the `arena` storage layout so that the rows stay
//! byte-for-byte the ones that were checked against a second layout.
//!
//! Regenerate (after an *intentional* mapping-behaviour change only) with:
//!
//! ```text
//! OCTO_GOLDEN_WRITE=1 cargo test -p octocache --test golden_checksums
//! ```
//!
//! [`leaf_checksum`]: octocache_octomap::OccupancyOcTree::leaf_checksum

mod common;

use std::fmt::Write as _;

use octocache_datasets::{scenario, Dataset, DatasetConfig, Scan};
use octocache_geom::VoxelGrid;

/// The committed pre-refactor fixture.
const GOLDEN: &str = include_str!("golden/checksums.txt");

/// One replayable scan source: a name, its scans, the sensor range to
/// insert with, and the grid it fits in.
struct Source {
    name: &'static str,
    scans: Vec<Scan>,
    max_range: f64,
    grid: VoxelGrid,
}

/// The scan sources fixed into the fixture: two blob-walk seeds on the
/// default scenario grid, plus the three named synthetic datasets at the
/// tiny scale on a dataset-sized grid.
fn sources() -> Vec<Source> {
    // Dataset scans span ±50 m; 0.4 m leaves over a 16-level grid cover
    // that with margin to spare (coarse enough to keep the full
    // source × backend matrix inside a debug-build test budget).
    let dataset_grid = VoxelGrid::new(0.4, 16).unwrap();
    let mut v: Vec<Source> = vec![
        Source {
            name: "blob-walk-1",
            scans: scenario::blob_walk(1),
            max_range: scenario::MAX_RANGE,
            grid: common::grid(),
        },
        Source {
            name: "blob-walk-7",
            scans: scenario::blob_walk(7),
            max_range: scenario::MAX_RANGE,
            grid: common::grid(),
        },
    ];
    for dataset in Dataset::ALL {
        let seq = dataset.generate(&DatasetConfig::tiny());
        v.push(Source {
            name: dataset.name(),
            scans: seq.scans().to_vec(),
            max_range: seq.max_range(),
            grid: dataset_grid,
        });
    }
    v
}

/// Renders the source × backend checksum lines in fixture format: one
/// `source backend arena 0x<checksum>` line per combination.
fn checksum_table() -> String {
    let mut out = String::new();
    for src in sources() {
        for (label, mut backend) in common::all_backends(src.grid) {
            for scan in &src.scans {
                backend
                    .insert_scan(scan.origin, &scan.points, src.max_range)
                    .expect("scan within grid");
            }
            backend.finish();
            let checksum = backend.take_tree().leaf_checksum();
            writeln!(out, "{} {} arena {:#018x}", src.name, label, checksum).unwrap();
        }
    }
    out
}

#[test]
fn golden_checksums_match_pre_refactor() {
    let actual = checksum_table();

    if std::env::var("OCTO_GOLDEN_WRITE").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/checksums.txt");
        std::fs::write(path, &actual).expect("write golden fixture");
        eprintln!("wrote {path}");
        return;
    }

    let mut mismatches = Vec::new();
    let mut expected_lines = GOLDEN.lines();
    for actual_line in actual.lines() {
        match expected_lines.next() {
            Some(expected_line) if expected_line == actual_line => {}
            Some(expected_line) => {
                mismatches.push(format!("expected `{expected_line}`, got `{actual_line}`"))
            }
            None => mismatches.push(format!("extra line `{actual_line}` (fixture too short)")),
        }
    }
    for missing in expected_lines {
        mismatches.push(format!("missing line `{missing}` (fixture too long)"));
    }
    assert!(
        mismatches.is_empty(),
        "golden checksum drift — mapping output differs from the \
         pre-refactor fixture:\n{}",
        mismatches.join("\n")
    );
}
