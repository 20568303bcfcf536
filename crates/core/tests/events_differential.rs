//! Event tracing must be *observationally invisible*: a backend built with
//! sub-scan event recording on must produce a voxel-for-voxel identical map
//! to the same backend with recording off — on every backend and every
//! parallel worker count.
//!
//! Two layers of evidence:
//!
//! 1. A scenario differential (seeded synthetic scans, tolerance 0.0)
//!    across octomap / serial / sharded / parallel N ∈ {1, 2, 4, 8}, which
//!    also checks the recorded stream is
//!    non-empty and structurally sane (spans pair up per lane).
//! 2. A proptest at the `VoxelCache` level: under arbitrary interleavings
//!    of insertions and eviction passes, the eviction stream with events
//!    attached is bit-identical to the stream without.

use octocache::pipeline::{MappingSystem, OctoMapSystem, RayTracer};
use octocache::{CacheConfig, ParallelOctoCache, SerialOctoCache, ShardedOctoMap};
use octocache_geom::{Point3, VoxelGrid};
use octocache_octomap::{compare, OccupancyOcTree, OccupancyParams};
use octocache_telemetry::{EventKind, EventLog, EventSink};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One deterministic scan: an origin and a point cloud.
struct Scan {
    origin: Point3,
    points: Vec<Point3>,
}

/// A deterministic random-walk scan sequence (every backend replays the
/// same scans). Rays fan out in all directions so multi-worker runs hit
/// several top-level octants.
fn scenario(seed: u64) -> Vec<Scan> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut origin = Point3::new(0.0, 0.0, 0.0);
    (0..8)
        .map(|_| {
            origin = Point3::new(
                (origin.x + rng.random_range(-2.0..2.0)).clamp(-15.0, 15.0),
                (origin.y + rng.random_range(-2.0..2.0)).clamp(-15.0, 15.0),
                (origin.z + rng.random_range(-0.5..0.5)).clamp(-3.0, 3.0),
            );
            let points = (0..100)
                .map(|_| {
                    let theta = rng.random_range(0.0..std::f64::consts::TAU);
                    let phi = rng.random_range(-0.5..0.5_f64);
                    let r = rng.random_range(3.0..14.0);
                    Point3::new(
                        origin.x + r * theta.cos() * phi.cos(),
                        origin.y + r * theta.sin() * phi.cos(),
                        origin.z + r * phi.sin(),
                    )
                })
                .collect();
            Scan { origin, points }
        })
        .collect()
}

fn grid() -> VoxelGrid {
    VoxelGrid::new(0.5, 8).unwrap()
}

/// A small cache so τ-eviction fires constantly — event traffic on every
/// path (hit, miss, evict, enqueue, dequeue, span).
fn cache(events: bool) -> CacheConfig {
    CacheConfig::builder()
        .num_buckets(1 << 7)
        .tau(2)
        .events(events)
        .build()
        .unwrap()
}

/// Every backend under test, built with event recording on or off.
fn backends(events: bool) -> Vec<(String, Box<dyn MappingSystem>)> {
    let params = OccupancyParams::default();
    let mut octomap = OctoMapSystem::new(grid(), params);
    if events {
        octomap.enable_events();
    }
    let mut sharded = ShardedOctoMap::new(grid(), params, 8);
    if events {
        sharded.enable_events();
    }
    let mut v: Vec<(String, Box<dyn MappingSystem>)> = vec![
        ("octomap".to_string(), Box::new(octomap)),
        (
            "serial".to_string(),
            Box::new(SerialOctoCache::new(grid(), params, cache(events))),
        ),
        ("sharded-x8".to_string(), Box::new(sharded)),
    ];
    for n in [1usize, 2, 4, 8] {
        v.push((
            format!("parallel-x{n}"),
            Box::new(ParallelOctoCache::with_workers(
                grid(),
                params,
                cache(events),
                RayTracer::Standard,
                n,
            )),
        ));
    }
    v
}

/// Replays `scans`, flushes, and returns the tree plus any recorded events.
fn build(
    mut backend: Box<dyn MappingSystem>,
    scans: &[Scan],
) -> (OccupancyOcTree, Option<EventLog>) {
    for scan in scans {
        backend
            .insert_scan(scan.origin, &scan.points, 40.0)
            .expect("scan within grid");
    }
    backend.finish();
    let events = backend.take_events();
    (backend.take_tree(), events)
}

/// Per-lane structural sanity: begins and ends pair up, and cache events
/// only appear on the producer lane.
fn check_stream(label: &str, log: &EventLog) {
    assert!(!log.events.is_empty(), "{label}: recorded stream is empty");
    assert_eq!(log.dropped, 0, "{label}: events dropped at default caps");
    let mut lanes: std::collections::BTreeMap<u32, (u64, u64)> = std::collections::BTreeMap::new();
    for e in &log.events {
        let lane = lanes.entry(e.worker).or_default();
        match e.kind {
            EventKind::BatchBegin => lane.0 += 1,
            EventKind::BatchEnd => lane.1 += 1,
            EventKind::CacheHit | EventKind::CacheMiss | EventKind::CacheEvict => {
                assert_eq!(e.worker, 0, "{label}: cache event off the producer lane");
            }
            _ => {}
        }
    }
    for (lane, (begins, ends)) in &lanes {
        assert_eq!(
            begins, ends,
            "{label}: lane {lane} spans do not pair up ({begins} begins, {ends} ends)"
        );
    }
}

#[test]
fn event_recording_is_invisible_on_every_backend() {
    for seed in [0xC0FFEE, 0xC0FFEE ^ 1] {
        let scans = scenario(seed);
        let plain = backends(false);
        let recorded = backends(true);
        for ((label, pb), (_, rb)) in plain.into_iter().zip(recorded) {
            let (ptree, pevents) = build(pb, &scans);
            let (rtree, revents) = build(rb, &scans);
            assert!(
                pevents.is_none(),
                "{label}/seed {seed:#x}: events recorded with the switch off"
            );
            let log = revents.unwrap_or_else(|| {
                panic!("{label}/seed {seed:#x}: no event log with the switch on")
            });
            check_stream(&format!("{label}/seed {seed:#x}"), &log);
            let d = compare::diff(&ptree, &rtree, 0.0);
            assert!(
                d.is_identical(),
                "{label}/seed {seed:#x}: event recording changed the map — {} value / {} \
                 coverage mismatches of {} voxels (max |diff| {})",
                d.value_mismatches,
                d.coverage_mismatches,
                d.known_voxels,
                d.max_abs_diff
            );
        }
    }
}

#[test]
fn parallel_event_stream_covers_every_worker_lane() {
    let scans = scenario(99);
    let n = 4usize;
    let backend: Box<dyn MappingSystem> = Box::new(ParallelOctoCache::with_workers(
        grid(),
        OccupancyParams::default(),
        cache(true),
        RayTracer::Standard,
        n,
    ));
    let (_, events) = build(backend, &scans);
    let log = events.expect("events enabled");
    assert_eq!(log.dropped, 0);
    for lane in 1..=n as u32 {
        let begins = log
            .events
            .iter()
            .filter(|e| e.worker == lane && e.kind == EventKind::BatchBegin)
            .count();
        let ends = log
            .events
            .iter()
            .filter(|e| e.worker == lane && e.kind == EventKind::BatchEnd)
            .count();
        assert!(begins >= 1, "lane {lane} recorded no batch spans");
        assert_eq!(begins, ends, "lane {lane} spans unpaired");
        // The producer attributes its enqueues to the target lane; every
        // worker that applied a non-empty batch must show queue traffic.
        let dequeues = log
            .events
            .iter()
            .filter(|e| e.worker == lane && e.kind == EventKind::QueueDequeue)
            .count();
        let applied: u64 = log
            .events
            .iter()
            .filter(|e| e.worker == lane && e.kind == EventKind::BatchEnd)
            .map(|e| e.value)
            .sum();
        if applied > 0 {
            assert!(dequeues >= 1, "lane {lane} applied cells without dequeues");
        }
    }
    // Producer-side cache traffic is on lane 0.
    assert!(log
        .events
        .iter()
        .any(|e| e.worker == 0 && e.kind == EventKind::CacheMiss));
    assert!(log
        .events
        .iter()
        .any(|e| e.kind == EventKind::QueueEnqueue && e.worker >= 1));
}

/// Ops driving the cache-level invisibility property.
#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u16, u16, bool),
    Evict,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u16..24, 0u16..24, 0u16..24, any::<bool>())
            .prop_map(|(x, y, z, o)| Op::Insert(x, y, z, o)),
        1 => Just(Op::Evict),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Attaching an event buffer never perturbs the cache: under any op
    /// interleaving, both the per-pass eviction streams and the final
    /// drain are bit-identical with and without events.
    #[test]
    fn cache_events_are_invisible(ops in proptest::collection::vec(arb_op(), 1..200)) {
        use octocache::VoxelCache;
        use octocache_geom::VoxelKey;

        let config = CacheConfig::builder()
            .num_buckets(16)
            .tau(3)
            .build()
            .unwrap();
        let params = OccupancyParams::default();
        let mut plain = VoxelCache::new(config, params);
        let mut traced = VoxelCache::new(config, params);
        let sink = EventSink::new();
        traced.attach_events(sink.buffer(0));

        for op in &ops {
            match op {
                Op::Insert(x, y, z, occ) => {
                    let key = VoxelKey::new(*x, *y, *z);
                    let a = plain.insert(key, *occ, |_| None);
                    let b = traced.insert(key, *occ, |_| None);
                    prop_assert_eq!(a, b);
                }
                Op::Evict => {
                    let mut ea = Vec::new();
                    let mut eb = Vec::new();
                    plain.evict_into(&mut ea);
                    traced.evict_into(&mut eb);
                    prop_assert_eq!(ea, eb);
                }
            }
        }
        let fa = plain.drain_all();
        let fb = traced.drain_all();
        prop_assert_eq!(fa, fb);
        prop_assert_eq!(plain.stats().hits, traced.stats().hits);
        prop_assert_eq!(plain.stats().misses, traced.stats().misses);
        prop_assert_eq!(plain.stats().evictions, traced.stats().evictions);
    }
}
