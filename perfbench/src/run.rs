//! One pass of a workload: set up the system, drive it, gate its output
//! against the reference, and (traced) derive the per-layer metrics.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use octocache::durable::{self, DurableMap, DurableStats};
use octocache::pipeline::RayTracer;
use octocache::{
    CacheConfig, MappingSystem, ParallelOctoCache, QueryHandle, ScanRecord, SerialOctoCache,
    SharedRecorder,
};
use octocache_datasets::ScanSequence;
use octocache_geom::{morton, VoxelKey};
use octocache_octomap::{OccupancyOcTree, OccupancyParams};

use crate::drive::{drive_reader, drive_scans, ReaderLoop, ScanLoop, Schedule, Tracer};
use crate::stats;
use crate::workload::{Kind, Workload};

/// Scans per second the live workload's sensor delivers.
const SCAN_HZ: u32 = 8;
/// Reader batches due per second on the live workload.
const READER_HZ: u32 = 500;
/// Voxel keys per reader batch.
const BATCH_KEYS: usize = 256;
/// Distinct reader batches, cycled.
const BATCH_POOL: usize = 64;
/// Scans between the live workload's periodic checkpoints.
pub const CHECKPOINT_EVERY: u64 = 16;

/// Everything a pass needs that is made before any timing starts.
#[derive(Debug)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Input variant of the generated scans.
    pub variant: u64,
    /// The scans.
    pub seq: ScanSequence,
    /// The workload's pinned cache size, plus the live workload's
    /// checkpoint interval.
    pub config: CacheConfig,
    /// Morton-sorted reader batches (live workload only).
    pub batches: Vec<Vec<VoxelKey>>,
    /// OctoMap leaf checksum of the same scans.
    pub reference: u64,
}

impl Inputs {
    /// Generates the scans of input variant `variant` and derives the rest.
    pub fn new(workload: Workload, variant: u64, reference: u64) -> Inputs {
        let seq = workload.generate(variant);
        let config = CacheConfig::builder()
            .num_buckets(workload.cache_buckets)
            .tau(4)
            .checkpoint_every(CHECKPOINT_EVERY)
            .build()
            .expect("a config rebuilt from a valid one is valid");
        let batches = if workload.kind == Kind::Live {
            reader_batches(&workload, &seq)
        } else {
            Vec::new()
        };
        Inputs {
            workload,
            variant,
            seq,
            config,
            batches,
            reference,
        }
    }
}

/// Reader batches drawn from the scans' own surface points (what a planner
/// probes), each Morton-sorted as `batch_occupancy` expects.
fn reader_batches(workload: &Workload, seq: &ScanSequence) -> Vec<Vec<VoxelKey>> {
    let grid = workload.grid();
    let scans = seq.scans();
    (0..BATCH_POOL)
        .map(|b| {
            let points = &scans[(b * scans.len()) / BATCH_POOL].points;
            let stride = (points.len() / BATCH_KEYS).max(1);
            let mut keys: Vec<VoxelKey> = points
                .iter()
                .step_by(stride)
                .filter_map(|p| grid.key_of(*p).ok())
                .take(BATCH_KEYS)
                .collect();
            morton::sort_keys(&mut keys);
            keys
        })
        .collect()
}

/// The system under test, as the workload builds it.
enum System {
    Plain(Box<dyn MappingSystem>),
    Durable(Box<DurableMap>, QueryHandle),
}

impl System {
    fn as_dyn(&mut self) -> &mut dyn MappingSystem {
        match self {
            System::Plain(m) => m.as_mut(),
            System::Durable(m, _) => m.as_mut(),
        }
    }
}

/// Builds the workload's system: everything until the first scan can be
/// sent. Only the live workload touches `dir`.
fn set_up(inputs: &Inputs, dir: &Path) -> Result<System, String> {
    let grid = inputs.workload.grid();
    let params = OccupancyParams::default();
    let config = inputs.config;
    Ok(match inputs.workload.kind {
        Kind::PipelineBuild => {
            System::Plain(Box::new(ParallelOctoCache::new(grid, params, config)))
        }
        Kind::Live => {
            let inner = SerialOctoCache::new(grid, params, config);
            let mut map = DurableMap::create(dir, inner, params, RayTracer::Standard, &config)
                .map_err(|e| format!("DurableMap::create({}): {e}", dir.display()))?;
            let handle = map.query_handle();
            System::Durable(Box::new(map), handle)
        }
    })
}

/// Times one set-up and tears it down again, outside the measured passes.
pub fn time_setup(inputs: &Inputs, dir: &Path) -> Result<Duration, String> {
    fresh_dir(dir)?;
    let t = Instant::now();
    let system = set_up(inputs, dir)?;
    let elapsed = t.elapsed();
    drop(system);
    remove_dir(dir);
    Ok(elapsed)
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    remove_dir(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// One pass's results.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Set-up time.
    pub setup: Duration,
    /// The scan loop.
    pub scans: ScanLoop,
    /// The reader loop (live workload only).
    pub reader: ReaderLoop,
    /// Per-layer metrics (traced passes only).
    pub layers: BTreeMap<&'static str, (f64, &'static str)>,
    /// The program's own phase split beside the outside spans (traced).
    pub reconcile: String,
    /// Spans as JSON lines (traced).
    pub spans: String,
}

/// Runs one pass. `Err` means the pass could not run or its output was
/// wrong; either way it yields no numbers.
pub fn run_pass(inputs: &Inputs, dir: &Path, traced: bool, index: usize) -> Result<Pass, String> {
    fresh_dir(dir)?;
    let origin = Instant::now();
    let mut system = set_up(inputs, dir)?;
    let setup = origin.elapsed();

    let recorder = SharedRecorder::new();
    let mut tracer = traced.then(|| Tracer::new(origin, "writer"));
    if traced {
        system.as_dyn().set_recorder(Box::new(recorder.clone()));
    }
    let seq = &inputs.seq;
    let (scans, reader) = match &mut system {
        System::Plain(map) => {
            let run = drive_scans(
                map.as_mut(),
                seq.scans(),
                seq.max_range(),
                Schedule::Closed,
                Instant::now(),
                tracer.as_mut(),
            );
            (run, (ReaderLoop::default(), None))
        }
        System::Durable(map, handle) => {
            let stop = AtomicBool::new(false);
            // A common origin a little ahead, so the reader is running when
            // the first scan falls due.
            let start = Instant::now() + Duration::from_millis(5);
            std::thread::scope(|s| {
                let batches = &inputs.batches;
                let stop = &stop;
                let reader_handle = handle.clone();
                let reader = s.spawn(move || {
                    let mut tracer = traced.then(|| Tracer::new(origin, "reader"));
                    let run = drive_reader(
                        &reader_handle,
                        batches,
                        Duration::from_secs(1) / READER_HZ,
                        start,
                        stop,
                        tracer.as_mut(),
                    );
                    (run, tracer)
                });
                // Raised on every exit, so a panicking writer cannot leave
                // the scope waiting on a reader that never stops.
                let stop_guard = StopOnDrop(stop);
                let run = drive_scans(
                    map.as_mut(),
                    seq.scans(),
                    seq.max_range(),
                    Schedule::Open(Duration::from_secs(1) / SCAN_HZ),
                    start,
                    tracer.as_mut(),
                );
                drop(stop_guard);
                let (reader, reader_tracer) = reader.join().expect("reader thread panicked");
                (run, (reader, reader_tracer))
            })
        }
    };
    let (reader, reader_tracer) = reader;

    let gate = gate(inputs, system, dir)?;
    let mut pass = Pass {
        setup,
        scans,
        reader,
        ..Pass::default()
    };
    if let Some(tracer) = tracer {
        layers(inputs, &mut pass, &tracer, &recorder.records(), &gate);
        pass.spans = tracer.jsonl(index);
        if let Some(t) = reader_tracer {
            pass.spans.push_str(&t.jsonl(index));
        }
    }
    remove_dir(dir);
    Ok(pass)
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// What the gate read off the finished system.
#[derive(Debug, Default)]
struct Gate {
    memory_bytes: u64,
    durable: DurableStats,
    recover: Duration,
    phases: octocache::PhaseTimes,
}

/// Checks the finished map against the OctoMap reference; for the live
/// workload also that recovery reproduces it and that readers of the final
/// snapshot see exactly the final tree.
fn gate(inputs: &Inputs, mut system: System, dir: &Path) -> Result<Gate, String> {
    let phases = system.as_dyn().phase_times();
    let (tree, durable, snapshot): (OccupancyOcTree, DurableStats, _) = match system {
        System::Plain(map) => (map.take_tree(), DurableStats::default(), None),
        System::Durable(map, handle) => {
            let stats = map.stats();
            let snapshot = handle.snapshot();
            (map.take_tree(), stats, Some(snapshot))
        }
    };
    let live = tree.leaf_checksum();
    if live != inputs.reference {
        return Err(format!(
            "final map checksum {live:#018x} != OctoMap reference {:#018x}",
            inputs.reference
        ));
    }
    let mut recover = Duration::ZERO;
    if let Some(snapshot) = snapshot {
        let t = Instant::now();
        let (recovered, _) =
            durable::recover(dir).map_err(|e| format!("recover({}): {e}", dir.display()))?;
        recover = t.elapsed();
        if recovered.leaf_checksum() != live {
            return Err(format!(
                "recovered checksum {:#018x} != live map {live:#018x}",
                recovered.leaf_checksum()
            ));
        }
        if snapshot.checksum() != live {
            return Err(format!(
                "final snapshot checksum {:#018x} != final map {live:#018x}",
                snapshot.checksum()
            ));
        }
        for batch in &inputs.batches {
            let (answers, _) = snapshot.batch_occupancy(batch);
            for (key, got) in batch.iter().zip(answers) {
                let want = tree.search(*key);
                if got.map(f32::to_bits) != want.map(f32::to_bits) {
                    return Err(format!(
                        "reader answer {got:?} != final tree {want:?} at {key:?}"
                    ));
                }
            }
        }
    }
    Ok(Gate {
        memory_bytes: tree.memory_usage() as u64,
        durable,
        recover,
        phases,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Derives the per-layer metrics of a traced pass from the spans, the
/// `ScanReport`s, the stats getters and the `ScanRecord`s.
fn layers(inputs: &Inputs, pass: &mut Pass, tracer: &Tracer, records: &[ScanRecord], gate: &Gate) {
    let scans = &pass.scans;
    let reader = &pass.reader;
    let serial = inputs.workload.kind != Kind::PipelineBuild;
    let span_ms: f64 = tracer.named("insert_scan").map(|s| s.ms()).sum();
    let finish_ms: f64 = tracer.named("finish").map(|s| s.ms()).sum();
    let t = scans.times;
    // The producer's own phases; on a serial backend the octree update runs
    // on the calling thread too.
    let program = ms(t.critical_path()) + if serial { ms(t.octree_update) } else { 0.0 };
    let publish: u64 = records.iter().map(|r| r.snapshot_publish_ns).sum();
    let journal: u64 = records.iter().map(|r| r.journal_append_ns).sum();
    let checkpoint: u64 = records.iter().map(|r| r.checkpoint_write_ns).sum();
    let unattributed = span_ms - program - ns_ms(publish) - ns_ms(journal) - ns_ms(checkpoint);

    let cache = tracer.cache.unwrap_or_default();
    let tree = tracer.tree.unwrap_or_default();
    let busy: u64 = records.iter().flat_map(|r| r.worker_busy_ns.iter()).sum();
    let idle: u64 = records.iter().flat_map(|r| r.worker_idle_ns.iter()).sum();
    let depth = records
        .iter()
        .flat_map(|r| {
            r.worker_queue_depths
                .iter()
                .copied()
                .chain([r.queue_depth_enqueue])
        })
        .max()
        .unwrap_or(0);
    let publishes: Vec<f64> = records
        .iter()
        .filter(|r| r.snapshot_publish_ns > 0)
        .map(|r| ns_ms(r.snapshot_publish_ns))
        .collect();
    let reader_sorted = stats::sorted(&reader.latencies_us);
    let reader_q = |pct| stats::percentile(&reader_sorted, pct).map_or(0.0, |q| q.value);
    let p = gate.phases;
    let d = gate.durable;

    let m = &mut pass.layers;
    let mut put = |name, value: f64, unit| {
        m.insert(name, (value, unit));
    };
    put("engine.scan_span_ms", span_ms, "ms");
    put("engine.finish_ms", finish_ms, "ms");
    put("engine.unattributed_ms", unattributed, "ms");
    put("ray.tracing_ms", ms(p.ray_tracing), "ms");
    put("ray.observations", scans.observations as f64, "count");
    put("cache.insert_ms", ms(p.cache_insert), "ms");
    put("cache.evict_ms", ms(p.cache_evict), "ms");
    put("cache.hit_ratio", cache.hit_rate(), "ratio");
    put("cache.misses", cache.misses as f64, "count");
    put("cache.octree_seeds", cache.octree_seeds as f64, "count");
    put("cache.evictions", cache.evictions as f64, "count");
    put("octree.update_ms", ms(p.octree_update), "ms");
    put("octree.node_visits", tree.node_visits as f64, "count");
    put(
        "octree.visits_per_leaf_update",
        tree.visits_per_update(),
        "ratio",
    );
    put("octree.nodes_created", tree.nodes_created as f64, "count");
    put("octree.memory_bytes", gate.memory_bytes as f64, "bytes");
    put("pipeline.wait_ms", ms(p.wait), "ms");
    put("pipeline.enqueue_ms", ms(p.enqueue), "ms");
    put(
        "pipeline.mutex_wait_ms",
        records.iter().map(|r| ms(r.mutex_wait)).sum(),
        "ms",
    );
    put(
        "pipeline.worker_busy_ratio",
        ratio(busy as f64, (busy + idle) as f64),
        "ratio",
    );
    put("pipeline.queue_depth_max", depth as f64, "count");
    put("query.publish_ms", ns_ms(publish), "ms");
    put("query.publish_p50_ms", stats::median(&publishes), "ms");
    put(
        "query.snapshot_age_p50_ms",
        stats::median(&reader.ages_ms),
        "ms",
    );
    put(
        "query.batch_reuse_ratio",
        reader.batch.reuse_fraction(),
        "ratio",
    );
    put("query.reader_batches", reader.attempted as f64, "count");
    put("query.reader_p50_us", reader_q(50.0), "us");
    put("query.reader_p99_us", reader_q(99.0), "us");
    put(
        "durable.journal_append_ms",
        ns_ms(d.journal_append_ns),
        "ms",
    );
    put("durable.journal_bytes", d.journal_bytes as f64, "bytes");
    put(
        "durable.checkpoint_write_ms",
        ns_ms(d.checkpoint_write_ns),
        "ms",
    );
    put("durable.checkpoints", d.checkpoints_written as f64, "count");
    put("durable.recover_ms", ms(gate.recover), "ms");
    put("loop.scan_backlog_max", scans.backlog_max() as f64, "count");
    put("loop.generator_lag_ms", scans.lag_max_ms, "ms");

    pass.reconcile = format!(
        "outside insert_scan spans {span_ms:.1} ms = program phases {program:.1} \
         (ray {:.1}, cache_insert {:.1}, cache_evict {:.1}, octree_update {:.1}{}, \
         enqueue {:.1}, wait {:.1}) + publish {:.1} + journal {:.1} + checkpoint {:.1} \
         + unattributed {unattributed:.1} ({:.1} %); finish {finish_ms:.1} ms",
        ms(t.ray_tracing),
        ms(t.cache_insert),
        ms(t.cache_evict),
        ms(t.octree_update),
        if serial {
            ""
        } else {
            " on the worker, not counted"
        },
        ms(t.enqueue),
        ms(t.wait),
        ns_ms(publish),
        ns_ms(journal),
        ns_ms(checkpoint),
        100.0 * ratio(unattributed, span_ms),
    );
}
