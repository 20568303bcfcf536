//! The load generators: the scan loop (closed or open) and the reader loop,
//! plus the in-memory span recorder the traced run wraps around each public
//! call.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use octocache::query::BatchStats;
use octocache::{CacheStats, MappingSystem, PhaseTimes, QueryHandle};
use octocache_datasets::Scan;
use octocache_geom::VoxelKey;
use octocache_octomap::stats::StatsSnapshot;

/// When scans are sent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// The next scan is sent when the previous `insert_scan` returns.
    Closed,
    /// Scan `i` is due at `start + i × period`, whether or not the system
    /// has kept up; latency runs from the due time.
    Open(Duration),
}

/// One span: a named interval, the span that caused it, and the scan or
/// batch it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within its recorder.
    pub id: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer boundary the span wraps (the public call's name).
    pub name: &'static str,
    /// Scan or reader-batch index.
    pub item: Option<u32>,
    /// Start, in ns since the recorder's origin.
    pub start_ns: u64,
    /// End, in ns since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Spans of one thread, kept in memory and written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    lane: &'static str,
    spans: Vec<Span>,
    /// `cache_stats()` as read at the last scan boundary.
    pub cache: Option<CacheStats>,
    /// `tree_stats()` as read at the last scan boundary.
    pub tree: Option<StatsSnapshot>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant, lane: &'static str) -> Tracer {
        Tracer {
            origin,
            lane,
            spans: Vec::new(),
            cache: None,
            tree: None,
        }
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, item: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            item,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Reads the stats getters at a layer boundary.
    pub fn observe(&mut self, sys: &dyn MappingSystem) {
        self.cache = sys.cache_stats();
        self.tree = sys.tree_stats();
    }

    /// Closed spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The spans as JSON lines.
    pub fn jsonl(&self, pass: usize) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"pass\":{pass},\"lane\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"item\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                self.lane,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.item.map_or("null".to_string(), |i| i.to_string()),
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }
}

/// What the scan loop saw.
#[derive(Debug, Clone, Default)]
pub struct ScanLoop {
    /// Scans sent.
    pub attempted: u64,
    /// Scans whose `insert_scan` returned an error.
    pub failed: u64,
    /// Per applied scan: due time (closed loop: call time) to return, ms.
    pub latencies_ms: Vec<f64>,
    /// Per scan: scans due but not yet started when it started.
    pub backlog: Vec<u64>,
    /// Largest start − due, ms: how late the generator ran.
    pub lag_max_ms: f64,
    /// First send to the return of `finish()`.
    pub wall: Duration,
    /// Sum of `ScanReport.times` over the applied scans.
    pub times: PhaseTimes,
    /// Sum of `ScanReport.observations`.
    pub observations: u64,
}

impl ScanLoop {
    /// Most scans due but not yet started at any scan's start.
    pub fn backlog_max(&self) -> u64 {
        self.backlog.iter().copied().max().unwrap_or(0)
    }

    /// Scans applied per second of wall time.
    pub fn scans_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall.as_secs_f64()
    }
}

fn sleep_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        std::thread::sleep(due - now);
    }
}

/// Sends every scan to `sys` on `schedule`, starting at `start`, then calls
/// `finish()`. With a tracer, each `insert_scan` and the `finish` get a span
/// and the stats getters are read after each of them.
pub fn drive_scans(
    sys: &mut dyn MappingSystem,
    scans: &[Scan],
    max_range: f64,
    schedule: Schedule,
    start: Instant,
    mut tracer: Option<&mut Tracer>,
) -> ScanLoop {
    let mut out = ScanLoop::default();
    let root = tracer.as_deref_mut().map(|t| t.begin("scans", None, None));
    sleep_until(start);
    for (i, scan) in scans.iter().enumerate() {
        let (due, backlog) = match schedule {
            Schedule::Closed => (Instant::now(), 0),
            Schedule::Open(period) => {
                let due = start + period * i as u32;
                sleep_until(due);
                let late = Instant::now() - start;
                let due_by_now = (late.as_nanos() / period.as_nanos()) as u64 + 1;
                (due, due_by_now.saturating_sub(i as u64 + 1))
            }
        };
        let sent = Instant::now();
        let span = tracer
            .as_deref_mut()
            .map(|t| t.begin("insert_scan", root, Some(i as u32)));
        let result = sys.insert_scan(scan.origin, &scan.points, max_range);
        let done = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            t.end(span.expect("span opened with the tracer"));
            t.observe(sys);
        }
        out.attempted += 1;
        out.backlog.push(backlog);
        out.lag_max_ms = out.lag_max_ms.max((sent - due).as_secs_f64() * 1e3);
        match result {
            Ok(report) => {
                out.latencies_ms.push((done - due).as_secs_f64() * 1e3);
                out.times += report.times;
                out.observations += report.observations as u64;
            }
            Err(_) => out.failed += 1,
        }
    }
    let span = tracer.as_deref_mut().map(|t| t.begin("finish", root, None));
    sys.finish();
    out.wall = start.elapsed();
    if let Some(t) = tracer {
        t.end(span.expect("span opened with the tracer"));
        t.observe(sys);
        t.end(root.expect("span opened with the tracer"));
    }
    out
}

/// What the reader loop saw.
#[derive(Debug, Clone, Default)]
pub struct ReaderLoop {
    /// Batches issued.
    pub attempted: u64,
    /// Per batch: due time to return, µs.
    pub latencies_us: Vec<f64>,
    /// Traversal counters summed over the batches.
    pub batch: BatchStats,
    /// Traced runs only: age of the snapshot each batch read, ms.
    pub ages_ms: Vec<f64>,
}

/// Issues `batches` (cycled) through `handle`, batch `k` due at
/// `start + k × period`, until `stop` is raised.
pub fn drive_reader(
    handle: &QueryHandle,
    batches: &[Vec<VoxelKey>],
    period: Duration,
    start: Instant,
    stop: &AtomicBool,
    mut tracer: Option<&mut Tracer>,
) -> ReaderLoop {
    let mut out = ReaderLoop::default();
    for k in 0u32.. {
        let due = start + period * k;
        sleep_until(due);
        if stop.load(Ordering::Acquire) {
            break;
        }
        let batch = &batches[k as usize % batches.len()];
        let span = tracer
            .as_deref_mut()
            .map(|t| t.begin("batch_occupancy", None, Some(k)));
        if tracer.is_some() {
            out.ages_ms
                .push(handle.snapshot().age().as_secs_f64() * 1e3);
        }
        let (values, stats) = handle.batch_occupancy(batch);
        std::hint::black_box(values);
        out.latencies_us.push(due.elapsed().as_secs_f64() * 1e6);
        if let Some(t) = tracer.as_deref_mut() {
            t.end(span.expect("span opened with the tracer"));
        }
        out.attempted += 1;
        out.batch.queries += stats.queries;
        out.batch.nodes_visited += stats.nodes_visited;
        out.batch.nodes_reused += stats.nodes_reused;
    }
    out
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use octocache::engine::ScanReport;
    use octocache::{PipelineError, SnapshotPublisher};
    use octocache_geom::{GeomError, Point3, VoxelGrid};
    use octocache_octomap::{OccupancyOcTree, OccupancyParams};

    use super::*;
    use crate::stats;

    /// A mapping system that takes a fixed time per scan and fails every
    /// `fail_every`-th one.
    struct Stub {
        grid: VoxelGrid,
        busy: Duration,
        fail_every: usize,
        calls: usize,
        publisher: SnapshotPublisher,
    }

    impl Stub {
        fn new(busy_ms: u64, fail_every: usize) -> Stub {
            let grid = VoxelGrid::new(0.1, 16).unwrap();
            let tree = OccupancyOcTree::new(grid, OccupancyParams::default());
            Stub {
                grid,
                busy: Duration::from_millis(busy_ms),
                fail_every,
                calls: 0,
                publisher: SnapshotPublisher::new(tree, 0),
            }
        }
    }

    impl MappingSystem for Stub {
        fn name(&self) -> String {
            "stub".into()
        }
        fn grid(&self) -> &VoxelGrid {
            &self.grid
        }
        fn insert_scan(
            &mut self,
            _origin: Point3,
            _cloud: &[Point3],
            _max_range: f64,
        ) -> Result<ScanReport, PipelineError> {
            std::thread::sleep(self.busy);
            self.calls += 1;
            if self.fail_every > 0 && self.calls.is_multiple_of(self.fail_every) {
                return Err(PipelineError::Geom(GeomError::NotFinite));
            }
            Ok(ScanReport::default())
        }
        fn occupancy(&mut self, _key: VoxelKey) -> Option<f32> {
            None
        }
        fn is_occupied(&mut self, _key: VoxelKey) -> Option<bool> {
            None
        }
        fn finish(&mut self) -> PhaseTimes {
            PhaseTimes::default()
        }
        fn phase_times(&self) -> PhaseTimes {
            PhaseTimes::default()
        }
        fn query_handle(&mut self) -> QueryHandle {
            self.publisher.handle()
        }
        fn take_tree(self: Box<Self>) -> OccupancyOcTree {
            OccupancyOcTree::new(self.grid, OccupancyParams::default())
        }
    }

    fn scans(n: usize) -> Vec<Scan> {
        vec![
            Scan {
                origin: Point3::ZERO,
                points: Vec::new(),
            };
            n
        ]
    }

    fn p50(run: &ScanLoop) -> f64 {
        stats::percentile(&stats::sorted(&run.latencies_ms), 50.0)
            .unwrap()
            .value
    }

    #[test]
    fn open_loop_counts_queueing_when_the_system_falls_behind() {
        // 12 ms per scan against scans due every 6 ms: each scan waits for
        // all earlier ones, so latency from the due time and the backlog grow.
        let mut slow = Stub::new(12, 0);
        let period = Duration::from_millis(6);
        let run = drive_scans(
            &mut slow,
            &scans(30),
            1.0,
            Schedule::Open(period),
            Instant::now(),
            None,
        );
        assert_eq!((run.attempted, run.failed), (30, 0));
        assert!(
            p50(&run) > 2.0 * 12.0,
            "p50 {} ms shows no queueing",
            p50(&run)
        );
        assert!(run.backlog_max() >= 10, "backlog {:?}", run.backlog);
        let (early, late) = run.backlog.split_at(10);
        assert!(
            late.iter().max() > early.iter().max(),
            "backlog {:?}",
            run.backlog
        );
        assert!(run.lag_max_ms > 100.0, "lag {}", run.lag_max_ms);

        // The same system in a closed loop only ever sees its own service time.
        let mut closed = Stub::new(12, 0);
        let run = drive_scans(
            &mut closed,
            &scans(30),
            1.0,
            Schedule::Closed,
            Instant::now(),
            None,
        );
        assert!(p50(&run) < 2.0 * 12.0, "closed p50 {}", p50(&run));
        assert_eq!(run.backlog_max(), 0);
    }

    #[test]
    fn open_loop_that_keeps_up_has_no_backlog() {
        // A period well above the sleep overshoot of a loaded host, so a
        // late wake-up is not read as a backlog.
        let mut fast = Stub::new(1, 0);
        let period = Duration::from_millis(40);
        let start = Instant::now();
        let run = drive_scans(
            &mut fast,
            &scans(20),
            1.0,
            Schedule::Open(period),
            start,
            None,
        );
        assert_eq!(run.backlog_max(), 0, "backlog {:?}", run.backlog);
        assert!(p50(&run) < 40.0, "p50 {}", p50(&run));
        // The schedule, not the system, sets the pace.
        assert!(run.wall >= period * 19);
    }

    #[test]
    fn failures_count_against_attempts_and_carry_no_latency() {
        let mut flaky = Stub::new(0, 3);
        let run = drive_scans(
            &mut flaky,
            &scans(9),
            1.0,
            Schedule::Closed,
            Instant::now(),
            None,
        );
        assert_eq!((run.attempted, run.failed), (9, 3));
        assert_eq!(run.latencies_ms.len(), 6);
        let applied_rate = 6.0 / run.wall.as_secs_f64();
        assert!((run.scans_per_s() - applied_rate).abs() < 1e-9);
    }

    #[test]
    fn reader_runs_until_stopped_and_times_from_due() {
        let mut stub = Stub::new(0, 0);
        let handle = stub.query_handle();
        let stop = Arc::new(AtomicBool::new(false));
        let batches = vec![vec![VoxelKey::new(1, 2, 3), VoxelKey::new(4, 5, 6)]];
        let period = Duration::from_millis(2);
        let start = Instant::now();
        let reader = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut t = Tracer::new(start, "reader");
                let run = drive_reader(&handle, &batches, period, start, &stop, Some(&mut t));
                (run, t.named("batch_occupancy").count())
            })
        };
        std::thread::sleep(Duration::from_millis(40));
        stop.store(true, Ordering::Release);
        let (run, spans) = reader.join().unwrap();
        assert!(run.attempted >= 5, "{} batches", run.attempted);
        assert_eq!(run.latencies_us.len() as u64, run.attempted);
        assert_eq!(spans as u64, run.attempted);
        assert_eq!(run.ages_ms.len() as u64, run.attempted);
    }

    #[test]
    fn tracer_nests_spans_and_writes_json_lines() {
        let mut t = Tracer::new(Instant::now(), "writer");
        let root = t.begin("scans", None, None);
        let child = t.begin("insert_scan", Some(root), Some(0));
        t.end(child);
        t.end(root);
        assert_eq!(t.named("insert_scan").count(), 1);
        let lines = t.jsonl(3);
        assert_eq!(lines.lines().count(), 2);
        assert!(
            lines.contains("\"parent\":0,\"name\":\"insert_scan\",\"item\":0"),
            "{lines}"
        );
        assert!(
            lines.starts_with("{\"pass\":3,\"lane\":\"writer\""),
            "{lines}"
        );
    }
}
