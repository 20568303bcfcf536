//! `octocache-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` and prints, as its last line, a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics untraced (`--trace 0`), the per-layer metrics traced
//! (`--trace 1`). `octocache-perfbench reference <workload> <seed>...`
//! computes the OctoMap checksums kept in `refs.tsv`; `octocache-perfbench
//! list` names the workloads. See `README.md`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use octocache_perfbench::run::{self, Inputs, Pass, CHECKPOINT_EVERY};
use octocache_perfbench::stats;
use octocache_perfbench::workload::{
    reference_for, variant_of, Kind, Workload, DATASET_SEED, WORKLOADS,
};

/// Set-ups timed and torn down unused before the first pass and after each
/// pass, on top of the pass's own. Spreading them over the run samples the
/// host's speed across it rather than at one instant, which matters for an
/// operation this short (well under a millisecond here).
const SETUP_BLOCK: usize = 12;

/// Where runs keep durable directories and span dumps (inside the checkout).
const RUN_DIR: &str = ".bench_build/perfbench-run";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
    source: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        const FLAGS: [&str; 6] = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--rev",
            "--source-digest",
        ];
        if !FLAGS.contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag:?}"));
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    let workload = Workload::by_name(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
        },
        rev: map.get("--rev").unwrap_or(&"unknown").to_string(),
        source: map.get("--source-digest").unwrap_or(&"unknown").to_string(),
    })
}

/// Variables that would change the program under measurement.
fn stray_env() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| {
            k == "OCTO_TREE_LAYOUT" || k.starts_with("OCTO_FAULT") || k.starts_with("OCTO_IO_FAULT")
        })
        .collect()
}

/// The file system holding `dir`, from the longest matching mount point.
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() >= 3 && dir.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn reference_main(args: &[String]) -> ExitCode {
    let Some(workload) = args.first().and_then(|w| Workload::by_name(w)) else {
        eprintln!("usage: octocache-perfbench reference <workload> <variant>...");
        return ExitCode::from(2);
    };
    for variant in &args[1..] {
        let Ok(variant) = variant.parse::<u64>() else {
            eprintln!("bad variant {variant:?}");
            return ExitCode::from(2);
        };
        let seq = workload.generate(variant);
        let t = Instant::now();
        let sum = workload.reference_checksum(&seq);
        println!(
            "{}\t{variant}\t{}\t{sum:#018x}\t# {:.1} s",
            workload.name,
            seq.scans().len(),
            t.elapsed().as_secs_f64()
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("reference") => return reference_main(&argv[1..]),
        Some("list") => {
            for w in WORKLOADS {
                println!("{}", w.name);
            }
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: octocache-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let stray = stray_env();
    if !stray.is_empty() {
        eprintln!(
            "error: refusing to run with {} set: it changes the program being measured",
            stray.join(", ")
        );
        return ExitCode::from(2);
    }
    match bench(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn bench(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Every workload runs two threads: producer and octree worker
    // (`campus-pipeline`), scan writer and reader (`college-live`).
    let threads = 2;
    if threads > nproc {
        return Err(format!(
            "{} runs {threads} threads; this host has {nproc}",
            w.name
        ));
    }
    let variant = variant_of(args.seed);
    let (ref_scans, reference) = reference_for(&w, variant)?;
    let inputs = Inputs::new(w, variant, reference);
    if inputs.seq.scans().len() != ref_scans {
        return Err(format!(
            "{} variant {variant} generated {} scans; the reference has {ref_scans}",
            w.name,
            inputs.seq.scans().len()
        ));
    }
    let run_dir = PathBuf::from(RUN_DIR);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {RUN_DIR}: {e}"))?;
    let dir = run_dir.join(format!("{}-{}", w.name, std::process::id()));
    let live = w.kind == Kind::Live;
    let shift = w.shift(variant);
    let shift_m = [shift.x, shift.y, shift.z];
    println!(
        "stamp: {{\"rev\": \"{}\", \"source_digest\": \"{}\", \"nproc\": {nproc}, \"workload\": \"{}\", \
         \"dataset\": \"{}\", \"scale\": {}, \"resolution_m\": {}, \"seed\": {}, \"variant\": {variant}, \
         \"dataset_seed\": \"{DATASET_SEED:#x}\", \"shift_m\": {:?}, \"scans\": {}, \"points\": {}, \"cache_buckets\": {}, \"tau\": {}, \"tree_layout\": \"{}\", \
         \"threads\": {threads}, \"durable_fs\": \"{}\", \"flush\": \"{}\", \"seconds\": {}, \"trace\": {}}}",
        args.rev,
        args.source,
        w.name,
        w.dataset.name(),
        w.scale,
        w.resolution,
        args.seed,
        shift_m,
        inputs.seq.scans().len(),
        inputs.seq.total_points(),
        inputs.config.num_buckets(),
        inputs.config.tau(),
        inputs.config.resolved_tree_layout(),
        if live { filesystem_of(&run_dir) } else { "none".into() },
        if live {
            format!(
                "journal_fsync={} checkpoint_every={CHECKPOINT_EVERY}",
                inputs.config.journal_fsync()
            )
        } else {
            "none".into()
        },
        args.seconds,
        u8::from(args.trace),
    );

    let mut setups = Vec::new();
    let setup_block = |setups: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_BLOCK {
            setups.push(run::time_setup(&inputs, &dir)?.as_secs_f64());
        }
        Ok(())
    };
    setup_block(&mut setups)?;
    // Passes run whole: another starts only while it is expected to end
    // within the budget. A traced run alternates untraced and traced passes
    // so the tracing overhead compares passes run under the same conditions.
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        match run::run_pass(&inputs, &dir, traced, passes.len()) {
            Ok(p) => {
                passes.push((traced, p));
                setup_block(&mut setups)?;
            }
            Err(e) => {
                // No numbers from a wrong map: the failed pass is the one
                // failed operation reported.
                println!("gate: FAILED: {e}");
                println!("{}", json_result(false, passes.len() as u64 + 1, 1, &[]));
                return Ok(ExitCode::from(1));
            }
        }
        let per_pass = t0.elapsed() / passes.len() as u32;
        let needed = if args.trace { 2 } else { 1 };
        if passes.len() >= needed && t0.elapsed() + per_pass > budget {
            break;
        }
    }

    let attempted: u64 = passes
        .iter()
        .map(|(_, p)| p.scans.attempted + p.reader.attempted)
        .sum();
    let failed: u64 = passes.iter().map(|(_, p)| p.scans.failed).sum();
    let plain: Vec<&Pass> = passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
    setups.extend(passes.iter().map(|(_, p)| p.setup.as_secs_f64()));
    let scan_ms = stats::sorted(
        &plain
            .iter()
            .flat_map(|p| p.scans.latencies_ms.clone())
            .collect::<Vec<_>>(),
    );
    let query_us = stats::sorted(
        &plain
            .iter()
            .flat_map(|p| p.reader.latencies_us.clone())
            .collect::<Vec<_>>(),
    );
    let rates: Vec<f64> = plain.iter().map(|p| p.scans.scans_per_s()).collect();
    let backlog = plain
        .iter()
        .map(|p| p.scans.backlog_max())
        .max()
        .unwrap_or(0);
    println!(
        "gate: ok — {} passes, every final map = OctoMap reference {reference:#018x}{}",
        passes.len(),
        if live {
            "; recover() bit-exact; reader answers on the final snapshot = final tree"
        } else {
            ""
        }
    );
    // Every end-to-end metric by name, with its unit and sample count; the
    // JSON result carries the ones BENCHMARK.json lists (see README.md).
    let setup_s = stats::median(&setups);
    let rate = stats::median(&rates);
    // Each pass is a whole build, so a scan percentile is taken per pass
    // (each must have 10 samples beyond it) and the median over passes
    // reported: a pass slowed by the host moves it less than pooling would.
    let per_pass = |pct: f64| -> Result<f64, String> {
        let values = plain
            .iter()
            .map(|p| stats::supported(&stats::sorted(&p.scans.latencies_ms), pct).map(|q| q.value))
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(stats::median(&values))
    };
    let p50 = per_pass(50.0)?;
    let p90 = per_pass(90.0)?;
    let rss = peak_rss_mb();
    println!("setup_s = {setup_s:.6} s (median of {})", setups.len());
    println!(
        "scans_per_s = {rate:.3} 1/s (median of {} passes: {rates:.3?})",
        rates.len()
    );
    println!(
        "scan_p50_ms = {p50:.3} ms, scan_p90_ms = {p90:.3} ms (medians of {} passes of {} scans; \
         pooled, by the tail rule: {})",
        plain.len(),
        inputs.seq.scans().len(),
        stats::describe(&scan_ms)
    );
    if live {
        let q50 = stats::supported(&query_us, 50.0)?;
        let q99 = stats::supported(&query_us, 99.0)?;
        println!(
            "query_p50_us = {:.1} us, query_p99_us = {:.1} us ({} beyond p99; tail rule: {})",
            q50.value,
            q99.value,
            q99.beyond,
            stats::describe(&query_us)
        );
    }
    println!("scan_backlog_max = {backlog} scans");
    println!("peak_rss_mb = {rss:.1} MB");
    println!(
        "failed_ops_ratio = {} ({failed} of {attempted} scans and reader batches)",
        failed as f64 / attempted as f64
    );

    let metrics: Vec<(&str, f64, &str)> = if !args.trace {
        vec![
            ("setup_s", setup_s, "s"),
            ("scans_per_s", rate, "1/s"),
            ("scan_p50_ms", p50, "ms"),
            ("scan_p90_ms", p90, "ms"),
            ("peak_rss_mb", rss, "MB"),
        ]
    } else {
        let traced: Vec<&Pass> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
        // Scan time rather than wall: an open loop's wall is set by its
        // schedule, not by the cost of tracing.
        let busy = |ps: &[&Pass]| {
            stats::median(
                &ps.iter()
                    .map(|p| p.scans.latencies_ms.iter().sum())
                    .collect::<Vec<f64>>(),
            )
        };
        let overhead = busy(&traced) / busy(&plain) - 1.0;
        let mut m: Vec<(&str, f64, &str)> = traced[0]
            .layers
            .iter()
            .map(|(name, (_, unit))| {
                let values: Vec<f64> = traced.iter().map(|p| p.layers[name].0).collect();
                (*name, stats::median(&values), *unit)
            })
            .collect();
        m.push(("telemetry.trace_overhead_ratio", overhead, "ratio"));
        for (i, p) in traced.iter().enumerate() {
            println!("reconcile (traced pass {i}): {}", p.reconcile);
        }
        let spans: String = traced.iter().map(|p| p.spans.as_str()).collect();
        let path = run_dir.join(format!("spans-{}-{}.jsonl", w.name, args.seed));
        std::fs::write(&path, spans).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans: {}", path.display());
        for (name, value, unit) in &m {
            println!("  {name:<32} {value:>16.4} {unit}");
        }
        m
    };
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    println!("{}", json_result(true, attempted, failed, &metrics));
    Ok(ExitCode::SUCCESS)
}
