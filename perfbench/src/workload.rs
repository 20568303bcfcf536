//! The workloads: their inputs, their pinned scale, and the OctoMap
//! reference their final maps are checked against.

use octocache::pipeline::{OctoMapSystem, RayTracer};
use octocache::{MappingSystem, TreeLayout};
use octocache_datasets::{Dataset, DatasetConfig, Scan, ScanSequence};
use octocache_geom::Point3;
use octocache_octomap::OccupancyParams;

/// How a workload drives the mapping system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ParallelOctoCache::new` (producer + one octree worker), closed loop.
    PipelineBuild,
    /// `SerialOctoCache` inside `DurableMap`, publisher armed, scans due at
    /// a fixed rate, one reader thread issuing batch queries.
    Live,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Synthetic dataset the scans come from.
    pub dataset: Dataset,
    /// `DatasetConfig.scale`, pinned here so `OCTO_SCALE` never applies.
    pub scale: f64,
    /// Voxel edge in metres.
    pub resolution: f64,
    /// Cache buckets (τ = 4): the paper's §5.2 rule (`cache_for`) applied
    /// to input variant 0, then pinned, so that every variant runs the same
    /// system. The rule rounds to a power of two, so a small change in the
    /// inputs could otherwise double the cache.
    pub cache_buckets: usize,
    /// System and loop.
    pub kind: Kind,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "campus-pipeline",
        dataset: Dataset::FreiburgCampus,
        scale: 1.25,
        resolution: 0.2,
        cache_buckets: 1 << 17,
        kind: Kind::PipelineBuild,
    },
    Workload {
        name: "college-live",
        dataset: Dataset::NewCollege,
        scale: 0.5,
        resolution: 0.4,
        cache_buckets: 1 << 14,
        kind: Kind::Live,
    },
];

/// `DatasetConfig.seed` of every input variant: the library's default. It
/// also draws the scene's layout, so every variant maps the same scene.
pub const DATASET_SEED: u64 = 0xC0FFEE;

/// Number of input variants. The OctoMap reference takes tens of seconds per
/// workload on a 2-core host, too long to compute inside a run, so the
/// reference checksums of these variants are computed once and kept in
/// `refs.tsv`, and `--seed n` selects variant `n % VARIANTS`.
///
/// A variant shifts every scan origin and point by the same sub-voxel
/// offset ([`shift_fraction`]): each voxel boundary moves, so the keys, the
/// map and its checksum differ, while the work per scan stays nearly the
/// same. Drawing each variant from its own `DatasetConfig.seed` instead
/// redraws the scene's buildings, and on `campus-pipeline` that alone moved
/// throughput by up to 27 % between variants, more than the benchmark's
/// bound.
pub const VARIANTS: u64 = 16;

/// OctoMap reference checksums: `workload variant scans checksum`.
const REFS: &str = include_str!("../refs.tsv");

/// The scan count and OctoMap leaf checksum `refs.tsv` holds for
/// `workload` on input variant `variant`.
pub fn reference_for(workload: &Workload, variant: u64) -> Result<(usize, u64), String> {
    let key = variant.to_string();
    REFS.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() >= 4 && f[0] == workload.name && f[1] == key)
        .map(|f| {
            let scans = f[2].parse().map_err(|e| format!("refs.tsv scans: {e}"))?;
            let sum = u64::from_str_radix(f[3].trim_start_matches("0x"), 16)
                .map_err(|e| format!("refs.tsv checksum: {e}"))?;
            Ok((scans, sum))
        })
        .unwrap_or_else(|| {
            Err(format!(
                "no reference for {} variant {variant}",
                workload.name
            ))
        })
}

/// The input variant benchmark seed `seed` selects.
pub fn variant_of(seed: u64) -> u64 {
    seed % VARIANTS
}

/// The shift of input variant `variant` along x, y and z, in voxel edges.
/// Variant 0 is the dataset as generated; the others follow the R3
/// low-discrepancy sequence, so the shifts spread evenly over the voxel.
pub fn shift_fraction(variant: u64) -> [f64; 3] {
    // Inverse powers of the plastic number.
    const ALPHA: [f64; 3] = [
        0.819_172_513_396_164_5,
        0.671_043_606_703_789_3,
        0.549_700_477_901_970_3,
    ];
    ALPHA.map(|a| (variant as f64 * a).fract())
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Generates the scans of one input variant.
    pub fn generate(&self, variant: u64) -> ScanSequence {
        let seq = self.dataset.generate(&DatasetConfig {
            scale: self.scale,
            seed: DATASET_SEED,
        });
        let shift = self.shift(variant);
        let scans = seq
            .scans()
            .iter()
            .map(|s| Scan {
                origin: s.origin + shift,
                points: s.points.iter().map(|&p| p + shift).collect(),
            })
            .collect();
        ScanSequence::from_parts(seq.name(), scans, seq.max_range())
    }

    /// The shift of input variant `variant`, in metres.
    pub fn shift(&self, variant: u64) -> Point3 {
        let [x, y, z] = shift_fraction(variant).map(|f| f * self.resolution);
        Point3::new(x, y, z)
    }

    /// The voxel grid the workload maps into.
    pub fn grid(&self) -> octocache_geom::VoxelGrid {
        octocache_bench::grid(self.resolution)
    }

    /// The leaf checksum of the vanilla OctoMap baseline fed the same scans:
    /// the map every OctoCache backend must reproduce bit for bit. The arena
    /// layout only makes it faster; the checksum is layout-independent.
    pub fn reference_checksum(&self, seq: &ScanSequence) -> u64 {
        let mut map = OctoMapSystem::with_layout(
            self.grid(),
            OccupancyParams::default(),
            RayTracer::Standard,
            TreeLayout::Arena,
        );
        for scan in seq.scans() {
            map.insert_scan(scan.origin, &scan.points, seq.max_range())
                .expect("generated scans lie inside the grid");
        }
        map.finish();
        map.tree().leaf_checksum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_and_variant_has_a_reference() {
        for w in WORKLOADS {
            for variant in 0..VARIANTS {
                let (scans, _) = reference_for(&w, variant).unwrap();
                assert!(scans >= 100, "{} has {scans} scans", w.name);
            }
        }
        // Variant 0 is the dataset as the library generates it by default.
        let campus = Workload::by_name("campus-pipeline").unwrap();
        assert_eq!(
            reference_for(&campus, 0).unwrap(),
            (101, 0x2038_7ebc_bae8_59e2)
        );
    }

    #[test]
    fn pinned_cache_sizes_follow_the_paper_rule_on_variant_0() {
        for w in WORKLOADS {
            let sized = octocache_bench::cache_for(&w.generate(0), w.resolution);
            assert_eq!(
                (sized.num_buckets(), sized.tau()),
                (w.cache_buckets, 4),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn variants_are_distinct_sub_voxel_shifts_of_the_default_dataset() {
        assert_eq!(variant_of(VARIANTS + 3), 3);
        assert_eq!(shift_fraction(0), [0.0; 3]);
        let shifts: Vec<[f64; 3]> = (0..VARIANTS).map(shift_fraction).collect();
        for (i, a) in shifts.iter().enumerate() {
            assert!(a.iter().all(|f| (0.0..1.0).contains(f)), "{a:?}");
            for b in &shifts[..i] {
                assert!(a.iter().zip(b).any(|(x, y)| (x - y).abs() > 0.01));
            }
        }
        let w = Workload::by_name("college-live").unwrap();
        let base = w.generate(0);
        let moved = w.generate(5);
        let d = w.shift(5);
        assert_eq!(base.scans().len(), moved.scans().len());
        let (a, b) = (&base.scans()[7], &moved.scans()[7]);
        assert_eq!(b.origin, a.origin + d);
        assert_eq!(b.points[3], a.points[3] + d);
    }
}
