//! The four workloads and their seeded inputs.
//!
//! Every input is generated from `--seed` with `sim::CampusScenario`
//! exactly as `marauder simulate` lays a campus out (700 m square, the
//! victim `0xFACE` on a 150 m circuit), then rendered to the two texts
//! the tracker consumes: the knowledge CSV and the capture log. The
//! texts are cached per (scenario, seed) under `.perfbench/inputs/`, so
//! repeated runs neither regenerate nor time scenario generation.

use marauders_map::core::apdb::ApDatabase;
use marauders_map::geo::Point;
use marauders_map::sim::mobility::CircuitWalk;
use marauders_map::sim::scenario::CampusScenario;
use marauders_map::wifi::capture_log::write_capture_log;
use marauders_map::wifi::device::{MobileStation, OsProfile};
use marauders_map::wifi::mac::MacAddr;
use std::path::{Path, PathBuf};

/// Access points per campus: fig13's density in the 700 m square.
pub const APS: usize = 130;
/// Half-width of the simulated campus, metres.
pub const REGION_HALF_WIDTH_M: f64 = 350.0;

/// Which production path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Log line → parse → engine push → publish.
    Direct,
    /// As `Direct`, with a write-ahead journal append before each push
    /// and a checkpoint every [`CHECKPOINT_EVERY`] frames, records
    /// flushed on segment rotation.
    Journal,
    /// Parse → three loopback sniffer nodes split by time → aggregator →
    /// publish.
    Fleet,
}

/// Campuses per round, each drawn from the seed. A campus's cost
/// varies with its draw, so a round pools several. With one crowd
/// campus per run, `frames_per_s` and the fix latency followed the
/// campus's mean k (9.3–10.8 across ten seeds), and their spread across
/// seeds was 0.10–0.16. On `wal-replay`, where checkpoints fall against
/// window closes differs from one campus to the next, and with it the
/// fix latency (p50 8.5–12 ms across seeds with one campus).
const CROWD_CAMPUSES: usize = 4;
const FLEET_CAMPUSES: usize = 3;
const WAL_CAMPUSES: usize = 3;

/// Frames between journal checkpoints (the `replay --journal` default).
pub const CHECKPOINT_EVERY: u64 = 1024;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CrowdMloc,
    CampusAprad,
    WalReplay,
    FleetSkew,
}

/// What a workload generates and how it is driven.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Cache key: workloads sharing a scenario share its inputs.
    pub scenario: &'static str,
    /// Full knowledge (M-Loc) or AP locations only (AP-Rad).
    pub full_knowledge: bool,
    /// Background mobiles (the victim comes on top).
    pub mobiles: usize,
    /// Campaign length per segment, seconds.
    pub duration_s: f64,
    pub campuses: Campuses,
    pub route: Route,
}

/// A workload's independent campuses, one input segment each; a round
/// drives every one of them once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Campuses {
    /// This many campuses drawn from the seed.
    Seeded(usize),
    /// A fixed pool of this many campuses, the same for every seed; the
    /// seed then draws only the query mix.
    FixedPool(usize),
}

impl Campuses {
    pub fn count(self) -> usize {
        match self {
            Campuses::Seeded(n) | Campuses::FixedPool(n) => n,
        }
    }

    /// The seed the campuses are drawn from.
    fn base_seed(self, seed: u64) -> u64 {
        match self {
            Campuses::Seeded(_) => seed,
            Campuses::FixedPool(_) => POOL_SEED,
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CrowdMloc,
        Workload::CampusAprad,
        Workload::WalReplay,
        Workload::FleetSkew,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CrowdMloc => "crowd-mloc",
            Workload::CampusAprad => "campus-aprad",
            Workload::WalReplay => "wal-replay",
            Workload::FleetSkew => "fleet-skew",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self) -> Spec {
        let crowd = Spec {
            scenario: "crowd",
            full_knowledge: true,
            mobiles: 400,
            duration_s: 900.0,
            campuses: Campuses::Seeded(CROWD_CAMPUSES),
            route: Route::Direct,
        };
        match self {
            Workload::CrowdMloc => crowd,
            Workload::FleetSkew => Spec {
                campuses: Campuses::Seeded(FLEET_CAMPUSES),
                route: Route::Fleet,
                ..crowd
            },
            Workload::CampusAprad => Spec {
                scenario: "campus-pool",
                full_knowledge: false,
                mobiles: 8,
                duration_s: 240.0,
                campuses: Campuses::FixedPool(5),
                route: Route::Direct,
            },
            Workload::WalReplay => Spec {
                scenario: "wal",
                full_knowledge: true,
                mobiles: 250,
                duration_s: 900.0,
                campuses: Campuses::Seeded(WAL_CAMPUSES),
                route: Route::Journal,
            },
        }
    }
}

/// One campus: the attacker's knowledge and the sniffed capture log.
pub struct Segment {
    pub knowledge_csv: String,
    pub capture_log: String,
}

/// Base seed of the fixed campus pool.
const POOL_SEED: u64 = 0x0CA4_D05E;

/// The seed of segment `index` of a run seeded with `seed`.
fn segment_seed(spec: &Spec, seed: u64, index: usize) -> u64 {
    marauders_map::par::sub_seed(spec.campuses.base_seed(seed), index as u64)
}

/// Segment `index` of the workload's inputs, from the cache under
/// `root` when present, else generated and cached.
///
/// # Errors
///
/// Cache I/O failures.
pub fn segment(root: &Path, spec: &Spec, seed: u64, index: usize) -> Result<Segment, String> {
    let dir = cache_dir(root, spec, seed);
    let csv_path = dir.join(format!("seg-{index}.csv"));
    let log_path = dir.join(format!("seg-{index}.log"));
    if let (Ok(knowledge_csv), Ok(capture_log)) = (
        std::fs::read_to_string(&csv_path),
        std::fs::read_to_string(&log_path),
    ) {
        return Ok(Segment {
            knowledge_csv,
            capture_log,
        });
    }
    let seg = generate(spec, segment_seed(spec, seed, index));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    write_atomic(&csv_path, &seg.knowledge_csv)?;
    write_atomic(&log_path, &seg.capture_log)?;
    Ok(seg)
}

/// The cache directory of a workload's inputs. Its name spells out
/// every parameter the generation reads, so a changed parameter never
/// reuses stale inputs.
fn cache_dir(root: &Path, spec: &Spec, seed: u64) -> PathBuf {
    let (kind, count) = match spec.campuses {
        Campuses::Seeded(n) => ("seeded", n),
        Campuses::FixedPool(n) => ("pool", n),
    };
    let seed = spec.campuses.base_seed(seed);
    root.join(".perfbench").join("inputs").join(format!(
        "{}-aps{APS}-half{REGION_HALF_WIDTH_M}-m{}-d{}-{kind}{count}-{}-victim{VICTIM_INDEX:x}-r{VICTIM_CIRCUIT_RADIUS_M}-v{VICTIM_SPEED_M_S}-seed{seed}",
        spec.scenario,
        spec.mobiles,
        spec.duration_s,
        if spec.full_knowledge { "full" } else { "loc" },
    ))
}

/// Temp file plus rename, so a killed run never leaves a torn cache
/// entry behind. The temp name is the file's own and the process's, so
/// concurrent runs never rename each other's text.
fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", path.display()))
}

/// The victim's MAC index, circuit radius (metres, around the origin)
/// and walking speed (m/s), as `marauder simulate` places it.
const VICTIM_INDEX: u64 = 0xFACE;
const VICTIM_CIRCUIT_RADIUS_M: f64 = 150.0;
const VICTIM_SPEED_M_S: f64 = 1.4;

/// Simulates one campus the way `marauder simulate` does.
fn generate(spec: &Spec, seed: u64) -> Segment {
    let victim = MobileStation::new(MacAddr::from_index(VICTIM_INDEX), OsProfile::MacOs);
    let scenario = CampusScenario::builder()
        .seed(seed)
        .region_half_width(REGION_HALF_WIDTH_M)
        .num_aps(APS)
        .num_mobiles(spec.mobiles)
        .duration_s(spec.duration_s)
        .mobile(
            victim,
            Box::new(CircuitWalk::new(
                Point::ORIGIN,
                VICTIM_CIRCUIT_RADIUS_M,
                VICTIM_SPEED_M_S,
            )),
        )
        .build();
    let result = scenario.run();
    let db = ApDatabase::from_access_points(&result.aps, result.environment_margin);
    Segment {
        knowledge_csv: db.to_csv(),
        capture_log: write_capture_log(&result.captures),
    }
}
