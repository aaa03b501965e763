//! End-to-end tracker benchmark.
//!
//! ```text
//! perfbench --workload <crowd-mloc|campus-aprad|wal-replay|fleet-skew>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's campus from the seed, then drives its
//! capture log through the production layers for `--seconds`, pass
//! after pass, while an open-loop client queries the live HTTP server.
//! Every pass is checked against the batch reference. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! ledger with `--trace 1`. Exit status 1 when any check fails, 2 on a
//! usage error. See README.md for the workloads and metrics.

mod env;
mod inputs;
mod pass;
mod query;
mod trace;

use inputs::{Route, Segment, Spec, Workload};
use marauders_map::core::apdb::ApDatabase;
use marauders_map::core::pipeline::{AttackConfig, TrackFix};
use marauders_map::serve::loadgen::BenchClient;
use marauders_map::serve::{PublisherConfig, ServerHandle, SnapshotPlane, TrackerSnapshot};
use marauders_map::stream::{ClosedWindow, StreamConfig, StreamEngine};
use marauders_map::wifi::capture_log::{capture_log_frames, parse_capture_log};
use pass::{PassResult, Stage};
use query::{QueryClient, QueryLog};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Layer;

/// Timed set-ups per run: `setup_s` is their median. They are spread
/// over the run, taken between rounds after the warm-up round. Each is
/// the second of a back-to-back pair; the first, untimed, brings the
/// knowledge text and the set-up code back into the caches that the
/// previous server's shutdown left cold. A set-up took 130–300 µs on a
/// shared 2-vCPU virtual machine, depending on what the host ran beside
/// it, so the samples are spread to see the whole run's mix. Timed cold, or in one burst
/// before the first round, the median moved by a third from one run to
/// the next.
const SETUP_SAMPLES: usize = 100;

/// Devices whose served `/track` body is checked after each pass.
const SERVED_CHECKS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.json());
            if report.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                for f in &report.failures {
                    eprintln!("perfbench: CHECK FAILED: {f}");
                }
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// A metric as printed: value and unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Report {
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Bit-exact rendering of fixes, one line each: what "byte-equal"
/// means in every check.
fn canon(fixes: &[TrackFix]) -> String {
    let mut out = String::new();
    for f in fixes {
        let gamma: Vec<String> = f.gamma.iter().map(|m| m.to_string()).collect();
        let _ = writeln!(
            out,
            "{:016x} {} {:016x} {:016x} {} {:016x} {:016x} {} {}",
            f.time_s.to_bits(),
            f.mobile,
            f.estimate.position.x.to_bits(),
            f.estimate.position.y.to_bits(),
            f.estimate.k,
            f.estimate.area().to_bits(),
            f.estimate.inflation.to_bits(),
            f.provenance,
            gamma.join(",")
        );
    }
    out
}

/// What every pass of a segment must reproduce.
struct Reference {
    /// `MaraudersMap::track_all` after `ingest`: the batch attack.
    batch: String,
    /// Live fixes of a plain single-stream replay (journal and fleet
    /// routes only).
    direct_live: Option<String>,
    /// Live fixes of the first measured pass, for the pass-to-pass
    /// determinism check.
    first_live: Option<String>,
}

fn reference(spec: &Spec, seg: &Segment) -> Result<Reference, String> {
    let caps = parse_capture_log(&seg.capture_log).map_err(|e| e.to_string())?;
    let db = ApDatabase::from_csv(&seg.knowledge_csv).map_err(|e| e.to_string())?;
    let mut map = pass::knowledge_map(spec, db.clone());
    map.ingest(&caps);
    let batch = canon(&map.track_all(&caps));
    let direct_live = match spec.route {
        Route::Direct => None,
        Route::Journal | Route::Fleet => {
            let mut engine =
                StreamEngine::new(pass::knowledge_map(spec, db), StreamConfig::default());
            let mut closed = Vec::new();
            for frame in capture_log_frames(&seg.capture_log) {
                closed.extend(engine.push(&frame.map_err(|e| e.to_string())?));
            }
            closed.extend(engine.finish());
            let live: Vec<TrackFix> = closed
                .into_iter()
                .filter_map(ClosedWindow::into_fix)
                .collect();
            Some(canon(&live))
        }
    };
    Ok(Reference {
        batch,
        direct_live,
        first_live: None,
    })
}

/// The checks every pass must pass; returns the failures.
fn check_pass(
    spec: &Spec,
    seg_index: usize,
    r: &PassResult,
    reference: &mut Reference,
    plane: &SnapshotPlane<TrackerSnapshot>,
    server: &ServerHandle,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut fail = |what: String| failures.push(format!("segment {seg_index}: {what}"));
    if r.malformed != 0 {
        fail(format!("{} malformed lines, reference has 0", r.malformed));
    }
    if r.frames_late != 0 {
        fail(format!("{} late frames, reference has 0", r.frames_late));
    }
    if canon(&r.batch) != reference.batch {
        fail("batch_fixes differ from MaraudersMap::track_all".into());
    }
    let live = canon(&r.live);
    if spec.full_knowledge {
        // Radii never change at full knowledge, so every live fix is
        // its batch fix; only the order differs (close order against
        // batch order).
        let mut sorted = r.live.clone();
        sorted.sort_by(|a, b| {
            (a.mobile, a.time_s)
                .partial_cmp(&(b.mobile, b.time_s))
                .expect("finite window starts")
        });
        if canon(&sorted) != reference.batch {
            fail("live fixes differ from the batch fixes at full knowledge".into());
        }
    }
    if let Some(direct) = &reference.direct_live {
        if &live != direct {
            fail("live fixes differ from a direct single-stream replay".into());
        }
    }
    match &reference.first_live {
        Some(first) if first != &live => fail("live fixes differ between passes".into()),
        Some(_) => {}
        None => reference.first_live = Some(live),
    }
    if let Err(e) = check_served(r, plane, server) {
        fail(e);
    }
    failures
}

/// `/track/<mac>` bodies served after the pass must equal the
/// published history, and that history must be the live fixes.
fn check_served(
    r: &PassResult,
    plane: &SnapshotPlane<TrackerSnapshot>,
    server: &ServerHandle,
) -> Result<(), String> {
    let snapshot = plane.load();
    let published: usize = snapshot.fix_count();
    if published != r.live.len() {
        return Err(format!(
            "{published} fixes published, {} live fixes produced",
            r.live.len()
        ));
    }
    let devices: Vec<_> = snapshot.tracks.keys().copied().collect();
    if devices.is_empty() {
        return Err("no device was published".into());
    }
    let bound = PublisherConfig::default().max_fixes_per_device;
    let mut client = BenchClient::connect(&server.addr().to_string())
        .map_err(|e| format!("connect to the server: {e}"))?;
    for k in 0..SERVED_CHECKS {
        let mac = devices[k * (devices.len() - 1) / (SERVED_CHECKS - 1).max(1)];
        let expected = snapshot.track_csv(&mac).unwrap_or_default();
        let body = client
            .get_body(&format!("/track/{mac}"))
            .map_err(|e| format!("GET /track/{mac}: {e}"))?;
        if body != expected {
            return Err(format!(
                "served /track/{mac} differs from the published history"
            ));
        }
        let mine: Vec<TrackFix> = r.live.iter().filter(|f| f.mobile == mac).cloned().collect();
        let tail = &mine[mine.len().saturating_sub(bound)..];
        if canon(tail) != canon(&snapshot.tracks[&mac]) {
            return Err(format!(
                "published history of {mac} differs from its live fixes"
            ));
        }
    }
    Ok(())
}

/// One round: every segment of the workload driven once.
#[derive(Default)]
struct Round {
    frames: u64,
    wall_s: f64,
    fix_latency_ms: Vec<f64>,
    peak_rss_mb: f64,
    malformed: u64,
    late: u64,
}

impl Round {
    fn add(&mut self, r: &PassResult) {
        self.peak_rss_mb = self.peak_rss_mb.max(r.peak_rss_mb);
        self.frames += r.frames;
        self.wall_s += r.wall_s;
        self.fix_latency_ms.extend_from_slice(&r.fix_latency_ms);
        self.malformed += r.malformed;
        self.late += r.frames_late as u64;
    }

    fn frames_per_s(&self) -> f64 {
        self.frames as f64 / self.wall_s
    }
}

/// The figures of every round of a run. The run reports the median
/// over its rounds, so host contention during one round does not move
/// the result.
#[derive(Default)]
struct Rounds {
    frames_per_s: Vec<f64>,
    fix_p50_ms: Vec<f64>,
    fix_p90_ms: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    frames: u64,
    frames_failed: u64,
    queries: u64,
    queries_failed: u64,
}

impl Rounds {
    /// Counts a round's frames and queries; `report` also keeps its
    /// figures (every round but the warm-up).
    fn add(&mut self, round: &Round, queries: &QueryLog, report: bool) {
        let fix_p50_ms = quantile(&round.fix_latency_ms, 0.5);
        let fix_p90_ms = quantile(&round.fix_latency_ms, 0.9);
        if report {
            self.frames_per_s.push(round.frames_per_s());
            self.fix_p50_ms.push(fix_p50_ms);
            self.fix_p90_ms.push(fix_p90_ms);
            self.peak_rss_mb.push(round.peak_rss_mb);
        }
        self.frames += round.frames;
        self.frames_failed += round.malformed + round.late;
        self.queries += queries.attempted;
        self.queries_failed += queries.failed;
        eprintln!(
            "perfbench: {}: {} frames in {:.4} s, fix p50/p90 {fix_p50_ms:.3}/{fix_p90_ms:.3} ms, \
             peak RSS {:.1} MB, {} queries ({} failed)",
            if report {
                format!("round {}", self.frames_per_s.len())
            } else {
                "warm-up round".to_string()
            },
            round.frames,
            round.wall_s,
            round.peak_rss_mb,
            queries.attempted,
            queries.failed,
        );
    }
}

/// Per-layer sums over the traced passes of a run.
#[derive(Default)]
struct LayerTally {
    passes: usize,
    wall_s: f64,
    busy_s: [f64; Layer::ALL.len()],
    frames: u64,
    malformed: u64,
    windows_closed: u64,
    frames_late: u64,
    wire_bytes: u64,
    buffered_peak: u64,
    frames_forced: u64,
    cpu_s: f64,
    obs: pass::ObsReadout,
    fix_latency_ms: Vec<f64>,
}

impl LayerTally {
    fn add(&mut self, r: &PassResult, cpu_s: f64) {
        self.passes += 1;
        self.wall_s += r.wall_s;
        for layer in Layer::ALL {
            self.busy_s[layer as usize] += r.ledger.busy_s(layer);
        }
        self.frames += r.frames;
        self.malformed += r.malformed;
        self.windows_closed += r.windows_closed as u64;
        self.frames_late += r.frames_late as u64;
        self.wire_bytes += r.wire_bytes;
        self.buffered_peak = self.buffered_peak.max(r.buffered_peak as u64);
        self.frames_forced += r.frames_forced;
        self.cpu_s += cpu_s;
        self.fix_latency_ms.extend_from_slice(&r.fix_latency_ms);
        if let Some(o) = &r.obs {
            let t = &mut self.obs;
            t.lp_solves += o.lp_solves;
            t.lp_pivots += o.lp_pivots;
            t.lp_solve_s += o.lp_solve_s;
            t.warm_hits += o.warm_hits;
            t.warm_misses += o.warm_misses;
            t.journal_appends += o.journal_appends;
            t.journal_flushes += o.journal_flushes;
            t.journal_checkpoint_bytes += o.journal_checkpoint_bytes;
            t.open_windows_peak = t.open_windows_peak.max(o.open_windows_peak);
            t.publish_snapshots += o.publish_snapshots;
            t.cache_hits += o.cache_hits;
            t.cache_misses += o.cache_misses;
            t.bytes_out += o.bytes_out;
            t.windows_localized += o.windows_localized;
        }
    }

    fn per_pass(&self, total: f64) -> f64 {
        total / self.passes.max(1) as f64
    }

    fn busy(&self, layer: Layer) -> f64 {
        self.per_pass(self.busy_s[layer as usize])
    }

    fn frames_per_s(&self) -> f64 {
        self.frames as f64 / self.wall_s
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile (`q` in `0..=1`); `0` for no samples.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Everything one invocation shares across its passes.
struct Bench {
    spec: Spec,
    root: PathBuf,
    seed: u64,
    /// Each segment's knowledge CSV. Its capture log is read from the
    /// input cache for each pass and dropped after it, so the resident
    /// set holds one log at a time, not every segment's.
    knowledge: Vec<String>,
    references: Vec<Option<Reference>>,
    wal_dir: PathBuf,
    client: QueryClient,
    setup_s: Vec<f64>,
    /// Highest high-water resident set of a pass together with its
    /// checks, MB: what `peak_rss_mb` would read without the reset.
    checked_rss_mb: f64,
    failures: Vec<String>,
}

impl Bench {
    /// Sets up segment `index` on a fresh journal directory, and times
    /// the set-up.
    fn stage(&self, index: usize) -> Result<(Stage, f64), String> {
        if self.spec.route == Route::Journal {
            match std::fs::remove_dir_all(&self.wal_dir) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(format!("clear {}: {e}", self.wal_dir.display())),
            }
        }
        let t = Instant::now();
        let stage = pass::set_up(&self.spec, &self.knowledge[index], &self.wal_dir)?;
        Ok((stage, t.elapsed().as_secs_f64()))
    }

    /// Takes `setup_s` samples until there are `count`.
    fn time_set_up(&mut self, count: usize) -> Result<(), String> {
        while self.setup_s.len() < count {
            let (warm, _) = self.stage(0)?;
            let (timed, elapsed) = self.stage(0)?;
            self.setup_s.push(elapsed);
            // Dropping a stage shuts its server down.
            drop((warm, timed));
        }
        Ok(())
    }

    /// Sets up and runs one checked pass over segment `index`.
    fn pass(&mut self, index: usize, traced: bool) -> Result<(PassResult, f64), String> {
        let seg = inputs::segment(&self.root, &self.spec, self.seed, index)?;
        let (stage, _) = self.stage(index)?;
        let cpu0 = env::cpu_s();
        let (result, plane, mut server) = pass::run(&self.spec, &seg, stage, &self.client, traced)?;
        let cpu = env::cpu_s() - cpu0;
        if self.references[index].is_none() {
            self.references[index] = Some(reference(&self.spec, &seg)?);
        }
        let reference = self.references[index]
            .as_mut()
            .expect("reference computed above");
        let failures = check_pass(&self.spec, index, &result, reference, &plane, &server);
        self.failures.extend(failures);
        self.checked_rss_mb = self.checked_rss_mb.max(env::peak_rss_mb());
        server.shutdown();
        Ok((result, cpu))
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let root = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    let spec = args.workload.spec();
    let work = root.join(".perfbench");
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let wal_dir = work.join(format!("wal-{}", std::process::id()));
    let wal_fs = env::fs_type(&work);
    println!(
        "{{\"env\": {{\"host_cores\": {}, \"par_threads\": {}, \"profile\": \"{}\", \
         \"wal_fs\": \"{wal_fs}\", \"workload\": \"{}\", \"seed\": {}}}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        marauders_map::par::current_threads(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.workload.name(),
        args.seed
    );
    if spec.route == Route::Journal && env::fsync_is_noop(&wal_fs) {
        return Err(format!(
            "{} is on {wal_fs}, where fsync is a no-op; wal-replay would measure nothing",
            work.display()
        ));
    }

    let t = Instant::now();
    let segments: Vec<Segment> = (0..spec.campuses.count())
        .map(|i| inputs::segment(&root, &spec, args.seed, i))
        .collect::<Result<_, _>>()?;
    eprintln!(
        "perfbench: {} input segment(s) ready in {:.2} s",
        segments.len(),
        t.elapsed().as_secs_f64()
    );
    println!("{}", input_stats(&spec, &segments)?);

    let mut bench = Bench {
        spec,
        root,
        seed: args.seed,
        references: (0..segments.len()).map(|_| None).collect(),
        knowledge: segments.into_iter().map(|s| s.knowledge_csv).collect(),
        wal_dir: wal_dir.clone(),
        client: QueryClient::start(args.seed),
        setup_s: Vec::new(),
        checked_rss_mb: 0.0,
        failures: Vec::new(),
    };

    let outcome = if args.trace {
        traced_run(&mut bench, args)
    } else {
        measured_run(&mut bench, args)
    };
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut report = outcome?;
    report.failures.append(&mut bench.failures);
    Ok(report)
}

/// The untraced run: rounds while the next one fits in `--seconds`
/// (at least one after the warm-up), then the end-to-end metrics, each
/// the median over the rounds. The first round warms up: it is checked,
/// but its figures are not reported, because it alone runs on cold
/// caches and a heap not yet grown.
fn measured_run(bench: &mut Bench, args: &Args) -> Result<Report, String> {
    let start = Instant::now();
    let mut rounds = Rounds::default();
    let mut warm_up = true;
    let mut last_round_s = 0.0;
    while warm_up
        || rounds.frames_per_s.is_empty()
        || start.elapsed().as_secs_f64() + last_round_s <= args.seconds
    {
        let round_start = Instant::now();
        let mut round = Round::default();
        for index in 0..bench.knowledge.len() {
            let (r, _) = bench.pass(index, false)?;
            round.add(&r);
        }
        rounds.add(&round, &bench.client.take(), !warm_up);
        warm_up = false;
        let share = (start.elapsed().as_secs_f64() / args.seconds).min(1.0);
        bench.time_set_up((share * SETUP_SAMPLES as f64).ceil() as usize)?;
        last_round_s = round_start.elapsed().as_secs_f64();
    }
    bench.time_set_up(SETUP_SAMPLES)?;
    eprintln!(
        "perfbench: set-up {} samples, min/p25/median {:.1}/{:.1}/{:.1} us",
        bench.setup_s.len(),
        quantile(&bench.setup_s, 0.0) * 1e6,
        quantile(&bench.setup_s, 0.25) * 1e6,
        median(&bench.setup_s) * 1e6
    );
    eprintln!(
        "perfbench: peak RSS median {:.1} MB per round of passes, at most {:.1} MB \
         with the checks",
        median(&rounds.peak_rss_mb),
        bench.checked_rss_mb
    );
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median(&bench.setup_s),
            unit: "s",
        },
        Metric {
            name: "frames_per_s",
            value: median(&rounds.frames_per_s),
            unit: "frames/s",
        },
        Metric {
            name: "fix_latency_p50_ms",
            value: median(&rounds.fix_p50_ms),
            unit: "ms",
        },
        Metric {
            name: "fix_latency_p90_ms",
            value: median(&rounds.fix_p90_ms),
            unit: "ms",
        },
        Metric {
            name: "query_ok_ratio",
            value: ratio(
                (rounds.queries - rounds.queries_failed) as f64,
                rounds.queries as f64,
            ),
            unit: "ratio",
        },
        Metric {
            name: "peak_rss_mb",
            value: median(&rounds.peak_rss_mb),
            unit: "MB",
        },
    ];
    Ok(Report {
        failures: Vec::new(),
        attempted: rounds.frames + rounds.queries,
        failed: rounds.frames_failed + rounds.queries_failed,
        metrics,
    })
}

/// The traced run: cycles of (untraced pass, traced pass, traced pass
/// with a one-thread `par` pool) on the same segment until `--seconds`
/// is spent, then the per-layer ledger.
fn traced_run(bench: &mut Bench, args: &Args) -> Result<Report, String> {
    let start = Instant::now();
    let mut plain = Round::default();
    let mut traced = LayerTally::default();
    let mut single = LayerTally::default();
    let mut cycle = 0usize;
    while cycle == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let index = cycle % bench.knowledge.len();
        let (r, _) = bench.pass(index, false)?;
        plain.add(&r);
        let (r, cpu) = bench.pass(index, true)?;
        if cycle == 0 {
            let path = Path::new(".perfbench").join("trace").join(format!(
                "{}-{}.tsv",
                args.workload.name(),
                args.seed
            ));
            r.ledger.write_tsv(&path)?;
            eprintln!(
                "perfbench: raw spans of the first traced pass in {}",
                path.display()
            );
        }
        traced.add(&r, cpu);
        marauders_map::par::set_threads(1);
        let single_pass = bench.pass(index, true);
        marauders_map::par::set_threads(0);
        let (r, cpu) = single_pass?;
        single.add(&r, cpu);
        cycle += 1;
    }
    let log = bench.client.take();
    print_ledger(&traced);

    let o = &traced.obs;
    let per = |v: u64| traced.per_pass(v as f64);
    let mut metrics = Vec::new();
    let mut m = |name: &'static str, value: f64, unit: &'static str| {
        metrics.push(Metric { name, value, unit })
    };
    m("pass.wall_s", traced.per_pass(traced.wall_s), "s");
    m("wifi.parse.busy_s", traced.busy(Layer::Parse), "s");
    m("wifi.parse.frames", per(traced.frames), "count");
    m("wifi.parse.malformed", per(traced.malformed), "count");
    m("net.node.busy_s", traced.busy(Layer::Node), "s");
    m("net.decode.busy_s", traced.busy(Layer::Decode), "s");
    m("net.aggregator.busy_s", traced.busy(Layer::Aggregator), "s");
    m("net.wire_bytes", per(traced.wire_bytes), "bytes");
    m("net.buffered_peak", traced.buffered_peak as f64, "frames");
    m("net.frames_forced", per(traced.frames_forced), "count");
    m("journal.append.busy_s", traced.busy(Layer::Append), "s");
    m("journal.appends", per(o.journal_appends), "count");
    m("journal.flushes", per(o.journal_flushes), "count");
    m(
        "journal.checkpoint.busy_s",
        traced.busy(Layer::Checkpoint),
        "s",
    );
    m(
        "journal.checkpoint_bytes",
        per(o.journal_checkpoint_bytes),
        "bytes",
    );
    m("stream.push.busy_s", traced.busy(Layer::Push), "s");
    m("stream.close.busy_s", traced.busy(Layer::Close), "s");
    m("stream.windows_closed", per(traced.windows_closed), "count");
    m("stream.frames_late", per(traced.frames_late), "count");
    m(
        "stream.open_windows_peak",
        o.open_windows_peak as f64,
        "count",
    );
    m("lp.solve.busy_s", traced.per_pass(o.lp_solve_s), "s");
    m("lp.solves", per(o.lp_solves), "count");
    m("lp.pivots", per(o.lp_pivots), "count");
    m(
        "lp.warm_start.hit_ratio",
        ratio(o.warm_hits as f64, (o.warm_hits + o.warm_misses) as f64),
        "ratio",
    );
    m(
        "core.windows_localized_ratio",
        ratio(o.windows_localized as f64, traced.windows_closed as f64),
        "ratio",
    );
    m("serve.publish.busy_s", traced.busy(Layer::Publish), "s");
    m("serve.publish.snapshots", per(o.publish_snapshots), "count");
    m(
        "serve.cache.hit_ratio",
        ratio(o.cache_hits as f64, (o.cache_hits + o.cache_misses) as f64),
        "ratio",
    );
    m("serve.bytes_out", per(o.bytes_out), "bytes");
    m("proc.cpu_s", traced.per_pass(traced.cpu_s), "s");
    m("query_p50_us", quantile(&log.latency_us, 0.5), "us");
    m("query_p99_us", quantile(&log.latency_us, 0.99), "us");
    m("loadgen.query_late_ms", quantile(&log.late_ms, 0.99), "ms");
    m(
        "trace.overhead_ratio",
        ratio(plain.frames_per_s(), traced.frames_per_s()) - 1.0,
        "ratio",
    );
    m("t1.frames_per_s", single.frames_per_s(), "frames/s");
    m(
        "t1.fix_latency_p90_ms",
        quantile(&single.fix_latency_ms, 0.9),
        "ms",
    );
    m("t1.stream.close.busy_s", single.busy(Layer::Close), "s");
    m(
        "t1.lp.solve.busy_s",
        single.per_pass(single.obs.lp_solve_s),
        "s",
    );
    Ok(Report {
        failures: Vec::new(),
        attempted: plain.frames + traced.frames + single.frames + log.attempted,
        failed: plain.malformed
            + plain.late
            + traced.malformed
            + traced.frames_late
            + single.malformed
            + single.frames_late
            + log.failed,
        metrics,
    })
}

/// The human-readable ledger on stderr: busy time per layer and its
/// share of the traced pass.
fn print_ledger(t: &LayerTally) {
    let wall = t.per_pass(t.wall_s);
    eprintln!(
        "perfbench: ledger per traced pass ({} pass(es), wall {wall:.4} s)",
        t.passes
    );
    for layer in Layer::ALL {
        let busy = t.busy(layer);
        if busy > 0.0 {
            eprintln!(
                "  {:<20} {busy:>10.4} s  {:>5.1}%",
                layer.name(),
                100.0 * ratio(busy, wall)
            );
        }
    }
    let lp = t.per_pass(t.obs.lp_solve_s);
    eprintln!(
        "  {:<20} {lp:>10.4} s  {:>5.1}%  (inside stream.close / net.aggregator)",
        "lp.solve",
        100.0 * ratio(lp, wall)
    );
}

/// The workload's input statistics, as one JSON line.
fn input_stats(spec: &Spec, segments: &[Segment]) -> Result<String, String> {
    let window_s = AttackConfig::default().window_s;
    let (mut frames, mut windows, mut k_sum, mut aps) = (0usize, 0usize, 0usize, 0usize);
    let mut devices = 0usize;
    for seg in segments {
        let caps = parse_capture_log(&seg.capture_log).map_err(|e| e.to_string())?;
        let sets = caps.observation_sets(window_s);
        frames += caps.len();
        windows += sets.len();
        k_sum += sets.iter().map(|s| s.aps.len()).sum::<usize>();
        devices += sets.iter().map(|s| s.mobile).collect::<BTreeSet<_>>().len();
        aps += ApDatabase::from_csv(&seg.knowledge_csv)
            .map_err(|e| e.to_string())?
            .len();
    }
    Ok(format!(
        "{{\"inputs\": {{\"segments\": {}, \"frames\": {frames}, \"devices\": {devices}, \
         \"aps\": {aps}, \"windows\": {windows}, \"mean_k\": {:.2}, \"duration_s\": {}, \
         \"full_knowledge\": {}}}}}",
        segments.len(),
        ratio(k_sum as f64, windows as f64),
        spec.duration_s,
        spec.full_knowledge
    ))
}
