//! CI performance-regression guard.
//!
//! Compares freshly measured `marauder-criterion-v1` bench JSON against
//! the checked-in baselines under `results/` and exits non-zero when
//! any shared benchmark id has slowed down by more than the threshold
//! factor (median vs median). The threshold defaults to 3.0: CI runners
//! are noisy, share cores, and differ from the machine that recorded
//! the baselines, so the guard only catches order-of-magnitude
//! regressions (a dropped pruning pass, an accidental O(n^2) loop), not
//! percent-level drift.
//!
//! Usage:
//!
//! ```text
//! perfguard --baseline results --current perfguard-current \
//!           [--threshold 3.0] [--out perfguard-report.json]
//! ```
//!
//! Every `BENCH_*.json` in the baseline directory is paired with the
//! same filename in the current directory. Ids present on only one side
//! are reported but never fail the run: benches gain and lose cases
//! across PRs, and a quick CI pass may filter some out. A baseline
//! median that is not positive has no ratio; its id is reported the
//! same way. A file that does not parse as a `marauder-criterion-v1`
//! document is an error naming it. The `--out` artifact records one
//! row per compared id so a regression can be traced without
//! re-running anything.

use marauder_obs::json::{self, Json, Layout, Writer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DEFAULT_THRESHOLD: f64 = 3.0;

struct Args {
    baseline: PathBuf,
    current: PathBuf,
    threshold: f64,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut baseline = None;
    let mut current = None;
    let mut threshold = DEFAULT_THRESHOLD;
    let mut out = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--baseline" => baseline = Some(PathBuf::from(value("--baseline")?)),
            "--current" => current = Some(PathBuf::from(value("--current")?)),
            "--threshold" => {
                threshold = value("--threshold")?
                    .parse::<f64>()
                    .map_err(|e| format!("--threshold: {e}"))?;
                if !(threshold.is_finite() && threshold >= 1.0) {
                    return Err("--threshold must be a finite number >= 1.0".into());
                }
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        baseline: baseline.ok_or("--baseline <dir> is required")?,
        current: current.ok_or("--current <dir> is required")?,
        threshold,
        out,
    })
}

/// A `marauder-criterion-v1` document: `id -> median_ns`, and the
/// `host_cores` the exporter stamped into the header (older baselines
/// predate the field; a nonsense value never becomes a core count).
struct Bench {
    host_cores: Option<u64>,
    medians: BTreeMap<String, f64>,
}

/// Reads a `marauder-criterion-v1` document. Anything else, including
/// a record without a string `id` or a numeric `median_ns`, is an
/// error rather than a silently shorter comparison.
fn parse_bench(text: &str) -> Result<Bench, String> {
    let doc = json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("marauder-criterion-v1") {
        return Err("not a marauder-criterion-v1 file".to_string());
    }
    let host_cores = doc.get("host_cores").and_then(Json::as_num);
    let results = doc.get("results").and_then(Json::as_arr);
    let mut medians = BTreeMap::new();
    for (i, record) in results.ok_or("no `results` array")?.iter().enumerate() {
        let id = record.get("id").and_then(Json::as_str);
        let median = record.get("median_ns").and_then(Json::as_num);
        let (Some(id), Some(median)) = (id, median) else {
            return Err(format!(
                "results[{i}]: needs a string `id` and a numeric `median_ns`"
            ));
        };
        medians.insert(id.to_string(), median);
    }
    Ok(Bench {
        host_cores: host_cores.filter(|&n| n >= 1.0).map(|n| n as u64),
        medians,
    })
}

/// Whether `id` is a thread-scaling row at a thread count other than 1
/// (`.../threads/N`). Such rows measure how work divides across cores,
/// so their medians are only comparable between runs on hosts with the
/// same parallelism; the `threads/1` row stays comparable everywhere.
fn is_multi_thread_scaling_id(id: &str) -> bool {
    match id.rfind("/threads/") {
        Some(at) => id[at + "/threads/".len()..]
            .parse::<u64>()
            .map(|n| n != 1)
            .unwrap_or(false),
        None => false,
    }
}

struct Row {
    id: String,
    baseline_ns: f64,
    current_ns: f64,
    ratio: f64,
    regressed: bool,
}

struct FileReport {
    file: String,
    rows: Vec<Row>,
    only_baseline: Vec<String>,
    only_current: Vec<String>,
    /// Thread-scaling ids excluded because the baseline and current
    /// hosts expose different core counts.
    skipped_cross_core: Vec<String>,
    /// Baseline ids whose median is not positive, so no ratio exists.
    nonpositive_baseline: Vec<String>,
    baseline_cores: Option<u64>,
    current_cores: Option<u64>,
}

/// Compares two already-read `marauder-criterion-v1` documents. When
/// the hosts' core counts are known and differ, `/threads/N` (N > 1)
/// rows are skipped rather than compared: thread-scaling medians from
/// a 1-core container say nothing about an 8-core baseline's, and a
/// false "regression" there would teach people to ignore the guard.
fn compare_docs(file: &str, base: &Bench, cur: &Bench, threshold: f64) -> FileReport {
    let cross_core = matches!((base.host_cores, cur.host_cores), (Some(b), Some(c)) if b != c);
    let mut rows = Vec::new();
    let mut only_baseline = Vec::new();
    let mut skipped_cross_core = Vec::new();
    let mut nonpositive_baseline = Vec::new();
    for (id, &b) in &base.medians {
        match cur.medians.get(id) {
            Some(_) if cross_core && is_multi_thread_scaling_id(id) => {
                skipped_cross_core.push(id.clone());
            }
            Some(&c) if b > 0.0 => {
                let ratio = c / b;
                rows.push(Row {
                    id: id.clone(),
                    baseline_ns: b,
                    current_ns: c,
                    ratio,
                    regressed: ratio > threshold,
                });
            }
            Some(_) => nonpositive_baseline.push(id.clone()),
            None => only_baseline.push(id.clone()),
        }
    }
    let only_current = cur
        .medians
        .keys()
        .filter(|id| !base.medians.contains_key(*id))
        .cloned()
        .collect();
    FileReport {
        file: file.to_string(),
        rows,
        only_baseline,
        only_current,
        skipped_cross_core,
        nonpositive_baseline,
        baseline_cores: base.host_cores,
        current_cores: cur.host_cores,
    }
}

fn compare_file(
    file: &str,
    baseline: &Path,
    current: &Path,
    threshold: f64,
) -> Result<FileReport, String> {
    let read = |dir: &Path| -> Result<Bench, String> {
        let path = dir.join(file);
        std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_bench(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    Ok(compare_docs(
        file,
        &read(baseline)?,
        &read(current)?,
        threshold,
    ))
}

fn render_report(reports: &[FileReport], threshold: f64, regressions: usize) -> String {
    let list = |w: &mut Writer, key: &str, items: &[String]| {
        w.key(key).array(Layout::Inline);
        for item in items {
            w.str(item);
        }
        w.end();
    };
    let mut w = Writer::new();
    w.object(Layout::Block);
    w.key("schema").str("marauder-perfguard-v1");
    w.key("threshold").f64(threshold);
    w.key("compared")
        .u64(reports.iter().map(|r| r.rows.len() as u64).sum());
    w.key("regressions").u64(regressions as u64);
    w.key("files").array(Layout::Block);
    for r in reports {
        w.object(Layout::Block);
        w.key("file").str(&r.file);
        for (key, cores) in [
            ("baseline_host_cores", r.baseline_cores),
            ("current_host_cores", r.current_cores),
        ] {
            w.key(key);
            match cores {
                Some(n) => w.u64(n),
                None => w.null(),
            };
        }
        w.key("rows").array(Layout::Block);
        for row in &r.rows {
            w.object(Layout::Inline);
            w.key("id").str(&row.id);
            w.key("baseline_median_ns")
                .raw(&format!("{:.2}", row.baseline_ns));
            w.key("current_median_ns")
                .raw(&format!("{:.2}", row.current_ns));
            w.key("ratio").raw(&format!("{:.4}", row.ratio));
            w.key("status")
                .str(if row.regressed { "regressed" } else { "ok" });
            w.end();
        }
        w.end();
        list(&mut w, "only_in_baseline", &r.only_baseline);
        list(&mut w, "only_in_current", &r.only_current);
        list(&mut w, "skipped_cross_core", &r.skipped_cross_core);
        list(&mut w, "nonpositive_baseline", &r.nonpositive_baseline);
        w.end();
    }
    w.end().end();
    w.finish()
}

fn run(args: &Args) -> Result<usize, String> {
    let mut files: Vec<String> = std::fs::read_dir(&args.baseline)
        .map_err(|e| format!("{}: {e}", args.baseline.display()))?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(name)
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!(
            "no BENCH_*.json baselines in {}",
            args.baseline.display()
        ));
    }
    let mut reports = Vec::new();
    for file in &files {
        if !args.current.join(file).exists() {
            eprintln!("perfguard: skipping {file}: no current measurement");
            continue;
        }
        reports.push(compare_file(
            file,
            &args.baseline,
            &args.current,
            args.threshold,
        )?);
    }
    if reports.is_empty() {
        return Err(format!(
            "no current measurements in {} match any baseline",
            args.current.display()
        ));
    }
    let mut regressions = 0;
    for report in &reports {
        for row in &report.rows {
            let status = if row.regressed {
                regressions += 1;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "{status:<9} {:<55} baseline {:>12.0} ns  current {:>12.0} ns  x{:.2}",
                row.id, row.baseline_ns, row.current_ns, row.ratio
            );
        }
        for id in &report.skipped_cross_core {
            println!(
                "SKIPPED   {id:<55} thread-scaling row; hosts differ ({} vs {} cores)",
                report
                    .baseline_cores
                    .map_or("?".to_string(), |n| n.to_string()),
                report
                    .current_cores
                    .map_or("?".to_string(), |n| n.to_string()),
            );
        }
        for id in &report.only_baseline {
            eprintln!(
                "perfguard: {}: '{id}' missing from current run",
                report.file
            );
        }
        for id in &report.only_current {
            eprintln!("perfguard: {}: '{id}' has no baseline yet", report.file);
        }
        for id in &report.nonpositive_baseline {
            eprintln!(
                "perfguard: {}: '{id}' has a non-positive baseline median; not compared",
                report.file
            );
        }
    }
    if let Some(out) = &args.out {
        let doc = render_report(&reports, args.threshold, regressions);
        std::fs::write(out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
        eprintln!("perfguard: wrote {}", out.display());
    }
    Ok(regressions)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfguard: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(0) => {
            println!("perfguard: no regressions beyond {}x", args.threshold);
            ExitCode::SUCCESS
        }
        Ok(n) => {
            eprintln!(
                "perfguard: {n} benchmark(s) regressed beyond {}x the checked-in median",
                args.threshold
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfguard: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_exporter_lines() {
        let doc = "{\n  \"schema\": \"marauder-criterion-v1\",\n  \"results\": [\n    \
                   {\"id\":\"lp/cold/16\",\"mean_ns\":10.0,\"median_ns\":81347.79,\"min_ns\":1.0,\
                   \"max_ns\":2.0,\"iters_per_sample\":3,\"samples\":10}\n  ]\n}\n";
        let medians = parse_bench(doc).unwrap().medians;
        assert_eq!(medians.len(), 1);
        assert_eq!(medians["lp/cold/16"], 81347.79);
    }

    #[test]
    fn unreadable_documents_are_errors() {
        assert!(parse_bench("{\"schema\": \"x\"}\nnot json\n").is_err());
        assert!(parse_bench("{\"schema\": \"x\", \"results\": []}").is_err());
        let schema = "\"schema\": \"marauder-criterion-v1\"";
        assert!(parse_bench(&format!("{{{schema}}}")).is_err());
        for record in [r#"{"id": "a"}"#, r#"{"id": 1, "median_ns": 2}"#] {
            let text = format!("{{{schema}, \"results\": [{record}]}}");
            let err = parse_bench(&text).err().unwrap_or_default();
            assert!(err.contains("results[0]"), "{record}: {err}");
        }
    }

    #[test]
    fn negative_and_integer_medians_parse() {
        let medians = parse_bench(&doc(None, &[("a", 42.0), ("b", -1.5)]))
            .unwrap()
            .medians;
        assert_eq!(medians["a"], 42.0);
        assert_eq!(medians["b"], -1.5);
    }

    #[test]
    fn host_cores_parses_and_tolerates_absence() {
        let cores = |n| parse_bench(&doc(n, &[])).unwrap().host_cores;
        assert_eq!(cores(Some(8)), Some(8));
        assert_eq!(cores(None), None);
        // A nonsense value never becomes a core count.
        assert_eq!(cores(Some(0)), None);
    }

    #[test]
    fn unparsable_baseline_is_an_error_naming_the_file() {
        let root = std::env::temp_dir().join(format!("perfguard-test-{}", std::process::id()));
        let (base, cur) = (root.join("base"), root.join("cur"));
        for dir in [&base, &cur] {
            std::fs::create_dir_all(dir).unwrap();
        }
        std::fs::write(
            base.join("BENCH_x.json"),
            "{\"id\":\"a\",\"median_ns\":1}\n",
        )
        .unwrap();
        std::fs::write(cur.join("BENCH_x.json"), doc(None, &[("a", 1.0)])).unwrap();
        let err = compare_file("BENCH_x.json", &base, &cur, 3.0).err();
        let _ = std::fs::remove_dir_all(&root);
        let err = err.expect("a baseline without a schema is refused");
        assert!(err.contains("base/BENCH_x.json"), "{err}");
    }

    #[test]
    fn nonpositive_baseline_medians_are_reported() {
        let base = parse_bench(&doc(None, &[("a", 0.0), ("b", -1.0), ("c", 10.0)])).unwrap();
        let cur = parse_bench(&doc(None, &[("a", 5.0), ("b", 5.0), ("c", 5.0)])).unwrap();
        let report = compare_docs("BENCH_x.json", &base, &cur, 3.0);
        assert_eq!(report.nonpositive_baseline, vec!["a", "b"]);
        assert_eq!(report.rows.len(), 1);
        assert!(report.only_baseline.is_empty() && report.only_current.is_empty());
    }

    #[test]
    fn thread_scaling_ids_are_recognised() {
        assert!(is_multi_thread_scaling_id("pipeline/track_all/threads/8"));
        assert!(is_multi_thread_scaling_id("stream/replay_fixes/threads/2"));
        assert!(!is_multi_thread_scaling_id("pipeline/track_all/threads/1"));
        assert!(!is_multi_thread_scaling_id("lp/cold_solve/sparse/16"));
        assert!(!is_multi_thread_scaling_id("serve/threads/not-a-number"));
    }

    fn doc(cores: Option<u64>, rows: &[(&str, f64)]) -> String {
        let header = match cores {
            Some(n) => format!("  \"host_cores\": {n},\n"),
            None => String::new(),
        };
        let body: Vec<String> = rows
            .iter()
            .map(|(id, m)| format!("    {{\"id\":\"{id}\",\"median_ns\":{m}}}"))
            .collect();
        format!(
            "{{\n  \"schema\": \"marauder-criterion-v1\",\n{header}  \"results\": [\n{}\n  ]\n}}\n",
            body.join(",\n")
        )
    }

    #[test]
    fn cross_core_runs_skip_multi_thread_rows_only() {
        let base = doc(
            Some(8),
            &[
                ("pipe/threads/1", 100.0),
                ("pipe/threads/4", 100.0),
                ("lp/solve", 100.0),
            ],
        );
        // Same ids, wildly slower, measured on a 1-core host: only the
        // multi-thread row is excused; the others still regress.
        let cur = doc(
            Some(1),
            &[
                ("pipe/threads/1", 1000.0),
                ("pipe/threads/4", 1000.0),
                ("lp/solve", 1000.0),
            ],
        );
        let report = compare_docs(
            "BENCH_x.json",
            &parse_bench(&base).unwrap(),
            &parse_bench(&cur).unwrap(),
            3.0,
        );
        assert_eq!(report.skipped_cross_core, vec!["pipe/threads/4"]);
        let compared: Vec<&str> = report.rows.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(compared, vec!["lp/solve", "pipe/threads/1"]);
        assert!(report.rows.iter().all(|r| r.regressed));
        assert_eq!(report.baseline_cores, Some(8));
        assert_eq!(report.current_cores, Some(1));
    }

    #[test]
    fn matching_or_unknown_cores_compare_everything() {
        for (b, c) in [(Some(4), Some(4)), (None, Some(1)), (None, None)] {
            let base = parse_bench(&doc(b, &[("pipe/threads/4", 100.0)])).unwrap();
            let cur = parse_bench(&doc(c, &[("pipe/threads/4", 100.0)])).unwrap();
            let report = compare_docs("BENCH_x.json", &base, &cur, 3.0);
            assert!(
                report.skipped_cross_core.is_empty(),
                "cores {b:?}/{c:?} must not skip"
            );
            assert_eq!(report.rows.len(), 1);
        }
    }

    const GOLDEN_PERFGUARD: &str = r#"{
  "schema": "marauder-perfguard-v1",
  "threshold": 3,
  "compared": 2,
  "regressions": 1,
  "files": [
    {
      "file": "BENCH_a.json",
      "baseline_host_cores": 1,
      "current_host_cores": null,
      "rows": [
        {"id": "lp/solve", "baseline_median_ns": 100.00, "current_median_ns": 333.33, "ratio": 3.3333, "status": "regressed"},
        {"id": "q\"b\\s", "baseline_median_ns": 100.00, "current_median_ns": 333.33, "ratio": 3.3333, "status": "ok"}
      ],
      "only_in_baseline": ["gone"],
      "only_in_current": ["new\"one", "two"],
      "skipped_cross_core": [],
      "nonpositive_baseline": ["zero"]
    },
    {
      "file": "BENCH_b.json",
      "baseline_host_cores": 8,
      "current_host_cores": 2,
      "rows": [],
      "only_in_baseline": [],
      "only_in_current": [],
      "skipped_cross_core": ["pipe/threads/4"],
      "nonpositive_baseline": []
    }
  ]
}
"#;

    #[test]
    fn golden_render_report() {
        let row = |id: &str, regressed| Row {
            id: id.to_string(),
            baseline_ns: 100.0,
            current_ns: 333.333,
            ratio: 3.33333,
            regressed,
        };
        let reports = vec![
            FileReport {
                file: "BENCH_a.json".to_string(),
                rows: vec![row("lp/solve", true), row("q\"b\\s", false)],
                only_baseline: vec!["gone".to_string()],
                only_current: vec!["new\"one".to_string(), "two".to_string()],
                skipped_cross_core: Vec::new(),
                nonpositive_baseline: vec!["zero".to_string()],
                baseline_cores: Some(1),
                current_cores: None,
            },
            FileReport {
                file: "BENCH_b.json".to_string(),
                rows: Vec::new(),
                only_baseline: Vec::new(),
                only_current: Vec::new(),
                skipped_cross_core: vec!["pipe/threads/4".to_string()],
                nonpositive_baseline: Vec::new(),
                baseline_cores: Some(8),
                current_cores: Some(2),
            },
        ];
        let json = render_report(&reports, 3.0, 1);
        assert_eq!(json, GOLDEN_PERFGUARD);
    }
}
