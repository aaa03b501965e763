//! Integration test: run the engine over the fixture mini-workspace in
//! `tests/fixtures/ws` and assert the exact (rule, file, line) set, then
//! drive the CLI binary to pin down exit codes and JSON output.

use std::path::{Path, PathBuf};
use std::process::Command;

use marauder_lint::config::Config;
use marauder_lint::engine;
use marauder_lint::Severity;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn fixture_config() -> Config {
    let toml =
        std::fs::read_to_string(fixture_root().join("lint.toml")).expect("fixture lint.toml");
    Config::parse(&toml).expect("fixture lint.toml parses")
}

#[test]
fn fixture_workspace_reports_exactly_the_planted_violations() {
    let diags = engine::run(&fixture_root(), &fixture_config()).expect("engine runs");
    let got: Vec<(String, String, u32)> = diags
        .iter()
        .map(|d| (d.rule.clone(), d.path.clone(), d.line))
        .collect();
    let want: Vec<(String, String, u32)> = [
        ("no-hash-iteration", "crates/core/src/lib.rs", 15),
        ("no-wall-clock", "crates/core/src/lib.rs", 26),
        ("no-unseeded-entropy", "crates/core/src/lib.rs", 31),
        ("no-panic-in-lib", "crates/core/src/lib.rs", 36),
        ("no-float-eq", "crates/core/src/lib.rs", 41),
        ("stale-suppression", "crates/core/src/lib.rs", 51),
        ("forbid-unsafe", "crates/geo/src/lib.rs", 1),
        ("forbid-unsafe", "crates/par/src/lib.rs", 12),
        ("determinism-taint", "crates/sr/src/lib.rs", 19),
        ("lock-discipline", "crates/sr/src/lib.rs", 38),
        ("lock-discipline", "crates/sr/src/lib.rs", 51),
        ("error-hygiene", "crates/sr/src/lib.rs", 73),
        ("error-hygiene", "crates/sr/src/lib.rs", 87),
        // The suppression's target line was deleted; the report points
        // at the comment's own line, not one past end-of-file.
        ("stale-suppression", "crates/sr/src/lib.rs", 98),
    ]
    .into_iter()
    .map(|(r, p, l)| (r.to_string(), p.to_string(), l))
    .collect();
    assert_eq!(got, want, "full diagnostics: {diags:#?}");

    // Everything is an error except the stale suppression.
    for d in &diags {
        let expected = if d.rule == "stale-suppression" {
            Severity::Warning
        } else {
            Severity::Error
        };
        assert_eq!(d.severity, expected, "{d}");
    }
}

#[test]
fn diagnostics_are_sorted_and_deterministic() {
    let a = engine::run(&fixture_root(), &fixture_config()).expect("engine runs");
    let b = engine::run(&fixture_root(), &fixture_config()).expect("engine runs");
    assert_eq!(a, b);
    let keys: Vec<_> = a
        .iter()
        .map(|d| (d.path.clone(), d.line, d.col, d.rule.clone()))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

#[test]
fn cli_exits_nonzero_on_violations_and_emits_json() {
    let out = Command::new(env!("CARGO_BIN_EXE_marauder-lint"))
        .args(["--root"])
        .arg(fixture_root())
        .args(["--config"])
        .arg(fixture_root().join("lint.toml"))
        .args(["--format", "json"])
        .output()
        .expect("spawn marauder-lint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let json = String::from_utf8(out.stdout).expect("utf8 json");
    // Shape check without a JSON parser: array of objects with the
    // stable field order, one per planted violation.
    assert!(json.starts_with('['), "{json}");
    assert_eq!(json.matches("\"rule\": ").count(), 14, "{json}");
    assert!(
        json.contains(
            "\"path\": \"crates/core/src/lib.rs\", \"line\": 26, \"col\": 16, \"rule\": \"no-wall-clock\""
        ),
        "{json}"
    );
    assert!(json.contains("\"severity\": \"warning\""), "{json}");
}

#[test]
fn cli_exits_zero_on_the_real_workspace() {
    let ws_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO_BIN_EXE_marauder-lint"))
        .args(["--root"])
        .arg(&ws_root)
        .output()
        .expect("spawn marauder-lint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace must lint clean\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let human = String::from_utf8_lossy(&out.stdout);
    assert!(human.contains("marauder-lint: clean"), "{human}");
}

#[test]
fn cli_exits_two_on_bad_config() {
    let out = Command::new(env!("CARGO_BIN_EXE_marauder-lint"))
        .args(["--root"])
        .arg(fixture_root())
        .args(["--config", "/nonexistent/lint.toml"])
        .output()
        .expect("spawn marauder-lint");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn cli_sarif_output_validates_and_carries_all_results() {
    let out = Command::new(env!("CARGO_BIN_EXE_marauder-lint"))
        .args(["--root"])
        .arg(fixture_root())
        .args(["--config"])
        .arg(fixture_root().join("lint.toml"))
        .args(["--format", "sarif"])
        .output()
        .expect("spawn marauder-lint");
    assert_eq!(out.status.code(), Some(1));
    let sarif = String::from_utf8(out.stdout).expect("utf8 sarif");
    marauder_lint::sarif::validate(&sarif).expect("SARIF 2.1.0 required-property subset");
    let doc = marauder_obs::json::parse(&sarif).expect("sarif parses as json");
    let results = doc.get("runs").unwrap().as_arr().unwrap()[0]
        .get("results")
        .unwrap()
        .as_arr()
        .unwrap();
    assert_eq!(results.len(), 14, "{sarif}");
    assert!(
        results
            .iter()
            .any(|r| r.get("ruleId").and_then(|v| v.as_str()) == Some("determinism-taint")),
        "{sarif}"
    );
}

/// Copies the fixture workspace into a scratch directory so a test can
/// mutate its codec without touching the committed tree.
fn copy_fixture_to(dst: &Path) {
    fn walk(src: &Path, dst: &Path) {
        std::fs::create_dir_all(dst).expect("mkdir");
        for entry in std::fs::read_dir(src).expect("read_dir") {
            let entry = entry.expect("dir entry");
            let from = entry.path();
            let to = dst.join(entry.file_name());
            if from.is_dir() {
                walk(&from, &to);
            } else {
                std::fs::copy(&from, &to).expect("copy fixture file");
            }
        }
    }
    walk(&fixture_root(), dst);
}

#[test]
fn codec_field_reorder_without_golden_update_fails_wire_schema() {
    let scratch =
        std::env::temp_dir().join(format!("marauder-lint-schema-drift-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    copy_fixture_to(&scratch);

    let codec = scratch.join("crates/net/src/codec.rs");
    let source = std::fs::read_to_string(&codec).expect("fixture codec");
    // Reorder the Ping fields — same types, same names, different wire
    // layout — and leave the golden untouched.
    let mutated = source.replace(
        "Ping { seq: u64, node: u32 }",
        "Ping { node: u32, seq: u64 }",
    );
    assert_ne!(
        source, mutated,
        "fixture codec must contain the Ping layout"
    );
    std::fs::write(&codec, mutated).expect("write mutated codec");

    let out = Command::new(env!("CARGO_BIN_EXE_marauder-lint"))
        .args(["--root"])
        .arg(&scratch)
        .args(["--config"])
        .arg(scratch.join("lint.toml"))
        .output()
        .expect("spawn marauder-lint");
    let human = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(1), "{human}");
    assert!(human.contains("error[wire-schema]"), "{human}");
    assert!(
        human.contains("seq"),
        "drift report names the moved field: {human}"
    );

    // Renumbering a tag is also drift.
    std::fs::write(
        &codec,
        source.replace("TAG_PONG: u8 = 2", "TAG_PONG: u8 = 9"),
    )
    .expect("write renumbered codec");
    let out = Command::new(env!("CARGO_BIN_EXE_marauder-lint"))
        .args(["--root"])
        .arg(&scratch)
        .args(["--config"])
        .arg(scratch.join("lint.toml"))
        .output()
        .expect("spawn marauder-lint");
    let human = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(1), "{human}");
    assert!(human.contains("TAG_PONG"), "{human}");

    // Restoring the codec restores the committed baseline (exit 1 for
    // the planted violations, but no wire-schema drift).
    std::fs::write(&codec, &source).expect("restore codec");
    let out = Command::new(env!("CARGO_BIN_EXE_marauder-lint"))
        .args(["--root"])
        .arg(&scratch)
        .args(["--config"])
        .arg(scratch.join("lint.toml"))
        .output()
        .expect("spawn marauder-lint");
    let human = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(!human.contains("wire-schema"), "{human}");

    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn changed_mode_requires_the_git_toplevel_as_root() {
    // The fixture workspace sits inside the repo, so its root is not
    // the git toplevel — `--changed` must refuse with a usage error.
    let out = Command::new(env!("CARGO_BIN_EXE_marauder-lint"))
        .args(["--root"])
        .arg(fixture_root())
        .args(["--config"])
        .arg(fixture_root().join("lint.toml"))
        .args(["--changed"])
        .output()
        .expect("spawn marauder-lint");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
