//! Integration tests for the `marauder` CLI: simulate → attack → link
//! through real files, exercising every interchange format.

use std::path::PathBuf;
use std::process::Command;

fn marauder() -> Command {
    Command::new(env!("CARGO_BIN_EXE_marauder"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("marauder-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn simulate_attack_link_round_trip() {
    let dir = temp_dir("roundtrip");
    // simulate
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "5",
            "--aps",
            "60",
            "--mobiles",
            "4",
            "--duration",
            "240",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in ["aps.csv", "capture.log", "training.csv", "truth.csv"] {
        assert!(dir.join(f).exists(), "missing {f}");
    }

    // attack at full knowledge, with scoring and geojson.
    let geojson = dir.join("map.geojson");
    let out = marauder()
        .arg("attack")
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .arg("--captures")
        .arg(dir.join("capture.log"))
        .arg("--truth")
        .arg(dir.join("truth.csv"))
        .arg("--geojson")
        .arg(&geojson)
        .output()
        .expect("run attack");
    assert!(
        out.status.success(),
        "attack failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("time_s,mobile,x,y,k,area_m2"));
    assert!(stdout.lines().count() > 3, "expected fixes, got: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mean error"), "no scoring in: {stderr}");
    let geo = std::fs::read_to_string(&geojson).expect("geojson written");
    assert!(geo.contains("FeatureCollection"));

    // attack at the other two levels.
    for level_args in [vec!["--level", "locations"], vec!["--level", "none"]] {
        let mut cmd = marauder();
        cmd.arg("attack")
            .arg("--captures")
            .arg(dir.join("capture.log"));
        if level_args[1] == "none" {
            cmd.arg("--training").arg(dir.join("training.csv"));
        } else {
            cmd.arg("--knowledge").arg(dir.join("aps.csv"));
        }
        cmd.args(&level_args);
        let out = cmd.output().expect("run attack");
        assert!(
            out.status.success(),
            "attack {level_args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // link
    let out = marauder()
        .arg("link")
        .arg("--captures")
        .arg(dir.join("capture.log"))
        .output()
        .expect("run link");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("device,pseudonyms,fingerprint"));

    // report
    let out = marauder()
        .arg("report")
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .arg("--captures")
        .arg(dir.join("capture.log"))
        .output()
        .expect("run report");
    assert!(
        out.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("attack report"));
    assert!(stdout.contains("devices ("));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_matches_attack_fix_for_fix() {
    let dir = temp_dir("replay");
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "9",
            "--aps",
            "50",
            "--mobiles",
            "3",
            "--duration",
            "180",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Batch attack at full knowledge.
    let attack = marauder()
        .arg("attack")
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .arg("--captures")
        .arg(dir.join("capture.log"))
        .output()
        .expect("run attack");
    assert!(attack.status.success());

    // Streaming replay of the same log (positional argument form).
    let replay = marauder()
        .arg("replay")
        .arg(dir.join("capture.log"))
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .output()
        .expect("run replay");
    assert!(
        replay.status.success(),
        "replay failed: {}",
        String::from_utf8_lossy(&replay.stderr)
    );
    let stderr = String::from_utf8_lossy(&replay.stderr);
    assert!(stderr.contains("windows closed"), "no summary in: {stderr}");
    assert!(stderr.contains("0 late"), "frames dropped: {stderr}");

    // At full knowledge the radii never change, so the fixes printed
    // live as windows closed are exactly the batch fixes — the replay
    // emits them chronologically, the attack sorts per mobile, so
    // compare as sorted line sets.
    let collect = |bytes: &[u8]| -> Vec<String> {
        let text = String::from_utf8_lossy(bytes).to_string();
        let mut lines: Vec<String> = text.lines().skip(1).map(str::to_string).collect();
        lines.sort();
        lines
    };
    let batch_lines = collect(&attack.stdout);
    let live_lines = collect(&replay.stdout);
    assert!(!batch_lines.is_empty(), "attack produced no fixes");
    assert_eq!(live_lines, batch_lines, "replay diverged from attack");

    // Paced replay (very fast so the test stays quick) produces the
    // same output.
    let paced = marauder()
        .arg("replay")
        .arg(dir.join("capture.log"))
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .args(["--speed", "100000"])
        .output()
        .expect("run paced replay");
    assert!(paced.status.success());
    assert_eq!(collect(&paced.stdout), batch_lines);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_follow_tails_an_appended_log() {
    use std::io::Read;

    let dir = temp_dir("follow");
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "3",
            "--aps",
            "40",
            "--mobiles",
            "2",
            "--duration",
            "120",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(out.status.success());

    // Start following an empty log, then write the real content behind
    // the follower's back — it must pick the frames up and emit fixes.
    let log = dir.join("live.log");
    std::fs::write(&log, "# marauder capture v1\n").expect("seed log");
    let mut child = marauder()
        .arg("replay")
        .arg(&log)
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .arg("--follow")
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn follower");
    let full = std::fs::read_to_string(dir.join("capture.log")).expect("read capture");
    let body = full.split_once('\n').map(|x| x.1).expect("capture body");
    // Two separate writes that split one line in the middle: the
    // follower must wait for the rest of the line instead of parsing
    // the partial one.
    let cut = body.len() / 2;
    let cut = body[..cut].rfind('\n').expect("a complete line first") + 10;
    for part in [&body[..cut], &body[cut..]] {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&log)
            .expect("open log for append");
        f.write_all(part.as_bytes()).expect("append frames");
        drop(f);
        std::thread::sleep(std::time::Duration::from_millis(400));
    }
    std::thread::sleep(std::time::Duration::from_millis(1100));
    assert!(
        child.try_wait().expect("poll follower").is_none(),
        "the follower must still be tailing"
    );
    child.kill().expect("stop follower");
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout)
        .expect("read follower output");
    child.wait().expect("reap follower");
    assert!(
        stdout.starts_with("time_s,mobile,x,y,k,area_m2"),
        "no header in follower output: {stdout:?}"
    );
    assert!(
        stdout.lines().count() > 1,
        "follower emitted no fixes: {stdout:?}"
    );
    // Every fix the watermark released matches the plain replay of the
    // whole log, line for line (the follower never reaches `finish`).
    let plain = marauder()
        .arg("replay")
        .arg(dir.join("capture.log"))
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .output()
        .expect("run replay");
    let plain = String::from_utf8_lossy(&plain.stdout);
    assert!(
        plain.starts_with(&stdout),
        "follower output is not a prefix of the replay:\n{stdout}\nvs\n{plain}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn follow_rejects_explicit_speed_zero() {
    let dir = temp_dir("follow-speed");
    std::fs::write(dir.join("c.log"), "# marauder capture v1\n").expect("write log");
    std::fs::write(
        dir.join("a.csv"),
        "bssid,ssid,x,y,radius\n00:16:00:00:00:64,,0,0,120\n",
    )
    .expect("write knowledge");

    // A live tail cannot run "as fast as possible": the combination is
    // a usage mistake (exit 2, usage printed), not a runtime failure.
    let out = marauder()
        .arg("replay")
        .arg(dir.join("c.log"))
        .arg("--knowledge")
        .arg(dir.join("a.csv"))
        .args(["--follow", "--speed", "0"])
        .output()
        .expect("run replay");
    assert_eq!(out.status.code(), Some(2), "--follow --speed 0 must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--follow"),
        "error must name the flags: {stderr}"
    );
    assert!(stderr.contains("usage:"), "usage must follow: {stderr}");

    // Flag order must not matter.
    let out = marauder()
        .arg("replay")
        .arg(dir.join("c.log"))
        .arg("--knowledge")
        .arg(dir.join("a.csv"))
        .args(["--speed", "0", "--follow"])
        .output()
        .expect("run replay");
    assert_eq!(out.status.code(), Some(2), "flag order must not matter");

    // --speed 0 alone stays the documented "as fast as possible" mode.
    let out = marauder()
        .arg("replay")
        .arg(dir.join("c.log"))
        .arg("--knowledge")
        .arg(dir.join("a.csv"))
        .args(["--speed", "0"])
        .output()
        .expect("run replay");
    assert_eq!(
        out.status.code(),
        Some(0),
        "--speed 0 without --follow is fine"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_loopback_matches_replay() {
    let dir = temp_dir("fleet");
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "13",
            "--aps",
            "50",
            "--mobiles",
            "3",
            "--duration",
            "180",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let collect = |bytes: &[u8]| -> Vec<String> {
        let text = String::from_utf8_lossy(bytes).to_string();
        let mut lines: Vec<String> = text.lines().skip(1).map(str::to_string).collect();
        lines.sort();
        lines
    };
    let replay = marauder()
        .arg("replay")
        .arg(dir.join("capture.log"))
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .output()
        .expect("run replay");
    assert!(replay.status.success());
    let baseline = collect(&replay.stdout);
    assert!(!baseline.is_empty(), "replay produced no fixes");

    // The same log merged across loopback nodes, both split policies,
    // yields the same fixes.
    for (nodes, split) in [("1", "rr"), ("3", "rr"), ("4", "time")] {
        let fleet = marauder()
            .arg("fleet")
            .arg(dir.join("capture.log"))
            .arg("--knowledge")
            .arg(dir.join("aps.csv"))
            .args(["--loopback", nodes, "--split", split])
            .output()
            .expect("run fleet");
        assert!(
            fleet.status.success(),
            "fleet --loopback {nodes} --split {split} failed: {}",
            String::from_utf8_lossy(&fleet.stderr)
        );
        assert_eq!(
            collect(&fleet.stdout),
            baseline,
            "fleet --loopback {nodes} --split {split} diverged from replay"
        );
        let stderr = String::from_utf8_lossy(&fleet.stderr);
        assert!(stderr.contains("windows closed"), "no summary: {stderr}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_help_exits_zero() {
    // Requested help is a success: usage on stdout, exit 0 — in every
    // spelling, including after a subcommand.
    for args in [
        vec!["--help"],
        vec!["-h"],
        vec!["help"],
        vec!["replay", "--help"],
        vec!["simulate", "-h"],
    ] {
        let out = marauder().args(&args).output().expect("run help");
        assert_eq!(out.status.code(), Some(0), "{args:?} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("usage:"),
            "{args:?} must print usage on stdout, got: {stdout:?}"
        );
    }
    // A genuine mistake still exits 2: help must not swallow the
    // error path.
    let out = marauder().output().expect("run bare");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn stats_deterministic_sections_are_thread_invariant() {
    let dir = temp_dir("stats");
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "11",
            "--aps",
            "50",
            "--mobiles",
            "3",
            "--duration",
            "180",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The counter/gauge/histogram sections must be byte-identical at
    // every thread count; only what follows the "nondeterministic" key
    // may differ.
    let deterministic_prefix = |threads: &str| -> String {
        let out = marauder()
            .arg("stats")
            .arg(dir.join("capture.log"))
            .arg("--knowledge")
            .arg(dir.join("aps.csv"))
            .args(["--level", "locations", "--threads", threads])
            .output()
            .expect("run stats");
        assert!(
            out.status.success(),
            "stats --threads {threads} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = String::from_utf8_lossy(&out.stdout).to_string();
        json.split("\"nondeterministic\"")
            .next()
            .expect("split never yields zero pieces")
            .to_string()
    };
    let t1 = deterministic_prefix("1");
    assert!(t1.contains("\"counters\""), "no counters section: {t1}");
    assert!(
        t1.contains("stream.windows_closed"),
        "no stream counters: {t1}"
    );
    assert!(t1.contains("lp.solves"), "no lp counters: {t1}");
    assert_eq!(t1, deterministic_prefix("2"), "threads 1 vs 2 diverged");
    assert_eq!(t1, deterministic_prefix("7"), "threads 1 vs 7 diverged");

    // --metrics FILE dumps the same registry shape from any command.
    let metrics = dir.join("attack-metrics.json");
    let out = marauder()
        .arg("attack")
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .arg("--captures")
        .arg(dir.join("capture.log"))
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("run attack with metrics");
    assert!(
        out.status.success(),
        "attack --metrics failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dumped = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(dumped.contains("\"core.windows_localized\""));
    assert!(dumped.contains("\"nondeterministic\""));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn helpful_errors() {
    // No args: usage + exit 2.
    let out = marauder().output().expect("run bare");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Unknown command.
    let out = marauder().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());

    // Missing required flag.
    let out = marauder().args(["attack"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--captures"));

    // Bad level.
    let dir = temp_dir("badlevel");
    std::fs::write(dir.join("c.log"), "# marauder capture v1\n").expect("write");
    std::fs::write(dir.join("a.csv"), "bssid,ssid,x,y,radius\n").expect("write");
    let out = marauder()
        .arg("attack")
        .arg("--captures")
        .arg(dir.join("c.log"))
        .arg("--knowledge")
        .arg(dir.join("a.csv"))
        .args(["--level", "bogus"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown --level"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: the CLI once paced replays with a local
/// `Duration::from_secs_f64((t - t0) / speed)` — a capture line whose
/// timestamp survives parsing but is absurd (`1e300`) panicked the
/// whole process the moment `--speed` turned pacing on. The stream
/// `Pacer` treats such jumps as log discontinuities: released
/// immediately, no panic, replay completes. This test fed the old
/// binary a three-line doctored log and watched it abort; against the
/// fix it must exit 0, fast.
#[test]
fn replay_survives_absurd_timestamp_at_high_speed() {
    let dir = temp_dir("pacer-regression");
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "7",
            "--aps",
            "40",
            "--mobiles",
            "2",
            "--duration",
            "120",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(out.status.success());

    // Rewrite three real frame lines to t = 1.0, 1e300, 2.0: a valid
    // log whose schedule no Duration can represent.
    let full = std::fs::read_to_string(dir.join("capture.log")).expect("read capture");
    let frames: Vec<&str> = full.lines().filter(|l| !l.starts_with('#')).collect();
    assert!(frames.len() >= 3, "simulate produced too few frames");
    let retime = |line: &str, t: &str| {
        let rest = line.split_once(' ').expect("frame line").1;
        format!("{t} {rest}")
    };
    let doctored = format!(
        "# marauder capture v1\n{}\n{}\n{}\n",
        retime(frames[0], "1.0"),
        retime(frames[1], "1e300"),
        retime(frames[2], "2.0"),
    );
    let log = dir.join("doctored.log");
    std::fs::write(&log, doctored).expect("write doctored log");

    let out = marauder()
        .arg("replay")
        .arg(&log)
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .args(["--speed", "1000000"])
        .output()
        .expect("run replay");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "replay died on an absurd timestamp: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "replay panicked: {stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `marauder serve` end to end: replays a capture into the serving
/// plane and answers real HTTP on the announced address.
#[test]
fn serve_announces_and_answers_http() {
    use std::io::{BufRead, BufReader};

    let dir = temp_dir("serve-smoke");
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "11",
            "--aps",
            "40",
            "--mobiles",
            "2",
            "--duration",
            "120",
            "--out-dir",
        ])
        .arg(&dir)
        .output()
        .expect("run simulate");
    assert!(out.status.success());

    let mut child = marauder()
        .arg("serve")
        .arg(dir.join("capture.log"))
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .args(["--listen", "127.0.0.1:0", "--speed", "0", "--linger", "30"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // First stdout line announces the bound address (`:0` resolved).
    let mut announce = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut announce)
        .expect("read announcement");
    let addr = announce
        .trim()
        .strip_prefix("serving on ")
        .unwrap_or_else(|| panic!("bad announcement: {announce:?}"))
        .to_string();

    let mut client = marauders_map::serve::loadgen::BenchClient::connect(&addr)
        .expect("connect to served address");
    let health = client.get_body("/healthz").expect("/healthz");
    assert_eq!(health, "ok\n");
    let metrics = client.get_body("/metrics").expect("/metrics");
    assert!(metrics.contains("serve.requests"));
    let snapshot = client.get_body("/snapshot").expect("/snapshot");
    assert!(snapshot.starts_with("# marauder stream snapshot v1"));
    assert_eq!(client.get("/nope").expect("/nope"), 404);

    child.kill().expect("stop serve");
    child.wait().expect("reap serve");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `marauder simulate` into `dir` (seed 11, 40 APs, 300 s): the
/// shared fixture of the journal and error-budget tests below.
fn simulate_small(dir: &std::path::Path) {
    let out = marauder()
        .args([
            "simulate",
            "--seed",
            "11",
            "--aps",
            "40",
            "--duration",
            "300",
            "--out-dir",
        ])
        .arg(dir)
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `marauder replay` over `log` with `extra` flags; returns
/// `(exit code, stdout, stderr)`.
fn replay_run(dir: &std::path::Path, log: &str, extra: &[&str]) -> (i32, String, String) {
    let out = marauder()
        .arg("replay")
        .arg(dir.join(log))
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .args(extra)
        .output()
        .expect("run replay");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

/// Rewrites `dir/capture.log` with `edit` applied to its lines and
/// stores the result as `dir/name`.
fn edited_log(dir: &std::path::Path, name: &str, edit: impl FnOnce(&mut Vec<String>)) {
    let text = std::fs::read_to_string(dir.join("capture.log")).expect("read capture");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    edit(&mut lines);
    let mut out = lines.join("\n");
    out.push('\n');
    std::fs::write(dir.join(name), out).expect("write edited log");
}

#[test]
fn journaled_replay_matches_plain_and_a_rerun_resumes_nothing() {
    let dir = temp_dir("journal");
    simulate_small(&dir);
    let wal = dir.join("wal");
    let wal_arg = wal.to_str().expect("utf-8 temp path");

    let (code, plain_out, plain_err) = replay_run(&dir, "capture.log", &[]);
    assert_eq!(code, 0, "plain replay failed: {plain_err}");
    let summary = "replayed 800 frames (139 relevant, 0 late, 0 malformed lines skipped) -> \
                   42 windows closed, 0 LP solves, 0 evicted (knowledge level: full)\n";
    assert_eq!(plain_err, summary);

    // A fresh journal changes nothing a reader of stdout or stderr sees.
    let (code, fresh_out, fresh_err) = replay_run(&dir, "capture.log", &["--journal", wal_arg]);
    assert_eq!(code, 0, "fresh journaled replay failed: {fresh_err}");
    assert_eq!(fresh_out, plain_out);
    assert_eq!(fresh_err, plain_err);

    // Rerunning over the sealed journal skips all 800 frames; only the
    // windows `finish` closes are printed again.
    let (code, rerun_out, rerun_err) = replay_run(&dir, "capture.log", &["--journal", wal_arg]);
    assert_eq!(code, 0, "rerun failed: {rerun_err}");
    assert_eq!(
        rerun_err,
        format!(
            "recovered journal {wal_arg}: 800 frames on disk (0 replayed above checkpoint, \
             38 windows closed pre-crash, 0 B torn tail truncated)\n{summary}"
        )
    );
    let rerun_fixes: Vec<&str> = rerun_out.lines().collect();
    let plain_fixes: Vec<&str> = plain_out.lines().collect();
    assert_eq!(rerun_fixes.len(), 1 + 4, "header plus the 4 finish fixes");
    assert_eq!(rerun_fixes[0], plain_fixes[0]);
    assert_eq!(
        rerun_fixes[1..],
        plain_fixes[plain_fixes.len() - 4..],
        "the rerun reprints exactly the fixes finish closed"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_resume_rejects_an_edited_or_truncated_log() {
    let dir = temp_dir("journal-resume");
    simulate_small(&dir);
    edited_log(&dir, "edited.log", |lines| {
        // Line index 6 holds frame 5: shift its timestamp.
        let rest = lines[6].split_once(' ').expect("frame line").1.to_string();
        lines[6] = format!("999.0 {rest}");
    });
    edited_log(&dir, "short.log", |lines| lines.truncate(50));

    // A journal whose checkpoints are gone: recovery replays every
    // record, so every skipped frame is CRC-checked on resume.
    let wal = dir.join("wal");
    let wal_arg = wal.to_str().expect("utf-8 temp path");
    let (code, _, err) = replay_run(&dir, "capture.log", &["--journal", wal_arg]);
    assert_eq!(code, 0, "journaled replay failed: {err}");
    for entry in std::fs::read_dir(&wal).expect("list journal") {
        let path = entry.expect("journal entry").path();
        if path.extension().is_some_and(|e| e == "ckpt") {
            std::fs::remove_file(path).expect("drop checkpoint");
        }
    }
    let backup = dir.join("wal-copy");
    std::fs::create_dir_all(&backup).expect("backup dir");
    for entry in std::fs::read_dir(&wal).expect("list journal") {
        let path = entry.expect("journal entry").path();
        std::fs::copy(&path, backup.join(path.file_name().expect("name"))).expect("copy");
    }

    let (code, out, err) = replay_run(&dir, "edited.log", &["--journal", wal_arg]);
    assert_eq!(code, 1, "an edited log must not resume: {err}");
    assert_eq!(out, "time_s,mobile,x,y,k,area_m2\n");
    let edited = dir.join("edited.log");
    assert!(
        err.ends_with(&format!(
            "error: frame 5 of {} does not match the journal's record — this is not the \
             capture log the interrupted run journaled\n",
            edited.display()
        )),
        "{err}"
    );

    let backup_arg = backup.to_str().expect("utf-8 temp path");
    let (code, _, err) = replay_run(&dir, "short.log", &["--journal", backup_arg]);
    assert_eq!(code, 1, "a short log must not resume: {err}");
    let short = dir.join("short.log");
    assert!(
        err.ends_with(&format!(
            "error: {} holds only 49 valid frames but the journal says 800 were already \
             ingested — wrong capture log for this journal?\n",
            short.display()
        )),
        "{err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn error_budget_skips_at_n_and_aborts_at_n_minus_one() {
    let dir = temp_dir("budget");
    simulate_small(&dir);
    edited_log(&dir, "bad.log", |lines| {
        lines[10] = "garbage".into();
        lines[30] = "1.0 0 zz".into();
    });
    let skip_11 = "skipping malformed line 11: capture log parse error on line 11: bad time: \
                   invalid float literal\n";
    let skip_31 = "skipping malformed line 31: capture log parse error on line 31: bad hex: \
                   invalid digit found in string\n";

    let (code, out, err) = replay_run(&dir, "bad.log", &["--error-budget", "2"]);
    assert_eq!(code, 0, "budget 2 covers two bad lines: {err}");
    assert!(out.lines().count() > 1, "no fixes: {out}");
    assert!(err.starts_with(&format!("{skip_11}{skip_31}")), "{err}");
    assert!(err.contains("2 malformed lines skipped"), "{err}");

    let (code, _, err) = replay_run(&dir, "bad.log", &["--error-budget", "1"]);
    assert_eq!(code, 1, "budget 1 must abort: {err}");
    assert_eq!(
        err,
        format!("{skip_11}error: malformed-input budget of 1 exhausted at line 31\n")
    );

    let serve = |budget: &str| {
        marauder()
            .arg("serve")
            .arg(dir.join("bad.log"))
            .arg("--knowledge")
            .arg(dir.join("aps.csv"))
            .args(["--listen", "127.0.0.1:0", "--speed", "0", "--linger", "0"])
            .args(["--error-budget", budget])
            .output()
            .expect("run serve")
    };
    let out = serve("2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "serve budget 2: {err}");
    assert!(err.starts_with(&format!("{skip_11}{skip_31}")), "{err}");
    assert!(err.contains("2 malformed skipped"), "{err}");
    let out = serve("1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "serve budget 1: {err}");
    assert_eq!(
        err,
        format!("{skip_11}error: malformed-input budget of 1 exhausted at line 31\n")
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn follow_honours_the_error_budget() {
    use std::io::Read;

    let dir = temp_dir("follow-budget");
    simulate_small(&dir);
    // One malformed body line right after the header, then the real
    // frames: with --error-budget 1 the follower skips it and goes on.
    let full = std::fs::read_to_string(dir.join("capture.log")).expect("read capture");
    let body = full.split_once('\n').map(|x| x.1).expect("capture body");
    let log = dir.join("live.log");
    std::fs::write(&log, "# marauder capture v1\ngarbage\n").expect("seed log");
    let mut child = marauder()
        .arg("replay")
        .arg(&log)
        .arg("--knowledge")
        .arg(dir.join("aps.csv"))
        .args(["--follow", "--error-budget", "1"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn follower");
    std::thread::sleep(std::time::Duration::from_millis(300));
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&log)
            .expect("open log for append");
        f.write_all(body.as_bytes()).expect("append frames");
    }
    std::thread::sleep(std::time::Duration::from_millis(1200));
    assert!(
        child.try_wait().expect("poll follower").is_none(),
        "the follower must keep tailing past a budgeted bad line"
    );
    child.kill().expect("stop follower");
    let (mut stdout, mut stderr) = (String::new(), String::new());
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout)
        .expect("read follower output");
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read follower errors");
    child.wait().expect("reap follower");
    assert!(
        stderr.starts_with("skipping malformed line 2: capture log parse error on line 2: "),
        "{stderr}"
    );
    assert!(
        stdout.lines().count() > 1,
        "no fixes after the skipped line: {stdout:?}"
    );

    // Without budget, follow stops on the same line with the same
    // typed error as a plain replay; a bad header is never covered.
    std::fs::write(&log, format!("# marauder capture v1\ngarbage\n{body}")).expect("write log");
    let (code, _, err) = replay_run(&dir, "live.log", &["--follow"]);
    assert_eq!(code, 1, "{err}");
    assert!(
        err.ends_with("error: malformed-input budget of 0 exhausted at line 2\n"),
        "{err}"
    );
    std::fs::write(&log, format!("not a log\n{body}")).expect("write log");
    let (code, _, err) = replay_run(&dir, "live.log", &["--follow", "--error-budget", "5"]);
    assert_eq!(code, 1, "{err}");
    assert!(err.contains("error: not a capture log"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn follow_reports_the_read_failure_not_a_missing_header() {
    let dir = temp_dir("follow-unreadable");
    simulate_small(&dir);
    let (code, _, err) = replay_run(&dir, "missing.log", &["--follow"]);
    assert_eq!(code, 1, "{err}");
    assert!(err.starts_with("error: cannot read "), "{err}");
    assert!(err.contains("missing.log"), "{err}");

    // Invalid UTF-8 in the first chunk is a read failure too.
    std::fs::write(dir.join("binary.log"), b"# marauder capture v1\n\xff\n").expect("write log");
    let (code, _, err) = replay_run(&dir, "binary.log", &["--follow"]);
    assert_eq!(code, 1, "{err}");
    assert!(
        err.ends_with("binary.log: stream did not contain valid UTF-8\n"),
        "{err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
