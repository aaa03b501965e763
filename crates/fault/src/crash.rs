//! Kill-at-every-boundary crash sweep.
//!
//! The durability subsystem's headline invariant (DESIGN.md
//! "Durability & crash recovery") is *crash equivalence*: killing
//! ingestion at **any** frame boundary, recovering from the
//! write-ahead journal, and resuming must produce fix output
//! byte-identical to the uninterrupted run. This module proves it by
//! brute force: [`crash_sweep`] simulates the kill at every boundary
//! of a [`ChaosScenario`] capture (optionally every `stride`-th), runs
//! crash → [`FrameJournal::recover`] → resume for each, and compares
//! the final fixes against the clean run byte for byte.
//!
//! Two deterministic fault classes drive the sweep:
//!
//! * `crash:N` — the process dies after exactly `N` frames. Simulated
//!   by journaling and ingesting exactly `N` frames, then dropping
//!   everything that was not on disk.
//! * `tornwrite:K` — the process dies *mid-append*, leaving `K` bytes
//!   of the final record on disk. Simulated by physically truncating
//!   the last journal segment `K` bytes into its final record.
//!
//! A third companion run tears the *segment header* instead: the kill
//! lands inside `rotate()`, after the new segment file is created but
//! before its 16-byte header is durable. Recovery must discard the
//! headerless file, and a second recovery after the resumed run must
//! still see every acknowledged append.
//!
//! Everything is a pure function of `(scenario seed, sweep config)`:
//! no RNG, no clocks, and the per-boundary cells are
//! order-independent, so reports are bit-identical at any thread
//! count.

use crate::harness::ChaosScenario;
use marauder_obs::json::{Layout, Writer};
use marauder_stream::{
    replay_frames, FlushPolicy, FrameJournal, Ingest, IngestError, JournalConfig, JournalError,
    RecoveryError, StreamConfig, StreamEngine, TrackFix,
};
use marauder_wifi::sniffer::CapturedFrame;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Sweep knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSweepConfig {
    /// Test every `stride`-th frame boundary (1 = all of them; the
    /// final boundary is always included).
    pub stride: usize,
    /// Write a journal checkpoint every this many frames (0 = journal
    /// only, every recovery replays from scratch).
    pub checkpoint_every: usize,
    /// Additionally tear the final record at each crash point
    /// (`tornwrite` at this many bytes into the record; 0 = off) and
    /// require clean torn-tail recovery plus equivalence.
    pub torn_write_bytes: usize,
    /// Additionally simulate a kill *inside segment rotation* at each
    /// crash point: a `segment-<n>.wal` file exists holding only this
    /// many bytes of its 16-byte header (0 = off; clamped to 15).
    /// Recovery must discard the headerless file, and — crucially — a
    /// SECOND recovery after the resumed run must still see every
    /// acknowledged append (this is where reopening a headerless
    /// segment for append silently loses fsync'd records).
    pub torn_header_bytes: usize,
}

impl Default for CrashSweepConfig {
    fn default() -> Self {
        CrashSweepConfig {
            stride: 1,
            checkpoint_every: 64,
            torn_write_bytes: 3,
            torn_header_bytes: 5,
        }
    }
}

/// A sweep failure — not an equivalence miss (those land in the
/// report), but a journal or recovery operation that failed outright.
#[derive(Debug)]
pub enum SweepError {
    /// Recovering a crash point failed.
    Recovery(RecoveryError),
    /// Journaling or ingesting the frames of a run failed.
    Ingest(IngestError),
    /// Filesystem trouble outside the journal itself.
    Io {
        /// What the sweep was doing.
        op: String,
        /// The underlying failure.
        source: std::io::Error,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Recovery(e) => write!(f, "crash sweep: {e}"),
            SweepError::Ingest(e) => write!(f, "crash sweep: {e}"),
            SweepError::Io { op, source } => write!(f, "crash sweep {op}: {source}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Recovery(e) => Some(e),
            SweepError::Ingest(e) => Some(e),
            SweepError::Io { source, .. } => Some(source),
        }
    }
}

impl From<JournalError> for SweepError {
    fn from(e: JournalError) -> Self {
        SweepError::Ingest(IngestError::Journal(e))
    }
}

impl From<RecoveryError> for SweepError {
    fn from(e: RecoveryError) -> Self {
        SweepError::Recovery(e)
    }
}

impl From<IngestError> for SweepError {
    fn from(e: IngestError) -> Self {
        SweepError::Ingest(e)
    }
}

/// One crash boundary's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashCell {
    /// Frames ingested before the kill.
    pub crash_after: usize,
    /// Whether crash → recover → resume matched the clean run byte
    /// for byte.
    pub matched: bool,
    /// Sequence the recovery's checkpoint covered (`None`: replayed
    /// from scratch).
    pub checkpoint_seq: Option<u64>,
    /// Journal records the recovery replayed.
    pub records_replayed: u64,
    /// The torn-write companion run, when enabled.
    pub torn: Option<TornOutcome>,
    /// The torn-header (kill-inside-rotation) companion run, when
    /// enabled.
    pub torn_header: Option<TornOutcome>,
}

/// Outcome of the torn-write companion run at one boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornOutcome {
    /// Bytes of the final record left on disk.
    pub bytes: usize,
    /// Bytes of torn tail the recovery truncated (0 when the tear
    /// landed on a record boundary).
    pub torn_tail_bytes: u64,
    /// Whether tear → recover → resume matched the clean run.
    pub matched: bool,
}

/// The sweep report: one [`CrashCell`] per tested boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashReport {
    /// Scenario name.
    pub scenario: String,
    /// Seed of the simulated campus.
    pub sim_seed: u64,
    /// Frames in the clean capture (= the number of boundaries + 1).
    pub frames: usize,
    /// The sweep configuration used.
    pub stride: usize,
    /// Checkpoint cadence in frames (0 = none).
    pub checkpoint_every: usize,
    /// Torn-write tear size in bytes (0 = off).
    pub torn_write_bytes: usize,
    /// Torn-header size in bytes (0 = off).
    pub torn_header_bytes: usize,
    /// Per-boundary outcomes, ascending by `crash_after`.
    pub cells: Vec<CrashCell>,
}

impl CrashCell {
    /// Whether this boundary and every torn companion matched.
    fn all_matched(&self) -> bool {
        let torn = [&self.torn, &self.torn_header];
        self.matched && torn.iter().all(|t| t.as_ref().is_none_or(|t| t.matched))
    }
}

impl CrashReport {
    /// Whether every cell (and every torn companion) matched.
    pub fn all_matched(&self) -> bool {
        self.cells.iter().all(CrashCell::all_matched)
    }

    /// Boundaries that failed equivalence.
    pub fn mismatches(&self) -> Vec<usize> {
        let failed = self.cells.iter().filter(|c| !c.all_matched());
        failed.map(|c| c.crash_after).collect()
    }

    /// Renders the report as JSON.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.object(Layout::Block);
        w.key("scenario").str(&self.scenario);
        w.key("sim_seed").u64(self.sim_seed);
        w.key("frames").u64(self.frames as u64);
        w.key("stride").u64(self.stride as u64);
        w.key("checkpoint_every").u64(self.checkpoint_every as u64);
        w.key("torn_write_bytes").u64(self.torn_write_bytes as u64);
        w.key("torn_header_bytes")
            .u64(self.torn_header_bytes as u64);
        w.key("all_matched").bool(self.all_matched());
        w.key("cells").array(Layout::Block);
        let torn_json = |w: &mut Writer, key: &str, torn: &Option<TornOutcome>| {
            let Some(t) = torn else {
                w.key(key).null();
                return;
            };
            w.key(key).object(Layout::Inline);
            w.key("bytes").u64(t.bytes as u64);
            w.key("torn_tail_bytes").u64(t.torn_tail_bytes);
            w.key("matched").bool(t.matched).end();
        };
        for c in &self.cells {
            w.object(Layout::Inline);
            w.key("crash_after").u64(c.crash_after as u64);
            w.key("matched").bool(c.matched);
            w.key("checkpoint_seq");
            match c.checkpoint_seq {
                Some(seq) => w.u64(seq),
                None => w.null(),
            };
            w.key("records_replayed").u64(c.records_replayed);
            torn_json(&mut w, "torn", &c.torn);
            torn_json(&mut w, "torn_header", &c.torn_header);
            w.end();
        }
        w.end().end();
        w.finish()
    }
}

/// Canonical byte rendering of a fix list: every float as its IEEE-754
/// bits, so "byte-identical" means exactly that.
pub fn render_fixes(fixes: &[TrackFix]) -> String {
    let mut out = String::new();
    for f in fixes {
        let gamma: Vec<String> = f.gamma.iter().map(|m| m.to_string()).collect();
        let _ = writeln!(
            out,
            "{:016x} {} {:016x} {:016x} {}",
            f.time_s.to_bits(),
            f.mobile,
            f.estimate.position.x.to_bits(),
            f.estimate.position.y.to_bits(),
            gamma.join(",")
        );
    }
    out
}

/// The engine configuration every sweep run uses: batch-equivalent
/// output only, so live localization stays off.
fn sweep_config() -> StreamConfig {
    StreamConfig {
        live_localization: false,
        warm_start: false,
        ..StreamConfig::default()
    }
}

/// The journal configuration for sweep cells. Rotation is kept small
/// so multi-segment recovery is exercised constantly; syncing is left
/// to rotation because the sweep kills by *dropping state*, not by
/// killing a process — everything written is on disk either way.
fn sweep_journal_config() -> JournalConfig {
    JournalConfig {
        segment_frames: 256,
        flush: FlushPolicy::OnRotate,
    }
}

/// Journals and ingests exactly `n` frames into a fresh `dir` — the
/// pre-crash run — then drops the ingest unsealed: the kill loses all
/// in-memory state, and recovery may only use the directory.
fn run_until_crash(
    scenario: &ChaosScenario,
    frames: &[CapturedFrame],
    n: usize,
    dir: &Path,
    checkpoint_every: usize,
) -> Result<(), SweepError> {
    let _ = std::fs::remove_dir_all(dir);
    let journal = FrameJournal::create(dir, sweep_journal_config())?;
    let engine = StreamEngine::new(scenario.fresh_map(), sweep_config());
    let mut ingest = Ingest::new(engine, Some(journal));
    ingest.checkpoint_every = checkpoint_every;
    ingest.run(frames[..n].iter().map(Ok), &mut ())?;
    Ok(())
}

/// Recovers `dir` and resumes over the whole capture, exactly as
/// `marauder replay --journal` does: the journaled frames are skipped
/// (CRC-checked), the rest appended and pushed, then the run is sealed.
/// Returns the final fixes' rendering plus the recovery accounting.
fn recover_and_resume(
    scenario: &ChaosScenario,
    frames: &[CapturedFrame],
    dir: &Path,
    checkpoint_every: usize,
) -> Result<(String, marauder_stream::RecoveryReport), SweepError> {
    let mut rec = FrameJournal::recover(dir, scenario.fresh_map(), sweep_config())?;
    rec.journal.set_config(sweep_journal_config());
    let report = rec.report.clone();
    let mut ingest = Ingest::resume(rec);
    ingest.checkpoint_every = checkpoint_every;
    ingest.run(frames.iter().map(Ok), &mut ())?;
    ingest.seal(&mut ())?;
    let (mut engine, closed, _) = ingest.into_parts();
    Ok((render_fixes(&engine.batch_fixes(closed)), report))
}

/// The files with extension `ext` in journal directory `dir`, sorted
/// (= by sequence number: names are zero-padded).
fn journal_files(dir: &Path, ext: &str) -> Result<Vec<PathBuf>, SweepError> {
    let io = |source| SweepError::Io {
        op: "scan journal dir".to_string(),
        source,
    };
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(io)? {
        let path = entry.map_err(io)?.path();
        if path.extension().is_some_and(|e| e == ext) {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

/// Truncates the final journal segment in `dir` to `bytes` bytes into
/// its last record — the on-disk signature of dying mid-append.
/// Returns `false` when there is nothing to tear (no segments, no
/// records, or the record is shorter than `bytes`).
pub fn tear_last_record(dir: &Path, bytes: usize) -> Result<bool, SweepError> {
    let io = |op: &str| {
        let op = op.to_string();
        move |source: std::io::Error| SweepError::Io { op, source }
    };
    let segments = journal_files(dir, "wal")?;
    let Some(path) = segments.last() else {
        return Ok(false);
    };
    let data = std::fs::read(path).map_err(io("read final segment"))?;
    // Walk the records to find where the last one starts: 16-byte
    // segment header, then length-prefixed records.
    let mut pos = 16usize;
    let mut last_start = None;
    while pos + 8 <= data.len() {
        let len = u32::from_be_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
        let next = pos + 8 + len as usize;
        if next > data.len() {
            break;
        }
        last_start = Some(pos);
        pos = next;
    }
    let Some(start) = last_start else {
        return Ok(false);
    };
    let keep = start + bytes;
    if keep >= data.len() {
        return Ok(false); // the tear would not actually shorten it
    }
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(io("reopen final segment"))?;
    file.set_len(keep as u64)
        .map_err(io("tear final segment"))?;
    Ok(true)
}

/// Simulates a kill *between segment-file creation and its header
/// write* (inside `rotate()`): creates `segment-<first_seq>.wal`
/// holding only the first `bytes` bytes of the 16-byte header (0 = an
/// empty file; clamped to 15 so the result is never a valid header).
/// `first_seq` must be the number of frames journaled so far — the
/// sequence the torn rotation would have been named after.
pub fn tear_segment_header(dir: &Path, first_seq: u64, bytes: usize) -> Result<(), SweepError> {
    let mut header = Vec::with_capacity(16);
    header.extend_from_slice(&marauder_stream::SEGMENT_MAGIC);
    header.extend_from_slice(&first_seq.to_be_bytes());
    header.truncate(bytes.min(15));
    let path = dir.join(format!("segment-{first_seq:020}.wal"));
    std::fs::write(&path, &header).map_err(|source| SweepError::Io {
        op: format!("tear segment header {}", path.display()),
        source,
    })
}

/// Runs the crash-equivalence sweep for `scenario` under `dir` (one
/// scratch subdirectory per boundary, removed as each cell finishes).
///
/// # Errors
///
/// [`SweepError`] if a journal write or recovery fails outright —
/// equivalence *misses* are not errors; they land in the report's
/// `matched` flags.
pub fn crash_sweep(
    scenario: &ChaosScenario,
    dir: &Path,
    config: &CrashSweepConfig,
) -> Result<CrashReport, SweepError> {
    let frames: Vec<CapturedFrame> = scenario.captures().iter().cloned().collect();
    // The uninterrupted run.
    let reference = render_fixes(&replay_frames(scenario.fresh_map(), sweep_config(), &frames).0);
    let stride = config.stride.max(1);
    let mut boundaries: Vec<usize> = (0..=frames.len()).step_by(stride).collect();
    if boundaries.last() != Some(&frames.len()) {
        boundaries.push(frames.len());
    }

    let cells: Vec<Result<CrashCell, SweepError>> =
        marauder_par::par_map_range(boundaries.len(), |i| {
            let n = boundaries[i];
            let cell_dir = dir.join(format!("crash-{n:08}"));
            let crash =
                || run_until_crash(scenario, &frames, n, &cell_dir, config.checkpoint_every);
            let resume =
                || recover_and_resume(scenario, &frames, &cell_dir, config.checkpoint_every);
            crash()?;
            let (rendered, report) = resume()?;
            let matched = rendered == reference;

            let torn = if config.torn_write_bytes > 0 {
                // Fresh pre-crash state, then tear the final record.
                crash()?;
                if tear_last_record(&cell_dir, config.torn_write_bytes)? {
                    let (rendered, report) = resume()?;
                    Some(TornOutcome {
                        bytes: config.torn_write_bytes,
                        torn_tail_bytes: report.torn_tail_bytes,
                        matched: rendered == reference,
                    })
                } else {
                    None
                }
            } else {
                None
            };

            let torn_header = if config.torn_header_bytes > 0 {
                // Fresh pre-crash state, then die mid-rotation: the
                // next segment file exists, headerless.
                crash()?;
                tear_segment_header(&cell_dir, n as u64, config.torn_header_bytes)?;
                let (rendered, report) = resume()?;
                // The resumed run journaled the remaining frames; a
                // second recovery must see every one of them *in the
                // segments*. This is the check that catches resumed
                // appends landing in a reopened headerless segment and
                // being discarded as a torn tail on the next recovery —
                // so it ignores the checkpoints the sealed run wrote,
                // whose frame counts would cover the loss.
                for checkpoint in journal_files(&cell_dir, "ckpt")? {
                    std::fs::remove_file(checkpoint).map_err(|source| SweepError::Io {
                        op: "drop checkpoint".to_string(),
                        source,
                    })?;
                }
                let rec2 = FrameJournal::recover(&cell_dir, scenario.fresh_map(), sweep_config())?;
                Some(TornOutcome {
                    bytes: config.torn_header_bytes,
                    torn_tail_bytes: report.torn_tail_bytes,
                    matched: rendered == reference && rec2.next_seq as usize == frames.len(),
                })
            } else {
                None
            };

            let _ = std::fs::remove_dir_all(&cell_dir);
            marauder_obs::global().counter_add("crash_sweep.cells", 1);
            Ok(CrashCell {
                crash_after: n,
                matched,
                checkpoint_seq: report.checkpoint_seq,
                records_replayed: report.records_replayed,
                torn,
                torn_header,
            })
        });

    let mut out = Vec::with_capacity(cells.len());
    for cell in cells {
        out.push(cell?);
    }
    Ok(CrashReport {
        scenario: scenario.name().to_string(),
        sim_seed: scenario.sim_seed(),
        frames: frames.len(),
        stride,
        checkpoint_every: config.checkpoint_every,
        torn_write_bytes: config.torn_write_bytes,
        torn_header_bytes: config.torn_header_bytes,
        cells: out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "marauder-crash-sweep-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn coarse_sweep_is_crash_equivalent() {
        let scenario = ChaosScenario::quick(7);
        let frames = scenario.captures().len();
        assert!(frames > 0);
        let dir = scratch("coarse");
        let config = CrashSweepConfig {
            stride: (frames / 7).max(1),
            checkpoint_every: 50,
            torn_write_bytes: 3,
            torn_header_bytes: 5,
        };
        let report = crash_sweep(&scenario, &dir, &config).unwrap();
        assert!(
            report.all_matched(),
            "mismatched boundaries: {:?}",
            report.mismatches()
        );
        assert_eq!(report.cells.first().map(|c| c.crash_after), Some(0));
        assert_eq!(report.cells.last().map(|c| c.crash_after), Some(frames));
        // Some mid-sweep cells must have restored a checkpoint and
        // some must have torn-tail outcomes, or the sweep is not
        // exercising what it claims to.
        assert!(report.cells.iter().any(|c| c.checkpoint_seq.is_some()));
        // Every cell ran the torn-header companion and the headerless
        // segment was detected as a (partial-header-sized) torn tail.
        assert!(report.cells.iter().all(|c| c
            .torn_header
            .as_ref()
            .map(|t| t.matched)
            .unwrap_or(false)));
        assert!(report.cells.iter().any(|c| c
            .torn_header
            .as_ref()
            .map(|t| t.torn_tail_bytes == 5)
            == Some(true)));
        assert!(report.cells.iter().any(|c| c
            .torn
            .as_ref()
            .map(|t| t.torn_tail_bytes > 0)
            .unwrap_or(false)));
        let json = report.to_json();
        assert!(json.contains("\"all_matched\": true"), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_report_is_thread_invariant() {
        let scenario = ChaosScenario::quick(3);
        let frames = scenario.captures().len();
        let config = CrashSweepConfig {
            stride: (frames / 3).max(1),
            checkpoint_every: 64,
            torn_write_bytes: 2,
            torn_header_bytes: 3,
        };
        let dir1 = scratch("threads-1");
        marauder_par::set_threads(1);
        let a = crash_sweep(&scenario, &dir1, &config).unwrap();
        let dir7 = scratch("threads-7");
        marauder_par::set_threads(7);
        let b = crash_sweep(&scenario, &dir7, &config).unwrap();
        marauder_par::set_threads(0);
        assert_eq!(a, b, "sweep must be thread-count-invariant");
        assert_eq!(a.to_json(), b.to_json());
        let _ = std::fs::remove_dir_all(&dir1);
        let _ = std::fs::remove_dir_all(&dir7);
    }

    const GOLDEN_CRASH: &str = r#"{
  "scenario": "q\"b\\s\u0001c\r",
  "sim_seed": 7,
  "frames": 10,
  "stride": 2,
  "checkpoint_every": 4,
  "torn_write_bytes": 3,
  "torn_header_bytes": 5,
  "all_matched": false,
  "cells": [
    {"crash_after": 0, "matched": true, "checkpoint_seq": null, "records_replayed": 0, "torn": null, "torn_header": null},
    {"crash_after": 2, "matched": true, "checkpoint_seq": 1, "records_replayed": 1, "torn": {"bytes": 3, "torn_tail_bytes": 2, "matched": true}, "torn_header": {"bytes": 3, "torn_tail_bytes": 2, "matched": false}}
  ]
}
"#;

    #[test]
    fn golden_crash_report_json() {
        let torn = |matched| TornOutcome {
            bytes: 3,
            torn_tail_bytes: 2,
            matched,
        };
        let report = CrashReport {
            scenario: "q\"b\\s\u{1}c\r".to_string(),
            sim_seed: 7,
            frames: 10,
            stride: 2,
            checkpoint_every: 4,
            torn_write_bytes: 3,
            torn_header_bytes: 5,
            cells: vec![
                CrashCell {
                    crash_after: 0,
                    matched: true,
                    checkpoint_seq: None,
                    records_replayed: 0,
                    torn: None,
                    torn_header: None,
                },
                CrashCell {
                    crash_after: 2,
                    matched: true,
                    checkpoint_seq: Some(1),
                    records_replayed: 1,
                    torn: Some(torn(true)),
                    torn_header: Some(torn(false)),
                },
            ],
        };
        let json = report.to_json();
        assert_eq!(json, GOLDEN_CRASH);
    }
}
