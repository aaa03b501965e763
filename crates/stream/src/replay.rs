//! Capture ingestion: the one path that feeds capture-log frames
//! through the engine ([`Ingest`]), the batch-equivalent replays built
//! on it, and the pacing a *live* replay needs.

use crate::engine::{ClosedWindow, StreamConfig, StreamEngine, StreamStats};
use crate::journal::{record_crc, FrameJournal, JournalError, Recovery};
use crate::publish::SnapshotSink;
use marauder_core::pipeline::{MaraudersMap, TrackFix};
use marauder_core::PipelineError;
use marauder_wifi::capture_log::{capture_log_frames, ParseLogError};
use marauder_wifi::sniffer::{CaptureDatabase, CapturedFrame};
use std::borrow::Borrow;
use std::fmt;
use std::time::{Duration, Instant};

/// Ceiling on a single replay's pacing span, seconds (~31 years).
///
/// Any legitimate capture fits with orders of magnitude to spare; a
/// frame that claims to be further than this into the replay carries a
/// corrupt timestamp (`1e300`, `+inf` survivors of an error budget),
/// not a schedule. [`pacing_gap`] treats such jumps as discontinuities
/// instead of feeding them to `Duration::from_secs_f64` — which panics
/// outside Duration's representable range.
pub const MAX_PACING_GAP_S: f64 = 1e9;

/// How long after the replay epoch the frame at `t` is due, given the
/// epoch frame time `t0` and a `speed`× real-time factor.
///
/// Returns `None` for a malformed schedule — a non-finite timestamp,
/// or a jump beyond [`MAX_PACING_GAP_S`] — which callers treat as a
/// log discontinuity: don't sleep, don't panic, keep replaying.
/// Frames earlier than the epoch are due immediately (`ZERO`), which
/// also covers the bounded timestamp inversions real rigs produce.
pub fn pacing_gap(t0: f64, t: f64, speed: f64) -> Option<Duration> {
    let gap = (t - t0) / speed;
    if !gap.is_finite() || gap > MAX_PACING_GAP_S {
        return None;
    }
    Some(Duration::from_secs_f64(gap.max(0.0)))
}

/// Paces a replay at `speed`× real time, keyed off frame timestamps.
/// Speed 0 disables pacing entirely. The clock starts at the first
/// frame, so leading silence in the log is skipped.
///
/// Malformed timestamps (NaN, `±inf`, absurd values like `1e300` that
/// survive a replay error budget) are treated as discontinuities — the
/// frame is released immediately and the pacing epoch is left alone —
/// rather than panicking inside `Duration::from_secs_f64` like the
/// original CLI-local implementation did.
#[derive(Debug)]
pub struct Pacer {
    speed: f64,
    start: Instant,
    first_t: Option<f64>,
}

impl Pacer {
    /// A pacer at `speed`× real time (0 disables pacing).
    pub fn new(speed: f64) -> Self {
        Self {
            speed,
            start: Instant::now(),
            first_t: None,
        }
    }

    /// Sleeps until the wall clock catches up with frame time `t`.
    pub fn wait_for(&mut self, t: f64) {
        if self.speed <= 0.0 {
            return;
        }
        // A non-finite first frame must not become the epoch: every
        // later gap against it would be NaN and pacing would silently
        // turn off for the rest of the replay.
        let t0 = match self.first_t {
            Some(t0) => t0,
            None if t.is_finite() => {
                self.first_t = Some(t);
                self.start = Instant::now();
                t
            }
            None => return,
        };
        let Some(target) = pacing_gap(t0, t, self.speed) else {
            return; // discontinuity: release immediately, keep the epoch
        };
        if let Some(wait) = target.checked_sub(self.start.elapsed()) {
            std::thread::sleep(wait);
        }
    }
}

/// Poll schedule for tailing a growing file: re-poll immediately after
/// a poll that found data, otherwise back off exponentially up to a
/// ceiling. Keeps an idle `replay --follow` from burning a core.
#[derive(Debug, Clone)]
pub struct PollBackoff {
    initial: Duration,
    max: Duration,
    next: Duration,
}

impl PollBackoff {
    /// A schedule starting at `initial` and doubling up to `max` while
    /// idle.
    pub fn new(initial: Duration, max: Duration) -> Self {
        PollBackoff {
            initial,
            max: max.max(initial),
            next: initial,
        }
    }

    /// The follow-mode default: 10 ms → 200 ms.
    pub fn follow_default() -> Self {
        PollBackoff::new(Duration::from_millis(10), Duration::from_millis(200))
    }

    /// How long to sleep before the next poll, given whether the one
    /// just completed found data. A hit resets the schedule and
    /// returns `ZERO` (re-poll immediately); a miss returns the
    /// current delay and doubles it, saturating at `max`.
    pub fn next_delay(&mut self, found_data: bool) -> Duration {
        if found_data {
            self.next = self.initial;
            return Duration::ZERO;
        }
        let delay = self.next;
        self.next = (self.next * 2).min(self.max);
        delay
    }
}

/// Why an [`Ingest`] stopped.
#[derive(Debug)]
pub enum IngestError {
    /// A bad header, or a malformed line past the error budget.
    Input(PipelineError),
    /// Appending to or checkpointing the journal failed.
    Journal(JournalError),
    /// On resume, valid frame `frame` differs from its journal record.
    ResumeMismatch { frame: u64 },
    /// The source held `valid` frames; the journal already has more.
    ShortLog { valid: u64, journaled: u64 },
    /// The sink failed to pass its output on.
    Sink(std::io::Error),
}

impl IngestError {
    /// This error as a message about the capture log named `source`.
    pub fn about(&self, source: &str) -> String {
        match self {
            IngestError::ResumeMismatch { frame } => format!(
                "frame {frame} of {source} does not match the journal's record — this is not \
                 the capture log the interrupted run journaled"
            ),
            IngestError::ShortLog { valid, journaled } => format!(
                "{source} holds only {valid} valid frames but the journal says {journaled} \
                 were already ingested — wrong capture log for this journal?"
            ),
            IngestError::Input(e) => e.to_string(),
            IngestError::Journal(e) => e.to_string(),
            IngestError::Sink(e) => format!("ingest sink: {e}"),
        }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.about("the capture log"))
    }
}

impl std::error::Error for IngestError {}

impl From<JournalError> for IngestError {
    fn from(e: JournalError) -> Self {
        IngestError::Journal(e)
    }
}

/// The one ingest path: capture-log items in, engine pushes and sink
/// publications out, under the error budget (a bad header is never
/// covered: the text is not a capture log at all), the resume
/// cross-check, write-ahead journaling and the checkpoint cadence.
/// Closed windows are retained only with a journal, for its
/// checkpoints.
///
/// [`seal`](Ingest::seal) ends a run. Dropping an `Ingest` unsealed is
/// a kill: [`FrameJournal::recover`] and `resume` carry on from it.
#[derive(Debug)]
pub struct Ingest {
    /// Malformed body lines to tolerate (default 0).
    pub budget: usize,
    /// Journal checkpoint cadence in frames (default 0: only on seal).
    pub checkpoint_every: usize,
    /// Paces ingestion (default: speed 0, unpaced).
    pub pacer: Pacer,
    engine: StreamEngine,
    journal: Option<FrameJournal>,
    closed: Vec<ClosedWindow>,
    skipped: Vec<ParseLogError>,
    /// Valid frames seen; the first `start_seq` are already journaled,
    /// with record CRCs `tail_crcs` from `checkpoint_seq` on.
    seen: u64,
    start_seq: u64,
    checkpoint_seq: u64,
    tail_crcs: Vec<u32>,
}

impl Ingest {
    /// A fresh ingest, journaling into `journal` (a
    /// [`FrameJournal::create`] result) when given.
    pub fn new(engine: StreamEngine, journal: Option<FrameJournal>) -> Self {
        Ingest {
            budget: 0,
            checkpoint_every: 0,
            pacer: Pacer::new(0.0),
            engine,
            journal,
            closed: Vec::new(),
            skipped: Vec::new(),
            seen: 0,
            start_seq: 0,
            checkpoint_seq: 0,
            tail_crcs: Vec::new(),
        }
    }

    /// Resumes the run a [`FrameJournal::recover`] rebuilt.
    pub fn resume(rec: Recovery) -> Self {
        Ingest {
            closed: rec.closed,
            start_seq: rec.next_seq,
            checkpoint_seq: rec.report.checkpoint_seq.unwrap_or(0),
            tail_crcs: rec.tail_crcs,
            ..Ingest::new(rec.engine, Some(rec.journal))
        }
    }

    /// The engine, the retained windows (with a journal: all of them,
    /// recovered ones first) and the lines skipped under the budget.
    pub fn into_parts(self) -> (StreamEngine, Vec<ClosedWindow>, Vec<ParseLogError>) {
        (self.engine, self.closed, self.skipped)
    }

    /// Takes in one source item. Frames the journal already holds are
    /// skipped unpaced, those above the restored checkpoint checked
    /// against their record CRCs.
    fn feed<F: Borrow<CapturedFrame>>(
        &mut self,
        item: Result<F, ParseLogError>,
        sink: &mut dyn SnapshotSink,
    ) -> Result<(), IngestError> {
        let frame = match item {
            Ok(frame) => frame,
            // Header errors are always line 1; body lines start at 2.
            Err(e) if e.line() <= 1 => return Err(IngestError::Input(PipelineError::BadHeader)),
            Err(e) if self.skipped.len() < self.budget => {
                sink.skipped(&e);
                self.skipped.push(e);
                return Ok(());
            }
            Err(e) => {
                let (line, budget) = (e.line(), self.budget);
                let e = PipelineError::BudgetExhausted { line, budget };
                return Err(IngestError::Input(e));
            }
        };
        let (frame, seq) = (frame.borrow(), self.seen);
        self.seen += 1;
        if seq < self.start_seq {
            let i = seq.checked_sub(self.checkpoint_seq);
            return match i.and_then(|i| self.tail_crcs.get(i as usize)) {
                Some(&crc) if record_crc(seq, frame) != crc => {
                    Err(IngestError::ResumeMismatch { frame: seq })
                }
                _ => Ok(()),
            };
        }
        if let Some(journal) = self.journal.as_mut() {
            journal.append(frame)?;
        }
        self.pacer.wait_for(frame.time_s);
        let closed = self.engine.push(frame);
        if !closed.is_empty() {
            self.deliver(closed, sink)?;
        }
        let every = self.checkpoint_every as u64;
        if let Some(journal) = self.journal.as_mut() {
            if every > 0 && (self.seen - self.start_seq).is_multiple_of(every) {
                journal.checkpoint(&self.engine, &self.closed)?;
            }
        }
        Ok(())
    }

    /// Feeds every item of `source`, stopping at the first error.
    ///
    /// # Errors
    ///
    /// Any [`IngestError`] but `ShortLog`; feed nothing after one.
    pub fn run<F: Borrow<CapturedFrame>>(
        &mut self,
        source: impl IntoIterator<Item = Result<F, ParseLogError>>,
        sink: &mut dyn SnapshotSink,
    ) -> Result<(), IngestError> {
        source
            .into_iter()
            .try_for_each(|item| self.feed(item, sink))
    }

    /// Ends the run, once, after the last item: the final checkpoint
    /// and sync (`finish` is not journaled — a recovery replays and
    /// finishes again), then `finish` and one last, unconditional
    /// publication.
    ///
    /// # Errors
    ///
    /// [`IngestError::ShortLog`] when a resumed source ended before
    /// the journaled frame count — the wrong log or a truncated copy —
    /// and journal or sink failures.
    pub fn seal(&mut self, sink: &mut dyn SnapshotSink) -> Result<(), IngestError> {
        if self.seen < self.start_seq {
            let (valid, journaled) = (self.seen, self.start_seq);
            return Err(IngestError::ShortLog { valid, journaled });
        }
        if let Some(journal) = self.journal.as_mut() {
            journal.checkpoint(&self.engine, &self.closed)?;
            journal.sync()?;
        }
        let closed = self.engine.finish();
        self.deliver(closed, sink)
    }

    fn deliver(
        &mut self,
        closed: Vec<ClosedWindow>,
        sink: &mut dyn SnapshotSink,
    ) -> Result<(), IngestError> {
        sink.publish(&closed, &self.engine);
        if self.journal.is_some() {
            self.closed.extend(closed);
        }
        sink.flush().map_err(IngestError::Sink)
    }
}

/// Streams `frames` through a fresh [`Ingest`] and returns the
/// batch-equivalent fixes plus the ingestion counters.
///
/// The fixes are byte-identical to [`MaraudersMap::track_all`] over
/// the same frames, provided the stream lost nothing (check
/// `stats.frames_late` and `stats.windows_evicted` — both stay zero
/// for any capture whose timestamp inversions fit inside
/// [`StreamConfig::allowed_lag_s`]).
///
/// Live localization is forced off regardless of `config`: every
/// per-window outcome is discarded here (only the batch re-pass below
/// is returned), so the per-window solve-and-locate would be pure
/// waste — skipping it is the bulk of replay's speed.
pub fn replay_frames<'a>(
    map: MaraudersMap,
    config: StreamConfig,
    frames: impl IntoIterator<Item = &'a CapturedFrame>,
) -> (Vec<TrackFix>, StreamStats) {
    let config = StreamConfig {
        live_localization: false,
        ..config
    };
    let mut ingest = Ingest::new(StreamEngine::new(map, config), None);
    let mut closed = Vec::new();
    let items = frames.into_iter().map(Ok::<_, ParseLogError>);
    // Frames only, unjournaled, into a `Vec`: neither call can fail.
    let _ = ingest
        .run(items, &mut closed)
        .and_then(|()| ingest.seal(&mut closed));
    let (mut engine, _, _) = ingest.into_parts();
    (engine.batch_fixes(closed), engine.stats().clone())
}

/// [`replay_frames`] over a whole capture database, in stored order.
pub fn replay_database(
    map: MaraudersMap,
    config: StreamConfig,
    captures: &CaptureDatabase,
) -> (Vec<TrackFix>, StreamStats) {
    replay_frames(map, config, captures.iter())
}

/// Streams a serialized capture log (the
/// [`marauder_wifi::capture_log`] text format) through a fresh
/// [`Ingest`] with `error_budget`, and returns the batch-equivalent
/// fixes, the counters and the skipped lines.
///
/// # Errors
///
/// [`PipelineError::BudgetExhausted`] naming the 1-based line that
/// overflowed the budget, or [`PipelineError::BadHeader`] — never
/// covered by the budget — when the text is not a capture log at all.
pub fn replay_log(
    map: MaraudersMap,
    config: StreamConfig,
    text: &str,
    error_budget: usize,
) -> Result<(Vec<TrackFix>, StreamStats, Vec<ParseLogError>), PipelineError> {
    let mut ingest = Ingest::new(StreamEngine::new(map, config), None);
    ingest.budget = error_budget;
    let mut closed = Vec::new();
    let fed = ingest.run(capture_log_frames(text), &mut closed);
    // Unjournaled, into a `Vec`: only the input can stop the ingest.
    if let Err(IngestError::Input(e)) = fed.and_then(|()| ingest.seal(&mut closed)) {
        return Err(e);
    }
    let (mut engine, _, skipped) = ingest.into_parts();
    Ok((engine.batch_fixes(closed), engine.stats().clone(), skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use marauder_core::apdb::{ApDatabase, ApRecord};
    use marauder_core::pipeline::{AttackConfig, KnowledgeLevel};
    use marauder_geo::Point;
    use marauder_wifi::channel::Channel;
    use marauder_wifi::frame::Frame;
    use marauder_wifi::mac::MacAddr;
    use marauder_wifi::ssid::Ssid;

    fn mac(i: u64) -> MacAddr {
        MacAddr::from_index(i)
    }

    fn map(level: KnowledgeLevel) -> MaraudersMap {
        let db: ApDatabase = (0..6)
            .map(|i| ApRecord {
                bssid: mac(100 + i),
                ssid: None,
                location: Point::new((i % 3) as f64 * 90.0, (i / 3) as f64 * 90.0),
                radius: (level == KnowledgeLevel::Full).then_some(130.0),
            })
            .collect();
        MaraudersMap::new(db, level, AttackConfig::default())
    }

    fn synthetic_capture() -> CaptureDatabase {
        // Two mobiles wander for ten windows; responses arrive with
        // small timestamp inversions like a real rig produces.
        let mut db = CaptureDatabase::new();
        for k in 0..60u64 {
            let t = k as f64 * 5.0;
            let mobile = 1 + k % 2;
            for ap in [100 + k % 6, 100 + (k + 1) % 6] {
                db.push(CapturedFrame {
                    time_s: t + 0.01 * (ap - 99) as f64,
                    card: 0,
                    frame: Frame::probe_response(
                        mac(ap),
                        mac(mobile),
                        Ssid::new("n").unwrap(),
                        Channel::bg(6).unwrap(),
                    ),
                });
            }
        }
        db
    }

    #[test]
    fn replay_is_byte_identical_to_track_all() {
        for level in [KnowledgeLevel::Full, KnowledgeLevel::LocationsOnly] {
            let captures = synthetic_capture();
            let mut batch_map = map(level);
            batch_map.ingest(&captures);
            let batch = batch_map.track_all(&captures);
            assert!(!batch.is_empty(), "{level:?}: scenario must produce fixes");

            let (streamed, stats) = replay_database(map(level), StreamConfig::default(), &captures);
            assert_eq!(stats.frames_late, 0);
            assert_eq!(stats.windows_evicted, 0);
            assert_eq!(streamed.len(), batch.len(), "{level:?}: fix count");
            for (s, b) in streamed.iter().zip(&batch) {
                assert_eq!(s.time_s.to_bits(), b.time_s.to_bits());
                assert_eq!(s.mobile, b.mobile);
                assert_eq!(s.gamma, b.gamma);
                assert_eq!(
                    s.estimate.position.x.to_bits(),
                    b.estimate.position.x.to_bits()
                );
                assert_eq!(
                    s.estimate.position.y.to_bits(),
                    b.estimate.position.y.to_bits()
                );
                assert_eq!(s.estimate.k, b.estimate.k);
                assert_eq!(s.estimate.area().to_bits(), b.estimate.area().to_bits());
            }
        }
    }

    #[test]
    fn replay_log_enforces_the_error_budget() {
        use marauder_wifi::capture_log::write_capture_log;
        let captures = synthetic_capture();
        let clean = write_capture_log(&captures);
        let mut lines: Vec<String> = clean.lines().map(String::from).collect();
        lines[10] = "garbage line".into(); // 1-based line 11
        lines[25] = "1.0 0 zz".into(); // 1-based line 26
        let corrupted = lines.join("\n");
        let cfg = StreamConfig::default;

        // Budget 0: abort on the first malformed line, 1-based.
        let err = replay_log(map(KnowledgeLevel::Full), cfg(), &corrupted, 0).unwrap_err();
        assert_eq!(
            err,
            PipelineError::BudgetExhausted {
                line: 11,
                budget: 0
            }
        );
        // Budget 1: the first is skipped, the second aborts.
        let err = replay_log(map(KnowledgeLevel::Full), cfg(), &corrupted, 1).unwrap_err();
        assert_eq!(
            err,
            PipelineError::BudgetExhausted {
                line: 26,
                budget: 1
            }
        );

        // Budget 2: completes, reporting exactly the two skipped lines.
        let (fixes, stats, skipped) =
            replay_log(map(KnowledgeLevel::Full), cfg(), &corrupted, 2).unwrap();
        assert_eq!(skipped.len(), 2);
        assert_eq!(skipped[0].line(), 11);
        assert_eq!(skipped[1].line(), 26);

        // The result is byte-identical to replaying the surviving
        // frames directly — the skips are deterministic.
        let survivors: String = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 10 && *i != 25)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let (want, want_stats, none_skipped) =
            replay_log(map(KnowledgeLevel::Full), cfg(), &survivors, 0).unwrap();
        assert!(none_skipped.is_empty());
        assert_eq!(stats, want_stats);
        assert_eq!(fixes.len(), want.len());
        assert!(!fixes.is_empty());
        for (a, b) in fixes.iter().zip(&want) {
            assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
            assert_eq!(a.mobile, b.mobile);
            assert_eq!(
                a.estimate.position.x.to_bits(),
                b.estimate.position.x.to_bits()
            );
            assert_eq!(
                a.estimate.position.y.to_bits(),
                b.estimate.position.y.to_bits()
            );
        }

        // A missing header is not a body error: no budget covers it.
        let err = replay_log(map(KnowledgeLevel::Full), cfg(), "not a log", 10).unwrap_err();
        assert_eq!(err, PipelineError::BadHeader);
    }

    #[test]
    fn corrupted_header_is_bad_header_even_with_generous_budget() {
        // Regression for the `e.line() > 1` guard: a corrupted line 1
        // used to surface as BudgetExhausted { line: 1 } regardless of
        // how generous the budget was, which reads as "you ran out of
        // budget" when the real problem is "this is not a capture
        // log". The header is typed as its own, budget-independent
        // failure.
        use marauder_wifi::capture_log::write_capture_log;
        let clean = write_capture_log(&synthetic_capture());
        let mut lines: Vec<String> = clean.lines().map(String::from).collect();
        lines[0] = "corrupted header".into();
        let corrupted = lines.join("\n");
        for budget in [0, 1, 1000] {
            let err = replay_log(
                map(KnowledgeLevel::Full),
                StreamConfig::default(),
                &corrupted,
                budget,
            )
            .unwrap_err();
            assert_eq!(err, PipelineError::BadHeader, "budget {budget}");
        }
    }

    #[test]
    fn budget_boundary_is_exact() {
        // Exactly N malformed body lines pass with budget N and abort
        // with budget N-1 on the (N)th malformation — the boundary is
        // exact, not off by one.
        use marauder_wifi::capture_log::write_capture_log;
        let clean = write_capture_log(&synthetic_capture());
        let mut lines: Vec<String> = clean.lines().map(String::from).collect();
        let n = 5;
        let corrupt_at: Vec<usize> = (0..n).map(|i| 3 + 4 * i).collect(); // 0-based
        for &i in &corrupt_at {
            lines[i] = format!("corrupt body {i}");
        }
        let corrupted = lines.join("\n");

        // Budget == N: completes, reporting exactly the N skips.
        let (_, _, skipped) = replay_log(
            map(KnowledgeLevel::Full),
            StreamConfig::default(),
            &corrupted,
            n,
        )
        .unwrap();
        assert_eq!(skipped.len(), n);
        let skipped_lines: Vec<usize> = skipped.iter().map(|e| e.line()).collect();
        let expected: Vec<usize> = corrupt_at.iter().map(|i| i + 1).collect();
        assert_eq!(skipped_lines, expected);

        // Budget == N-1: the N-th malformed line exhausts it.
        let err = replay_log(
            map(KnowledgeLevel::Full),
            StreamConfig::default(),
            &corrupted,
            n - 1,
        )
        .unwrap_err();
        assert_eq!(
            err,
            PipelineError::BudgetExhausted {
                line: corrupt_at[n - 1] + 1,
                budget: n - 1
            }
        );
    }

    #[test]
    fn pacing_gap_rejects_malformed_schedules_without_panicking() {
        // The regression this module exists for: 1e300 fed to
        // Duration::from_secs_f64 panics ("can not convert float
        // seconds to Duration"). pacing_gap types it as a
        // discontinuity instead.
        assert_eq!(pacing_gap(0.0, 1e300, 1.0), None);
        assert_eq!(pacing_gap(0.0, f64::INFINITY, 1.0), None);
        assert_eq!(pacing_gap(0.0, f64::NAN, 1.0), None);
        assert_eq!(pacing_gap(f64::NAN, 5.0, 1.0), None);
        assert_eq!(pacing_gap(0.0, MAX_PACING_GAP_S * 1.01, 1.0), None);
        // Speed divides the gap, so an absurd timestamp is absurd at
        // any speed — and a huge gap at high speed becomes sane again.
        assert_eq!(pacing_gap(0.0, 1e300, 1e6), None);
        assert_eq!(
            pacing_gap(0.0, 2e9, 4.0),
            Some(Duration::from_secs_f64(5e8))
        );

        // Sane schedules pace exactly; inversions release immediately.
        assert_eq!(pacing_gap(10.0, 70.0, 2.0), Some(Duration::from_secs(30)));
        assert_eq!(pacing_gap(10.0, 4.0, 2.0), Some(Duration::ZERO));
    }

    #[test]
    fn pacer_survives_malformed_timestamps() {
        // Pure-logic end of the CLI regression test: the old
        // CLI-local Pacer panicked here. No assertion on wall time —
        // the discontinuity rule means none of these sleeps.
        let mut pacer = Pacer::new(1_000_000.0);
        pacer.wait_for(0.0);
        pacer.wait_for(1e300); // absurd: skipped, epoch kept
        pacer.wait_for(f64::NAN);
        pacer.wait_for(0.5); // paced normally off the 0.0 epoch
        let mut nan_first = Pacer::new(10.0);
        nan_first.wait_for(f64::NAN); // must not poison the epoch
        nan_first.wait_for(3.0);
        assert_eq!(nan_first.first_t, Some(3.0));
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("marauder-ingest-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn journaled(dir: &std::path::Path) -> Ingest {
        let journal = FrameJournal::create(dir, crate::JournalConfig::default()).unwrap();
        let engine = StreamEngine::new(map(KnowledgeLevel::Full), StreamConfig::default());
        let mut ingest = Ingest::new(engine, Some(journal));
        ingest.checkpoint_every = 16;
        ingest
    }

    fn recover(dir: &std::path::Path) -> crate::Recovery {
        FrameJournal::recover(dir, map(KnowledgeLevel::Full), StreamConfig::default()).unwrap()
    }

    /// Every fix line a sink saw, in the order it saw them.
    #[derive(Default)]
    struct Fixes(Vec<String>, usize);

    impl SnapshotSink for Fixes {
        fn publish(&mut self, closed: &[ClosedWindow], _engine: &StreamEngine) {
            for w in closed {
                let est = w.estimate().map(|e| e.position.x.to_bits());
                self.0.push(format!("{} {} {est:?}", w.window, w.mobile));
            }
        }

        fn skipped(&mut self, _error: &ParseLogError) {
            self.1 += 1;
        }
    }

    #[test]
    fn dropping_an_ingest_unsealed_then_resuming_is_crash_equivalent() {
        let frames: Vec<CapturedFrame> = synthetic_capture().iter().cloned().collect();
        let clean_dir = scratch("clean");
        let mut clean = Fixes::default();
        let mut ingest = journaled(&clean_dir);
        ingest.run(frames.iter().map(Ok), &mut clean).unwrap();
        ingest.seal(&mut clean).unwrap();
        let (_, retained, _) = ingest.into_parts();
        assert_eq!(
            retained.len(),
            clean.0.len(),
            "a journal retains every window"
        );

        for kill_at in [0, 1, 17, 40, frames.len()] {
            let dir = scratch(&format!("kill-{kill_at}"));
            let mut before = Fixes::default();
            journaled(&dir)
                .run(frames[..kill_at].iter().map(Ok), &mut before)
                .unwrap();
            // Resume over the whole log, as `replay --journal` does.
            let mut after = Fixes::default();
            let mut resumed = Ingest::resume(recover(&dir));
            resumed.run(frames.iter().map(Ok), &mut after).unwrap();
            resumed.seal(&mut after).unwrap();
            before.0.extend(after.0);
            assert_eq!(before.0, clean.0, "kill after {kill_at} frames");
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&clean_dir);
    }

    #[test]
    fn resume_rejects_an_edited_or_short_source() {
        let frames: Vec<CapturedFrame> = synthetic_capture().iter().cloned().collect();
        let dir = scratch("wrong-log");
        let mut ingest = journaled(&dir);
        ingest.checkpoint_every = 0;
        ingest.run(frames.iter().map(Ok), &mut ()).unwrap();
        drop(ingest); // killed before any checkpoint: every record is checked
        let mut edited = frames.clone();
        edited[20].time_s += 0.5;
        let mut resumed = Ingest::resume(recover(&dir));
        let err = resumed.run(edited.iter().map(Ok), &mut ()).unwrap_err();
        assert!(
            matches!(err, IngestError::ResumeMismatch { frame: 20 }),
            "{err}"
        );
        let mut resumed = Ingest::resume(recover(&dir));
        resumed.run(frames[..30].iter().map(Ok), &mut ()).unwrap();
        let err = resumed.seal(&mut ()).unwrap_err();
        let journaled = frames.len() as u64;
        assert!(
            matches!(err, IngestError::ShortLog { valid: 30, journaled: j } if j == journaled),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unjournaled_ingest_retains_nothing_and_reports_skips() {
        use marauder_wifi::capture_log::write_capture_log;
        let mut lines: Vec<String> = write_capture_log(&synthetic_capture())
            .lines()
            .map(String::from)
            .collect();
        lines[5] = "garbage".into();
        let text = lines.join("\n");
        let engine = StreamEngine::new(map(KnowledgeLevel::Full), StreamConfig::default());
        let mut ingest = Ingest::new(engine, None);
        ingest.budget = 1;
        let mut sink = Fixes::default();
        ingest.run(capture_log_frames(&text), &mut sink).unwrap();
        ingest.seal(&mut sink).unwrap();
        let (engine, retained, skipped) = ingest.into_parts();
        assert!(retained.is_empty(), "no journal, no retained windows");
        assert_eq!((sink.1, skipped.len()), (1, 1));
        assert_eq!(skipped[0].line(), 6);
        assert_eq!(sink.0.len(), engine.stats().windows_closed);
    }

    #[test]
    fn poll_backoff_schedule_is_exact() {
        let mut poll = PollBackoff::follow_default();
        let ms = Duration::from_millis;
        // Idle decay: 10, 20, 40, 80, 160, then clamped at 200.
        let idle: Vec<Duration> = (0..7).map(|_| poll.next_delay(false)).collect();
        assert_eq!(
            idle,
            vec![ms(10), ms(20), ms(40), ms(80), ms(160), ms(200), ms(200)]
        );
        // A hit re-polls immediately and resets the decay.
        assert_eq!(poll.next_delay(true), Duration::ZERO);
        assert_eq!(poll.next_delay(true), Duration::ZERO);
        assert_eq!(poll.next_delay(false), ms(10));
        assert_eq!(poll.next_delay(false), ms(20));
        // max < initial is clamped, not a panic.
        let mut tight = PollBackoff::new(ms(50), ms(10));
        assert_eq!(tight.next_delay(false), ms(50));
        assert_eq!(tight.next_delay(false), ms(50));
    }

    #[test]
    fn incremental_solver_skips_most_windows() {
        let captures = synthetic_capture();
        let (_, stats) = replay_database(
            map(KnowledgeLevel::LocationsOnly),
            StreamConfig::default(),
            &captures,
        );
        assert!(stats.windows_closed > 10);
        assert!(
            stats.lp_solves < stats.windows_closed,
            "dirty tracking never skipped a solve: {} solves for {} windows",
            stats.lp_solves,
            stats.windows_closed
        );
    }
}
