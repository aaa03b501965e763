//! One pass: a whole segment driven through the production layers,
//! from the first log line parsed to the final publish, with a live
//! server answering the query client throughout.
//!
//! The feeder is a closed loop: the next line goes in as soon as the
//! previous call returns. Each call is the public function the
//! `marauder` CLI calls, with the configuration it builds.

use crate::inputs::{Route, Segment, Spec, CHECKPOINT_EVERY};
use crate::query::QueryClient;
use crate::trace::{Layer, Ledger};
use marauders_map::core::apdb::ApDatabase;
use marauders_map::core::pipeline::{AttackConfig, KnowledgeLevel, MaraudersMap, TrackFix};
use marauders_map::net::transport::{recv_message, send_message};
use marauders_map::net::{
    required_slack_s, split_by_time, Aggregator, FleetConfig, LoopbackTransport, NetError,
    NodeConfig, SnifferNode, Transport,
};
use marauders_map::serve::{
    PublisherConfig, ServeConfig, ServerHandle, SnapshotPlane, TrackerPublisher, TrackerSnapshot,
};
use marauders_map::stream::{
    ClosedWindow, FlushPolicy, FrameJournal, JournalConfig, SnapshotSink, StreamConfig,
    StreamEngine,
};
use marauders_map::wifi::capture_log::capture_log_frames;
use marauders_map::wifi::frame::FrameBody;
use marauders_map::wifi::mac::MacAddr;
use marauders_map::wifi::sniffer::{window_index, CapturedFrame};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A `(window, mobile)` pair: the unit a fix is produced for.
type Key = (i64, MacAddr);

/// Everything a pass needs before its first line: what `setup_s`
/// times.
pub struct Stage {
    map: MaraudersMap,
    publisher: TrackerPublisher,
    plane: Arc<SnapshotPlane<TrackerSnapshot>>,
    server: ServerHandle,
    journal: Option<FrameJournal>,
}

/// Builds the tracker for one segment: knowledge CSV parse,
/// `MaraudersMap::new`, publisher and HTTP server start, and (on the
/// journal route) a fresh journal in `wal_dir`.
///
/// # Errors
///
/// Any layer's set-up failure, as text.
pub fn set_up(spec: &Spec, knowledge_csv: &str, wal_dir: &Path) -> Result<Stage, String> {
    let db = ApDatabase::from_csv(knowledge_csv).map_err(|e| e.to_string())?;
    let map = knowledge_map(spec, db);
    let (publisher, plane) = TrackerPublisher::new(PublisherConfig::default());
    let server =
        marauders_map::serve::start("127.0.0.1:0", Arc::clone(&plane), ServeConfig::default())
            .map_err(|e| e.to_string())?;
    let journal = match spec.route {
        Route::Journal => {
            Some(FrameJournal::create(wal_dir, wal_config()).map_err(|e| e.to_string())?)
        }
        Route::Direct | Route::Fleet => None,
    };
    Ok(Stage {
        map,
        publisher,
        plane,
        server,
        journal,
    })
}

/// The journal configuration: the CLI's, except that records are
/// flushed on segment rotation (and checkpoint) rather than one fsync
/// per record. A per-record fsync waits on the disk; on a virtual disk
/// shared with other tenants it made `frames_per_s` spread 0.7 across
/// seeds. This way the journal's own work — record encoding and CRC,
/// rotation, checkpoint rendering and its atomic write — is what the
/// workload measures.
fn wal_config() -> JournalConfig {
    JournalConfig {
        flush: FlushPolicy::OnRotate,
        ..JournalConfig::default()
    }
}

/// The attacker's map at the workload's knowledge level, configured as
/// the CLI configures it.
pub fn knowledge_map(spec: &Spec, db: ApDatabase) -> MaraudersMap {
    if spec.full_knowledge {
        MaraudersMap::new(db, KnowledgeLevel::Full, AttackConfig::default())
    } else {
        MaraudersMap::new(
            db.without_radii(),
            KnowledgeLevel::LocationsOnly,
            AttackConfig::default(),
        )
    }
}

/// What one pass produced and measured.
pub struct PassResult {
    /// Frames handed to the pipeline.
    pub frames: u64,
    /// First line parsed to final publish, seconds.
    pub wall_s: f64,
    /// Hand-off of a fix's newest frame to the fix being on the plane,
    /// one entry per live fix, milliseconds.
    pub fix_latency_ms: Vec<f64>,
    /// The process high-water resident set from the start of the pass
    /// to its final publish, MB: the pipeline's peak, without the
    /// checks that follow.
    pub peak_rss_mb: f64,
    /// Live fixes in close order.
    pub live: Vec<TrackFix>,
    /// `batch_fixes` over every closed window, after the pass.
    pub batch: Vec<TrackFix>,
    pub malformed: u64,
    pub frames_late: usize,
    pub windows_closed: usize,
    /// Fleet route only: wire bytes received by the aggregator, its
    /// buffered high-water mark and force-released frames.
    pub wire_bytes: u64,
    pub buffered_peak: usize,
    pub frames_forced: u64,
    pub ledger: Ledger,
    /// Registry counters of a traced pass.
    pub obs: Option<ObsReadout>,
}

/// The `marauder_obs::global()` counters and timings a traced pass
/// reads; the registry is reset when the pass starts.
#[derive(Debug, Clone, Default)]
pub struct ObsReadout {
    pub lp_solves: u64,
    pub lp_pivots: u64,
    pub lp_solve_s: f64,
    pub warm_hits: u64,
    pub warm_misses: u64,
    pub journal_appends: u64,
    pub journal_flushes: u64,
    pub journal_checkpoint_bytes: u64,
    pub open_windows_peak: i64,
    pub publish_snapshots: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub bytes_out: u64,
    /// Read after `batch_fixes`, which is where it is counted.
    pub windows_localized: u64,
}

impl ObsReadout {
    fn take() -> ObsReadout {
        let reg = marauders_map::obs::global();
        ObsReadout {
            lp_solves: reg.counter("lp.solves"),
            lp_pivots: reg.counter("lp.pivots"),
            lp_solve_s: reg
                .timing("lp.solve")
                .map_or(0.0, |t| t.total_ns as f64 / 1e9),
            warm_hits: reg.counter("lp.warm_start.hit"),
            warm_misses: reg.counter("lp.warm_start.miss"),
            journal_appends: reg.counter("journal.appends"),
            journal_flushes: reg.counter("journal.flushes"),
            journal_checkpoint_bytes: reg.counter("journal.checkpoint_bytes"),
            open_windows_peak: reg.gauge("stream.open_windows_peak").unwrap_or(0),
            publish_snapshots: reg.counter("serve.publish.snapshots"),
            cache_hits: reg.counter("serve.cache.hits"),
            cache_misses: reg.counter("serve.cache.misses"),
            bytes_out: reg.counter("serve.bytes_out"),
            windows_localized: 0,
        }
    }
}

/// The live pipeline state of a pass, shared by the three routes.
struct Feed<'a> {
    ledger: Ledger,
    handoff: HashMap<Key, Instant>,
    latency_ms: Vec<f64>,
    closed: Vec<ClosedWindow>,
    publisher: &'a mut TrackerPublisher,
    window_s: f64,
}

impl Feed<'_> {
    /// Notes the hand-off instant of a frame that lands in a window.
    fn hand_off(&mut self, frame: &CapturedFrame, at: Instant) {
        if let Some(key) = key_of(frame, self.window_s) {
            self.handoff.insert(key, at);
        }
    }

    /// Publishes a batch of closed windows and times each fix's
    /// freshness. `always` mirrors `finish_published`, which publishes
    /// even an empty final batch.
    fn publish(
        &mut self,
        unit: u64,
        closed: Vec<ClosedWindow>,
        engine: &StreamEngine,
        always: bool,
    ) {
        if closed.is_empty() && !always {
            return;
        }
        let s = self.ledger.start();
        self.publisher.publish(&closed, engine);
        self.ledger.record(Layer::Publish, unit, s);
        let on_plane = Instant::now();
        for c in &closed {
            let newest = self.handoff.remove(&(c.window, c.mobile));
            if let (Some(t), Ok(_)) = (newest, &c.outcome) {
                self.latency_ms
                    .push(on_plane.duration_since(t).as_secs_f64() * 1e3);
            }
        }
        self.closed.extend(closed);
    }
}

fn key_of(frame: &CapturedFrame, window_s: f64) -> Option<Key> {
    (matches!(frame.frame.body, FrameBody::ProbeResponse { .. }) && !frame.frame.dst.is_broadcast())
        .then(|| (window_index(frame.time_s, window_s), frame.frame.dst))
}

/// Drives one segment through a set-up stage while `client` queries
/// its server. Returns the pass and the stage's plane and server, which
/// stay up for the caller's served-output check.
///
/// # Errors
///
/// The first layer error, as text.
pub fn run(
    spec: &Spec,
    seg: &Segment,
    stage: Stage,
    client: &QueryClient,
    traced: bool,
) -> Result<
    (
        PassResult,
        Arc<SnapshotPlane<TrackerSnapshot>>,
        ServerHandle,
    ),
    String,
> {
    let Stage {
        map,
        mut publisher,
        plane,
        server,
        journal,
    } = stage;
    if traced {
        marauders_map::obs::global().reset();
    }
    crate::env::reset_peak_rss()?;
    client.begin(server.addr(), Arc::clone(&plane));
    let window_s = map.config().window_s;
    let mut feed = Feed {
        ledger: Ledger::new(traced),
        handoff: HashMap::new(),
        latency_ms: Vec::new(),
        closed: Vec::new(),
        publisher: &mut publisher,
        window_s,
    };
    let outcome = match spec.route {
        Route::Direct | Route::Journal => drive_direct(&mut feed, map, journal, &seg.capture_log),
        Route::Fleet => drive_fleet(&mut feed, map, &seg.capture_log),
    };
    let peak_rss_mb = crate::env::peak_rss_mb();
    client.end();
    let mut driven = outcome?;
    let Feed {
        ledger,
        latency_ms,
        closed,
        ..
    } = feed;
    // Counters first: the canonical re-solve in `batch_fixes` is the
    // correctness gate's work, not the pipeline's.
    let mut obs = traced.then(ObsReadout::take);
    let live: Vec<TrackFix> = closed
        .iter()
        .cloned()
        .filter_map(ClosedWindow::into_fix)
        .collect();
    let stats = driven.tail.engine().stats().clone();
    let batch = driven.tail.batch_fixes(closed);
    if let Some(o) = obs.as_mut() {
        o.windows_localized = marauders_map::obs::global().counter("core.windows_localized");
    }
    Ok((
        PassResult {
            frames: driven.frames,
            wall_s: driven.wall_s,
            fix_latency_ms: latency_ms,
            peak_rss_mb,
            live,
            batch,
            malformed: driven.malformed,
            frames_late: stats.frames_late,
            windows_closed: stats.windows_closed,
            wire_bytes: driven.wire_bytes,
            buffered_peak: driven.buffered_peak,
            frames_forced: driven.frames_forced,
            ledger,
            obs,
        },
        plane,
        server,
    ))
}

/// What a route tracked with: a bare engine, or an aggregator around
/// one.
enum Tail {
    Engine(Box<StreamEngine>),
    Fleet(Box<Aggregator>),
}

impl Tail {
    fn engine(&self) -> &StreamEngine {
        match self {
            Tail::Engine(engine) => engine,
            Tail::Fleet(agg) => agg.engine(),
        }
    }

    fn batch_fixes(&mut self, closed: Vec<ClosedWindow>) -> Vec<TrackFix> {
        match self {
            Tail::Engine(engine) => engine.batch_fixes(closed),
            Tail::Fleet(agg) => agg.batch_fixes(closed),
        }
    }
}

/// The tracker a route ended with, and its counters.
struct Driven {
    tail: Tail,
    frames: u64,
    malformed: u64,
    wall_s: f64,
    wire_bytes: u64,
    buffered_peak: usize,
    frames_forced: u64,
}

/// Line by line: parse, journal append (journal route), push, publish,
/// and a checkpoint every [`CHECKPOINT_EVERY`] frames — the
/// `replay --journal` loop.
fn drive_direct(
    feed: &mut Feed<'_>,
    map: MaraudersMap,
    mut journal: Option<FrameJournal>,
    log: &str,
) -> Result<Driven, String> {
    let mut engine = StreamEngine::new(map, StreamConfig::default());
    let mut lines = capture_log_frames(log);
    let mut frames = 0u64;
    let mut malformed = 0u64;
    let t0 = Instant::now();
    loop {
        let read = Instant::now();
        let s = feed.ledger.start();
        let Some(item) = lines.next() else { break };
        feed.ledger.record(Layer::Parse, frames, s);
        let Ok(frame) = item else {
            malformed += 1;
            continue;
        };
        feed.hand_off(&frame, read);
        if let Some(j) = journal.as_mut() {
            let s = feed.ledger.start();
            j.append(&frame).map_err(|e| e.to_string())?;
            feed.ledger.record(Layer::Append, frames, s);
        }
        let s = feed.ledger.start();
        let closed = engine.push(&frame);
        let layer = if closed.is_empty() {
            Layer::Push
        } else {
            Layer::Close
        };
        feed.ledger.record(layer, frames, s);
        feed.publish(frames, closed, &engine, false);
        frames += 1;
        if let Some(j) = journal.as_mut() {
            if frames.is_multiple_of(CHECKPOINT_EVERY) {
                let s = feed.ledger.start();
                j.checkpoint(&engine, &feed.closed)
                    .map_err(|e| e.to_string())?;
                feed.ledger.record(Layer::Checkpoint, frames, s);
            }
        }
    }
    if let Some(j) = journal.as_mut() {
        let s = feed.ledger.start();
        j.checkpoint(&engine, &feed.closed)
            .and_then(|()| j.sync())
            .map_err(|e| e.to_string())?;
        feed.ledger.record(Layer::Checkpoint, frames, s);
    }
    let s = feed.ledger.start();
    let closed = engine.finish();
    feed.ledger.record(Layer::Close, frames, s);
    feed.publish(frames, closed, &engine, true);
    Ok(Driven {
        tail: Tail::Engine(Box::new(engine)),
        frames,
        malformed,
        wall_s: t0.elapsed().as_secs_f64(),
        wire_bytes: 0,
        buffered_peak: 0,
        frames_forced: 0,
    })
}

/// The aggregator side of a loopback link, counting received bytes.
struct Counted {
    inner: LoopbackTransport,
    bytes: u64,
}

impl Transport for Counted {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.inner.send(frame)
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        let got = self.inner.recv()?;
        if let Some(bytes) = &got {
            self.bytes += bytes.len() as u64;
        }
        Ok(got)
    }
}

struct Seat {
    node: SnifferNode,
    node_side: LoopbackTransport,
    agg_side: Counted,
    /// The window key of each frame of this node's slice, in order.
    keys: Vec<Option<Key>>,
}

/// Nodes per fleet. Split by time, every node after the first is
/// buffered until the first one finishes. With two nodes exactly half
/// the fixes were buffered, so `fix_latency_p50_ms` sat on the step
/// between the unbuffered and the buffered fixes (p45/p50/p55 of
/// 83/122/232 ms), and its spread across seeds reached 0.30; with three,
/// p50 falls inside the buffered fixes.
pub const FLEET_NODES: usize = 3;

/// Parse the log, split it by time over [`FLEET_NODES`] loopback
/// sniffer nodes, and merge in an aggregator — the loop
/// `LoopbackFleet::run` runs, driven here so node, decode and merge are
/// timed apart.
fn drive_fleet(feed: &mut Feed<'_>, map: MaraudersMap, log: &str) -> Result<Driven, String> {
    let mut aggregator = Aggregator::new(
        map,
        FleetConfig {
            expected_nodes: FLEET_NODES,
            ..FleetConfig::default()
        },
    );
    let t0 = Instant::now();
    let mut frames = Vec::new();
    let mut malformed = 0u64;
    let mut lines = capture_log_frames(log);
    loop {
        let s = feed.ledger.start();
        let Some(item) = lines.next() else { break };
        feed.ledger.record(Layer::Parse, frames.len() as u64, s);
        match item {
            Ok(frame) => frames.push(frame),
            Err(_) => malformed += 1,
        }
    }
    let total = frames.len() as u64;
    let mut seats: Vec<Seat> = split_by_time(&frames, FLEET_NODES)
        .into_iter()
        .enumerate()
        .map(|(id, slice)| {
            let (node_side, agg_side) = LoopbackTransport::pair();
            let keys = slice.iter().map(|f| key_of(f, feed.window_s)).collect();
            let config = NodeConfig {
                reorder_slack_s: required_slack_s(&slice),
                ..NodeConfig::default()
            };
            Seat {
                node: SnifferNode::new(id as u32, config, slice),
                node_side,
                agg_side: Counted {
                    inner: agg_side,
                    bytes: 0,
                },
                keys,
            }
        })
        .collect();
    drop(frames);
    let mut unit = 0u64;
    loop {
        let mut moved = false;
        for seat in &mut seats {
            let before = seat.node.stats().frames_sent as usize;
            let sent_at = Instant::now();
            let s = feed.ledger.start();
            let progress = seat
                .node
                .step(&mut seat.node_side)
                .map_err(|e| e.to_string())?;
            feed.ledger.record(Layer::Node, unit, s);
            moved |= progress;
            let after = seat.node.stats().frames_sent as usize;
            for key in seat.keys[before..after].iter().flatten() {
                feed.handoff.insert(*key, sent_at);
            }
            unit += 1;
            loop {
                let s = feed.ledger.start();
                let msg = recv_message(&mut seat.agg_side);
                feed.ledger.record(Layer::Decode, unit, s);
                let msg = match msg {
                    Ok(Some(msg)) => msg,
                    Ok(None) | Err(NetError::Disconnected) => break,
                    Err(e) => return Err(e.to_string()),
                };
                moved = true;
                let s = feed.ledger.start();
                let turn = aggregator.on_message(&msg).map_err(|e| e.to_string())?;
                feed.ledger.record(Layer::Aggregator, unit, s);
                feed.publish(unit, turn.closed, aggregator.engine(), false);
                for reply in turn.replies {
                    send_message(&mut seat.agg_side, &reply).map_err(|e| e.to_string())?;
                }
                unit += 1;
            }
        }
        if !moved {
            break;
        }
    }
    let s = feed.ledger.start();
    let closed = aggregator.finish();
    feed.ledger.record(Layer::Close, unit, s);
    feed.publish(unit, closed, aggregator.engine(), true);
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = aggregator.stats().clone();
    Ok(Driven {
        tail: Tail::Fleet(Box::new(aggregator)),
        frames: total,
        malformed,
        wall_s,
        wire_bytes: seats.iter().map(|s| s.agg_side.bytes).sum(),
        buffered_peak: stats.buffered_peak,
        frames_forced: stats.frames_forced,
    })
}
