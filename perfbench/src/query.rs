//! The open-loop query client: one keep-alive connection to the live
//! server, requests sent on a fixed schedule whatever the server's
//! speed, each timed from the instant it was due.
//!
//! The endpoint mix is `serve::loadgen`'s; the targets are drawn from
//! the workload itself: `/track/<mac>` and `/track/<mac>?format=json`
//! only for devices that already have a published fix, `/tiles?bbox=…`
//! for boxes inside the campus.

use crate::inputs::REGION_HALF_WIDTH_M;
use marauders_map::par::sub_seed;
use marauders_map::serve::loadgen::BenchClient;
use marauders_map::serve::{PlaneReader, SnapshotPlane, TrackerSnapshot};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests per second: a fixed rate well below one server thread's
/// capacity on these bodies.
pub const RATE_PER_S: f64 = 200.0;

/// Side of a `/tiles` box, metres: `serve::loadgen`'s 200 m box.
const TILE_BOX_M: f64 = 200.0;

/// A served plane the client should query.
#[derive(Clone)]
struct Target {
    addr: SocketAddr,
    plane: Arc<SnapshotPlane<TrackerSnapshot>>,
}

#[derive(Default)]
struct Slot {
    target: Option<Target>,
    /// Newest generation the client has finished with.
    acked: u64,
    stop: bool,
    /// Samples of finished sessions not yet taken.
    log: QueryLog,
}

struct Shared {
    /// Bumped by every `begin`/`end`; a session runs while it holds.
    generation: AtomicU64,
    slot: Mutex<Slot>,
    wake: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().expect("query client state lock poisoned")
    }
}

/// What the client measured.
#[derive(Debug, Default)]
pub struct QueryLog {
    /// Due-to-complete latency per request, microseconds.
    pub latency_us: Vec<f64>,
    /// Due-to-send lateness per request, milliseconds.
    pub late_ms: Vec<f64>,
    pub attempted: u64,
    /// Non-200 responses plus I/O failures.
    pub failed: u64,
}

/// Handle to the client thread.
pub struct QueryClient {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl QueryClient {
    pub fn start(seed: u64) -> QueryClient {
        let shared = Arc::new(Shared {
            generation: AtomicU64::new(0),
            slot: Mutex::new(Slot::default()),
            wake: Condvar::new(),
        });
        let worker = Arc::clone(&shared);
        let thread = std::thread::spawn(move || client_loop(&worker, seed));
        QueryClient {
            shared,
            thread: Some(thread),
        }
    }

    /// Starts querying the server at `addr`, which serves `plane`.
    pub fn begin(&self, addr: SocketAddr, plane: Arc<SnapshotPlane<TrackerSnapshot>>) {
        let mut slot = self.shared.lock();
        slot.target = Some(Target { addr, plane });
        self.shared.generation.fetch_add(1, Ordering::SeqCst);
        self.shared.wake.notify_all();
    }

    /// Stops querying and waits until no request is in flight, so the
    /// server can be shut down under a quiet connection.
    pub fn end(&self) {
        let mut slot = self.shared.lock();
        slot.target = None;
        let generation = self.shared.generation.fetch_add(1, Ordering::SeqCst) + 1;
        self.shared.wake.notify_all();
        while slot.acked < generation {
            slot = self
                .shared
                .wake
                .wait(slot)
                .expect("query client state lock poisoned");
        }
    }

    /// Everything measured since the last call, up to the last
    /// [`end`](Self::end).
    pub fn take(&self) -> QueryLog {
        std::mem::take(&mut self.shared.lock().log)
    }

    fn stop(&self) {
        self.shared.lock().stop = true;
        self.shared.generation.fetch_add(1, Ordering::SeqCst);
        self.shared.wake.notify_all();
    }
}

impl QueryLog {
    fn append(&mut self, mut other: QueryLog) {
        self.latency_us.append(&mut other.latency_us);
        self.late_ms.append(&mut other.late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

impl Drop for QueryClient {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.stop();
            let _ = thread.join();
        }
    }
}

fn client_loop(shared: &Shared, seed: u64) {
    let mut drawn = 0u64;
    let mut done = 0u64;
    let mut slot = shared.lock();
    loop {
        if slot.stop {
            return;
        }
        let generation = shared.generation.load(Ordering::SeqCst);
        match slot.target.clone() {
            Some(target) if generation != done => {
                drop(slot);
                let mut log = QueryLog::default();
                session(shared, &target, generation, seed, &mut drawn, &mut log);
                done = generation;
                slot = shared.lock();
                slot.log.append(log);
                slot.acked = generation;
                shared.wake.notify_all();
            }
            _ => {
                slot.acked = generation;
                shared.wake.notify_all();
                slot = shared
                    .wake
                    .wait(slot)
                    .expect("query client state lock poisoned");
            }
        }
    }
}

/// Queries one server until the generation moves on. `drawn` counts
/// the requests drawn so far, across sessions, so every request of a
/// run is a fresh draw from `seed`.
fn session(
    shared: &Shared,
    target: &Target,
    generation: u64,
    seed: u64,
    drawn: &mut u64,
    log: &mut QueryLog,
) {
    let period = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let addr = target.addr.to_string();
    let mut reader = target.plane.reader();
    // Connection set-up is not query latency: the server's accept loop
    // polls, so the first request on a fresh connection can wait a
    // poll interval. One untimed `/healthz` round trip absorbs it.
    let mut conn = BenchClient::connect(&addr)
        .and_then(|mut client| client.get("/healthz").map(|_| client))
        .ok();
    let t0 = Instant::now();
    for i in 0u32.. {
        let due = t0 + period * i;
        loop {
            if shared.generation.load(Ordering::SeqCst) != generation {
                return;
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep(due - now);
        }
        let path = pick(&mut reader, sub_seed(seed, *drawn));
        *drawn += 1;
        let sent = Instant::now();
        let outcome = match conn.as_mut() {
            Some(client) => client.get(&path),
            None => BenchClient::connect(&addr).and_then(|mut client| {
                let status = client.get(&path);
                conn = Some(client);
                status
            }),
        };
        let finished = Instant::now();
        log.attempted += 1;
        log.late_ms
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        log.latency_us
            .push(finished.saturating_duration_since(due).as_secs_f64() * 1e6);
        match outcome {
            Ok(200) => {}
            Ok(_) => log.failed += 1,
            Err(_) => {
                log.failed += 1;
                conn = None;
            }
        }
    }
}

/// Draws a request target from the current snapshot with `roll`.
///
/// The endpoints and their weights are those of
/// `serve::loadgen::workload_target`, restricted to the three that
/// query the tracker: `/track/<mac>` 40, `/track/<mac>?format=json` 10,
/// `/tiles?bbox=…` 10, with its 200 m box. The MAC is a device the
/// snapshot holds, and the box lies inside the campus. Before the
/// first fix is published, every request is a box.
fn pick(reader: &mut PlaneReader<TrackerSnapshot>, roll: u64) -> String {
    let snapshot = reader.current();
    let devices = snapshot.tracks.len() as u64;
    let endpoint = roll % 60;
    let draw = roll / 60;
    if devices > 0 && endpoint < 50 {
        let mac = snapshot
            .tracks
            .keys()
            .nth((draw % devices) as usize)
            .expect("index below the device count");
        if endpoint < 40 {
            return format!("/track/{mac}");
        }
        return format!("/track/{mac}?format=json");
    }
    let side = TILE_BOX_M as u64;
    let span = 2 * REGION_HALF_WIDTH_M as u64 - side + 1;
    let half = REGION_HALF_WIDTH_M as i64;
    let x0 = (draw % span) as i64 - half;
    let y0 = (draw / span % span) as i64 - half;
    format!(
        "/tiles?bbox={x0},{y0},{},{}",
        x0 + side as i64,
        y0 + side as i64
    )
}
