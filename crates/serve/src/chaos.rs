//! The serving-layer chaos matrix: every client fault class from
//! `marauder-fault`, played against a live server, with the outcome of
//! every cell accounted for.
//!
//! The contract under test (`never panic, always a typed outcome`) has
//! three observable halves, and the matrix checks all of them:
//!
//! 1. **Wire** — each cell's [`Expectation`] is honoured: the exact
//!    4xx for malformed input, a quiet close for deserters.
//! 2. **Books** — server-side accounting is complete: the per-kind
//!    reject/disconnect counters (read back over `/metrics`) moved by
//!    exactly the number of cells of that kind. Nothing is silently
//!    swallowed; 100% of misbehaviour is classified.
//! 3. **Pulse** — the server still answers `/healthz` after the whole
//!    matrix, i.e. no worker death was load-bearing.
//!
//! Schedules come precomputed from [`client_schedule`] (pure in
//! `(kind, seed)`), so a failing cell names the exact bytes that broke
//! the server.

use crate::loadgen::BenchClient;
use crate::server::{start, ServeConfig};
use crate::state::{PublisherConfig, TrackerPublisher};
use crate::ServeError;
use marauder_fault::{client_schedule, ClientFaultKind, ClientSchedule, Expectation};
use marauder_obs::json::{self, Json, Layout, Writer};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chaos-matrix knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Base seed; cell `(kind, i)` uses `sub_seed(seed, i)`.
    pub seed: u64,
    /// Cells per fault kind.
    pub repeats_per_kind: usize,
    /// Server head deadline for the run — short, so slow-loris cells
    /// resolve in test time rather than operator time.
    pub head_timeout: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 42,
            repeats_per_kind: 8,
            head_timeout: Duration::from_millis(300),
        }
    }
}

/// What one cell observed on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellVerdict {
    /// The server honoured the schedule's expectation.
    Honoured,
    /// A response arrived with the wrong status.
    WrongStatus {
        /// Status the contract required.
        expected: u16,
        /// Status the server sent.
        got: u16,
    },
    /// A status was owed but the connection ended without one.
    NoResponse,
    /// The harness itself failed to run the cell (infrastructure, not
    /// a server verdict).
    Infra(String),
}

/// One executed cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosCell {
    /// Fault class.
    pub kind: ClientFaultKind,
    /// Seed index within the kind.
    pub index: usize,
    /// What happened.
    pub verdict: CellVerdict,
}

/// Per-kind server-side accounting: cells run vs. counter movement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindAccounting {
    /// Fault class.
    pub kind: ClientFaultKind,
    /// Cells the matrix ran.
    pub cells: u64,
    /// How far the kind's server counter moved across the run.
    pub counted: u64,
}

/// Everything one matrix run established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Every cell, in execution order.
    pub cells: Vec<ChaosCell>,
    /// Per-kind books.
    pub accounting: Vec<KindAccounting>,
    /// Whether `/healthz` answered 200 after the matrix.
    pub healthz_after: bool,
}

impl ChaosReport {
    /// Cells whose wire contract was not honoured.
    pub fn violations(&self) -> impl Iterator<Item = &ChaosCell> {
        self.cells
            .iter()
            .filter(|c| c.verdict != CellVerdict::Honoured)
    }

    /// The pass criterion: every contract honoured, every misbehaviour
    /// counted, and the server alive at the end.
    pub fn pass(&self) -> bool {
        self.violations().count() == 0
            && self.accounting.iter().all(|a| a.cells == a.counted)
            && self.healthz_after
    }

    /// Renders the `marauder-serve-chaos-v1` document.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.object(Layout::Block);
        w.key("schema").str("marauder-serve-chaos-v1");
        w.key("pass").bool(self.pass());
        w.key("healthz_after").bool(self.healthz_after);
        w.key("accounting").array(Layout::Block);
        for a in &self.accounting {
            w.object(Layout::Inline);
            w.key("kind").str(a.kind.key());
            w.key("cells").u64(a.cells);
            w.key("counted").u64(a.counted);
            w.end();
        }
        w.end();
        w.key("cells").array(Layout::Block);
        for c in &self.cells {
            let verdict = match &c.verdict {
                CellVerdict::Honoured => "honoured".to_string(),
                CellVerdict::WrongStatus { expected, got } => {
                    format!("wrong_status expected {expected} got {got}")
                }
                CellVerdict::NoResponse => "no_response".to_string(),
                CellVerdict::Infra(e) => format!("infra: {e}"),
            };
            w.object(Layout::Inline);
            w.key("kind").str(c.kind.key());
            w.key("index").u64(c.index as u64);
            w.key("verdict").str(&verdict);
            w.end();
        }
        w.end().end();
        w.finish()
    }
}

/// The server counter each kind's misbehaviour must land in.
fn counter_for(kind: ClientFaultKind) -> &'static str {
    match kind {
        ClientFaultKind::SlowLoris => "serve.reject.head_timeout",
        ClientFaultKind::MidRequestDisconnect => "serve.conns.mid_request_disconnects",
        ClientFaultKind::Garbage => "serve.reject.bad_request_line",
        ClientFaultKind::Oversized => "serve.reject.head_too_large",
    }
}

/// Plays one schedule against the server and reports what came back.
///
/// Between chunks the pause doubles as a response probe (a read with
/// `pause` as its timeout): eager rejections — the server answering
/// *before* the client finishes misbehaving — are captured instead of
/// racing the server's close.
fn run_cell(addr: &str, schedule: &ClientSchedule, response_deadline: Duration) -> CellVerdict {
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return CellVerdict::Infra(format!("connect: {e}")),
    };
    let mut stream = stream;
    let probe_timeout = schedule.pause.max(Duration::from_millis(5));
    if let Err(e) = stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(probe_timeout)))
    {
        return CellVerdict::Infra(format!("socket setup: {e}"));
    }

    let mut response: Vec<u8> = Vec::new();
    let mut peer_done = false;
    for (i, chunk) in schedule.chunks.iter().enumerate() {
        if stream.write_all(chunk).is_err() {
            // The server already closed on us — whatever it sent first
            // is (or is not) in flight; fall through to the read.
            break;
        }
        if i + 1 < schedule.chunks.len() {
            // Pause-as-probe: wait out the schedule's gap on the read
            // side and keep anything that arrives early.
            let mut buf = [0u8; 4096];
            match stream.read(&mut buf) {
                Ok(0) => {
                    peer_done = true;
                    break;
                }
                Ok(n) => {
                    response.extend_from_slice(&buf[..n]);
                    if response.windows(4).any(|w| w == b"\r\n\r\n") {
                        break;
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => {
                    peer_done = true;
                    break;
                }
            }
        }
    }

    match schedule.expect {
        Expectation::Dropped => {
            // Our half of the contract: leave. (The server's half —
            // counting the desertion — is checked via /metrics.)
            drop(stream);
            CellVerdict::Honoured
        }
        Expectation::Status(expected) => {
            let deadline = Instant::now() + response_deadline;
            while !response.windows(4).any(|w| w == b"\r\n\r\n") {
                if peer_done || Instant::now() > deadline {
                    return CellVerdict::NoResponse;
                }
                let mut buf = [0u8; 4096];
                match stream.read(&mut buf) {
                    Ok(0) => peer_done = true,
                    Ok(n) => response.extend_from_slice(&buf[..n]),
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(_) => peer_done = true,
                }
            }
            if !response.windows(4).any(|w| w == b"\r\n\r\n") {
                return CellVerdict::NoResponse;
            }
            let got = std::str::from_utf8(&response)
                .ok()
                .and_then(|head| head.split(' ').nth(1))
                .and_then(|s| s.parse::<u16>().ok());
            match got {
                Some(got) if got == expected => CellVerdict::Honoured,
                Some(got) => CellVerdict::WrongStatus { expected, got },
                None => CellVerdict::NoResponse,
            }
        }
    }
}

/// Boots a dedicated server and runs the full matrix against it.
///
/// # Errors
///
/// [`ServeError`] when the server cannot start or `/metrics` cannot be
/// read back — cell-level failures are verdicts, not errors.
pub fn run_chaos(config: &ChaosConfig) -> Result<ChaosReport, ServeError> {
    let (_publisher, plane) = TrackerPublisher::new(PublisherConfig::default());
    let mut server = start(
        "127.0.0.1:0",
        Arc::clone(&plane),
        ServeConfig {
            head_timeout: config.head_timeout,
            ..ServeConfig::default()
        },
    )?;
    let addr = server.addr().to_string();
    let fetch_metrics = |addr: &str| -> Result<Json, ServeError> {
        let body = BenchClient::connect(addr)?.get_body("/metrics")?;
        json::parse(&body).map_err(|e| ServeError::Chaos(format!("/metrics: {e}")))
    };
    // A counter that never ticked is absent from the export.
    let counter = |metrics: &Json, name: &str| {
        let value = metrics.get("counters").and_then(|c| c.get(name));
        value.and_then(Json::as_num).unwrap_or(0.0) as u64
    };
    let before = fetch_metrics(&addr)?;

    // Generously past the head deadline: the question is *whether* the
    // 408 arrives, the deadline test itself lives server-side.
    let response_deadline = config.head_timeout * 4 + Duration::from_secs(1);
    let mut cells = Vec::new();
    for kind in ClientFaultKind::ALL {
        for index in 0..config.repeats_per_kind {
            let seed = marauder_par::sub_seed(config.seed, index as u64);
            let schedule = client_schedule(kind, seed);
            let verdict = run_cell(&addr, &schedule, response_deadline);
            cells.push(ChaosCell {
                kind,
                index,
                verdict,
            });
        }
    }

    // Mid-request-disconnect bookkeeping is asynchronous to the cell
    // (the server notices the hangup on its next poll); give every
    // straggler one poll interval to land before reading the books.
    std::thread::sleep(Duration::from_millis(100));
    let after = fetch_metrics(&addr)?;
    let accounting = ClientFaultKind::ALL
        .iter()
        .map(|&kind| {
            let name = counter_for(kind);
            KindAccounting {
                kind,
                cells: config.repeats_per_kind as u64,
                counted: counter(&after, name).saturating_sub(counter(&before, name)),
            }
        })
        .collect();

    let healthz_after = BenchClient::connect(&addr)
        .and_then(|mut c| c.get("/healthz"))
        .map(|status| status == 200)
        .unwrap_or(false);
    server.shutdown();

    Ok(ChaosReport {
        cells,
        accounting,
        healthz_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_matrix_passes_against_a_live_server() {
        let report = run_chaos(&ChaosConfig {
            seed: 7,
            repeats_per_kind: 2,
            head_timeout: Duration::from_millis(200),
        })
        .expect("chaos harness ran");
        let violations: Vec<_> = report.violations().collect();
        assert!(
            report.pass(),
            "chaos contract violated: {violations:?} accounting {:?} healthz {}",
            report.accounting,
            report.healthz_after
        );
    }

    const GOLDEN_SERVE_CHAOS: &str = r#"{
  "schema": "marauder-serve-chaos-v1",
  "pass": false,
  "healthz_after": true,
  "accounting": [
    {"kind": "garbage", "cells": 4, "counted": 3}
  ],
  "cells": [
    {"kind": "garbage", "index": 0, "verdict": "honoured"},
    {"kind": "garbage", "index": 1, "verdict": "wrong_status expected 400 got 200"},
    {"kind": "garbage", "index": 2, "verdict": "no_response"},
    {"kind": "garbage", "index": 3, "verdict": "infra: q\"b\\s\u0001c\r"}
  ]
}
"#;

    #[test]
    fn golden_chaos_report_json() {
        let cell = |index, verdict| ChaosCell {
            kind: ClientFaultKind::Garbage,
            index,
            verdict,
        };
        let report = ChaosReport {
            cells: vec![
                cell(0, CellVerdict::Honoured),
                cell(
                    1,
                    CellVerdict::WrongStatus {
                        expected: 400,
                        got: 200,
                    },
                ),
                cell(2, CellVerdict::NoResponse),
                cell(3, CellVerdict::Infra("q\"b\\s\u{1}c\r".to_string())),
            ],
            accounting: vec![KindAccounting {
                kind: ClientFaultKind::Garbage,
                cells: 4,
                counted: 3,
            }],
            healthz_after: true,
        };
        let json = report.to_json();
        assert_eq!(json, GOLDEN_SERVE_CHAOS);
        // The verdict text survives a round trip, quote and all.
        let doc = json::parse(&json).expect("report parses");
        let cells = doc.get("cells").and_then(Json::as_arr).expect("cells");
        let verdict = cells[3].get("verdict").and_then(Json::as_str);
        assert_eq!(verdict, Some("infra: q\"b\\s\u{1}c\r"));
    }
}
