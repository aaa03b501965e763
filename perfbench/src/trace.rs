//! The per-layer ledger: spans recorded around each public call the
//! benchmark makes into a layer.
//!
//! Spans are flat children of one *unit*: a capture-log line on the
//! direct and journal routes, one node step or one received message on
//! the fleet route. Every span of a unit carries the unit's id. Busy
//! time and call counts are summed for every span; the raw spans of the
//! first [`MAX_RAW_SPANS`] are kept in memory and written out as TSV
//! when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The layers the benchmark times, in ledger order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Parse,
    Node,
    Decode,
    Aggregator,
    Append,
    Checkpoint,
    Push,
    Close,
    Publish,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Parse,
        Layer::Node,
        Layer::Decode,
        Layer::Aggregator,
        Layer::Append,
        Layer::Checkpoint,
        Layer::Push,
        Layer::Close,
        Layer::Publish,
    ];

    /// The span name, which is also the metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Parse => "wifi.parse",
            Layer::Node => "net.node",
            Layer::Decode => "net.decode",
            Layer::Aggregator => "net.aggregator",
            Layer::Append => "journal.append",
            Layer::Checkpoint => "journal.checkpoint",
            Layer::Push => "stream.push",
            Layer::Close => "stream.close",
            Layer::Publish => "serve.publish",
        }
    }
}

/// Raw spans kept per traced pass; busy totals cover every span.
pub const MAX_RAW_SPANS: usize = 200_000;

struct RawSpan {
    unit: u64,
    layer: Layer,
    start_ns: u64,
    dur_ns: u64,
}

/// Span sink for one pass. A disabled ledger records nothing and
/// costs one branch per call site.
pub struct Ledger {
    origin: Option<Instant>,
    busy_ns: [u64; Layer::ALL.len()],
    raw: Vec<RawSpan>,
}

impl Ledger {
    pub fn new(enabled: bool) -> Ledger {
        Ledger {
            origin: enabled.then(Instant::now),
            busy_ns: [0; Layer::ALL.len()],
            raw: Vec::new(),
        }
    }

    /// Opens a span: the start instant when tracing, else nothing.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.origin.map(|_| Instant::now())
    }

    /// Closes a span opened by [`start`](Self::start) under `layer`.
    #[inline]
    pub fn record(&mut self, layer: Layer, unit: u64, start: Option<Instant>) {
        let (Some(origin), Some(start)) = (self.origin, start) else {
            return;
        };
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.busy_ns[layer as usize] += dur_ns;
        if self.raw.len() < MAX_RAW_SPANS {
            self.raw.push(RawSpan {
                unit,
                layer,
                start_ns: start.duration_since(origin).as_nanos() as u64,
                dur_ns,
            });
        }
    }

    /// Summed span time of `layer`, seconds.
    pub fn busy_s(&self, layer: Layer) -> f64 {
        self.busy_ns[layer as usize] as f64 / 1e9
    }

    /// Writes the raw spans as `unit  span  start_ns  dur_ns` rows.
    ///
    /// # Errors
    ///
    /// File-system failures.
    pub fn write_tsv(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("unit\tspan\tstart_ns\tdur_ns\n");
        for s in &self.raw {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}",
                s.unit,
                s.layer.name(),
                s.start_ns,
                s.dur_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }
}
