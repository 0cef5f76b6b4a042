//! Benchmark-side spans: one per timed call into a layer, held in
//! memory and written once at the end as a Chrome trace (loadable in
//! Perfetto). Nothing here reaches into the program; the spans wrap
//! the benchmark's own calls to public functions.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept per tracer; later ones are counted, not stored.
const SPAN_CAP: usize = 1_000_000;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call`, e.g. `synth.synthesize`.
    pub name: &'static str,
    /// Logical thread (0 is the driving thread, clients are 1-based).
    pub tid: u32,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A per-thread span recorder. Disabled tracers make no clock reads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    dropped: u64,
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A recorder for logical thread `tid`; `enabled = false` makes
    /// every method a pass-through.
    #[must_use]
    pub fn new(enabled: bool, epoch: Instant, tid: u32) -> Self {
        Self {
            enabled,
            epoch,
            tid,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A tracer for another thread of the same run.
    #[must_use]
    pub fn child(&self, tid: u32) -> Self {
        Self::new(self.enabled, self.epoch, tid)
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, recording it as a span named `name` when enabled.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now());
        out
    }

    /// Records an interval measured by the caller.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            tid: self.tid,
            start_ns: ns(start.saturating_duration_since(self.epoch)),
            dur_ns: ns(end.saturating_duration_since(start)),
        });
    }

    /// Folds another thread's spans into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        self.dropped += other.dropped;
        for s in other.spans {
            if self.spans.len() < SPAN_CAP {
                self.spans.push(s);
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Number of recorded spans named `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Summed duration of the spans named `name`, in nanoseconds.
    #[must_use]
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Mean duration of the spans named `name`, in nanoseconds (0 when
    /// there are none).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn mean_ns(&self, name: &str) -> f64 {
        let n = self.count(name);
        if n == 0 {
            0.0
        } else {
            self.total_ns(name) as f64 / n as f64
        }
    }

    /// Writes every span as a Chrome trace (`ph: "X"` complete events,
    /// microsecond timestamps, category = layer).
    ///
    /// # Errors
    ///
    /// I/O failures creating or writing the file.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            #[allow(clippy::cast_precision_loss)]
            let (ts, dur) = (s.start_ns as f64 / 1000.0, s.dur_ns as f64 / 1000.0);
            writeln!(
                out,
                "{}{{\"name\": \"{}\", \"cat\": \"{layer}\", \"ph\": \"X\", \"ts\": {ts}, \"dur\": {dur}, \"pid\": 1, \"tid\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.tid
            )?;
        }
        writeln!(
            out,
            "], \"otherData\": {{\"dropped_spans\": \"{}\"}}}}",
            self.dropped
        )?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_one_aggregates() {
        let epoch = Instant::now();
        let mut off = Tracer::new(false, epoch, 0);
        assert_eq!(off.time("a.b", || 7), 7);
        assert_eq!(off.count("a.b"), 0);
        let mut on = Tracer::new(true, epoch, 0);
        on.time("a.b", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let mut child = on.child(1);
        child.time("a.b", || ());
        on.absorb(child);
        assert_eq!(on.count("a.b"), 2);
        assert!(on.mean_ns("a.b") > 0.0);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.time("sim.run", || ());
        t.time("synth.synthesize", || ());
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.hdpbench/test-trace.json");
        t.write_chrome_trace(&path).unwrap();
        let doc = crate::json::Value::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        let events = doc
            .get("traceEvents")
            .and_then(crate::json::Value::as_arr)
            .unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("cat").and_then(crate::json::Value::as_str),
            Some("synth")
        );
    }
}
