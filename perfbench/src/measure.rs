//! Measurement plumbing shared by every workload: sample statistics, the
//! span recorder of the traced run, the process memory reading, and the
//! one-line JSON result.

use std::fmt::Write as _;
use std::time::Instant;

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Peak resident set size of process `pid` (`"self"` for this one), in
/// MiB, from the `VmHWM` line of `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM line in {path}"))?;
    Ok(kb / 1024.0)
}

// ===================================================================
// Spans
// ===================================================================

/// No parent: a root span.
const ROOT: u32 = u32::MAX;

/// One recorded interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

/// In-memory span recorder. Disabled (every call a no-op) outside the
/// traced run, so the untraced run pays nothing for it.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn parent(&self) -> u32 {
        self.open.last().copied().unwrap_or(ROOT)
    }

    /// Open a span; later spans nest under it until [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.parent(),
        });
        self.open.push(self.spans.len() as u32 - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("end() matches a begin()");
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Record a finished leaf span under the innermost open span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant) {
        let parent = self.parent();
        self.record(name, start, end, parent);
    }

    /// Record a finished span with an explicit parent (a span id from an
    /// earlier `record`, or `None` for a root); returns its id.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
    ) -> u32 {
        self.record(name, start, end, parent.unwrap_or(ROOT))
    }

    fn record(&mut self, name: &'static str, start: Instant, end: Instant, parent: u32) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        };
        self.spans.push(span);
        self.spans.len() as u32 - 1
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Summed duration in seconds of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Per span name: (count, total seconds, self seconds), where a
    /// span's self time is its duration minus its children's.
    fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur as f64 * 1e-9;
                    r.3 += own as f64 * 1e-9;
                }
                None => rows.push((s.name, 1, dur as f64 * 1e-9, own as f64 * 1e-9)),
            }
        }
        rows
    }

    /// Write every span (`id,parent,name,start_ns,end_ns`, parent -1 for
    /// roots) followed by a per-name self-time summary to `path`.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        let mut out = String::from("# spans: id,parent,name,start_ns,end_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(out, "{i},{parent},{},{},{}", s.name, s.start_ns, s.end_ns);
        }
        out.push_str("# summary: name,count,total_s,self_s\n");
        for (name, n, total, own) in self.summary() {
            let _ = writeln!(out, "{name},{n},{total},{own}");
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

// ===================================================================
// Result line
// ===================================================================

/// What one benchmark run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, runs, requests, checks).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Count one operation; `ok == false` marks it failed.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Add a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The single JSON result line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.begin("outer");
        let a = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.leaf("inner", a, Instant::now());
        t.end();
        let outer = t.total("outer");
        let inner = t.total("inner");
        assert!(inner > 0.0 && outer >= inner);
        let own = t.summary().iter().find(|r| r.0 == "outer").map(|r| r.3);
        assert!((own.expect("outer summarised") - (outer - inner)).abs() < 1e-6);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(true, "x");
        o.metric("wall_s", 1.5, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
