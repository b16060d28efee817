//! What one benchmark process reports, and the statistics it is built
//! from.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Length of the sub-windows a measured window is cut into, seconds:
/// short enough that one burst of host CPU steal spoils few of them.
const WINDOW_S: f64 = 0.1;
/// Percentile of per-window host CPU steal at or below which a window
/// counts as quiet. Timings and rates are taken over the quiet windows
/// only: CPU the hypervisor gives to other tenants of a shared host
/// stalls every thread of the program at random, and is no property of
/// the program. Half the windows keep enough samples for a p99.
const QUIET: f64 = 50.0;

/// One process's result: named numbers, the request tally, and every
/// correctness failure seen.
#[derive(Default)]
pub struct Report {
    pub values: BTreeMap<String, f64>,
    pub notes: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        if !value.is_finite() {
            self.error(format!("{name} is not a number: {value}"));
        }
        self.values.insert(name.to_string(), value);
    }

    pub fn note(&mut self, name: &str, value: String) {
        self.notes.insert(name.to_string(), value);
    }

    pub fn error(&mut self, e: String) {
        if self.errors.len() < 20 {
            self.errors.push(e);
        }
    }

    /// Fail the run unless `a == b` (one reconciliation pair).
    pub fn reconcile(&mut self, what: &str, a: u64, b: u64) {
        if a != b {
            self.errors.push(format!("reconcile {what}: {a} != {b}"));
        }
    }

    /// Render as one JSON line.
    pub fn json(&self) -> String {
        let mut out = String::from("{\"values\":{");
        for (i, (k, v)) in self.values.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(out, "{}\"{k}\":{v:?}", if i > 0 { "," } else { "" });
        }
        out.push_str("},\"notes\":{");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\":{}", if i > 0 { "," } else { "" }, quote(v));
        }
        let _ = write!(
            out,
            "}},\"attempted\":{},\"failed\":{},\"errors\":[",
            self.attempted, self.failed
        );
        for (i, e) in self.errors.iter().enumerate() {
            let _ = write!(out, "{}{}", if i > 0 { "," } else { "" }, quote(e));
        }
        out.push_str("]}");
        out
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nearest-rank percentile of `values` (sorted in place), 0 when empty.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One measured request as the generator saw it.
pub struct Sample {
    /// When the reply arrived, seconds since the window opened.
    pub done_s: f64,
    /// Due-to-reply (open loop) or send-to-reply (closed loop), seconds.
    pub latency_s: f64,
    pub keys: u64,
    /// Answered, and equal to the oracle.
    pub ok: bool,
}

/// Fill the end-to-end metrics shared by every workload. `sent` counts
/// requests attempted, including any refused at the door (which have no
/// sample and miss every limit). `bounds` holds each window boundary's
/// time and the host's cumulative CPU steal there ([`StealSampler`]);
/// latencies and rates come from the samples answered in the quiet
/// windows, `ok_rate` and `slo_ok_rate` from the whole run.
pub fn end_to_end(
    rep: &mut Report,
    samples: &[Sample],
    sent: u64,
    slo_ms: f64,
    bounds: &[(f64, f64)],
) {
    let windows = bounds.len() - 1;
    let window_of = |s: &Sample| {
        bounds[1..windows]
            .partition_point(|&(t, _)| t <= s.done_s)
            .min(windows - 1)
    };
    let stolen: Vec<f64> = bounds.windows(2).map(|p| p[1].1 - p[0].1).collect();
    let mut sorted = stolen.clone();
    let cut = percentile(&mut sorted, QUIET);
    let quiet: Vec<bool> = stolen.iter().map(|&s| s <= cut).collect();
    rep.set(
        "host.quiet_windows",
        quiet.iter().filter(|&&q| q).count() as f64,
    );

    let mut lat: Vec<f64> = samples
        .iter()
        .filter(|s| quiet[window_of(s)])
        .map(|s| s.latency_s * 1e3)
        .collect();
    rep.set("latency_p50_ms", percentile(&mut lat, 50.0));
    rep.set("latency_p90_ms", percentile(&mut lat, 90.0));
    rep.set("latency_p99_ms", percentile(&mut lat, 99.0));

    let good = samples.iter().filter(|s| s.ok && quiet[window_of(s)]);
    let quiet_s: f64 = (0..windows)
        .filter(|&i| quiet[i])
        .map(|i| bounds[i + 1].0 - bounds[i].0)
        .sum();
    rep.set("throughput_rps", good.clone().count() as f64 / quiet_s);
    rep.set(
        "keys_per_s",
        good.map(|s| s.keys as f64).sum::<f64>() / quiet_s,
    );

    let ok = samples.iter().filter(|s| s.ok).count() as u64;
    let in_slo = samples
        .iter()
        .filter(|s| s.ok && s.latency_s * 1e3 <= slo_ms)
        .count() as u64;
    let denom = sent.max(1) as f64;
    rep.set("ok_rate", ok as f64 / denom);
    rep.set("slo_ok_rate", in_slo as f64 / denom);
    rep.attempted += sent;
    rep.failed += sent - ok;
}

/// Reads the time and the host's CPU steal at every window boundary of a
/// measured window, on a thread of its own.
pub struct StealSampler(std::thread::JoinHandle<Vec<(f64, f64)>>);

impl StealSampler {
    pub fn start(start: Instant, window_s: f64) -> Self {
        let windows = (window_s / WINDOW_S).ceil().max(1.0) as u32;
        let w = Duration::from_secs_f64(window_s / f64::from(windows));
        StealSampler(std::thread::spawn(move || {
            (0..=windows)
                .map(|i| {
                    sleep_until(start + w * i);
                    let steal = host_steal_s();
                    (start.elapsed().as_secs_f64(), steal)
                })
                .collect()
        }))
    }

    pub fn finish(self) -> Vec<(f64, f64)> {
        self.0.join().expect("steal sampler thread")
    }
}

/// CPU time the hypervisor took from this machine's CPUs so far
/// (`steal` in `/proc/stat`), seconds at the usual 100 ticks a second;
/// 0 where unavailable.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("cpu "))
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Resident set of this process now, MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// A kB field of `/proc/self/status` in MiB, 0 where unavailable.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Benchmark-side spans around calls into the program's layers, written
/// out beside the program's own trace when the run ends. Recording is a
/// no-op unless the run is traced.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<(&'static str, u32, f64, f64)>,
}

/// Most spans kept per run (the trace file stays a few MiB).
const MAX_SPANS: usize = 50_000;

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn record(&mut self, name: &'static str, thread: u32, t0: Instant, t1: Instant) {
        if self.enabled && self.spans.len() < MAX_SPANS {
            let start = us(t0.saturating_duration_since(self.epoch));
            self.spans.push((name, thread, start, us(t1 - t0)));
        }
    }

    pub fn absorb(&mut self, other: Spans) {
        for s in other.spans {
            if self.spans.len() < MAX_SPANS {
                self.spans.push(s);
            }
        }
    }

    /// Chrome trace events (`ph: X`), one process named "benchmark".
    pub fn chrome_events(&self, pid: usize) -> String {
        let mut out = format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"benchmark\"}}}}"
        );
        for (name, tid, ts, dur) in &self.spans {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{name}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{ts:.3},\"dur\":{dur:.3}}}"
            );
        }
        out
    }
}

/// Sleep until `due` (no-op when already past it).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}
