//! Sample summaries, the closed loop, host speed and process memory.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `values`; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples beyond it, i.e. the 11th-largest value, and which
/// percentile that is. With ten samples or fewer no percentile qualifies,
/// and the tail is the largest value.
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
}

pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let idx = if n > 10 { n - 11 } else { n - 1 };
    Tail {
        value: v[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
    }
}

/// What a closed loop did: one latency per successful op, plus counts.
#[derive(Default)]
pub struct LoopStats {
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wall: Duration,
}

impl LoopStats {
    /// Record one op: its measured time, or why it failed. Failures are
    /// printed (the first few) and counted, and give no latency sample.
    pub fn record(&mut self, workload: &str, result: Result<Duration, String>) {
        self.attempted += 1;
        match result {
            Ok(elapsed) => self.latencies_ms.push(elapsed.as_secs_f64() * 1e3),
            Err(msg) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("perfbench: {workload}: op {} failed: {msg}", self.attempted);
                }
            }
        }
    }

    /// Fold another client's loop into this one (same measured window).
    pub fn absorb(&mut self, other: LoopStats) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall = self.wall.max(other.wall);
    }

    pub fn ops_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall.as_secs_f64()
    }
}

/// Run `op` back to back until `seconds` have passed. `op` gets the op
/// index, times the part of its work that is the op (not its output
/// check), and returns that time or why the op failed.
pub fn closed_loop(
    workload: &str,
    seconds: f64,
    mut op: impl FnMut(usize) -> Result<Duration, String>,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        let result = op(i);
        stats.record(workload, result);
        i += 1;
    }
    stats.wall = start.elapsed();
    stats
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Time `f`, returning its result and the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Median time, in microseconds, of a fixed unit of integer work sampled a
/// few times: how fast the host ran at that moment, to tell a slow host
/// from a slow program. It measures nothing of the program.
pub fn host_calibration_us() -> f64 {
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15_u64);
            for _ in 0..1_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}
