//! Small helpers: the seeded generator, sample statistics, process memory
//! and the result line.

use std::time::{Duration, Instant};

/// SplitMix64: every query parameter, stream order and key offset the
/// benchmark draws comes from one of these, seeded from `--seed`, so the
/// same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Nearest-rank percentile of an unsorted sample (`p` in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Reset the kernel's peak-RSS high-water mark to the current RSS, so the
/// peak read later is the engine's and not the input generator's or the
/// reference engine's. Returns false where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Hand freed heap memory back to the kernel. Set-up repetitions, the
/// generated inputs and the reference engine leave freed pages in the
/// allocator; without a trim, whether they stay resident varies from run to
/// run and the engine's peak RSS with it.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be called
        // at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set size since the last reset, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// The timed window is cut into this many equal parts. Each end-to-end
/// figure is computed per part and a run reports the median over the
/// parts, so a disturbance on a shared host that covers less than half of
/// the window does not move the result.
pub const PARTS: usize = 4;

/// Median of a sample (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Timestamped observations of one timed window; times are seconds since
/// the window began.
#[derive(Default)]
pub struct Window {
    pub seconds: f64,
    /// `(at, ms)` for every successful query or measured statement.
    pub latencies: Vec<(f64, f64)>,
    /// `(at, n)`: `n` operations completed successfully at `at`.
    pub done: Vec<(f64, u64)>,
    /// Peak RSS of each part, in MB.
    pub peak_rss_mb: Vec<f64>,
    /// Whether the kernel let the peak-RSS mark be reset.
    pub rss_reset: bool,
}

impl Window {
    pub fn new(seconds: f64) -> Window {
        Window {
            seconds,
            ..Window::default()
        }
    }

    fn part_len(&self) -> f64 {
        self.seconds / PARTS as f64
    }

    /// The part an event at `at` falls in; `None` after the window.
    fn part(&self, at: f64) -> Option<usize> {
        let i = (at / self.part_len()) as usize;
        (i < PARTS).then_some(i)
    }

    /// Append another client's observations.
    pub fn absorb(&mut self, other: Window) {
        self.latencies.extend(other.latencies);
        self.done.extend(other.done);
    }

    /// Median over parts of the operations completed per second.
    pub fn ops_per_s(&self) -> f64 {
        let mut per_part = [0u64; PARTS];
        for &(at, n) in &self.done {
            if let Some(i) = self.part(at) {
                per_part[i] += n;
            }
        }
        let rates: Vec<f64> = per_part
            .iter()
            .map(|&n| n as f64 / self.part_len())
            .collect();
        median(&rates)
    }

    fn latency_parts(&self) -> Vec<Vec<f64>> {
        let mut parts = vec![Vec::new(); PARTS];
        for &(at, ms) in &self.latencies {
            if let Some(i) = self.part(at) {
                parts[i].push(ms);
            }
        }
        parts
    }

    /// Median over parts of each part's `p`-th latency percentile.
    pub fn latency_ms(&self, p: f64) -> f64 {
        let per_part: Vec<f64> = self
            .latency_parts()
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| percentile(v, p))
            .collect();
        median(&per_part)
    }

    /// The fewest latency samples any part holds.
    pub fn min_part_samples(&self) -> usize {
        self.latency_parts().iter().map(Vec::len).min().unwrap_or(0)
    }
}

/// Record the peak RSS of each part of the window that began at `start`,
/// on the thread that started the clients, while they run. Freed heap
/// memory is handed back first and the mark reset, so the peaks are the
/// engine's, not the set-up's or the reference engine's.
pub fn watch_rss(window: &mut Window, start: Instant) {
    release_freed_memory();
    window.rss_reset = reset_peak_rss();
    for i in 1..=PARTS {
        let end = start + Duration::from_secs_f64(window.part_len() * i as f64);
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        window.peak_rss_mb.push(peak_rss_mb());
        reset_peak_rss();
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises, where that matters.
    pub samples: Option<usize>,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples: None,
    }
}

pub fn sampled(name: &str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples: Some(n),
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Print every metric by name with its unit (and sample count), then the
/// one-line JSON result the benchmark contract asks for.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        match m.samples {
            Some(n) => println!("  {:<34} {:>14.4} {:<6} (n={n})", m.name, m.value, m.unit),
            None => println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit),
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn window_figures_are_medians_over_parts() {
        let mut w = Window::new(4.0);
        // One op per part, except a burst of 9 in the last part.
        w.done = vec![(0.5, 1), (1.5, 1), (2.5, 1), (3.5, 9), (4.5, 100)];
        assert_eq!(w.ops_per_s(), 1.0);
        w.latencies = vec![(0.1, 1.0), (1.1, 2.0), (2.1, 3.0), (3.1, 50.0), (9.0, 99.0)];
        assert_eq!(w.latency_ms(50.0), 2.5);
        assert_eq!(w.min_part_samples(), 1);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(7, 2);
        let x: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(x, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(x, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
    }
}
