//! Order statistics over latency samples, and process memory.

use std::time::{Duration, Instant};

/// Nearest-rank quantile (`q` in `[0, 1]`) of an unsorted sample set;
/// 0 when empty. Sorts `samples` in place.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of an unsorted sample set; 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Latency samples grouped into one-second windows of wall-clock time.
/// A quantile is taken in every window and summarized by its median
/// across windows, so a burst of interference from outside the program
/// (another tenant, the hypervisor taking the CPU) that fills a few
/// windows moves it little; over the whole run, a burst of 1% of the
/// run's length alone could set the 99th percentile.
#[derive(Debug)]
pub struct Windowed {
    started: Instant,
    windows: Vec<Vec<f64>>,
    count: u64,
    sum: f64,
}

/// Window length.
const WINDOW: Duration = Duration::from_secs(1);
/// A window with fewer samples joins the one before it.
const MIN_WINDOW_SAMPLES: usize = 100;

impl Default for Windowed {
    fn default() -> Windowed {
        Windowed {
            started: Instant::now(),
            windows: vec![Vec::new()],
            count: 0,
            sum: 0.0,
        }
    }
}

impl Windowed {
    /// Adds one sample to the current window.
    pub fn push(&mut self, value: f64) {
        if self.started.elapsed() >= WINDOW {
            self.started = Instant::now();
            self.close_window();
            self.windows.push(Vec::new());
        }
        self.windows
            .last_mut()
            .expect("one open window")
            .push(value);
        self.count += 1;
        self.sum += value;
    }

    fn close_window(&mut self) {
        let n = self.windows.len();
        if n >= 2 && self.windows[n - 1].len() < MIN_WINDOW_SAMPLES {
            let small = self.windows.pop().expect("n >= 2");
            self.windows.last_mut().expect("n >= 2").extend(small);
        }
    }

    /// Samples pushed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of every sample; 0 when empty.
    pub fn mean(&self) -> f64 {
        ratio(self.sum, self.count as f64)
    }

    /// Median across windows of each window's nearest-rank `q` quantile.
    pub fn quantile(&mut self, q: f64) -> f64 {
        self.close_window();
        let mut per_window: Vec<f64> = self
            .windows
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| quantile(w, q))
            .collect();
        median(&mut per_window)
    }
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Resident memory of this process (`VmRSS`) in MB (10^6 bytes), read
/// after the allocator has returned its free pages to the system.
///
/// The trim is what makes the figure repeat: glibc keeps freed pages in
/// its heaps (one per thread that contended for one), so how much freed
/// memory stays resident depends on thread scheduling; untrimmed peak
/// sizes differed by up to a fifth between identical runs. What is left
/// is the memory live structures hold.
pub fn rss_mb() -> Result<f64, String> {
    // SAFETY: `malloc_trim` takes no pointers and only releases free
    // pages of the allocator's own heaps; glibc allows calling it from
    // any thread at any time.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
    Ok(vm_kb("VmRSS")? as f64 * 1024.0 / 1e6)
}

/// A `Vm*` field of `/proc/self/status` (`VmRSS`, `VmHWM`, ...), in kB.
pub fn vm_kb(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or(format!("no {field} line in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windows_take_the_median_of_window_quantiles() {
        let mut w = Windowed {
            windows: vec![
                vec![1.0; 200],
                vec![5.0; 200],
                vec![2.0; 200],
                vec![3.0; 10],
            ],
            count: 610,
            ..Windowed::default()
        };
        // The 10-sample window joins the one before it.
        assert_eq!(w.quantile(0.5), 2.0);
        assert_eq!(w.windows.len(), 3);
        w.push(4.0);
        assert_eq!(w.count(), 611);
    }
}
