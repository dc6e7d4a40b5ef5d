//! Wall-clock + peak-memory measurement of one computation.

use crate::peak_alloc::GLOBAL;
use std::time::{Duration, Instant};

/// One measured run.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Peak live heap bytes during the run (0 when the counting allocator
    /// is not installed in this binary).
    pub peak_bytes: usize,
    /// Whether the time was extrapolated from a prefix rather than fully
    /// measured — rendered as `est.` like the paper's `*` footnote.
    pub estimated: bool,
}

impl Measurement {
    /// Runtime in minutes — the unit the paper's tables use.
    pub fn minutes(&self) -> f64 {
        self.elapsed.as_secs_f64() / 60.0
    }

    /// Peak memory in MB (decimal, like the paper).
    pub fn memory_mb(&self) -> f64 {
        self.peak_bytes as f64 / 1.0e6
    }

    /// Scale the runtime by `factor` and mark the result as estimated.
    pub fn extrapolated(self, factor: f64) -> Measurement {
        Measurement {
            elapsed: Duration::from_secs_f64(self.elapsed.as_secs_f64() * factor),
            peak_bytes: self.peak_bytes,
            estimated: true,
        }
    }

    /// `"12.34"` or `"12.34 est."` for table cells.
    pub fn format_minutes(&self) -> String {
        if self.estimated {
            format!("{:.3} est.", self.minutes())
        } else {
            format!("{:.3}", self.minutes())
        }
    }
}

/// Run `f`, measuring wall time and peak heap. The peak counter is reset
/// first, so the figure is "memory this phase needed on top of what was
/// already live" — the closest analogue of the paper's per-job maximum
/// resident memory.
pub fn measured<T>(f: impl FnOnce() -> T) -> (T, Measurement) {
    GLOBAL.reset_peak();
    let base = GLOBAL.current_bytes();
    let start = Instant::now();
    let value = f();
    let elapsed = start.elapsed();
    let peak = GLOBAL.peak_bytes().saturating_sub(base);
    (
        value,
        Measurement {
            elapsed,
            peak_bytes: peak,
            estimated: false,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_time() {
        let (v, m) = measured(|| {
            std::thread::sleep(Duration::from_millis(20));
            7
        });
        assert_eq!(v, 7);
        assert!(m.elapsed >= Duration::from_millis(19));
        assert!(!m.estimated);
    }

    #[test]
    fn extrapolation_scales_and_marks() {
        let m = Measurement {
            elapsed: Duration::from_secs(60),
            peak_bytes: 1_000_000,
            estimated: false,
        };
        let e = m.extrapolated(10.0);
        assert!((e.minutes() - 10.0).abs() < 1e-9);
        assert!(e.estimated);
        assert!(e.format_minutes().ends_with("est."));
        assert!((m.memory_mb() - 1.0).abs() < 1e-12);
    }
}
