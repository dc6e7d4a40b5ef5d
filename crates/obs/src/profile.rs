//! A phase-timing profiler backing the CLI `--profile` flag.
//!
//! A [`Profiler`] splits a command's wall time into named sequential
//! phases (`parse`, `build`, `freeze`, `query`, …). When disabled it is a
//! no-op so call sites need no `if` guards; when enabled, [`Profiler::render`]
//! produces an aligned table of per-phase durations and shares, suitable
//! for stderr.

use std::fmt::Write as _;
use std::time::Instant;

/// Sequential phase timer. See the module docs.
#[derive(Debug)]
pub struct Profiler {
    enabled: bool,
    phases: Vec<(&'static str, u64)>,
    current: Option<(&'static str, Instant)>,
}

impl Profiler {
    /// A profiler that records (`enabled = true`) or ignores everything.
    pub fn new(enabled: bool) -> Self {
        Profiler {
            enabled,
            phases: Vec::new(),
            current: None,
        }
    }

    /// Whether this profiler records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn close_current(&mut self) {
        if let Some((name, start)) = self.current.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            // Re-entering a phase accumulates into it.
            if let Some(slot) = self.phases.iter_mut().find(|(n, _)| *n == name) {
                slot.1 += ns;
            } else {
                self.phases.push((name, ns));
            }
        }
    }

    /// End the current phase (if any) and start `name`.
    pub fn phase(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        self.close_current();
        self.current = Some((name, Instant::now()));
    }

    /// Move `ns` of the current phase's time so far into phase `name`: for
    /// a phase whose parts are timed inside it, such as the build's
    /// record reading within its wall time.
    pub fn carve(&mut self, name: &'static str, ns: u64) {
        if !self.enabled {
            return;
        }
        if let Some((_, start)) = &mut self.current {
            *start += std::time::Duration::from_nanos(ns);
        }
        match self.phases.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 += ns,
            None => self.phases.push((name, ns)),
        }
    }

    /// End the current phase without starting another (e.g. before waiting
    /// on user-visible output that should not be attributed to a phase).
    pub fn end_phase(&mut self) {
        if self.enabled {
            self.close_current();
        }
    }

    /// Close any open phase and render the table, one line per phase plus a
    /// total, each prefixed with `profile:`. Empty string when disabled or
    /// nothing was recorded.
    pub fn render(&mut self) -> String {
        if !self.enabled {
            return String::new();
        }
        self.close_current();
        if self.phases.is_empty() {
            return String::new();
        }
        let total: u64 = self.phases.iter().map(|(_, ns)| ns).sum();
        let width = self
            .phases
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0)
            .max("total".len());
        let mut out = String::new();
        for (name, ns) in &self.phases {
            let share = if total == 0 {
                0.0
            } else {
                *ns as f64 / total as f64 * 100.0
            };
            let _ = writeln!(
                out,
                "profile: {name:width$}  {:>10}  {share:5.1}%",
                crate::expose::fmt_ns(*ns as f64)
            );
        }
        let _ = writeln!(
            out,
            "profile: {:width$}  {:>10}  100.0%",
            "total",
            crate::expose::fmt_ns(total as f64)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_renders_nothing() {
        let mut p = Profiler::new(false);
        p.phase("parse");
        p.phase("build");
        assert!(!p.enabled());
        assert_eq!(p.render(), "");
    }

    #[test]
    fn phases_accumulate_and_render() {
        let mut p = Profiler::new(true);
        p.phase("parse");
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.phase("build");
        std::thread::sleep(std::time::Duration::from_millis(1));
        p.phase("parse"); // re-entry accumulates
        p.end_phase();
        let table = p.render();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3, "parse, build, total: {table}");
        assert!(lines.iter().all(|l| l.starts_with("profile: ")));
        assert!(table.contains("parse"));
        assert!(table.contains("build"));
        assert!(lines[2].contains("total"));
        assert!(lines[2].contains("100.0%"));
    }

    #[test]
    fn carved_time_moves_out_of_the_current_phase() {
        let mut p = Profiler::new(true);
        p.phase("fold");
        std::thread::sleep(std::time::Duration::from_millis(4));
        p.carve("ingest", 3_000_000);
        p.end_phase();
        let ns = |name| p.phases.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(ns("ingest"), 3_000_000);
        // The two still add up to the wall time.
        assert!(ns("fold") >= 1_000_000, "{:?}", p.phases);
        assert_eq!(p.phases[0].0, "ingest", "the carved phase is listed first");
    }

    #[test]
    fn empty_enabled_profiler_renders_nothing() {
        let mut p = Profiler::new(true);
        assert_eq!(p.render(), "");
    }
}
