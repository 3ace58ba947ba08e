//! Spans around the calls the benchmark makes into each crate.
//!
//! Every point has a root span (`bench`/`point`, the point's wall time) and
//! one child span per call: `System::new` (`sim`/`new`), `program()`
//! (`isa`/`assemble`), `populate`, `run`, `report`, the recorder exports,
//! the checks, and dropping the system. All
//! spans of a point share its id. A child's self time is its duration (calls
//! are not nested); the root's self time is what the children leave
//! uncovered, i.e. the benchmark's own glue.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Largest share of a point's wall time its child spans may leave uncovered
/// before the span run is reported as failing its self-time check.
pub const SELF_TIME_TOLERANCE: f64 = 0.01;

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    /// Id of the point the span belongs to.
    point: usize,
    /// Crate the called function belongs to (`bench` for the root).
    layer: &'static str,
    /// The call, e.g. `new` for `System::new`.
    call: &'static str,
    /// Wall time of the call.
    wall: Duration,
    /// Whether this is the point's root span.
    root: bool,
}

/// Span recorder. When off, calls are still timed (the end-to-end metrics
/// need the durations) but nothing is kept.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    rows: Vec<Span>,
}

impl Spans {
    /// A recorder that keeps every span.
    pub fn recording() -> Spans {
        Spans {
            on: true,
            rows: Vec::new(),
        }
    }

    /// A recorder that keeps nothing.
    pub fn off() -> Spans {
        Spans::default()
    }

    /// Runs `f` as a child span of `point`, returning its result and wall
    /// time.
    pub fn time<T>(
        &mut self,
        point: usize,
        layer: &'static str,
        call: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed();
        if self.on {
            self.rows.push(Span {
                point,
                layer,
                call,
                wall,
                root: false,
            });
        }
        (out, wall)
    }

    /// Closes `point`'s root span.
    pub fn close_point(&mut self, point: usize, wall: Duration) {
        if self.on {
            self.rows.push(Span {
                point,
                layer: "bench",
                call: "point",
                wall,
                root: true,
            });
        }
    }

    /// Self seconds per `<layer>.<call>_s`, plus `bench.glue_s` for the
    /// roots.
    pub fn self_seconds(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let mut children: BTreeMap<usize, f64> = BTreeMap::new();
        for s in self.rows.iter().filter(|s| !s.root) {
            *out.entry(format!("{}.{}_s", s.layer, s.call)).or_default() += s.wall.as_secs_f64();
            *children.entry(s.point).or_default() += s.wall.as_secs_f64();
        }
        for s in self.rows.iter().filter(|s| s.root) {
            let covered = children.get(&s.point).copied().unwrap_or(0.0);
            *out.entry("bench.glue_s".to_string()).or_default() += s.wall.as_secs_f64() - covered;
        }
        out
    }

    /// The smallest share of a point's wall time covered by its child
    /// spans, over every point recorded (1.0 when none was).
    pub fn min_coverage(&self) -> f64 {
        let mut children: BTreeMap<usize, f64> = BTreeMap::new();
        for s in self.rows.iter().filter(|s| !s.root) {
            *children.entry(s.point).or_default() += s.wall.as_secs_f64();
        }
        self.rows
            .iter()
            .filter(|s| s.root && !s.wall.is_zero())
            .map(|s| children.get(&s.point).copied().unwrap_or(0.0) / s.wall.as_secs_f64())
            .fold(1.0, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_point_wall() {
        let mut spans = Spans::recording();
        let t0 = Instant::now();
        spans.time(0, "sim", "new", || std::hint::black_box(1 + 1));
        spans.time(0, "sim", "run", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        spans.close_point(0, t0.elapsed());
        let total: f64 = spans.self_seconds().values().sum();
        assert!((total - spans.rows[2].wall.as_secs_f64()).abs() < 1e-9);
        assert!(spans.min_coverage() > 1.0 - SELF_TIME_TOLERANCE);
    }

    #[test]
    fn an_untimed_gap_lowers_coverage() {
        let mut spans = Spans::recording();
        let t0 = Instant::now();
        spans.time(0, "sim", "run", || {
            std::thread::sleep(Duration::from_millis(1))
        });
        std::thread::sleep(Duration::from_millis(5));
        spans.close_point(0, t0.elapsed());
        assert!(spans.min_coverage() < 1.0 - SELF_TIME_TOLERANCE);
    }

    #[test]
    fn off_keeps_nothing_but_still_times() {
        let mut spans = Spans::off();
        let (_, wall) = spans.time(0, "sim", "run", || {
            std::thread::sleep(Duration::from_millis(1))
        });
        assert!(wall >= Duration::from_millis(1));
        assert!(spans.self_seconds().is_empty());
    }
}
