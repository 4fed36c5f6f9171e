//! Fixed-capacity time series sampled from metric [`Snapshot`]s.
//!
//! A [`Sampler`] turns a sequence of registry snapshots into named series
//! held in ring buffers: each [`Sampler::tick`] derives, per instrument,
//!
//! * **counter deltas** — the per-interval increment of every counter
//!   (and of every histogram's observation count, as `<name>.count`), so
//!   a rate is just `delta / resolution`;
//! * **gauge levels** — the raw value (a gauge is already a level);
//! * **quantile tracks** — `<name>.p50` / `<name>.p99` of every
//!   histogram's *cumulative* distribution at that instant.
//!
//! The sampler is deliberately passive: it has no thread and no clock.
//! Callers drive time by calling `tick` — in production a wall-clock
//! thread (see `serve::telemetry`), in tests and CI smokes a **manual
//! tick** at chosen quiescent points, which is what makes every series
//! byte-reproducible: the same snapshot sequence yields the same points,
//! whatever the wall clock did.  Resolution is therefore the caller's
//! tick period, and retention is `resolution × capacity`.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Mutex;

use crate::json::{escape_string, number};
use crate::metrics::Snapshot;

/// Sampler knobs.
#[derive(Clone, Copy, Debug)]
pub struct SamplerConfig {
    /// Points retained per series; older points fall off the ring.
    pub capacity: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        // At the default 1 s production resolution: ~8.5 minutes of
        // history, a few KiB per series.
        SamplerConfig { capacity: 512 }
    }
}

/// One series' ring of `(tick, value)` points.
#[derive(Clone, Debug, Default)]
pub struct Series {
    points: VecDeque<(u64, f64)>,
}

impl Series {
    /// The most recent `last` points, oldest first (all of them when
    /// `last` is 0 or exceeds the retained count).
    pub fn window(&self, last: usize) -> Vec<(u64, f64)> {
        let n = self.points.len();
        let take = if last == 0 { n } else { last.min(n) };
        self.points.iter().skip(n - take).copied().collect()
    }
}

/// The derived values of one tick, section by section.
///
/// `counters` (deltas) and `gauges` (levels) are pure functions of the
/// workload when the underlying instruments are — byte-reproducible
/// across reruns and worker counts under the manual-tick contract.
/// `quantiles` carry wall-clock-derived data (latency percentiles) and
/// are *not*; exporters keep them in a separate section so pins can
/// strip them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TickSample {
    /// The tick index this sample was taken at (0-based, monotonic).
    pub tick: u64,
    /// Per-interval counter deltas (includes `<hist>.count` deltas).
    pub counters: Vec<(String, f64)>,
    /// Raw gauge levels.
    pub gauges: Vec<(String, f64)>,
    /// Histogram quantile tracks (`<hist>.p50`, `<hist>.p99`).
    pub quantiles: Vec<(String, f64)>,
}

impl TickSample {
    /// All `(name, value)` pairs of this tick, in section order — the
    /// stream change detectors consume.
    pub fn points(&self) -> impl Iterator<Item = (&str, f64)> {
        self.counters
            .iter()
            .chain(self.gauges.iter())
            .chain(self.quantiles.iter())
            .map(|(k, v)| (k.as_str(), *v))
    }
}

struct State {
    ticks: u64,
    last: Snapshot,
    series: BTreeMap<String, Series>,
}

/// Snapshots a [`Registry`](crate::Registry)'s state into named ring
/// buffers, one [`tick`](Sampler::tick) at a time.
pub struct Sampler {
    capacity: usize,
    state: Mutex<State>,
}

impl Sampler {
    /// An empty sampler; the first tick establishes the delta baseline.
    pub fn new(config: SamplerConfig) -> Self {
        Sampler {
            capacity: config.capacity.max(1),
            state: Mutex::new(State {
                ticks: 0,
                last: Snapshot::default(),
                series: BTreeMap::new(),
            }),
        }
    }

    /// Ingests one snapshot: derives deltas/levels/quantiles against the
    /// previous tick, appends every point to its ring, and returns the
    /// tick's values (for detectors and journals).
    pub fn tick(&self, snapshot: &Snapshot) -> TickSample {
        let mut state = self.state.lock().unwrap();
        let tick = state.ticks;
        state.ticks += 1;

        let mut sample = TickSample { tick, ..TickSample::default() };
        for (k, &v) in &snapshot.counters {
            let prev = state.last.counters.get(k).copied().unwrap_or(0);
            sample.counters.push((k.clone(), v.saturating_sub(prev) as f64));
        }
        for (k, &v) in &snapshot.gauges {
            sample.gauges.push((k.clone(), v as f64));
        }
        for (k, h) in &snapshot.histograms {
            let prev = state.last.histograms.get(k).map(|p| p.count).unwrap_or(0);
            sample.counters.push((format!("{k}.count"), h.count.saturating_sub(prev) as f64));
            sample.quantiles.push((format!("{k}.p50"), h.p50()));
            sample.quantiles.push((format!("{k}.p99"), h.p99()));
        }
        // Keep the counters section name-sorted even with the appended
        // `<hist>.count` names, so exports are deterministic.
        sample.counters.sort_by(|a, b| a.0.cmp(&b.0));

        for (name, value) in sample.points() {
            let series = state.series.entry(name.to_string()).or_default();
            if series.points.len() == self.capacity {
                series.points.pop_front();
            }
            series.points.push_back((tick, value));
        }
        state.last = snapshot.clone();
        sample
    }

    /// Establishes the delta baseline without taking a tick: no points
    /// are recorded, but the next [`tick`](Sampler::tick) reports
    /// per-interval increments rather than lifetime absolutes.  Call once
    /// at arm time when the registry has already been accumulating.
    pub fn prime(&self, snapshot: &Snapshot) {
        self.state.lock().unwrap().last = snapshot.clone();
    }

    /// Ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.state.lock().unwrap().ticks
    }

    /// Every series name currently tracked, sorted.
    pub fn names(&self) -> Vec<String> {
        self.state.lock().unwrap().series.keys().cloned().collect()
    }

    /// The most recent `last` points of `name` (0 = all retained);
    /// `None` for an unknown series.
    pub fn window(&self, name: &str, last: usize) -> Option<Vec<(u64, f64)>> {
        self.state.lock().unwrap().series.get(name).map(|s| s.window(last))
    }

    /// The `window` rendered as a protocol reply line:
    /// `{"ok":"series","name":…,"points":[[tick,value],…]}`.
    pub fn window_json(&self, name: &str, last: usize) -> Option<String> {
        use std::fmt::Write as _;
        let points = self.window(name, last)?;
        let mut out = format!("{{\"ok\":\"series\",\"name\":{},\"points\":[", escape_string(name));
        for (i, (tick, value)) in points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{tick},{}]", number(*value));
        }
        out.push_str("]}");
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn counter_deltas_gauge_levels_and_quantile_tracks() {
        let r = Registry::new();
        let sampler = Sampler::new(SamplerConfig::default());
        r.counter("jobs").add(3);
        r.gauge("depth").set(7);
        r.histogram("lat").record(1000);

        let s0 = sampler.tick(&r.snapshot());
        assert_eq!(s0.tick, 0);
        assert_eq!(s0.counters, vec![("jobs".into(), 3.0), ("lat.count".into(), 1.0)]);
        assert_eq!(s0.gauges, vec![("depth".into(), 7.0)]);
        assert_eq!(s0.quantiles, vec![("lat.p50".into(), 1023.0), ("lat.p99".into(), 1023.0)]);

        r.counter("jobs").add(2);
        r.gauge("depth").set(-1);
        let s1 = sampler.tick(&r.snapshot());
        assert_eq!(s1.tick, 1);
        assert_eq!(s1.counters, vec![("jobs".into(), 2.0), ("lat.count".into(), 0.0)]);
        assert_eq!(s1.gauges, vec![("depth".into(), -1.0)]);

        assert_eq!(sampler.window("jobs", 0).unwrap(), vec![(0, 3.0), (1, 2.0)]);
        assert_eq!(sampler.window("jobs", 1).unwrap(), vec![(1, 2.0)]);
        assert_eq!(sampler.window("nope", 1), None);
        assert_eq!(
            sampler.names(),
            ["depth", "jobs", "lat.count", "lat.p50", "lat.p99"].map(String::from).to_vec()
        );
    }

    #[test]
    fn priming_turns_the_first_tick_into_a_delta() {
        let r = Registry::new();
        r.counter("jobs").add(1000); // pre-arm history
        let sampler = Sampler::new(SamplerConfig::default());
        sampler.prime(&r.snapshot());
        assert_eq!(sampler.ticks(), 0, "priming is not a tick");
        r.counter("jobs").add(2);
        let s0 = sampler.tick(&r.snapshot());
        assert_eq!(s0.counters, vec![("jobs".into(), 2.0)], "delta, not the lifetime absolute");
        assert_eq!(sampler.window("jobs", 0).unwrap(), vec![(0, 2.0)]);
    }

    #[test]
    fn ring_evicts_oldest_points_at_capacity() {
        let r = Registry::new();
        let sampler = Sampler::new(SamplerConfig { capacity: 3 });
        for i in 0..5u64 {
            r.counter("c").add(i + 1);
            sampler.tick(&r.snapshot());
        }
        assert_eq!(sampler.ticks(), 5);
        assert_eq!(sampler.window("c", 0).unwrap(), vec![(2, 3.0), (3, 4.0), (4, 5.0)]);
    }

    #[test]
    fn window_json_is_a_protocol_line() {
        let r = Registry::new();
        let sampler = Sampler::new(SamplerConfig::default());
        r.counter("jobs").add(2);
        sampler.tick(&r.snapshot());
        sampler.tick(&r.snapshot());
        assert_eq!(
            sampler.window_json("jobs", 0).unwrap(),
            "{\"ok\":\"series\",\"name\":\"jobs\",\"points\":[[0,2],[1,0]]}"
        );
        assert_eq!(sampler.window_json("nope", 0), None);
    }

    #[test]
    fn same_snapshot_sequence_yields_identical_series() {
        let run = || {
            let r = Registry::new();
            let sampler = Sampler::new(SamplerConfig::default());
            let mut lines = Vec::new();
            for i in 0..4u64 {
                r.counter("a").add(i);
                r.gauge("g").set(i as i64 * 3 - 1);
                r.histogram("h").record(i * 100);
                sampler.tick(&r.snapshot());
            }
            for name in sampler.names() {
                lines.push(sampler.window_json(&name, 0).unwrap());
            }
            lines
        };
        assert_eq!(run(), run(), "manual ticks are byte-reproducible");
    }
}
