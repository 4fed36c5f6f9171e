//! Named atomic counters, gauges, and log₂-bucketed histograms behind a
//! registry with deterministic (sorted) snapshots.
//!
//! A [`Registry`] maps dotted names (`"timing.gates_retimed"`) to shared
//! instruments.  Lookup takes a short mutex on a `BTreeMap` and is meant
//! for construction time or per-event sites (once per pass / sweep /
//! job); the returned handles are `Arc`-backed and lock-free to update,
//! so hot loops hold a handle and touch only a relaxed atomic.
//!
//! The process-global registry ([`global`]) aggregates every layer's
//! counters into one [`Snapshot`]; components that need isolated tallies
//! (one serve `Engine` per test, say) build their own `Registry` and
//! merge snapshots at export time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::escape_string;

/// A monotonically increasing `u64` counter handle.
///
/// Cloning shares the underlying atomic; updates are relaxed (counters
/// order nothing, they only tally).
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not (yet) attached to any registry; useful as a field
    /// default.
    pub fn detached() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge handle (a level, not a tally): last-write-wins `set`,
/// plus relative `add`.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Moves the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count: one underflow bucket for zero plus one per power of two
/// up to `u64::MAX`.
const BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramInner {
    /// `buckets[0]` holds zeros; `buckets[i]` (i ≥ 1) holds values in
    /// `[2^(i-1), 2^i)`.
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramInner {
    fn new() -> Self {
        HistogramInner {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A log₂-bucketed histogram handle with percentile readout.
///
/// Values land in power-of-two buckets; a reported quantile linearly
/// interpolates within the bucket containing that rank (assuming the
/// bucket's observations spread evenly across its span), so it is never
/// above the bucket upper bound and tightens toward the true value as
/// buckets fill — the right fidelity for latency triage ("did p99
/// double?") at the cost of three relaxed atomics per record.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner::new()))
    }
}

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The largest value that lands in `buckets[idx]`.
fn bucket_upper_bound(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

/// The smallest value that lands in `buckets[idx]`.
fn bucket_lower_bound(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else {
        1u64 << (idx - 1)
    }
}

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn detached() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &self.0;
        inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The interpolated value at quantile `q` in `[0, 1]`; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }

    /// A point-in-time copy of the bucket array (consistent enough for
    /// reporting: buckets are read after count, both relaxed).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.0.count.load(Ordering::Relaxed);
        let sum = self.0.sum.load(Ordering::Relaxed);
        let mut buckets = [0u64; BUCKETS];
        for (slot, b) in buckets.iter_mut().zip(self.0.buckets.iter()) {
            *slot = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot { count, sum, buckets }
    }
}

/// A frozen histogram: counts per log₂ bucket plus totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count.
    pub count: u64,
    /// Observation sum.
    pub sum: u64,
    buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`, linearly interpolated within
    /// the log₂ bucket holding that rank (the bucket's observations are
    /// assumed evenly spread over its span, so rank `k` of `n` in-bucket
    /// observations maps to `lo + (k/n)·(hi − lo)`); 0 when empty.  The
    /// result never exceeds the bucket upper bound, and a full-rank hit
    /// (`k = n`) degrades to exactly that bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n > 0 && seen + n >= rank {
                let lo = bucket_lower_bound(idx) as f64;
                let hi = bucket_upper_bound(idx) as f64;
                let frac = (rank - seen) as f64 / n as f64;
                return lo + frac * (hi - lo);
            }
            seen += n;
        }
        bucket_upper_bound(BUCKETS - 1) as f64
    }

    /// Median (within-bucket interpolated).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile (within-bucket interpolated).
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile (within-bucket interpolated).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A named-instrument registry.  `Clone` shares the same instruments.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().unwrap();
        if let Some(c) = map.get(name) {
            return c.clone();
        }
        let c = Counter::default();
        map.insert(name.to_string(), c.clone());
        c
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().unwrap();
        if let Some(g) = map.get(name) {
            return g.clone();
        }
        let g = Gauge::default();
        map.insert(name.to_string(), g.clone());
        g
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.histograms.lock().unwrap();
        if let Some(h) = map.get(name) {
            return h.clone();
        }
        let h = Histogram::default();
        map.insert(name.to_string(), h.clone());
        h
    }

    /// A frozen, name-sorted copy of every instrument's current value.
    pub fn snapshot(&self) -> Snapshot {
        let counters =
            self.inner.counters.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let gauges =
            self.inner.gauges.lock().unwrap().iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Snapshot { counters, gauges, histograms }
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry every library layer tallies into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Shorthand: the global counter under `name` (lookup cost — hold the
/// handle instead inside hot loops).
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// A frozen registry state: sorted maps of instrument values, exportable
/// as JSON.
///
/// Counters and gauges of deterministic decision tallies are stable
/// across worker counts and reruns; histograms carry wall-clock data and
/// are *not* — exporters keep them in a separate JSON section so CI can
/// pin the deterministic part alone.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Folds `other` into `self`: counters/gauges/histogram buckets add.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            self.histograms
                .entry(k.clone())
                .and_modify(|h| h.merge(v))
                .or_insert_with(|| v.clone());
        }
    }

    fn write_histogram(out: &mut String, h: &HistogramSnapshot) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            h.count,
            h.sum,
            h.p50(),
            h.p90(),
            h.p99()
        );
    }

    /// Single-line JSON (`{"counters":{...},"gauges":{...},"histograms":{...}}`)
    /// for the serve line protocol.
    pub fn to_json_line(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", escape_string(k), v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", escape_string(k), v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, v)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:", escape_string(k));
            Snapshot::write_histogram(&mut out, v);
        }
        out.push_str("}}");
        out
    }

    /// Pretty JSON, 2-space indent, one instrument per line, sections in
    /// the fixed order counters → gauges → histograms.  The `counters`
    /// section is a pure function of the workload (no wall-clock data),
    /// which is what `ci.sh` extracts and diffs against
    /// `ci/expected_metrics_smoke.json`.
    pub fn to_json_pretty(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\n    {}: {}", escape_string(k), v);
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\n    {}: {}", escape_string(k), v);
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (k, v)) in self.histograms.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\n    {}: ", escape_string(k));
            Snapshot::write_histogram(&mut out, v);
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Prometheus text exposition (version 0.0.4) of the snapshot, for
    /// external scrapers via the serve `{"cmd":"prom"}` verb.  Dotted
    /// metric names are mangled to `rapids_<name_with_underscores>`;
    /// histograms render as summaries (interpolated quantiles + `_sum` +
    /// `_count`).  Lines come out name-sorted per section, so the text is
    /// deterministic for a deterministic snapshot.
    pub fn to_prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (k, v) in &self.counters {
            let name = prom_name(k);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (k, v) in &self.gauges {
            let name = prom_name(k);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (k, h) in &self.histograms {
            let name = prom_name(k);
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, v) in [("0.5", h.p50()), ("0.9", h.p90()), ("0.99", h.p99())] {
                let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

/// Mangles a dotted metric name into a Prometheus-legal one:
/// `serve.job_us` → `rapids_serve_job_us` (every character outside
/// `[A-Za-z0-9_]` becomes `_`).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("rapids_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_through_clones() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(r.counter("x").get(), 5);
        assert_eq!(r.counter("y").get(), 0, "fresh name starts at zero");
    }

    #[test]
    fn gauges_set_and_move() {
        let r = Registry::new();
        let g = r.gauge("level");
        g.set(10);
        g.add(-3);
        assert_eq!(r.gauge("level").get(), 7);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_percentiles_interpolate_within_the_bucket() {
        let h = Histogram::detached();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        // Rank 50 (true value 50) lands in bucket [32,63] as in-bucket rank
        // 19 of 32: 32 + 19/32·31 = 50.40625 — versus 63 pre-interpolation.
        assert_eq!(h.quantile(0.50), 32.0 + 19.0 / 32.0 * 31.0);
        // Ranks 90 and 99 land in bucket [64,127], which holds ranks 64..=100
        // (37 observations): 64 + k/37·63 for k = 27 and 36.
        assert_eq!(h.quantile(0.90), 64.0 + 27.0 / 37.0 * 63.0);
        assert_eq!(h.quantile(0.99), 64.0 + 36.0 / 37.0 * 63.0);
        // Interpolated quantiles bound the true rank value from above far
        // tighter than the old bucket upper bound (127 for both here).
        assert!(h.quantile(0.90) >= 90.0 && h.quantile(0.90) < 111.0);
        assert_eq!(Histogram::detached().quantile(0.99), 0.0, "empty histogram");
    }

    #[test]
    fn full_rank_interpolation_degrades_to_the_bucket_upper_bound() {
        // A single observation is in-bucket rank 1 of 1 (frac = 1), so the
        // quantile is exactly the bucket upper bound — the pre-interpolation
        // behavior, and why single-shot pins like `json_exports_are_well_formed`
        // are unchanged.
        let h = Histogram::detached();
        h.record(1000);
        assert_eq!(h.quantile(0.50), 1023.0);
        // Zeros stay exactly zero (degenerate bucket, lo == hi == 0).
        let z = Histogram::detached();
        z.record(0);
        assert_eq!(z.quantile(0.99), 0.0);
    }

    #[test]
    fn snapshot_is_sorted_and_merges_additively() {
        let r = Registry::new();
        r.counter("b.two").add(2);
        r.counter("a.one").inc();
        r.histogram("lat").record(5);
        let mut snap = r.snapshot();
        let names: Vec<&str> = snap.counters.keys().map(|s| s.as_str()).collect();
        assert_eq!(names, ["a.one", "b.two"], "BTreeMap keys come out sorted");

        let other = Registry::new();
        other.counter("b.two").add(3);
        other.counter("c.three").inc();
        other.histogram("lat").record(7);
        snap.merge(&other.snapshot());
        assert_eq!(snap.counters["b.two"], 5);
        assert_eq!(snap.counters["c.three"], 1);
        assert_eq!(snap.histograms["lat"].count, 2);
        assert_eq!(snap.histograms["lat"].sum, 12);
    }

    #[test]
    fn json_exports_are_well_formed() {
        let r = Registry::new();
        r.counter("serve.jobs").add(3);
        r.gauge("serve.depth").set(-1);
        r.histogram("serve.job_us").record(1000);
        let line = r.snapshot().to_json_line();
        assert_eq!(
            line,
            "{\"counters\":{\"serve.jobs\":3},\"gauges\":{\"serve.depth\":-1},\
             \"histograms\":{\"serve.job_us\":\
             {\"count\":1,\"sum\":1000,\"p50\":1023,\"p90\":1023,\"p99\":1023}}}"
        );
        let pretty = r.snapshot().to_json_pretty();
        assert!(pretty.contains("  \"counters\": {\n    \"serve.jobs\": 3\n  },"));
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn empty_snapshot_pretty_json_has_all_sections() {
        let pretty = Registry::new().snapshot().to_json_pretty();
        assert_eq!(pretty, "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}\n");
    }

    #[test]
    fn prometheus_exposition_renders_all_sections() {
        let r = Registry::new();
        r.counter("serve.jobs").add(3);
        r.gauge("serve.queue_depth").set(-1);
        r.histogram("serve.job_us").record(1000);
        let text = r.snapshot().to_prometheus_text();
        assert_eq!(
            text,
            "# TYPE rapids_serve_jobs counter\n\
             rapids_serve_jobs 3\n\
             # TYPE rapids_serve_queue_depth gauge\n\
             rapids_serve_queue_depth -1\n\
             # TYPE rapids_serve_job_us summary\n\
             rapids_serve_job_us{quantile=\"0.5\"} 1023\n\
             rapids_serve_job_us{quantile=\"0.9\"} 1023\n\
             rapids_serve_job_us{quantile=\"0.99\"} 1023\n\
             rapids_serve_job_us_sum 1000\n\
             rapids_serve_job_us_count 1\n"
        );
        assert_eq!(prom_name("a.b-c.d_e"), "rapids_a_b_c_d_e");
    }

    #[test]
    fn global_registry_is_one_instance() {
        let a = global().counter("obs.test.global_registry_is_one_instance");
        global().counter("obs.test.global_registry_is_one_instance").add(2);
        assert_eq!(a.get(), 2);
    }
}
