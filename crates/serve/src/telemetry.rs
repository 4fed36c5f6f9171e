//! The serve-tier telemetry plane: periodic sampling of the engine's
//! merged metrics into time series, online change detection over those
//! series, SLO burn tracking, and a crash-safe JSONL journal.
//!
//! A [`TelemetryPlane`] owns an [`rapids_obs::Sampler`] plus the armed
//! [`Cusum`] detectors and [`SloTracker`]s.  Every call to
//! [`TelemetryPlane::tick_now`] snapshots the process-global registry
//! merged with the engine's per-instance registry (the same view
//! `{"cmd":"metrics"}` answers), derives one tick of series points, feeds
//! every detector, and appends one checksummed line to the journal (when
//! one is attached).
//!
//! **Manual-tick contract** (`docs/observability.md`): the plane has no
//! clock of its own.  In manual mode (`--telemetry-s 0`, and every test
//! and CI smoke) the serve layer ticks it at quiescent points — after a
//! job finishes, before its report is handed on — so the tick sequence,
//! and with it every series point and alert, is a pure function of the
//! workload.  In production (`--telemetry-s N`, N > 0) a
//! [`WallClockSampler`] thread ticks it every N seconds instead; nothing
//! else changes.
//!
//! The journal is the crate's one crash-safe log, [`Journal`], which the
//! result store is built on too: this module only renders each tick's
//! fields and appends them as one checksummed line.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use rapids_obs::json::{escape_string, number};
use rapids_obs::{Alert, Cusum, CusumConfig, Sampler, SamplerConfig, SloConfig, SloTracker};
use rapids_obs::{Registry, TickSample};

use crate::journal::Journal;
use crate::timer::Timer;

/// Most recent alerts retained for the `{"cmd":"alerts"}` verb; older
/// ones fall off (the journal keeps the full history).
const MAX_RETAINED_ALERTS: usize = 256;

/// Everything needed to arm a [`TelemetryPlane`].
#[derive(Debug, Default)]
pub struct TelemetryConfig {
    /// Series ring capacity (points per series).
    pub sampler: SamplerConfig,
    /// `true` = the serve layer ticks the plane at quiescent points;
    /// `false` = a [`WallClockSampler`] thread does, on its period.
    pub manual: bool,
    /// CUSUM detectors to attach, by series name.
    pub cusum: Vec<CusumConfig>,
    /// SLOs to track, each over a pair of counter-delta series.
    pub slos: Vec<SloConfig>,
}

/// The armed telemetry plane (see the module docs).
pub struct TelemetryPlane {
    /// The engine's per-instance registry; [`tick_now`](Self::tick_now)
    /// merges it over the process-global one, matching
    /// `Engine::metrics_snapshot`.
    registry: Registry,
    manual: bool,
    sampler: Sampler,
    detectors: Mutex<Vec<Cusum>>,
    slos: Mutex<Vec<SloTracker>>,
    alerts: Mutex<std::collections::VecDeque<Alert>>,
    journal: Option<Journal>,
}

impl std::fmt::Debug for TelemetryPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryPlane")
            .field("manual", &self.manual)
            .field("ticks", &self.sampler.ticks())
            .finish_non_exhaustive()
    }
}

impl TelemetryPlane {
    /// Arms a plane over `registry` (the engine's per-instance registry;
    /// pass `Engine::metrics_registry()`).
    pub fn new(registry: Registry, config: TelemetryConfig) -> Self {
        TelemetryPlane {
            registry,
            manual: config.manual,
            sampler: Sampler::new(config.sampler),
            detectors: Mutex::new(config.cusum.into_iter().map(Cusum::new).collect()),
            slos: Mutex::new(config.slos.into_iter().map(SloTracker::new).collect()),
            alerts: Mutex::new(std::collections::VecDeque::new()),
            journal: None,
        }
    }

    /// Attaches a crash-safe JSONL journal (`--telemetry-out`): every
    /// tick appends one checksummed line.
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Whether the serve layer should tick this plane at quiescent
    /// points (manual mode) instead of a wall-clock thread.
    pub fn is_manual(&self) -> bool {
        self.manual
    }

    /// Ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.sampler.ticks()
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Establishes the sampler's delta baseline from the current merged
    /// registry state without taking a tick — no points, no detector
    /// feed, no journal line.  Call once at arm time so the first real
    /// tick reports per-interval increments rather than the lifetime
    /// absolutes the registry accumulated before telemetry was armed.
    pub fn prime(&self) {
        let mut snapshot = rapids_obs::global().snapshot();
        snapshot.merge(&self.registry.snapshot());
        self.sampler.prime(&snapshot);
    }

    /// Takes one sample of the merged (global ⊕ engine) registry state,
    /// feeds the detectors and SLOs, journals the tick, and returns the
    /// alerts that fired on it.
    pub fn tick_now(&self) -> Vec<Alert> {
        let mut snapshot = rapids_obs::global().snapshot();
        snapshot.merge(&self.registry.snapshot());
        let sample = self.sampler.tick(&snapshot);

        let mut fired: Vec<Alert> = Vec::new();
        {
            let mut detectors = self.detectors.lock().expect("detector lock poisoned");
            for detector in detectors.iter_mut() {
                let value = sample.points().find(|(name, _)| *name == detector.series());
                if let Some((_, value)) = value {
                    fired.extend(detector.observe(sample.tick, value));
                }
            }
        }
        let slo_status = {
            let lookup = |series: &str| {
                sample
                    .counters
                    .iter()
                    .find(|(name, _)| name == series)
                    .map(|(_, v)| *v)
                    .unwrap_or(0.0)
            };
            let mut slos = self.slos.lock().expect("slo lock poisoned");
            for slo in slos.iter_mut() {
                let bad = lookup(slo.bad_series());
                let total = lookup(slo.total_series());
                fired.extend(slo.observe(sample.tick, bad, total));
            }
            slos.iter().map(SloTracker::status_json).collect::<Vec<_>>()
        };

        if let Some(journal) = &self.journal {
            // Best-effort durability: a failing journal write costs
            // history, never the serving path.
            let _ = journal.append(&tick_fields(&sample, &fired, &slo_status));
        }
        {
            let mut alerts = self.alerts.lock().expect("alert lock poisoned");
            for alert in &fired {
                if alerts.len() == MAX_RETAINED_ALERTS {
                    alerts.pop_front();
                }
                alerts.push_back(alert.clone());
            }
        }
        fired
    }

    /// Every alert retained so far (the most recent
    /// `MAX_RETAINED_ALERTS`), in firing order.
    pub fn alerts(&self) -> Vec<Alert> {
        self.alerts.lock().expect("alert lock poisoned").iter().cloned().collect()
    }

    /// The `{"cmd":"alerts"}` reply line:
    /// `{"ok":"alerts","alerts":[…],"slo":[…]}`.
    pub fn alerts_json(&self) -> String {
        let alerts = self.alerts();
        let mut out = String::from("{\"ok\":\"alerts\",\"alerts\":[");
        for (i, alert) in alerts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&alert.to_json());
        }
        out.push_str("],\"slo\":[");
        let slos = self.slos.lock().expect("slo lock poisoned");
        for (i, slo) in slos.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&slo.status_json());
        }
        out.push_str("]}");
        out
    }

    /// The `{"cmd":"series"}` reply line for `name` (`None` when the
    /// series does not exist yet).
    pub fn series_json(&self, name: &str, last: usize) -> Option<String> {
        self.sampler.window_json(name, last)
    }

    /// Every series name currently tracked, sorted.
    pub fn series_names(&self) -> Vec<String> {
        self.sampler.names()
    }
}

/// The production wall-clock driver: a thread that calls
/// [`TelemetryPlane::tick_now`] every `period` until dropped.  Tests
/// never use this — they tick manually — which is exactly why series
/// stay byte-reproducible under test.
#[derive(Debug)]
pub struct WallClockSampler {
    _timer: Timer,
}

impl WallClockSampler {
    /// Spawns the sampling thread (first tick one `period` from now).
    pub fn spawn(plane: Arc<TelemetryPlane>, period: Duration) -> WallClockSampler {
        let timer = Timer::spawn(period, move || {
            plane.tick_now();
            true
        });
        WallClockSampler { _timer: timer }
    }
}

/// Renders one tick record's fields for [`Journal::append`]:
/// `"tick":…,"counters":{…},"gauges":{…},"latency":{…},"alerts":[…],"slo":[…]`.
///
/// The `counters` and `gauges` sections are deterministic under the
/// manual-tick contract; `latency` (quantile tracks) carries wall-clock
/// data — CI strips it (and the checksum that covers it) before diffing
/// against the pinned expectation.
fn tick_fields(sample: &TickSample, fired: &[Alert], slo_status: &[String]) -> String {
    use std::fmt::Write as _;
    let mut fields = format!("\"tick\":{}", sample.tick);
    let section = |name: &str, points: &[(String, f64)]| {
        let mut out = format!(",\"{name}\":{{");
        for (i, (k, v)) in points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", escape_string(k), number(*v));
        }
        out.push('}');
        out
    };
    fields.push_str(&section("counters", &sample.counters));
    fields.push_str(&section("gauges", &sample.gauges));
    fields.push_str(&section("latency", &sample.quantiles));
    fields.push_str(",\"alerts\":[");
    for (i, alert) in fired.iter().enumerate() {
        if i > 0 {
            fields.push(',');
        }
        fields.push_str(&alert.to_json());
    }
    fields.push_str("],\"slo\":[");
    for (i, status) in slo_status.iter().enumerate() {
        if i > 0 {
            fields.push(',');
        }
        fields.push_str(status);
    }
    fields.push(']');
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir();
        dir.join(format!("rapids_telemetry_{tag}_{}.jsonl", std::process::id()))
    }

    /// Tick lines from two planes over one journal file, as across a
    /// restart: the second open replays the first plane's lines and the
    /// second plane appends after them.
    #[test]
    fn journal_round_trips_and_counts_recovered_lines() {
        let path = temp_journal("roundtrip");
        let _ = std::fs::remove_file(&path);
        let tick_into = |ticks: usize| {
            let journal = Journal::open(&path).unwrap();
            let recovered = journal.recovered_lines();
            let plane = TelemetryPlane::new(Registry::new(), TelemetryConfig::default())
                .with_journal(journal);
            for _ in 0..ticks {
                plane.tick_now();
            }
            recovered
        };
        assert_eq!(tick_into(2), 0);
        assert_eq!(tick_into(1), 2);
        let journal = Journal::open(&path).unwrap();
        assert_eq!((journal.recovered_lines(), journal.dropped_tail_bytes()), (3, 0));
        let text = std::fs::read_to_string(&path).unwrap();
        let ticks: Vec<&str> =
            text.lines().filter_map(|l| Some(l.split_once(",\"counters\":{")?.0)).collect();
        assert_eq!(ticks, ["{\"tick\":0", "{\"tick\":1", "{\"tick\":0"], "{text}");
        for line in text.lines() {
            assert!(line.contains("\"alerts\":[],\"slo\":[],\"ck\":\""), "{line}");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Real tick lines, written by a plane: a crash that tears the last one
    /// at any byte, or flips a byte inside it, loses only that tick, and
    /// a plane over the recovered journal appends on a clean line.
    #[test]
    fn torn_tail_is_truncated_at_every_byte_boundary() {
        let path = temp_journal("torn");
        let _ = std::fs::remove_file(&path);
        {
            let plane = TelemetryPlane::new(Registry::new(), TelemetryConfig::default())
                .with_journal(Journal::open(&path).unwrap());
            plane.tick_now();
            plane.tick_now();
        }
        let full = std::fs::read(&path).unwrap();
        let first_line_len =
            full.iter().position(|&b| b == b'\n').expect("two whole lines on disk") + 1;

        // Tear the second line at every possible byte boundary: replay
        // must keep exactly the first line and truncate the rest.
        for cut in first_line_len..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let journal = Journal::open(&path).unwrap();
            assert_eq!(journal.recovered_lines(), 1, "cut at {cut}");
            assert_eq!(journal.dropped_tail_bytes(), (cut - first_line_len) as u64);
            assert_eq!(std::fs::read(&path).unwrap(), &full[..first_line_len]);
        }

        // A corrupted (bit-flipped) middle byte of the final line is
        // dropped the same way.
        let mut corrupt = full.clone();
        corrupt[first_line_len + 5] ^= 0x01;
        std::fs::write(&path, &corrupt).unwrap();
        let journal = Journal::open(&path).unwrap();
        assert_eq!(journal.recovered_lines(), 1);
        assert_eq!(std::fs::read(&path).unwrap(), &full[..first_line_len]);

        // And ticks after a truncating replay keep the journal valid.
        let plane =
            TelemetryPlane::new(Registry::new(), TelemetryConfig::default()).with_journal(journal);
        plane.tick_now();
        drop(plane);
        let journal = Journal::open(&path).unwrap();
        assert_eq!((journal.recovered_lines(), journal.dropped_tail_bytes()), (2, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn plane_ticks_detect_and_retain_alerts() {
        let registry = Registry::new();
        let config = TelemetryConfig {
            cusum: vec![CusumConfig::fixed("serve.test_plane_jobs", 0.0, 0.5, 2.0)],
            slos: vec![SloConfig {
                name: "test-slo".to_string(),
                bad_series: "serve.test_plane_bad".to_string(),
                total_series: "serve.test_plane_jobs".to_string(),
                target: 0.5,
            }],
            manual: true,
            ..TelemetryConfig::default()
        };
        let plane = TelemetryPlane::new(registry.clone(), config);
        assert!(plane.is_manual());

        let jobs = registry.counter("serve.test_plane_jobs");
        let bad = registry.counter("serve.test_plane_bad");

        // Flat ticks: nothing fires.
        assert!(plane.tick_now().is_empty());
        assert!(plane.tick_now().is_empty());

        // A burst of 4 jobs/tick (drift 0.5, threshold 2) fires CUSUM
        // immediately; 3 of them bad fires the SLO too (3/4 > 0.5).
        jobs.add(4);
        bad.add(3);
        let fired = plane.tick_now();
        assert_eq!(fired.len(), 2, "{fired:?}");
        assert_eq!(plane.alerts().len(), 2);
        let reply = plane.alerts_json();
        assert!(reply.starts_with("{\"ok\":\"alerts\",\"alerts\":[{\"kind\":\"cusum\""), "{reply}");
        assert!(reply.contains("\"kind\":\"slo\"") && reply.contains("\"breached\":true"));

        // Series are queryable through the plane.
        let series = plane.series_json("serve.test_plane_jobs", 2).unwrap();
        assert!(series.contains("\"points\":[[1,0],[2,4]]"), "{series}");
        assert!(plane.series_json("no.such.series", 0).is_none());
        assert_eq!(plane.ticks(), 3);
    }

    #[test]
    fn wall_clock_sampler_ticks_and_joins_on_drop() {
        let plane = Arc::new(TelemetryPlane::new(
            Registry::new(),
            TelemetryConfig { manual: false, ..TelemetryConfig::default() },
        ));
        let sampler = WallClockSampler::spawn(Arc::clone(&plane), Duration::from_millis(20));
        let deadline = Instant::now() + Duration::from_secs(10);
        while plane.ticks() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(plane.ticks() >= 2, "wall-clock ticks must accumulate");
        let start = Instant::now();
        drop(sampler);
        assert!(start.elapsed() < Duration::from_secs(5), "drop must join promptly");
    }
}
