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
//! The journal reuses the `serve::store` crash-safety discipline: every
//! line carries an FNV-1a checksum over its own prefix and is appended
//! with a single `write_all`, so a crash can only tear the final line —
//! which [`Journal::open`] detects and truncates on replay.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rapids_obs::json::{escape_string, number};
use rapids_obs::{Alert, Cusum, CusumConfig, Sampler, SamplerConfig, SloConfig, SloTracker};
use rapids_obs::{Registry, TickSample};

use crate::fingerprint::fnv1a;
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
            let _ = journal.append_tick(&sample, &fired, &slo_status);
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

/// A crash-safe JSONL telemetry journal (`--telemetry-out FILE`).
///
/// Line format: `{<fields>,"ck":"<16 hex>"}` where the checksum is
/// FNV-1a over the line's own bytes up to and including `,"ck":"`.
/// Appends are a single `write_all` + flush under a mutex, so a crash
/// can only tear the final line; [`Journal::open`] validates every line
/// on replay and truncates the file at the first torn or corrupt one
/// (the `serve::store` discipline, line-oriented).
pub struct Journal {
    file: Mutex<File>,
    recovered_lines: usize,
    dropped_tail_bytes: u64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("recovered_lines", &self.recovered_lines)
            .field("dropped_tail_bytes", &self.dropped_tail_bytes)
            .finish_non_exhaustive()
    }
}

/// `,"ck":"` — the tail marker a valid journal line carries its checksum
/// behind.
const CK_MARKER: &str = ",\"ck\":\"";
/// Bytes after the checksummed prefix: 16 hex digits + `"}`.
const CK_SUFFIX_LEN: usize = 16 + 2;

impl Journal {
    /// Opens (creating if missing) the journal at `path`, replaying
    /// existing lines and truncating a torn/corrupt tail.
    ///
    /// # Errors
    ///
    /// Propagates file open/read/truncate failures; line-level corruption
    /// is *handled* (truncated), not an error.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut text = Vec::new();
        file.read_to_end(&mut text)?;

        let mut valid_len = 0usize;
        let mut recovered_lines = 0usize;
        let mut pos = 0usize;
        while pos < text.len() {
            let Some(nl) = text[pos..].iter().position(|&b| b == b'\n') else {
                break; // unterminated tail: torn mid-append
            };
            let line = &text[pos..pos + nl];
            if !line_checksum_valid(line) {
                break;
            }
            recovered_lines += 1;
            pos += nl + 1;
            valid_len = pos;
        }
        let dropped_tail_bytes = (text.len() - valid_len) as u64;
        if dropped_tail_bytes > 0 {
            file.set_len(valid_len as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(Journal { file: Mutex::new(file), recovered_lines, dropped_tail_bytes })
    }

    /// Valid lines found (and kept) at open.
    pub fn recovered_lines(&self) -> usize {
        self.recovered_lines
    }

    /// Torn/corrupt tail bytes truncated at open (0 for a clean file).
    pub fn dropped_tail_bytes(&self) -> u64 {
        self.dropped_tail_bytes
    }

    /// Appends one record.  `fields` is the line's JSON body without the
    /// outer braces (`"tick":3,…`); the journal wraps it and stamps the
    /// checksum.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write/flush failure; the caller decides
    /// whether durability loss is fatal (the telemetry plane treats it
    /// as best-effort).
    pub fn append(&self, fields: &str) -> std::io::Result<()> {
        let prefix = format!("{{{fields}{CK_MARKER}");
        let line = format!("{prefix}{:016x}\"}}\n", fnv1a(prefix.as_bytes()));
        let mut file = self.file.lock().expect("journal lock poisoned");
        file.write_all(line.as_bytes())?;
        file.flush()
    }

    /// Renders and appends one tick record:
    /// `{"tick":…,"counters":{…},"gauges":{…},"latency":{…},"alerts":[…],"slo":[…],"ck":…}`.
    ///
    /// The `counters` and `gauges` sections are deterministic under the
    /// manual-tick contract; `latency` (quantile tracks) carries
    /// wall-clock data — CI strips it (and the checksum that covers it)
    /// before diffing against the pinned expectation.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write/flush failure.
    pub fn append_tick(
        &self,
        sample: &TickSample,
        fired: &[Alert],
        slo_status: &[String],
    ) -> std::io::Result<()> {
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
        self.append(&fields)
    }
}

/// Whether one journal line's embedded checksum matches its prefix.
fn line_checksum_valid(line: &[u8]) -> bool {
    if line.len() < CK_MARKER.len() + CK_SUFFIX_LEN + 2 || !line.ends_with(b"\"}") {
        return false;
    }
    let split = line.len() - CK_SUFFIX_LEN;
    let (prefix, suffix) = line.split_at(split);
    if !prefix.ends_with(CK_MARKER.as_bytes()) {
        return false;
    }
    let Ok(hex) = std::str::from_utf8(&suffix[..16]) else {
        return false;
    };
    let Ok(claimed) = u64::from_str_radix(hex, 16) else {
        return false;
    };
    claimed == fnv1a(prefix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir();
        dir.join(format!("rapids_telemetry_{tag}_{}.jsonl", std::process::id()))
    }

    #[test]
    fn journal_round_trips_and_counts_recovered_lines() {
        let path = temp_journal("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let journal = Journal::open(&path).unwrap();
            assert_eq!(journal.recovered_lines(), 0);
            journal.append("\"tick\":0,\"counters\":{}").unwrap();
            journal.append("\"tick\":1,\"counters\":{\"a\":2}").unwrap();
        }
        let journal = Journal::open(&path).unwrap();
        assert_eq!(journal.recovered_lines(), 2);
        assert_eq!(journal.dropped_tail_bytes(), 0);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line_checksum_valid(line.as_bytes()), "{line}");
            assert!(line.starts_with("{\"tick\":") && line.ends_with("\"}"));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_byte_boundary() {
        let path = temp_journal("torn");
        let _ = std::fs::remove_file(&path);
        {
            let journal = Journal::open(&path).unwrap();
            journal.append("\"tick\":0,\"x\":1").unwrap();
            journal.append("\"tick\":1,\"x\":2").unwrap();
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
        let target = first_line_len + 5;
        corrupt[target] ^= 0x01;
        std::fs::write(&path, &corrupt).unwrap();
        let journal = Journal::open(&path).unwrap();
        assert_eq!(journal.recovered_lines(), 1);
        assert_eq!(std::fs::read(&path).unwrap(), &full[..first_line_len]);

        // And appends after a truncating replay keep the journal valid.
        journal.append("\"tick\":1,\"x\":9").unwrap();
        drop(journal);
        assert_eq!(Journal::open(&path).unwrap().recovered_lines(), 2);
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
