//! Online change detection over sampled series: one-sided CUSUM
//! detectors and SLO burn tracking.
//!
//! A [`Cusum`] watches one named series from the
//! [`Sampler`](crate::timeseries::Sampler) and accumulates the classic
//! one-sided statistic
//!
//! ```text
//! S ← max(0, S + (x − baseline − drift))
//! ```
//!
//! alarming when `S` exceeds `threshold`.  `drift` is the per-tick
//! excursion the detector forgives (sets the smallest shift it reacts
//! to); `threshold` trades detection delay against false alarms.  The
//! baseline is either [`Baseline::Fixed`] or learned as the mean of the
//! first N samples ([`Baseline::Warmup`] — no alarms until it settles).
//! On alarm the statistic resets (`reset_on_alarm`), so a persisting
//! shift re-alarms after another full climb rather than every tick.
//!
//! An [`SloTracker`] folds two counter-delta series (bad events, total
//! events) into a running burn fraction and alarms on the transition
//! into breach (`burn > target`).
//!
//! Both emit structured [`Alert`] records; everything here is a pure
//! function of the observed tick sequence, so under the manual-tick
//! contract alerts are byte-reproducible.

use crate::json::{escape_string, number};

/// Where a [`Cusum`]'s reference level comes from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Baseline {
    /// A known reference level.
    Fixed(f64),
    /// Learn the mean of the first `N` observations, then freeze it.
    /// No alarms fire during warmup.
    Warmup(usize),
}

/// Knobs for one detector instance.
#[derive(Clone, Debug)]
pub struct CusumConfig {
    /// The series this detector consumes (e.g. `serve.job_us.p99`).
    pub series: String,
    /// Per-tick slack: excursions below `baseline + drift` don't
    /// accumulate.
    pub drift: f64,
    /// Alarm when the accumulated statistic exceeds this.
    pub threshold: f64,
    /// Reference level.
    pub baseline: Baseline,
    /// Reset the statistic to zero after alarming (default true).
    pub reset_on_alarm: bool,
}

impl CusumConfig {
    /// A detector with a fixed baseline and reset-on-alarm.
    pub fn fixed(series: &str, baseline: f64, drift: f64, threshold: f64) -> Self {
        CusumConfig {
            series: series.to_string(),
            drift,
            threshold,
            baseline: Baseline::Fixed(baseline),
            reset_on_alarm: true,
        }
    }

    /// A detector that learns its baseline from the first `warmup`
    /// observations.
    pub fn warmup(series: &str, warmup: usize, drift: f64, threshold: f64) -> Self {
        CusumConfig {
            series: series.to_string(),
            drift,
            threshold,
            baseline: Baseline::Warmup(warmup.max(1)),
            reset_on_alarm: true,
        }
    }
}

/// What kind of monitor fired an [`Alert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertKind {
    /// A CUSUM statistic crossed its threshold.
    Cusum,
    /// An SLO burn fraction crossed its target.
    Slo,
}

impl AlertKind {
    fn as_str(self) -> &'static str {
        match self {
            AlertKind::Cusum => "cusum",
            AlertKind::Slo => "slo",
        }
    }
}

/// A structured record of one fired alarm.
#[derive(Clone, Debug, PartialEq)]
pub struct Alert {
    /// The series (or SLO name) that alarmed.
    pub series: String,
    /// The tick the alarm fired at.
    pub tick: u64,
    /// The statistic at firing time (CUSUM sum, or SLO burn fraction).
    pub statistic: f64,
    /// The reference the statistic was measured against (CUSUM baseline,
    /// or SLO target fraction).
    pub baseline: f64,
    /// Which monitor family fired.
    pub kind: AlertKind,
}

impl Alert {
    /// One JSON object, embeddable in a protocol line or journal entry:
    /// `{"kind":…,"series":…,"tick":…,"statistic":…,"baseline":…}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"series\":{},\"tick\":{},\"statistic\":{},\"baseline\":{}}}",
            self.kind.as_str(),
            escape_string(&self.series),
            self.tick,
            number(self.statistic),
            number(self.baseline),
        )
    }
}

/// A one-sided (upward) CUSUM detector over one series.
#[derive(Clone, Debug)]
pub struct Cusum {
    config: CusumConfig,
    sum: f64,
    /// `Some(level)` once the baseline is established.
    settled: Option<f64>,
    /// Warmup accumulator: (sum, seen).
    warmup: (f64, usize),
}

impl Cusum {
    /// A fresh detector; the statistic starts at zero.
    pub fn new(config: CusumConfig) -> Self {
        let settled = match config.baseline {
            Baseline::Fixed(b) => Some(b),
            Baseline::Warmup(_) => None,
        };
        Cusum { config, sum: 0.0, settled, warmup: (0.0, 0) }
    }

    /// The series this detector consumes.
    pub fn series(&self) -> &str {
        &self.config.series
    }

    /// The current statistic.
    pub fn statistic(&self) -> f64 {
        self.sum
    }

    /// The established baseline, if any (None during warmup).
    pub fn baseline(&self) -> Option<f64> {
        self.settled
    }

    /// Feeds one observation of this detector's series at `tick`;
    /// returns the alert if the statistic crossed the threshold.
    pub fn observe(&mut self, tick: u64, value: f64) -> Option<Alert> {
        let baseline = match self.settled {
            Some(b) => b,
            None => {
                let Baseline::Warmup(n) = self.config.baseline else { unreachable!() };
                self.warmup.0 += value;
                self.warmup.1 += 1;
                if self.warmup.1 < n {
                    return None;
                }
                let mean = self.warmup.0 / self.warmup.1 as f64;
                self.settled = Some(mean);
                // The settling observation is part of the baseline, not
                // an excursion from it.
                return None;
            }
        };
        self.sum = (self.sum + (value - baseline - self.config.drift)).max(0.0);
        if self.sum > self.config.threshold {
            let alert = Alert {
                series: self.config.series.clone(),
                tick,
                statistic: self.sum,
                baseline,
                kind: AlertKind::Cusum,
            };
            if self.config.reset_on_alarm {
                self.sum = 0.0;
            }
            return Some(alert);
        }
        None
    }
}

/// Knobs for one SLO.
#[derive(Clone, Debug)]
pub struct SloConfig {
    /// The SLO's name (used as the alert `series`).
    pub name: String,
    /// Counter-delta series counting budget violations.
    pub bad_series: String,
    /// Counter-delta series counting all events.
    pub total_series: String,
    /// Maximum acceptable `bad / total` fraction.
    pub target: f64,
}

/// Tracks one SLO's cumulative burn fraction, alarming on the
/// transition into breach.
#[derive(Clone, Debug)]
pub struct SloTracker {
    config: SloConfig,
    bad: f64,
    total: f64,
    breached: bool,
}

impl SloTracker {
    /// A fresh tracker with zero burn.
    pub fn new(config: SloConfig) -> Self {
        SloTracker { config, bad: 0.0, total: 0.0, breached: false }
    }

    /// The SLO name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The counter-delta series counting budget violations.
    pub fn bad_series(&self) -> &str {
        &self.config.bad_series
    }

    /// The counter-delta series counting all events.
    pub fn total_series(&self) -> &str {
        &self.config.total_series
    }

    /// Cumulative `bad / total` (0 while no events have been seen).
    pub fn burn(&self) -> f64 {
        if self.total > 0.0 {
            self.bad / self.total
        } else {
            0.0
        }
    }

    /// Whether the SLO is currently breached.
    pub fn breached(&self) -> bool {
        self.breached
    }

    /// Feeds one tick's deltas of the bad/total series; returns an alert
    /// exactly when the burn fraction first crosses the target (and
    /// re-arms if it later recovers below it).
    pub fn observe(&mut self, tick: u64, bad_delta: f64, total_delta: f64) -> Option<Alert> {
        self.bad += bad_delta.max(0.0);
        self.total += total_delta.max(0.0);
        let burn = self.burn();
        let over = self.total > 0.0 && burn > self.config.target;
        let fired = over && !self.breached;
        self.breached = over;
        if fired {
            return Some(Alert {
                series: self.config.name.clone(),
                tick,
                statistic: burn,
                baseline: self.config.target,
                kind: AlertKind::Slo,
            });
        }
        None
    }

    /// One JSON object describing the current state:
    /// `{"name":…,"bad":…,"total":…,"burn":…,"target":…,"breached":…}`.
    pub fn status_json(&self) -> String {
        format!(
            "{{\"name\":{},\"bad\":{},\"total\":{},\"burn\":{},\"target\":{},\"breached\":{}}}",
            escape_string(&self.config.name),
            number(self.bad),
            number(self.total),
            number(self.burn()),
            number(self.config.target),
            self.breached,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_series_never_alarms() {
        let mut d = Cusum::new(CusumConfig::fixed("lat", 100.0, 5.0, 50.0));
        for tick in 0..1000 {
            assert_eq!(d.observe(tick, 100.0), None);
            assert_eq!(d.statistic(), 0.0, "at-baseline samples accumulate nothing");
        }
        // Noise inside the drift allowance accumulates nothing either.
        for tick in 0..1000 {
            assert_eq!(d.observe(tick, 104.9), None);
        }
    }

    #[test]
    fn step_shift_alarms_after_the_expected_climb() {
        // Step from 100 to 120 with drift 5: each tick adds 15, so the
        // 50-threshold trips on the 4th shifted sample.
        let mut d = Cusum::new(CusumConfig::fixed("lat", 100.0, 5.0, 50.0));
        for tick in 0..10 {
            assert_eq!(d.observe(tick, 100.0), None);
        }
        let mut fired_at = None;
        for tick in 10..20 {
            if let Some(alert) = d.observe(tick, 120.0) {
                fired_at = Some((tick, alert));
                break;
            }
        }
        let (tick, alert) = fired_at.expect("a sustained shift must alarm");
        assert_eq!(tick, 13);
        assert_eq!(alert.kind, AlertKind::Cusum);
        assert_eq!(alert.series, "lat");
        assert_eq!(alert.statistic, 60.0);
        assert_eq!(alert.baseline, 100.0);
        assert_eq!(d.statistic(), 0.0, "reset on alarm");
        assert_eq!(
            alert.to_json(),
            "{\"kind\":\"cusum\",\"series\":\"lat\",\"tick\":13,\
             \"statistic\":60,\"baseline\":100}"
        );
    }

    #[test]
    fn warmup_learns_the_baseline_mean() {
        let mut d = Cusum::new(CusumConfig::warmup("lat", 4, 0.0, 10.0));
        assert_eq!(d.baseline(), None);
        for (tick, v) in [90.0, 110.0, 95.0, 105.0].into_iter().enumerate() {
            assert_eq!(d.observe(tick as u64, v), None, "no alarms during warmup");
        }
        assert_eq!(d.baseline(), Some(100.0));
        // Now a shift accumulates against the learned mean.
        assert_eq!(d.observe(4, 106.0), None);
        let alert = d.observe(5, 106.0).expect("second +6 excursion crosses 10");
        assert_eq!(alert.statistic, 12.0);
        assert_eq!(alert.baseline, 100.0);
    }

    #[test]
    fn without_reset_a_persisting_shift_realarm_every_tick() {
        let mut config = CusumConfig::fixed("lat", 0.0, 0.0, 10.0);
        config.reset_on_alarm = false;
        let mut d = Cusum::new(config);
        assert!(d.observe(0, 11.0).is_some());
        assert!(d.observe(1, 0.0).is_some(), "statistic stays above threshold");
        assert_eq!(d.statistic(), 11.0);
    }

    #[test]
    fn slo_alarms_on_the_breach_transition_only() {
        let mut slo = SloTracker::new(SloConfig {
            name: "timeouts".to_string(),
            bad_series: "serve.deadline_cuts".to_string(),
            total_series: "serve.job_us.count".to_string(),
            target: 0.25,
        });
        assert_eq!(slo.observe(0, 0.0, 0.0), None, "no events, no burn");
        assert_eq!(slo.observe(1, 0.0, 3.0), None);
        assert_eq!(slo.burn(), 0.0);
        let alert = slo.observe(2, 2.0, 2.0).expect("2/5 crosses 0.25");
        assert_eq!(alert.kind, AlertKind::Slo);
        assert_eq!(alert.series, "timeouts");
        assert_eq!(alert.statistic, 0.4);
        assert_eq!(alert.baseline, 0.25);
        assert_eq!(slo.observe(3, 1.0, 1.0), None, "still breached: no re-alarm");
        assert!(slo.breached());
        // Recover below target, then breach again: re-arms.
        assert_eq!(slo.observe(4, 0.0, 10.0), None);
        assert!(!slo.breached());
        assert!(slo.observe(5, 6.0, 6.0).is_some());
        assert_eq!(
            slo.status_json(),
            "{\"name\":\"timeouts\",\"bad\":9,\"total\":22,\"burn\":0.4090909090909091,\
             \"target\":0.25,\"breached\":true}"
        );
    }
}
