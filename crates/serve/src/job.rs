//! Jobs: one unit of schedulable work — a circuit source plus the
//! configuration it should be optimized under.

use std::path::{Path, PathBuf};
use std::time::Duration;

use rapids_core::OptimizerConfig;
use rapids_flow::placement::PlacerConfig;
use rapids_flow::PipelineConfig;

use rapids_obs::json::{parse_flat_object, Value};

/// Where a job's circuit comes from.
#[derive(Debug, Clone)]
pub enum JobSource {
    /// A named benchmark from the 19-entry synthetic suite.
    Suite(String),
    /// A `.blif` file on disk, read by the worker that runs the job.
    BlifFile(PathBuf),
    /// Inline BLIF text (the TCP protocol ships designs this way).
    BlifText(String),
}

/// One schedulable unit of work: a named circuit source plus the full
/// effective [`PipelineConfig`] it runs under.  The config is resolved at
/// submission time (base config + per-job overrides), so executing a job
/// needs no further context and its cache key is well defined.
#[derive(Debug, Clone)]
pub struct Job {
    /// Submission name, used as the `job` field of the report line.
    pub name: String,
    /// The circuit source.
    pub source: JobSource,
    /// Effective configuration (base + per-job overrides).
    pub config: PipelineConfig,
    /// Optional per-job deadline, seconds.  An over-deadline run is cut at
    /// the next optimizer pass boundary and reported
    /// `Failed("timeout after …")`.  Deliberately *not* part of
    /// [`Job::config`]: the deadline never changes what a within-deadline
    /// job computes, so it must not perturb the config fingerprint that
    /// keys the result cache.
    pub timeout_s: Option<f64>,
    /// When set, this is a **verify** job: instead of optimizing
    /// [`Job::source`], the engine checks it for combinational equivalence
    /// against this second source with the SAT prover (`rapids-cec`) and
    /// answers `{"status":"verified","equivalent":…}` — with a
    /// simulator-confirmed counterexample input vector when the answer is
    /// "not equivalent".  Spec keys: `verify_suite`, `verify_blif`,
    /// `verify_blif_text`.
    pub verify_with: Option<JobSource>,
}

impl Job {
    /// A suite-benchmark job under the given configuration.
    pub fn suite(name: impl Into<String>, config: &PipelineConfig) -> Self {
        let name = name.into();
        Job {
            source: JobSource::Suite(name.clone()),
            name,
            config: config.clone(),
            timeout_s: None,
            verify_with: None,
        }
    }

    /// A `.blif`-file job under the given configuration, named by `name`
    /// (conventionally the file's path relative to the scanned root,
    /// extension stripped).
    pub fn blif_file(
        name: impl Into<String>,
        path: impl Into<PathBuf>,
        config: &PipelineConfig,
    ) -> Self {
        Job {
            name: name.into(),
            source: JobSource::BlifFile(path.into()),
            config: config.clone(),
            timeout_s: None,
            verify_with: None,
        }
    }

    /// An inline-BLIF job under the given configuration.
    pub fn blif_text(
        name: impl Into<String>,
        text: impl Into<String>,
        config: &PipelineConfig,
    ) -> Self {
        Job {
            name: name.into(),
            source: JobSource::BlifText(text.into()),
            config: config.clone(),
            timeout_s: None,
            verify_with: None,
        }
    }

    /// An equivalence-check job: verify `source` against `against` under
    /// the given configuration (the config only affects how the sources
    /// are resolved and mapped).
    pub fn verify(
        name: impl Into<String>,
        source: JobSource,
        against: JobSource,
        config: &PipelineConfig,
    ) -> Self {
        Job {
            name: name.into(),
            source,
            config: config.clone(),
            timeout_s: None,
            verify_with: Some(against),
        }
    }

    /// Parses one JSONL job-spec line against a base configuration.
    ///
    /// The schema (see `docs/serving.md`): exactly one source key —
    /// `"suite"`, `"blif"` (a file path) or `"blif_text"` — plus optional
    /// `"name"` (report name override), an optional `"timeout_s"` deadline
    /// (positive seconds) and per-job knob overrides `"fast"`, `"es"`,
    /// `"legalize"`, `"seed"`, `"max_fanin"`, `"threads"`.  At most one
    /// second-source key — `"verify_suite"`, `"verify_blif"` or
    /// `"verify_blif_text"` — turns the job into an equivalence check of
    /// the primary source against the second one.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem (syntax, unknown
    /// key, missing/ambiguous source, non-integer numeric knob).
    pub fn from_spec_line(line: &str, base: &PipelineConfig) -> Result<Job, String> {
        let pairs = parse_flat_object(line)?;
        let mut source: Option<JobSource> = None;
        let mut verify_with: Option<JobSource> = None;
        let mut name: Option<String> = None;
        let mut config = base.clone();
        let mut fast: Option<bool> = None;
        let mut timeout_s: Option<f64> = None;

        let str_of = |v: &Value, key: &str| -> Result<String, String> {
            v.as_str().map(str::to_string).ok_or_else(|| format!("`{key}` must be a string"))
        };
        let bool_of = |v: &Value, key: &str| -> Result<bool, String> {
            v.as_bool().ok_or_else(|| format!("`{key}` must be a boolean"))
        };
        let uint_of = |v: &Value, key: &str| -> Result<u64, String> {
            // Numbers travel as f64, which represents integers faithfully
            // only below 2^53 — beyond that a written value would be
            // silently rounded to a neighbour, so reject it instead (a
            // non-reproducible seed is worse than an error).
            const MAX_EXACT: f64 = (1u64 << 53) as f64;
            match v.as_num() {
                Some(x) if x >= 0.0 && x.fract() == 0.0 && x < MAX_EXACT => Ok(x as u64),
                _ => Err(format!("`{key}` must be a non-negative integer below 2^53")),
            }
        };

        for (key, value) in &pairs {
            match key.as_str() {
                "suite" | "blif" | "blif_text" => {
                    if source.is_some() {
                        return Err("more than one source key in job spec".into());
                    }
                    let payload = str_of(value, key)?;
                    source = Some(match key.as_str() {
                        "suite" => JobSource::Suite(payload),
                        "blif" => JobSource::BlifFile(PathBuf::from(payload)),
                        _ => JobSource::BlifText(payload),
                    });
                }
                "verify_suite" | "verify_blif" | "verify_blif_text" => {
                    if verify_with.is_some() {
                        return Err("more than one verify-source key in job spec".into());
                    }
                    let payload = str_of(value, key)?;
                    verify_with = Some(match key.as_str() {
                        "verify_suite" => JobSource::Suite(payload),
                        "verify_blif" => JobSource::BlifFile(PathBuf::from(payload)),
                        _ => JobSource::BlifText(payload),
                    });
                }
                "name" => name = Some(str_of(value, key)?),
                "fast" => fast = Some(bool_of(value, key)?),
                "timeout_s" => {
                    timeout_s = Some(match value.as_num() {
                        // Positive and within what a `Duration` holds.
                        Some(x) if x > 0.0 && Duration::try_from_secs_f64(x).is_ok() => x,
                        _ => {
                            return Err(
                                "`timeout_s` must be positive seconds below about 1.8e19".into()
                            )
                        }
                    });
                }
                "es" => config.optimizer.include_inverting_swaps = bool_of(value, key)?,
                "legalize" => config.legalize.enabled = bool_of(value, key)?,
                "seed" => config.seed = uint_of(value, key)?,
                "max_fanin" => config.map_max_fanin = uint_of(value, key)?.max(2) as usize,
                "threads" => config.threads = (uint_of(value, key)? as usize).max(1),
                other => return Err(format!("unknown job-spec key `{other}`")),
            }
        }

        // `fast` swaps in the reduced-effort placer/optimizer while keeping
        // every already-applied override that survives the swap (the
        // `legalize` knob lives outside both and is untouched).
        if fast == Some(true) {
            let es = config.optimizer.include_inverting_swaps;
            config.placer = PlacerConfig::fast();
            config.optimizer = OptimizerConfig {
                include_inverting_swaps: es,
                ..OptimizerConfig::fast(config.optimizer.kind)
            };
        }

        let source = source.ok_or("job spec needs a `suite`, `blif` or `blif_text` key")?;
        let name = name.unwrap_or_else(|| default_name(&source));
        Ok(Job { name, source, config, timeout_s, verify_with })
    }
}

/// The report name a source gets when the spec does not override it.
pub(crate) fn default_name(source: &JobSource) -> String {
    match source {
        JobSource::Suite(name) => name.clone(),
        JobSource::BlifFile(path) => stem_name(path),
        JobSource::BlifText(_) => "inline".to_string(),
    }
}

/// A path's file stem, lossily decoded (`designs/foo.blif` → `foo`).
pub(crate) fn stem_name(path: &Path) -> String {
    path.file_stem()
        .map_or_else(|| path.display().to_string(), |s| s.to_string_lossy().into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> PipelineConfig {
        PipelineConfig::default()
    }

    #[test]
    fn suite_spec_parses_with_overrides() {
        let job = Job::from_spec_line(
            r#"{"suite":"c432","es":true,"legalize":true,"seed":9,"threads":3}"#,
            &base(),
        )
        .unwrap();
        assert_eq!(job.name, "c432");
        assert!(matches!(job.source, JobSource::Suite(ref s) if s == "c432"));
        assert!(job.config.optimizer.include_inverting_swaps);
        assert!(job.config.legalize.enabled);
        assert_eq!(job.config.seed, 9);
        assert_eq!(job.config.threads, 3);
    }

    #[test]
    fn fast_override_keeps_legalize() {
        let job = Job::from_spec_line(r#"{"suite":"alu2","legalize":true,"fast":true}"#, &base())
            .unwrap();
        assert!(job.config.legalize.enabled);
        assert!(job.config.placer.moves_per_gate < base().placer.moves_per_gate);
    }

    #[test]
    fn fast_override_keeps_es_and_kind() {
        let job =
            Job::from_spec_line(r#"{"suite":"alu2","fast":true,"es":true}"#, &base()).unwrap();
        assert!(job.config.optimizer.include_inverting_swaps);
        assert_eq!(job.config.optimizer.kind, base().optimizer.kind);
        assert!(job.config.placer.moves_per_gate < base().placer.moves_per_gate);
    }

    #[test]
    fn blif_file_spec_defaults_name_to_stem() {
        let job = Job::from_spec_line(r#"{"blif":"designs/foo.blif"}"#, &base()).unwrap();
        assert_eq!(job.name, "foo");
        assert!(matches!(job.source, JobSource::BlifFile(_)));
    }

    #[test]
    fn name_override_wins() {
        let job =
            Job::from_spec_line(r#"{"blif_text":".model x\n.end","name":"x9"}"#, &base()).unwrap();
        assert_eq!(job.name, "x9");
    }

    #[test]
    fn timeout_spec_parses_and_rejects_nonsense() {
        let job = Job::from_spec_line(r#"{"suite":"c432","timeout_s":2.5}"#, &base()).unwrap();
        assert_eq!(job.timeout_s, Some(2.5));
        assert_eq!(Job::from_spec_line(r#"{"suite":"c432"}"#, &base()).unwrap().timeout_s, None);
        let far = Job::from_spec_line(r#"{"suite":"c432","timeout_s":1e19}"#, &base()).unwrap();
        assert_eq!(far.timeout_s, Some(1e19), "a deadline past `Instant`'s range still parses");
        for bad in [
            r#"{"suite":"a","timeout_s":0}"#,
            r#"{"suite":"a","timeout_s":-1}"#,
            r#"{"suite":"a","timeout_s":"2"}"#,
            // Past what a `Duration` holds (about 1.8e19 s).
            r#"{"suite":"a","timeout_s":1e300}"#,
            r#"{"suite":"a","timeout_s":2e19}"#,
        ] {
            assert!(Job::from_spec_line(bad, &base()).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn verify_spec_parses_every_second_source_kind() {
        let job =
            Job::from_spec_line(r#"{"suite":"c432","verify_suite":"c432"}"#, &base()).unwrap();
        assert!(matches!(job.verify_with, Some(JobSource::Suite(ref s)) if s == "c432"));
        let job =
            Job::from_spec_line(r#"{"suite":"c432","verify_blif":"x.blif"}"#, &base()).unwrap();
        assert!(matches!(job.verify_with, Some(JobSource::BlifFile(_))));
        let job = Job::from_spec_line(
            r#"{"blif_text":".model m\n.end","verify_blif_text":".model m\n.end","timeout_s":5}"#,
            &base(),
        )
        .unwrap();
        assert!(matches!(job.verify_with, Some(JobSource::BlifText(_))));
        assert_eq!(job.timeout_s, Some(5.0));
        // No verify key → a plain optimize job.
        let job = Job::from_spec_line(r#"{"suite":"c432"}"#, &base()).unwrap();
        assert!(job.verify_with.is_none());
    }

    #[test]
    fn verify_spec_rejects_ambiguity_and_missing_primary() {
        for bad in [
            // Two verify sources.
            r#"{"suite":"a","verify_suite":"b","verify_blif":"c.blif"}"#,
            // A verify source without a primary source.
            r#"{"verify_suite":"b"}"#,
            // Ill-typed payload.
            r#"{"suite":"a","verify_suite":7}"#,
        ] {
            assert!(Job::from_spec_line(bad, &base()).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "{}",
            r#"{"suite":"a","blif":"b"}"#,
            r#"{"suite":7}"#,
            r#"{"suite":"a","bogus":1}"#,
            r#"{"suite":"a","seed":-1}"#,
            r#"{"suite":"a","seed":1.5}"#,
            // Above 2^53: f64 would silently round it to a neighbour.
            r#"{"suite":"a","seed":9007199254740993}"#,
            r#"{"suite":"a","fast":"yes"}"#,
            "not json",
        ] {
            assert!(Job::from_spec_line(bad, &base()).is_err(), "accepted: {bad}");
        }
    }
}
