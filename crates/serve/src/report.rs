//! Streaming report records.
//!
//! One JSONL line per finished job.  Successful lines carry exactly the
//! deterministic QoR projection of `docs/benchmarking.md` (the
//! `--qor-out` field contract), prefixed with the job envelope; failed
//! lines carry the captured error.  Wall-clock numbers and cache/worker
//! provenance are deliberately *excluded* from the line so that any two
//! runs of the same job — fresh or cached, any worker count — produce
//! byte-identical output (the envelope of [`JobReport`] still records
//! provenance for programmatic consumers).

use rapids_flow::FlowComparison;

use rapids_obs::json::{escape_string, number, parse_flat_object, Value};

/// The deterministic per-design QoR record — the serve-side twin of the
/// `table1 --qor-out` row, field for field.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignQor {
    /// Design name (the netlist's model name).
    pub name: String,
    /// Mapped logic gate count before optimization.
    pub gate_count: usize,
    /// Post-placement, pre-optimization critical-path delay, ns.
    pub initial_delay_ns: f64,
    /// Final delay of the rewiring-only (`gsg`) optimizer, ns.
    pub gsg_final_delay_ns: f64,
    /// Final delay of the sizing-only (`GS`) optimizer, ns.
    pub gs_final_delay_ns: f64,
    /// Final delay of the combined (`gsg+GS`) optimizer, ns.
    pub combined_final_delay_ns: f64,
    /// Final area after `GS`, µm².
    pub gs_final_area_um2: f64,
    /// Final area after `gsg+GS`, µm².
    pub combined_final_area_um2: f64,
    /// Swaps applied by `gsg`.
    pub gsg_swaps: usize,
    /// Inverting (ES) swaps among `gsg`'s swaps.
    pub gsg_es_swaps: usize,
    /// Inverting (ES) swaps applied by `gsg+GS`.
    pub combined_es_swaps: usize,
    /// Gates resized by `GS`.
    pub gs_resized: usize,
    /// Whether the pipeline's legalize stage ran on this design.
    pub legalized: bool,
    /// Total HPWL of the shared pre-optimization placement, µm (the
    /// legalized + refined value when the stage ran).
    pub hpwl_um: f64,
    /// Largest single-gate displacement of the full legalizer, µm (0 while
    /// the stage is disabled).
    pub max_displacement_um: f64,
}

impl DesignQor {
    /// Projects a three-way pipeline comparison onto the QoR record.
    pub fn from_comparison(comparison: &FlowComparison) -> Self {
        let gsg = &comparison.rewiring.outcome;
        let gs = &comparison.sizing.outcome;
        let combined = &comparison.combined.outcome;
        DesignQor {
            name: comparison.name.clone(),
            gate_count: comparison.gate_count,
            initial_delay_ns: comparison.initial_delay_ns,
            gsg_final_delay_ns: gsg.final_delay_ns,
            gs_final_delay_ns: gs.final_delay_ns,
            combined_final_delay_ns: combined.final_delay_ns,
            gs_final_area_um2: gs.final_area_um2,
            combined_final_area_um2: combined.final_area_um2,
            gsg_swaps: gsg.swaps_applied,
            gsg_es_swaps: gsg.inverting_swaps_applied,
            combined_es_swaps: combined.inverting_swaps_applied,
            gs_resized: gs.gates_resized,
            legalized: comparison.legalization.is_some(),
            hpwl_um: comparison
                .legalization
                .map_or(gsg.initial_hpwl_um, |legalization| legalization.hpwl_um),
            max_displacement_um: comparison
                .legalization
                .map_or(0.0, |legalization| legalization.max_displacement_um()),
        }
    }

    /// Serializes the record as one flat JSON object — the on-disk store's
    /// payload format.  Uses the same float/escape conventions as the
    /// report lines, so a record that round-trips through
    /// [`DesignQor::from_json`] re-renders byte-identically.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.json_fields())
    }

    /// Parses a [`DesignQor::to_json`] payload.  Strict: every field must
    /// be present with the right type, so a corrupted store payload is
    /// rejected (and its record dropped) instead of yielding a half-default
    /// record.
    ///
    /// # Errors
    ///
    /// A description of the first missing or ill-typed field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let pairs = parse_flat_object(text)?;
        let field = |key: &str| -> Result<&Value, String> {
            pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{key}`"))
        };
        let str_of = |key: &str| -> Result<String, String> {
            field(key)?.as_str().map(str::to_string).ok_or_else(|| format!("`{key}` not a string"))
        };
        let num_of = |key: &str| -> Result<f64, String> {
            field(key)?.as_num().ok_or_else(|| format!("`{key}` not a number"))
        };
        let count_of = |key: &str| -> Result<usize, String> {
            match field(key)?.as_num() {
                Some(x) if x >= 0.0 && x.fract() == 0.0 && x < (1u64 << 53) as f64 => {
                    Ok(x as usize)
                }
                _ => Err(format!("`{key}` not a count")),
            }
        };
        let bool_of = |key: &str| -> Result<bool, String> {
            field(key)?.as_bool().ok_or_else(|| format!("`{key}` not a boolean"))
        };
        Ok(DesignQor {
            name: str_of("name")?,
            gate_count: count_of("gate_count")?,
            initial_delay_ns: num_of("initial_delay_ns")?,
            gsg_final_delay_ns: num_of("gsg_final_delay_ns")?,
            gs_final_delay_ns: num_of("gs_final_delay_ns")?,
            combined_final_delay_ns: num_of("combined_final_delay_ns")?,
            gs_final_area_um2: num_of("gs_final_area_um2")?,
            combined_final_area_um2: num_of("combined_final_area_um2")?,
            gsg_swaps: count_of("gsg_swaps")?,
            gsg_es_swaps: count_of("gsg_es_swaps")?,
            combined_es_swaps: count_of("combined_es_swaps")?,
            gs_resized: count_of("gs_resized")?,
            legalized: bool_of("legalized")?,
            hpwl_um: num_of("hpwl_um")?,
            max_displacement_um: num_of("max_displacement_um")?,
        })
    }

    fn json_fields(&self) -> String {
        format!(
            concat!(
                "\"name\":{},\"gate_count\":{},\"initial_delay_ns\":{},",
                "\"gsg_final_delay_ns\":{},\"gs_final_delay_ns\":{},",
                "\"combined_final_delay_ns\":{},\"gs_final_area_um2\":{},",
                "\"combined_final_area_um2\":{},\"gsg_swaps\":{},",
                "\"gsg_es_swaps\":{},\"combined_es_swaps\":{},\"gs_resized\":{},",
                "\"legalized\":{},\"hpwl_um\":{},\"max_displacement_um\":{}"
            ),
            escape_string(&self.name),
            self.gate_count,
            number(self.initial_delay_ns),
            number(self.gsg_final_delay_ns),
            number(self.gs_final_delay_ns),
            number(self.combined_final_delay_ns),
            number(self.gs_final_area_um2),
            number(self.combined_final_area_um2),
            self.gsg_swaps,
            self.gsg_es_swaps,
            self.combined_es_swaps,
            self.gs_resized,
            self.legalized,
            number(self.hpwl_um),
            number(self.max_displacement_um),
        )
    }
}

/// The answer of a `verify` job: a SAT-proven equivalence verdict.
///
/// Deterministic and minimal by design — the report line it renders to is
/// a pure function of this record, so a cached replay of the same netlist
/// pair is byte-identical to the fresh computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyVerdict {
    /// `true` when the SAT check returned UNSAT — a *proof* that the two
    /// networks compute identical primary-output functions.
    pub equivalent: bool,
    /// For a non-equivalent pair: the distinguishing input vector as a bit
    /// string (`'0'`/`'1'`, primary-input order), simulator-confirmed.
    pub counterexample: Option<String>,
    /// For a non-equivalent pair: the index of a primary output the
    /// counterexample drives to different values.
    pub output_index: Option<usize>,
}

impl VerifyVerdict {
    /// The proven-equivalent verdict.
    pub fn equivalent() -> Self {
        VerifyVerdict { equivalent: true, counterexample: None, output_index: None }
    }

    /// A refuted verdict carrying its counterexample.
    pub fn counterexample(inputs: String, output_index: usize) -> Self {
        VerifyVerdict {
            equivalent: false,
            counterexample: Some(inputs),
            output_index: Some(output_index),
        }
    }

    fn json_fields(&self) -> String {
        match (&self.counterexample, self.output_index) {
            (Some(inputs), Some(output_index)) => format!(
                "\"equivalent\":{},\"counterexample\":{},\"output_index\":{}",
                self.equivalent,
                escape_string(inputs),
                output_index
            ),
            _ => format!("\"equivalent\":{}", self.equivalent),
        }
    }
}

/// Terminal result of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The flow completed; the QoR record is attached.
    Done(DesignQor),
    /// A `verify` job completed with an equivalence verdict (either way —
    /// "not equivalent" is a successful check, not a failure).
    Verified(VerifyVerdict),
    /// The job failed (parse error, flow error, or captured panic).
    Failed(String),
}

/// A finished job: the submission name, its outcome, and whether the
/// result was served from the cache (provenance only — not serialized).
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Submission name ([`crate::Job::name`]).
    pub job: String,
    /// What happened.
    pub outcome: JobOutcome,
    /// `true` when the result came from the cache without recompute.
    /// Excluded from [`JobReport::to_jsonl`] so cached replays are
    /// byte-identical to fresh runs.
    pub cached: bool,
}

impl JobReport {
    /// `true` when the job completed — with a QoR record, or (for a
    /// `verify` job) with an equivalence verdict of either polarity.
    pub fn is_done(&self) -> bool {
        matches!(self.outcome, JobOutcome::Done(_) | JobOutcome::Verified(_))
    }

    /// The QoR record of a completed job.
    pub fn qor(&self) -> Option<&DesignQor> {
        match &self.outcome {
            JobOutcome::Done(qor) => Some(qor),
            JobOutcome::Verified(_) | JobOutcome::Failed(_) => None,
        }
    }

    /// Serializes the report as one JSONL line (no trailing newline).
    ///
    /// `{"job":…,"status":"done",…qor fields…}` on success,
    /// `{"job":…,"status":"verified","equivalent":…}` for a verify job
    /// (plus `counterexample` and `output_index` when not equivalent),
    /// `{"job":…,"status":"failed","error":…}` on failure.
    pub fn to_jsonl(&self) -> String {
        match &self.outcome {
            JobOutcome::Done(qor) => format!(
                "{{\"job\":{},\"status\":\"done\",{}}}",
                escape_string(&self.job),
                qor.json_fields()
            ),
            JobOutcome::Verified(verdict) => format!(
                "{{\"job\":{},\"status\":\"verified\",{}}}",
                escape_string(&self.job),
                verdict.json_fields()
            ),
            JobOutcome::Failed(error) => format!(
                "{{\"job\":{},\"status\":\"failed\",\"error\":{}}}",
                escape_string(&self.job),
                escape_string(error)
            ),
        }
    }
}

/// Sorts report lines into the canonical order (plain lexicographic sort
/// of the whole line) — the `--sort` mode of the CLI.  Because a job's
/// line is independent of scheduling, sorted batch output is
/// byte-identical for every worker count.
pub fn canonical_sort(lines: &mut [String]) {
    lines.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qor() -> DesignQor {
        DesignQor {
            name: "c432".into(),
            gate_count: 321,
            initial_delay_ns: 12.5,
            gsg_final_delay_ns: 11.0,
            gs_final_delay_ns: 10.75,
            combined_final_delay_ns: 10.5,
            gs_final_area_um2: 4000.0,
            combined_final_area_um2: 4100.25,
            gsg_swaps: 17,
            gsg_es_swaps: 2,
            combined_es_swaps: 3,
            gs_resized: 40,
            legalized: true,
            hpwl_um: 123456.75,
            max_displacement_um: 42.5,
        }
    }

    #[test]
    fn done_line_is_flat_json_with_the_qor_contract_fields() {
        let report =
            JobReport { job: "c432".into(), outcome: JobOutcome::Done(qor()), cached: false };
        let line = report.to_jsonl();
        let pairs = parse_flat_object(&line).unwrap();
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "job",
                "status",
                "name",
                "gate_count",
                "initial_delay_ns",
                "gsg_final_delay_ns",
                "gs_final_delay_ns",
                "combined_final_delay_ns",
                "gs_final_area_um2",
                "combined_final_area_um2",
                "gsg_swaps",
                "gsg_es_swaps",
                "combined_es_swaps",
                "gs_resized",
                "legalized",
                "hpwl_um",
                "max_displacement_um",
            ]
        );
        assert_eq!(pairs[1].1.as_str(), Some("done"));
        assert_eq!(pairs[4].1.as_num(), Some(12.5));
        assert_eq!(pairs[14].1.as_bool(), Some(true));
        assert_eq!(pairs[15].1.as_num(), Some(123456.75));
    }

    #[test]
    fn cached_flag_does_not_change_the_line() {
        let fresh = JobReport { job: "a".into(), outcome: JobOutcome::Done(qor()), cached: false };
        let cached = JobReport { cached: true, ..fresh.clone() };
        assert_eq!(fresh.to_jsonl(), cached.to_jsonl());
    }

    #[test]
    fn verified_lines_are_minimal_and_deterministic() {
        let equivalent = JobReport {
            job: "pair".into(),
            outcome: JobOutcome::Verified(VerifyVerdict::equivalent()),
            cached: false,
        };
        assert_eq!(
            equivalent.to_jsonl(),
            "{\"job\":\"pair\",\"status\":\"verified\",\"equivalent\":true}"
        );
        assert!(equivalent.is_done());
        assert!(equivalent.qor().is_none());

        let refuted = JobReport {
            job: "pair".into(),
            outcome: JobOutcome::Verified(VerifyVerdict::counterexample("0110".into(), 2)),
            cached: false,
        };
        assert_eq!(
            refuted.to_jsonl(),
            concat!(
                "{\"job\":\"pair\",\"status\":\"verified\",\"equivalent\":false,",
                "\"counterexample\":\"0110\",\"output_index\":2}"
            )
        );
        assert!(refuted.is_done(), "a refuted check still *completed*");
        // The cached flag never leaks into the line.
        let cached = JobReport { cached: true, ..refuted.clone() };
        assert_eq!(cached.to_jsonl(), refuted.to_jsonl());
    }

    #[test]
    fn failed_line_carries_the_error() {
        let report = JobReport {
            job: "bad".into(),
            outcome: JobOutcome::Failed("parse error at line 1: nope".into()),
            cached: false,
        };
        let pairs = parse_flat_object(&report.to_jsonl()).unwrap();
        assert_eq!(pairs[1].1.as_str(), Some("failed"));
        assert!(pairs[2].1.as_str().unwrap().contains("line 1"));
    }

    #[test]
    fn qor_json_round_trips_byte_identically() {
        let original = qor();
        let payload = original.to_json();
        let decoded = DesignQor::from_json(&payload).unwrap();
        assert_eq!(decoded, original);
        assert_eq!(decoded.to_json(), payload, "re-render is byte-identical");
    }

    #[test]
    fn qor_from_json_is_strict() {
        let good = qor().to_json();
        assert!(DesignQor::from_json("not json").is_err());
        assert!(DesignQor::from_json("{}").is_err(), "missing fields rejected");
        let wrong_type = good.replace("\"gate_count\":321", "\"gate_count\":\"many\"");
        assert!(DesignQor::from_json(&wrong_type).is_err());
        let fractional = good.replace("\"gsg_swaps\":17", "\"gsg_swaps\":17.5");
        assert!(DesignQor::from_json(&fractional).is_err(), "counts must be integers");
    }

    #[test]
    fn canonical_sort_is_plain_lexicographic() {
        let mut lines = vec!["b".to_string(), "a".to_string(), "c".to_string()];
        canonical_sort(&mut lines);
        assert_eq!(lines, ["a", "b", "c"]);
    }
}
