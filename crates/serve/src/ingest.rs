//! Ingestion: turning job files, benchmark suites and `.blif` directory
//! trees into [`Job`] batches with deterministic ordering.

use std::path::Path;

use rapids_flow::netlist::{blif, NetlistError};
use rapids_flow::PipelineConfig;

use crate::job::Job;

/// One job per `.blif` file under `root`, found recursively in the
/// deterministic order of [`blif::discover_files`] (which
/// `table1 --blif-dir` uses too) and named by the file's path relative to
/// `root` with the extension stripped (`sub/foo.blif` → `sub/foo`), so
/// names stay unique and stable across machines.
///
/// # Errors
///
/// [`NetlistError::Io`] if the directory walk fails.  Unparsable *files*
/// are not an error here — parsing happens when the job runs, and a bad
/// file yields a `Failed` report rather than sinking the batch.
pub fn jobs_from_blif_dir(
    root: impl AsRef<Path>,
    config: &PipelineConfig,
) -> Result<Vec<Job>, NetlistError> {
    let root = root.as_ref();
    let jobs = blif::discover_files(root)?
        .into_iter()
        .map(|path| {
            let name = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .with_extension("")
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            Job::blif_file(name, path, config)
        })
        .collect();
    Ok(jobs)
}

/// One job per named suite benchmark (pass
/// [`rapids_circuits::suite_names`] for the whole Table 1 suite).
pub fn suite_jobs(names: &[&str], config: &PipelineConfig) -> Vec<Job> {
    names.iter().map(|name| Job::suite(*name, config)).collect()
}

/// Parses a JSONL job file: one job spec per line, blank lines and `#`
/// comment lines skipped (see [`Job::from_spec_line`] for the schema).
///
/// # Errors
///
/// The first offending line, as `(1-based line number, description)`.
pub fn jobs_from_jsonl(text: &str, config: &PipelineConfig) -> Result<Vec<Job>, (usize, String)> {
    let mut jobs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let job = Job::from_spec_line(line, config).map_err(|e| (lineno + 1, e))?;
        jobs.push(job);
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSource;
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rapids_serve_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn discovery_is_recursive_sorted_and_blif_only() {
        let dir = scratch_dir("discover");
        std::fs::create_dir_all(dir.join("sub/inner")).unwrap();
        std::fs::write(dir.join("b.blif"), ".model b\n.end\n").unwrap();
        std::fs::write(dir.join("a.blif"), ".model a\n.end\n").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        std::fs::write(dir.join("sub/inner/c.blif"), ".model c\n.end\n").unwrap();

        let found = blif::discover_files(&dir).unwrap();
        let rel: Vec<String> = found
            .iter()
            .map(|p| p.strip_prefix(&dir).unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(rel, ["a.blif", "b.blif", "sub/inner/c.blif"]);

        let jobs = jobs_from_blif_dir(&dir, &PipelineConfig::fast()).unwrap();
        let names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "sub/inner/c"]);
        assert!(jobs.iter().all(|j| matches!(j.source, JobSource::BlifFile(_))));

        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(blif::discover_files(&dir), Err(NetlistError::Io { .. })));
    }

    #[test]
    fn jsonl_job_files_parse_with_comments_and_report_bad_lines() {
        let config = PipelineConfig::fast();
        let text = "# batch\n\n{\"suite\":\"c432\"}\n{\"blif\":\"x.blif\",\"es\":true}\n";
        let jobs = jobs_from_jsonl(text, &config).unwrap();
        assert_eq!(jobs.len(), 2);
        assert!(jobs[1].config.optimizer.include_inverting_swaps);

        let err = jobs_from_jsonl("{\"suite\":\"ok\"}\n{\"nope\":1}\n", &config).unwrap_err();
        assert_eq!(err.0, 2);
    }

    #[test]
    fn suite_jobs_carry_the_config() {
        let config = PipelineConfig::fast();
        let jobs = suite_jobs(&["alu2", "c432"], &config);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].name, "alu2");
        assert_eq!(jobs[1].config, config);
    }
}
