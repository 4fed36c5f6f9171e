//! The batch scheduler: a bounded worker pool over a shared job queue,
//! streaming results as each design finishes.
//!
//! Scheduling never influences results — a job's report is a pure function
//! of its netlist and config ([`Engine::execute`]) — so the only thing the
//! worker count changes is completion order.  Callers that need canonical
//! output sort the lines ([`crate::report::canonical_sort`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use crate::engine::Engine;
use crate::job::Job;
use crate::report::JobReport;

/// What a finished batch looked like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSummary {
    /// Jobs that completed with a QoR report.
    pub done: usize,
    /// Jobs that completed with a captured error.
    pub failed: usize,
    /// Among `done`, how many were served from the cache.
    pub cached: usize,
}

/// A bounded worker pool around a shared [`Engine`].
#[derive(Debug)]
pub struct BatchServer {
    engine: Engine,
    workers: usize,
}

impl BatchServer {
    /// A server executing at most `workers` jobs concurrently (0 is
    /// treated as 1).  The engine — and with it the result cache — is
    /// shared by every batch this server runs.
    pub fn new(engine: Engine, workers: usize) -> Self {
        BatchServer { engine, workers: workers.max(1) }
    }

    /// The shared execution core (cache probes, base config).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Configured worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs a batch, invoking `on_result` on the caller's thread as each
    /// job finishes (completion order).  Blocks until every job has
    /// finished.
    pub fn run_streaming<F: FnMut(&JobReport)>(
        &self,
        jobs: &[Job],
        mut on_result: F,
    ) -> BatchSummary {
        let next = AtomicUsize::new(0);
        let mut done = 0;
        let mut failed = 0;
        let mut cached = 0;

        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel::<JobReport>();
            for _ in 0..self.workers.min(jobs.len()) {
                let tx = tx.clone();
                let next = &next;
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    // Unclaimed jobs behind this one (a level, not a rate).
                    self.engine.set_queue_depth(jobs.len().saturating_sub(i + 1) as i64);
                    let report = self.engine.execute(&jobs[i]);
                    // Manual-tick telemetry samples here — a quiescent
                    // point with respect to this job: its metrics are
                    // fully recorded, its report not yet handed on.
                    self.engine.telemetry_tick();
                    if tx.send(report).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            // Streaming happens here, on the calling thread, as workers
            // finish designs — no barrier on the whole batch.
            for report in rx {
                match report.is_done() {
                    true => done += 1,
                    false => failed += 1,
                }
                if report.cached {
                    cached += 1;
                }
                on_result(&report);
            }
        });
        BatchSummary { done, failed, cached }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_flow::PipelineConfig;

    fn server(workers: usize) -> BatchServer {
        BatchServer::new(Engine::new(PipelineConfig::fast()), workers)
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let summary = server(4).run_streaming(&[], |_| panic!("no results expected"));
        assert_eq!(summary, BatchSummary { done: 0, failed: 0, cached: 0 });
    }

    #[test]
    fn statuses_track_outcomes() {
        let s = server(2);
        let base = s.engine().base_config().clone();
        let jobs = vec![
            Job::suite("c432", &base),
            Job::blif_text("poison", "garbage", &base),
            Job::suite("c432", &base),
        ];
        let mut lines = Vec::new();
        let summary = s.run_streaming(&jobs, |r| lines.push(r.to_jsonl()));
        assert_eq!((summary.done, summary.failed), (2, 1));
        assert_eq!(lines.len(), 3);
    }
}
