//! The batch-mode liveness heartbeat (`--heartbeat-s N`): a thread that
//! reports progress every period while a long batch runs.
//!
//! Extracted from the `rapids-serve` binary so the cadence logic is
//! testable and shared.  It runs on the crate's stoppable timer thread
//! (shared with `Engine`'s deadline watchdog and the telemetry
//! [`WallClockSampler`](crate::telemetry::WallClockSampler)), so dropping
//! the handle wakes and joins it immediately — even mid-period with an
//! hour-long cadence.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::timer::Timer;

/// A live heartbeat thread; dropping it stops and joins the thread.
#[derive(Debug)]
pub struct Heartbeat {
    _timer: Timer,
}

impl Heartbeat {
    /// Spawns a heartbeat that calls `emit(done, total)` every `period`
    /// (first beat one period from now) until dropped, reading progress
    /// from `completed`.
    pub fn arm(
        period: Duration,
        total: usize,
        completed: Arc<AtomicUsize>,
        mut emit: impl FnMut(usize, usize) + Send + 'static,
    ) -> Heartbeat {
        let timer = Timer::spawn(period.max(Duration::from_millis(1)), move || {
            emit(completed.load(Ordering::Relaxed), total);
            true
        });
        Heartbeat { _timer: timer }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Instant;

    #[test]
    fn beats_carry_progress_and_stop_on_drop() {
        let completed = Arc::new(AtomicUsize::new(0));
        let beats = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&beats);
        let heartbeat = Heartbeat::arm(
            Duration::from_millis(15),
            10,
            Arc::clone(&completed),
            move |done, total| sink.lock().unwrap().push((done, total)),
        );
        completed.store(4, Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_secs(10);
        while beats.lock().unwrap().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(heartbeat);
        let beats = beats.lock().unwrap();
        assert!(!beats.is_empty(), "at least one beat must fire");
        assert!(beats.iter().all(|&(done, total)| done <= 10 && total == 10));
    }

    #[test]
    fn drop_joins_promptly_even_with_a_long_period() {
        let heartbeat =
            Heartbeat::arm(Duration::from_secs(3600), 1, Arc::new(AtomicUsize::new(0)), |_, _| {});
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        drop(heartbeat);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "drop must wake the condvar, not wait out the period"
        );
    }
}
