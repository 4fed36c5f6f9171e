//! The one stoppable timer thread behind the per-job deadline watchdog,
//! the batch heartbeat and the telemetry wall-clock sampler.
//!
//! The thread sleeps on a condvar deadline rather than poll-sleeping, so
//! dropping the handle wakes and joins it immediately — even mid-period
//! with an hour-long cadence.  The lock is released while the callback
//! runs, so a drop during a callback sets the stop flag at once and joins
//! as soon as the callback returns.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A live timer thread; dropping it stops and joins the thread.
#[derive(Debug)]
pub(crate) struct Timer {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Timer {
    /// Spawns a thread that calls `fire` one `period` from now, then once
    /// per further `period` for as long as `fire` returns `true` and the
    /// handle is alive.  A firing past `Instant`'s range never comes: the
    /// thread then only waits to be stopped.
    pub(crate) fn spawn(
        period: Duration,
        mut fire: impl FnMut() -> bool + Send + 'static,
    ) -> Timer {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let shared = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let (flag, wake) = &*shared;
            let mut next = Instant::now().checked_add(period);
            let mut stopped = flag.lock().expect("timer lock poisoned");
            loop {
                if *stopped {
                    return;
                }
                let Some(due) = next else {
                    stopped = wake.wait(stopped).expect("timer lock poisoned");
                    continue;
                };
                let now = Instant::now();
                if now >= due {
                    drop(stopped);
                    if !fire() {
                        return;
                    }
                    next = due.checked_add(period);
                    stopped = flag.lock().expect("timer lock poisoned");
                    continue;
                }
                stopped = wake.wait_timeout(stopped, due - now).expect("timer lock poisoned").0;
            }
        });
        Timer { stop, handle: Some(handle) }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        let (flag, wake) = &*self.stop;
        // A bare flag is valid in any state, and drop must not panic.
        *flag.lock().unwrap_or_else(PoisonError::into_inner) = true;
        wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_period_past_instants_range_never_fires_and_stops_promptly() {
        let mut timer = Timer::spawn(Duration::MAX, || panic!("a timer past range fired"));
        let start = Instant::now();
        // Stop it as `Drop` does, but keep the thread's verdict.
        let (flag, wake) = &*timer.stop;
        *flag.lock().unwrap() = true;
        wake.notify_all();
        let handle = timer.handle.take().expect("a live timer has a thread");
        assert!(handle.join().is_ok(), "the timer thread panicked");
        assert!(start.elapsed() < Duration::from_secs(5), "the stop must wake the thread");
    }
}
