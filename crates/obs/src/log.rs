//! One leveled diagnostic sink for the whole stack.
//!
//! Library layers print progress and recovery summaries through
//! [`error!`](crate::error)/[`warn!`](crate::warn)/[`info!`](crate::info)/
//! [`debug!`](crate::debug) instead of raw `eprintln!`, so a binary flag
//! (`--quiet`) can silence the chatter in one place.  Messages pass
//! through **verbatim** — no timestamp, level tag, or prefix — because
//! several stderr lines are byte-for-byte CI contracts (the result-store
//! stats line, the serve summary); the sink filters, it never reformats.
//!
//! The default level is [`Level::Info`]; `Debug` lines are opt-in.

use std::sync::atomic::{AtomicU8, Ordering};

/// Severity, most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Failures the caller cannot ignore; never silenced by `--quiet`.
    Error = 0,
    /// Something degraded but handled (a truncated store tail, a skipped
    /// file).
    Warn = 1,
    /// Progress and end-of-run summaries; the default ceiling.
    Info = 2,
    /// Chatty internals, off by default.
    Debug = 3,
}

static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Sets the most verbose level that still prints.
pub fn set_max_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether `level` currently prints.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Prints `args` to stderr, verbatim plus a newline, if `level` clears
/// the ceiling.  Prefer the macros: their `format_args!` is built only
/// when the line will print.
pub fn log(level: Level, args: std::fmt::Arguments<'_>) {
    if enabled(level) {
        eprintln!("{args}");
    }
}

/// Logs at [`Level::Error`] (never silenced by `--quiet`).
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Error) {
            $crate::log::log($crate::log::Level::Error, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Warn) {
            $crate::log::log($crate::log::Level::Warn, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`] (the default ceiling).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Info) {
            $crate::log::log($crate::log::Level::Info, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Debug`] (off unless raised).
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Debug) {
            $crate::log::log($crate::log::Level::Debug, format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The ceiling is process-global; tests that move it serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn default_ceiling_is_info() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_max_level(Level::Info);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
    }

    #[test]
    fn quiet_keeps_errors_only() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_max_level(Level::Error);
        assert!(enabled(Level::Error));
        assert!(!enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_max_level(Level::Info);
    }

    #[test]
    fn level_order_matches_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }
}
