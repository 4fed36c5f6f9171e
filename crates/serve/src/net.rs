//! The TCP line protocol: the same JSONL job/report exchange as the CLI,
//! served over `std::net::TcpListener` for true long-running use.
//!
//! Protocol (newline-delimited, UTF-8, one JSON object per line):
//!
//! * a **job spec** line ([`crate::Job::from_spec_line`] schema) runs the
//!   job and answers with its report line — cached results answer without
//!   recompute, and the cache persists across connections;
//! * `{"cmd":"ping"}` answers `{"ok":"pong"}` (liveness probe);
//! * `{"cmd":"stats"}` answers the engine counters (optimizer runs, cache
//!   hits, cached results, LRU evictions) plus the per-job latency
//!   percentiles (`job_p50_us`, `job_p99_us`);
//! * `{"cmd":"metrics"}` answers the full metrics snapshot — the
//!   process-global registry (timing, sizing, legalize, cec counters)
//!   merged with this engine's per-instance counters and latency
//!   histogram — as one JSON object line;
//! * `{"cmd":"series","name":…,"last":K}` answers a telemetry series
//!   window — `{"ok":"series","name":…,"points":[[tick,value],…]}` — from
//!   the armed [`TelemetryPlane`](crate::telemetry::TelemetryPlane)
//!   (`last` 0 or absent = all retained points); rejected when telemetry
//!   is off or the series is unknown;
//! * `{"cmd":"alerts"}` answers `{"ok":"alerts","alerts":[…],"slo":[…]}` —
//!   recent change-detection alerts plus SLO status (rejected when
//!   telemetry is off);
//! * `{"cmd":"prom"}` answers the merged metrics snapshot in
//!   Prometheus-style text exposition — the one **multi-line** reply,
//!   terminated by a line reading `# EOF`;
//! * `{"cmd":"shutdown"}` answers `{"ok":"shutdown"}` and stops the
//!   server: no new connections are accepted, and connections already open
//!   are drained before the listener returns;
//! * a malformed line — bad JSON, invalid UTF-8, or longer than
//!   [`MAX_LINE_BYTES`] — answers `{"status":"rejected","error":…}`; the
//!   connection stays up;
//! * when the server is at its admission cap (`--max-pending`), a job line
//!   answers `{"status":"busy",…}` *without* running the job — backpressure
//!   instead of unbounded queueing.
//!
//! Connections are served **concurrently**, one thread per connection over
//! the shared [`Engine`] (whose cache and counters are thread-safe), so a
//! client holding its connection open never blocks another.  Within one
//! connection each line is answered before the next is read: ordering is
//! the client's, so a driving script can rely on request/response pairing
//! without message ids.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::engine::Engine;
use crate::faults::FaultPoint;
use crate::job::Job;
use rapids_obs::json::{escape_string, parse_flat_object};

/// Hard cap on one protocol line (bytes, newline excluded).  A line past
/// the cap is drained and rejected without buffering it, so a hostile
/// client cannot balloon server memory.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Serves the line protocol on an already-bound listener until a client
/// sends `{"cmd":"shutdown"}`.  Returns the number of job lines served
/// (across all connections).
///
/// # Errors
///
/// Only listener-level `accept` failures propagate; per-connection I/O
/// errors just close that connection.
pub fn serve_connections(engine: &Engine, listener: &TcpListener) -> std::io::Result<usize> {
    serve_connections_bounded(engine, listener, 0)
}

/// [`serve_connections`] with an admission cap: at most `max_pending` job
/// lines execute concurrently across all connections (`0` = unbounded).
/// A job line arriving at the cap is answered `{"status":"busy",…}`
/// without being run; control lines (`ping`, `stats`, `shutdown`) always
/// get through.
///
/// # Errors
///
/// Only listener-level `accept` failures propagate; per-connection I/O
/// errors just close that connection.
pub fn serve_connections_bounded(
    engine: &Engine,
    listener: &TcpListener,
    max_pending: usize,
) -> std::io::Result<usize> {
    let served = AtomicUsize::new(0);
    let pending = AtomicUsize::new(0);
    let shutdown = AtomicBool::new(false);
    // Read-half handles of the connections currently open, keyed by a
    // connection id and removed as each handler exits (so a long-running
    // daemon holds handles — and file descriptors — only for *live*
    // connections).  Shutdown uses them to unblock handlers parked in
    // `read_line` on idle clients.
    let open: Mutex<HashMap<u64, TcpStream>> = Mutex::new(HashMap::new());
    // Set once the accept loop has exited; the shutdown waker retries its
    // loopback poke until this flips, so a single lost poke cannot leave
    // the loop parked in `accept` forever.
    let accept_loop_exited = AtomicBool::new(false);
    let mut next_id = 0u64;
    let mut accept_error = None;
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                // The stream that woke us (or any racing client) is
                // dropped unanswered; open connections keep draining until
                // the scope joins their handlers.
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(e) => {
                    accept_error = Some(e);
                    break;
                }
            };
            // Fault point: an injected accept failure refuses this one
            // connection (dropping the stream closes it) and keeps serving.
            if engine.fault_plan().fire(FaultPoint::ConnectionAccept, None, None).is_err() {
                continue;
            }
            let id = next_id;
            next_id += 1;
            // An untracked connection could park a handler past shutdown
            // forever, so a connection we cannot track (fd pressure) is
            // refused rather than served: dropping the stream closes it.
            let handle = match stream.try_clone() {
                Ok(handle) => handle,
                Err(_) => continue,
            };
            open.lock().expect("open-connection lock poisoned").insert(id, handle);
            let served = &served;
            let pending = &pending;
            let shutdown = &shutdown;
            let open = &open;
            let accept_loop_exited = &accept_loop_exited;
            scope.spawn(move || {
                // A dropped client must not take the server down.
                let requested_shutdown =
                    handle_connection(engine, stream, served, pending, max_pending)
                        .unwrap_or(false);
                open.lock().expect("open-connection lock poisoned").remove(&id);
                if requested_shutdown && !shutdown.swap(true, Ordering::SeqCst) {
                    wake_acceptor(listener, accept_loop_exited);
                }
            });
        }
        accept_loop_exited.store(true, Ordering::SeqCst);
        // Drain, don't hang: close the *read* half of every connection
        // still open, so a handler parked on an idle client sees EOF and
        // exits, while a handler mid-job can still write its response on
        // the intact write half.  Racing handler exits are fine — shutting
        // down an already-closed socket errors harmlessly.
        for stream in open.lock().expect("open-connection lock poisoned").values() {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
    });
    match accept_error {
        Some(e) => Err(e),
        None => Ok(served.into_inner()),
    }
}

/// Unblocks an accept loop parked in `accept` after the shutdown flag was
/// set, by connecting to its own listener.  A wildcard bind (0.0.0.0 / ::)
/// is not a connectable destination, so the poke aims at the loopback of
/// the same family.
///
/// One fire-and-forget connect is not enough: the poke can fail
/// transiently (ephemeral-port pressure under load), or the queued
/// connection can be reaped before the loop wakes — and with no further
/// client traffic the loop would park forever.  So the poke retries until
/// the loop confirms it exited (or a generous retry budget runs out, after
/// which the next real connection still unblocks the loop).
fn wake_acceptor(listener: &TcpListener, accept_loop_exited: &AtomicBool) {
    let Ok(mut addr) = listener.local_addr() else { return };
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            std::net::SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            std::net::SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    for _ in 0..200 {
        if accept_loop_exited.load(Ordering::SeqCst) {
            return;
        }
        drop(TcpStream::connect_timeout(&addr, std::time::Duration::from_millis(100)));
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// One bounded line read off a connection.
enum LineRead {
    /// A complete line within the cap.
    Line(String),
    /// The line exceeded [`MAX_LINE_BYTES`]; its bytes were drained, not
    /// buffered.
    TooLong,
    /// The line was not valid UTF-8.
    BadUtf8,
    /// Clean end of stream.
    Eof,
}

/// Reads one `\n`-terminated line, buffering at most `max` bytes.  Past
/// the cap the rest of the line is consumed and discarded, so the
/// connection re-synchronizes on the next newline.
fn read_bounded_line(reader: &mut impl BufRead, max: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut truncated = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            if buf.is_empty() && !truncated {
                return Ok(LineRead::Eof);
            }
            break; // EOF terminates a final unterminated line.
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !truncated {
                    buf.extend_from_slice(&chunk[..pos]);
                }
                reader.consume(pos + 1);
                break;
            }
            None => {
                let n = chunk.len();
                if !truncated {
                    buf.extend_from_slice(chunk);
                    if buf.len() > max {
                        truncated = true;
                        buf.clear();
                    }
                }
                reader.consume(n);
            }
        }
    }
    if truncated || buf.len() > max {
        return Ok(LineRead::TooLong);
    }
    match String::from_utf8(buf) {
        Ok(line) => Ok(LineRead::Line(line)),
        Err(_) => Ok(LineRead::BadUtf8),
    }
}

/// Serves one connection to completion; `Ok(true)` when the client asked
/// for a server shutdown.
fn handle_connection(
    engine: &Engine,
    stream: TcpStream,
    served: &AtomicUsize,
    pending: &AtomicUsize,
    max_pending: usize,
) -> std::io::Result<bool> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        let (response, requested_shutdown) = match read_bounded_line(&mut reader, MAX_LINE_BYTES)? {
            LineRead::Eof => return Ok(false),
            LineRead::TooLong => {
                (reject_line(format!("line exceeds {MAX_LINE_BYTES} bytes")), false)
            }
            LineRead::BadUtf8 => (reject_line("line is not valid utf-8".to_string()), false),
            LineRead::Line(line) => {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                answer_line(engine, line, served, pending, max_pending)
            }
        };
        // Fault point: an injected emit failure abandons this connection
        // (the client sees it closed); the server and its other
        // connections keep going.
        if engine.fault_plan().fire(FaultPoint::ReportEmit, None, None).is_err() {
            return Ok(false);
        }
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if requested_shutdown {
            return Ok(true);
        }
    }
}

fn reject_line(error: String) -> String {
    format!("{{\"status\":\"rejected\",\"error\":{}}}", escape_string(&error))
}

/// Answers one protocol line; the flag is `true` for a shutdown request.
fn answer_line(
    engine: &Engine,
    line: &str,
    served: &AtomicUsize,
    pending: &AtomicUsize,
    max_pending: usize,
) -> (String, bool) {
    let reject = |error: String| (reject_line(error), false);
    let pairs = match parse_flat_object(line) {
        Ok(pairs) => pairs,
        Err(e) => return reject(e),
    };
    let field = |key: &str| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let command = field("cmd").map(|v| v.as_str().unwrap_or("").to_string());
    match command.as_deref() {
        Some("ping") => ("{\"ok\":\"pong\"}".to_string(), false),
        Some("shutdown") => ("{\"ok\":\"shutdown\"}".to_string(), true),
        Some("stats") => {
            let latency = engine.job_latency_us();
            (
                format!(
                    concat!(
                        "{{\"ok\":\"stats\",\"optimizer_runs\":{},\"cache_hits\":{},",
                        "\"cached_results\":{},\"evictions\":{},\"disk_hits\":{},",
                        "\"recovered_records\":{},\"dropped_corrupt_records\":{},",
                        "\"verify_runs\":{},\"cached_verifications\":{},",
                        "\"jobs_timed\":{},\"job_p50_us\":{},\"job_p99_us\":{}}}"
                    ),
                    engine.optimizer_runs(),
                    engine.cache_hits(),
                    engine.cached_results(),
                    engine.cache_evictions(),
                    engine.disk_hits(),
                    engine.recovered_records(),
                    engine.dropped_corrupt_records(),
                    engine.verify_runs(),
                    engine.cached_verifications(),
                    latency.count,
                    latency.p50(),
                    latency.p99(),
                ),
                false,
            )
        }
        Some("metrics") => (engine.metrics_snapshot().to_json_line(), false),
        Some("prom") => {
            // The one multi-line reply: exposition text, then a `# EOF`
            // terminator line so stream clients know where it ends.
            (format!("{}# EOF", engine.metrics_snapshot().to_prometheus_text()), false)
        }
        Some("series") => {
            let Some(plane) = engine.telemetry() else {
                return reject("telemetry is not armed (start with --telemetry-s)".to_string());
            };
            let Some(name) = field("name").and_then(|v| v.as_str()).map(str::to_string) else {
                return reject("series needs a string `name`".to_string());
            };
            let last = field("last").and_then(|v| v.as_num()).unwrap_or(0.0).max(0.0) as usize;
            match plane.series_json(&name, last) {
                Some(reply) => (reply, false),
                None => reject(format!("unknown series `{name}`")),
            }
        }
        Some("alerts") => match engine.telemetry() {
            Some(plane) => (plane.alerts_json(), false),
            None => reject("telemetry is not armed (start with --telemetry-s)".to_string()),
        },
        Some(other) => reject(format!("unknown command `{other}`")),
        None => match Job::from_spec_line(line, engine.base_config()) {
            Ok(job) => {
                if !admit(pending, max_pending) {
                    return (
                        format!(
                            "{{\"status\":\"busy\",\"error\":{}}}",
                            escape_string(&format!(
                                "server at capacity ({max_pending} pending jobs)"
                            ))
                        ),
                        false,
                    );
                }
                served.fetch_add(1, Ordering::Relaxed);
                let report = engine.execute(&job);
                pending.fetch_sub(1, Ordering::AcqRel);
                // Manual-tick telemetry samples after each served job —
                // the listener-mode quiescent point.
                engine.telemetry_tick();
                (report.to_jsonl(), false)
            }
            Err(e) => reject(e),
        },
    }
}

/// Reserves one admission slot; `false` when the cap (`0` = unbounded) is
/// already fully occupied.
fn admit(pending: &AtomicUsize, max_pending: usize) -> bool {
    loop {
        let current = pending.load(Ordering::Acquire);
        if max_pending > 0 && current >= max_pending {
            return false;
        }
        if pending
            .compare_exchange(current, current + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapids_flow::PipelineConfig;

    struct Client {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: std::net::SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).unwrap();
            Client { writer: stream.try_clone().unwrap(), reader: BufReader::new(stream) }
        }

        fn ask(&mut self, line: &str) -> String {
            writeln!(self.writer, "{line}").unwrap();
            self.writer.flush().unwrap();
            let mut answer = String::new();
            self.reader.read_line(&mut answer).unwrap();
            answer.trim().to_string()
        }
    }

    /// End-to-end over a real socket: jobs, cache persistence across
    /// connections, rejection, ping, shutdown.
    #[test]
    fn line_protocol_over_loopback() {
        let engine = Engine::new(PipelineConfig::fast());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        std::thread::scope(|s| {
            let server = s.spawn(|| serve_connections(&engine, &listener).unwrap());

            let talk = |lines: &[&str]| -> Vec<String> {
                let mut client = Client::connect(addr);
                lines.iter().map(|line| client.ask(line)).collect()
            };

            let first = talk(&[r#"{"cmd":"ping"}"#, r#"{"suite":"c432"}"#, "not json"]);
            assert_eq!(first[0], "{\"ok\":\"pong\"}");
            assert!(
                first[1].contains("\"status\":\"done\"") && first[1].contains("\"name\":\"c432\"")
            );
            assert!(first[2].contains("\"status\":\"rejected\""));

            // Second connection: same design is served from the cache.
            let second =
                talk(&[r#"{"suite":"c432"}"#, r#"{"cmd":"stats"}"#, r#"{"cmd":"shutdown"}"#]);
            assert_eq!(second[0], first[1], "cached replay must be byte-identical");
            assert!(
                second[1].contains("\"optimizer_runs\":1")
                    && second[1].contains("\"cache_hits\":1")
                    && second[1].contains("\"evictions\":0")
            );
            assert_eq!(second[2], "{\"ok\":\"shutdown\"}");

            assert_eq!(server.join().unwrap(), 2, "two job lines were served");
        });
    }

    /// A `verify` job over the wire: proven-equivalent and refuted pairs
    /// both answer structured verdict lines, and a resubmitted pair is
    /// served from the verdict cache byte-identically.
    #[test]
    fn verify_jobs_over_loopback() {
        let engine = Engine::new(PipelineConfig::fast());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/fixtures");

        std::thread::scope(|s| {
            let server = s.spawn(|| serve_connections(&engine, &listener).unwrap());
            let mut client = Client::connect(addr);

            let equivalent = client.ask(&format!(
                r#"{{"blif":"{fixtures}/tiny_mux.blif","verify_blif":"{fixtures}/tiny_mux_demorgan.blif","name":"eq"}}"#
            ));
            assert_eq!(equivalent, "{\"job\":\"eq\",\"status\":\"verified\",\"equivalent\":true}");

            let refuted = client.ask(&format!(
                r#"{{"blif":"{fixtures}/tiny_mux.blif","verify_blif":"{fixtures}/tiny_mux_mutated.blif","name":"ne"}}"#
            ));
            assert!(
                refuted.contains("\"equivalent\":false")
                    && refuted.contains("\"counterexample\":")
                    && refuted.contains("\"output_index\":1"),
                "{refuted}"
            );

            // Resubmission on a *new* connection: the verdict cache answers
            // byte-identically without re-running the SAT check.
            let mut second = Client::connect(addr);
            let replay = second.ask(&format!(
                r#"{{"blif":"{fixtures}/tiny_mux.blif","verify_blif":"{fixtures}/tiny_mux_demorgan.blif","name":"eq"}}"#
            ));
            assert_eq!(replay, equivalent, "cached verify replay must be byte-identical");
            let stats = second.ask(r#"{"cmd":"stats"}"#);
            assert!(
                stats.contains("\"verify_runs\":2") && stats.contains("\"cached_verifications\":2"),
                "{stats}"
            );
            assert_eq!(second.ask(r#"{"cmd":"shutdown"}"#), "{\"ok\":\"shutdown\"}");
            drop(client);
            drop(second);
            assert_eq!(server.join().unwrap(), 3, "three job lines were served");
        });
    }

    /// A shutdown must drain and return even while another client holds
    /// its connection open and idle — the server closes the read halves,
    /// so the parked handler sees EOF instead of blocking forever.
    #[test]
    fn shutdown_returns_despite_an_idle_open_connection() {
        let engine = Engine::new(PipelineConfig::fast());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_connections(&engine, &listener).unwrap());
            let mut idle = Client::connect(addr);
            assert_eq!(idle.ask(r#"{"cmd":"ping"}"#), "{\"ok\":\"pong\"}");
            let mut closer = Client::connect(addr);
            assert_eq!(closer.ask(r#"{"cmd":"shutdown"}"#), "{\"ok\":\"shutdown\"}");
            // `idle` is deliberately NOT dropped before the join: the
            // server must come back anyway.
            assert_eq!(server.join().unwrap(), 0, "no job lines were served");
            drop(idle);
            drop(closer);
        });
    }

    /// Two clients hold connections open *simultaneously*: the second
    /// completes a full exchange while the first is mid-session — which a
    /// serial accept loop cannot do — and the first keeps working after.
    #[test]
    fn concurrent_connections_over_loopback() {
        let engine = Engine::new(PipelineConfig::fast());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        std::thread::scope(|s| {
            let server = s.spawn(|| serve_connections(&engine, &listener).unwrap());

            let mut slow = Client::connect(addr);
            assert_eq!(slow.ask(r#"{"cmd":"ping"}"#), "{\"ok\":\"pong\"}", "slow is live");

            // While `slow` sits mid-session, a second client runs a whole
            // job exchange to completion.
            let mut fast = Client::connect(addr);
            let line = fast.ask(r#"{"suite":"c432","fast":true}"#);
            assert!(line.contains("\"status\":\"done\""), "{line}");

            // The first connection still works — and sees the shared
            // cache state the second client's job created.
            let replay = slow.ask(r#"{"suite":"c432","fast":true}"#);
            assert_eq!(replay, line, "shared cache answers byte-identically across connections");
            assert!(slow.ask(r#"{"cmd":"stats"}"#).contains("\"cache_hits\":1"));

            // Shutdown from one client drains, then stops the listener.
            assert_eq!(slow.ask(r#"{"cmd":"shutdown"}"#), "{\"ok\":\"shutdown\"}");
            drop(slow);
            drop(fast);
            assert_eq!(server.join().unwrap(), 2);
        });
    }

    /// An oversized line is drained and rejected with a structured error —
    /// and the *same connection* keeps working afterwards.
    #[test]
    fn oversized_line_is_rejected_and_the_connection_survives() {
        let engine = Engine::new(PipelineConfig::fast());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_connections(&engine, &listener).unwrap());
            let mut client = Client::connect(addr);

            let huge = "x".repeat(MAX_LINE_BYTES + 1);
            let answer = client.ask(&huge);
            assert!(
                answer.contains("\"status\":\"rejected\"")
                    && answer.contains("line exceeds 1048576 bytes"),
                "{answer}"
            );

            // Invalid UTF-8 gets the same treatment.
            client.writer.write_all(b"\"abc\xff\xfe\"\n").unwrap();
            client.writer.flush().unwrap();
            let mut answer = String::new();
            client.reader.read_line(&mut answer).unwrap();
            assert!(answer.contains("line is not valid utf-8"), "{answer}");

            // The connection re-synchronized: a normal exchange still works.
            assert_eq!(client.ask(r#"{"cmd":"ping"}"#), "{\"ok\":\"pong\"}");
            assert_eq!(client.ask(r#"{"cmd":"shutdown"}"#), "{\"ok\":\"shutdown\"}");
            assert_eq!(server.join().unwrap(), 0, "no job lines ran");
        });
    }

    /// Admission control: while one job occupies the single admission
    /// slot (held open by an injected hang), a second job line answers
    /// `busy` without running; control lines still get through; and once
    /// the slot frees, jobs are admitted again.
    #[test]
    fn admission_cap_answers_busy_without_running_the_job() {
        use crate::faults::FaultPlan;
        // The hang is scoped to c432 and cut by the job's own 1 s deadline.
        let engine = Engine::new(PipelineConfig::fast())
            .with_fault_plan(FaultPlan::parse("job-run@c432=delay:60000").unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_connections_bounded(&engine, &listener, 1).unwrap());

            // Client A submits the hanging job (answer comes ~1 s later).
            let mut a = Client::connect(addr);
            writeln!(a.writer, r#"{{"suite":"c432","fast":true,"timeout_s":1}}"#).unwrap();
            a.writer.flush().unwrap();

            // Client B waits until A's job is *definitely* executing (the
            // run counter bumps before the injected hang), then probes.
            let mut b = Client::connect(addr);
            while !b.ask(r#"{"cmd":"stats"}"#).contains("\"optimizer_runs\":1") {
                std::thread::yield_now();
            }
            let busy = b.ask(r#"{"suite":"c499","fast":true}"#);
            assert!(
                busy.contains("\"status\":\"busy\"")
                    && busy.contains("server at capacity (1 pending jobs)"),
                "{busy}"
            );

            // A's deadline fires: the hang is cut and reported as timeout.
            let mut timed_out = String::new();
            a.reader.read_line(&mut timed_out).unwrap();
            assert!(
                timed_out.contains("\"status\":\"failed\"")
                    && timed_out.contains("timeout after 1s"),
                "{timed_out}"
            );

            // The slot is free again: B's resubmission runs for real.
            let done = b.ask(r#"{"suite":"c499","fast":true}"#);
            assert!(done.contains("\"status\":\"done\""), "{done}");

            assert_eq!(b.ask(r#"{"cmd":"shutdown"}"#), "{\"ok\":\"shutdown\"}");
            drop(a);
            drop(b);
            assert_eq!(server.join().unwrap(), 2, "the busy-rejected line is not counted");
        });
    }

    /// The telemetry verbs over a real socket: each served job ticks the
    /// manual plane, `series` answers ring windows, `alerts` answers the
    /// detector state, and `prom` streams multi-line exposition text
    /// terminated by `# EOF`.
    #[test]
    fn telemetry_verbs_over_loopback() {
        use crate::telemetry::{TelemetryConfig, TelemetryPlane};
        use std::sync::Arc;
        let mut engine = Engine::new(PipelineConfig::fast());
        let config = TelemetryConfig { manual: true, ..TelemetryConfig::default() };
        let plane = Arc::new(TelemetryPlane::new(engine.metrics_registry(), config));
        plane.prime();
        engine = engine.with_telemetry(Arc::clone(&plane));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        std::thread::scope(|s| {
            let server = s.spawn(|| serve_connections(&engine, &listener).unwrap());
            let mut client = Client::connect(addr);

            // No tick has happened yet: the series rings are empty.
            let early = client.ask(r#"{"cmd":"series","name":"serve.cache_hits"}"#);
            assert!(early.contains("unknown series `serve.cache_hits`"), "{early}");

            // Two jobs — the repeat is a cache hit — tick the plane once
            // each at the post-job quiescent point.
            client.ask(r#"{"suite":"c432","fast":true}"#);
            client.ask(r#"{"suite":"c432","fast":true}"#);

            let series = client.ask(r#"{"cmd":"series","name":"serve.cache_hits"}"#);
            assert_eq!(
                series,
                "{\"ok\":\"series\",\"name\":\"serve.cache_hits\",\"points\":[[0,0],[1,1]]}"
            );
            let windowed = client.ask(r#"{"cmd":"series","name":"serve.cache_hits","last":1}"#);
            assert!(windowed.ends_with("\"points\":[[1,1]]}"), "{windowed}");
            let unnamed = client.ask(r#"{"cmd":"series"}"#);
            assert!(unnamed.contains("series needs a string `name`"), "{unnamed}");

            // No detectors were configured, so the alert log is empty.
            assert_eq!(
                client.ask(r#"{"cmd":"alerts"}"#),
                "{\"ok\":\"alerts\",\"alerts\":[],\"slo\":[]}"
            );

            // `prom` is the one multi-line reply: read until `# EOF`.
            writeln!(client.writer, r#"{{"cmd":"prom"}}"#).unwrap();
            client.writer.flush().unwrap();
            let mut prom = String::new();
            loop {
                let mut line = String::new();
                client.reader.read_line(&mut line).unwrap();
                let done = line.trim() == "# EOF";
                prom.push_str(&line);
                if done {
                    break;
                }
            }
            assert!(prom.contains("# TYPE rapids_serve_cache_hits counter"), "{prom}");
            assert!(prom.contains("rapids_serve_cache_hits 1\n"), "{prom}");
            assert!(prom.contains("# TYPE rapids_serve_job_us summary"), "{prom}");

            // The connection stays line-synchronized after the multi-line
            // reply.
            assert_eq!(client.ask(r#"{"cmd":"ping"}"#), "{\"ok\":\"pong\"}");
            assert_eq!(plane.ticks(), 2, "one manual tick per served job");
            assert_eq!(client.ask(r#"{"cmd":"shutdown"}"#), "{\"ok\":\"shutdown\"}");
            drop(client);
            assert_eq!(server.join().unwrap(), 2);
        });
    }

    /// Without an armed plane, the telemetry verbs answer a structured
    /// rejection pointing at the arming flag; `prom` still works (the
    /// registry always exists).
    #[test]
    fn telemetry_verbs_reject_when_unarmed() {
        let engine = Engine::new(PipelineConfig::fast());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_connections(&engine, &listener).unwrap());
            let mut client = Client::connect(addr);
            for verb in [r#"{"cmd":"series","name":"x"}"#, r#"{"cmd":"alerts"}"#] {
                let answer = client.ask(verb);
                assert!(
                    answer.contains("telemetry is not armed (start with --telemetry-s)"),
                    "{answer}"
                );
            }
            assert_eq!(client.ask(r#"{"cmd":"shutdown"}"#), "{\"ok\":\"shutdown\"}");
            assert_eq!(server.join().unwrap(), 0);
        });
    }

    /// An injected accept fault refuses exactly one connection; the next
    /// connection is served normally.
    #[test]
    fn injected_accept_fault_refuses_one_connection() {
        use crate::faults::{FaultAction, FaultPlan, FaultPoint};
        let engine = Engine::new(PipelineConfig::fast()).with_fault_plan(FaultPlan::single(
            FaultPoint::ConnectionAccept,
            None,
            0,
            FaultAction::IoError,
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_connections(&engine, &listener).unwrap());

            // First connection: refused (the server drops it unanswered).
            // The refusal surfaces as a clean EOF when the server dropped
            // the socket before our ping arrived, or as a connection reset
            // when the ping was still unread at drop time — either way, no
            // reply.
            let mut refused = Client::connect(addr);
            writeln!(refused.writer, r#"{{"cmd":"ping"}}"#).unwrap();
            refused.writer.flush().unwrap();
            let mut answer = String::new();
            match refused.reader.read_line(&mut answer) {
                Ok(n) => assert_eq!(n, 0, "refused connection must not reply: {answer}"),
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
            }

            // Second connection: served.
            let mut ok = Client::connect(addr);
            assert_eq!(ok.ask(r#"{"cmd":"ping"}"#), "{\"ok\":\"pong\"}");
            assert_eq!(ok.ask(r#"{"cmd":"shutdown"}"#), "{\"ok\":\"shutdown\"}");
            assert_eq!(server.join().unwrap(), 0);
        });
    }
}
