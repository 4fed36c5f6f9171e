//! `rapids-top` — a live terminal dashboard over a running
//! `rapids-serve --listen` instance.
//!
//! Each frame asks the server for `stats`, a fixed set of telemetry
//! series (`{"cmd":"series"}`), and recent `alerts`, then renders
//! throughput, job-latency percentiles, cache hit rate, queue depth, and
//! the alert tail as a sparkline board.  Replies are parsed with the
//! shared [`rapids_obs::json`] reader; a server running without
//! `--telemetry-s` still renders the stats header (series rows show
//! `(telemetry off)`).
//!
//! ```text
//! rapids-top 127.0.0.1:7171 [--refresh-ms 1000] [--frames 0] [--last 60] [--plain]
//! ```
//!
//! `--frames N` exits after N frames (0 = run until the connection
//! drops; `--frames 1 --plain` is the scriptable one-shot used by CI).
//! `--plain` suppresses the ANSI clear-screen so output is pipeable.
//!
//! Rendering is a pure function of the fetched [`Frame`] — unit-tested
//! below without a server.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use rapids_obs::json::{escape_string, parse, Value};

/// The series polled every frame, with their board labels.
const SERIES: &[(&str, &str)] = &[
    ("serve.job_us.count", "throughput (jobs/tick)"),
    ("serve.job_us.p50", "job p50 (us)"),
    ("serve.job_us.p99", "job p99 (us)"),
    ("serve.cache_hits", "cache hits/tick"),
    ("serve.queue_depth", "queue depth"),
];

/// One dashboard row: `(series name, label, points)` — `None` points
/// when the server has no telemetry plane (or the series has not
/// appeared yet).
type SeriesRow = (&'static str, &'static str, Option<Vec<(u64, f64)>>);

/// One fetched frame of dashboard state.
#[derive(Debug, Default)]
struct Frame {
    /// `(key, value)` pairs from the `stats` reply, in reply order.
    stats: Vec<(String, f64)>,
    /// Per-series points, one [`SeriesRow`] per `SERIES` entry.
    series: Vec<SeriesRow>,
    /// Rendered recent-alert descriptions, oldest first.
    alerts: Vec<String>,
    /// Rendered SLO status lines.
    slos: Vec<String>,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut addr = None;
    let mut refresh_ms = 1000u64;
    let mut frames = 0u64;
    let mut last = 60usize;
    let mut plain = false;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--refresh-ms" => refresh_ms = parse_num(&value("--refresh-ms")),
            "--frames" => frames = parse_num(&value("--frames")),
            "--last" => last = parse_num(&value("--last")) as usize,
            "--plain" => plain = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: rapids-top ADDR [--refresh-ms N] [--frames N] [--last K] [--plain]"
                );
                return;
            }
            other if addr.is_none() && !other.starts_with('-') => addr = Some(arg),
            other => {
                eprintln!("error: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("error: missing server address (host:port)");
        std::process::exit(2);
    };

    let stream = TcpStream::connect(&addr).unwrap_or_else(|e| {
        eprintln!("error: connect {addr}: {e}");
        std::process::exit(1);
    });
    let mut client = Client::new(stream).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    let mut rendered = 0u64;
    loop {
        let frame = match client.fetch(last) {
            Ok(frame) => frame,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        let board = render(&addr, &frame, last);
        let mut out = std::io::stdout().lock();
        if !plain {
            // Clear screen + home, then the board.
            let _ = out.write_all(b"\x1b[2J\x1b[H");
        }
        let _ = out.write_all(board.as_bytes());
        let _ = out.flush();
        rendered += 1;
        if frames > 0 && rendered >= frames {
            return;
        }
        std::thread::sleep(Duration::from_millis(refresh_ms.max(50)));
    }
}

fn parse_num(text: &str) -> u64 {
    text.parse().unwrap_or_else(|_| {
        eprintln!("error: `{text}` is not a number");
        std::process::exit(2);
    })
}

/// One line-oriented protocol connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn new(stream: TcpStream) -> Result<Client, String> {
        let reader = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
        Ok(Client { writer: stream, reader: BufReader::new(reader) })
    }

    /// Sends one request line, returns the parsed reply.
    fn ask(&mut self, line: &str) -> Result<Value, String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        parse(reply.trim_end())
    }

    /// Fetches one dashboard frame.
    fn fetch(&mut self, last: usize) -> Result<Frame, String> {
        let mut frame = Frame::default();
        if let Value::Obj(pairs) = self.ask("{\"cmd\":\"stats\"}")? {
            for (key, value) in pairs {
                if let Some(v) = value.as_num() {
                    frame.stats.push((key, v));
                }
            }
        }
        for (name, label) in SERIES {
            let request =
                format!("{{\"cmd\":\"series\",\"name\":{},\"last\":{last}}}", escape_string(name));
            let reply = self.ask(&request)?;
            frame.series.push((name, label, series_points(&reply)));
        }
        let alerts = self.ask("{\"cmd\":\"alerts\"}")?;
        if let Some(Value::Arr(items)) = alerts.get("alerts") {
            for alert in items {
                frame.alerts.push(describe_alert(alert));
            }
        }
        if let Some(Value::Arr(items)) = alerts.get("slo") {
            for slo in items {
                frame.slos.push(describe_slo(slo));
            }
        }
        Ok(frame)
    }
}

/// Extracts `[[tick,value],…]` from a `series` reply; `None` for a
/// rejection (unknown series, telemetry off).
fn series_points(reply: &Value) -> Option<Vec<(u64, f64)>> {
    let Some(Value::Arr(raw)) = reply.get("points") else {
        return None;
    };
    let mut points = Vec::with_capacity(raw.len());
    for point in raw {
        if let Value::Arr(pair) = point {
            if let (Some(tick), Some(value)) =
                (pair.first().and_then(Value::as_num), pair.get(1).and_then(Value::as_num))
            {
                points.push((tick as u64, value));
            }
        }
    }
    Some(points)
}

/// `[tick 13] cusum serve.job_us.p99: statistic 60 over baseline 100`.
fn describe_alert(alert: &Value) -> String {
    let kind = alert.get("kind").and_then(Value::as_str).unwrap_or("?");
    let series = alert.get("series").and_then(Value::as_str).unwrap_or("?");
    let tick = alert.get("tick").and_then(Value::as_num).unwrap_or(-1.0);
    let statistic = alert.get("statistic").and_then(Value::as_num).unwrap_or(0.0);
    let baseline = alert.get("baseline").and_then(Value::as_num).unwrap_or(0.0);
    format!("[tick {tick}] {kind} {series}: statistic {statistic} over baseline {baseline}")
}

/// `timeouts: burn 0.40 of target 0.25 (BREACHED)`.
fn describe_slo(slo: &Value) -> String {
    let name = slo.get("name").and_then(Value::as_str).unwrap_or("?");
    let burn = slo.get("burn").and_then(Value::as_num).unwrap_or(0.0);
    let target = slo.get("target").and_then(Value::as_num).unwrap_or(0.0);
    let breached = matches!(slo.get("breached"), Some(Value::Bool(true)));
    let state = if breached { "BREACHED" } else { "ok" };
    format!("{name}: burn {burn:.2} of target {target:.2} ({state})")
}

/// Renders one frame as the full dashboard text (pure; unit-tested).
fn render(addr: &str, frame: &Frame, last: usize) -> String {
    use std::fmt::Write as _;
    let mut out = format!("rapids-top — {addr} (last {last} ticks)\n\n");

    if !frame.stats.is_empty() {
        let get =
            |key: &str| frame.stats.iter().find(|(k, _)| k == key).map(|(_, v)| *v).unwrap_or(0.0);
        let hits = get("cache_hits");
        let runs = get("optimizer_runs");
        let total = hits + runs;
        let rate = if total > 0.0 { 100.0 * hits / total } else { 0.0 };
        let _ = writeln!(
            out,
            "jobs timed {}   p50 {} us   p99 {} us   cache hit rate {rate:.1}%",
            get("jobs_timed"),
            get("job_p50_us"),
            get("job_p99_us"),
        );
        let _ = writeln!(
            out,
            "optimizer runs {}   verify runs {}   disk hits {}",
            runs,
            get("verify_runs"),
            get("disk_hits"),
        );
        out.push('\n');
    }

    let label_width = SERIES.iter().map(|(_, label)| label.len()).max().unwrap_or(0);
    for (_, label, points) in &frame.series {
        match points {
            None => {
                let _ = writeln!(out, "{label:label_width$}  (telemetry off)");
            }
            Some(points) if points.is_empty() => {
                let _ = writeln!(out, "{label:label_width$}  (no data)");
            }
            Some(points) => {
                let values: Vec<f64> = points.iter().map(|&(_, v)| v).collect();
                let latest = *values.last().expect("non-empty");
                let _ = writeln!(out, "{label:label_width$}  {} {latest}", sparkline(&values));
            }
        }
    }

    out.push_str("\nalerts:\n");
    if frame.alerts.is_empty() {
        out.push_str("  (none)\n");
    } else {
        // Most recent last; show at most the final 8.
        for alert in frame.alerts.iter().rev().take(8).rev() {
            let _ = writeln!(out, "  {alert}");
        }
    }
    if !frame.slos.is_empty() {
        out.push_str("slo:\n");
        for slo in &frame.slos {
            let _ = writeln!(out, "  {slo}");
        }
    }
    out
}

/// The eight-level block-character sparkline of `values`, scaled to
/// their own min..max (a flat series renders at the lowest level).
fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = hi - lo;
    values
        .iter()
        .map(|&v| {
            let idx = if span > 0.0 { (((v - lo) / span) * 7.0).round() as usize } else { 0 };
            LEVELS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_the_series_range() {
        assert_eq!(sparkline(&[0.0, 7.0]), "▁█");
        assert_eq!(sparkline(&[0.0, 3.5, 7.0]), "▁▅█");
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "▁▁▁", "flat series sits at the floor");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn render_shows_stats_series_and_alerts() {
        let frame = Frame {
            stats: vec![
                ("optimizer_runs".to_string(), 3.0),
                ("cache_hits".to_string(), 1.0),
                ("jobs_timed".to_string(), 4.0),
                ("job_p50_us".to_string(), 120.0),
                ("job_p99_us".to_string(), 900.0),
            ],
            series: vec![
                ("serve.job_us.count", "throughput (jobs/tick)", Some(vec![(0, 1.0), (1, 3.0)])),
                ("serve.queue_depth", "queue depth", Some(vec![])),
                ("serve.cache_hits", "cache hits/tick", None),
            ],
            alerts: vec!["[tick 3] cusum lat: statistic 60 over baseline 100".to_string()],
            slos: vec!["timeouts: burn 0.40 of target 0.25 (BREACHED)".to_string()],
        };
        let board = render("127.0.0.1:7171", &frame, 60);
        assert!(board.starts_with("rapids-top — 127.0.0.1:7171 (last 60 ticks)\n"));
        assert!(board.contains("cache hit rate 25.0%"), "{board}");
        assert!(board.contains("p50 120 us   p99 900 us"), "{board}");
        assert!(board.contains("throughput (jobs/tick)  ▁█ 3"), "{board}");
        assert!(board.contains("queue depth             (no data)"), "{board}");
        assert!(board.contains("cache hits/tick         (telemetry off)"), "{board}");
        assert!(board.contains("[tick 3] cusum lat"), "{board}");
        assert!(board.contains("timeouts: burn 0.40"), "{board}");
    }

    #[test]
    fn render_without_telemetry_or_alerts_is_calm() {
        let frame = Frame::default();
        let board = render("h:1", &frame, 10);
        assert!(board.contains("alerts:\n  (none)\n"), "{board}");
        assert!(!board.contains("slo:"), "{board}");
    }

    #[test]
    fn series_points_reads_a_reply_and_rejects_rejections() {
        let reply = parse("{\"ok\":\"series\",\"name\":\"x\",\"points\":[[0,1.5],[1,2]]}").unwrap();
        assert_eq!(series_points(&reply), Some(vec![(0, 1.5), (1, 2.0)]));
        let rejection =
            parse("{\"status\":\"rejected\",\"error\":\"telemetry is not armed\"}").unwrap();
        assert_eq!(series_points(&rejection), None);
    }

    #[test]
    fn alert_and_slo_descriptions_flatten_the_records() {
        let alert = parse(
            "{\"kind\":\"cusum\",\"series\":\"lat\",\"tick\":13,\
             \"statistic\":60,\"baseline\":100}",
        )
        .unwrap();
        assert_eq!(describe_alert(&alert), "[tick 13] cusum lat: statistic 60 over baseline 100");
        let slo = parse(
            "{\"name\":\"timeouts\",\"bad\":2,\"total\":5,\"burn\":0.4,\
             \"target\":0.25,\"breached\":true}",
        )
        .unwrap();
        assert_eq!(describe_slo(&slo), "timeouts: burn 0.40 of target 0.25 (BREACHED)");
    }
}
