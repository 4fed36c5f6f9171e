//! The serve_mix workload: two closed-loop clients submit inline-BLIF jobs
//! to one in-process `rapids-serve` engine over the loopback line
//! protocol, with a result store attached in a fresh directory.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rapids_circuits::map_to_library;
use rapids_flow::{CircuitSource, FlowComparison, Pipeline, PipelineConfig};
use rapids_netlist::blif;
use rapids_serve::json::{parse_flat_object, JsonValue};
use rapids_serve::report::{DesignQor, JobOutcome, JobReport};
use rapids_serve::{Engine, ResultStore};

use crate::flows::{
    add_span_metrics, area_pair, decomposed_row, delay_pair, mean_gain, mean_share, print_folds,
    traced, Layers,
};
use crate::inputs::{serve_stream, ServeDesign, ServeStream};
use crate::stats::{median, overhead_pct, ratio, tail};
use crate::{peak_rss_mb, setup_repeated, Metrics, Outcome};
use rapids_core::OptimizerKind;

/// Closed-loop clients (one per core of the reference machine).
const CLIENTS: usize = 2;

/// Jobs generated per client; a run stops early if a client uses them
/// all, which the run reports on stderr.
const JOBS_PER_CLIENT: usize = 700;

/// Completions per block of the serve_mix `flow_s`.
const BLOCK_JOBS: usize = 64;

/// The QoR metrics average the first this-many distinct designs of each
/// client's stream, whether the window reached them or not, so they do
/// not depend on how many jobs a run completes.
const QOR_DESIGNS_PER_CLIENT: usize = 128;

/// One answered request.
struct Sample {
    /// Index into the client's job sequence.
    index: usize,
    /// Submit to reply, seconds.
    latency_s: f64,
    /// When the reply arrived.
    done: Instant,
    /// The reply line.
    reply: String,
}

/// One client's share of a loop.
struct ClientRun {
    samples: Vec<Sample>,
    start: Instant,
    end: Instant,
    exhausted: bool,
}

/// One closed-loop run against a fresh server.
struct LoopRun {
    /// Per client, in job order.
    clients: Vec<ClientRun>,
    /// Server start and client warm-up, seconds.
    start_s: f64,
    /// The `stats` verb's reply after the loop.
    stats: Vec<(String, JsonValue)>,
}

impl LoopRun {
    fn samples(&self) -> impl Iterator<Item = (usize, &Sample)> {
        self.clients.iter().enumerate().flat_map(|(c, run)| run.samples.iter().map(move |s| (c, s)))
    }

    fn count(&self) -> usize {
        self.clients.iter().map(|c| c.samples.len()).sum()
    }

    fn wall_s(&self) -> f64 {
        let start = self.clients.iter().map(|c| c.start).min().expect("clients ran");
        let end = self.clients.iter().map(|c| c.end).max().expect("clients ran");
        (end - start).as_secs_f64()
    }

    /// Median wall time of each block of [`BLOCK_JOBS`] completions.
    fn block_s(&self) -> f64 {
        let start = self.clients.iter().map(|c| c.start).min().expect("clients ran");
        let mut done: Vec<f64> =
            self.samples().map(|(_, s)| (s.done - start).as_secs_f64()).collect();
        done.sort_by(f64::total_cmp);
        let ends: Vec<f64> = done.chunks_exact(BLOCK_JOBS).map(|c| c[BLOCK_JOBS - 1]).collect();
        if ends.is_empty() {
            return self.wall_s() * BLOCK_JOBS as f64 / done.len().max(1) as f64;
        }
        let blocks: Vec<f64> = ends
            .iter()
            .enumerate()
            .map(|(k, &end)| end - if k == 0 { 0.0 } else { ends[k - 1] })
            .collect();
        median(&blocks)
    }

    fn stat(&self, key: &str) -> f64 {
        self.stats.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_num()).unwrap_or(-1.0)
    }
}

/// A line-protocol connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { writer: stream.try_clone()?, reader: BufReader::new(stream) })
    }

    fn ask(&mut self, line: &str) -> std::io::Result<String> {
        let mut request = String::with_capacity(line.len() + 1);
        request.push_str(line);
        request.push('\n');
        self.writer.write_all(request.as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::other("server closed the connection"));
        }
        Ok(reply.trim_end().to_string())
    }
}

fn client_loop(
    addr: SocketAddr,
    jobs: &[crate::inputs::ServeJob],
    seconds: f64,
    ready: &Barrier,
) -> std::io::Result<ClientRun> {
    let warm = Conn::connect(addr).and_then(|mut conn| match conn.ask("{\"cmd\":\"ping\"}")? {
        pong if pong == "{\"ok\":\"pong\"}" => Ok(conn),
        other => Err(std::io::Error::other(format!("warm-up got {other}"))),
    });
    ready.wait();
    let mut conn = warm?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut samples = Vec::new();
    for (index, job) in jobs.iter().enumerate() {
        if Instant::now() >= deadline {
            return Ok(ClientRun { samples, start, end: Instant::now(), exhausted: false });
        }
        let sent = Instant::now();
        let reply = conn.ask(&job.line)?;
        let done = Instant::now();
        samples.push(Sample { index, latency_s: (done - sent).as_secs_f64(), done, reply });
    }
    Ok(ClientRun { samples, start, end: Instant::now(), exhausted: true })
}

/// Starts a server on a fresh store, runs the clients for `seconds`,
/// reads `stats`, shuts the server down and removes the store.
fn run_loop(stream: &ServeStream, seconds: f64, store_dir: &Path) -> std::io::Result<LoopRun> {
    let _ = std::fs::remove_dir_all(store_dir);
    let setup = Instant::now();
    let engine = Engine::new(PipelineConfig::fast()).with_store(ResultStore::open(store_dir)?);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let ready = Barrier::new(CLIENTS + 1);
    let run = std::thread::scope(|s| {
        let server = s.spawn(|| rapids_serve::net::serve_connections(&engine, &listener));
        let clients: Vec<_> = stream
            .clients
            .iter()
            .map(|jobs| s.spawn(|| client_loop(addr, jobs, seconds, &ready)))
            .collect();
        ready.wait();
        let start_s = setup.elapsed().as_secs_f64();
        let clients: std::io::Result<Vec<ClientRun>> =
            clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect();
        // Always stop the server, even after a client failed, so the
        // scope can join it.
        let stats = Conn::connect(addr).and_then(|mut control| {
            let stats = control.ask("{\"cmd\":\"stats\"}");
            control.ask("{\"cmd\":\"shutdown\"}")?;
            stats
        });
        server.join().expect("server thread panicked")?;
        let stats = parse_flat_object(&stats?).map_err(std::io::Error::other)?;
        Ok(LoopRun { clients: clients?, start_s, stats })
    });
    let _ = std::fs::remove_dir_all(store_dir);
    // The parent goes too once no other run's store is in it.
    if let Some(parent) = store_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    run
}

/// Where this process keeps its result stores: inside the benchmark's
/// own directory of the checkout.
fn store_dir(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".state")
        .join(format!("serve-{}-{tag}", std::process::id()))
}

/// The reply a correct server sends for `design`'s first submission.
fn expected_reply(design: &ServeDesign, row: &FlowComparison) -> String {
    JobReport {
        job: design.name.clone(),
        outcome: JobOutcome::Done(DesignQor::from_comparison(row)),
        cached: false,
    }
    .to_jsonl()
}

/// The configuration a `"fast":true,"seed":N` job runs under.
fn job_config(design: &ServeDesign) -> PipelineConfig {
    PipelineConfig { seed: design.seed, ..PipelineConfig::fast() }
}

/// `f` over `items` on [`CLIENTS`] threads, results in item order.
fn parallel<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let f = &f;
                s.spawn(move || {
                    (t..items.len()).step_by(CLIENTS).map(|k| (k, f(&items[k]))).collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (k, r) in handle.join().expect("worker thread panicked") {
                out[k] = Some(r);
            }
        }
    });
    out.into_iter().map(|r| r.expect("every item computed")).collect()
}

/// Checks every reply of a loop: each must be `done`; a first submission
/// must equal `expected` for its design, a resubmission must repeat the
/// first reply; the engine's counters must match the stream.
fn check_loop(
    outcome: &mut Outcome,
    stream: &ServeStream,
    run: &LoopRun,
    expected: &std::collections::HashMap<usize, String>,
) {
    let mut first_reply: std::collections::HashMap<usize, &str> = std::collections::HashMap::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    for (c, sample) in run.samples() {
        outcome.attempted += 1;
        let job = &stream.clients[c][sample.index];
        let status = parse_flat_object(&sample.reply)
            .ok()
            .and_then(|p| p.into_iter().find(|(k, _)| k == "status"))
            .and_then(|(_, v)| v.as_str().map(str::to_string));
        if status.as_deref() != Some("done") {
            outcome.fail(format!("{}: reply {}", stream.designs[job.design].name, sample.reply));
            continue;
        }
        let want = if job.resubmit {
            hits += 1;
            first_reply.get(&job.design).copied()
        } else {
            misses += 1;
            first_reply.insert(job.design, &sample.reply);
            expected.get(&job.design).map(String::as_str)
        };
        if want != Some(sample.reply.as_str()) {
            outcome.fail(format!(
                "{}: reply {} differs from {want:?}",
                stream.designs[job.design].name, sample.reply
            ));
        }
    }
    for (key, want) in [("cache_hits", hits), ("optimizer_runs", misses)] {
        if run.stat(key) != want as f64 {
            outcome.fail(format!("server reports {key} {} for {want} such jobs", run.stat(key)));
        }
    }
    for (c, client) in run.clients.iter().enumerate() {
        if client.exhausted {
            eprintln!("note: client {c} used its whole stream before the window ended");
        }
    }
}

/// The first submissions a loop answered, as design indices.
fn answered_designs(stream: &ServeStream, run: &LoopRun) -> Vec<usize> {
    run.samples()
        .map(|(c, s)| &stream.clients[c][s.index])
        .filter(|job| !job.resubmit)
        .map(|job| job.design)
        .collect()
}

/// The serve_mix workload.
pub fn serve_mix(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (stream, generate_s) = setup_repeated(
        || serve_stream(seed, CLIENTS, JOBS_PER_CLIENT),
        |s| s.clients.iter().flatten().map(|j| j.line.to_string()).collect::<Vec<_>>(),
    );
    let mut outcome = Outcome::default();
    if trace {
        traced_run(&mut outcome, &stream, seconds);
        return outcome;
    }
    let run = match run_loop(&stream, seconds, &store_dir("run")) {
        Ok(run) => run,
        Err(e) => {
            outcome.fail(format!("serve loop: {e}"));
            return outcome;
        }
    };

    // Before the output checks, which are the benchmark's own work.
    let rss_mb = peak_rss_mb();

    // Every first submission the loop answered, and every design the QoR
    // metrics average, against a direct Pipeline run.
    let answered = answered_designs(&stream, &run);
    let qor = qor_designs(&stream);
    let unanswered: Vec<usize> = qor.iter().copied().filter(|d| !answered.contains(d)).collect();
    outcome.attempted += unanswered.len() as u64;
    let designs: Vec<usize> = answered.iter().chain(&unanswered).copied().collect();
    let direct = parallel(&designs, |&d| {
        let design = &stream.designs[d];
        let source = CircuitSource::Blif { text: design.blif.clone(), max_fanin: 4 };
        Pipeline::new(job_config(design)).compare_optimizers(source).map(|row| {
            let o = &row.combined.outcome;
            (expected_reply(design, &row), delay_pair(o), area_pair(o))
        })
    });
    let mut expected = std::collections::HashMap::new();
    let mut qor_pairs = std::collections::HashMap::new();
    for (&d, result) in designs.iter().zip(direct) {
        match result {
            Ok((reply, delay, area)) => {
                expected.insert(d, reply);
                qor_pairs.insert(d, (delay, area));
            }
            Err(e) => outcome.fail(format!("{}: direct run failed: {e}", stream.designs[d].name)),
        }
    }
    check_loop(&mut outcome, &stream, &run, &expected);

    let latencies: Vec<f64> = run.samples().map(|(_, s)| s.latency_s).collect();
    let (tail_s, percentile) = tail(&latencies);
    eprintln!(
        "{} jobs ({} first submissions) in {:.2} s; from p{percentile:.1} up the mean is {:.1} ms; \
         {} QoR designs run directly only",
        latencies.len(),
        answered.len(),
        run.wall_s(),
        1e3 * tail_s,
        unanswered.len()
    );
    eprintln!(
        "setup: inputs {generate_s:.3} s normalized, server and clients {:.3} s",
        run.start_s
    );
    let pairs = || qor.iter().filter_map(|d| qor_pairs.get(d));
    let m = &mut outcome.metrics;
    m.insert("setup_s", generate_s + run.start_s);
    m.insert("flow_s", run.block_s());
    m.insert("job_p50_ms", 1e3 * median(&latencies));
    m.insert("jobs_per_s", latencies.len() as f64 / run.wall_s());
    m.insert("combined_delay_pct", mean_share(pairs().map(|p| p.0)));
    m.insert("combined_area_pct", mean_share(pairs().map(|p| p.1)));
    m.insert("peak_rss_mb", rss_mb);
    outcome
}

/// The designs the QoR metrics average: the first
/// [`QOR_DESIGNS_PER_CLIENT`] distinct designs of each client's stream.
fn qor_designs(stream: &ServeStream) -> Vec<usize> {
    (0..CLIENTS)
        .flat_map(|c| {
            let own = stream.designs.iter().enumerate().filter(move |(_, d)| d.client == c);
            own.map(|(i, _)| i).take(QOR_DESIGNS_PER_CLIENT)
        })
        .collect()
}

/// One first submission with every layer called directly, in the order
/// the engine and `Pipeline` use: parse → map → place → STA → gsg, GS,
/// gsg+GS.
fn decomposed_job(design: &ServeDesign, layers: &mut Layers) -> Result<FlowComparison, String> {
    let config = job_config(design);
    let parsed = layers
        .timed("netlist.blif_parse_s", "bench.parse", || blif::parse_string(&design.blif))
        .map_err(|e| e.to_string())?;
    let mut mapped = layers
        .timed("circuits.map_s", "bench.map", || map_to_library(&parsed, config.map_max_fanin))
        .map_err(|e| e.to_string())?;
    mapped.set_name(parsed.name());
    Ok(decomposed_row(&config, &mapped, layers))
}

/// The traced run: an untraced loop and a traced loop of half the window
/// each, then the traced loop's first submissions decomposed layer by
/// layer.  Both loops and the decomposition must agree byte for byte.
fn traced_run(outcome: &mut Outcome, stream: &ServeStream, seconds: f64) {
    let kernel_s = crate::yardstick::measure_s();
    let untraced = run_loop(stream, seconds / 2.0, &store_dir("untraced"));
    rapids_obs::trace::install();
    rapids_obs::trace::take_events();
    let traced_loop = run_loop(stream, seconds / 2.0, &store_dir("traced"));
    rapids_obs::trace::disable();
    let loop_folds = crate::stats::fold_spans(&rapids_obs::trace::take_events());
    let (untraced, run) = match (untraced, traced_loop) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            outcome.fail(format!("serve loop: {:?} / {:?}", a.err(), b.err()));
            return;
        }
    };
    print_folds("span fold of the traced loop", &loop_folds);

    let designs = answered_designs(stream, &run);
    outcome.attempted += (untraced.count() + designs.len()) as u64;
    let mut layers = Layers::default();
    let (replies, decomposed_folds) = traced(&mut layers, |layers| {
        let parts = parallel(&designs, |&d| {
            let mut own = Layers::default();
            let reply = decomposed_job(&stream.designs[d], &mut own);
            (own, reply)
        });
        let mut replies = std::collections::HashMap::new();
        let mut rows = Vec::new();
        for (&d, (own, row)) in designs.iter().zip(parts) {
            for (name, value) in own.metrics {
                layers.add(name, value);
            }
            match row {
                Ok(row) => {
                    replies.insert(d, expected_reply(&stream.designs[d], &row));
                    rows.push(row);
                }
                Err(e) => {
                    outcome.fail(format!("{}: decomposed run failed: {e}", stream.designs[d].name))
                }
            }
        }
        layers.add("core.gsg_gain_pct", mean_gain(&rows, OptimizerKind::Rewiring));
        layers.add("core.combined_gain_pct", mean_gain(&rows, OptimizerKind::Combined));
        replies
    });
    print_folds("span fold of the decomposed run", &decomposed_folds);
    check_loop(outcome, stream, &run, &replies);
    // The untraced loop answered a prefix of the same stream.
    for (a, b) in untraced.clients.iter().zip(&run.clients) {
        for (x, y) in a.samples.iter().zip(&b.samples) {
            if x.reply != y.reply {
                outcome.fail(format!("traced reply differs:\n  {}\n  {}", x.reply, y.reply));
            }
        }
    }

    add_span_metrics(&mut layers, &loop_folds);
    let mut m: Metrics = layers.metrics;
    let latency = |resubmit: Option<bool>| -> Vec<f64> {
        run.samples()
            .filter(|(c, s)| resubmit.is_none_or(|r| stream.clients[*c][s.index].resubmit == r))
            .map(|(_, s)| s.latency_s)
            .collect()
    };
    let hits = latency(Some(true));
    let server_p50_us = run.stat("job_p50_us");
    m.insert("serve.hit_ms", 1e3 * median(&hits));
    m.insert("serve.miss_ms", 1e3 * median(&latency(Some(false))));
    m.insert("serve.cache_hit_frac", ratio(hits.len() as u64, run.count() as u64));
    m.insert("serve.optimizer_runs", run.stat("optimizer_runs"));
    m.insert("serve.server_job_p50_us", server_p50_us);
    m.insert("serve.wait_us", 1e6 * median(&latency(None)) - server_p50_us);
    m.insert("serve.job_tail_ms", 1e3 * tail(&latency(None)).0);
    // serve_mix times are not normalized (see README.md).
    m.insert("host.raw_flow_s", untraced.block_s());
    m.insert("host.normalized_flow_s", untraced.block_s());
    m.insert("host.kernel_ms", 1e3 * kernel_s);
    m.insert(
        "obs.trace_overhead_pct",
        overhead_pct(
            run.wall_s() / run.count() as f64,
            untraced.wall_s() / untraced.count() as f64,
        ),
    );
    outcome.metrics = m;
}
