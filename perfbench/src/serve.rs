//! `serve-mixed`: `rgs-serve` with its default config over the Fig. 5 dev
//! corpus, under an open loop of seeded requests at fixed offered rates.
//! The serving layer's traced metrics come from here on every workload.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rgs_core::{json, MiningRequest, PreparedDb};
use rgs_serve::{client, protocol};

use crate::batch::build_image;
use crate::corpus::{self, Rng};
use crate::report::{self, Report};
use crate::{layers, proc, Ctx};

/// Share of requests that repeat a recently sent body (cache hits). Hits
/// answer in ~0.3 ms and misses in ~10 ms, so the median latency falls
/// among the misses, well clear of the gap between the two: at 0.3 it sat
/// at the misses' 20th percentile, on the gap's steep edge, and the run's
/// few-percent swings in the hit share moved it by a fifth.
const REPEAT_SHARE: f64 = 0.1;

/// Repeats are drawn from this many most recently sent distinct bodies,
/// well inside the server's 128-entry cache.
const HOT_SET: usize = 16;

/// Set-up repeats a snapshot build plus a boot (about 12 ms) until they
/// add up to this many seconds: over a hundred samples.
const SETUP_MIN_S: f64 = 1.5;

/// Fresh servers per run; each serves an equal share of the window.
const SEGMENTS: usize = 5;

/// How many of the fastest segments `p99_ms` pools (see `run`).
const FAST_SEGMENTS: usize = 3;

/// The fixed offered rate (requests/s) at which `job_s` and `p99_ms` are
/// read, for four fifths of each segment. The server answers about 200/s;
/// at 100/s it was half busy, so queueing multiplied every slow phase of
/// the host, and `job_s` read 9.5 to 18 ms across one set of ten runs.
const REFERENCE_RPS: f64 = 50.0;

/// The offered rate of the last fifth of each segment, far above what
/// the server answers: `max_rps` is the completion rate under it.
const SATURATION_RPS: f64 = 2000.0;

/// Rounds of the traced run (see `layers::measure`).
const TRACE_ROUNDS: usize = 3;

const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// The request menu: a fixed grid of `POST /mine` bodies over closed,
/// maximal, top-k and all, with and without gap/window constraints, all
/// under length and count budgets. There are more of them than the
/// server's 128 cache entries, so a cycle through the menu misses the
/// cache every time and evicts as it goes.
pub fn menu() -> Vec<String> {
    let mut bodies = Vec::new();
    for c in ["", ",\"max_gap\":3", ",\"max_window\":12"] {
        for min_sup in [175, 200, 225, 250, 275, 300, 350, 400] {
            // Closed mining pays for the closure check at every node, so
            // it runs 150 above the others to stay in the same cost range.
            for (mode, sup, max_len) in [
                ("closed", min_sup + 150, 3),
                ("all", min_sup, 4),
                ("all", min_sup, 3),
                ("maximal", min_sup, 2),
            ] {
                bodies.push(format!(
                    "{{\"mode\":\"{mode}\",\"min_sup\":{sup},\"max_len\":{max_len},\
                     \"max_patterns\":400{c}}}"
                ));
            }
        }
        for k in [5, 10, 20] {
            for floor in [200, 250, 300, 400] {
                bodies.push(format!(
                    "{{\"mode\":\"top-k\",\"top_k\":{k},\"min_sup\":{floor},\"max_len\":4{c}}}"
                ));
            }
        }
    }
    bodies
}

/// The menu's bodies as library requests.
pub fn menu_requests() -> Vec<MiningRequest> {
    menu()
        .iter()
        .map(|b| protocol::parse_mine_request(b).expect("valid body").request)
        .collect()
}

/// `POST /mine` bodies for the serving probe of a traced batch run: all
/// patterns at the workload's threshold up to `max_len`, cheap on any
/// corpus.
pub fn probe_bodies(min_sup: u64, max_len: usize) -> Vec<String> {
    (1..=max_len)
        .map(|len| format!("{{\"mode\":\"all\",\"min_sup\":{min_sup},\"max_len\":{len}}}"))
        .collect()
}

/// A running `rgs-serve serve` child. Dropping it kills and reaps it.
pub struct ServerProc {
    child: Option<Child>,
    /// Kept open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    started: Instant,
    pub addr: SocketAddr,
    /// Spawn to the first successful `/healthz` answer.
    pub ready_s: f64,
}

impl ServerProc {
    /// Starts the server on an ephemeral port. The port comes from the
    /// line the server prints once it is bound, and readiness is the first
    /// successful `/healthz` answer: no sleep, no poll interval.
    pub fn start(ctx: &Ctx, image: &Path) -> Result<ServerProc, String> {
        let started = Instant::now();
        let mut child = Command::new(ctx.serve_bin())
            .args([
                "serve",
                "--snapshot",
                image.to_str().expect("utf-8 path"),
                "--port",
                "0",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn rgs-serve: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = ServerProc {
            child: Some(child),
            _stdout: stdout,
            started,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            ready_s: 0.0,
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = server
                ._stdout
                .read_line(&mut line)
                .map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("rgs-serve exited before it was bound".to_owned());
            }
            if let Some((_, addr)) = line.trim().rsplit_once("http://") {
                server.addr = addr
                    .parse()
                    .map_err(|e| format!("bad address {addr}: {e}"))?;
                break;
            }
        }
        let health = client::get(server.addr, "/healthz", REQUEST_TIMEOUT)
            .map_err(|e| format!("/healthz failed: {e}"))?;
        if health.status != 200 {
            return Err(format!("/healthz answered {}", health.status));
        }
        server.ready_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    /// Kills the server and returns its peak RSS in MiB.
    // Reaped by `proc::reap` (wait4, for its rusage), not `Child::wait`.
    #[allow(clippy::zombie_processes)]
    pub fn stop(mut self) -> f64 {
        let mut child = self.child.take().expect("server still running");
        let _ = child.kill();
        proc::reap(&child, self.started).peak_rss_mb
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            proc::reap(&child, self.started);
        }
    }
}

/// What a correct `/mine` answer to one body starts with: everything up
/// to the `cached` and `elapsed_ms` fields, which vary by design.
#[derive(Debug)]
pub struct Expected {
    prefix: String,
    /// In-process `PreparedDb::batch` time for this body, seconds.
    pub direct_s: f64,
}

/// Answers every body in-process through `PreparedDb::batch` (no HTTP).
pub fn expected_answers(image: &Path, bodies: &[String]) -> Vec<Expected> {
    let prepared = PreparedDb::open_snapshot(image).expect("open snapshot in-process");
    bodies
        .iter()
        .map(|body| {
            let request: MiningRequest = protocol::parse_mine_request(body)
                .expect("menu bodies are valid")
                .request;
            let start = Instant::now();
            let result = prepared.batch(std::slice::from_ref(&request));
            let direct_s = start.elapsed().as_secs_f64();
            let result = &result[0];
            let patterns = protocol::render_patterns(&result.outcome.patterns, prepared.catalog());
            Expected {
                prefix: format!(
                    "{{\"patterns\":{patterns},\"count\":{},\"truncated\":{},\
                     \"deadline_exceeded\":false,\"cached\":",
                    result.outcome.patterns.len(),
                    result.outcome.truncated
                ),
                direct_s,
            }
        })
        .collect()
}

/// One request of an open-loop schedule.
#[derive(Debug, Clone, Copy)]
pub struct Due {
    /// Offset from the start of the schedule, seconds.
    pub at: f64,
    pub body: usize,
}

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
pub struct Sent {
    pub body: usize,
    pub ok: bool,
    pub cached: bool,
    /// Due time to full response, seconds.
    pub latency_s: f64,
    /// Due time to send, seconds: how late the generator ran.
    pub lag_s: f64,
    /// Last byte received, as an offset from the schedule's start.
    pub done_at: f64,
    pub problem: Option<String>,
}

/// Picks bodies for `n` requests: mostly the next body of a seeded cycle
/// through the whole menu (cache misses), with `REPEAT_SHARE` of them
/// repeating one of the `HOT_SET` most recent bodies (cache hits).
pub struct Picker {
    rng: Rng,
    order: Vec<usize>,
    next: usize,
    recent: Vec<usize>,
}

impl Picker {
    pub fn new(seed: u64, menu_len: usize) -> Self {
        let mut rng = Rng::new(seed);
        let mut order: Vec<usize> = (0..menu_len).collect();
        rng.shuffle(&mut order);
        Picker {
            rng,
            order,
            next: 0,
            recent: Vec::new(),
        }
    }

    pub fn pick(&mut self) -> usize {
        let repeat = (self.rng.next_u64() % 1000) as f64 / 1000.0 < REPEAT_SHARE;
        if repeat && !self.recent.is_empty() {
            return self.recent[self.rng.below(self.recent.len())];
        }
        let body = self.order[self.next % self.order.len()];
        self.next += 1;
        self.recent.push(body);
        if self.recent.len() > HOT_SET {
            self.recent.remove(0);
        }
        body
    }

    /// `count` requests evenly spaced at `rps`.
    pub fn schedule(&mut self, rps: f64, count: usize) -> Vec<Due> {
        (0..count)
            .map(|i| Due {
                at: i as f64 / rps,
                body: self.pick(),
            })
            .collect()
    }
}

/// Sends `schedule` open-loop from one process with at most `inflight`
/// requests outstanding, timing each from when it was due. Requests not
/// sent `stop_s` seconds after the start are dropped from the schedule.
pub fn open_loop(
    addr: SocketAddr,
    bodies: &[String],
    expected: &[Expected],
    schedule: &[Due],
    inflight: usize,
    stop_s: f64,
) -> Vec<Sent> {
    let next = AtomicUsize::new(0);
    let sent = Mutex::new(Vec::with_capacity(schedule.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..inflight.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(due) = schedule.get(i) else { break };
                if start.elapsed().as_secs_f64() >= stop_s {
                    break;
                }
                let due_at = start + Duration::from_secs_f64(due.at);
                if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let lag_s = Instant::now()
                    .saturating_duration_since(due_at)
                    .as_secs_f64();
                let response = client::mine(addr, &bodies[due.body], REQUEST_TIMEOUT);
                let finished = Instant::now();
                let (ok, cached, problem) = match response {
                    Ok(r) if r.status == 200 => {
                        let ok = r.body.starts_with(&expected[due.body].prefix);
                        let cached = r.body.contains("\"cached\":true");
                        let problem = (!ok).then(|| {
                            format!("body {} answered differently from in-process", due.body)
                        });
                        (ok, cached, problem)
                    }
                    Ok(r) => (
                        false,
                        false,
                        Some(format!("status {}: {}", r.status, r.body)),
                    ),
                    Err(e) => (false, false, Some(format!("request failed: {e}"))),
                };
                let record = Sent {
                    body: due.body,
                    ok,
                    cached,
                    latency_s: finished.saturating_duration_since(due_at).as_secs_f64(),
                    lag_s,
                    done_at: finished.duration_since(start).as_secs_f64(),
                    problem,
                };
                sent.lock().expect("no sender panicked").push(record);
            });
        }
    });
    sent.into_inner().expect("no sender panicked")
}

fn record(report: &mut Report, sent: &[Sent]) {
    for s in sent {
        report.check(s.ok, || s.problem.clone().unwrap_or_default());
    }
}

/// The `/stats` counters the serving layer reports, by name.
fn server_stats(addr: SocketAddr) -> Vec<(String, f64)> {
    let response = client::get(addr, "/stats", REQUEST_TIMEOUT).expect("GET /stats");
    let value = json::parse(&response.body).expect("/stats is JSON");
    let field = |section: &str, name: &str| -> f64 {
        value
            .as_obj()
            .and_then(|o| o.iter().find(|(k, _)| k == section))
            .and_then(|(_, v)| v.as_obj())
            .and_then(|o| o.iter().find(|(k, _)| k == name))
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or(f64::NAN)
    };
    vec![
        ("serve.cache.hits".into(), field("cache", "hits")),
        ("serve.cache.misses".into(), field("cache", "misses")),
        ("serve.cache.evictions".into(), field("cache", "evictions")),
        ("serve.batches".into(), field("counters", "batches")),
        (
            "serve.batched_requests".into(),
            field("counters", "batched_requests"),
        ),
        ("serve.shed".into(), field("counters", "shed")),
        ("serve.errors".into(), field("counters", "errors")),
        (
            "serve.deadline_exceeded".into(),
            field("counters", "deadline_exceeded"),
        ),
        // The mean is exact; the histogram's percentiles are power-of-two
        // bucket bounds, so none of them is reported.
        (
            "serve.queue_wait_mean_ms".into(),
            field("queue_wait", "mean_ms"),
        ),
    ]
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The serving layer's per-layer metrics from `sent` traffic against a
/// live server: `/stats` counters, direct mining time and the client-side
/// overhead on top of it (cold requests only).
fn put_serve_layers(report: &mut Report, addr: SocketAddr, expected: &[Expected], sent: &[Sent]) {
    for (name, value) in server_stats(addr) {
        let unit = if name.ends_with("_ms") { "ms" } else { "count" };
        report.put(&name, value, unit, sent.len());
    }
    let cold: Vec<&Sent> = sent.iter().filter(|s| !s.cached).collect();
    let direct: Vec<f64> = cold
        .iter()
        .map(|s| expected[s.body].direct_s * 1e3)
        .collect();
    let overhead: Vec<f64> = cold
        .iter()
        .map(|s| s.latency_s * 1e3 - expected[s.body].direct_s * 1e3)
        .collect();
    let lag: Vec<f64> = sent.iter().map(|s| s.lag_s * 1e3).collect();
    if !direct.is_empty() {
        report.put(
            "serve.direct_mine_ms",
            report::median(&direct),
            "ms",
            direct.len(),
        );
        report.put(
            "serve.overhead_ms",
            report::median(&overhead),
            "ms",
            overhead.len(),
        );
    }
    report.put("loadgen.lag_ms", report::mean(&lag), "ms", lag.len());
}

/// The serving-layer part of a traced run on any workload: boot the
/// server on `image`, send `bodies` twice open-loop (the second pass hits
/// the cache), and read the layer metrics.
pub fn trace_probe(ctx: &Ctx, image: &Path, bodies: &[String], report: &mut Report) {
    let expected = expected_answers(image, bodies);
    let server = ServerProc::start(ctx, image).expect("start rgs-serve");
    let mut schedule: Vec<Due> = Vec::new();
    for pass in 0..2 {
        for body in 0..bodies.len() {
            schedule.push(Due {
                at: (pass * bodies.len() + body) as f64 * 0.02,
                body,
            });
        }
    }
    let sent = open_loop(
        server.addr,
        bodies,
        &expected,
        &schedule,
        nproc(),
        f64::INFINITY,
    );
    record(report, &sent);
    put_serve_layers(report, server.addr, &expected, &sent);
    server.stop();
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let text = ctx.work.join("corpus.txt");
    let text_bytes = corpus::write_seeded(&corpus::fig5_largest_dev(), ctx.seed, &text);
    let image = ctx.work.join("corpus.img");
    let bodies = menu();

    if ctx.trace {
        // The untraced path: build, boot, and every menu body once, one at
        // a time, through HTTP — what the traced pass does in-process.
        let mut expected = Vec::new();
        let untraced = |report: &mut Report| {
            let (build, _) = build_image(ctx, &text, &image, 0.0, report);
            if expected.is_empty() {
                expected = expected_answers(&image, &bodies);
            }
            let server = ServerProc::start(ctx, &image).expect("start rgs-serve");
            let pass = Instant::now();
            let once: Vec<Due> = (0..bodies.len())
                .map(|body| Due { at: 0.0, body })
                .collect();
            let sent = open_loop(server.addr, &bodies, &expected, &once, 1, f64::INFINITY);
            let untraced_s = build[0] + server.ready_s + pass.elapsed().as_secs_f64();
            record(report, &sent);
            server.stop();
            layers::Untraced {
                wall_s: untraced_s,
                mining_s: None,
            }
        };
        layers::measure(ctx, &text, &menu_requests(), TRACE_ROUNDS, untraced, report);

        let server = ServerProc::start(ctx, &image).expect("start rgs-serve");
        let mut picker = Picker::new(ctx.seed, bodies.len());
        let schedule = picker.schedule(REFERENCE_RPS, (REFERENCE_RPS * ctx.seconds) as usize);
        let sent = open_loop(
            server.addr,
            &bodies,
            &expected,
            &schedule,
            nproc(),
            f64::INFINITY,
        );
        record(report, &sent);
        put_serve_layers(report, server.addr, &expected, &sent);
        server.stop();
        return;
    }

    // Set-up: snapshot build, then boot until the first /healthz answer.
    let mut setups = Vec::new();
    let mut rss: f64 = 0.0;
    while setups.is_empty() || setups.iter().sum::<f64>() < SETUP_MIN_S {
        let (build, build_rss) = build_image(ctx, &text, &image, 0.0, report);
        let booted = ServerProc::start(ctx, &image).expect("start rgs-serve");
        setups.push(build[0] + booted.ready_s);
        rss = rss.max(build_rss).max(booted.stop());
    }
    let image_bytes = std::fs::metadata(&image).expect("image written").len();
    let expected = expected_answers(&image, &bodies);
    let mut picker = Picker::new(ctx.seed, bodies.len());

    // The window is split into segments, each served by a fresh server:
    // a process's speed on a shared host is set when it starts, so one
    // server per run would make each run's figures one draw of that luck.
    // p99_ms pools the FAST_SEGMENTS segments with the lowest median
    // latency, because the host's slow phases last seconds: over six runs
    // its spread was 0.05 against 0.10 for the p99 of all five segments.
    let segment_s = ctx.seconds / SEGMENTS as f64;
    let mut segments: Vec<Vec<f64>> = Vec::new();
    let mut completed = 0usize;
    let mut busy_s = 0.0;
    for _ in 0..SEGMENTS {
        let server = ServerProc::start(ctx, &image).expect("start rgs-serve");
        // The fixed-rate phase: four fifths of the segment.
        let reference_s = segment_s * 4.0 / 5.0;
        let reference = picker.schedule(REFERENCE_RPS, (REFERENCE_RPS * reference_s) as usize);
        let sent = open_loop(
            server.addr,
            &bodies,
            &expected,
            &reference,
            nproc(),
            f64::INFINITY,
        );
        record(report, &sent);
        segments.push(sent.iter().map(|s| s.latency_s).collect());

        // max_rps: for the rest of the segment, requests fall due faster
        // than the server can answer them, so every client slot stays busy
        // and the completions per second are the rate above which a
        // backlog grows.
        let saturate_s = segment_s - reference_s;
        let flood = picker.schedule(SATURATION_RPS, (SATURATION_RPS * saturate_s) as usize);
        let saturated = open_loop(server.addr, &bodies, &expected, &flood, nproc(), saturate_s);
        record(report, &saturated);
        completed += saturated.len();
        busy_s += saturated.iter().map(|s| s.done_at).fold(0.0, f64::max);
        rss = rss.max(server.stop());
    }

    let latencies = segments.concat();
    segments.sort_by(|a, b| report::median(a).total_cmp(&report::median(b)));
    let fast = segments[..FAST_SEGMENTS].concat();
    report::put_end_to_end(
        report,
        &setups,
        &latencies,
        report::median(&latencies),
        (report::percentile(&fast, 99.0), fast.len()),
        (completed as f64 / busy_s, completed),
        (rss, 2 * setups.len() + SEGMENTS),
        image_bytes as f64 / text_bytes as f64,
    );
}
