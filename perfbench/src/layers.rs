//! The traced run: every layer called in-process and timed from here, so
//! nothing under `crates/` needs instrumenting.
//!
//! A traced pass walks the path a job takes — parse, index build, snapshot
//! write, snapshot open, mining, rendering — and its spans must cover the
//! wall time of the same path through the binaries (`trace.coverage`).
//! The two sides run in different processes, whose speeds on a shared host
//! differ by up to 2x, so where the binaries report their own mining time
//! both sides are first scaled to it (see `measure`).
//! Cheap layers are then repeated until their samples add up to
//! `MIN_LAYER_S`, and each reports its median.

use std::path::Path;
use std::time::Instant;

use rgs_core::closure::{CheckScratch, ClosureChecker, ClosureStatus};
use rgs_core::{
    kernel, MiningOutcome, MiningReport, MiningRequest, Mode, Pattern, PreparedDb, SupportSet,
};
use seqdb::snapshot::verify;
use seqdb::EventId;

use crate::report::{self, Report};
use crate::{batch, proc, Ctx};

/// Repeat a cheap layer until its samples add up to this many seconds.
const MIN_LAYER_S: f64 = 0.3;

/// The traced rounds go on for at least this many seconds.
const MIN_TRACE_S: f64 = 30.0;

/// `trace.coverage` below this fails a batch workload's traced run: the
/// timed calls then miss work the binaries do.
pub const MIN_COVERAGE: f64 = 0.95;

/// The growth-kernel layer grows at most this many of the most frequent
/// events' seeds by as many events.
const KERNEL_EVENTS: usize = 64;

fn span<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// `firsts` plus repeats of `f` until the samples reach `MIN_LAYER_S`.
fn with_repeats<T>(firsts: &[f64], f: impl FnMut() -> T) -> Vec<f64> {
    let mut samples = firsts.to_vec();
    let sum: f64 = samples.iter().sum();
    if sum < MIN_LAYER_S {
        let (more, _) = report::time_reps(1, MIN_LAYER_S - sum, f);
        samples.extend(more);
    }
    samples
}

/// What one untraced round — the job's path through the binaries — took.
#[derive(Debug, Clone, Copy)]
pub struct Untraced {
    /// Wall time of the whole path, spawn to exit of each process.
    pub wall_s: f64,
    /// The binaries' own report of their time in `Miner::run`, where they
    /// print one.
    pub mining_s: Option<f64>,
}

/// One traced pass: the path a job takes, every step timed.
struct Pass {
    parse_s: f64,
    build_s: f64,
    write_s: f64,
    open_s: f64,
    run_s: f64,
    render_s: f64,
    /// Sum of every span, the dropped index included.
    spans_s: f64,
    /// Wall time of the whole pass.
    wall_s: f64,
    heap_bytes: usize,
    image_bytes: u64,
    opened: PreparedDb,
    outcomes: Vec<MiningOutcome>,
}

fn traced_pass(text: &Path, image: &Path, requests: &[MiningRequest]) -> Pass {
    let pass = Instant::now();
    let (parse_s, db) = span(|| seqdb::io::read_tokens_file(text).expect("read corpus"));
    let (build_s, prepared) = span(|| PreparedDb::from_database(db));
    let (write_s, image_bytes) = span(|| prepared.write_snapshot(image).expect("write snapshot"));
    let heap_bytes = prepared.heap_bytes();
    let (drop_s, ()) = span(|| drop(prepared));
    let (open_s, opened) = span(|| PreparedDb::open_snapshot(image).expect("open snapshot"));
    let mut run_s = 0.0;
    let mut render_s = 0.0;
    let mut outcomes = Vec::new();
    for request in requests {
        let (t, outcome) = span(|| opened.miner().with_request(request.clone()).run());
        run_s += t;
        let (t, rendered) = span(|| {
            let catalog = opened.catalog();
            let mut text: Vec<String> = outcome
                .patterns
                .iter()
                .map(|m| m.pattern.render_with(catalog, " "))
                .collect();
            text.push(
                MiningReport {
                    stats: outcome.stats.clone(),
                    emitted: outcome.len(),
                    truncated: outcome.truncated,
                    cancelled: false,
                }
                .to_json(),
            );
            text
        });
        render_s += t;
        drop(rendered);
        outcomes.push(outcome);
    }
    Pass {
        parse_s,
        build_s,
        write_s,
        open_s,
        run_s,
        render_s,
        spans_s: parse_s + build_s + write_s + drop_s + open_s + run_s + render_s,
        wall_s: pass.elapsed().as_secs_f64(),
        heap_bytes,
        image_bytes,
        opened,
        outcomes,
    }
}

/// The exact counts of one pass's outcomes, summed over its requests.
fn counts(outcomes: &[MiningOutcome]) -> [u64; 5] {
    let sum = |f: fn(&MiningOutcome) -> u64| outcomes.iter().map(f).sum::<u64>();
    [
        sum(|o| o.len() as u64),
        sum(|o| o.stats.visited),
        sum(|o| o.stats.instance_growths),
        sum(|o| o.stats.non_closed_filtered),
        sum(|o| o.stats.landmark_border_prunes),
    ]
}

/// The body of a `--pass` child: one traced pass over `text`, printed as
/// one line — the spans' sum, the pass's wall time, its `Miner::run` time,
/// then the exact counts.
pub fn pass_line(text: &Path, image: &Path, requests: &[MiningRequest]) -> String {
    let pass = traced_pass(text, image, requests);
    let counts: Vec<String> = counts(&pass.outcomes).iter().map(u64::to_string).collect();
    format!(
        "{:?} {:?} {:?} {}",
        pass.spans_s,
        pass.wall_s,
        pass.run_s,
        counts.join(" ")
    )
}

/// What a `--pass` child printed.
struct ChildPass {
    spans_s: f64,
    wall_s: f64,
    run_s: f64,
    counts: [u64; 5],
}

/// Runs one traced pass in a fresh `--pass` child of this harness.
fn child_pass(ctx: &Ctx, text: &Path, report: &mut Report) -> Option<ChildPass> {
    let image = ctx.work.join("pass.img");
    let exe = std::env::current_exe().expect("own executable");
    let (done, out, err) = proc::run(
        &exe,
        &[
            "--workload",
            &ctx.workload,
            "--pass",
            text.to_str().expect("utf-8 path"),
            "--pass-image",
            image.to_str().expect("utf-8 path"),
        ],
        &ctx.work,
        "pass",
    );
    let _ = std::fs::remove_file(&image);
    let line = batch::read(&out);
    let fields: Vec<f64> = line
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    let ok = done.success && fields.len() == 8 && fields[2] > 0.0;
    report.check(ok, || format!("traced pass failed: {}", batch::read(&err)));
    ok.then(|| ChildPass {
        spans_s: fields[0],
        wall_s: fields[1],
        run_s: fields[2],
        counts: [3, 4, 5, 6, 7].map(|i| fields[i] as u64),
    })
}

/// Times every library layer for `requests` over the token file `text`
/// and returns `trace.coverage`.
///
/// Rounds go on for at least `rounds` rounds and `MIN_TRACE_S` seconds.
/// Each first calls `untraced`, which takes the job's path through the
/// binaries (snapshot build plus the job), then takes the same path as a
/// traced pass in a fresh child of this harness. Coverage is the sum of a
/// pass's spans over the untraced wall time, so work the binaries do
/// outside the timed calls lowers it; overhead is the traced pass's wall
/// time over the untraced one.
///
/// The two sides are different processes, and on a shared host the same
/// job runs 0.16 or 0.33 s in consecutive ones. Where the binaries print
/// their own `Miner::run` time, each round scales both sides to it — the
/// child's spans over the child's `Miner::run` span, times the binaries'
/// mining time over their wall time — so that each factor is a ratio
/// within one process, and the figure is the median round. (Taking each
/// side's fastest round instead left the ratio at the mercy of which side
/// drew the faster processes: it read 0.94 to 1.10 on the same code.)
/// Elsewhere each side takes its fastest round.
/// The per-layer times come from `rounds` further passes in this process.
pub fn measure(
    ctx: &Ctx,
    text: &Path,
    requests: &[MiningRequest],
    rounds: usize,
    mut untraced: impl FnMut(&mut Report) -> Untraced,
    report: &mut Report,
) -> f64 {
    let image = ctx.work.join("traced.img");
    let mut pairs: Vec<(Untraced, ChildPass)> = Vec::new();
    let mut child_counts = Vec::new();
    let started = Instant::now();
    while pairs.len() < rounds.max(1) || started.elapsed().as_secs_f64() < MIN_TRACE_S {
        let base = untraced(report);
        // A failed child is already a failed check.
        let Some(child) = child_pass(ctx, text, report) else {
            break;
        };
        child_counts.push(child.counts);
        pairs.push((base, child));
    }
    let passes: Vec<Pass> = (0..rounds.max(1))
        .map(|_| traced_pass(text, &image, requests))
        .collect();
    let last = passes.last().expect("at least one pass");
    let exact = counts(&last.outcomes);
    let repeats = passes
        .iter()
        .map(|p| counts(&p.outcomes))
        .chain(child_counts)
        .all(|c| c == exact);
    report.check(repeats, || {
        "exact counts differ between traced passes".to_owned()
    });
    let of = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let opened = &last.opened;

    // Repeats of the cheap layers, for steadier medians.
    let parse = with_repeats(&of(|p| p.parse_s), || {
        seqdb::io::read_tokens_file(text).expect("read corpus")
    });
    let mut build = of(|p| p.build_s);
    while build.iter().sum::<f64>() < MIN_LAYER_S {
        let db = opened.database().clone();
        let (t, rebuilt) = span(|| PreparedDb::from_database(db));
        build.push(t);
        drop(rebuilt);
    }
    let write = with_repeats(&of(|p| p.write_s), || {
        opened.write_snapshot(&image).expect("write snapshot")
    });
    let (verify_first, verdict) = span(|| verify::verify_file(&image).expect("read snapshot"));
    report.check(verdict.is_clean(), || {
        "traced image fails verification".to_owned()
    });
    let verify = with_repeats(&[verify_first], || verify::verify_file(&image));
    let open = with_repeats(&of(|p| p.open_s), || PreparedDb::open_snapshot(&image));
    let (boot_first, booted) = span(|| rgs_serve::boot_snapshot(&image));
    report.check(booted.is_ok(), || {
        "boot_snapshot refused the traced image".to_owned()
    });
    let boot = with_repeats(&[boot_first], || rgs_serve::boot_snapshot(&image));

    let put_median = |report: &mut Report, name: &str, samples: &[f64]| {
        report.put(name, report::median(samples), "s", samples.len());
    };
    put_median(report, "seqdb.io.parse_s", &parse);
    put_median(report, "core.prepared.build_s", &build);
    report.put(
        "core.prepared.heap_bytes",
        last.heap_bytes as f64,
        "bytes",
        1,
    );
    put_median(report, "seqdb.snapshot.write_s", &write);
    report.put("seqdb.snapshot.bytes", last.image_bytes as f64, "bytes", 1);
    put_median(report, "seqdb.snapshot.verify_s", &verify);
    put_median(report, "seqdb.snapshot.open_s", &open);
    put_median(report, "serve.boot_s", &boot);
    put_median(report, "core.miner.run_s", &of(|p| p.run_s));
    let names = [
        "core.patterns",
        "core.stats.visited",
        "core.stats.instance_growths",
        "core.stats.non_closed_filtered",
        "core.stats.landmark_border_prunes",
    ];
    for (name, count) in names.into_iter().zip(counts(&last.outcomes)) {
        report.put(name, count as f64, "count", requests.len());
    }
    put_median(report, "core.render_s", &of(|p| p.render_s));

    kernel_layer(opened, requests, report);
    closure_layer(opened, requests, &last.outcomes, report);

    let (coverage, overhead) = coverage_and_overhead(&pairs, report);
    report.put("trace.coverage", coverage, "ratio", pairs.len());
    report.put("trace.overhead", overhead, "ratio", pairs.len());
    coverage
}

/// `trace.coverage` and `trace.overhead` from the rounds of `measure`.
fn coverage_and_overhead(pairs: &[(Untraced, ChildPass)], report: &mut Report) -> (f64, f64) {
    let column =
        |f: &dyn Fn(&(Untraced, ChildPass)) -> f64| pairs.iter().map(f).collect::<Vec<_>>();
    report.raw("trace.untraced_s", &column(&|(u, _)| u.wall_s));
    report.raw("trace.spans_s", &column(&|(_, c)| c.spans_s));
    // With every child pass failed (already a failed check), both read 0.
    if pairs.is_empty() {
        return (0.0, 0.0);
    }
    if pairs.iter().all(|(u, _)| u.mining_s.is_some()) {
        let scale = |(u, c): &(Untraced, ChildPass)| {
            u.mining_s.expect("checked above") / u.wall_s / c.run_s
        };
        let coverage = column(&|p| p.1.spans_s * scale(p));
        let overhead = column(&|p| p.1.wall_s * scale(p));
        report.raw("trace.round_coverage", &coverage);
        return (report::median(&coverage), report::median(&overhead));
    }
    let untraced_s = report::fastest(&column(&|(u, _)| u.wall_s));
    (
        report::fastest(&column(&|(_, c)| c.spans_s)) / untraced_s,
        report::fastest(&column(&|(_, c)| c.wall_s)) / untraced_s,
    )
}

/// `kernel::grow_layer` over the seeds of the most frequent events.
fn kernel_layer(prepared: &PreparedDb, requests: &[MiningRequest], report: &mut Report) {
    let min_sup = requests.iter().map(|r| r.min_sup).min().unwrap_or(1);
    let mut events: Vec<EventId> = prepared.frequent_events(min_sup);
    events.sort_by_key(|&e| std::cmp::Reverse(prepared.occurrence_count(e)));
    events.truncate(KERNEL_EVENTS);
    events.sort_unstable();
    let sc = prepared.support_computer();
    let seeds: Vec<SupportSet> = events.iter().map(|&e| sc.initial_support_set(e)).collect();
    let (samples, growths) = report::time_reps(3, MIN_LAYER_S, || {
        kernel::grow_layer(prepared.index(), &seeds, &events)
    });
    let per_layer = report::median(&samples);
    report.put("core.kernel.grow_layer_s", per_layer, "s", samples.len());
    report.put(
        "core.kernel.growths_per_s",
        growths as f64 / per_layer,
        "1/s",
        samples.len(),
    );
}

/// `ClosureChecker::check` on every distinct prefix of every pattern that
/// an unconstrained closed request emitted; other requests make no calls.
fn closure_layer(
    prepared: &PreparedDb,
    requests: &[MiningRequest],
    outcomes: &[MiningOutcome],
    report: &mut Report,
) {
    let sc = prepared.support_computer();
    let mut verdicts = [0u64; 3];
    let mut check_s = 0.0;
    for (request, outcome) in requests.iter().zip(outcomes) {
        if request.mode != Mode::Closed || request.top_k.is_some() {
            continue;
        }
        if !request.constraints.is_unbounded() {
            continue;
        }
        let frequent = prepared.frequent_events(request.min_sup);
        let checker = ClosureChecker::new(&sc, &frequent);
        let mut scratch = CheckScratch::new();
        let prefixes: std::collections::BTreeSet<Vec<EventId>> = outcome
            .patterns
            .iter()
            .flat_map(|m| {
                let events = m.pattern.events();
                (1..=events.len()).map(move |len| events[..len].to_vec())
            })
            .collect();
        for events in prefixes {
            let mut stack: Vec<SupportSet> = vec![sc.initial_support_set(events[0])];
            for &e in &events[1..] {
                let next = sc.instance_growth(stack.last().expect("non-empty"), e);
                stack.push(next);
            }
            let support = stack.last().expect("non-empty").support();
            let append_equal = frequent.iter().any(|&e| {
                sc.instance_growth(stack.last().expect("non-empty"), e)
                    .support()
                    == support
            });
            let pattern = Pattern::new(events);
            let (t, status) = span(|| checker.check(&pattern, &stack, append_equal, &mut scratch));
            check_s += t;
            verdicts[match status {
                ClosureStatus::Closed => 0,
                ClosureStatus::NonClosed => 1,
                ClosureStatus::Prune => 2,
            }] += 1;
        }
    }
    let calls: u64 = verdicts.iter().sum();
    report.put("core.closure.check_s", check_s, "s", calls as usize);
    report.put("core.closure.calls", calls as f64, "count", 1);
    report.put(
        "core.closure.verdicts.closed",
        verdicts[0] as f64,
        "count",
        1,
    );
    report.put(
        "core.closure.verdicts.non_closed",
        verdicts[1] as f64,
        "count",
        1,
    );
    report.put(
        "core.closure.verdicts.prune",
        verdicts[2] as f64,
        "count",
        1,
    );
}
