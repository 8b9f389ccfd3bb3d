//! The two mining-job workloads: one `rgs-mine` job over a prepared image,
//! repeated for the run's measuring window.

use std::collections::BTreeMap;
use std::path::Path;

use rgs_core::{reference, MiningOutcome, MiningRequest, Mode, PreparedDb};
use seqdb::SequenceDatabase;

use crate::corpus::{self, Rng};
use crate::report::{self, Report};
use crate::{layers, proc, serve, Ctx};

/// One mining-job workload.
#[derive(Debug)]
pub struct Batch {
    pub corpus: fn() -> SequenceDatabase,
    pub min_sup: u64,
    pub mode: Mode,
    pub mode_flag: &'static str,
    /// How many emitted patterns get their support re-derived outside the
    /// miner (see `reference_answer`); `None` means all of them.
    pub oracle_sample: Option<usize>,
}

/// The JBoss case study, closed patterns at min_sup 40: closure-bound, and
/// 0.16–0.33 s a job, so a window holds about a hundred of them. (At the
/// paper's min_sup 18 a job takes 5–9 s and a window held three.)
pub const CLOSED_CASESTUDY: Batch = Batch {
    corpus: corpus::case_study,
    min_sup: 40,
    mode: Mode::Closed,
    mode_flag: "closed",
    oracle_sample: None,
};

/// The longest Fig. 6 corpus, all frequent patterns at min_sup 130:
/// growth-bound, no closure check, and short enough jobs that a window
/// holds dozens of them.
pub const ALL_FIG6: Batch = Batch {
    corpus: corpus::fig6_largest_dev,
    min_sup: 130,
    mode: Mode::All,
    mode_flag: "all",
    oracle_sample: Some(200),
};

impl Batch {
    pub fn request(&self) -> MiningRequest {
        MiningRequest {
            min_sup: self.min_sup,
            mode: self.mode,
            ..MiningRequest::default()
        }
    }
}

/// `reference::max_non_overlapping` enumerates every landmark and then
/// backtracks over them, so it only runs where no sequence holds more than
/// this many landmarks of the pattern. Case-study patterns run to
/// thousands (at min_sup 18 a 27-event one has 38,225 in one trace).
const ORACLE_MAX_LANDMARKS: u64 = 24;

/// Set-up repeats `snapshot build` (a few ms on these corpora) until the
/// builds add up to this many seconds: hundreds of samples.
const SETUP_MIN_S: f64 = 1.5;

/// Rounds of the traced run (see `layers::measure`).
const TRACE_ROUNDS: usize = 3;

/// Rendered pattern -> support.
pub type Answer = BTreeMap<String, u64>;

/// Parses `rgs-mine` text output (`PATTERN\tsup=K\tlen=L` lines).
pub fn parse_answer(stdout: &str) -> Result<Answer, String> {
    let mut answer = Answer::new();
    for line in stdout.lines() {
        let mut fields = line.split('\t');
        let (Some(pattern), Some(sup)) = (fields.next(), fields.next()) else {
            return Err(format!("malformed output line {line:?}"));
        };
        let support = sup
            .strip_prefix("sup=")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("malformed support in {line:?}"))?;
        answer.insert(pattern.to_owned(), support);
    }
    Ok(answer)
}

/// Runs `rgs-mine snapshot build` at least once and until the builds add
/// up to `min_total_s`; returns the wall times and the largest child RSS.
pub fn build_image(
    ctx: &Ctx,
    text: &Path,
    image: &Path,
    min_total_s: f64,
    report: &mut Report,
) -> (Vec<f64>, f64) {
    let mut walls: Vec<f64> = Vec::new();
    let mut rss: f64 = 0.0;
    let (text, image) = (
        text.to_str().expect("utf-8 path"),
        image.to_str().expect("utf-8 path"),
    );
    while walls.is_empty() || walls.iter().sum::<f64>() < min_total_s {
        let (done, _, err) = proc::run(
            &ctx.mine_bin(),
            &["snapshot", "build", "--input", text, "--out", image],
            &ctx.work,
            "build",
        );
        report.check(done.success, || {
            format!("snapshot build #{} failed: {}", walls.len(), read(&err))
        });
        walls.push(done.wall.as_secs_f64());
        rss = rss.max(done.peak_rss_mb);
    }
    (walls, rss)
}

/// The `Miner::run` time `rgs-mine` reports on stderr, from its
/// `# N <mode> patterns mined in X.XXXs` line.
fn reported_mining_s(stderr: &str) -> Option<f64> {
    stderr
        .lines()
        .find_map(|line| line.split_once(" patterns mined in "))
        .and_then(|(_, rest)| rest.split_once('s'))
        .and_then(|(secs, _)| secs.parse().ok())
        .filter(|&secs: &f64| secs > 0.0)
}

pub fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// What a measuring window saw.
pub struct Window {
    /// Spawn to exit of each run, seconds.
    pub walls: Vec<f64>,
    /// The largest `ru_maxrss` of the runs, MiB.
    pub rss: f64,
    /// The first run's stdout; every later run printed the same.
    pub first: String,
}

/// Runs `rgs-mine args…` back to back, at least once and until the run's
/// window ends, calling `between` after each run with the share of the
/// window gone. Each run is one checked answer: it must exit 0, report no
/// truncation, and print exactly what the first run printed.
pub fn window_loop(
    ctx: &Ctx,
    args: &[&str],
    report: &mut Report,
    mut between: impl FnMut(f64, &mut Report),
) -> Window {
    let window = std::time::Instant::now();
    let mut walls = Vec::new();
    let mut rss: f64 = 0.0;
    let mut first: Option<String> = None;
    while walls.is_empty() || window.elapsed().as_secs_f64() < ctx.seconds {
        let (done, out, err) = proc::run(&ctx.mine_bin(), args, &ctx.work, "job");
        let stdout = read(&out);
        let stderr = read(&err);
        let same = first.as_ref().is_none_or(|f| *f == stdout);
        report.check(
            done.success && same && !stderr.contains("TRUNCATED"),
            || {
                format!(
                    "run #{} exit ok {}, same output as run #0 {same}: {stderr}",
                    walls.len(),
                    done.success
                )
            },
        );
        walls.push(done.wall.as_secs_f64());
        rss = rss.max(done.peak_rss_mb);
        first.get_or_insert(stdout);
        between(window.elapsed().as_secs_f64() / ctx.seconds, report);
    }
    Window {
        walls,
        rss,
        first: first.unwrap_or_default(),
    }
}

/// Mines `request` in-process; the outcome must not be truncated.
pub fn in_process_answer(
    prepared: &PreparedDb,
    request: MiningRequest,
    report: &mut Report,
) -> (MiningOutcome, Answer) {
    let outcome = prepared.miner().with_request(request).run();
    report.check(!outcome.truncated, || "in-process run truncated".to_owned());
    let catalog = prepared.catalog();
    let answer = outcome
        .patterns
        .iter()
        .map(|m| (m.pattern.render_with(catalog, " "), m.support))
        .collect();
    (outcome, answer)
}

/// Checks a binary's printed answer against the in-process one.
pub fn check_answer(report: &mut Report, stdout: &str, expected: &Answer) {
    match parse_answer(stdout) {
        Ok(got) => report.check(!got.is_empty() && got == *expected, || {
            format!(
                "binary gave {} patterns, in-process {}; first difference {:?}",
                got.len(),
                expected.len(),
                got.iter().zip(expected).find(|(a, b)| a != b)
            )
        }),
        Err(message) => report.check(false, || message),
    }
}

/// The in-process answer of `w` over the token file. The sampled supports
/// are re-derived by `greedy_support` and, where it is tractable, by
/// `reference::max_non_overlapping`; both checks go into `report`.
fn reference_answer(ctx: &Ctx, w: &Batch, text: &Path, report: &mut Report) -> Answer {
    let db = seqdb::io::read_tokens_file(text).expect("read corpus");
    let prepared = PreparedDb::from_database(db);
    let (outcome, answer) = in_process_answer(&prepared, w.request(), report);
    let db = prepared.database();
    let mut picked: Vec<usize> = (0..outcome.patterns.len()).collect();
    if let Some(n) = w.oracle_sample {
        Rng::new(ctx.seed).shuffle(&mut picked);
        picked.truncate(n);
    }
    for i in picked {
        let mined = &outcome.patterns[i];
        let events = mined.pattern.events();
        let greedy = greedy_support(db, events);
        report.check(greedy == mined.support, || {
            format!(
                "greedy support of {} is {greedy}, miner says {}",
                mined.pattern.render_with(db.catalog(), " "),
                mined.support
            )
        });
        if max_landmarks(db, events) <= ORACLE_MAX_LANDMARKS {
            let oracle = reference::max_non_overlapping(db, events);
            report.check(oracle == mined.support, || {
                format!(
                    "oracle support of {} is {oracle}, miner says {}",
                    mined.pattern.render_with(db.catalog(), " "),
                    mined.support
                )
            });
        }
    }
    answer
}

pub fn run(ctx: &Ctx, w: &Batch, report: &mut Report) {
    let text = ctx.work.join("corpus.txt");
    let text_bytes = corpus::write_seeded(&(w.corpus)(), ctx.seed, &text);
    let image = ctx.work.join("corpus.img");
    let min_sup = w.min_sup.to_string();
    let image_arg = image.to_str().expect("utf-8 path").to_owned();
    let job_args = [
        "--snapshot",
        image_arg.as_str(),
        "--min-sup",
        min_sup.as_str(),
        "--mode",
        w.mode_flag,
        "--top",
        "1000000000",
    ];

    if ctx.trace {
        let untraced = |report: &mut Report| {
            let (build, _) = build_image(ctx, &text, &image, 0.0, report);
            let (job, _, err) = proc::run(&ctx.mine_bin(), &job_args, &ctx.work, "job");
            let stderr = read(&err);
            let mining_s = reported_mining_s(&stderr);
            report.check(job.success && mining_s.is_some(), || {
                format!("untraced job failed: {stderr}")
            });
            layers::Untraced {
                wall_s: build[0] + job.wall.as_secs_f64(),
                mining_s,
            }
        };
        let coverage = layers::measure(ctx, &text, &[w.request()], TRACE_ROUNDS, untraced, report);
        report.check(coverage >= layers::MIN_COVERAGE, || {
            format!(
                "trace.coverage {coverage:.4} is below {}",
                layers::MIN_COVERAGE
            )
        });
        let bodies = serve::probe_bodies(w.min_sup, 3);
        serve::trace_probe(ctx, &ctx.work.join("traced.img"), &bodies, report);
        return;
    }

    // The set-up samples are spread over the window, between jobs, so that
    // they see the same host phases as the jobs do.
    let (mut setups, mut setup_rss) = build_image(ctx, &text, &image, 0.0, report);
    let image_bytes = std::fs::metadata(&image).expect("image written").len();
    let window = window_loop(ctx, &job_args, report, |share, report| {
        let due = SETUP_MIN_S * share - setups.iter().sum::<f64>();
        if due > 0.0 {
            let (more, rss) = build_image(ctx, &text, &image, due, report);
            setups.extend(more);
            setup_rss = setup_rss.max(rss);
        }
    });
    let expected = reference_answer(ctx, w, &text, report);
    check_answer(report, &window.first, &expected);

    report::put_end_to_end(
        report,
        &setups,
        &window.walls,
        report::fastest(&window.walls),
        (report::percentile(&window.walls, 99.0), window.walls.len()),
        report::serial_rps(&window.walls),
        (setup_rss.max(window.rss), setups.len() + window.walls.len()),
        image_bytes as f64 / text_bytes as f64,
    );
}

/// Repetitive support by the leftmost greedy of Algorithm 2, written
/// here from the paper over plain event slices: no index, no posting
/// cursors, no SIMD. It checks the library's kernels on supports that the
/// brute-force oracle cannot reach.
fn greedy_support(db: &SequenceDatabase, pattern: &[seqdb::EventId]) -> u64 {
    let mut total = 0u64;
    for seq in db.sequences() {
        let events: Vec<seqdb::EventId> = seq.iter_events().collect();
        // The last position of each instance, in instance order.
        let mut lasts: Vec<usize> = (0..events.len())
            .filter(|&p| events[p] == pattern[0])
            .collect();
        for &event in &pattern[1..] {
            let mut grown = Vec::with_capacity(lasts.len());
            let mut watermark = 0usize;
            for &last in &lasts {
                match (last.max(watermark) + 1..events.len()).find(|&p| events[p] == event) {
                    Some(p) => {
                        grown.push(p);
                        watermark = p;
                    }
                    None => break,
                }
            }
            lasts = grown;
        }
        total += lasts.len() as u64;
    }
    total
}

/// The largest number of landmarks (embeddings) of `pattern` in any one
/// sequence, counted by dynamic programming and saturating at `u64::MAX`.
fn max_landmarks(db: &SequenceDatabase, pattern: &[seqdb::EventId]) -> u64 {
    let mut worst = 0u64;
    for seq in db.sequences() {
        let mut ways = vec![0u64; pattern.len() + 1];
        ways[0] = 1;
        for event in seq.iter_events() {
            for j in (1..=pattern.len()).rev() {
                if pattern[j - 1] == event {
                    ways[j] = ways[j].saturating_add(ways[j - 1]);
                }
            }
        }
        worst = worst.max(ways[pattern.len()]);
    }
    worst
}
