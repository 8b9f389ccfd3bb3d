//! `ingest-fig5`: the paper-scale Fig. 5 corpus through `snapshot build`,
//! then a fresh process that opens the image and answers one cheap query.
//! Storage (io, index, snapshot) does all of the work here.

use std::path::Path;

use rgs_core::{MiningRequest, Mode, PreparedDb};

use crate::batch::{build_image, check_answer, in_process_answer, read, window_loop};
use crate::report::{self, Report};
use crate::{corpus, layers, proc, serve, Ctx};

/// Each build writes an image of about 1 GB; with the text, a second image
/// during verification and page-cache slack, refuse to start below this.
const MIN_FREE_BYTES: u64 = 3 << 30;

/// Set-up repeats `snapshot build` (about 5.5 s each) until the builds add
/// up to this many seconds: two builds.
const SETUP_MIN_S: f64 = 6.0;

/// The probe: frequent pairs of the most common events.
const PROBE_MIN_SUP: u64 = 5000;
const PROBE_MAX_LEN: usize = 2;

/// The probe as a library request.
pub fn probe() -> MiningRequest {
    MiningRequest {
        min_sup: PROBE_MIN_SUP,
        mode: Mode::All,
        max_pattern_length: Some(PROBE_MAX_LEN),
        ..MiningRequest::default()
    }
}

fn free_bytes(dir: &Path) -> Result<u64, String> {
    let out = std::process::Command::new("df")
        .args(["-Pk", dir.to_str().expect("utf-8 path")])
        .output()
        .map_err(|e| format!("cannot run df: {e}"))?;
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .nth(1)
        .and_then(|line| line.split_whitespace().nth(3))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "cannot read free disk space from df".to_owned())
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let free = free_bytes(&ctx.work)?;
    if free < MIN_FREE_BYTES {
        return Err(format!(
            "ingest-fig5 writes 1 GB snapshot images and needs about 3 GB free; only {} MB \
             free under {}",
            free >> 20,
            ctx.work.display()
        ));
    }
    let text = ctx.work.join("corpus.txt");
    let text_bytes = corpus::write_seeded(&corpus::fig5_largest_paper(), ctx.seed, &text);
    let image = ctx.work.join("corpus.img");
    let image_arg = image.to_str().expect("utf-8 path").to_owned();
    let (min_sup, max_len) = (PROBE_MIN_SUP.to_string(), PROBE_MAX_LEN.to_string());
    let probe_args = [
        "--snapshot",
        image_arg.as_str(),
        "--min-sup",
        min_sup.as_str(),
        "--mode",
        "all",
        "--max-len",
        max_len.as_str(),
        "--top",
        "1000000000",
    ];
    let probe = probe();

    if ctx.trace {
        // Only one 1 GB image at a time on disk: the untraced path removes
        // its image before the traced pass writes its own.
        let untraced = |report: &mut Report| {
            let (build, _) = build_image(ctx, &text, &image, 0.0, report);
            let (answer, _, _) = proc::run(&ctx.mine_bin(), &probe_args, &ctx.work, "probe");
            report.check(answer.success, || "untraced probe failed".to_owned());
            std::fs::remove_file(&image).expect("remove image");
            layers::Untraced {
                wall_s: build[0] + answer.wall.as_secs_f64(),
                mining_s: None,
            }
        };
        // Coverage is reported but not checked here: at 1.9 GB the kernel's
        // page faults and address-space teardown at exit, which no library
        // call can time, take 0.5–1 s of the binaries' 7.5 s.
        layers::measure(ctx, &text, &[probe], 1, untraced, report);
        let bodies = serve::probe_bodies(PROBE_MIN_SUP, PROBE_MAX_LEN);
        serve::trace_probe(ctx, &ctx.work.join("traced.img"), &bodies, report);
        return Ok(());
    }

    let (setups, setup_rss) = build_image(ctx, &text, &image, SETUP_MIN_S, report);
    let image_bytes = std::fs::metadata(&image).expect("image written").len();
    let (verified, out, _) = proc::run(
        &ctx.mine_bin(),
        &["snapshot", "verify", "--snapshot", image_arg.as_str()],
        &ctx.work,
        "verify",
    );
    report.check(
        verified.success && read(&out).contains("verify:    OK"),
        || format!("snapshot verify failed: {}", read(&out)),
    );
    let window = window_loop(ctx, &probe_args, report, |_, _| {});
    std::fs::remove_file(&image).expect("remove image");

    // The in-memory PreparedDb must answer exactly like the opened image.
    let db = seqdb::io::read_tokens_file(&text).expect("read corpus");
    let (_, expected) = in_process_answer(&PreparedDb::from_database(db), probe, report);
    check_answer(report, &window.first, &expected);

    let rss = setup_rss.max(verified.peak_rss_mb).max(window.rss);
    report::put_end_to_end(
        report,
        &setups,
        &window.walls,
        report::fastest(&window.walls),
        (report::percentile(&window.walls, 99.0), window.walls.len()),
        report::serial_rps(&window.walls),
        (rss, setups.len() + 1 + window.walls.len()),
        image_bytes as f64 / text_bytes as f64,
    );
    Ok(())
}
