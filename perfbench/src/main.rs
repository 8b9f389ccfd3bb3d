//! The repository's benchmark: four workloads over the shipped binaries,
//! each checked against in-process answers. See `README.md` beside this
//! crate for the workloads, the metrics and how to run it.
//!
//! ```text
//! perfbench --bin-dir DIR --root DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run drives `rgs-mine` and `rgs-serve` as a user
//! would and prints the end-to-end metrics; with `--trace 1` it also calls
//! the library layers in-process and times each call. The last stdout line
//! is the result object.

mod batch;
mod corpus;
mod ingest;
mod layers;
mod proc;
mod report;
mod serve;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Report;

/// What every workload needs: where the binaries are, a private scratch
/// directory, and the run's settings.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub bin_dir: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx {
    pub fn mine_bin(&self) -> PathBuf {
        self.bin_dir.join("rgs-mine")
    }

    pub fn serve_bin(&self) -> PathBuf {
        self.bin_dir.join("rgs-serve")
    }
}

/// The scratch directory of one run, removed when the run ends — also when
/// it ends in a panic, since unwinding drops it.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const WORKLOADS: [&str; 4] = ["closed-casestudy", "all-fig6", "serve-mixed", "ingest-fig5"];

struct Args {
    /// `--pass TEXT --pass-image IMG`: run one traced pass over `TEXT`
    /// for the workload's requests, print it and exit (see `layers`).
    pass: Option<(PathBuf, PathBuf)>,
    bin_dir: PathBuf,
    root: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bin_dir = None;
    let mut root = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut pass = None;
    let mut pass_image = None;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--root" => root = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value.clone()),
            "--pass" => pass = Some(PathBuf::from(value)),
            "--pass-image" => pass_image = Some(PathBuf::from(value)),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds must be a number")?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if let Some(text) = pass {
        let image = pass_image.ok_or("--pass needs --pass-image")?;
        return Ok(Args {
            pass: Some((text, image)),
            bin_dir: PathBuf::new(),
            root: PathBuf::new(),
            workload,
            seed: 0,
            seconds: 0.0,
            trace: true,
        });
    }
    Ok(Args {
        pass: None,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        root: root.ok_or("--root is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn git_rev(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned())
}

/// The backend line `rgs-mine stats` prints, e.g. `avx2 (cpu: sse2 avx2)`.
fn reported_backend(ctx: &Ctx) -> String {
    let out = std::process::Command::new(ctx.mine_bin())
        .args(["stats", "--demo"])
        .output()
        .expect("run rgs-mine stats");
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|line| line.strip_prefix("kernel backend:"))
        .map_or_else(|| "unknown".to_owned(), |rest| rest.trim().to_owned())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if let Some((text, image)) = &args.pass {
        let requests = match args.workload.as_str() {
            "closed-casestudy" => vec![batch::CLOSED_CASESTUDY.request()],
            "all-fig6" => vec![batch::ALL_FIG6.request()],
            "serve-mixed" => serve::menu_requests(),
            _ => vec![ingest::probe()],
        };
        println!("{}", layers::pass_line(text, image, &requests));
        return ExitCode::SUCCESS;
    }
    let work =
        args.root
            .join(".bench_work")
            .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).expect("create the scratch directory");
    let guard = WorkDir(work.clone());
    let ctx = Ctx {
        workload: args.workload.clone(),
        bin_dir: args.bin_dir,
        work,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let backend = reported_backend(&ctx);

    let mut report = Report::default();
    match args.workload.as_str() {
        "closed-casestudy" => batch::run(&ctx, &batch::CLOSED_CASESTUDY, &mut report),
        "all-fig6" => batch::run(&ctx, &batch::ALL_FIG6, &mut report),
        "serve-mixed" => serve::run(&ctx, &mut report),
        "ingest-fig5" => {
            if let Err(message) = ingest::run(&ctx, &mut report) {
                eprintln!("perfbench: {message}");
                return ExitCode::FAILURE;
            }
        }
        _ => unreachable!("workload names are checked in parse_args"),
    }
    drop(guard);

    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let nproc = serve::nproc();
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_rev\": \"{}\", \"nproc\": {nproc}, \"cpu_features\": \"{}\", \
         \"kernel_backend\": \"{backend}\", \"samples\": {}, \"raw\": {}}}}}",
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        git_rev(&args.root),
        seqdb::simd::detected_features(),
        report.samples_json(),
        report.raw_json(),
    );
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
