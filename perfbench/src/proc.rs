//! Running the shipped binaries as a user would: spawn, wait, and read the
//! child's own peak RSS with `wait4`, so the figure excludes the harness.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets: two timevals, then 14 longs
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How one child process ended.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Spawn to reaped exit.
    pub wall: Duration,
    /// `ru_maxrss` of the child, in MiB.
    pub peak_rss_mb: f64,
    /// `true` when the child exited normally with status 0.
    pub success: bool,
}

/// Reaps `child` with `wait4` and returns its exit and peak RSS. The caller
/// must not call `Child::wait` afterwards: the pid is gone.
pub fn reap(child: &Child, started: Instant) -> Finished {
    let pid = i32::try_from(child.id()).expect("pid fits in i32");
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the C types `int` and `struct rusage` (64-bit Linux); `pid` is our
        // own unreaped child, so the call reaps nothing else.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        assert!(
            err.kind() == std::io::ErrorKind::Interrupted,
            "wait4({pid}) failed: {err}"
        );
    }
    let wall = started.elapsed();
    let exited = status & 0x7f == 0;
    let code = (status >> 8) & 0xff;
    Finished {
        wall,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
        success: exited && code == 0,
    }
}

// Children are reaped by `reap` (wait4, for their rusage), not `Child::wait`.
#[allow(clippy::zombie_processes)]
/// Runs `bin args…` to completion with stdout and stderr captured in
/// files under `dir` (named after `tag`), returning the exit record and
/// the two file paths.
pub fn run(bin: &Path, args: &[&str], dir: &Path, tag: &str) -> (Finished, PathBuf, PathBuf) {
    let out = dir.join(format!("{tag}.out"));
    let err = dir.join(format!("{tag}.err"));
    let stdout = File::create(&out).expect("create stdout capture");
    let stderr = File::create(&err).expect("create stderr capture");
    let started = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()
        .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", bin.display()));
    let finished = reap(&child, started);
    (finished, out, err)
}
