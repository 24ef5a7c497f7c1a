//! Runs the whole experiment suite — every table and figure binary — on
//! the worker pool, forwarding the common flags. CI runs `run_all --out`
//! once and compares every file it writes against `results/`.
//!
//! Each experiment runs as a child process with captured output; sections
//! are printed in suite order once all children finish, so the console
//! transcript is identical regardless of `--jobs`. A binary that cannot be
//! launched (missing, not executable) is a listed failure like any other —
//! never a panic. All failure paths funnel through the single
//! [`std::process::ExitCode`] returned from `main`.

use std::fmt;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use lunule_util::WorkerPool;

const EXPERIMENTS: [&str; 11] = [
    "table1",
    "single_workloads",
    "fig8_end_to_end",
    "mixed_workload",
    "fig12_dynamics",
    "fig13_scalability",
    "latency",
    "hetero",
    "resilience",
    "memory",
    "session",
];

/// Why the suite (or one experiment in it) could not run.
#[derive(Debug)]
enum SuiteError {
    /// The harness could not locate its own binary directory.
    NoBinDir(std::io::Error),
    /// The experiment binary could not be launched at all.
    Launch {
        path: PathBuf,
        source: std::io::Error,
    },
    /// The experiment ran but exited unsuccessfully.
    Failed { status: std::process::ExitStatus },
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::NoBinDir(e) => write!(f, "cannot locate experiment binaries: {e}"),
            SuiteError::Launch { path, source } => {
                write!(f, "cannot launch {}: {source}", path.display())
            }
            SuiteError::Failed { status } => write!(f, "exited with {status}"),
        }
    }
}

/// Captured outcome of one experiment child.
struct Report {
    name: &'static str,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
    error: Option<SuiteError>,
}

fn run_one(bin_dir: &std::path::Path, name: &'static str, args: &[String]) -> Report {
    let path = bin_dir.join(name);
    match Command::new(&path).args(args).output() {
        Err(source) => Report {
            name,
            stdout: Vec::new(),
            stderr: Vec::new(),
            error: Some(SuiteError::Launch { path, source }),
        },
        Ok(out) => Report {
            name,
            stdout: out.stdout,
            stderr: out.stderr,
            error: if out.status.success() {
                None
            } else {
                Some(SuiteError::Failed { status: out.status })
            },
        },
    }
}

/// Extracts the `--jobs N` value from the forwarded flags (the flag is
/// still forwarded to the children, whose internal grids honour it too).
fn jobs_from(args: &[String]) -> usize {
    let mut it = args.iter();
    let mut jobs = 0;
    while let Some(flag) = it.next() {
        if flag == "--jobs" {
            if let Some(n) = it.next().and_then(|v| v.parse().ok()) {
                jobs = n;
            }
        }
    }
    jobs
}

fn run_suite() -> Result<Vec<Report>, SuiteError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let me = std::env::current_exe().map_err(SuiteError::NoBinDir)?;
    let bin_dir = me
        .parent()
        .ok_or_else(|| {
            SuiteError::NoBinDir(std::io::Error::other("executable has no parent directory"))
        })?
        .to_path_buf();
    let pool = WorkerPool::new(jobs_from(&args));
    eprintln!(
        "run_all: {} experiments across {} workers",
        EXPERIMENTS.len(),
        pool.jobs()
    );
    Ok(pool.map_indices(EXPERIMENTS.len(), |i| {
        eprintln!("run_all: starting {}", EXPERIMENTS[i]);
        run_one(&bin_dir, EXPERIMENTS[i], &args)
    }))
}

fn main() -> ExitCode {
    let reports = match run_suite() {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("run_all: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failures = Vec::new();
    for report in &reports {
        println!("\n================ {} ================", report.name);
        print!("{}", String::from_utf8_lossy(&report.stdout));
        if !report.stderr.is_empty() {
            eprint!("{}", String::from_utf8_lossy(&report.stderr));
        }
        if let Some(e) = &report.error {
            eprintln!("{}: {e}", report.name);
            failures.push(report.name);
        }
    }
    if failures.is_empty() {
        println!("\nall {} experiments completed", reports.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("\nfailed experiments: {failures:?}");
        ExitCode::FAILURE
    }
}
