//! Minimal CLI argument parsing shared by the experiment binaries.
//!
//! Hand-rolled on purpose: the binaries take four flags, which does not
//! justify an argument-parsing dependency in the workspace.

/// Flags every experiment binary understands.
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// Dataset/op-count scale relative to the paper (default 0.1 — fits a
    /// laptop while preserving shapes).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Concurrent clients (paper default: 100).
    pub clients: usize,
    /// Directory for JSON result dumps; `None` disables them.
    pub out_dir: Option<String>,
    /// Directory for telemetry exports (JSONL events, CSV metrics, Chrome
    /// trace); `None` keeps telemetry disabled and the hot path free.
    pub telemetry_out: Option<String>,
    /// Quick mode: shrink scale/duration further for CI smoke runs.
    pub quick: bool,
    /// Fault-schedule spec (scripted `crash@T:R:D;...` or seeded
    /// `seed=7,crashes=2,...`); `None` runs fault-free. Parsed by
    /// `lunule_faults::parse_spec` against the run's MDS count and
    /// duration.
    pub faults: Option<String>,
    /// Worker-pool width for parallel drivers (`run_all`, grid sweeps, the
    /// chaos battery). `0` = auto (`available_parallelism`). Results are
    /// byte-identical regardless of the value — only wall time changes.
    pub jobs: usize,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            scale: 0.1,
            seed: 42,
            clients: 100,
            out_dir: Some("results".to_string()),
            telemetry_out: None,
            quick: false,
            faults: None,
            jobs: 0,
        }
    }
}

impl CommonArgs {
    /// Parses `std::env::args()`; unknown flags abort with a usage message.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = CommonArgs::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => out.scale = expect_value(&mut it, "--scale"),
                "--seed" => out.seed = expect_value(&mut it, "--seed"),
                "--clients" => out.clients = expect_value(&mut it, "--clients"),
                "--out" => {
                    out.out_dir = Some(
                        it.next()
                            .unwrap_or_else(|| usage("--out needs a directory")),
                    )
                }
                "--no-out" => out.out_dir = None,
                "--telemetry-out" => {
                    out.telemetry_out = Some(
                        it.next()
                            .unwrap_or_else(|| usage("--telemetry-out needs a directory")),
                    )
                }
                "--faults" => {
                    out.faults = Some(
                        it.next()
                            .unwrap_or_else(|| usage("--faults needs a spec string")),
                    )
                }
                "--jobs" => out.jobs = expect_value(&mut it, "--jobs"),
                "--quick" => out.quick = true,
                "--help" | "-h" => usage("usage"),
                other => usage(&format!("unknown flag: {other}")),
            }
        }
        if out.quick {
            out.scale = out.scale.min(0.02);
            out.clients = out.clients.min(20);
        }
        out
    }
}

fn expect_value<T: std::str::FromStr, I: Iterator<Item = String>>(it: &mut I, flag: &str) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

// The bench harness is a CLI: exiting with a usage message is the contract.
#[allow(clippy::exit)]
fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}\n\nflags:\n  --scale <f>     dataset/op scale (default 0.1)\n  --seed <u64>    master seed (default 42)\n  --clients <n>   concurrent clients (default 100)\n  --out <dir>     JSON dump directory (default ./results)\n  --no-out        disable JSON dumps\n  --telemetry-out <dir>  export telemetry (events JSONL, metrics CSV, Chrome trace)\n  --faults <spec> fault schedule: crash@T:R:D;limp@T:R:F:D;loss@T:R:E;stall@T:R:D, or seed=N,crashes=2,...\n  --jobs <n>      worker-pool width for parallel drivers (0 = auto)\n  --quick         CI smoke mode (tiny scale)"
    );
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> CommonArgs {
        CommonArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.scale, 0.1);
        assert_eq!(a.clients, 100);
        assert!(!a.quick);
    }

    #[test]
    fn overrides() {
        let a = parse(&[
            "--scale",
            "0.5",
            "--seed",
            "7",
            "--clients",
            "10",
            "--no-out",
        ]);
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.seed, 7);
        assert_eq!(a.clients, 10);
        assert!(a.out_dir.is_none());
    }

    #[test]
    fn telemetry_out_flag() {
        assert!(parse(&[]).telemetry_out.is_none());
        let a = parse(&["--telemetry-out", "traces"]);
        assert_eq!(a.telemetry_out.as_deref(), Some("traces"));
    }

    #[test]
    fn faults_flag() {
        assert!(parse(&[]).faults.is_none());
        let a = parse(&["--faults", "crash@30:1:20"]);
        assert_eq!(a.faults.as_deref(), Some("crash@30:1:20"));
    }

    #[test]
    fn jobs_flag() {
        assert_eq!(parse(&[]).jobs, 0);
        assert_eq!(parse(&["--jobs", "4"]).jobs, 4);
        // 0 stays 0 (auto) — resolution happens in the pool.
        assert_eq!(parse(&["--jobs", "0"]).jobs, 0);
    }

    #[test]
    fn quick_caps_scale_and_clients() {
        let a = parse(&["--quick"]);
        assert!(a.scale <= 0.02);
        assert!(a.clients <= 20);
    }
}
