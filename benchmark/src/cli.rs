//! Command-line parsing. Anything unrecognised is an error; `main` turns
//! it into exit code 2.

use crate::workloads::Workload;

/// Usage text printed with every CLI error and for `--help`.
pub const USAGE: &str = "\
usage: lunule-benchmark --workload <zipf_read|md_cycle|mega_cohort|service_mixed>
                        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

  --seed N      workload seed (default 42)
  --seconds S   loop-time budget: further passes run while they fit (default 10)
  --trace 1     traced pass: per-layer metrics and out/<workload>/trace.json
  --smoke       same code paths on shrunken inputs, one pass";

/// What one child process measures (internal `--child <mode>`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics: three set-ups, then passes within the budget.
    Measure,
    /// One set-up, one pass, as configured.
    Single,
    /// One set-up, one pass, telemetry flipped from its configured state.
    Flip,
    /// One set-up, one pass with every timing delegate attached.
    Traced,
}

impl Mode {
    const NAMES: [(&'static str, Mode); 4] = [
        ("measure", Mode::Measure),
        ("single", Mode::Single),
        ("flip", Mode::Flip),
        ("traced", Mode::Traced),
    ];

    /// The `--child` argument naming this mode.
    pub fn name(self) -> &'static str {
        Mode::NAMES
            .iter()
            .find(|(_, m)| *m == self)
            .map_or("measure", |(n, _)| n)
    }

    fn parse(name: &str) -> Option<Mode> {
        Mode::NAMES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, m)| *m)
    }
}

/// Parsed arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Loop-time budget, seconds.
    pub seconds: u64,
    /// Report per-layer metrics from a traced pass instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Shrunken inputs.
    pub smoke: bool,
    /// Set in a child process: the pass it runs.
    pub child: Option<Mode>,
}

/// The outcome of parsing: arguments, or a request for the usage text.
#[derive(Debug, PartialEq)]
pub enum Parsed {
    /// Run with these arguments.
    Run(Args),
    /// `--help`.
    Help,
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Parsed, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut smoke = false;
    let mut child = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--help" | "-h" => return Ok(Parsed::Help),
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                let v = value("an unsigned integer")?;
                seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("a positive integer")?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s| *s >= 1)
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (want 0 or 1)")),
                };
            }
            "--smoke" => smoke = true,
            "--child" => {
                let v = value("a mode")?;
                child = Some(Mode::parse(v).ok_or_else(|| format!("unknown --child `{v}`"))?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Parsed::Run(Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        child,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn full_command_line_parses() {
        let parsed = parse(&args(
            "--workload md_cycle --seed 1337 --seconds 12 --trace 1",
        ));
        let Ok(Parsed::Run(a)) = parsed else {
            panic!("{parsed:?}");
        };
        assert_eq!(a.workload, Workload::MdCycle);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (1337, 12, true, false)
        );
        assert_eq!(a.child, None);
        let Ok(Parsed::Run(d)) = parse(&args("--workload zipf_read")) else {
            panic!("defaults");
        };
        assert_eq!((d.seed, d.seconds, d.trace), (42, 10, false));
    }

    #[test]
    fn bad_input_is_rejected() {
        for bad in [
            "",
            "--workload",
            "--workload nope",
            "--workload zipf_read --bogus",
            "--workload zipf_read --seed -1",
            "--workload zipf_read --seconds 0",
            "--workload zipf_read --trace 2",
            "--workload zipf_read --child nope",
            "zipf_read",
        ] {
            assert!(parse(&args(bad)).is_err(), "`{bad}` must be rejected");
        }
        assert_eq!(parse(&args("--help")), Ok(Parsed::Help));
    }

    #[test]
    fn child_modes_round_trip() {
        for (name, mode) in Mode::NAMES {
            assert_eq!(mode.name(), name);
            assert_eq!(Mode::parse(name), Some(mode));
        }
    }
}
