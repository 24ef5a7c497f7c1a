//! Output helpers: aligned text series for the terminal and JSON dumps for
//! post-processing.

use lunule_sim::{EpochRecord, RunResult};
use lunule_util::ToJson;
use std::io::Write;
use std::path::Path;

/// A named series of (x, y) points — the universal currency of the figure
/// binaries (time → IF, time → IOPS, MDS count → peak throughput, …).
#[derive(Clone, Debug, Default)]
pub struct Series {
    /// Legend label (e.g. "Lunule" or "mds.3").
    pub name: String,
    /// Data points in x order.
    pub points: Vec<(f64, f64)>,
}

lunule_util::impl_json_struct!(Series { name, points });

impl Series {
    /// Builds a series.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            name: name.into(),
            points,
        }
    }

    /// Mean of the y values (0 for an empty series).
    pub fn mean_y(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|(_, y)| y).sum::<f64>() / self.points.len() as f64
        }
    }

    /// Maximum y value.
    pub fn max_y(&self) -> f64 {
        self.points.iter().map(|(_, y)| *y).fold(0.0, f64::max)
    }
}

/// `y` of each of `r`'s epochs against simulated minutes, the x axis of
/// every time-series figure.
pub fn epoch_series(
    name: impl Into<String>,
    r: &RunResult,
    y: impl Fn(&EpochRecord) -> f64,
) -> Series {
    Series::new(
        name,
        r.epochs
            .iter()
            .map(|e| (e.time_secs as f64 / 60.0, y(e)))
            .collect(),
    )
}

/// One `mds.<rank>` IOPS series per rank in `0..n_mds`; an epoch from
/// before a rank joined reads 0 for it.
pub fn per_mds_iops(r: &RunResult, n_mds: usize) -> Vec<Series> {
    (0..n_mds)
        .map(|rank| {
            epoch_series(format!("mds.{rank}"), r, |e| {
                e.per_mds_iops.get(rank).copied().unwrap_or(0.0)
            })
        })
        .collect()
}

/// Prints a set of series as one aligned table: first column x, one column
/// per series. Series may have different lengths; missing cells are blank.
/// X values are taken from the longest series.
pub fn print_series(title: &str, xlabel: &str, series: &[Series]) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(out, "\n# {title}");
    let _ = write!(out, "{:>12}", xlabel);
    for s in series {
        let _ = write!(out, " {:>14}", truncate(&s.name, 14));
    }
    let _ = writeln!(out);
    let rows = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    let x_src = series
        .iter()
        .max_by_key(|s| s.points.len())
        .map(|s| &s.points);
    for row in 0..rows {
        let x = x_src
            .and_then(|p| p.get(row))
            .map(|(x, _)| *x)
            .unwrap_or(0.0);
        let _ = write!(out, "{x:>12.1}");
        for s in series {
            match s.points.get(row) {
                Some((_, y)) => {
                    let _ = write!(out, " {y:>14.3}");
                }
                None => {
                    let _ = write!(out, " {:>14}", "");
                }
            }
        }
        let _ = writeln!(out);
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

/// Serialises `value` as pretty JSON into `<dir>/<name>.json`, creating the
/// directory if needed. A `None` dir disables the dump.
pub fn write_json<T: ToJson>(dir: &Option<String>, name: &str, value: &T) {
    let Some(dir) = dir else { return };
    let path = Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(path) {
        eprintln!("warning: cannot create {dir}: {e}");
        return;
    }
    let file = path.join(format!("{name}.json"));
    let json = value.to_json().to_string_pretty();
    if let Err(e) = std::fs::write(&file, json) {
        eprintln!("warning: cannot write {}: {e}", file.display());
    } else {
        eprintln!("wrote {}", file.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_stats() {
        let s = Series::new("a", vec![(0.0, 1.0), (1.0, 3.0)]);
        assert_eq!(s.mean_y(), 2.0);
        assert_eq!(s.max_y(), 3.0);
        assert_eq!(Series::new("e", vec![]).mean_y(), 0.0);
    }

    #[test]
    fn json_dump_roundtrip() {
        let dir = std::env::temp_dir().join("lunule_bench_test");
        let dir_s = Some(dir.to_string_lossy().to_string());
        let s = vec![Series::new("x", vec![(1.0, 2.0)])];
        write_json(&dir_s, "unit_test_series", &s);
        let content =
            std::fs::read_to_string(dir.join("unit_test_series.json")).expect("file written");
        assert!(content.contains("\"name\": \"x\""));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn none_dir_is_noop() {
        write_json(&None, "never", &42);
    }
}
