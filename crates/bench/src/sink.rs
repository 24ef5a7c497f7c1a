//! Telemetry export plumbing for the experiment binaries.
//!
//! A [`TelemetrySink`] is the bridge between `--telemetry-out <dir>` and
//! the [`lunule_telemetry::Telemetry`] handles the simulator records into:
//! binaries mint one labelled handle per run, thread it through
//! `SimConfig`, and flush everything at the end. Without the flag every
//! minted handle is [`Telemetry::disabled`], so instrumentation stays a
//! single branch per site.

use lunule_telemetry::Telemetry;
use std::path::{Path, PathBuf};

/// Collects labelled telemetry handles and exports them on flush.
#[derive(Debug, Default)]
pub struct TelemetrySink {
    dir: Option<PathBuf>,
    handles: Vec<(String, Telemetry)>,
}

impl TelemetrySink {
    /// Builds a sink from the parsed `--telemetry-out` flag.
    pub fn from_args(args: &crate::CommonArgs) -> Self {
        TelemetrySink {
            dir: args.telemetry_out.as_ref().map(PathBuf::from),
            handles: Vec::new(),
        }
    }

    /// True when exports were requested.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Mints a handle for one run. Enabled (and remembered for
    /// [`TelemetrySink::flush`]) when an export directory is set, disabled
    /// otherwise. Labels become file-name stems, so they are sanitised to
    /// `[a-z0-9_-]`.
    pub fn handle(&mut self, label: &str) -> Telemetry {
        if self.dir.is_none() {
            return Telemetry::disabled();
        }
        let tel = Telemetry::enabled();
        self.handles.push((sanitize(label), tel.clone()));
        tel
    }

    /// Exports every labelled handle into the sink directory, returning the
    /// files written (three per handle: events JSONL, metrics CSV, Chrome
    /// trace JSON).
    pub fn flush(&self) -> std::io::Result<Vec<PathBuf>> {
        let Some(dir) = &self.dir else {
            return Ok(Vec::new());
        };
        let mut written = Vec::new();
        for (label, tel) in &self.handles {
            written.extend(tel.export(dir, label)?);
        }
        Ok(written)
    }

    /// Flushes and prints a one-line summary; errors become a warning on
    /// stderr instead of aborting the experiment that already ran.
    pub fn flush_and_report(&self) {
        if !self.is_enabled() {
            return;
        }
        match self.flush() {
            Ok(files) => println!(
                "telemetry: wrote {} file(s) to {}",
                files.len(),
                self.dir.as_deref().unwrap_or(Path::new(".")).display()
            ),
            Err(e) => eprintln!("telemetry: export failed: {e}"),
        }
    }
}

/// Lowercases `label` and maps anything outside `[a-z0-9_-]` to `-` so the
/// label is safe as a file-name stem on every platform.
fn sanitize(label: &str) -> String {
    label
        .to_lowercase()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_mints_disabled_handles() {
        let mut sink = TelemetrySink::from_args(&crate::CommonArgs::default());
        assert!(!sink.is_enabled());
        assert!(!sink.handle("run").is_enabled());
        assert!(sink.flush().unwrap().is_empty());
    }

    #[test]
    fn enabled_sink_exports_labelled_files() {
        let dir = std::env::temp_dir().join(format!("lunule-sink-{}", std::process::id()));
        let mut sink = TelemetrySink {
            dir: Some(dir.clone()),
            handles: Vec::new(),
        };
        assert!(sink.is_enabled());
        let tel = sink.handle("Fig 6 / zipf");
        assert!(tel.is_enabled());
        tel.set_clock(0);
        tel.counter_add("ops", 1);
        let files = sink.flush().unwrap();
        assert_eq!(files.len(), 3);
        for f in &files {
            let name = f.file_name().unwrap().to_string_lossy().into_owned();
            assert!(name.starts_with("fig-6---zipf."), "sanitised stem: {name}");
            assert!(f.is_file());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sanitize_keeps_safe_chars() {
        assert_eq!(sanitize("Fig6_mds-0.1"), "fig6_mds-0-1");
    }
}
