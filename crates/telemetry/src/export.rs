//! Exporters: JSONL event log, CSV metric series, Chrome `trace_event`.
//!
//! All three render from a [`Snapshot`] and are deterministic: identical
//! snapshots produce byte-identical files. Numbers are formatted through
//! the `lunule-util` JSON writer so integers never grow a decimal point
//! and floats render stably.
//!
//! * `<label>.events.jsonl` — one flat event object per line (see
//!   [`crate::event`] for the schema). Parse back with
//!   [`parse_events_jsonl`].
//! * `<label>.metrics.csv` — long format `kind,name,label,tick,value`.
//!   Counters and histogram summary statistics have no tick (empty cell);
//!   gauges emit one row per sample.
//! * `<label>.trace.json` — a Chrome `trace_event` document
//!   (`{"traceEvents":[...]}`): phase spans become `B`/`E` pairs, other
//!   events become instants, gauge series become counter tracks. Open it
//!   in `chrome://tracing` or <https://ui.perfetto.dev>. Timestamps are
//!   synthesised as `tick * 1_000_000 + seq` microseconds so one simulated
//!   second renders as one trace second and intra-tick ordering survives.

use std::io::Write;
use std::path::{Path, PathBuf};

use lunule_util::convert::u64_to_f64;
use lunule_util::json::{FromJson, Json, JsonError, ToJson};

use crate::event::{Event, EventRecord};
use crate::Snapshot;

/// Microseconds per simulated tick in the Chrome trace timeline.
const TICK_US: u64 = 1_000_000;

/// Renders the JSONL event log.
pub fn events_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    for record in &snap.events {
        out.push_str(&record.to_json().to_string_compact());
        out.push('\n');
    }
    out
}

/// Parses a JSONL event log back into records, failing on the first bad
/// line. The inverse of [`events_jsonl`]; CI uses it to round-trip traces.
pub fn parse_events_jsonl(text: &str) -> Result<Vec<EventRecord>, JsonError> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| EventRecord::from_json(&Json::parse(line)?))
        .collect()
}

/// Formats a float through the JSON writer for stable output.
fn fmt_f64(v: f64) -> String {
    Json::Num(v).to_string_compact()
}

/// Renders the long-format CSV metric time series.
pub fn metrics_csv(snap: &Snapshot) -> String {
    let mut out = String::from("kind,name,label,tick,value\n");
    for (name, label, value) in snap.metrics.counters() {
        out.push_str(&format!("counter,{name},{label},,{value}\n"));
    }
    for (name, label, series) in snap.metrics.gauges() {
        for &(tick, value) in series {
            out.push_str(&format!("gauge,{name},{label},{tick},{}\n", fmt_f64(value)));
        }
    }
    for (name, hist) in snap.metrics.histograms() {
        let stats = [
            ("count", hist.count()),
            ("sum", hist.sum()),
            ("p50", hist.p50()),
            ("p95", hist.p95()),
            ("p99", hist.p99()),
            ("max", hist.max()),
        ];
        for (stat, value) in stats {
            out.push_str(&format!("histogram,{name}.{stat},0,,{value}\n"));
        }
        out.push_str(&format!(
            "histogram,{name}.mean,0,,{}\n",
            fmt_f64(hist.mean())
        ));
    }
    out
}

/// One Chrome `trace_event` object.
fn trace_obj(
    name: &str,
    ph: &str,
    ts: f64,
    args: Vec<(String, Json)>,
    extra: Vec<(String, Json)>,
) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::Str(name.to_string())),
        ("ph".to_string(), Json::Str(ph.to_string())),
        ("ts".to_string(), Json::Num(ts)),
        ("pid".to_string(), Json::Num(0.0)),
        ("tid".to_string(), Json::Num(0.0)),
    ];
    fields.extend(extra);
    if !args.is_empty() {
        fields.push(("args".to_string(), Json::Obj(args)));
    }
    Json::Obj(fields)
}

/// Renders the Chrome `trace_event` JSON document.
pub fn chrome_trace(snap: &Snapshot) -> String {
    let mut trace_events = Vec::new();
    for record in &snap.events {
        let ts = u64_to_f64(record.t * TICK_US + record.seq);
        match &record.event {
            // TickStart instants would flood the timeline; the tick grid
            // is already implied by the timestamp scale.
            Event::TickStart => {}
            Event::PhaseBegin { name } => {
                trace_events.push(trace_obj(name, "B", ts, Vec::new(), Vec::new()));
            }
            Event::PhaseEnd { name } => {
                trace_events.push(trace_obj(name, "E", ts, Vec::new(), Vec::new()));
            }
            other => {
                trace_events.push(trace_obj(
                    other.kind(),
                    "i",
                    ts,
                    other.payload(),
                    vec![("s".to_string(), Json::Str("t".to_string()))],
                ));
            }
        }
    }
    for (name, label, series) in snap.metrics.gauges() {
        let track = format!("{name}[{label}]");
        for &(tick, value) in series {
            trace_events.push(trace_obj(
                &track,
                "C",
                u64_to_f64(tick * TICK_US),
                vec![("value".to_string(), Json::Num(value))],
                Vec::new(),
            ));
        }
    }
    Json::Obj(vec![("traceEvents".to_string(), Json::Arr(trace_events))]).to_string_compact()
}

/// A wall-clock span for [`span_trace`]: a name and its begin and end in
/// microseconds on any clock shared by all spans of one trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WallSpan<'a> {
    /// Span name, shown on the timeline.
    pub name: &'a str,
    /// Begin, microseconds.
    pub begin_us: f64,
    /// End, microseconds; not before `begin_us`.
    pub end_us: f64,
}

/// Renders wall-clock spans as a Chrome `trace_event` document of
/// balanced `B`/`E` pairs on one track. `spans` come in pre-order: sorted
/// by begin, and an enclosing span before the spans it contains. A span
/// that ends before the next one begins is closed first, so sequential
/// spans sit side by side and contained spans nest.
pub fn span_trace(spans: &[WallSpan<'_>]) -> String {
    let mut trace_events = Vec::with_capacity(spans.len() * 2);
    let mut open: Vec<&WallSpan<'_>> = Vec::new();
    let close = |span: &WallSpan<'_>, out: &mut Vec<Json>| {
        out.push(trace_obj(
            span.name,
            "E",
            span.end_us,
            Vec::new(),
            Vec::new(),
        ));
    };
    for span in spans {
        while let Some(top) = open.last().filter(|top| top.end_us <= span.begin_us) {
            close(top, &mut trace_events);
            open.pop();
        }
        trace_events.push(trace_obj(
            span.name,
            "B",
            span.begin_us,
            Vec::new(),
            Vec::new(),
        ));
        open.push(span);
    }
    while let Some(top) = open.pop() {
        close(top, &mut trace_events);
    }
    Json::Obj(vec![("traceEvents".to_string(), Json::Arr(trace_events))]).to_string_compact()
}

/// Structural check that a trace document is well-formed Chrome JSON:
/// parses, has a `traceEvents` array, every entry has `name`/`ph`/`ts`,
/// and `B`/`E` phase events are balanced. Returns the event count.
pub fn validate_chrome_trace(text: &str) -> Result<usize, JsonError> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| JsonError::new("missing traceEvents array"))?;
    let mut depth = 0i64;
    for (i, entry) in events.iter().enumerate() {
        let ph = entry
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| JsonError::new(format!("traceEvents[{i}] missing ph")))?;
        if entry.get("name").and_then(Json::as_str).is_none() {
            return Err(JsonError::new(format!("traceEvents[{i}] missing name")));
        }
        if entry.get("ts").and_then(Json::as_f64).is_none() {
            return Err(JsonError::new(format!("traceEvents[{i}] missing ts")));
        }
        match ph {
            "B" => depth += 1,
            "E" => {
                depth -= 1;
                if depth < 0 {
                    return Err(JsonError::new(format!(
                        "traceEvents[{i}]: E without matching B"
                    )));
                }
            }
            "i" | "C" => {}
            other => {
                return Err(JsonError::new(format!(
                    "traceEvents[{i}]: unexpected phase '{other}'"
                )));
            }
        }
    }
    if depth != 0 {
        return Err(JsonError::new(format!("{depth} unclosed B spans")));
    }
    Ok(events.len())
}

/// Writes all three artifacts into `dir` (created if absent) with the stem
/// `label`, returning the paths in `[jsonl, csv, trace]` order.
pub fn export_all(snap: &Snapshot, dir: &Path, label: &str) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let artifacts = [
        (format!("{label}.events.jsonl"), events_jsonl(snap)),
        (format!("{label}.metrics.csv"), metrics_csv(snap)),
        (format!("{label}.trace.json"), chrome_trace(snap)),
    ];
    let mut paths = Vec::with_capacity(artifacts.len());
    for (file_name, contents) in artifacts {
        let path = dir.join(file_name);
        let mut f = std::fs::File::create(&path)?;
        f.write_all(contents.as_bytes())?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, Telemetry};

    fn sample_telemetry() -> Telemetry {
        let t = Telemetry::enabled();
        t.emit(|| Event::RunStart { n_mds: 2 });
        t.set_clock(1);
        t.emit(|| Event::TickStart);
        t.gauge_set("mds.iops", 0, 100.0);
        t.gauge_set("mds.iops", 1, 50.5);
        t.histogram_record("stall", 0);
        t.histogram_record("stall", 7);
        t.counter_add("ops", 12);
        t.set_clock(2);
        {
            let _span = t.span("balancer.epoch");
            t.emit(|| Event::Decision {
                epoch: 1,
                imbalance_factor: 0.3,
                triggered: false,
                pairings: 0,
                subtrees: 0,
                candidates: 5,
            });
        }
        t
    }

    #[test]
    fn jsonl_round_trips() {
        let t = sample_telemetry();
        let snap = t.snapshot().unwrap();
        let text = events_jsonl(&snap);
        let back = parse_events_jsonl(&text).unwrap();
        assert_eq!(back, snap.events);
    }

    #[test]
    fn jsonl_rejects_corrupt_lines() {
        assert!(parse_events_jsonl("{\"t\":0,").is_err());
        assert!(parse_events_jsonl("{\"t\":0,\"seq\":0,\"type\":\"nope\"}").is_err());
        assert!(parse_events_jsonl("").unwrap().is_empty());
    }

    #[test]
    fn csv_has_header_and_all_metric_kinds() {
        let t = sample_telemetry();
        let csv = metrics_csv(&t.snapshot().unwrap());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "kind,name,label,tick,value");
        assert!(lines.contains(&"counter,ops,0,,12"));
        assert!(lines.contains(&"gauge,mds.iops,0,1,100"));
        assert!(lines.contains(&"gauge,mds.iops,1,1,50.5"));
        assert!(lines.contains(&"histogram,stall.count,0,,2"));
        assert!(lines.contains(&"histogram,stall.p50,0,,0"));
        assert!(lines.contains(&"histogram,stall.max,0,,7"));
        assert!(lines.contains(&"histogram,stall.mean,0,,3.5"));
    }

    #[test]
    fn chrome_trace_validates_and_balances_spans() {
        let t = sample_telemetry();
        let trace = chrome_trace(&t.snapshot().unwrap());
        let n = validate_chrome_trace(&trace).unwrap();
        // run_start, B, decision instant, E, and 2 gauge counter samples;
        // tick_start is deliberately dropped.
        assert_eq!(n, 6);
        assert!(trace.contains("\"ph\":\"B\""));
        assert!(trace.contains("\"ph\":\"E\""));
        assert!(trace.contains("\"ph\":\"C\""));
        assert!(!trace.contains("tick_start"));
    }

    #[test]
    fn trace_timestamps_encode_tick_and_sequence() {
        let t = Telemetry::enabled();
        t.set_clock(3);
        t.emit(|| Event::MdsAdd { rank: 0 });
        t.emit(|| Event::MdsAdd { rank: 1 });
        let trace = chrome_trace(&t.snapshot().unwrap());
        assert!(trace.contains("\"ts\":3000000"));
        assert!(trace.contains("\"ts\":3000001"));
    }

    #[test]
    fn span_trace_nests_contained_spans_and_closes_sequential_ones() {
        let span = |name, begin_us, end_us| WallSpan {
            name,
            begin_us,
            end_us,
        };
        let spans = [
            span("tick", 0.0, 10.0),
            span("a", 0.5, 4.0),
            span("b", 4.0, 9.5),
            span("tick", 12.0, 13.0),
        ];
        let trace = span_trace(&spans);
        assert_eq!(validate_chrome_trace(&trace), Ok(8));
        let doc = Json::parse(&trace).unwrap();
        let order: Vec<(&str, &str)> = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| {
                let field = |k| e.get(k).and_then(Json::as_str).unwrap();
                (field("name"), field("ph"))
            })
            .collect();
        assert_eq!(
            order,
            [
                ("tick", "B"),
                ("a", "B"),
                ("a", "E"),
                ("b", "B"),
                ("b", "E"),
                ("tick", "E"),
                ("tick", "B"),
                ("tick", "E"),
            ]
        );
        assert!(trace.contains("\"ts\":0.5"));
        assert_eq!(validate_chrome_trace(&span_trace(&[])), Ok(0));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        let unbalanced = r#"{"traceEvents":[{"name":"x","ph":"E","ts":0,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(unbalanced).is_err());
        let bad_phase = r#"{"traceEvents":[{"name":"x","ph":"Z","ts":0,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(bad_phase).is_err());
    }

    #[test]
    fn exports_are_deterministic_across_identical_runs() {
        let a = sample_telemetry().snapshot().unwrap();
        let b = sample_telemetry().snapshot().unwrap();
        assert_eq!(events_jsonl(&a), events_jsonl(&b));
        assert_eq!(metrics_csv(&a), metrics_csv(&b));
        assert_eq!(chrome_trace(&a), chrome_trace(&b));
    }

    #[test]
    fn export_all_writes_three_files() {
        let t = sample_telemetry();
        let dir =
            std::env::temp_dir().join(format!("lunule-telemetry-test-{}", std::process::id()));
        let paths = t.export(&dir, "unit").unwrap();
        assert_eq!(paths.len(), 3);
        for p in &paths {
            let text = std::fs::read_to_string(p).unwrap();
            assert!(!text.is_empty(), "{p:?} is empty");
        }
        let trace = std::fs::read_to_string(&paths[2]).unwrap();
        assert!(validate_chrome_trace(&trace).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
