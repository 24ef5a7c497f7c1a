//! Chrome trace (`chrome://tracing`, Perfetto) of a traced pass: one span
//! per tick holding its coarse child spans, with the per-op calls the tick
//! made aggregated into the tick's arguments.

use crate::measure::Loop;
use crate::workloads::Workload;
use lunule_util::Json;
use std::path::PathBuf;

/// Where traced passes write `<workload>/trace.json`.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Writes the trace of `lp` to `OUT_DIR/<workload>/trace.json`.
pub fn write(w: Workload, lp: &Loop) -> Result<PathBuf, String> {
    let dir = PathBuf::from(OUT_DIR).join(w.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("trace.json");
    std::fs::write(&path, render(lp)).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn event(name: &str, start_ns: u64, dur_ns: u64, args: Vec<(String, Json)>) -> Json {
    let us = |ns: u64| Json::Num(ns as f64 / 1e3);
    let cat = name.split('.').next().unwrap_or(name);
    Json::Obj(vec![
        ("name".into(), Json::Str(name.into())),
        ("cat".into(), Json::Str(cat.into())),
        ("ph".into(), Json::Str("X".into())),
        ("ts".into(), us(start_ns)),
        ("dur".into(), us(dur_ns)),
        ("pid".into(), Json::Num(1.0)),
        ("tid".into(), Json::Num(1.0)),
        ("args".into(), Json::Obj(args)),
    ])
}

/// The trace as a JSON document.
pub fn render(lp: &Loop) -> String {
    let mut events = Vec::with_capacity(lp.ticks.len() * 2);
    for t in &lp.ticks {
        let num = |v: u64| Json::Num(v as f64);
        let args = vec![
            ("tick".into(), num(t.tick)),
            ("record_access_ns".into(), num(t.record.ns)),
            ("record_access_items".into(), num(t.record.items)),
            ("next_op_ns".into(), num(t.next_op.ns)),
            ("next_op_calls".into(), num(t.next_op.calls)),
            ("self_ns".into(), num(t.self_ns())),
        ];
        events.push(event("sim.tick", t.start_ns, t.dur_ns, args));
        for s in &t.spans {
            events.push(event(s.name, s.start_ns, s.dur_ns, Vec::new()));
        }
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
    .to_string_compact()
}
