//! Domain scenario: replaying a real access trace. The paper's Web
//! workload replays an Apache log; this example shows the same path with
//! your own trace file — one path per line — synthesising a small one
//! inline for the demo.
//!
//! ```sh
//! cargo run --release --example trace_replay            # built-in demo trace
//! cargo run --release --example trace_replay /path/to/trace.txt
//! ```

use lunule::core::{make_balancer, BalancerKind};
use lunule::namespace::{Namespace, NamespaceStats};
use lunule::sim::{SimConfig, Simulation};
use lunule::workloads::{load_trace, trace_streams};

fn demo_trace() -> String {
    // A tiny synthetic "web server" log: a hot front page, warm docs, and
    // a long tail of rarely hit assets.
    let mut t = String::from("# demo trace\n");
    for round in 0..200 {
        t.push_str("/www/index.html\n");
        if round % 2 == 0 {
            t.push_str("/www/docs/guide.html\n");
        }
        if round % 5 == 0 {
            t.push_str(&format!("/www/blog/post{:03}.html\n", round % 40));
        }
        t.push_str(&format!("/www/assets/img{:04}.png\n", round * 7 % 500));
    }
    t
}

#[expect(
    clippy::disallowed_methods,
    reason = "the example reads its optional trace path from the command line"
)]
fn main() {
    let text = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read trace {path}: {e}")),
        None => demo_trace(),
    };

    let mut ns = Namespace::new();
    let trace = load_trace(&mut ns, &text, 16 << 10);
    println!(
        "trace: {} accesses over {} distinct files",
        trace.accesses.len(),
        trace.distinct_files
    );
    println!("namespace: {}", NamespaceStats::of(&ns));

    let clients = 20;
    let streams = trace_streams(&trace, clients);
    let cfg = SimConfig {
        n_mds: 3,
        mds_capacity: 200.0,
        epoch_secs: 5,
        duration_secs: 1_200,
        client_rate: 30.0,
        ..SimConfig::default()
    };
    let balancer = make_balancer(BalancerKind::Lunule, cfg.mds_capacity);
    let result = Simulation::new(cfg.clone(), ns, balancer, streams).run();

    println!(
        "\n{} clients replayed the trace in {} simulated seconds",
        clients, result.duration_secs
    );
    println!(
        "mean IF {:.3}, aggregate {:.0} IOPS, per-MDS totals {:?}",
        result.mean_if(),
        result.mean_iops(),
        result.per_mds_requests_total
    );
    println!(
        "stall latency: {:.1}% immediate, p99 = {} ticks",
        result.latency.immediate_share() * 100.0,
        result.latency.percentile(0.99)
    );
}
