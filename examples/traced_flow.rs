//! Observability: run the full co-design flow with telemetry enabled and
//! see exactly where the time goes — stage spans, one span per τ×depth
//! grid point, and the Algorithm 1 cost-class counters — then export the
//! whole trace as NDJSON for offline analysis.
//!
//! ```sh
//! cargo run --release --example traced_flow
//! ```
//!
//! The same instrumentation backs the `PRINTED_TRACE=<path>` hook of every
//! `printed-bench` binary; this example drives it from the library API.

use printed_ml::codesign::explore::ExplorationConfig;
use printed_ml::codesign::CodesignFlow;
use printed_ml::datasets::Benchmark;
use printed_ml::telemetry::{fmt_duration, keys, Progress};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (train, test) = Benchmark::Seeds.load_quantized(4)?;

    // `.traced()` installs an in-memory collecting sink; the progress
    // callback is invoked from the sweep's worker threads after each grid
    // point and keeps a live line on stderr.
    let progress = |p: Progress| eprint!("\r{p}");
    let outcome = CodesignFlow::new(&train, &test)
        .title("seeds (traced)")
        .grid(ExplorationConfig::paper())
        .traced()
        .progress(&progress)
        .run();
    eprintln!();

    let trace = outcome.trace().expect("traced flow carries a trace");

    // Human-readable wall-time summary: stage split, sweep CPU time,
    // Algorithm 1 split classes, the selected design.
    print!("{}", trace.render_text());

    // Every number is also available programmatically.
    let (s_z, s_m, s_h) = trace.split_selections();
    println!(
        "\nAlgorithm 1 chose {s_z} zero-cost, {s_m} comparator-only, {s_h} new-ADC splits \
         across {} Gini evaluations and {} trees",
        trace.counter(keys::GINI_EVALS),
        trace.counter(keys::TREES_TRAINED),
    );
    if let Some(worst) = trace.candidates().max_by_key(|c| c.duration_us) {
        println!(
            "slowest grid point: depth={} tau={} took {}",
            worst.field("depth").and_then(|v| v.as_u64()).unwrap_or(0),
            worst.field("tau").and_then(|v| v.as_f64()).unwrap_or(0.0),
            fmt_duration(worst.duration()),
        );
    }

    // Machine-readable export: one JSON object per line (flow header,
    // spans, events, counters, gauges).
    let path = std::env::temp_dir().join("traced_flow.ndjson");
    let mut ndjson = trace.to_ndjson();
    ndjson.push('\n');
    std::fs::write(&path, ndjson)?;
    println!("NDJSON trace written to {}", path.display());
    Ok(())
}
