//! Trace analysis end to end: run the Seeds co-design flow traced, round
//! the trace through NDJSON (exactly what `PRINTED_TRACE` dumps and the
//! `printed-trace` CLI reads back), then build the flame/self-time
//! profile, the hardware-cost attribution report, and a regression
//! baseline — all from the library API.
//!
//! ```sh
//! cargo run --release --example trace_report
//! ```
//!
//! The CLI equivalent of everything below:
//!
//! ```sh
//! PRINTED_TRACE=seeds.ndjson cargo run --release -p printed-bench --bin codesign -- seeds --quick
//! cargo run --release -p printed-report --bin printed-trace -- report seeds.ndjson
//! cargo run --release -p printed-report --bin printed-trace -- diff BENCH_all.ndjson seeds.ndjson
//! ```

use printed_ml::codesign::explore::ExplorationConfig;
use printed_ml::codesign::CodesignFlow;
use printed_ml::datasets::Benchmark;
use printed_ml::report::{diff, parse_trace, BenchRecord, CostReport, DiffConfig, Profile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (train, test) = Benchmark::Seeds.load_quantized(4)?;
    let outcome = CodesignFlow::new(&train, &test)
        .title("Seeds")
        .grid(ExplorationConfig::quick())
        .traced()
        .run();
    let trace = outcome.trace().expect("traced flow carries a trace");

    // Round-trip through the NDJSON wire format. `parse_trace` never
    // fails — damaged lines become warnings — and for a clean dump the
    // reconstruction is exact.
    let ndjson = trace.to_ndjson();
    let parsed = parse_trace(&ndjson);
    assert!(parsed.is_clean(), "fresh dump parses warning-free");
    assert_eq!(&parsed.trace, trace, "NDJSON round-trip is lossless");

    // Where did the time go? The tree of parent-linked spans, same-named
    // siblings merged: total vs self time, call counts, p50/p90/p99.
    println!("── flame profile ───────────────────────────────────────");
    print!("{}", Profile::from_trace(&parsed.trace).render_text());

    // Where do the area and power go? Per-ADC and per-class attribution,
    // comparator retention, and the 2 mW harvester verdict.
    println!("\n── hardware cost ───────────────────────────────────────");
    let costs = CostReport::from_trace(&parsed.trace);
    print!("{}", costs.render_text());
    assert_eq!(costs.within_harvester_budget(), Some(true));

    // Did anything regress? Condense to the guarded numbers and gate a
    // (here: identical) run at 5% tolerance. The committed BENCH_all
    // baselines are exactly `record.to_json()` lines.
    println!("\n── regression gate ─────────────────────────────────────");
    let record = BenchRecord::from_trace(&parsed.trace);
    let suite = std::slice::from_ref(&record);
    let gate = diff(suite, suite, DiffConfig::default())?;
    print!("{}", gate[0].render_text());
    assert!(gate[0].passed());
    println!("\nbaseline line: {}", record.to_json());
    Ok(())
}
