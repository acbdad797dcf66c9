//! Budget sweep behind the EXPERIMENTS.md "bounded-memory" tables:
//! explores chain4 with the spill engine at a ladder of memory
//! budgets, asserting byte-identity with the sequential engine at
//! every rung and reporting time, spill events, and spilled bytes —
//! then sweeps the *parallel* bounded-memory engine
//! ([`Engine::SpillWs`]) over budgets × worker counts, every cell
//! asserted byte-identical too.
//!
//! Run with `cargo run --release -p opentla-bench --example spill_sweep`.

use opentla_check::{explore_governed_with, obs, Budget, Engine, ExploreOptions};
use opentla_check::{JsonlRecorder, RecorderHandle};
use opentla_queue::{FairnessStyle, QueueChain};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let system = QueueChain::new(4, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain4 builds");

    // Baseline: sequential fingerprint engine.
    let t0 = Instant::now();
    let base = explore_governed_with(&system, &Budget::unlimited(), &ExploreOptions::default())
        .expect("baseline explores");
    let base_s = t0.elapsed().as_secs_f64();
    println!(
        "seq_fp: {} states / {} transitions in {:.3}s",
        base.graph.len(),
        base.graph.stats().transitions,
        base_s
    );

    for budget in [
        None,
        Some(64usize << 20),
        Some(4 << 20),
        Some(1 << 20),
        Some(256 << 10),
    ] {
        let obs_path = std::env::temp_dir().join("spill-sweep-obs.jsonl");
        let rec = Arc::new(JsonlRecorder::create(&obs_path).expect("obs file"));
        let handle = RecorderHandle::new(rec.clone());
        let opts = ExploreOptions {
            engine: Engine::SpillBfs,
            mem_budget_bytes: budget,
            ..ExploreOptions::default()
        };
        let t = Instant::now();
        let run = explore_governed_with(
            &system,
            &Budget::unlimited().with_recorder(handle),
            &opts,
        )
        .expect("spill run explores");
        let secs = t.elapsed().as_secs_f64();
        rec.flush();
        let text = std::fs::read_to_string(&obs_path).expect("read obs");
        let summary = obs::validate_stream(&text).expect("valid stream");
        let spills = summary.kinds.get("spill").copied().unwrap_or(0);
        // Cumulative spilled bytes = max `total_spilled_bytes` seen in
        // the stream (the Spill event carries a running total).
        let spilled_bytes: u64 = text
            .lines()
            .filter_map(|l| {
                let ix = l.find("\"total_spilled_bytes\":")?;
                let rest = &l[ix + "\"total_spilled_bytes\":".len()..];
                let end = rest.find(|c: char| !c.is_ascii_digit())?;
                rest[..end].parse().ok()
            })
            .max()
            .unwrap_or(0);
        assert_eq!(run.graph.first_difference(&base.graph), None, "budget {budget:?}");
        println!(
            "budget={:>12} time={:.3}s (x{:.2} vs seq_fp) spill_events={} spilled={:.1} MiB",
            budget.map_or("default".into(), |b| format!("{b}")),
            secs,
            secs / base_s,
            spills,
            spilled_bytes as f64 / (1 << 20) as f64,
        );
        let _ = std::fs::remove_file(&obs_path);
    }

    // Parallel bounded memory: budgets × worker counts. Every cell is
    // the same graph — the table only shows where the time goes.
    println!("\npar_spill (Engine::SpillWs), budgets x workers:");
    for budget in [Some(256usize << 10), Some(4 << 20), None] {
        for workers in [1usize, 2, 4] {
            let opts = ExploreOptions {
                engine: Engine::SpillWs,
                threads: Some(workers),
                mem_budget_bytes: budget,
                ..ExploreOptions::default()
            };
            let t = Instant::now();
            let run = explore_governed_with(&system, &Budget::unlimited(), &opts)
                .expect("par-spill run explores");
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(
                run.graph.first_difference(&base.graph),
                None,
                "budget {budget:?}, {workers} workers"
            );
            println!(
                "budget={:>12} workers={workers} time={:.3}s (x{:.2} vs seq_fp)",
                budget.map_or("default".into(), |b| format!("{b}")),
                secs,
                secs / base_s,
            );
        }
    }
}
