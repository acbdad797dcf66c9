//! `bench_e2e ladder`: one certificate per rung of the `(k, N, |V|)`
//! ladder, each in a child of its own, stage by stage, written to
//! `benchmark/LADDER.json`. Run once per reference host and committed;
//! it gates nothing.

use std::time::Instant;

use crate::api::{self, Fairness, Instance, Json, World};
use crate::child::staged_certificate;
use crate::json::{arr, as_f64, count, num, obj, text, write, write_pretty};
use crate::trace::Tracer;

const RUNGS: [Instance; 6] = [
    Instance::Chain { k: 4, n: 1, v: 2 },
    Instance::Chain { k: 3, n: 1, v: 4 },
    Instance::Fig9 { n: 3, v: 3 },
    Instance::Chain { k: 5, n: 1, v: 2 },
    Instance::Chain { k: 4, n: 1, v: 3 },
    // Above `ExploreOptions::max_states`' default of 10⁶; the staged
    // exploration runs under an unlimited budget, which governs.
    Instance::Chain { k: 4, n: 2, v: 2 },
];

pub fn command() -> Result<bool, String> {
    let mut rungs = Vec::new();
    for instance in RUNGS {
        let args = match instance {
            Instance::Fig9 { n, v } => vec!["fig9".to_string(), n.to_string(), v.to_string()],
            Instance::Chain { k, n, v } => {
                vec![
                    "chain".to_string(),
                    k.to_string(),
                    n.to_string(),
                    v.to_string(),
                ]
            }
        };
        let args: Vec<String> = std::iter::once("rung".to_string()).chain(args).collect();
        let rung = crate::spawn(&args)?;
        println!(
            "{:<14} {:>9} states {:>8.2} s  {:>6.1} us/state  {:>6.0} MB",
            instance.label(),
            rung.get("states").and_then(as_f64).unwrap_or(0.0),
            rung.get("total_s").and_then(as_f64).unwrap_or(0.0),
            rung.get("us_per_state").and_then(as_f64).unwrap_or(0.0),
            rung.get("vm_hwm_mb").and_then(as_f64).unwrap_or(0.0),
        );
        rungs.push(rung);
    }
    let holds = rungs
        .iter()
        .all(|r| r.get("holds") == Some(&Json::Bool(true)));
    let ladder = obj([
        (
            "note",
            text(
                "one staged certificate per rung, full run, single sample each; \
                 regenerate with benchmark/run.sh ladder",
            ),
        ),
        (
            "hardware_threads",
            count(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        ("rungs", arr(rungs)),
    ]);
    std::fs::write("benchmark/LADDER.json", write_pretty(&ladder))
        .map_err(|e| format!("cannot write benchmark/LADDER.json: {e}"))?;
    Ok(holds)
}

pub fn rung_command(args: &[String]) -> Result<bool, String> {
    let numbers: Vec<usize> = args
        .iter()
        .skip(1)
        .map(|a| a.parse().map_err(|e| format!("rung parameter {a}: {e}")))
        .collect::<Result<_, _>>()?;
    let instance = match (args.first().map(String::as_str), numbers.as_slice()) {
        (Some("fig9"), [n, v]) => Instance::Fig9 {
            n: *n,
            v: *v as i64,
        },
        (Some("chain"), [k, n, v]) => Instance::Chain {
            k: *k,
            n: *n,
            v: *v as i64,
        },
        _ => return Err("usage: bench_e2e rung fig9 N V | chain K N V".into()),
    };
    let world = World::build(instance, Fairness::Joint);
    let mut tr = Tracer::new();
    let started = Instant::now();
    let cert = staged_certificate(&world.problem(), &mut tr, &api::unlimited());
    let total_s = started.elapsed().as_secs_f64();
    // Checked obligations and their spans come in the same order.
    let checked = [
        "check.simulate.h1",
        "check.simulate.h2a",
        "check.liveness.h2b",
    ];
    let spans = tr.spans.iter().filter(|s| checked.contains(&s.name));
    let ids = cert
        .obligations
        .iter()
        .filter(|(id, _)| !["G", "P1+P2", "H2a/P4"].contains(&id.as_str()));
    let obligations = ids.zip(spans).map(|((id, status), span)| {
        obj([
            ("id", text(id.as_str())),
            ("status", text(*status)),
            ("seconds", num(span.seconds())),
        ])
    });
    let vm_hwm_mb = crate::child::vm_hwm_kb() / 1024.0;
    let rung = obj([
        ("instance", text(instance.label())),
        ("states", count(cert.states)),
        ("transitions", count(cert.transitions)),
        ("holds", Json::Bool(cert.holds())),
        ("total_s", num(total_s)),
        ("product_s", num(tr.total("core.assembly.product"))),
        ("explore_s", num(tr.total("check.explore"))),
        ("obligations", arr(obligations)),
        ("us_per_state", num(total_s * 1e6 / cert.states as f64)),
        ("vm_hwm_mb", num(vm_hwm_mb)),
    ]);
    println!("{}", write(&rung));
    Ok(cert.holds())
}
