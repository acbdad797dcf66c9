//! `bench_e2e`: time-to-verdict for the Composition Theorem pipeline.
//!
//! The parent (this file) spawns one measuring child at a time, hands
//! it only the environment its workload names, judges what it reports
//! against `expected.json`, and prints every metric `BENCHMARK.json`
//! lists, by name and with its unit. See `README.md`.

// A child builds a handful of worlds, inputs and outputs; how much
// their variants differ in size does not matter.
#![allow(clippy::large_enum_variant)]

mod api;
mod child;
mod compare;
mod json;
mod ladder;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use api::Json;
use json::{arr, as_array, as_f64, count, members, num, obj, text};
use workload::{Rng, Workload, WORKLOADS};

/// The contract this benchmark is written to: workloads, metrics,
/// units, bounds.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");
/// The known answers every verdict is checked against.
const EXPECTED: &str = include_str!("../expected.json");
/// Everything a run writes goes here, inside the checkout.
const OUT_DIR: &str = "benchmark/out";
/// Variables that select engines and recorders. No child sees them:
/// every plan is spelled out in `ExploreOptions`.
const PRODUCT_ENV: [&str; 3] = [
    "OPENTLA_EXPLORE_THREADS",
    "OPENTLA_MEM_BUDGET",
    "OPENTLA_OBS",
];

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "a median needs a sample");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Command-line options; every subcommand reads the ones it knows.
struct Options {
    command: Option<String>,
    files: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    runs: usize,
    out: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        command: None,
        files: Vec::new(),
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        smoke: false,
        runs: 10,
        out: None,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => options.workload = Some(value("--workload")?),
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
                options.seconds = Some(seconds);
            }
            "--runs" => {
                options.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
            }
            "--out" => options.out = Some(value("--out")?),
            "--smoke" => options.smoke = true,
            // `--trace 0|1` as the driver passes it, or bare `--trace`.
            "--trace" => {
                options.traced = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ if options.command.is_none() => options.command = Some(arg),
            _ => options.files.push(arg),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let result = parse_args().and_then(|options| match options.command.as_deref() {
        None => run_command(&options),
        Some("child") => child_command(&options, process_start),
        Some("sweep") => sweep_command(&options),
        Some("compare") => compare::command(&options.files, &manifest()),
        Some("ladder") => ladder::command(),
        Some("rung") => ladder::rung_command(&options.files),
        Some(other) => Err(format!("unknown command {other}")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            ExitCode::from(2)
        }
    }
}

pub fn manifest() -> Json {
    Json::parse(MANIFEST).expect("BENCHMARK.json is valid JSON")
}

fn selected<'a>(options: &Options) -> Result<Vec<&'a Workload>, String> {
    match &options.workload {
        Some(name) => workload::find(name)
            .map(|w| vec![w])
            .ok_or(format!("unknown workload {name}")),
        None => {
            // The seed decides the order in which workloads run.
            let mut all: Vec<&Workload> = WORKLOADS.iter().collect();
            Rng::new(options.seed).shuffle(&mut all);
            Ok(all)
        }
    }
}

pub fn scratch_dir() -> Result<PathBuf, String> {
    let dir = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(OUT_DIR)
        .join("tmp");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

pub fn write_out(name: &str, value: &Json) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(name);
    std::fs::write(&path, json::write_pretty(value))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn child_command(options: &Options, process_start: Instant) -> Result<bool, String> {
    let name = options
        .workload
        .as_deref()
        .ok_or("child needs --workload")?;
    let args = child::ChildArgs {
        workload: workload::find(name).ok_or(format!("unknown workload {name}"))?,
        seed: options.seed,
        seconds: options.seconds.ok_or("child needs --seconds")?,
        traced: options.traced,
        smoke: options.smoke,
        scratch: &scratch_dir()?,
    };
    println!("{}", json::write(&child::run(&args, process_start)));
    Ok(true)
}

/// Runs `bench_e2e <args>` as a child with the product's variables
/// removed from its environment and returns the JSON object on its last line of output.
pub fn spawn(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    for name in PRODUCT_ENV {
        command.env_remove(name);
    }
    // The spill engines put their segment files under the temp
    // directory; keep it inside the checkout.
    command.env("TMPDIR", scratch_dir()?);
    // `output` waits for the child: one is alive at a time.
    let output = command
        .output()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child {:?} ended with {}", args, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("the child printed nothing")?;
    Json::parse(last).map_err(|e| format!("the child's report does not parse: {e}"))
}

/// One run of one workload, judged.
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    /// `(name, value, unit)` for every metric the manifest lists.
    pub metrics: Vec<(String, f64, String)>,
    pub attempted: usize,
    pub failed: usize,
    pub report: Json,
}

impl Run {
    pub fn to_json(&self) -> Json {
        obj([
            ("workload", text(self.workload)),
            ("seed", num(self.seed as f64)),
            ("attempted", count(self.attempted)),
            ("failed", count(self.failed)),
            (
                "metrics",
                obj(self.metrics.iter().map(|(n, v, _)| (n.as_str(), num(*v)))),
            ),
        ])
    }

    /// The line the driver reads.
    fn result_line(&self) -> String {
        json::write(&obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", count(self.attempted)),
            ("failed", count(self.failed)),
            (
                "metrics",
                obj(self.metrics.iter().map(|(n, v, u)| {
                    (
                        n.as_str(),
                        obj([("value", num(*v)), ("unit", text(u.as_str()))]),
                    )
                })),
            ),
        ]))
    }
}

pub fn run_workload(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Run, String> {
    let mut args: Vec<String> = ["child", "--workload", w.name, "--seed"]
        .map(String::from)
        .into();
    args.extend([seed.to_string(), "--seconds".into(), seconds.to_string()]);
    args.extend(["--trace".into(), u8::from(traced).to_string()]);
    if smoke {
        args.push("--smoke".into());
    }
    let report = spawn(&args)?;

    // Judge every verdict against the known answers.
    let expected = Json::parse(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    let answers = expected
        .get(if smoke { "smoke" } else { "full" })
        .and_then(|mode| mode.get(w.name))
        .ok_or(format!("expected.json has no answers for {}", w.name))?;
    let verdicts = as_array(report.get("verdicts").unwrap_or(&Json::Null));
    let mut failed = 0;
    for verdict in verdicts {
        if let Err(why) = judge(verdict, answers) {
            eprintln!("{}: wrong verdict: {why}: {}", w.name, json::write(verdict));
            failed += 1;
        }
    }
    if verdicts.is_empty() {
        return Err(format!("{} reported no verdicts", w.name));
    }

    // Collect the metrics the manifest lists for this kind of run.
    let sample = |key: &str| -> Result<f64, String> {
        let mut values: Vec<f64> = as_array(report.get(key).unwrap_or(&Json::Null))
            .iter()
            .filter_map(as_f64)
            .collect();
        if values.is_empty() {
            return Err(format!("{} reported no {key}", w.name));
        }
        Ok(median(&mut values))
    };
    let manifest = manifest();
    let listed = as_array(
        manifest
            .get(if traced { "per_layer" } else { "end_to_end" })
            .unwrap_or(&Json::Null),
    );
    let mut metrics = Vec::new();
    for metric in listed {
        let name = metric
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_default();
        let unit = metric
            .get("unit")
            .and_then(Json::as_str)
            .unwrap_or_default();
        let value = match name {
            "setup_s" => sample("setup_s")?,
            "verdict_s" => sample("op_s")?,
            "peak_rss_mb" => {
                report
                    .get("vm_hwm_kb")
                    .and_then(as_f64)
                    .ok_or("no vm_hwm_kb")?
                    / 1024.0
            }
            layer => report
                .get("layers")
                .and_then(|layers| layers.get(layer))
                .and_then(as_f64)
                .ok_or(format!("{} reported no {layer}", w.name))?,
        };
        metrics.push((name.to_string(), value, unit.to_string()));
    }
    Ok(Run {
        workload: w.name,
        seed,
        metrics,
        attempted: verdicts.len(),
        failed,
        report,
    })
}

/// Checks one verdict record against the answer for its kind. A key
/// ending in `_contains` asks for a substring; any other for equality.
fn judge(verdict: &Json, answers: &Json) -> Result<(), String> {
    let kind = verdict
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("no kind")?;
    let answer = answers
        .get(kind)
        .ok_or(format!("no known answer for kind {kind}"))?;
    for (key, want) in members(answer) {
        let (field, substring) = match key.strip_suffix("_contains") {
            Some(field) => (field, true),
            None => (key.as_str(), false),
        };
        let got = verdict.get(field).unwrap_or(&Json::Null);
        let ok = match (substring, got.as_str(), want.as_str()) {
            (true, Some(got), Some(want)) => got.contains(want),
            (true, _, _) => false,
            (false, _, _) => got == want,
        };
        if !ok {
            return Err(format!(
                "{key}: want {}, got {}",
                json::write(want),
                json::write(got)
            ));
        }
    }
    Ok(())
}

fn run_seconds(options: &Options) -> f64 {
    options
        .seconds
        .or_else(|| manifest().get("run_seconds").and_then(as_f64))
        .expect("BENCHMARK.json gives run_seconds")
}

fn print_run(run: &Run, traced: bool, smoke: bool) {
    let mode = match (smoke, traced) {
        (true, _) => "smoke: answers and shape only, numbers are not evidence",
        (false, true) => "traced: per-layer",
        (false, false) => "untraced: end-to-end",
    };
    println!("== {} (seed {}, {mode})", run.workload, run.seed);
    if !smoke {
        for (name, value, unit) in &run.metrics {
            println!("{name:<42} {value:>16.6} {unit}");
        }
    }
    println!(
        "{:<42} {:>9}/{}",
        "verdicts wrong/checked", run.failed, run.attempted
    );
}

/// The default command: one workload (as the driver asks) or all.
fn run_command(options: &Options) -> Result<bool, String> {
    let seconds = run_seconds(options);
    let mut runs = Vec::new();
    for w in selected(options)? {
        let run = run_workload(w, options.seed, seconds, options.traced, options.smoke)?;
        print_run(&run, options.traced, options.smoke);
        let prefix = if options.traced { "trace" } else { "e2e" };
        write_out(&format!("{prefix}-{}.json", w.name), &run.report)?;
        runs.push(run);
    }
    let ok = runs.iter().all(|r| r.failed == 0);
    if let [run] = runs.as_slice() {
        println!("{}", run.result_line());
    } else {
        let name = if options.traced {
            "trace.json"
        } else {
            "e2e.json"
        };
        write_out(name, &set_json(&runs))?;
        for run in &runs {
            println!("{} {}", run.workload, run.result_line());
        }
    }
    Ok(ok)
}

fn set_json(runs: &[Run]) -> Json {
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    obj([
        ("hardware_threads", count(threads)),
        ("runs", arr(runs.iter().map(Run::to_json))),
    ])
}

/// `sweep --runs N --seed S --out FILE`: N untraced runs of every
/// workload on seeds S, S+1, …: one baseline set for `compare`.
fn sweep_command(options: &Options) -> Result<bool, String> {
    let seconds = run_seconds(options);
    let out = options.out.as_deref().ok_or("sweep needs --out FILE")?;
    let mut runs = Vec::new();
    for i in 0..options.runs {
        let seed = options.seed + i as u64;
        let mut order: Vec<&Workload> = selected(options)?;
        Rng::new(seed).shuffle(&mut order);
        for w in order {
            let run = run_workload(w, seed, seconds, false, false)?;
            print_run(&run, false, false);
            runs.push(run);
            // Rewritten after every run, so an interrupted sweep keeps
            // what it measured.
            std::fs::write(out, json::write_pretty(&set_json(&runs)))
                .map_err(|e| format!("cannot write {out}: {e}"))?;
        }
    }
    Ok(runs.iter().all(|r| r.failed == 0))
}
