//! The mediator's wall-clock benchmark.
//!
//! ```text
//! disco-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--out-dir <dir>] [--provenance <json>]
//! ```
//!
//! Drives one workload through the public `disco-mediator` API with
//! closed-loop clients, checks every answer, and prints every metric by
//! name and unit; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` measures
//! the end-to-end metrics; `--trace 1` the per-layer ones, from spans the
//! benchmark records around each public layer call, written to the
//! output directory when the run ends. Exits non-zero when an answer
//! is wrong, partial or missing.

mod analytic;
mod oo7;
mod plain;
mod runner;
mod serve;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use disco_obs::Json;

use crate::runner::Outcome;
use crate::workload::Spec;

/// Span files hold at most this many traced queries (an even sample);
/// the metrics use every traced query.
const SPAN_FILE_QUERIES: usize = 5_000;

fn specs() -> Vec<Spec> {
    vec![
        serve::lookup_spec(),
        serve::history_spec(),
        analytic::spec(),
        oo7::spec(),
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    provenance: Json,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut provenance = Json::Obj(Vec::new());
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            "--provenance" => {
                provenance = Json::parse(&value).map_err(|e| format!("--provenance: {e}"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
        provenance,
    })
}

/// Provenance of this run: what `run.py` passed (source revision and
/// compiler) plus host, workload, seed and parameters.
fn provenance(args: &Args, spec: &Spec) -> Json {
    let mut members = match &args.provenance {
        Json::Obj(m) => m.clone(),
        _ => Vec::new(),
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    members.extend([
        ("host_cores".to_owned(), Json::Num(cores as f64)),
        ("workload".to_owned(), Json::Str(spec.name.to_owned())),
        ("seed".to_owned(), Json::Num(args.seed as f64)),
        ("seconds".to_owned(), Json::Num(args.seconds)),
        ("trace".to_owned(), Json::Bool(args.trace)),
        ("clients".to_owned(), Json::Num(spec.clients as f64)),
        ("params".to_owned(), (spec.params)()),
    ]);
    Json::Obj(members)
}

fn metrics_json(out: &Outcome) -> Json {
    Json::Obj(
        out.metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Num(m.value)),
                        ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Write the run record and, for a traced run, the spans.
fn write_files(args: &Args, prov: &Json, out: &Outcome) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(&args.out_dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = Json::Obj(vec![
        ("provenance".to_owned(), prov.clone()),
        ("attempted".to_owned(), Json::Num(out.attempted as f64)),
        ("failed".to_owned(), Json::Num(out.failed as f64)),
        (
            "notes".to_owned(),
            Json::Arr(out.notes.iter().cloned().map(Json::Str).collect()),
        ),
        ("metrics".to_owned(), metrics_json(out)),
    ]);
    let run_path = args.out_dir.join(format!("run-{stem}.json"));
    std::fs::write(&run_path, record.render() + "\n")?;
    let mut written = vec![run_path];
    if args.trace {
        let step = out.traces.len().div_ceil(SPAN_FILE_QUERIES).max(1);
        let header = Json::Obj(vec![
            ("provenance".to_owned(), prov.clone()),
            (
                "traced_queries".to_owned(),
                Json::Num(out.traces.len() as f64),
            ),
            ("written_every".to_owned(), Json::Num(step as f64)),
        ]);
        let mut text = header.render() + "\n";
        for t in out.traces.iter().step_by(step) {
            t.write_jsonl(&mut text);
        }
        let span_path = args.out_dir.join(format!("spans-{stem}.jsonl"));
        std::fs::write(&span_path, text)?;
        written.push(span_path);
    }
    Ok(written)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("disco-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let specs = specs();
    let Some(spec) = specs.iter().find(|s| s.name == args.workload) else {
        let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        eprintln!(
            "disco-perfbench: unknown workload {} (have {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let prov = provenance(&args, spec);
    println!("provenance: {}", prov.render());
    let run = if args.trace {
        runner::traced(spec, args.seed, args.seconds)
    } else {
        runner::untraced(spec, args.seed, args.seconds)
    };
    let out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("disco-perfbench: {}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    for m in &out.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in &out.notes {
        println!("note: {n}");
    }
    for f in &out.failures {
        println!("failure: {f}");
    }
    match write_files(&args, &prov, &out) {
        Ok(paths) => {
            for p in paths {
                println!("wrote {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("disco-perfbench: writing results: {e}");
            return ExitCode::FAILURE;
        }
    }
    let correct = out.failed == 0 && out.failures.is_empty();
    let last = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::Num(out.attempted as f64)),
        ("failed".to_owned(), Json::Num(out.failed as f64)),
        ("metrics".to_owned(), metrics_json(&out)),
    ]);
    println!("{}", last.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
