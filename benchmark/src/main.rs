//! One self-emitting wall-clock benchmark of the DLRM lossy-communication
//! workspace, measured entirely from outside the program.
//!
//! ```text
//! dlrm-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one pass
//! dlrm-benchmark run [--seed N] [--seconds S] [--out FILE] [--quick]
//! dlrm-benchmark compare A.json B.json
//! dlrm-benchmark spec                                             prints BENCHMARK.json
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: it prints every
//! metric by name with its unit and ends with one JSON line. `run` re-executes
//! this binary once per workload and pass (so `peak_rss_mb` is per workload)
//! and writes one result file; `compare` is the tolerance gate between two
//! such files. See `README.md`.

mod compare;
mod json;
mod layers;
mod measure;
mod spec;
mod trace;
mod workloads;

use json::Value;
use measure::{Stat, Tally};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Scale, Workload};

const DEFAULT_SEED: u64 = 20_240_614;
/// Prefix of the stdout line that carries min/max/n per metric for `run`.
const DETAIL_PREFIX: &str = "detail ";

/// Where traces and default result files go: `benchmark/out/` (gitignored).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(arg.clone()),
        }
    }
    Ok(args)
}

fn metric_json(stat: &Stat, unit: &str, detail: bool) -> Value {
    let mut pairs = vec![
        ("value", Value::Num(stat.value)),
        ("unit", Value::str(unit)),
    ];
    if detail {
        pairs.push(("min", Value::Num(stat.min)));
        pairs.push(("max", Value::Num(stat.max)));
        pairs.push(("n", Value::Num(stat.n as f64)));
    }
    Value::obj(pairs)
}

/// One workload, one pass: the driver's entry point.
fn run_workload(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().unwrap_or_default();
    let workload = Workload::from_name(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; one of {:?}",
            Workload::ALL.map(Workload::name)
        )
    })?;
    let scale = if args.quick {
        Scale::Quick
    } else {
        Scale::Full
    };
    let mut tally = Tally::default();

    // (name, unit, stat) in the order the spec declares them; a per-layer
    // metric the workload did not produce is a layer it does not use: 0.
    let rows: Vec<(&str, &str, Stat)> = if args.trace {
        let values = layers::per_layer(
            workload,
            args.seed,
            args.seconds,
            scale,
            &out_dir(),
            &mut tally,
        );
        spec::PER_LAYER
            .iter()
            .map(|m| {
                let found = values.iter().find(|(n, _)| *n == m.name);
                (m.name, m.unit, Stat::exact(found.map_or(0.0, |(_, v)| *v)))
            })
            .collect()
    } else {
        let values = measure::end_to_end(workload, args.seed, args.seconds, scale, &mut tally);
        spec::END_TO_END
            .iter()
            .map(|m| {
                let found = values.iter().find(|(n, _)| *n == m.name);
                (
                    m.name,
                    m.unit,
                    found.map_or(Stat::exact(f64::NAN), |(_, s)| *s),
                )
            })
            .collect()
    };
    for (name, _, stat) in &rows {
        tally.check(stat.value.is_finite(), || format!("{name} is not a number"));
    }

    println!(
        "workload {} seed {} trace {}",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for (name, unit, stat) in &rows {
        if stat.n > 1 {
            println!(
                "  {name:<36} {:>14.6} {unit:<10} (min {:.6}, max {:.6}, n {})",
                stat.value, stat.min, stat.max, stat.n
            );
        } else {
            println!("  {name:<36} {:>14.6} {unit}", stat.value);
        }
    }
    for failure in &tally.failures {
        println!("  FAILED: {failure}");
    }
    let correct = tally.failed == 0;
    let object = |detail: bool| {
        Value::obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(tally.attempted.max(1) as f64)),
            ("failed", Value::Num(tally.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    rows.iter()
                        .map(|(name, unit, stat)| {
                            (name.to_string(), metric_json(stat, unit, detail))
                        })
                        .collect(),
                ),
            ),
        ])
    };
    println!("{DETAIL_PREFIX}{}", object(true).encode());
    println!("{}", object(false).encode());
    // A printed result exits 0 even when a check failed: `correct` and
    // `failed` carry the verdict; `run` turns them into its exit code.
    Ok(ExitCode::SUCCESS)
}

/// Re-execute this binary for one workload and pass; returns its detail
/// object and whether every output check passed.
fn child_pass(args: &Args, workload: Workload, trace: bool) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        if !line.starts_with(DETAIL_PREFIX) && !line.starts_with('{') {
            println!("{line}");
        }
    }
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| {
            format!(
                "{} printed no result (exit {})",
                workload.name(),
                output.status
            )
        })?;
    let detail = json::parse(detail)?;
    let correct = detail.get("correct").and_then(Value::as_bool) == Some(true);
    Ok((detail, correct && output.status.success()))
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload, both passes, one result file.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let mut all_ok = true;
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let (e2e, ok0) = child_pass(args, workload, false)?;
        let (layer, ok1) = child_pass(args, workload, true)?;
        all_ok &= ok0 && ok1;
        let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let attempted = num(&e2e, "attempted") + num(&layer, "attempted");
        let failed = num(&e2e, "failed") + num(&layer, "failed");
        rows.push(Value::obj(vec![
            ("name", Value::str(workload.name())),
            ("correct", Value::Bool(ok0 && ok1)),
            ("attempted", Value::Num(attempted)),
            ("failed", Value::Num(failed)),
            ("failed_share", Value::Num(failed / attempted.max(1.0))),
            (
                "end_to_end",
                e2e.get("metrics").cloned().unwrap_or(Value::Null),
            ),
            (
                "per_layer",
                layer.get("metrics").cloned().unwrap_or(Value::Null),
            ),
        ]));
    }
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let result = Value::obj(vec![
        ("schema", Value::Num(1.0)),
        ("host", Value::Str(host)),
        ("nproc", Value::Num(nproc as f64)),
        ("git_rev", Value::Str(git_rev())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("quick", Value::Bool(args.quick)),
        ("workloads", Value::Arr(rows)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("result.json"));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, result.encode_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("result written to {}", path.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        println!("FAILED: at least one output check failed (see above)");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        parse_args(&raw).and_then(
            |mut args| {
                match args.positional.first().map(String::as_str) {
            Some("run") => {
                if args.quick && !raw.iter().any(|a| a == "--seconds") {
                    args.seconds = 1.0;
                }
                run_all(&args)
            }
            Some("compare") => match &args.positional[1..] {
                [a, b] => compare::compare_files(Path::new(a), Path::new(b)),
                _ => Err("compare takes two result files".into()),
            },
            Some("spec") => {
                print!("{}", spec::benchmark_json().encode_pretty());
                Ok(ExitCode::SUCCESS)
            }
            Some(other) => Err(format!("unknown command {other:?}")),
            None if args.workload.is_some() => run_workload(&args),
            None => Err(
                "usage: --workload W --seed N --seconds S --trace 0|1 | run | compare A B | spec"
                    .into(),
            ),
        }
            },
        );
    outcome.unwrap_or_else(|msg| {
        eprintln!("dlrm-benchmark: {msg}");
        ExitCode::from(2)
    })
}
