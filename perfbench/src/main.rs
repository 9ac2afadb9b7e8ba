//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--trace-dir <dir>]`
//!
//! Prints the workload's full report as one JSON line, then, as the
//! last line, `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A human-readable summary goes to standard error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::run::{run, Settings};
use perfbench::Workload;

fn parse() -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Settings {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_dir,
    })
}

fn main() -> ExitCode {
    let settings = match parse() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&settings);
    eprintln!(
        "{} seed {}: correct={} attempted={} failed={}",
        settings.workload.name(),
        settings.seed,
        outcome.correct,
        outcome.attempted,
        outcome.failed
    );
    for (name, v) in &outcome.metrics {
        eprintln!("  {name:<30} {v:.6}");
    }
    println!("{{\"report\": {}}}", outcome.report);
    println!("{}", outcome.result_json(settings.trace));
    ExitCode::SUCCESS
}
