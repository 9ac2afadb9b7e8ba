//! Shared infrastructure for the figure/table regeneration harnesses.
//!
//! Every table and figure in the paper's evaluation (§IV-B) has a bench
//! target in `benches/` that sweeps the same parameters the paper swept
//! and prints rows in the same structure. Harness knobs:
//!
//! * `EXS_BENCH_RUNS` — repetitions per configuration (default 5; the
//!   paper used 10).
//! * `EXS_BENCH_MESSAGES` — messages per run (default 300).
//! * `EXS_BENCH_QUICK=1` — shrink everything for smoke testing.
//!
//! Results are printed as mean ± 95% confidence interval, matching the
//! paper's reporting.

use std::path::Path;

use blast::{run_blast_seeds, BlastReport, BlastSpec, Summary, MAX_OFFERED_LOAD};

/// Number of repetitions per configuration.
pub fn runs() -> usize {
    if quick() {
        2
    } else {
        std::env::var("EXS_BENCH_RUNS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(5)
    }
}

/// Messages per run.
pub fn messages() -> usize {
    if quick() {
        60
    } else {
        std::env::var("EXS_BENCH_MESSAGES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300)
    }
}

/// Smoke-test mode.
pub fn quick() -> bool {
    std::env::var("EXS_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The seed set for one configuration.
pub fn seeds(base: u64) -> Vec<u64> {
    (0..runs() as u64).map(|i| base * 1000 + i + 1).collect()
}

/// Runs one spec over the harness seed set.
pub fn run_config(spec: &BlastSpec, seed_base: u64) -> Vec<BlastReport> {
    run_blast_seeds(spec, &seeds(seed_base))
}

/// Extracts a summarized metric from a report set.
pub fn summarize(reports: &[BlastReport], f: impl Fn(&BlastReport) -> f64) -> Summary {
    Summary::of(&reports.iter().map(f).collect::<Vec<_>>())
}

/// Prints a table header in a fixed-width layout.
pub fn print_header(title: &str, columns: &[&str]) {
    println!();
    println!("=== {title} ===");
    print!("{:<22}", "");
    for c in columns {
        print!("{c:>24}");
    }
    println!();
}

/// Prints one row of summaries.
pub fn print_row(label: &str, cells: &[Summary]) {
    print!("{label:<22}");
    for s in cells {
        print!("{:>24}", format!("{:.2} ± {:.2}", s.mean, s.ci95));
    }
    println!();
}

/// Prints a free-form note under a table.
pub fn note(text: &str) {
    println!("  note: {text}");
}

/// Writes `json` to `bench-results/<name>.json` at the repository root
/// (creating the directory) and prints where it went.
pub fn write_snapshot(name: &str, json: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench-results");
    let path = dir.join(format!("{name}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, format!("{json}\n"))) {
        Ok(()) => println!("        snapshot: {}", path.display()),
        Err(e) => eprintln!("        snapshot {} write failed: {e}", path.display()),
    }
}

/// The capacity gate every bench that writes a throughput snapshot
/// calls: exits non-zero if `name` reports an offered load (delivered
/// throughput over the bottleneck link's rate) above
/// [`MAX_OFFERED_LOAD`]. No simulated run may beat line rate.
pub fn check_capacity(name: &str, offered_load_ratio: f64) {
    if offered_load_ratio > MAX_OFFERED_LOAD {
        eprintln!(
            "VIOLATION: {name} reports {offered_load_ratio:.3}x the bottleneck link's \
             rate (bound {MAX_OFFERED_LOAD})"
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_distinct_per_base() {
        let a = seeds(1);
        let b = seeds(2);
        assert_eq!(a.len(), runs());
        assert!(a.iter().all(|s| !b.contains(s)));
    }

    #[test]
    fn summarize_applies_projection() {
        use simnet::SimTime;
        let r = BlastReport {
            bytes: 8,
            messages: 1,
            start: SimTime::ZERO,
            end: SimTime::from_nanos(8),
            cpu_sender: 0.5,
            cpu_receiver: 0.25,
            direct_transfers: 1,
            indirect_transfers: 0,
            mode_switches: 0,
            adverts_discarded: 0,
            sender: exs::ConnStats::default(),
            receiver: exs::ConnStats::default(),
            digest: 0,
            events: 0,
            link_bandwidth_bps: 0,
            fabric: None,
        };
        let s = summarize(&[r], |r| r.cpu_sender * 100.0);
        assert_eq!(s.mean, 50.0);
    }
}
