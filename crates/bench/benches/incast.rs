//! Incast — N senders blasting one receiver through the fair-share
//! fabric, which splits the receiver NIC max-min fairly, so the
//! aggregate must sit at (or under) its line rate.
//!
//! This harness doubles as a CI gate: it exits non-zero if the
//! aggregate exceeds the bottleneck capacity (the shared
//! [`exs_bench::check_capacity`] bound), if contention fairness
//! (worst-sink Jain index) drops below 0.9, or if merged per-connection
//! stats stop summing their fabric-flow samples. Snapshots land in
//! `bench-results/incast_<N>senders_fair.json`.

use blast::{run_fan_in, FanInSpec};
use exs_bench::{check_capacity, quick, write_snapshot};
use rdma_verbs::profiles;

fn main() {
    let sender_counts = [8usize, 64, 512];
    let (msgs, msg_len) = if quick() {
        (3, 16 << 10)
    } else {
        (6, 16 << 10)
    };

    println!();
    println!("=== Incast: N senders -> one receiver, fair-share fabric (FDR IB) ===");
    println!(
        "{:>7} {:>16} {:>10} {:>10} {:>9} {:>10}",
        "senders", "aggregate Mbit/s", "load", "jain", "respeeds", "events"
    );

    let mut violations = 0u32;
    for &conns in &sender_counts {
        let spec = FanInSpec {
            msgs_per_conn: msgs,
            msg_len,
            seed: 5,
            ..FanInSpec::new(profiles::fdr_infiniband(), conns)
        };
        let report = run_fan_in(&spec);
        let load = report.offered_load_ratio();
        let fabric = report.fabric.as_ref().expect("fan-in reports fabric stats");
        let jain = fabric.jain_index;
        println!(
            "{:>7} {:>16.1} {:>10.3} {:>10.3} {:>9} {:>10}",
            conns,
            report.throughput_mbps(),
            load,
            jain,
            fabric.respeeds,
            report.events,
        );
        let name = format!("incast_{conns}senders_fair");
        write_snapshot(&name, &report.to_json());
        check_capacity(&name, load);
        if jain < 0.9 {
            eprintln!("VIOLATION: {conns} senders split the bottleneck unfairly (jain {jain:.3})");
            violations += 1;
        }
        // Merge-semantics gate: folding per-connection stats must SUM
        // flow samples/rates (the old max-merge bug collapsed N flows
        // into one and under-reported every fan-in aggregate).
        let mut merged = exs::ConnStats::default();
        for cs in &report.per_conn {
            merged.merge(cs);
        }
        if merged.fabric_flow_samples != conns as u64 {
            eprintln!(
                "VIOLATION: merged stats carry {} fabric-flow samples for \
                 {conns} connections — merge is not summing",
                merged.fabric_flow_samples
            );
            violations += 1;
        }
        if merged.fabric_flow_mbps_sum <= 0.0
            || merged.fabric_flow_mbps_sum < merged.fabric_flow_mbps_max
        {
            eprintln!(
                "VIOLATION: merged flow-rate sum {:.1} Mbit/s is not a sum \
                 (max single flow {:.1})",
                merged.fabric_flow_mbps_sum, merged.fabric_flow_mbps_max
            );
            violations += 1;
        }
    }
    println!();
    println!("expected shape: load stays <= 1.0 of the 45.5 Gbit/s line rate at every");
    println!("fan-in while the sink splits evenly (jain ~ 1.0).");
    if violations > 0 {
        eprintln!("{violations} fairness violation(s)");
        std::process::exit(1);
    }
}
