//! Measurement definitions and multi-seed aggregation.
//!
//! Throughput follows the paper's Equation 1 exactly:
//!
//! ```text
//! throughput = total user bytes sent / (end time − start time)
//! ```
//!
//! where start/end bracket the first and last transfer. The paper runs
//! each configuration 10 times and reports the mean with a 95%
//! confidence interval; [`Summary`] reproduces that using the Student-t
//! critical value for the sample size.

use exs::ConnStats;
use rdma_verbs::FabricStats;
use simnet::{SimDuration, SimTime};

/// Result of one blast run.
#[derive(Clone, Debug)]
pub struct BlastReport {
    /// User payload bytes delivered.
    pub bytes: u64,
    /// Messages sent.
    pub messages: u64,
    /// First-transfer timestamp.
    pub start: SimTime,
    /// Last-completion timestamp.
    pub end: SimTime,
    /// Sender (client) CPU usage fraction over the measured window.
    pub cpu_sender: f64,
    /// Receiver (server) CPU usage fraction over the measured window.
    pub cpu_receiver: f64,
    /// Direct WWI transfers (sender stats).
    pub direct_transfers: u64,
    /// Indirect WWI transfers.
    pub indirect_transfers: u64,
    /// Sender phase parity changes.
    pub mode_switches: u64,
    /// ADVERTs the sender discarded as stale.
    pub adverts_discarded: u64,
    /// Full sender-side counter snapshot (doorbells, signaling,
    /// coalescing, CQ pressure).
    pub sender: ConnStats,
    /// Full receiver-side counter snapshot.
    pub receiver: ConnStats,
    /// FNV-1a digest of the delivered stream, folded in delivery order.
    /// Only meaningful with [`crate::VerifyLevel::Full`] (the offset
    /// basis otherwise: without verification the payload is never read).
    pub digest: u64,
    /// Simulation events processed (determinism check aid).
    pub events: u64,
    /// Configured bandwidth of the host link, in bits per second
    /// (0 for the ideal profile's unlimited link).
    pub link_bandwidth_bps: u64,
    /// Fabric allocator snapshot. Always `Some` from [`crate::run_blast`]:
    /// it mirrors `SimNet::fabric_stats`.
    pub fabric: Option<FabricStats>,
}

/// The highest offered load (delivered throughput over the bottleneck
/// link's rate) a simulated run may report. The fabric never carries
/// more than a link's rate; the bound leaves 1 % of slack.
/// [`crate::run_blast`] and [`crate::run_fan_in`] assert it, and every
/// bench that writes a throughput snapshot gates on it.
pub const MAX_OFFERED_LOAD: f64 = 1.01;

impl BlastReport {
    /// Elapsed measured time.
    pub fn elapsed(&self) -> SimDuration {
        self.end.saturating_duration_since(self.start)
    }

    /// Paper Eq. 1, in bits per second.
    pub fn throughput_bps(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.bytes as f64 * 8.0 / secs
    }

    /// Paper Eq. 1, in megabits per second (the unit of Fig. 9–13).
    pub fn throughput_mbps(&self) -> f64 {
        self.throughput_bps() / 1e6
    }

    /// Average time per message in microseconds.
    pub fn time_per_message_us(&self) -> f64 {
        if self.messages == 0 {
            return 0.0;
        }
        self.elapsed().as_secs_f64() * 1e6 / self.messages as f64
    }

    /// Delivered throughput as a fraction of the configured link
    /// bandwidth (0.0 when the link is unlimited). Values above 1.0
    /// mean the model delivered more than the physical link could.
    pub fn offered_load_ratio(&self) -> f64 {
        if self.link_bandwidth_bps == 0 {
            return 0.0;
        }
        self.throughput_bps() / self.link_bandwidth_bps as f64
    }

    /// Ratio of direct transfers to total transfers.
    pub fn direct_ratio(&self) -> f64 {
        let total = self.direct_transfers + self.indirect_transfers;
        if total == 0 {
            0.0
        } else {
            self.direct_transfers as f64 / total as f64
        }
    }
}

/// Mean and 95% confidence half-width over repeated runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95% confidence interval (0 for < 2 samples).
    pub ci95: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes a sample set.
    pub fn of(samples: &[f64]) -> Summary {
        let n = samples.len();
        if n == 0 {
            return Summary {
                mean: 0.0,
                ci95: 0.0,
                n,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n < 2 {
            return Summary { mean, ci95: 0.0, n };
        }
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
        let se = (var / n as f64).sqrt();
        Summary {
            mean,
            ci95: t_crit_95(n - 1) * se,
            n,
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} ± {:.2}", self.mean, self.ci95)
    }
}

/// Two-sided 95% Student-t critical values by degrees of freedom.
fn t_crit_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        return f64::INFINITY;
    }
    if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.96
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(bytes: u64, start_ns: u64, end_ns: u64) -> BlastReport {
        BlastReport {
            bytes,
            messages: 10,
            start: SimTime::from_nanos(start_ns),
            end: SimTime::from_nanos(end_ns),
            cpu_sender: 0.0,
            cpu_receiver: 0.0,
            direct_transfers: 3,
            indirect_transfers: 1,
            mode_switches: 0,
            adverts_discarded: 0,
            sender: ConnStats::default(),
            receiver: ConnStats::default(),
            digest: crate::fan_in::FNV_OFFSET,
            events: 0,
            link_bandwidth_bps: 0,
            fabric: None,
        }
    }

    #[test]
    fn throughput_matches_eq1() {
        // 1000 bytes in 1 us = 8 Gbit/s.
        let r = report(1000, 0, 1000);
        assert!((r.throughput_bps() - 8e9).abs() < 1.0);
        assert!((r.throughput_mbps() - 8000.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_interval_is_zero() {
        let r = report(1000, 5, 5);
        assert_eq!(r.throughput_bps(), 0.0);
    }

    #[test]
    fn time_per_message() {
        let r = report(1000, 0, 10_000); // 10 us, 10 messages
        assert!((r.time_per_message_us() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn direct_ratio() {
        let r = report(1, 0, 1);
        assert!((r.direct_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn summary_mean_and_ci() {
        // Known case: samples 1..=10, mean 5.5, sd ≈ 3.0277,
        // se ≈ 0.9574, t(9) = 2.262 → ci ≈ 2.166.
        let xs: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        let s = Summary::of(&xs);
        assert!((s.mean - 5.5).abs() < 1e-12);
        assert!((s.ci95 - 2.166).abs() < 0.01, "ci {}", s.ci95);
        assert_eq!(s.n, 10);
    }

    #[test]
    fn summary_small_samples() {
        assert_eq!(Summary::of(&[]).n, 0);
        let one = Summary::of(&[4.0]);
        assert_eq!(one.mean, 4.0);
        assert_eq!(one.ci95, 0.0);
        let same = Summary::of(&[2.0, 2.0, 2.0]);
        assert_eq!(same.ci95, 0.0);
    }

    #[test]
    fn t_table_monotone_toward_normal() {
        assert!(t_crit_95(1) > t_crit_95(5));
        assert!(t_crit_95(5) > t_crit_95(29));
        assert_eq!(t_crit_95(100), 1.96);
    }
}
