//! Measurement rules every workload shares: percentiles with a sample
//! floor, message latency from stream byte offsets, payload checks and
//! failure accounting.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

use blast::fan_in::{expected_digest, fnv1a, payload_byte, FNV_OFFSET};

/// Samples that must lie strictly beyond a percentile before it is
/// reported; with fewer the percentile says more about one sample than
/// about the distribution.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples, with the
/// percentile given in parts per thousand (500 = p50, 999 = p999).
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(sorted: &[u64], per_mille: u64) -> Option<u64> {
    let n = sorted.len() as u64;
    if n == 0 || per_mille >= 1000 {
        return None;
    }
    let rank = (n * per_mille).div_ceil(1000).max(1);
    if n - rank < MIN_BEYOND as u64 {
        return None;
    }
    Some(sorted[rank as usize - 1])
}

/// Latency percentiles of one sample set, in the samples' unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Percentiles {
    /// Samples taken.
    pub count: usize,
    /// Median.
    pub p50: Option<u64>,
    /// 99th percentile.
    pub p99: Option<u64>,
    /// 99.9th percentile.
    pub p999: Option<u64>,
}

impl Percentiles {
    /// Sorts `samples` and takes p50/p99/p999 under the sample floor.
    pub fn of(mut samples: Vec<u64>) -> Percentiles {
        samples.sort_unstable();
        Percentiles {
            count: samples.len(),
            p50: percentile(&samples, 500),
            p99: percentile(&samples, 990),
            p999: percentile(&samples, 999),
        }
    }
}

/// Maps a receiver's byte deliveries to message completions.
///
/// The receiver of a byte stream sees receive completions, not
/// messages: one receive can end inside a message or span several. A
/// message counts as delivered when the stream's delivered offset
/// reaches its last byte.
#[derive(Debug, Default)]
pub struct MsgClock {
    /// Stream offset one past the last byte of each undelivered message.
    ends: VecDeque<u64>,
    /// Index of the message at the front of `ends`.
    head: usize,
    /// Offset one past the last message pushed.
    tail: u64,
    delivered: u64,
}

impl MsgClock {
    /// A clock with no messages.
    pub fn new() -> MsgClock {
        MsgClock::default()
    }

    /// Appends a message of `len` bytes to the stream.
    pub fn push(&mut self, len: u64) {
        self.tail += len;
        self.ends.push_back(self.tail);
    }

    /// Records `len` more delivered bytes and returns the indices of
    /// the messages whose last byte they delivered.
    pub fn advance(&mut self, len: u64) -> Range<usize> {
        self.delivered += len;
        let first = self.head;
        while self.ends.front().is_some_and(|&end| end <= self.delivered) {
            self.ends.pop_front();
            self.head += 1;
        }
        first..self.head
    }

    /// Bytes delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Index of the first message not yet fully delivered.
    pub fn head(&self) -> usize {
        self.head
    }

    /// True when more bytes arrived than were ever sent.
    pub fn overrun(&self) -> bool {
        self.delivered > self.tail
    }
}

/// Bytes from one position stamp to the next: the period of
/// `payload_byte`.
pub const STAMP_PERIOD: u64 = 256;
/// Bytes of each stamp.
pub const STAMP_LEN: u64 = 8;

/// The payload one stream carries: `payload_byte(seed, conn, offset)`
/// at every stream offset, except that the first [`STAMP_LEN`] bytes of
/// each [`STAMP_PERIOD`]-byte block hold a stamp of the block's place.
///
/// `payload_byte` repeats every 256 offsets, so a block delivered a
/// multiple of 256 bytes away from its place (a ring-wrap error, a
/// misplaced 4 KiB write, two swapped aligned blocks) would match it
/// byte for byte. The stamp is the block index plus a key drawn from
/// the seed and the stream, different in every block of every stream,
/// so such a block fails the check.
pub struct Pattern {
    key: u64,
    /// One period of `payload_byte`: each block's payload is a slice of
    /// it.
    period: [u8; STAMP_PERIOD as usize],
}

impl Pattern {
    /// The payload of connection `conn` under workload seed `seed`.
    pub fn new(seed: u64, conn: usize) -> Pattern {
        let period = std::array::from_fn(|off| payload_byte(seed, conn, off as u64));
        // The stamps are what tell the blocks apart, so the payload
        // must repeat with their period.
        assert!(
            (0..STAMP_PERIOD).all(
                |off| payload_byte(seed, conn, off + (1 << 20) * STAMP_PERIOD)
                    == period[off as usize]
            ),
            "payload_byte repeats every {STAMP_PERIOD} bytes"
        );
        // splitmix64's finaliser: distinct streams get unrelated keys.
        let mut key = seed ^ (conn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        key = (key ^ (key >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        key = (key ^ (key >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Pattern {
            key: key ^ (key >> 31),
            period,
        }
    }

    /// Splits stream offsets `offset..offset+len` at block boundaries:
    /// each piece's stream offset, its range within the `len` bytes,
    /// and how many of its leading bytes are stamp.
    fn pieces(offset: u64, len: usize) -> impl Iterator<Item = (u64, Range<usize>, usize)> {
        let mut at = 0usize;
        std::iter::from_fn(move || {
            if at == len {
                return None;
            }
            let off = offset + at as u64;
            let in_block = off % STAMP_PERIOD;
            let n = (len - at).min((STAMP_PERIOD - in_block) as usize);
            let stamped = (STAMP_LEN.saturating_sub(in_block) as usize).min(n);
            let piece = (off, at..at + n, stamped);
            at += n;
            Some(piece)
        })
    }

    /// `payload_byte` for the `len` stream offsets from `off`, all
    /// within one block.
    fn payload(&self, off: u64, len: usize) -> &[u8] {
        let start = (off % STAMP_PERIOD) as usize;
        &self.period[start..start + len]
    }

    /// The stamp bytes from stream offset `off` to the end of its
    /// block's stamp.
    fn stamp(&self, off: u64) -> impl Iterator<Item = u8> {
        let bytes = self.key.wrapping_add(off / STAMP_PERIOD).to_le_bytes();
        bytes.into_iter().skip((off % STAMP_PERIOD) as usize)
    }

    /// Writes the payload, stamps included, for stream offsets
    /// `offset..offset+out.len()`.
    pub fn fill(&self, offset: u64, out: &mut [u8]) {
        for (off, range, stamped) in Self::pieces(offset, out.len()) {
            let piece = &mut out[range];
            piece.copy_from_slice(self.payload(off, piece.len()));
            for (b, s) in piece.iter_mut().zip(self.stamp(off).take(stamped)) {
                *b = s;
            }
        }
    }

    /// Offset of the first byte of `bytes` (delivered at stream
    /// `offset`) that differs from the payload, if any.
    pub fn first_mismatch(&self, offset: u64, bytes: &[u8]) -> Option<u64> {
        for (off, range, stamped) in Self::pieces(offset, bytes.len()) {
            let got = &bytes[range];
            let stamp_ok = got[..stamped]
                .iter()
                .copied()
                .eq(self.stamp(off).take(stamped));
            if !stamp_ok || got[stamped..] != self.payload(off, got.len())[stamped..] {
                let mut want = [0u8; STAMP_PERIOD as usize];
                let want = &mut want[..got.len()];
                self.fill(off, want);
                let at = got.iter().zip(want.iter()).position(|(a, b)| a != b);
                return Some(off + at.expect("a byte differs") as u64);
            }
        }
        None
    }

    /// Folds `bytes` (delivered at stream `offset`) into an FNV-1a
    /// digest with every stamp byte read as its `payload_byte`, so the
    /// digest of a whole stream is comparable with `expected_digest`.
    fn fold_unstamped(&self, mut digest: u64, offset: u64, bytes: &[u8]) -> u64 {
        for (off, range, stamped) in Self::pieces(offset, bytes.len()) {
            digest = fnv1a(digest, self.payload(off, stamped));
            digest = fnv1a(digest, &bytes[range.start + stamped..range.end]);
        }
        digest
    }
}

/// Receiver-side check of one stream: every delivered byte against the
/// stamped payload, and optionally an FNV-1a digest of the delivered
/// bytes (stamps read as `payload_byte`) for comparison with
/// `expected_digest`.
pub struct StreamCheck {
    pattern: Pattern,
    offset: u64,
    digest: Option<u64>,
    /// Stream offset of the first wrong byte seen.
    pub first_bad: Option<u64>,
}

impl StreamCheck {
    /// A check of connection `conn`'s stream; `digest` also folds the
    /// delivered bytes into an FNV-1a digest.
    pub fn new(seed: u64, conn: usize, digest: bool) -> StreamCheck {
        StreamCheck {
            pattern: Pattern::new(seed, conn),
            offset: 0,
            digest: digest.then_some(FNV_OFFSET),
            first_bad: None,
        }
    }

    /// Checks the next delivered bytes of the stream. Returns false
    /// when any of them is wrong.
    pub fn deliver(&mut self, bytes: &[u8]) -> bool {
        let bad = self.pattern.first_mismatch(self.offset, bytes);
        if let Some(d) = self.digest.as_mut() {
            *d = self.pattern.fold_unstamped(*d, self.offset, bytes);
        }
        self.offset += bytes.len() as u64;
        if let Some(at) = bad {
            self.first_bad.get_or_insert(at);
            return false;
        }
        true
    }

    /// Bytes delivered so far.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The running digest, when this check folds one.
    pub fn digest(&self) -> Option<u64> {
        self.digest
    }
}

/// The receive side of one measured stream, as every workload keeps
/// it: each delivered byte checked, and each message's completion time
/// taken when the stream's delivered offset passes its last byte.
pub struct RxStream<T> {
    conn: usize,
    /// Payload and digest check.
    pub check: StreamCheck,
    /// Message boundaries.
    pub clock: MsgClock,
    /// Completion time of each delivered message, in order.
    pub delivered_at: Vec<T>,
}

impl<T: Copy> RxStream<T> {
    /// Stream `conn` of workload seed `seed`, with no messages yet;
    /// `digest` folds a digest for [`RxStream::finish`].
    pub fn new(seed: u64, conn: usize, digest: bool) -> RxStream<T> {
        RxStream {
            conn,
            check: StreamCheck::new(seed, conn, digest),
            clock: MsgClock::new(),
            delivered_at: Vec::new(),
        }
    }

    /// Appends a message of `len` bytes to the stream.
    pub fn push(&mut self, len: u64) {
        self.clock.push(len);
    }

    /// Takes one receive completion of `bytes`, arriving at `now`. A
    /// wrong byte counts one corrupt operation in `ledger`. Returns how
    /// many messages it completed.
    pub fn receive(&mut self, bytes: &[u8], now: T, ledger: &mut Ledger) -> usize {
        if !self.check.deliver(bytes) {
            ledger.fail(
                Failure::Corrupt,
                1,
                format!("stream {} at {:?}", self.conn, self.check.first_bad),
            );
        }
        let done = self.clock.advance(bytes.len() as u64).len();
        self.delivered_at.extend(std::iter::repeat_n(now, done));
        done
    }

    /// End-of-repetition checks: bytes beyond those sent count as a
    /// corrupt operation, and a folded digest must equal
    /// `expected_digest` of the bytes that arrived.
    pub fn finish(&self, seed: u64, ledger: &mut Ledger) {
        if self.clock.overrun() {
            ledger.fail(
                Failure::Corrupt,
                1,
                format!("stream {}: bytes beyond those sent", self.conn),
            );
        }
        if let Some(got) = self.check.digest() {
            let want = expected_digest(seed, self.conn, self.check.offset());
            ledger.check_digest(self.conn, got, want);
        }
    }
}

/// Headroom above the bottleneck bandwidth a goodput may show before
/// it counts as impossible (rounding in the fabric model's clocks).
pub const CAPACITY_EPSILON: f64 = 0.01;

/// Why an operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// A delivered byte differed from the payload pattern.
    Corrupt,
    /// A stream's digest differed from `expected_digest`.
    Digest,
    /// The operation had not completed when the time limit passed.
    Stall,
    /// The protocol reported a peer-driven violation.
    ProtocolError,
    /// A completion queue dropped a completion.
    CqOverflow,
    /// The run claimed more goodput than the bottleneck can carry.
    OverCapacity,
    /// A repetition of a deterministic run gave different figures.
    Nondeterminism,
    /// The workload panicked.
    Panic,
}

impl Failure {
    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Failure::Corrupt => "corrupt",
            Failure::Digest => "digest",
            Failure::Stall => "stall",
            Failure::ProtocolError => "protocol_error",
            Failure::CqOverflow => "cq_overflow",
            Failure::OverCapacity => "over_capacity",
            Failure::Nondeterminism => "nondeterminism",
            Failure::Panic => "panic",
        }
    }
}

/// Operations attempted and failed, with the failures by kind.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Operations (messages or round trips) attempted.
    pub attempted: u64,
    failed: u64,
    /// Failed operations by kind.
    pub by_kind: BTreeMap<Failure, u64>,
    /// First few failure descriptions, for the report.
    pub notes: Vec<String>,
}

impl Ledger {
    /// Counts `ops` more attempted operations.
    pub fn attempt(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// Counts `ops` failed operations of `kind`.
    pub fn fail(&mut self, kind: Failure, ops: u64, note: impl Into<String>) {
        self.failed += ops;
        *self.by_kind.entry(kind).or_default() += ops;
        if self.notes.len() < 8 {
            self.notes.push(format!("{}: {}", kind.name(), note.into()));
        }
    }

    /// Checks a stream's folded digest against the closed form.
    pub fn check_digest(&mut self, conn: usize, got: u64, expected: u64) {
        if got != expected {
            self.fail(
                Failure::Digest,
                1,
                format!("stream {conn} digest {got:#x}, expected {expected:#x}"),
            );
        }
    }

    /// Checks a goodput against the bottleneck it shares: above it by
    /// more than [`CAPACITY_EPSILON`] the run reported the impossible.
    pub fn check_capacity(&mut self, offered_load_ratio: f64) {
        // NaN fails too: an unmeasurable goodput is not a pass.
        let within = offered_load_ratio <= 1.0 + CAPACITY_EPSILON;
        if !within {
            self.fail(
                Failure::OverCapacity,
                1,
                format!("offered load ratio {offered_load_ratio:.4} exceeds 1"),
            );
        }
    }

    /// Counts protocol errors and CQ overflows an endpoint reported.
    pub fn check_endpoint(&mut self, what: &str, protocol_errors: u64, cq_overflowed: bool) {
        if protocol_errors > 0 {
            self.fail(
                Failure::ProtocolError,
                protocol_errors,
                format!("{what}: {protocol_errors} protocol errors"),
            );
        }
        if cq_overflowed {
            self.fail(Failure::CqOverflow, 1, format!("{what}: CQ overflow"));
        }
    }

    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: &Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (&k, &v) in &other.by_kind {
            *self.by_kind.entry(k).or_default() += v;
        }
        for n in &other.notes {
            if self.notes.len() < 8 && !self.notes.contains(n) {
                self.notes.push(n.clone());
            }
        }
    }

    /// Failed operations, never more than were attempted (one operation
    /// can fail more than one check).
    pub fn failed(&self) -> u64 {
        self.failed.min(self.attempted)
    }

    /// Failed ÷ attempted.
    pub fn fail_ratio(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }
}
