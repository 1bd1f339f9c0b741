//! Deterministic fault injection for the serving transport and workers.
//!
//! `dnnperf_gpu::fault` made *profiling* failures reproducible: a seeded
//! plan decides, purely from stable keys, whether an attempt fails. This
//! module ports that philosophy up the stack to the serving layer, where
//! production failure modes live in the transport and the worker pool:
//!
//! * [`TransportFaultPlan`] + [`FaultyTransport`] — a seeded wrapper over
//!   any `Read + Write` stream that tears frames into byte-sized writes,
//!   corrupts payload bytes in transit, stalls before sending, or
//!   disconnects mid-frame (after the length prefix, before the payload —
//!   the worst case for a framed protocol). Decisions are keyed by
//!   `(seed, stream id, frame index)`, so a chaos run replays the exact
//!   same fault schedule on every machine and the injected-fault counters
//!   are byte-identical across runs.
//! * [`PanicPlan`] — a seeded schedule of worker panics keyed by the
//!   request admission sequence number, used by the server's supervision
//!   tests and the `chaos` bench bin to prove that a panicking worker
//!   never hangs a client and never shrinks the pool.
//!
//! Like `FaultPlan`, both plans are **bounded**: transport faults stop
//! firing after [`TransportFaultPlan::max_faulty_frames`] per stream, so
//! every client deterministically makes progress; panic draws are pure
//! rate draws over a finite admission sequence.
//!
//! Injection stays confined to test and bench surfaces: production code
//! never constructs these types (the `dnnperf-lint` oracle-isolation
//! note in `lint.toml` records the same policy for the profiler faults).

use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Bytes of a frame's big-endian length prefix.
const PREFIX_BYTES: usize = 4;

// -- tiny deterministic hash (SplitMix64) -----------------------------------
//
// Local copy of the SplitMix64 finalizer (as in `dnnperf_sched::retry`):
// the serve crate must not depend on the testkit, and the hash is eight
// lines.

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform sample in `[0, 1)` from a hash (top 53 bits).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A single injected transport fault, scoped to one protocol frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFault {
    /// Every read/write of this frame moves at most one byte per call
    /// (a torn frame: exercises partial-I/O handling on both sides).
    Torn,
    /// One deterministically chosen payload byte is flipped in transit.
    Corrupt,
    /// The sender stalls for the plan's delay before the frame starts.
    Stall,
    /// The connection dies after the length prefix, before the payload —
    /// the receiver is left holding a torn frame that never completes.
    Disconnect,
}

/// Which transport fault kinds a plan may draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportFaultKinds {
    /// Allow [`TransportFault::Torn`].
    pub torn: bool,
    /// Allow [`TransportFault::Corrupt`].
    pub corrupt: bool,
    /// Allow [`TransportFault::Stall`].
    pub stall: bool,
    /// Allow [`TransportFault::Disconnect`].
    pub disconnect: bool,
}

impl TransportFaultKinds {
    /// Faults a correct peer recovers from transparently (torn + stall):
    /// under these, every request must still succeed.
    pub fn recoverable_only() -> Self {
        TransportFaultKinds {
            torn: true,
            corrupt: false,
            stall: true,
            disconnect: false,
        }
    }

    /// Everything at once (chaos testing).
    pub fn chaos() -> Self {
        TransportFaultKinds {
            torn: true,
            corrupt: true,
            stall: true,
            disconnect: true,
        }
    }

    fn enabled(&self) -> Vec<TransportFault> {
        let mut out = Vec::with_capacity(4);
        if self.torn {
            out.push(TransportFault::Torn);
        }
        if self.corrupt {
            out.push(TransportFault::Corrupt);
        }
        if self.stall {
            out.push(TransportFault::Stall);
        }
        if self.disconnect {
            out.push(TransportFault::Disconnect);
        }
        out
    }
}

/// A seeded, deterministic transport fault schedule.
///
/// [`TransportFaultPlan::decide`] is a pure function of the plan and
/// `(stream id, frame index)`: two runs with equal plans inject the
/// exact same faults at the exact same frames, on any machine.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportFaultPlan {
    /// Seed separating independent fault universes.
    pub seed: u64,
    /// Per-frame fault probability in `[0, 1]`.
    pub rate: f64,
    /// Which fault kinds may fire.
    pub kinds: TransportFaultKinds,
    /// Frames with index `>= max_faulty_frames` on a stream are always
    /// clean, bounding how long any one connection can misbehave.
    pub max_faulty_frames: u32,
    /// Delay injected by [`TransportFault::Stall`].
    pub stall_delay: Duration,
}

impl TransportFaultPlan {
    /// A recoverable-faults-only plan (torn frames and stalls) at `rate`.
    pub fn recoverable_only(seed: u64, rate: f64) -> Self {
        TransportFaultPlan {
            seed,
            rate,
            kinds: TransportFaultKinds::recoverable_only(),
            max_faulty_frames: u32::MAX,
            stall_delay: Duration::from_millis(2),
        }
    }

    /// An everything-can-happen plan at `rate` (corruption and
    /// disconnects too).
    pub fn chaos(seed: u64, rate: f64) -> Self {
        TransportFaultPlan {
            seed,
            rate,
            kinds: TransportFaultKinds::chaos(),
            max_faulty_frames: u32::MAX,
            stall_delay: Duration::from_millis(2),
        }
    }

    /// Hash key for one `(stream, frame)` cell.
    fn cell(&self, stream_id: u64, frame: u32) -> u64 {
        splitmix(
            splitmix(self.seed ^ 0x7a05_0f17)
                ^ stream_id.rotate_left(23)
                ^ (u64::from(frame) << 40),
        )
    }

    /// Decides the fault (if any) for frame number `frame` of stream
    /// `stream_id`. Deterministic in all arguments.
    pub fn decide(&self, stream_id: u64, frame: u32) -> Option<TransportFault> {
        if frame >= self.max_faulty_frames || self.rate <= 0.0 {
            return None;
        }
        let enabled = self.kinds.enabled();
        if enabled.is_empty() {
            return None;
        }
        let h = self.cell(stream_id, frame);
        if unit(h) >= self.rate {
            return None;
        }
        let pick = (splitmix(h ^ 0x9E37_79B9_7F4A_7C15) % enabled.len() as u64) as usize;
        enabled.get(pick).copied()
    }

    /// The byte position within a `len`-byte payload that
    /// [`TransportFault::Corrupt`] damages (deterministic per cell).
    pub fn corrupt_position(&self, stream_id: u64, frame: u32, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (splitmix(self.cell(stream_id, frame) ^ 0x00C0_FFEE) % len as u64) as usize
    }
}

/// Counters of faults a [`FaultyTransport`] actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportFaultStats {
    /// Frames delivered one byte per call.
    pub torn: u64,
    /// Frames with a flipped payload byte.
    pub corrupted: u64,
    /// Frames delayed by the stall fault.
    pub stalled: u64,
    /// Connections killed mid-frame.
    pub disconnected: u64,
}

impl TransportFaultStats {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.torn + self.corrupted + self.stalled + self.disconnected
    }

    /// Accumulates another stream's counters into this one.
    pub fn merge(&mut self, other: &TransportFaultStats) {
        self.torn += other.torn;
        self.corrupted += other.corrupted;
        self.stalled += other.stalled;
        self.disconnected += other.disconnected;
    }
}

/// A `Read + Write` wrapper that injects the faults a
/// [`TransportFaultPlan`] schedules, behind the exact traits
/// `read_frame`/`write_frame` already use — the protocol code under test
/// cannot tell it apart from a healthy stream.
///
/// Frame boundaries are tracked on the write side: `write_frame` ends
/// every frame with a `flush`, so the first `write` after a flush opens
/// frame `n+1` and draws that frame's fault. Within a frame, faults
/// attach to byte offsets, not to write calls: bytes `0..4` are the
/// length prefix and the payload follows. Corruption flips payload byte
/// `4 + corrupt_position(..)`, and a disconnect lets exactly the 4
/// prefix bytes out and then dies. However the caller splits a frame
/// into writes, the same bytes reach the wire.
#[derive(Debug)]
pub struct FaultyTransport<S> {
    inner: S,
    plan: TransportFaultPlan,
    stream_id: u64,
    frame: u32,
    frame_open: bool,
    /// Bytes of the open frame already passed to `inner`.
    offset: usize,
    /// The open frame's length prefix, as far as it has been written.
    prefix: [u8; PREFIX_BYTES],
    active: Option<TransportFault>,
    dead: bool,
    stats: TransportFaultStats,
}

impl<S: Read + Write> FaultyTransport<S> {
    /// Wraps `inner` with the fault schedule `plan`. `stream_id`
    /// separates fault universes of concurrent connections — derive it
    /// deterministically (e.g. `client_id * 1000 + connection_seq`).
    pub fn new(inner: S, plan: TransportFaultPlan, stream_id: u64) -> Self {
        FaultyTransport {
            inner,
            plan,
            stream_id,
            frame: 0,
            frame_open: false,
            offset: 0,
            prefix: [0; PREFIX_BYTES],
            active: None,
            dead: false,
            stats: TransportFaultStats::default(),
        }
    }

    /// The wrapped stream.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Counters of the faults injected so far on this stream.
    pub fn stats(&self) -> TransportFaultStats {
        self.stats
    }

    /// Whether a disconnect fault has killed this stream.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    fn open_frame(&mut self) {
        if self.frame_open {
            return;
        }
        self.frame_open = true;
        self.offset = 0;
        self.active = self.plan.decide(self.stream_id, self.frame);
        match self.active {
            Some(TransportFault::Torn) => self.stats.torn += 1,
            Some(TransportFault::Corrupt) => self.stats.corrupted += 1,
            Some(TransportFault::Stall) => {
                self.stats.stalled += 1;
                std::thread::sleep(self.plan.stall_delay);
            }
            Some(TransportFault::Disconnect) => self.stats.disconnected += 1,
            None => {}
        }
        self.frame += 1;
    }

    /// For a corrupted frame, the index within `buf` — about to be
    /// written at frame offset `self.offset` — of the payload byte to
    /// flip, if that byte falls inside `buf`.
    fn corrupt_index(&mut self, buf: &[u8]) -> Option<usize> {
        let start = self.offset;
        for (i, b) in buf
            .iter()
            .enumerate()
            .take(PREFIX_BYTES.saturating_sub(start))
        {
            if let Some(slot) = self.prefix.get_mut(start + i) {
                *slot = *b;
            }
        }
        if start + buf.len() <= PREFIX_BYTES {
            return None; // the payload length is not known yet
        }
        let len = u32::from_be_bytes(self.prefix) as usize;
        if len == 0 {
            return None;
        }
        let at = PREFIX_BYTES
            + self
                .plan
                .corrupt_position(self.stream_id, self.frame.wrapping_sub(1), len);
        at.checked_sub(start).filter(|&i| i < buf.len())
    }
}

fn injected_disconnect() -> std::io::Error {
    std::io::Error::new(ErrorKind::BrokenPipe, "injected disconnect")
}

impl<S: Read + Write> Read for FaultyTransport<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(injected_disconnect());
        }
        // Tearing applies to reads of the *current* fault window too: one
        // byte per call exercises partial-read handling in read_frame.
        let cap = if self.active == Some(TransportFault::Torn) {
            1usize.min(buf.len())
        } else {
            buf.len()
        };
        match buf.get_mut(..cap) {
            Some(window) => self.inner.read(window),
            None => Ok(0),
        }
    }
}

impl<S: Read + Write> Write for FaultyTransport<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(injected_disconnect());
        }
        self.open_frame();
        let n = match self.active {
            // Mid-frame disconnect: the length prefix goes out, the
            // payload never follows — the receiver holds a torn frame.
            Some(TransportFault::Disconnect) => {
                let room = PREFIX_BYTES.saturating_sub(self.offset);
                if room == 0 {
                    self.dead = true;
                    return Err(injected_disconnect());
                }
                self.inner.write(buf.get(..room).unwrap_or(buf))?
            }
            Some(TransportFault::Torn) => self.inner.write(buf.get(..1).unwrap_or(buf))?,
            // Flip one payload byte; the prefix stays intact so the
            // receiver gets a complete, garbled frame to reject.
            Some(TransportFault::Corrupt) => match self.corrupt_index(buf) {
                Some(i) => {
                    let mut damaged = buf.to_vec();
                    if let Some(b) = damaged.get_mut(i) {
                        *b ^= 0x04;
                    }
                    self.inner.write(&damaged)?
                }
                None => self.inner.write(buf)?,
            },
            _ => self.inner.write(buf)?,
        };
        self.offset += n;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.frame_open = false;
        if self.dead {
            return Err(injected_disconnect());
        }
        self.inner.flush()
    }
}

/// A seeded schedule of injected worker panics, keyed by the request
/// admission sequence number.
///
/// The admitted count is deterministic for a fixed workload, so the
/// *number* of panics fired — and therefore the server's `panics` /
/// `respawns` counters — replays exactly across runs with the same seed
/// even though which physical worker thread serves which request is not.
#[derive(Debug, Clone, PartialEq)]
pub struct PanicPlan {
    /// Seed separating independent panic universes.
    pub seed: u64,
    /// Per-request panic probability in `[0, 1]`.
    pub rate: f64,
}

impl PanicPlan {
    /// A plan firing at `rate`.
    pub fn new(seed: u64, rate: f64) -> Self {
        PanicPlan { seed, rate }
    }

    /// Whether the worker serving admission sequence number `seq` should
    /// panic. Pure in `(self, seq)`.
    pub fn fires(&self, seq: u64) -> bool {
        if self.rate <= 0.0 {
            return false;
        }
        unit(splitmix(self.seed ^ 0xBAD_C0DE ^ seq.rotate_left(31))) < self.rate
    }

    /// How many of the first `admitted` sequence numbers fire (the
    /// deterministic expectation for the server's `panics` counter).
    pub fn fires_among(&self, admitted: u64) -> u64 {
        (0..admitted).filter(|&s| self.fires(s)).count() as u64
    }
}

/// The panic payload injected workers unwind with — typed so supervision
/// tests can tell an injected crash apart from a genuine bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedWorkerPanic {
    /// The admission sequence number whose service crashed.
    pub seq: u64,
}

/// Monotonic source of deterministic-enough stream ids for tests that
/// wrap ad-hoc streams without a client/connection numbering scheme.
pub(crate) static NEXT_STREAM_ID: AtomicU64 = AtomicU64::new(0);

/// A fresh stream id (process-unique; fine for unit tests, benches
/// should derive ids from `(client, connection)` instead).
pub fn next_stream_id() -> u64 {
    NEXT_STREAM_ID.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// An in-memory duplex-ish stream: reads from `input`, writes to
    /// `output`.
    struct Loop {
        input: Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Read for Loop {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Loop {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn looped(input: Vec<u8>) -> Loop {
        Loop {
            input: Cursor::new(input),
            output: Vec::new(),
        }
    }

    #[test]
    fn decisions_are_deterministic_and_bounded() {
        let p = TransportFaultPlan::chaos(42, 0.5);
        let q = TransportFaultPlan::chaos(42, 0.5);
        for stream in 0..16u64 {
            for frame in 0..32 {
                assert_eq!(p.decide(stream, frame), q.decide(stream, frame));
            }
        }
        let mut bounded = TransportFaultPlan::chaos(42, 1.0);
        bounded.max_faulty_frames = 3;
        assert!(bounded.decide(7, 2).is_some(), "rate 1.0 under the bound");
        assert_eq!(bounded.decide(7, 3), None, "bounded depth goes clean");
        assert_eq!(TransportFaultPlan::chaos(1, 0.0).decide(0, 0), None);
    }

    #[test]
    fn different_seeds_or_streams_decorrelate() {
        let p = TransportFaultPlan::chaos(1, 0.5);
        let q = TransportFaultPlan::chaos(2, 0.5);
        assert!((0..64).any(|f| p.decide(0, f) != q.decide(0, f)));
        assert!((0..64).any(|f| p.decide(0, f) != p.decide(1, f)));
    }

    #[test]
    fn recoverable_only_never_corrupts_or_disconnects() {
        let p = TransportFaultPlan::recoverable_only(11, 1.0);
        for f in 0..200 {
            match p.decide(3, f) {
                Some(TransportFault::Corrupt) | Some(TransportFault::Disconnect) => {
                    panic!("recoverable-only plan drew a destructive fault")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn torn_writes_still_deliver_every_byte() {
        let mut plan = TransportFaultPlan::recoverable_only(0, 1.0);
        plan.kinds = TransportFaultKinds {
            torn: true,
            corrupt: false,
            stall: false,
            disconnect: false,
        };
        let mut t = FaultyTransport::new(looped(Vec::new()), plan, 1);
        crate::protocol::write_frame(&mut t, "predict\tt\tn\t8").unwrap();
        assert!(t.stats().torn >= 1);
        let written = t.inner.output.clone();
        // The receiver reassembles the identical frame.
        let mut r = Cursor::new(written);
        let got = crate::protocol::read_frame(&mut r).unwrap().unwrap();
        assert_eq!(got, "predict\tt\tn\t8");
    }

    #[test]
    fn corruption_flips_exactly_one_payload_byte() {
        let mut plan = TransportFaultPlan::chaos(9, 1.0);
        plan.kinds = TransportFaultKinds {
            torn: false,
            corrupt: true,
            stall: false,
            disconnect: false,
        };
        let payload = "predict\ttenant\tnet\t8";
        let mut t = FaultyTransport::new(looped(Vec::new()), plan.clone(), 2);
        crate::protocol::write_frame(&mut t, payload).unwrap();
        assert_eq!(t.stats().corrupted, 1);
        let written = t.inner.output.clone();
        // Prefix intact, exactly one payload byte differs: the one at the
        // plan's position for this (stream, frame) cell.
        assert_eq!(&written[..4], &(payload.len() as u32).to_be_bytes()[..]);
        let diffs: Vec<usize> = written[4..]
            .iter()
            .zip(payload.as_bytes())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diffs, vec![plan.corrupt_position(2, 0, payload.len())]);
    }

    #[test]
    fn disconnect_kills_after_the_prefix() {
        let mut plan = TransportFaultPlan::chaos(5, 1.0);
        plan.kinds = TransportFaultKinds {
            torn: false,
            corrupt: false,
            stall: false,
            disconnect: true,
        };
        let mut t = FaultyTransport::new(looped(Vec::new()), plan, 3);
        let err = crate::protocol::write_frame(&mut t, "stats").unwrap_err();
        assert!(matches!(err, crate::protocol::WireError::Io(_)));
        assert!(t.is_dead());
        assert_eq!(t.stats().disconnected, 1);
        // Only the 4-byte prefix escaped: the receiver sees a torn frame.
        assert_eq!(t.inner.output.len(), 4);
        // Every later operation fails fast.
        let mut buf = [0u8; 1];
        assert!(t.read(&mut buf).is_err());
        assert!(t.write(b"x").is_err());
    }

    fn only(kind: TransportFault) -> TransportFaultKinds {
        TransportFaultKinds {
            torn: kind == TransportFault::Torn,
            corrupt: kind == TransportFault::Corrupt,
            stall: kind == TransportFault::Stall,
            disconnect: kind == TransportFault::Disconnect,
        }
    }

    /// Writes `payloads` as frames through a fresh transport, stopping at
    /// the first failed frame. `chunks: None` uses `write_frame` (one
    /// write per frame); `Some(k)` writes the prefix, then the payload in
    /// `k` pieces. Returns the bytes on the wire, the fault counters and
    /// how many frames were written.
    fn wire_image(
        plan: &TransportFaultPlan,
        stream_id: u64,
        payloads: &[&str],
        chunks: Option<usize>,
    ) -> (Vec<u8>, TransportFaultStats, usize) {
        let mut t = FaultyTransport::new(looped(Vec::new()), plan.clone(), stream_id);
        let mut written = 0;
        for payload in payloads {
            let ok = match chunks {
                None => crate::protocol::write_frame(&mut t, payload).is_ok(),
                Some(k) => {
                    let bytes = payload.as_bytes();
                    let step = bytes.len().div_ceil(k).max(1);
                    t.write_all(&(bytes.len() as u32).to_be_bytes())
                        .and_then(|()| bytes.chunks(step).try_for_each(|c| t.write_all(c)))
                        .and_then(|()| t.flush())
                        .is_ok()
                }
            };
            if !ok {
                break;
            }
            written += 1;
        }
        (t.inner.output, t.stats, written)
    }

    #[test]
    fn wire_bytes_do_not_depend_on_how_a_frame_is_split_into_writes() {
        let payloads = [
            "predict\tteam\tResNet-50\t8",
            "graceful\tteam\tsqueezenet-64-32\t32\t250",
            "stats",
            "predict\tteam\tVGG-16\t128",
        ];
        let mut plans = Vec::new();
        for kind in [
            TransportFault::Torn,
            TransportFault::Corrupt,
            TransportFault::Stall,
            TransportFault::Disconnect,
        ] {
            let mut plan = TransportFaultPlan::chaos(17, 1.0);
            plan.kinds = only(kind);
            plans.push(plan);
        }
        plans.push(TransportFaultPlan::chaos(23, 0.5));
        for plan in &mut plans {
            plan.stall_delay = Duration::ZERO;
            for stream_id in 0..8 {
                let reference = wire_image(plan, stream_id, &payloads, None);
                assert!(reference.1.total() > 0 || plan.rate < 1.0);
                for k in [1, 2, 7] {
                    assert_eq!(
                        wire_image(plan, stream_id, &payloads, Some(k)),
                        reference,
                        "plan {:?}, stream {stream_id}, payload in {k} writes",
                        plan.kinds
                    );
                }
            }
        }
    }

    #[test]
    fn clean_plan_is_a_transparent_wrapper() {
        let plan = TransportFaultPlan::chaos(0, 0.0);
        let mut t = FaultyTransport::new(looped(Vec::new()), plan, 0);
        crate::protocol::write_frame(&mut t, "stats").unwrap();
        assert_eq!(t.stats().total(), 0);
        let mut r = Cursor::new(t.inner.output.clone());
        assert_eq!(
            crate::protocol::read_frame(&mut r).unwrap().unwrap(),
            "stats"
        );
    }

    #[test]
    fn panic_plan_is_deterministic_and_rate_bounded() {
        let p = PanicPlan::new(7, 0.25);
        let q = PanicPlan::new(7, 0.25);
        for seq in 0..512 {
            assert_eq!(p.fires(seq), q.fires(seq));
        }
        let fired = p.fires_among(400);
        assert!((50..180).contains(&fired), "fired {fired}/400 at rate 0.25");
        assert_eq!(PanicPlan::new(7, 0.0).fires_among(400), 0);
        assert_ne!(
            (0..64).map(|s| p.fires(s)).collect::<Vec<_>>(),
            (0..64)
                .map(|s| PanicPlan::new(8, 0.25).fires(s))
                .collect::<Vec<_>>(),
        );
    }
}
