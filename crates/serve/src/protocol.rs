//! The hand-rolled TCP line protocol of the prediction server.
//!
//! Zero-dependency framing: every message is a 4-byte big-endian length
//! prefix followed by that many bytes of UTF-8 payload. Requests are
//! tab-separated fields; responses are tab-separated fields whose first
//! field is a status word. Predicted seconds travel as the **hex of the
//! f64 bit pattern** (`f64::to_bits` rendered as 16 lowercase hex
//! digits), so a client decodes the exact double the server computed —
//! no decimal round-trip, bit-identical to an in-process call.
//!
//! Requests (the trailing `<deadline-ms>` field is optional; its absence
//! means "no deadline", so pre-deadline clients keep working unchanged):
//!
//! ```text
//! predict \t <tenant> \t <network> \t <batch> [\t <deadline-ms>]
//! graceful \t <tenant> \t <network> \t <batch> [\t <deadline-ms>]
//! stats
//! ```
//!
//! Responses:
//!
//! ```text
//! ok \t <f64-bits-hex>                      (predict)
//! ok \t <f64-bits-hex> \t <degraded-notes>  (graceful; note count)
//! stats \t <key>=<value> ...                (stats)
//! overloaded                                (admission control shed this)
//! deadline-exceeded                         (expired before service)
//! shutting-down                             (server is draining)
//! internal \t <message>                     (worker crashed mid-service)
//! error \t <message>                        (anything else)
//! ```
//!
//! Reading is hardened against slow and hostile peers: [`read_frame`]
//! survives torn reads (`Interrupted`, short reads inside the prefix),
//! and [`read_frame_deadline`] additionally bounds the total time a
//! single frame may take to arrive — the slowloris guard the server's
//! connection loop runs on.

use dnnperf_sched::Clock;
use std::io::{ErrorKind, Read, Write};
use std::time::Duration;

/// Upper bound on a frame payload. Requests and responses are one short
/// line; anything bigger is a corrupt or hostile stream.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Strict prediction (`Workflow::predict` semantics).
    Predict {
        /// Tenant (registered suite) name.
        tenant: String,
        /// Network name in the server catalog.
        network: String,
        /// Batch size.
        batch: usize,
        /// Time budget from submission, in milliseconds. `None` waits
        /// indefinitely; `Some(0)` demands immediate service.
        deadline_ms: Option<u64>,
    },
    /// Graceful-ladder prediction (`Workflow::predict_graceful`).
    Graceful {
        /// Tenant (registered suite) name.
        tenant: String,
        /// Network name in the server catalog.
        network: String,
        /// Batch size.
        batch: usize,
        /// Time budget from submission, in milliseconds (see
        /// [`Request::Predict::deadline_ms`]).
        deadline_ms: Option<u64>,
    },
    /// Server and cache counters.
    Stats,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A prediction in seconds; `degraded_notes` is `Some(n)` for
    /// graceful requests (n = number of fallback notes).
    Ok {
        /// Predicted seconds.
        seconds: f64,
        /// `Some(note count)` for graceful predictions.
        degraded_notes: Option<usize>,
    },
    /// Tab-separated `key=value` counter pairs.
    Stats(Vec<(String, u64)>),
    /// Admission control shed the request.
    Overloaded,
    /// The request's deadline expired before it could be served.
    DeadlineExceeded,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// A worker crashed while serving the request; the supervisor
    /// answered on its behalf. The request may be retried.
    Internal(String),
    /// The request failed (unknown tenant/network, invalid batch, ...).
    Error(String),
}

/// Errors reading, writing or parsing protocol frames.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// A frame declared a payload over [`MAX_FRAME_BYTES`].
    FrameTooLarge(usize),
    /// The payload was not valid UTF-8 or not a well-formed message.
    Malformed(String),
    /// A retrying client spent its whole retry budget on transient
    /// transport faults; `last` is the error of the final attempt.
    Exhausted {
        /// Total attempts made before giving up.
        attempts: u32,
        /// The final attempt's failure.
        last: Box<WireError>,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::FrameTooLarge(n) => {
                write!(
                    f,
                    "frame of {n} bytes exceeds the {MAX_FRAME_BYTES} byte cap"
                )
            }
            WireError::Malformed(m) => write!(f, "malformed message: {m}"),
            WireError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one length-prefixed frame as a single buffer: on a socket
/// with `TCP_NODELAY` that is one syscall and one segment, not a
/// prefix segment followed by a payload segment.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] when `payload` exceeds the cap, or the
/// underlying I/O error.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> Result<(), WireError> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge(bytes.len()));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF at
/// a frame boundary (the peer closed the connection).
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] for an oversized declared length,
/// [`WireError::Malformed`] for non-UTF-8 payloads, or the underlying
/// I/O error (including EOF mid-frame).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<String>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut have;
    loop {
        match r.read(&mut len_buf) {
            Ok(0) => return Ok(None),
            Ok(n) => {
                have = n;
                break;
            }
            // A signal mid-read is not a dead connection: retry, exactly
            // as `read_exact` would.
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    while have < 4 {
        match r.read(len_buf.get_mut(have..).unwrap_or(&mut [])) {
            Ok(0) => return Err(WireError::Malformed("EOF inside length prefix".into())),
            Ok(n) => have += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| WireError::Malformed("payload is not UTF-8".into()))
}

/// Outcome of [`read_frame_deadline`].
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame payload.
    Frame(String),
    /// Clean EOF at a frame boundary: the peer hung up.
    Closed,
    /// No byte of a new frame arrived before the reader's timeout tick.
    /// The caller owns idle policy (stop flags, per-connection idle
    /// deadlines) and decides whether to poll again or hang up.
    Idle,
    /// A frame started arriving but did not complete within the budget —
    /// a torn frame or a slowloris peer. Drop the connection.
    TimedOut,
}

/// Reads one frame with a bound on how long the frame may take to
/// arrive once its first byte lands.
///
/// This is the server-side [`read_frame`]: the plain variant trusts the
/// peer to eventually finish every frame it starts, which lets a slow or
/// hostile client pin a connection thread forever (slowloris). Here the
/// idle wait (before any byte) is unbudgeted — the connection loop
/// accounts idle time across calls via [`FrameRead::Idle`] — but once a
/// frame starts, `WouldBlock`/`TimedOut`/`Interrupted` stalls only
/// retry while `clock` says less than `frame_timeout` has elapsed.
///
/// `retry_pause` is slept between in-frame retries; pass
/// `Duration::ZERO` for sockets with their own read timeout (the socket
/// already paces the loop) and a small positive pause for readers that
/// fail fast, so a fake clock advances deterministically in tests.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`], [`WireError::Malformed`] (EOF inside a
/// frame, non-UTF-8 payload), or a non-retriable I/O error.
pub fn read_frame_deadline<R: Read>(
    r: &mut R,
    clock: &dyn Clock,
    frame_timeout: Duration,
    retry_pause: Duration,
) -> Result<FrameRead, WireError> {
    let mut len_buf = [0u8; 4];
    let mut have;
    // Idle phase: no frame has started, so no frame budget applies.
    loop {
        match r.read(&mut len_buf) {
            Ok(0) => return Ok(FrameRead::Closed),
            Ok(n) => {
                have = n;
                break;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(FrameRead::Idle)
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    // First byte landed: the whole frame must arrive within the budget.
    let started = clock.now();
    while have < 4 {
        match r.read(len_buf.get_mut(have..).unwrap_or(&mut [])) {
            Ok(0) => return Err(WireError::Malformed("EOF inside length prefix".into())),
            Ok(n) => have += n,
            Err(e) => match in_frame_stall(&e, clock, started, frame_timeout, retry_pause) {
                Stall::Retry => {}
                Stall::Expired => return Ok(FrameRead::TimedOut),
                Stall::Fatal => return Err(WireError::Io(e)),
            },
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        match r.read(payload.get_mut(filled..).unwrap_or(&mut [])) {
            Ok(0) => return Err(WireError::Malformed("EOF inside payload".into())),
            Ok(n) => filled += n,
            Err(e) => match in_frame_stall(&e, clock, started, frame_timeout, retry_pause) {
                Stall::Retry => {}
                Stall::Expired => return Ok(FrameRead::TimedOut),
                Stall::Fatal => return Err(WireError::Io(e)),
            },
        }
    }
    String::from_utf8(payload)
        .map(FrameRead::Frame)
        .map_err(|_| WireError::Malformed("payload is not UTF-8".into()))
}

/// How [`read_frame_deadline`] should react to a mid-frame read error.
enum Stall {
    Retry,
    Expired,
    Fatal,
}

fn in_frame_stall(
    e: &std::io::Error,
    clock: &dyn Clock,
    started: Duration,
    budget: Duration,
    pause: Duration,
) -> Stall {
    let retriable = matches!(
        e.kind(),
        ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
    );
    if !retriable {
        return Stall::Fatal;
    }
    if clock.now().saturating_sub(started) >= budget {
        return Stall::Expired;
    }
    // Interrupted means "try again right now"; the blocking kinds pace
    // themselves on real sockets (read timeout) and on `pause` otherwise.
    if e.kind() != ErrorKind::Interrupted && !pause.is_zero() {
        clock.sleep(pause);
    }
    Stall::Retry
}

fn parse_batch(s: &str) -> Result<usize, WireError> {
    s.parse()
        .map_err(|_| WireError::Malformed(format!("bad batch {s:?}")))
}

fn parse_deadline(s: &str) -> Result<u64, WireError> {
    s.parse()
        .map_err(|_| WireError::Malformed(format!("bad deadline {s:?}")))
}

impl Request {
    /// Renders the request as a frame payload.
    pub fn format(&self) -> String {
        let line = |verb: &str, tenant: &str, network: &str, batch: usize, dl: Option<u64>| {
            let mut out = format!("{verb}\t{tenant}\t{network}\t{batch}");
            if let Some(ms) = dl {
                out.push('\t');
                out.push_str(&ms.to_string());
            }
            out
        };
        match self {
            Request::Predict {
                tenant,
                network,
                batch,
                deadline_ms,
            } => line("predict", tenant, network, *batch, *deadline_ms),
            Request::Graceful {
                tenant,
                network,
                batch,
                deadline_ms,
            } => line("graceful", tenant, network, *batch, *deadline_ms),
            Request::Stats => "stats".to_string(),
        }
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] for unknown verbs or wrong field counts.
    pub fn parse(line: &str) -> Result<Self, WireError> {
        let mut fields = line.split('\t');
        let verb = fields.next().unwrap_or("");
        let rest: Vec<&str> = fields.collect();
        match (verb, rest.as_slice()) {
            ("predict", [tenant, network, batch]) => Ok(Request::Predict {
                tenant: (*tenant).to_string(),
                network: (*network).to_string(),
                batch: parse_batch(batch)?,
                deadline_ms: None,
            }),
            ("predict", [tenant, network, batch, dl]) => Ok(Request::Predict {
                tenant: (*tenant).to_string(),
                network: (*network).to_string(),
                batch: parse_batch(batch)?,
                deadline_ms: Some(parse_deadline(dl)?),
            }),
            ("graceful", [tenant, network, batch]) => Ok(Request::Graceful {
                tenant: (*tenant).to_string(),
                network: (*network).to_string(),
                batch: parse_batch(batch)?,
                deadline_ms: None,
            }),
            ("graceful", [tenant, network, batch, dl]) => Ok(Request::Graceful {
                tenant: (*tenant).to_string(),
                network: (*network).to_string(),
                batch: parse_batch(batch)?,
                deadline_ms: Some(parse_deadline(dl)?),
            }),
            ("stats", []) => Ok(Request::Stats),
            _ => Err(WireError::Malformed(format!("bad request {line:?}"))),
        }
    }
}

impl Response {
    /// Renders the response as a frame payload.
    pub fn format(&self) -> String {
        match self {
            Response::Ok {
                seconds,
                degraded_notes: None,
            } => format!("ok\t{:016x}", seconds.to_bits()),
            Response::Ok {
                seconds,
                degraded_notes: Some(n),
            } => format!("ok\t{:016x}\t{n}", seconds.to_bits()),
            Response::Stats(pairs) => {
                let mut out = String::from("stats");
                for (k, v) in pairs {
                    out.push('\t');
                    out.push_str(k);
                    out.push('=');
                    out.push_str(&v.to_string());
                }
                out
            }
            Response::Overloaded => "overloaded".to_string(),
            Response::DeadlineExceeded => "deadline-exceeded".to_string(),
            Response::ShuttingDown => "shutting-down".to_string(),
            Response::Internal(m) => format!("internal\t{}", m.replace(['\t', '\n'], " ")),
            Response::Error(m) => format!("error\t{}", m.replace(['\t', '\n'], " ")),
        }
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] for unknown status words or bad fields.
    pub fn parse(line: &str) -> Result<Self, WireError> {
        let mut fields = line.split('\t');
        let status = fields.next().unwrap_or("");
        let rest: Vec<&str> = fields.collect();
        match (status, rest.as_slice()) {
            ("ok", [bits]) => Ok(Response::Ok {
                seconds: parse_bits(bits)?,
                degraded_notes: None,
            }),
            ("ok", [bits, notes]) => Ok(Response::Ok {
                seconds: parse_bits(bits)?,
                degraded_notes: Some(
                    notes
                        .parse()
                        .map_err(|_| WireError::Malformed(format!("bad note count {notes:?}")))?,
                ),
            }),
            ("stats", pairs) => {
                let mut out = Vec::with_capacity(pairs.len());
                for p in pairs {
                    let (k, v) = p
                        .split_once('=')
                        .ok_or_else(|| WireError::Malformed(format!("bad stat {p:?}")))?;
                    let v = v
                        .parse()
                        .map_err(|_| WireError::Malformed(format!("bad stat {p:?}")))?;
                    out.push((k.to_string(), v));
                }
                Ok(Response::Stats(out))
            }
            ("overloaded", []) => Ok(Response::Overloaded),
            ("deadline-exceeded", []) => Ok(Response::DeadlineExceeded),
            ("shutting-down", []) => Ok(Response::ShuttingDown),
            ("internal", [m]) => Ok(Response::Internal((*m).to_string())),
            ("error", [m]) => Ok(Response::Error((*m).to_string())),
            _ => Err(WireError::Malformed(format!("bad response {line:?}"))),
        }
    }
}

fn parse_bits(s: &str) -> Result<f64, WireError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| WireError::Malformed(format!("bad f64 bits {s:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Predict {
                tenant: "t".into(),
                network: "resnet18".into(),
                batch: 32,
                deadline_ms: None,
            },
            Request::Predict {
                tenant: "t".into(),
                network: "resnet18".into(),
                batch: 32,
                deadline_ms: Some(250),
            },
            Request::Graceful {
                tenant: "other".into(),
                network: "vgg11".into(),
                batch: 1,
                deadline_ms: Some(0),
            },
            Request::Stats,
        ] {
            assert_eq!(Request::parse(&req.format()).unwrap(), req);
        }
    }

    #[test]
    fn legacy_four_field_requests_parse_without_deadline() {
        // Pre-deadline clients send no fifth field; that must keep
        // meaning "no deadline".
        assert_eq!(
            Request::parse("predict\tt\tn\t8").unwrap(),
            Request::Predict {
                tenant: "t".into(),
                network: "n".into(),
                batch: 8,
                deadline_ms: None,
            }
        );
        assert!(Request::parse("predict\tt\tn\t8\tnot-ms").is_err());
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        let exotic = f64::from_bits(0x3fb9_9999_9999_999a); // 0.1, not decimal-representable
        for resp in [
            Response::Ok {
                seconds: exotic,
                degraded_notes: None,
            },
            Response::Ok {
                seconds: 1.25e-3,
                degraded_notes: Some(4),
            },
            Response::Stats(vec![("hits".into(), 7), ("misses".into(), 2)]),
            Response::Overloaded,
            Response::DeadlineExceeded,
            Response::ShuttingDown,
            Response::Internal("worker panicked".into()),
            Response::Error("no such tenant".into()),
        ] {
            let parsed = Response::parse(&resp.format()).unwrap();
            match (&parsed, &resp) {
                (Response::Ok { seconds: a, .. }, Response::Ok { seconds: b, .. }) => {
                    assert_eq!(a.to_bits(), b.to_bits())
                }
                _ => assert_eq!(parsed, resp),
            }
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "predict\tt\tn\t8").unwrap();
        write_frame(&mut buf, "stats").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "predict\tt\tn\t8");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "stats");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frames_are_rejected_on_both_sides() {
        let big = "x".repeat(MAX_FRAME_BYTES + 1);
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &big),
            Err(WireError::FrameTooLarge(_))
        ));
        // A hostile length prefix is rejected before allocating.
        let hostile = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes().to_vec();
        let mut r = std::io::Cursor::new(hostile);
        assert!(matches!(
            read_frame(&mut r),
            Err(WireError::FrameTooLarge(_))
        ));
    }

    /// A reader scripted as a sequence of events: bytes delivered, or an
    /// error kind surfaced once.
    struct Scripted {
        events: std::collections::VecDeque<Result<Vec<u8>, ErrorKind>>,
        clock: std::sync::Arc<dnnperf_sched::RecordingClock>,
        tick: Duration,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            // Each read costs one tick of fake wall time, like a socket
            // with a read timeout.
            self.clock.advance(self.tick);
            match self.events.pop_front() {
                Some(Ok(bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    Ok(n)
                }
                Some(Err(kind)) => Err(std::io::Error::new(kind, "scripted")),
                None => Ok(0),
            }
        }
    }

    fn scripted(
        events: Vec<Result<Vec<u8>, ErrorKind>>,
        tick: Duration,
    ) -> (Scripted, std::sync::Arc<dnnperf_sched::RecordingClock>) {
        let clock = std::sync::Arc::new(dnnperf_sched::RecordingClock::new());
        (
            Scripted {
                events: events.into_iter().collect(),
                clock: std::sync::Arc::clone(&clock),
                tick,
            },
            clock,
        )
    }

    fn framed(payload: &str) -> Vec<Vec<u8>> {
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        buf.into_iter().map(|b| vec![b]).collect()
    }

    #[test]
    fn read_frame_retries_interrupted_inside_the_prefix() {
        let frame = {
            let mut buf = Vec::new();
            write_frame(&mut buf, "stats").unwrap();
            buf
        };
        let mut events: Vec<Result<Vec<u8>, ErrorKind>> = Vec::new();
        // One byte, a signal, the rest of the prefix byte-by-byte with
        // more signals, then the payload.
        events.push(Err(ErrorKind::Interrupted));
        for b in &frame[..4] {
            events.push(Ok(vec![*b]));
            events.push(Err(ErrorKind::Interrupted));
        }
        events.push(Ok(frame[4..].to_vec()));
        let (mut r, _clock) = scripted(events, Duration::ZERO);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "stats");
    }

    #[test]
    fn deadline_reader_survives_torn_frames_within_budget() {
        // Every byte arrives separately with a WouldBlock between each:
        // the worst legitimate slow client. (A WouldBlock before the
        // first byte would be the idle phase, reported as `Idle`.)
        let mut events: Vec<Result<Vec<u8>, ErrorKind>> = Vec::new();
        for (i, b) in framed("predict\tt\tn\t8").into_iter().enumerate() {
            if i > 0 {
                events.push(Err(ErrorKind::WouldBlock));
            }
            events.push(Ok(b));
        }
        let (mut r, clock) = scripted(events, Duration::from_millis(10));
        let got = read_frame_deadline(
            &mut r,
            clock.as_ref(),
            Duration::from_secs(2),
            Duration::ZERO,
        )
        .unwrap();
        assert!(matches!(got, FrameRead::Frame(p) if p == "predict\tt\tn\t8"));
    }

    #[test]
    fn deadline_reader_times_out_a_slowloris_frame() {
        // One prefix byte lands, then the peer stalls forever.
        let mut events: Vec<Result<Vec<u8>, ErrorKind>> = vec![Ok(vec![0u8])];
        for _ in 0..100 {
            events.push(Err(ErrorKind::WouldBlock));
        }
        let (mut r, clock) = scripted(events, Duration::from_millis(100));
        let got = read_frame_deadline(
            &mut r,
            clock.as_ref(),
            Duration::from_millis(500),
            Duration::ZERO,
        )
        .unwrap();
        assert!(matches!(got, FrameRead::TimedOut));
    }

    #[test]
    fn deadline_reader_reports_idle_and_closed() {
        let (mut idle, clock) = scripted(vec![Err(ErrorKind::WouldBlock)], Duration::ZERO);
        assert!(matches!(
            read_frame_deadline(
                &mut idle,
                clock.as_ref(),
                Duration::from_secs(1),
                Duration::ZERO
            )
            .unwrap(),
            FrameRead::Idle
        ));
        let (mut closed, clock2) = scripted(vec![], Duration::ZERO);
        assert!(matches!(
            read_frame_deadline(
                &mut closed,
                clock2.as_ref(),
                Duration::from_secs(1),
                Duration::ZERO
            )
            .unwrap(),
            FrameRead::Closed
        ));
        // EOF mid-frame is a protocol error, not a timeout.
        let (mut torn, clock3) = scripted(vec![Ok(vec![0u8, 0u8])], Duration::ZERO);
        assert!(matches!(
            read_frame_deadline(
                &mut torn,
                clock3.as_ref(),
                Duration::from_secs(1),
                Duration::ZERO
            ),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn malformed_lines_error() {
        assert!(Request::parse("predict\tonly-two\tfields").is_err());
        assert!(Request::parse("frobnicate").is_err());
        assert!(Request::parse("predict\tt\tn\tnot-a-number").is_err());
        assert!(Response::parse("ok\tzznothex").is_err());
        assert!(Response::parse("").is_err());
    }
}
