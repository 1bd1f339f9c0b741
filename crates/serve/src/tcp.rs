//! The TCP front door: length-prefixed frames over per-connection
//! threads.
//!
//! [`TcpServer::serve`] binds a listener (pass port 0 for an ephemeral
//! port, read it back with [`TcpServer::addr`]) and spawns one accept
//! thread; each accepted connection gets its own handler thread that
//! loops `read_frame -> handle -> write_frame` until the client closes.
//! The handler thread answers a request whose plan is resident itself
//! (see the request path in [`crate::server`]); only misses wait for a
//! worker. The accept loop joins handlers of closed connections as it
//! accepts new ones, so a long-running server holds a thread (and its
//! stack) only per live connection. Shutdown is cooperative: a shared
//! flag is set, the accept loop is unblocked with a throwaway
//! self-connection, and handler threads notice the flag via a short
//! socket read timeout — no thread is ever killed mid-write, so every
//! accepted request gets a response.
//!
//! Connections are hardened against slow and hostile peers
//! ([`TcpConfig`]): a per-connection **idle deadline** hangs up on
//! clients that go quiet between requests, and a per-frame **read
//! budget** bounds how long a started frame may dribble in — a
//! slowloris peer can pin a handler thread for at most one frame
//! budget. Both knobs read `DNNPERF_SERVE_*` environment overrides via
//! [`TcpConfig::from_env`].
//!
//! [`Client`] retries transient transport failures (connect refused,
//! resets, mid-request disconnects) with the scheduler's deterministic
//! backoff — predictions are read-only, so resending is always safe —
//! and gives up with the typed [`WireError::Exhausted`].

use crate::protocol::{
    read_frame, read_frame_deadline, write_frame, FrameRead, Request, Response, WireError,
};
use crate::server::{Pending, PredictionServer, Reply, ServeError};
use dnnperf_sched::sync::lock_unpoisoned;
use dnnperf_sched::{retry_with_backoff, Clock, RetryClass, RetryPolicy, SystemClock};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Transport hardening knobs for [`TcpServer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpConfig {
    /// Hang up on a connection that sends no frame for this long
    /// (`DNNPERF_SERVE_IDLE_MS`).
    pub idle_timeout: Duration,
    /// Maximum time a single frame may take to arrive once its first
    /// byte lands — the slowloris bound (`DNNPERF_SERVE_FRAME_MS`).
    pub frame_timeout: Duration,
    /// Socket read timeout: how often an idle read re-checks the
    /// shutdown flag and idle deadline (`DNNPERF_SERVE_POLL_MS`).
    pub poll: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            idle_timeout: Duration::from_secs(30),
            frame_timeout: Duration::from_secs(2),
            poll: Duration::from_millis(100),
        }
    }
}

impl TcpConfig {
    /// The defaults overridden by `DNNPERF_SERVE_IDLE_MS`,
    /// `DNNPERF_SERVE_FRAME_MS` and `DNNPERF_SERVE_POLL_MS` (all in
    /// milliseconds; unparsable values keep the default).
    pub fn from_env() -> Self {
        let ms = |var: &str, default: Duration| {
            std::env::var(var)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .map(Duration::from_millis)
                .unwrap_or(default)
        };
        let d = TcpConfig::default();
        TcpConfig {
            idle_timeout: ms("DNNPERF_SERVE_IDLE_MS", d.idle_timeout),
            frame_timeout: ms("DNNPERF_SERVE_FRAME_MS", d.frame_timeout),
            poll: ms("DNNPERF_SERVE_POLL_MS", d.poll).max(Duration::from_millis(1)),
        }
    }
}

/// A running TCP front end over a [`PredictionServer`].
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    /// Connection handler threads not yet joined. The accept loop joins
    /// finished ones as it goes, so this holds the live connections plus
    /// at most the ones that closed since the last accept.
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Joins the handler threads that have already returned, keeping the
/// rest registered.
fn reap_finished(handlers: &Mutex<Vec<JoinHandle<()>>>) {
    let finished: Vec<JoinHandle<()>> = {
        let mut registered = lock_unpoisoned(handlers);
        let (finished, live) = std::mem::take(&mut *registered)
            .into_iter()
            .partition(|h| h.is_finished());
        *registered = live;
        finished
    };
    for h in finished {
        let _ = h.join();
    }
}

fn serve_error_response(e: ServeError) -> Response {
    match e {
        ServeError::Overloaded => Response::Overloaded,
        ServeError::DeadlineExceeded => Response::DeadlineExceeded,
        ServeError::ShuttingDown => Response::ShuttingDown,
        ServeError::Internal(m) => Response::Internal(m),
        other => Response::Error(other.to_string()),
    }
}

fn handle_request(server: &PredictionServer, req: &Request) -> Response {
    match req {
        Request::Predict {
            tenant,
            network,
            batch,
            deadline_ms,
        } => match server
            .submit_request(tenant, network, *batch, false, *deadline_ms)
            .and_then(Pending::wait)
        {
            Ok(reply) => Response::Ok {
                seconds: reply.seconds(),
                degraded_notes: None,
            },
            Err(e) => serve_error_response(e),
        },
        Request::Graceful {
            tenant,
            network,
            batch,
            deadline_ms,
        } => match server
            .submit_request(tenant, network, *batch, true, *deadline_ms)
            .and_then(Pending::wait)
        {
            Ok(Reply::Graceful(g)) => Response::Ok {
                seconds: g.seconds,
                degraded_notes: Some(g.notes.len()),
            },
            Ok(Reply::Strict(s)) => Response::Ok {
                seconds: s,
                degraded_notes: Some(0),
            },
            Err(e) => serve_error_response(e),
        },
        Request::Stats => server.stats_response(),
    }
}

fn handle_connection(
    server: &PredictionServer,
    stream: &mut TcpStream,
    stop: &AtomicBool,
    cfg: &TcpConfig,
) {
    // The socket read timeout turns a blocked read into a periodic
    // shutdown-flag / idle-deadline poll; in-frame stalls pace on the
    // same timeout, so read_frame_deadline needs no extra pause.
    let _ = stream.set_read_timeout(Some(cfg.poll));
    let _ = stream.set_nodelay(true);
    let clock = SystemClock;
    let mut idle_since = clock.now();
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let frame = match read_frame_deadline(stream, &clock, cfg.frame_timeout, Duration::ZERO) {
            Ok(FrameRead::Frame(f)) => f,
            Ok(FrameRead::Closed) => return, // clean client close
            Ok(FrameRead::Idle) => {
                if clock.now().saturating_sub(idle_since) >= cfg.idle_timeout {
                    return; // idle deadline: hang up on the quiet peer
                }
                continue;
            }
            // Slowloris: the frame started but won't finish. Drop it.
            Ok(FrameRead::TimedOut) => return,
            Err(e @ (WireError::Malformed(_) | WireError::FrameTooLarge(_))) => {
                // Tell a confused (not just dead) peer why, best-effort,
                // then drop the corrupt stream.
                let _ = write_frame(stream, &Response::Error(e.to_string()).format());
                return;
            }
            Err(_) => return,
        };
        let response = match Request::parse(&frame) {
            Ok(req) => handle_request(server, &req),
            Err(e) => Response::Error(e.to_string()),
        };
        if write_frame(stream, &response.format()).is_err() {
            return;
        }
        idle_since = clock.now();
    }
}

impl TcpServer {
    /// Binds `bind_addr` (e.g. `"127.0.0.1:0"`) and starts accepting
    /// connections that are served by `server`, with hardening knobs
    /// from [`TcpConfig::from_env`].
    ///
    /// # Errors
    ///
    /// The bind error, if the address is unavailable.
    pub fn serve(server: Arc<PredictionServer>, bind_addr: &str) -> std::io::Result<Self> {
        TcpServer::serve_with(server, bind_addr, TcpConfig::from_env())
    }

    /// [`TcpServer::serve`] with explicit hardening knobs.
    ///
    /// # Errors
    ///
    /// The bind error, if the address is unavailable.
    pub fn serve_with(
        server: Arc<PredictionServer>,
        bind_addr: &str,
        cfg: TcpConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handlers = Arc::new(Mutex::new(Vec::new()));
        let accept_stop = Arc::clone(&stop);
        let registry = Arc::clone(&handlers);
        let accept_thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(mut stream) = conn else { continue };
                reap_finished(&registry);
                let server = Arc::clone(&server);
                let stop = Arc::clone(&accept_stop);
                let cfg = cfg.clone();
                let handler = std::thread::spawn(move || {
                    handle_connection(&server, &mut stream, &stop, &cfg);
                });
                lock_unpoisoned(&registry).push(handler);
            }
        });
        Ok(TcpServer {
            addr,
            stop,
            accept_thread: Mutex::new(Some(accept_thread)),
            handlers,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections, winds down every handler thread and
    /// joins them. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop: it only re-checks the flag per
        // connection, so poke it with a throwaway one.
        let _ = TcpStream::connect(self.addr);
        // Take the handle in its own scope so the registry guard is
        // dropped *before* the join: joining while holding the lock
        // would block every concurrent `shutdown` caller on a thread
        // that may itself still be winding handlers down (the
        // blocking-under-lock lint pass enforces this shape).
        let handle = {
            let mut guard = lock_unpoisoned(&self.accept_thread);
            guard.take()
        };
        if let Some(h) = handle {
            let _ = h.join();
        }
        // The accept loop has exited, so no handler registers after this
        // drain; handlers see the stop flag within one poll interval.
        let handlers: Vec<_> = lock_unpoisoned(&self.handlers).drain(..).collect();
        for h in handlers {
            let _ = h.join();
        }
    }

    /// Number of registered (not yet joined) handler threads.
    #[cfg(test)]
    fn handler_threads(&self) -> usize {
        lock_unpoisoned(&self.handlers).len()
    }
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TcpServer({})", self.addr)
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Whether a wire failure is worth retrying: transport-level faults are
/// (the peer may recover or a reconnect may land on a healthy path);
/// protocol-level failures are not.
fn transient(e: &WireError) -> bool {
    match e {
        WireError::Io(io) => matches!(
            io.kind(),
            ErrorKind::ConnectionRefused
                | ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::BrokenPipe
                | ErrorKind::NotConnected
                | ErrorKind::TimedOut
                | ErrorKind::WouldBlock
                | ErrorKind::Interrupted
                | ErrorKind::UnexpectedEof
        ),
        _ => false,
    }
}

/// A minimal blocking client for the line protocol (used by tests and
/// the load generator; real clients can speak the protocol from any
/// language).
///
/// The client owns a reconnect-on-failure loop: transient transport
/// errors (including the server closing the connection mid-request)
/// tear down the socket and retry the whole call on a fresh connection,
/// under the [`RetryPolicy`] it was built with. Predictions are
/// idempotent reads, so resending is always safe. When the policy is
/// exhausted the call fails with [`WireError::Exhausted`].
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    policy: RetryPolicy,
    stream: Option<TcpStream>,
}

impl Client {
    /// Connects to a [`TcpServer`] with no retry budget (every
    /// transport failure is final) — the conservative default.
    ///
    /// # Errors
    ///
    /// The connect error.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Client::connect_with(addr, RetryPolicy::none())
    }

    /// Connects with a retry budget: the initial connect and every
    /// subsequent call retry transient failures under `policy`'s
    /// deterministic backoff.
    ///
    /// # Errors
    ///
    /// The final connect error once `policy` is exhausted.
    pub fn connect_with(addr: SocketAddr, policy: RetryPolicy) -> std::io::Result<Self> {
        let out = retry_with_backoff(
            &policy,
            &SystemClock,
            |_: &std::io::Error| RetryClass::Retriable,
            |_| TcpStream::connect(addr),
        );
        let stream = out.result?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            addr,
            policy,
            stream: Some(stream),
        })
    }

    fn attempt(&mut self, payload: &str) -> Result<Response, WireError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(WireError::Io)?;
            let _ = stream.set_nodelay(true);
            self.stream = Some(stream);
        }
        let result = match self.stream.as_mut() {
            Some(stream) => {
                write_frame(stream, payload).and_then(|()| match read_frame(stream)? {
                    Some(line) => Response::parse(&line),
                    // Mid-request close: surface as a retriable
                    // transport fault, not a protocol error.
                    None => Err(WireError::Io(std::io::Error::new(
                        ErrorKind::ConnectionAborted,
                        "server closed the connection mid-request",
                    ))),
                })
            }
            None => Err(WireError::Io(std::io::Error::new(
                ErrorKind::NotConnected,
                "no connection",
            ))),
        };
        if result.is_err() {
            // Any failure poisons the framing state; reconnect next try.
            self.stream = None;
        }
        result
    }

    /// Sends one request and blocks for its response, retrying transient
    /// transport failures (with reconnects) under the client's policy.
    ///
    /// # Errors
    ///
    /// [`WireError::Exhausted`] once the retry budget is spent on
    /// transient faults; the raw [`WireError`] for permanent failures
    /// (malformed responses, oversized frames).
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        let payload = req.format();
        let policy = self.policy.clone();
        let out = retry_with_backoff(
            &policy,
            &SystemClock,
            |e: &WireError| {
                if transient(e) {
                    RetryClass::Retriable
                } else {
                    RetryClass::Permanent
                }
            },
            |_| self.attempt(&payload),
        );
        match out.result {
            Ok(resp) => Ok(resp),
            Err(last) if transient(&last) => Err(WireError::Exhausted {
                attempts: out.attempts,
                last: Box::new(last),
            }),
            Err(last) => Err(last),
        }
    }

    /// Convenience strict predict returning the decoded seconds.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] describing the failure for any non-`ok`
    /// response, or the transport error.
    pub fn predict(&mut self, tenant: &str, network: &str, batch: usize) -> Result<f64, WireError> {
        let resp = self.call(&Request::Predict {
            tenant: tenant.to_string(),
            network: network.to_string(),
            batch,
            deadline_ms: None,
        })?;
        match resp {
            Response::Ok { seconds, .. } => Ok(seconds),
            other => Err(WireError::Malformed(format!("server said {other:?}"))),
        }
    }

    /// Strict predict with a deadline of `deadline_ms` milliseconds.
    ///
    /// # Errors
    ///
    /// As for [`Client::predict`]; a shed or expired request surfaces as
    /// [`WireError::Malformed`] describing the `deadline-exceeded`
    /// response.
    pub fn predict_deadline(
        &mut self,
        tenant: &str,
        network: &str,
        batch: usize,
        deadline_ms: u64,
    ) -> Result<f64, WireError> {
        let resp = self.call(&Request::Predict {
            tenant: tenant.to_string(),
            network: network.to_string(),
            batch,
            deadline_ms: Some(deadline_ms),
        })?;
        match resp {
            Response::Ok { seconds, .. } => Ok(seconds),
            other => Err(WireError::Malformed(format!("server said {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use std::time::Instant;

    #[test]
    fn closed_connections_are_reaped_and_live_ones_kept() {
        let server = Arc::new(PredictionServer::start(&ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        }));
        let tcp = TcpServer::serve_with(
            Arc::clone(&server),
            "127.0.0.1:0",
            TcpConfig {
                idle_timeout: Duration::from_secs(30),
                frame_timeout: Duration::from_secs(2),
                poll: Duration::from_millis(20),
            },
        )
        .unwrap();
        let live: Vec<TcpStream> = (0..3)
            .map(|_| TcpStream::connect(tcp.addr()).unwrap())
            .collect();
        for _ in 0..200 {
            drop(TcpStream::connect(tcp.addr()).unwrap());
        }
        // Reaping happens on accept: keep opening (and closing) a probe
        // connection until the handlers of every closed connection have
        // exited and been joined. At most the last probe's handler may
        // still be registered beside the live connections'.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut registered = tcp.handler_threads();
        while registered > live.len() + 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            drop(TcpStream::connect(tcp.addr()).unwrap());
            std::thread::sleep(Duration::from_millis(20));
            registered = tcp.handler_threads();
        }
        assert!(
            (live.len()..=live.len() + 1).contains(&registered),
            "{registered} handler threads registered for {} live connections",
            live.len()
        );
        drop(live);
        tcp.shutdown();
        assert_eq!(tcp.handler_threads(), 0, "shutdown joins every handler");
        server.shutdown();
    }
}
