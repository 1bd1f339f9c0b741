//! CHAOS: deterministic fault-injection soak for the serving layer.
//!
//! Drives hundreds of concurrent clients against a
//! [`dnnperf_serve::PredictionServer`] while injecting the failure modes
//! the serving layer promises to survive, in two scenarios:
//!
//! 1. **transport** — every client speaks the framed protocol through a
//!    seeded [`dnnperf_serve::FaultyTransport`] that tears frames into
//!    single-byte writes, stalls, corrupts one payload byte, or
//!    disconnects mid-frame. Clients reconnect and resend on connection
//!    loss; a corrupted frame is answered with a structured error (a
//!    terminal answer, not a hang).
//! 2. **panics** — a seeded [`dnnperf_serve::PanicPlan`] crashes workers
//!    mid-service; the supervisor must answer every victim with a typed
//!    `internal` response and respawn the worker. A fifth of the
//!    requests carry a zero deadline and must be shed at admission.
//!
//! The whole soak is **deterministic**: fault and panic schedules are
//! pure functions of `(seed, stream id, frame)` / `(seed, admission
//! seq)`, client request streams are seeded LCGs, and stream ids derive
//! from `(client id, connection seq)`. Each scenario therefore runs
//! TWICE and the bench aborts unless both runs produce byte-identical
//! counter digests — `--check` or not. It also aborts if any request
//! fails to receive exactly one terminal response (the zero-hung-requests
//! guarantee), or if the server-side counters break conservation.
//!
//! Flags:
//!
//! * `--smoke` — fewer clients/requests for CI;
//! * `--out PATH` — write the counters as one JSON document (BENCH_8.json);
//! * `--check PATH` — validate the baseline, re-run, then gate against it
//!   row by row (see [`table`]): every counter must match exactly; the
//!   prediction checksum must match to 1e-6 relative.

use dnnperf_bench::report::{Bound, Flags, Format, Row, Table};
use dnnperf_core::Workflow;
use dnnperf_data::collect::collect;
use dnnperf_dnn::zoo;
use dnnperf_gpu::GpuSpec;
use dnnperf_serve::{
    read_frame, write_frame, CacheConfig, Client, FaultyTransport, InjectedWorkerPanic, PanicPlan,
    PredictionServer, Request, Response, ServerConfig, TcpConfig, TcpServer, TransportFaultPlan,
    TransportFaultStats,
};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANT: &str = "chaos";
const BATCHES: [usize; 4] = [1, 2, 4, 8];
/// Seed of the transport fault universe.
const FAULT_SEED: u64 = 0xC4A0_55EE;
/// Per-frame transport fault probability.
const FAULT_RATE: f64 = 0.2;
/// Seed of the worker panic universe.
const PANIC_SEED: u64 = 0xD15E_A5E5;
/// Per-request worker panic probability.
const PANIC_RATE: f64 = 0.12;
/// Attempts (including reconnects) before a transport client gives up.
const MAX_ATTEMPTS: usize = 32;
/// Relative tolerance for the checksum gate.
const FLOAT_RTOL: f64 = 1e-6;

fn fail(msg: &str) -> ! {
    eprintln!("FATAL: {msg}");
    std::process::exit(1)
}

fn lcg_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn chaos_nets() -> Vec<dnnperf_dnn::Network> {
    vec![
        zoo::mobilenet::mobilenet_v2(0.25, 1.0),
        zoo::mobilenet::mobilenet_v2(0.5, 1.5),
        zoo::squeezenet::squeezenet(64, 32, 0.125),
        zoo::squeezenet::squeezenet(128, 128, 0.25),
    ]
}

fn train_suite() -> Arc<Workflow> {
    let gpu = GpuSpec::by_name("A100").expect("A100 spec");
    let ds = collect(&chaos_nets(), std::slice::from_ref(&gpu), &[1, 8]);
    Arc::new(Workflow::train(&ds, "A100").expect("train"))
}

/// Suppresses the default panic banner for *injected* worker panics so a
/// soak with hundreds of scheduled crashes doesn't bury real failures.
fn install_quiet_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        if info
            .payload()
            .downcast_ref::<InjectedWorkerPanic>()
            .is_some()
        {
            return;
        }
        eprintln!("panic: {info}");
    }));
}

/// Aborts the soak if it wall-clocks past `budget` — the blunt-force
/// detector for a hung request that the per-scenario accounting missed.
fn spawn_watchdog(done: Arc<AtomicBool>, budget: Duration) {
    std::thread::spawn(move || {
        let started = Instant::now();
        while started.elapsed() < budget {
            std::thread::sleep(Duration::from_millis(500));
            if done.load(Ordering::Acquire) {
                return;
            }
        }
        eprintln!(
            "FATAL: chaos watchdog fired after {:.0}s — a request hung",
            budget.as_secs_f64()
        );
        std::process::exit(3);
    });
}

// -- scenario 1: transport faults --------------------------------------------

#[derive(Default)]
struct TransportTally {
    ok: u64,
    rejected: u64,
    gave_up: u64,
    connections: u64,
    faults: TransportFaultStats,
    checksum: f64,
}

/// One client: `requests` sequential predicts through a faulty
/// transport, reconnecting (with a deterministic new stream id) whenever
/// the connection dies. Every request ends in exactly one of: an `ok`
/// response, a structured rejection, or a counted give-up.
fn transport_client(
    addr: SocketAddr,
    plan: &TransportFaultPlan,
    names: &[String],
    client_id: u64,
    requests: usize,
) -> TransportTally {
    let mut tally = TransportTally::default();
    let mut conn_seq = 0u64;
    let mut transport: Option<FaultyTransport<TcpStream>> = None;
    let mut rng = 0x5eed_c4a0_50d0_0d1eu64 ^ client_id.rotate_left(17);
    for _ in 0..requests {
        let net = &names[(lcg_next(&mut rng) as usize) % names.len()];
        let batch = BATCHES[(lcg_next(&mut rng) as usize) % BATCHES.len()];
        let payload = Request::Predict {
            tenant: TENANT.to_string(),
            network: net.clone(),
            batch,
            deadline_ms: None,
        }
        .format();
        let mut answered = false;
        for _ in 0..MAX_ATTEMPTS {
            if transport.is_none() {
                let Ok(stream) = TcpStream::connect(addr) else {
                    continue;
                };
                let _ = stream.set_nodelay(true);
                let sid = client_id * 1000 + conn_seq;
                conn_seq += 1;
                tally.connections += 1;
                transport = Some(FaultyTransport::new(stream, plan.clone(), sid));
            }
            let Some(t) = transport.as_mut() else {
                continue;
            };
            let round = write_frame(t, &payload).and_then(|()| read_frame(t));
            match round {
                Ok(Some(line)) => {
                    match Response::parse(&line) {
                        Ok(Response::Ok { seconds, .. }) => {
                            tally.ok += 1;
                            tally.checksum += seconds;
                        }
                        // A corrupted frame comes back as a structured
                        // rejection: terminal, loud, not a hang.
                        _ => tally.rejected += 1,
                    }
                    answered = true;
                    break;
                }
                // Connection loss (injected disconnect, or the server
                // hanging up after a garbled frame): retire the stream —
                // its fault counters fold into the tally — and resend on
                // a fresh connection. Predictions are idempotent reads.
                Ok(None) | Err(_) => {
                    if let Some(dead) = transport.take() {
                        tally.faults.merge(&dead.stats());
                    }
                }
            }
        }
        if !answered {
            tally.gave_up += 1;
        }
    }
    if let Some(t) = transport.take() {
        tally.faults.merge(&t.stats());
    }
    tally
}

struct TransportOutcome {
    clients: usize,
    requests_per_client: usize,
    ok: u64,
    rejected: u64,
    gave_up: u64,
    connections: u64,
    faults: TransportFaultStats,
    checksum: f64,
    admitted: u64,
    completed: u64,
}

impl TransportOutcome {
    fn digest(&self) -> String {
        format!(
            "transport ok={} rejected={} gave_up={} connections={} torn={} corrupted={} \
             stalled={} disconnected={} admitted={} completed={} checksum={:016x}",
            self.ok,
            self.rejected,
            self.gave_up,
            self.connections,
            self.faults.torn,
            self.faults.corrupted,
            self.faults.stalled,
            self.faults.disconnected,
            self.admitted,
            self.completed,
            self.checksum.to_bits()
        )
    }
}

fn run_transport(suite: &Arc<Workflow>, smoke: bool) -> TransportOutcome {
    let (clients, requests_per_client) = if smoke { (64usize, 10usize) } else { (200, 25) };
    let nets = chaos_nets();
    let names: Vec<String> = nets.iter().map(|n| n.name().to_string()).collect();

    let server = Arc::new(PredictionServer::start(&ServerConfig {
        workers: 4,
        // Deep enough that in-flight requests (<= clients) never shed:
        // admission counts stay schedule-determined, not timing-determined.
        queue_depth: 4096,
        max_batch: 8,
        cache: CacheConfig {
            shards: 8,
            budget_bytes: 64 << 20,
        },
        panic_plan: None,
    }));
    server.register_tenant(TENANT, Arc::clone(suite));
    server.add_networks(nets);
    let tcp = TcpServer::serve_with(
        Arc::clone(&server),
        "127.0.0.1:0",
        TcpConfig {
            idle_timeout: Duration::from_secs(10),
            frame_timeout: Duration::from_secs(1),
            poll: Duration::from_millis(20),
        },
    )
    .expect("bind ephemeral port");
    let addr = tcp.addr();
    let plan = TransportFaultPlan::chaos(FAULT_SEED, FAULT_RATE);

    let tallies: Vec<TransportTally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let names = &names;
                let plan = &plan;
                s.spawn(move || transport_client(addr, plan, names, id as u64, requests_per_client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("transport client thread"))
            .collect()
    });

    tcp.shutdown();
    let stats = server.stats();
    server.shutdown();

    let mut out = TransportOutcome {
        clients,
        requests_per_client,
        ok: 0,
        rejected: 0,
        gave_up: 0,
        connections: 0,
        faults: TransportFaultStats::default(),
        // Sum per-client checksums in client-id order: f64 addition is
        // order-sensitive, and this order is deterministic.
        checksum: 0.0,
        admitted: stats.admitted,
        completed: stats.completed,
    };
    for t in &tallies {
        out.ok += t.ok;
        out.rejected += t.rejected;
        out.gave_up += t.gave_up;
        out.connections += t.connections;
        out.faults.merge(&t.faults);
        out.checksum += t.checksum;
    }

    let total = (clients * requests_per_client) as u64;
    if out.ok + out.rejected + out.gave_up != total {
        fail(&format!(
            "transport scenario lost requests: {} ok + {} rejected + {} gave up != {total}",
            out.ok, out.rejected, out.gave_up
        ));
    }
    if out.admitted != out.completed {
        fail(&format!(
            "transport scenario left work in flight: admitted {} != completed {}",
            out.admitted, out.completed
        ));
    }
    // Note: `admitted` can exceed client-observed `ok` — a corrupted
    // frame may still parse as a *valid* request with a mutated batch
    // (e.g. a digit flipped to 0) that is admitted, completes with a
    // structured prediction error, and lands in `rejected`.
    if out.ok > out.admitted {
        fail(&format!(
            "transport scenario answered ok {} times but admitted only {}",
            out.ok, out.admitted
        ));
    }
    if stats.panicked != 0 || stats.shed != 0 || stats.shed_deadline != 0 || stats.expired != 0 {
        fail("transport scenario tripped counters it must not touch");
    }
    out
}

// -- scenario 2: worker panics + zero deadlines -------------------------------

#[derive(Default)]
struct PanicTally {
    ok: u64,
    internal: u64,
    deadline: u64,
    other: u64,
}

fn panic_client(addr: SocketAddr, names: &[String], client_id: u64, requests: usize) -> PanicTally {
    let mut tally = PanicTally::default();
    let mut client = Client::connect(addr).expect("connect");
    let mut rng = 0x0bad_5eed_0000_c0deu64 ^ client_id.rotate_left(29);
    for r in 0..requests {
        let net = &names[(lcg_next(&mut rng) as usize) % names.len()];
        let batch = BATCHES[(lcg_next(&mut rng) as usize) % BATCHES.len()];
        // Every fifth request demands the impossible: a zero deadline,
        // shed at admission before it can consume a sequence number.
        let deadline_ms = if r % 5 == 4 { Some(0) } else { None };
        let resp = client.call(&Request::Predict {
            tenant: TENANT.to_string(),
            network: net.clone(),
            batch,
            deadline_ms,
        });
        match resp {
            Ok(Response::Ok { .. }) => tally.ok += 1,
            Ok(Response::Internal(_)) => tally.internal += 1,
            Ok(Response::DeadlineExceeded) => tally.deadline += 1,
            _ => tally.other += 1,
        }
    }
    tally
}

struct PanicOutcome {
    clients: usize,
    requests_per_client: usize,
    ok: u64,
    internal: u64,
    deadline: u64,
    admitted: u64,
    completed: u64,
    panicked: u64,
    respawns: u64,
}

impl PanicOutcome {
    fn digest(&self) -> String {
        format!(
            "panics ok={} internal={} deadline={} admitted={} completed={} panicked={} respawns={}",
            self.ok,
            self.internal,
            self.deadline,
            self.admitted,
            self.completed,
            self.panicked,
            self.respawns
        )
    }
}

fn run_panics(suite: &Arc<Workflow>, smoke: bool) -> PanicOutcome {
    let (clients, requests_per_client) = if smoke { (96usize, 10usize) } else { (256, 25) };
    let nets = chaos_nets();
    let names: Vec<String> = nets.iter().map(|n| n.name().to_string()).collect();
    let plan = PanicPlan::new(PANIC_SEED, PANIC_RATE);

    let server = Arc::new(PredictionServer::start(&ServerConfig {
        workers: 4,
        queue_depth: 4096,
        max_batch: 8,
        cache: CacheConfig {
            shards: 8,
            budget_bytes: 64 << 20,
        },
        panic_plan: Some(plan.clone()),
    }));
    server.register_tenant(TENANT, Arc::clone(suite));
    server.add_networks(nets);
    let tcp = TcpServer::serve(Arc::clone(&server), "127.0.0.1:0").expect("bind ephemeral port");
    let addr = tcp.addr();

    let tallies: Vec<PanicTally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let names = &names;
                s.spawn(move || panic_client(addr, names, id as u64, requests_per_client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("panic client thread"))
            .collect()
    });

    tcp.shutdown();
    let stats = server.stats();
    server.shutdown();

    let mut out = PanicOutcome {
        clients,
        requests_per_client,
        ok: 0,
        internal: 0,
        deadline: 0,
        admitted: stats.admitted,
        completed: stats.completed,
        panicked: stats.panicked,
        respawns: stats.respawns,
    };
    let mut other = 0u64;
    for t in &tallies {
        out.ok += t.ok;
        out.internal += t.internal;
        out.deadline += t.deadline;
        other += t.other;
    }

    let total = (clients * requests_per_client) as u64;
    if out.ok + out.internal + out.deadline + other != total {
        fail("panic scenario lost requests: tallies do not sum to the submissions");
    }
    if other != 0 {
        fail(&format!("panic scenario saw {other} unexpected responses"));
    }
    if stats.shed_deadline != out.deadline {
        fail(&format!(
            "deadline accounting drift: server shed {} vs {} deadline-exceeded answers",
            stats.shed_deadline, out.deadline
        ));
    }
    if out.admitted != total - out.deadline {
        fail(&format!(
            "admission drift: admitted {} != {} submitted - {} shed",
            out.admitted, total, out.deadline
        ));
    }
    // The panic schedule is pure over admission seqs: the server's panic
    // counter must equal both the clients' internal answers and the
    // plan's own expectation — and every panic must have respawned.
    if out.panicked != out.internal {
        fail(&format!(
            "supervision drift: {} worker panics vs {} internal answers",
            out.panicked, out.internal
        ));
    }
    if out.panicked != plan.fires_among(out.admitted) {
        fail(&format!(
            "panic schedule drift: {} fired vs {} expected over {} admissions",
            out.panicked,
            plan.fires_among(out.admitted),
            out.admitted
        ));
    }
    if out.respawns != out.panicked {
        fail(&format!(
            "a panic shrank the pool: {} respawns vs {} panics",
            out.respawns, out.panicked
        ));
    }
    if out.completed != out.admitted - out.panicked {
        fail(&format!(
            "completion drift: {} completed vs {} admitted - {} panicked",
            out.completed, out.admitted, out.panicked
        ));
    }
    if stats.expired != 0 || stats.shed != 0 {
        fail("panic scenario tripped counters it must not touch");
    }
    out
}

// -- report + gate ------------------------------------------------------------

struct Report {
    transport: TransportOutcome,
    panics: PanicOutcome,
    elapsed_ms: f64,
}

/// BENCH_8. Every counter is schedule-determined, so it must match the
/// baseline exactly; the checksum gates at [`FLOAT_RTOL`]; `elapsed_ms` is
/// machine speed and never gated.
fn table() -> Table<Report> {
    type R = Row<Report>;
    let exact =
        |key: &'static str, value: fn(&Report) -> u64| R::int(key, value).gate(Bound::Exact);
    Table::new(
        "dnnperf-bench-8",
        vec![
            exact("transport_clients", |r| r.transport.clients as u64),
            exact("transport_requests_per_client", |r| {
                r.transport.requests_per_client as u64
            }),
            exact("transport_ok", |r| r.transport.ok),
            exact("transport_rejected", |r| r.transport.rejected),
            exact("transport_gave_up", |r| r.transport.gave_up),
            exact("transport_connections", |r| r.transport.connections),
            exact("transport_torn", |r| r.transport.faults.torn),
            exact("transport_corrupted", |r| r.transport.faults.corrupted),
            exact("transport_stalled", |r| r.transport.faults.stalled),
            exact("transport_disconnected", |r| {
                r.transport.faults.disconnected
            }),
            exact("transport_admitted", |r| r.transport.admitted),
            exact("transport_completed", |r| r.transport.completed),
            R::new("transport_checksum_s", Format::Exp(12), |r| {
                r.transport.checksum
            })
            .gate(Bound::Within {
                rel: FLOAT_RTOL,
                abs: 0.0,
            }),
            exact("panic_clients", |r| r.panics.clients as u64),
            exact("panic_requests_per_client", |r| {
                r.panics.requests_per_client as u64
            }),
            exact("panic_ok", |r| r.panics.ok),
            exact("panic_internal", |r| r.panics.internal),
            exact("panic_deadline_shed", |r| r.panics.deadline),
            exact("panic_admitted", |r| r.panics.admitted),
            exact("panic_completed", |r| r.panics.completed),
            exact("panic_panicked", |r| r.panics.panicked),
            exact("panic_respawns", |r| r.panics.respawns),
            R::fixed("elapsed_ms", 1, |r| r.elapsed_ms),
        ],
    )
}

fn main() {
    let flags = Flags::parse("chaos", &[]);
    let table = table();
    let baseline = table.baseline(&flags);
    dnnperf_bench::banner(
        "CHAOS",
        "deterministic fault-injection soak for the serving layer",
    );
    install_quiet_panic_hook();
    let done = Arc::new(AtomicBool::new(false));
    spawn_watchdog(
        Arc::clone(&done),
        Duration::from_secs(if flags.smoke { 240 } else { 900 }),
    );

    let suite = train_suite();
    let started = Instant::now();

    // Each scenario runs twice; the digests must replay byte-identically.
    let transport = run_transport(&suite, flags.smoke);
    let replay = run_transport(&suite, flags.smoke);
    if transport.digest() != replay.digest() {
        eprintln!("run 1: {}", transport.digest());
        eprintln!("run 2: {}", replay.digest());
        fail("transport scenario did not replay byte-identically");
    }
    println!("  {}", transport.digest());

    let panics = run_panics(&suite, flags.smoke);
    let replay = run_panics(&suite, flags.smoke);
    if panics.digest() != replay.digest() {
        eprintln!("run 1: {}", panics.digest());
        eprintln!("run 2: {}", replay.digest());
        fail("panic scenario did not replay byte-identically");
    }
    println!("  {}", panics.digest());

    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    done.store(true, Ordering::Release);

    let report = Report {
        transport,
        panics,
        elapsed_ms,
    };
    println!();
    println!(
        "{} transport clients through {} injected faults, {} panic clients through {} worker \
         crashes: every request terminal, both scenarios replayed byte-identically ({:.0} ms)",
        report.transport.clients,
        report.transport.faults.total(),
        report.panics.clients,
        report.panics.panicked,
        report.elapsed_ms
    );

    table.publish(&flags, &report, &[], baseline);
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_baseline_carries_every_gated_key() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_8.json");
        let doc = std::fs::read_to_string(path).expect("committed baseline");
        super::table()
            .validate("BENCH_8.json", doc)
            .expect("BENCH_8");
    }
}
