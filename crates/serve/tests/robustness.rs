//! Chaos contracts of the serving layer: every submitted request gets
//! exactly one terminal answer — under deadlines, worker panics,
//! mid-flight shutdown, and injected transport faults.

use dnnperf_core::Workflow;
use dnnperf_data::collect::collect;
use dnnperf_dnn::{zoo, Network};
use dnnperf_gpu::GpuSpec;
use dnnperf_sched::{Clock, RecordingClock, RetryPolicy};
use dnnperf_serve::{
    read_frame, write_frame, CacheConfig, Client, FaultyTransport, PanicPlan, PredictionServer,
    Request, Response, ServeError, ServerConfig, TcpConfig, TcpServer, TransportFaultKinds,
    TransportFaultPlan, WireError,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn small_nets() -> Vec<Network> {
    vec![
        zoo::mobilenet::mobilenet_v2(0.25, 1.0),
        zoo::squeezenet::squeezenet(64, 32, 0.125),
    ]
}

fn train_suite() -> Arc<Workflow> {
    let gpu_spec = GpuSpec::by_name("A100").unwrap();
    let ds = collect(&small_nets(), &[gpu_spec], &[1, 8]);
    Arc::new(Workflow::train(&ds, "A100").unwrap())
}

fn config(workers: usize, queue_depth: usize) -> ServerConfig {
    ServerConfig {
        workers,
        queue_depth,
        max_batch: 4,
        cache: CacheConfig {
            shards: 4,
            budget_bytes: 8 << 20,
        },
        panic_plan: None,
    }
}

#[test]
fn zero_deadline_is_shed_at_submission() {
    let server = PredictionServer::start(&config(2, 16));
    server.register_tenant("t", train_suite());
    server.add_networks(small_nets());
    let net = small_nets().remove(0);

    assert_eq!(
        server.submit_deadline("t", net.name(), 1, 0).unwrap_err(),
        ServeError::DeadlineExceeded
    );
    let s = server.stats();
    assert_eq!(s.shed_deadline, 1);
    assert_eq!(s.admitted, 0, "shed requests consume no admission slot");

    // A generous deadline still serves normally.
    let ok = server.predict_deadline("t", net.name(), 1, 60_000).unwrap();
    assert!(ok.is_finite() && ok > 0.0);
    server.shutdown();
}

#[test]
fn expired_queue_entries_are_swept_before_shedding_fresh_work() {
    // Zero workers: admitted requests park in the queue, so expiry is
    // fully controlled by the fake clock.
    let clock = Arc::new(RecordingClock::new());
    let server = PredictionServer::start_with_clock(&config(0, 2), Arc::clone(&clock) as _);
    server.register_tenant("t", train_suite());
    server.add_networks(small_nets());
    let net = small_nets().remove(0);

    let p1 = server.submit_deadline("t", net.name(), 1, 50).unwrap();
    let p2 = server.submit_deadline("t", net.name(), 8, 50).unwrap();
    // Queue full; everything in it is still live, so fresh work sheds.
    assert_eq!(
        server.submit("t", net.name(), 1).unwrap_err(),
        ServeError::Overloaded
    );

    // Let both deadlines lapse. The next submission finds the queue
    // full, sweeps the corpses (answering their waiters), and lands.
    clock.advance(Duration::from_millis(100));
    let p3 = server.submit("t", net.name(), 1).unwrap();

    assert_eq!(p1.wait().unwrap_err(), ServeError::DeadlineExceeded);
    assert_eq!(p2.wait().unwrap_err(), ServeError::DeadlineExceeded);
    let s = server.stats();
    assert_eq!(s.expired, 2);
    assert_eq!(s.admitted, 3);
    assert_eq!(s.shed, 1);

    server.shutdown();
    assert_eq!(p3.wait().unwrap_err(), ServeError::ShuttingDown);
}

/// Fake time for the queue-wait shed: a [`RecordingClock`] that advances
/// by `step` on every read, so each pool service measures exactly one
/// step, plus a gate that parks worker threads inside `now()` while it
/// is closed, so the test can pile up a backlog that nothing drains.
struct SteppedGateClock {
    fake: RecordingClock,
    step: Duration,
    test_thread: std::thread::ThreadId,
    /// `(closed, workers parked)`.
    gate: Mutex<(bool, usize)>,
    changed: Condvar,
}

impl SteppedGateClock {
    fn new(step: Duration) -> Self {
        SteppedGateClock {
            fake: RecordingClock::new(),
            step,
            test_thread: std::thread::current().id(),
            gate: Mutex::new((false, 0)),
            changed: Condvar::new(),
        }
    }

    fn close(&self) {
        self.gate.lock().unwrap().0 = true;
    }

    /// Returns once `workers` threads are parked at the closed gate.
    fn wait_parked(&self, workers: usize) {
        let mut g = self.gate.lock().unwrap();
        while g.1 < workers {
            g = self.changed.wait(g).unwrap();
        }
    }

    fn open(&self) {
        self.gate.lock().unwrap().0 = false;
        self.changed.notify_all();
    }
}

impl Clock for SteppedGateClock {
    fn sleep(&self, d: Duration) {
        self.fake.sleep(d);
    }

    fn now(&self) -> Duration {
        if std::thread::current().id() != self.test_thread {
            let mut g = self.gate.lock().unwrap();
            if g.0 {
                g.1 += 1;
                self.changed.notify_all();
                while g.0 {
                    g = self.changed.wait(g).unwrap();
                }
                g.1 -= 1;
            }
        }
        self.fake.advance(self.step);
        self.fake.now()
    }
}

#[test]
fn queue_wait_shed_spares_resident_hits_and_sheds_misses() {
    let clock = Arc::new(SteppedGateClock::new(Duration::from_millis(10)));
    let server = PredictionServer::start_with_clock(&config(1, 16), Arc::clone(&clock) as _);
    server.register_tenant("t", train_suite());
    server.add_networks(small_nets());
    let net = small_nets().remove(0);

    // One pool service warms (net, 1) and sets the service-time EWMA to
    // exactly one clock step.
    let warm = server.predict("t", net.name(), 1).unwrap();

    // Park the only worker on a cold request, then queue three more
    // behind it: the estimated wait is now 3 x 10 ms = 30 ms.
    clock.close();
    let parked = server.submit("t", net.name(), 2).unwrap();
    clock.wait_parked(1);
    let backlog: Vec<_> = [3, 4, 5]
        .iter()
        .map(|&b| server.submit("t", net.name(), b).unwrap())
        .collect();

    // A 5 ms budget is below the estimated wait, but a resident plan is
    // answered inline and never waits in the queue; the same budget on a
    // cold key would queue behind the backlog, so it is shed. The gate
    // opens before any assertion so a failure cannot hang shutdown.
    let hit = server.submit_deadline("t", net.name(), 1, 5);
    let cold = server.submit_deadline("t", net.name(), 6, 5);
    let s = server.stats();
    clock.open();

    assert_eq!(
        hit.unwrap().wait().unwrap().seconds().to_bits(),
        warm.to_bits()
    );
    assert_eq!(cold.unwrap_err(), ServeError::DeadlineExceeded);
    assert_eq!(s.shed_deadline, 1);
    assert_eq!(s.inline, 1);
    assert!(parked.wait().is_ok());
    for p in backlog {
        assert!(p.wait().is_ok());
    }
    server.shutdown();
}

#[test]
fn panicking_workers_answer_waiters_and_respawn() {
    // Half the admission sequence numbers fire an injected panic; the
    // plan is pure, so the test can predict each request's fate.
    let plan = PanicPlan::new(0xC4A05, 0.5);
    let mut cfg = config(2, 32);
    cfg.panic_plan = Some(plan.clone());
    let server = PredictionServer::start(&cfg);
    server.register_tenant("t", train_suite());
    server.add_networks(small_nets());
    let nets = small_nets();

    let total = 40u64;
    let mut fired = 0u64;
    for seq in 0..total {
        let net = &nets[(seq as usize) % nets.len()];
        let out = server.predict("t", net.name(), 1 + (seq as usize % 8));
        if plan.fires(seq) {
            fired += 1;
            assert!(
                matches!(out, Err(ServeError::Internal(_))),
                "seq {seq} should have been answered Internal, got {out:?}"
            );
        } else {
            assert!(out.is_ok(), "seq {seq} should succeed, got {out:?}");
        }
    }
    assert!(fired > 0, "seed must fire at least once for this test");

    let s = server.stats();
    assert_eq!(s.panicked, fired);
    assert_eq!(s.respawns, fired, "every panic respawned a worker");
    assert_eq!(s.completed, total - fired);
    // The pool never shrinks: initial workers + one handle per respawn.
    assert_eq!(server.worker_handles() as u64, 2 + fired);

    // And the pool is still alive after the storm: drive requests until
    // one draws a non-firing seq (rate 0.5 ⇒ a run of 16 firing seqs is
    // astronomically unlikely, and the plan is deterministic anyway).
    let net = &nets[0];
    let alive = (0..16).any(|_| server.predict("t", net.name(), 2).is_ok());
    assert!(alive, "pool must keep serving after panics");

    server.shutdown();
    assert_eq!(server.worker_handles(), 0, "shutdown joins every worker");
}

#[test]
fn shutdown_under_load_answers_every_request() {
    let server = Arc::new(PredictionServer::start(&config(2, 8)));
    server.register_tenant("t", train_suite());
    server.add_networks(small_nets());
    let nets = small_nets();

    let submitted = Arc::new(AtomicU64::new(0));
    let answered = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for tid in 0..6u64 {
            let server = Arc::clone(&server);
            let nets = &nets;
            let submitted = Arc::clone(&submitted);
            let answered = Arc::clone(&answered);
            handles.push(s.spawn(move || {
                for i in 0..30u64 {
                    let net = &nets[((tid + i) as usize) % nets.len()];
                    let deadline = match i % 3 {
                        0 => None,
                        1 => Some(60_000),
                        _ => Some(0),
                    };
                    let pending = match deadline {
                        None => server.submit("t", net.name(), 1 + (i as usize % 4)),
                        Some(ms) => {
                            server.submit_deadline("t", net.name(), 1 + (i as usize % 4), ms)
                        }
                    };
                    match pending {
                        Ok(p) => {
                            submitted.fetch_add(1, Ordering::Relaxed);
                            // Every admitted request must resolve to a
                            // terminal answer — Ok or a typed error —
                            // even with shutdown racing us.
                            match p.wait() {
                                Ok(_)
                                | Err(ServeError::DeadlineExceeded)
                                | Err(ServeError::Overloaded)
                                | Err(ServeError::Internal(_))
                                | Err(ServeError::ShuttingDown) => {
                                    answered.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(other) => panic!("non-terminal answer {other:?}"),
                            }
                        }
                        // Pre-admission outcomes are terminal by
                        // construction.
                        Err(ServeError::Overloaded)
                        | Err(ServeError::DeadlineExceeded)
                        | Err(ServeError::ShuttingDown) => {}
                        Err(other) => panic!("unexpected submit error {other:?}"),
                    }
                }
            }));
        }
        // Pull the rug mid-burst.
        std::thread::sleep(Duration::from_millis(30));
        server.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    });

    assert_eq!(
        submitted.load(Ordering::Relaxed),
        answered.load(Ordering::Relaxed),
        "every admitted request must be answered exactly once"
    );
    assert_eq!(server.worker_handles(), 0, "no worker thread leaks");
    let s = server.stats();
    assert!(
        s.completed + s.expired + s.panicked <= s.admitted,
        "counters must conserve: {s:?}"
    );
}

#[test]
fn recoverable_transport_faults_never_lose_a_request() {
    let server = Arc::new(PredictionServer::start(&config(2, 32)));
    server.register_tenant("t", train_suite());
    server.add_networks(small_nets());
    let tcp = TcpServer::serve_with(
        Arc::clone(&server),
        "127.0.0.1:0",
        TcpConfig {
            idle_timeout: Duration::from_secs(10),
            frame_timeout: Duration::from_secs(2),
            poll: Duration::from_millis(20),
        },
    )
    .unwrap();
    let net = small_nets().remove(0);

    // Torn frames + stalls at rate 1.0: every frame is faulted, every
    // request must still succeed (the protocol reassembles).
    let plan = TransportFaultPlan::recoverable_only(7, 1.0);
    let stream = TcpStream::connect(tcp.addr()).unwrap();
    let mut faulty = FaultyTransport::new(stream, plan, 1);
    for batch in [1usize, 2, 4] {
        let req = Request::Predict {
            tenant: "t".into(),
            network: net.name().into(),
            batch,
            deadline_ms: None,
        };
        write_frame(&mut faulty, &req.format()).unwrap();
        let line = read_frame(&mut faulty).unwrap().unwrap();
        let resp = Response::parse(&line).unwrap();
        assert!(
            matches!(resp, Response::Ok { .. }),
            "faulted transport must still serve: {resp:?}"
        );
    }
    assert!(faulty.stats().total() >= 3, "faults must actually fire");
    drop(faulty);
    tcp.shutdown();
    server.shutdown();
}

#[test]
fn destructive_transport_faults_fail_loudly_and_leave_the_server_healthy() {
    let server = Arc::new(PredictionServer::start(&config(2, 32)));
    server.register_tenant("t", train_suite());
    server.add_networks(small_nets());
    let tcp = TcpServer::serve(Arc::clone(&server), "127.0.0.1:0").unwrap();
    let net = small_nets().remove(0);

    // Disconnect-only at rate 1.0: the very first frame dies after its
    // length prefix. The client sees a hard error; the server must shrug
    // off the torn frame.
    let mut plan = TransportFaultPlan::chaos(3, 1.0);
    plan.kinds = TransportFaultKinds {
        torn: false,
        corrupt: false,
        stall: false,
        disconnect: true,
    };
    let stream = TcpStream::connect(tcp.addr()).unwrap();
    let mut faulty = FaultyTransport::new(stream, plan, 9);
    // Batch 8 on purpose: XOR-ing 0x04 into any byte of this payload —
    // including the batch digit ('8' -> '<') — yields a request the
    // server must reject, so the corruption leg below is deterministic.
    let req = Request::Predict {
        tenant: "t".into(),
        network: net.name().into(),
        batch: 8,
        deadline_ms: None,
    };
    assert!(write_frame(&mut faulty, &req.format()).is_err());
    assert!(faulty.is_dead());
    drop(faulty);

    // Corruption: the frame arrives complete but garbled; the server
    // answers with a structured response on the same connection instead
    // of wedging or crashing.
    let mut plan = TransportFaultPlan::chaos(5, 1.0);
    plan.kinds = TransportFaultKinds {
        torn: false,
        corrupt: true,
        stall: false,
        disconnect: false,
    };
    let stream = TcpStream::connect(tcp.addr()).unwrap();
    let mut faulty = FaultyTransport::new(stream, plan, 10);
    write_frame(&mut faulty, &req.format()).unwrap();
    assert_eq!(faulty.stats().corrupted, 1);
    let line = read_frame(&mut faulty).unwrap().unwrap();
    // One flipped byte either breaks parsing or dodges every name —
    // both must come back as a structured, non-Ok reply.
    let resp = Response::parse(&line).unwrap();
    assert!(
        !matches!(resp, Response::Ok { .. }),
        "a corrupted request must not be priced: {resp:?}"
    );
    drop(faulty);

    // After all that abuse a clean client is served normally.
    let mut client = Client::connect(tcp.addr()).unwrap();
    assert!(client.predict("t", net.name(), 1).is_ok());
    tcp.shutdown();
    server.shutdown();
}

#[test]
fn slowloris_and_idle_connections_are_dropped() {
    let server = Arc::new(PredictionServer::start(&config(1, 8)));
    server.register_tenant("t", train_suite());
    server.add_networks(small_nets());
    let tcp = TcpServer::serve_with(
        Arc::clone(&server),
        "127.0.0.1:0",
        TcpConfig {
            idle_timeout: Duration::from_millis(200),
            frame_timeout: Duration::from_millis(200),
            poll: Duration::from_millis(20),
        },
    )
    .unwrap();

    // Slowloris: start a frame, never finish it. The server must hang
    // up within the frame budget instead of pinning the handler thread.
    let mut half_open = TcpStream::connect(tcp.addr()).unwrap();
    half_open.write_all(&[0u8, 0u8]).unwrap(); // 2 of 4 prefix bytes
    half_open.flush().unwrap();
    half_open
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 8];
    let n = half_open.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "server should close the slowloris connection");

    // Idle: connect and say nothing; the idle deadline hangs up.
    let mut idle = TcpStream::connect(tcp.addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let n = idle.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "server should close the idle connection");

    // Honest clients on the same server are unaffected.
    let net = small_nets().remove(0);
    let mut client = Client::connect(tcp.addr()).unwrap();
    assert!(client.predict("t", net.name(), 1).is_ok());
    tcp.shutdown();
    server.shutdown();
}

#[test]
fn client_retries_reconnect_and_give_up_typed() {
    // A flaky front end: accepts at most `total` connections, drops the
    // first `drops` right after accept, and speaks one protocol round on
    // the first surviving one. Bounding `total` keeps the thread
    // joinable in every scenario.
    fn flaky_listener(
        drops: usize,
        total: usize,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for i in 0..total {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                if i < drops {
                    drop(stream); // immediate disconnect
                    continue;
                }
                if let Ok(Some(_line)) = read_frame(&mut stream) {
                    let _ = write_frame(&mut stream, &Response::Overloaded.format());
                }
                return;
            }
        });
        (addr, handle)
    }

    // With a retry budget the client reconnects through the failures:
    // the initial connection plus one per failed attempt are dropped,
    // the third attempt's connection is served.
    let (addr, handle) = flaky_listener(2, 3);
    let mut client = Client::connect_with(addr, RetryPolicy::fast(4, 11)).unwrap();
    let resp = client.call(&Request::Stats).unwrap();
    assert!(matches!(resp, Response::Overloaded));
    handle.join().unwrap();

    // With the budget exhausted the failure is typed, not a raw IO
    // error: 3 attempts (fast(2)) consume exactly 3 connections.
    let (addr, handle) = flaky_listener(usize::MAX, 3);
    let mut client = Client::connect_with(addr, RetryPolicy::fast(2, 13)).unwrap();
    let err = client.call(&Request::Stats).unwrap_err();
    match err {
        WireError::Exhausted { attempts, .. } => assert_eq!(attempts, 3),
        other => panic!("expected Exhausted, got {other:?}"),
    }
    drop(client);
    handle.join().unwrap();
}

/// Compiles every (network, batch) the tests below request straight into
/// the server's cache, so those keys are resident without drawing any
/// admission sequence number.
fn prewarm(server: &PredictionServer, suite: &Workflow, batches: &[usize]) {
    for net in &small_nets() {
        for &b in batches {
            server.cache().get_or_compile(suite, net, b).unwrap();
        }
    }
}

#[test]
fn panic_plan_targets_warm_keys_through_the_pool() {
    let plan = PanicPlan::new(0x1A11E, 0.3);
    let mut cfg = config(2, 32);
    cfg.panic_plan = Some(plan.clone());
    let server = PredictionServer::start(&cfg);
    let suite = train_suite();
    server.register_tenant("t", Arc::clone(&suite));
    server.add_networks(small_nets());
    prewarm(&server, &suite, &[1, 2]);
    let nets = small_nets();

    let total = 60u64;
    let mut fired = 0u64;
    for seq in 0..total {
        let net = &nets[(seq as usize) % nets.len()];
        let out = server.predict("t", net.name(), 1 + (seq as usize % 2));
        if plan.fires(seq) {
            fired += 1;
            assert!(
                matches!(out, Err(ServeError::Internal(_))),
                "warm seq {seq} is targeted and must crash a worker, got {out:?}"
            );
        } else {
            assert!(out.is_ok(), "seq {seq} should succeed, got {out:?}");
        }
    }
    assert!(fired > 0, "seed must fire at least once for this test");

    let s = server.stats();
    assert_eq!(s.admitted, total);
    assert_eq!(s.panicked, plan.fires_among(s.admitted));
    assert_eq!(s.respawns, s.panicked, "every panic respawned a worker");
    assert_eq!(
        s.inline,
        total - fired,
        "every untargeted warm key ran inline"
    );
    assert_eq!(s.completed, total - fired);
    server.shutdown();
}

#[test]
fn warm_keys_are_refused_after_shutdown() {
    let server = PredictionServer::start(&config(2, 16));
    let suite = train_suite();
    server.register_tenant("t", Arc::clone(&suite));
    server.add_networks(small_nets());
    prewarm(&server, &suite, &[1]);
    let net = small_nets().remove(0);
    assert!(server.predict("t", net.name(), 1).is_ok());

    server.shutdown();
    assert_eq!(
        server.predict("t", net.name(), 1).unwrap_err(),
        ServeError::ShuttingDown
    );
    assert_eq!(
        server.predict_graceful("t", net.name(), 1).unwrap_err(),
        ServeError::ShuttingDown
    );
}

#[test]
fn without_workers_warm_keys_are_answered_and_cold_ones_park() {
    let server = PredictionServer::start(&config(0, 4));
    let suite = train_suite();
    server.register_tenant("t", Arc::clone(&suite));
    server.add_networks(small_nets());
    prewarm(&server, &suite, &[1]);
    let net = small_nets().remove(0);

    let warm = server.predict("t", net.name(), 1).unwrap();
    assert_eq!(warm.to_bits(), suite.predict(&net, 1).unwrap().to_bits());
    let cold = server.submit("t", net.name(), 8).unwrap();
    let s = server.stats();
    assert_eq!((s.admitted, s.completed, s.inline), (2, 1, 1));

    // Nothing drains the queue: the cold request is answered only when
    // shutdown sweeps it.
    server.shutdown();
    assert_eq!(cold.wait().unwrap_err(), ServeError::ShuttingDown);
}
