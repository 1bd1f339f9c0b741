//! End-to-end contracts of the prediction server: bit-equality with
//! direct suite calls, staleness-free suite swaps, structured load
//! shedding, and the TCP front door.

use dnnperf_core::Workflow;
use dnnperf_data::collect::collect;
use dnnperf_dnn::{zoo, Network};
use dnnperf_gpu::GpuSpec;
use dnnperf_serve::{
    CacheConfig, Client, PredictionServer, Reply, Request, Response, ServeError, ServerConfig,
    TcpServer,
};
use std::sync::Arc;

fn small_nets() -> Vec<Network> {
    vec![
        zoo::mobilenet::mobilenet_v2(0.25, 1.0),
        zoo::mobilenet::mobilenet_v2(0.5, 1.5),
        zoo::squeezenet::squeezenet(64, 32, 0.125),
        zoo::squeezenet::squeezenet(128, 128, 0.25),
    ]
}

fn train_suite(gpu: &str) -> Arc<Workflow> {
    let gpu_spec = GpuSpec::by_name(gpu).unwrap();
    let ds = collect(&small_nets(), &[gpu_spec], &[1, 8]);
    Arc::new(Workflow::train(&ds, gpu).unwrap())
}

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_depth: 64,
        max_batch: 8,
        cache: CacheConfig {
            shards: 4,
            budget_bytes: 8 << 20,
        },
        panic_plan: None,
    }
}

#[test]
fn served_predictions_are_bit_identical_to_direct_calls() {
    let suite = train_suite("A100");
    let server = PredictionServer::start(&test_config());
    server.register_tenant("team-a", Arc::clone(&suite));
    server.add_networks(small_nets());

    for net in &small_nets() {
        for batch in [1usize, 8, 32] {
            let direct = suite.predict(net, batch).unwrap();
            let served = server.predict("team-a", net.name(), batch).unwrap();
            assert_eq!(
                served.to_bits(),
                direct.to_bits(),
                "{} batch {batch}",
                net.name()
            );

            let direct_g = suite.predict_graceful(net, batch).unwrap();
            let served_g = server
                .predict_graceful("team-a", net.name(), batch)
                .unwrap();
            assert_eq!(served_g.seconds.to_bits(), direct_g.seconds.to_bits());
            assert_eq!(served_g.notes.len(), direct_g.notes.len());
        }
    }

    // The second sweep of the same requests must be all cache hits.
    let before = server.stats();
    for net in &small_nets() {
        let _ = server.predict("team-a", net.name(), 8).unwrap();
    }
    let after = server.stats();
    assert_eq!(after.cache.misses, before.cache.misses, "no new compiles");
    assert!(after.cache.hits > before.cache.hits);
    server.shutdown();
}

#[test]
fn suite_swap_serves_the_new_models_immediately() {
    let old_suite = train_suite("A100");
    let new_suite = train_suite("V100");
    let net = zoo::mobilenet::mobilenet_v2(0.25, 1.0);

    let server = PredictionServer::start(&test_config());
    server.register_tenant("tenant", Arc::clone(&old_suite));
    server.add_networks(small_nets());

    let before = server.predict("tenant", net.name(), 8).unwrap();
    assert_eq!(
        before.to_bits(),
        old_suite.predict(&net, 8).unwrap().to_bits()
    );

    // Retrain: swap the suite. The old generation's plans are purged and
    // the very next request is served by the new models.
    let purged = server.update_suite("tenant", Arc::clone(&new_suite));
    assert!(purged > 0, "old generation should have resident plans");

    let after = server.predict("tenant", net.name(), 8).unwrap();
    assert_eq!(
        after.to_bits(),
        new_suite.predict(&net, 8).unwrap().to_bits()
    );
    assert_ne!(
        after.to_bits(),
        before.to_bits(),
        "suites trained on different GPUs must serve different times"
    );
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_overloaded_and_shutdown_answers_the_rest() {
    let suite = train_suite("A100");
    let server = PredictionServer::start(&ServerConfig {
        workers: 0, // nothing drains the queue: admitted requests park
        queue_depth: 2,
        max_batch: 4,
        cache: CacheConfig::default(),
        panic_plan: None,
    });
    server.register_tenant("t", suite);
    server.add_networks(small_nets());
    let net = small_nets().remove(0);

    let p1 = server.submit("t", net.name(), 1).unwrap();
    let p2 = server.submit("t", net.name(), 2).unwrap();
    assert_eq!(
        server.submit("t", net.name(), 4).unwrap_err(),
        ServeError::Overloaded
    );
    assert_eq!(server.stats().shed, 1);

    // Shutdown answers the parked requests instead of hanging them.
    server.shutdown();
    assert_eq!(p1.wait().unwrap_err(), ServeError::ShuttingDown);
    assert_eq!(p2.wait().unwrap_err(), ServeError::ShuttingDown);
    assert_eq!(
        server.submit("t", net.name(), 1).unwrap_err(),
        ServeError::ShuttingDown
    );
}

#[test]
fn unknown_names_fail_before_admission() {
    let server = PredictionServer::start(&test_config());
    server.register_tenant("t", train_suite("A100"));
    server.add_networks(small_nets());
    let net = small_nets().remove(0);
    assert!(matches!(
        server.predict("ghost", net.name(), 1),
        Err(ServeError::UnknownTenant(_))
    ));
    assert!(matches!(
        server.predict("t", "no-such-net", 1),
        Err(ServeError::UnknownNetwork(_))
    ));
    assert_eq!(server.stats().admitted, 0);
    server.shutdown();
}

#[test]
fn tcp_round_trip_is_bit_exact_for_many_concurrent_clients() {
    let suite = train_suite("A100");
    let server = Arc::new(PredictionServer::start(&test_config()));
    server.register_tenant("team", Arc::clone(&suite));
    server.add_networks(small_nets());
    let tcp = TcpServer::serve(Arc::clone(&server), "127.0.0.1:0").unwrap();
    let addr = tcp.addr();

    let nets = small_nets();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for client_id in 0..8usize {
            let nets = &nets;
            let suite = &suite;
            handles.push(s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..6usize {
                    let net = &nets[(client_id + i) % nets.len()];
                    let batch = [1usize, 8, 32][(client_id + i) % 3];
                    let served = client.predict("team", net.name(), batch).unwrap();
                    let direct = suite.predict(net, batch).unwrap();
                    assert_eq!(served.to_bits(), direct.to_bits());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });

    let mut client = Client::connect(addr).unwrap();

    // Graceful over the wire carries the note count.
    let resp = client
        .call(&Request::Graceful {
            tenant: "team".into(),
            network: nets[0].name().into(),
            batch: 8,
            deadline_ms: None,
        })
        .unwrap();
    let direct = suite.predict_graceful(&nets[0], 8).unwrap();
    match resp {
        Response::Ok {
            seconds,
            degraded_notes,
        } => {
            assert_eq!(seconds.to_bits(), direct.seconds.to_bits());
            assert_eq!(degraded_notes, Some(direct.notes.len()));
        }
        other => panic!("unexpected response {other:?}"),
    }

    // Bad requests come back as structured errors, not dropped sockets.
    let resp = client
        .call(&Request::Predict {
            tenant: "team".into(),
            network: "no-such-net".into(),
            batch: 1,
            deadline_ms: None,
        })
        .unwrap();
    assert!(matches!(resp, Response::Error(_)));

    // Stats round-trip and count the traffic we generated.
    match client.call(&Request::Stats).unwrap() {
        Response::Stats(pairs) => {
            let completed = pairs
                .iter()
                .find(|(k, _)| k == "completed")
                .map(|(_, v)| *v)
                .unwrap();
            assert!(completed >= 48, "8 clients x 6 requests, got {completed}");
        }
        other => panic!("unexpected response {other:?}"),
    }

    // Clean, idempotent shutdown.
    tcp.shutdown();
    tcp.shutdown();
    server.shutdown();
}

/// Waits out a request that must take the worker path and returns its
/// answer, asserting it was not answered inline.
fn via_worker<T>(server: &PredictionServer, call: impl FnOnce() -> T) -> T {
    let inline = server.stats().inline;
    let out = call();
    assert_eq!(server.stats().inline, inline, "a cold key must miss inline");
    out
}

/// Serves a request that must be answered inline and returns its answer.
fn via_inline<T>(server: &PredictionServer, call: impl FnOnce() -> T) -> T {
    let before = server.stats();
    let out = call();
    let after = server.stats();
    assert_eq!(
        after.inline,
        before.inline + 1,
        "a warm key must hit inline"
    );
    assert_eq!(after.completed, before.completed + 1);
    out
}

#[test]
fn inline_answers_are_bit_identical_to_worker_answers_and_direct_calls() {
    let suite = train_suite("A100");
    let server = PredictionServer::start(&test_config());
    server.register_tenant("t", Arc::clone(&suite));
    server.add_networks(small_nets());

    for net in &small_nets() {
        for batch in [1usize, 8, 32] {
            let direct = suite.predict(net, batch).unwrap();
            let direct_g = suite.predict_graceful(net, batch).unwrap();
            // The first request of a key compiles on a worker; every later
            // one is answered inline from the resident plan.
            let cold = via_worker(&server, || server.predict("t", net.name(), batch)).unwrap();
            let warm = via_inline(&server, || server.predict("t", net.name(), batch)).unwrap();
            let warm_dl = via_inline(&server, || {
                server.predict_deadline("t", net.name(), batch, 60_000)
            })
            .unwrap();
            for got in [cold, warm, warm_dl] {
                assert_eq!(got.to_bits(), direct.to_bits(), "{} b{batch}", net.name());
            }
            let warm_g =
                via_inline(&server, || server.predict_graceful("t", net.name(), batch)).unwrap();
            assert_eq!(warm_g.seconds.to_bits(), direct_g.seconds.to_bits());
            assert_eq!(warm_g.notes, direct_g.notes);
        }
    }

    // A cold graceful request with a deadline (worker path) agrees with
    // its inline replay, notes included.
    let net = small_nets().remove(0);
    let submit = || {
        server
            .submit_graceful_deadline("t", net.name(), 64, 60_000)
            .unwrap()
            .wait()
            .unwrap()
    };
    let compiles = server.stats().cache.compiles;
    let cold = via_worker(&server, submit);
    let warm = via_inline(&server, submit);
    assert_eq!(cold, warm);
    assert_eq!(
        warm,
        Reply::Graceful(suite.predict_graceful(&net, 64).unwrap())
    );
    // A Strict request for the same key reads the same entry: the key
    // compiled once for both modes.
    let strict = via_inline(&server, || server.predict("t", net.name(), 64)).unwrap();
    assert_eq!(strict.to_bits(), suite.predict(&net, 64).unwrap().to_bits());
    assert_eq!(server.stats().cache.compiles, compiles + 1);
    server.shutdown();
}

#[test]
fn prewarmed_requests_are_all_answered_inline_and_counted() {
    let suite = train_suite("A100");
    let server = Arc::new(PredictionServer::start(&test_config()));
    server.register_tenant("t", Arc::clone(&suite));
    server.add_networks(small_nets());
    for net in &small_nets() {
        server.cache().get_or_compile(&suite, net, 8).unwrap();
    }

    let before = server.stats();
    let mut n = 0u64;
    for net in &small_nets() {
        server.predict("t", net.name(), 8).unwrap();
        server.predict_graceful("t", net.name(), 8).unwrap();
        n += 2;
    }
    let after = server.stats();
    assert_eq!(after.inline - before.inline, n);
    assert_eq!(
        after.completed - before.completed,
        n,
        "no worker completions for resident plans"
    );

    // A cold key takes the worker path.
    let net = small_nets().remove(0);
    server.predict("t", net.name(), 3).unwrap();
    let cold = server.stats();
    assert_eq!(cold.inline, after.inline);
    assert_eq!(
        cold.completed - cold.inline,
        after.completed - after.inline + 1
    );

    // The wire `stats` response exports the provenance counter.
    let tcp = TcpServer::serve(Arc::clone(&server), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(tcp.addr()).unwrap();
    client.predict("t", net.name(), 3).unwrap();
    match client.call(&Request::Stats).unwrap() {
        Response::Stats(pairs) => {
            let inline = pairs.iter().find(|(k, _)| k == "inline").map(|(_, v)| *v);
            assert_eq!(inline, Some(cold.inline + 1));
        }
        other => panic!("unexpected response {other:?}"),
    }
    tcp.shutdown();
    server.shutdown();
}
