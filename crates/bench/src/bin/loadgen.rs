//! LOADGEN: multi-tenant serving load generator with a regression gate.
//!
//! Drives hundreds of concurrent TCP clients against a
//! [`dnnperf_serve::PredictionServer`] fronted by
//! [`dnnperf_serve::TcpServer`] on an ephemeral port. The request stream
//! is deterministic (per-client LCG) over the full 646-network CNN zoo
//! at batches {1, 8, 32}, so a run exercises cold compiles, warm hits
//! and LRU eviction in the sharded plan cache while measuring what the
//! serving story actually promises: tail latency and throughput.
//!
//! Flags:
//!
//! * `--smoke` — fewer clients/requests for CI;
//! * `--out PATH` — write the results as one JSON document (BENCH_6.json);
//! * `--check PATH` — validate the baseline, re-measure, then gate against
//!   it row by row (see [`table`]): fail (exit 1) on any client-observed
//!   error, fewer than 100 concurrent clients, p99 latency above 6x the
//!   baseline, or throughput below baseline/6 (machine-relative, like the
//!   perf gate).

use dnnperf_bench::report::{self, Bound, Flags, Row, Table};
use dnnperf_core::Workflow;
use dnnperf_data::collect::collect;
use dnnperf_dnn::zoo;
use dnnperf_gpu::GpuSpec;
use dnnperf_linreg::percentile;
use dnnperf_serve::{
    CacheConfig, Client, PredictionServer, Request, Response, ServerConfig, TcpServer,
};
use std::sync::Arc;
use std::time::Instant;

/// Maximum tolerated p99 latency regression vs the baseline.
const MAX_P99_REGRESSION: f64 = 6.0;
/// Minimum tolerated throughput as a fraction of the baseline.
const MIN_THROUGHPUT_FRACTION: f64 = 1.0 / 6.0;
/// The acceptance floor on concurrency.
const MIN_CLIENTS: usize = 100;

const TENANT: &str = "zoo";
const BATCHES: [usize; 3] = [1, 8, 32];

fn train_nets() -> Vec<dnnperf_dnn::Network> {
    vec![
        zoo::resnet::resnet18(),
        zoo::resnet::resnet34(),
        zoo::resnet::resnet50(),
        zoo::vgg::vgg11(),
        zoo::vgg::vgg16(),
        zoo::densenet::densenet121(),
        zoo::mobilenet::mobilenet_v2(1.0, 1.0),
        zoo::squeezenet::squeezenet(128, 128, 0.125),
    ]
}

/// Per-client outcome counters and latencies.
#[derive(Default)]
struct ClientResult {
    latencies_us: Vec<f64>,
    ok: u64,
    overloaded: u64,
    errors: u64,
}

struct Report {
    cores: usize,
    clients: usize,
    requests_per_client: usize,
    zoo_size: usize,
    ok: u64,
    overloaded: u64,
    errors: u64,
    p50_us: f64,
    p99_us: f64,
    throughput_rps: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    cache_entries: usize,
    cache_bytes: usize,
}

/// BENCH_6. `clients` and `requests_per_client` differ between the smoke
/// and full profiles, so they are floored or left ungated, never pinned.
fn table() -> Table<Report> {
    type R = Row<Report>;
    Table::new(
        "dnnperf-bench-6",
        vec![
            R::int("cores", |r| r.cores as u64),
            R::int("clients", |r| r.clients as u64).gate(Bound::Floor(MIN_CLIENTS as f64)),
            R::int("requests_per_client", |r| r.requests_per_client as u64),
            R::int("zoo_size", |r| r.zoo_size as u64),
            R::int("ok", |r| r.ok),
            R::int("overloaded", |r| r.overloaded),
            R::int("errors", |r| r.errors).gate(Bound::Ceiling(0.0)),
            R::fixed("p50_us", 1, |r| r.p50_us),
            R::fixed("p99_us", 1, |r| r.p99_us).gate(Bound::AtMostTimes(MAX_P99_REGRESSION)),
            R::fixed("throughput_rps", 1, |r| r.throughput_rps)
                .gate(Bound::AtLeastTimes(MIN_THROUGHPUT_FRACTION)),
            R::int("cache_hits", |r| r.cache_hits),
            R::int("cache_misses", |r| r.cache_misses),
            R::int("cache_evictions", |r| r.cache_evictions),
            R::int("cache_entries", |r| r.cache_entries as u64),
            R::int("cache_bytes", |r| r.cache_bytes as u64),
        ],
    )
}

fn lcg_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn run(smoke: bool) -> Report {
    let (clients, requests_per_client) = if smoke { (128, 20) } else { (256, 100) };

    let gpu = GpuSpec::by_name("A100").expect("A100 spec");
    let nets = train_nets();
    let ds = collect(&nets, std::slice::from_ref(&gpu), &[8, 32]);
    let suite = Arc::new(Workflow::train(&ds, "A100").expect("train"));

    let catalog = zoo::cnn_zoo();
    let zoo_size = catalog.len();
    let names: Vec<String> = catalog.iter().map(|n| n.name().to_string()).collect();

    let cores = report::cores();
    let server = Arc::new(PredictionServer::start(&ServerConfig {
        workers: cores.max(2),
        queue_depth: 1024,
        max_batch: 16,
        cache: CacheConfig {
            shards: 16,
            budget_bytes: 128 << 20,
        },
        panic_plan: None,
    }));
    server.register_tenant(TENANT, Arc::clone(&suite));
    server.add_networks(catalog);
    let tcp = TcpServer::serve(Arc::clone(&server), "127.0.0.1:0").expect("bind ephemeral port");
    let addr = tcp.addr();

    let started = Instant::now();
    let results: Vec<ClientResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let names = &names;
                s.spawn(move || {
                    let mut res = ClientResult::default();
                    let Ok(mut client) = Client::connect(addr) else {
                        res.errors += requests_per_client as u64;
                        return res;
                    };
                    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (id as u64) << 17;
                    for _ in 0..requests_per_client {
                        let net = &names[(lcg_next(&mut rng) as usize) % names.len()];
                        let batch = BATCHES[(lcg_next(&mut rng) as usize) % BATCHES.len()];
                        let req = Request::Predict {
                            tenant: TENANT.to_string(),
                            network: net.clone(),
                            batch,
                            deadline_ms: None,
                        };
                        let t0 = Instant::now();
                        match client.call(&req) {
                            Ok(Response::Ok { seconds, .. }) => {
                                res.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
                                if seconds.is_finite() && seconds >= 0.0 {
                                    res.ok += 1;
                                } else {
                                    res.errors += 1;
                                }
                            }
                            // Shedding at a full queue is a load signal,
                            // not a failure.
                            Ok(Response::Overloaded) => res.overloaded += 1,
                            Ok(_) | Err(_) => res.errors += 1,
                        }
                    }
                    res
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    tcp.shutdown();
    let stats = server.stats();
    server.shutdown();

    // No pre-sort: `percentile` is a quickselect and returns the same
    // order statistics on unsorted input.
    let latencies: Vec<f64> = results
        .iter()
        .flat_map(|r| r.latencies_us.clone())
        .collect();
    let ok: u64 = results.iter().map(|r| r.ok).sum();
    let overloaded: u64 = results.iter().map(|r| r.overloaded).sum();
    let errors: u64 = results.iter().map(|r| r.errors).sum();

    Report {
        cores,
        clients,
        requests_per_client,
        zoo_size,
        ok,
        overloaded,
        errors,
        p50_us: percentile(&latencies, 50.0),
        p99_us: percentile(&latencies, 99.0),
        throughput_rps: ok as f64 / elapsed.max(1e-9),
        cache_hits: stats.cache.hits,
        cache_misses: stats.cache.misses,
        cache_evictions: stats.cache.evictions,
        cache_entries: stats.cache.entries,
        cache_bytes: stats.cache.bytes,
    }
}

fn main() {
    let flags = Flags::parse("loadgen", &[]);
    let table = table();
    let baseline = table.baseline(&flags);
    dnnperf_bench::banner("LOADGEN", "multi-tenant TCP serving under concurrent load");

    let report = run(flags.smoke);
    println!();
    println!(
        "{} clients x {} requests over the {}-network zoo: {} ok, {} overloaded, {} errors",
        report.clients,
        report.requests_per_client,
        report.zoo_size,
        report.ok,
        report.overloaded,
        report.errors
    );
    println!(
        "latency p50 {:.0} us, p99 {:.0} us; throughput {:.0} req/s; \
         cache {} hits / {} misses / {} evictions ({} bytes resident)",
        report.p50_us,
        report.p99_us,
        report.throughput_rps,
        report.cache_hits,
        report.cache_misses,
        report.cache_evictions,
        report.cache_bytes
    );
    table.publish(&flags, &report, &[], baseline);
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_baseline_carries_every_gated_key() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_6.json");
        let doc = std::fs::read_to_string(path).expect("committed baseline");
        super::table()
            .validate("BENCH_6.json", doc)
            .expect("BENCH_6");
    }
}
