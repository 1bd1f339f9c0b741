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
//! * `--check PATH` — re-measure, then gate against a committed baseline:
//!   fail (exit 1) on any client-observed error, fewer than 100
//!   concurrent clients, p99 latency regressed beyond 6x the baseline, or
//!   throughput below baseline/6 (machine-relative, like the perf gate);
//! * `--deadline-ms N` — attach an N-millisecond deadline to every
//!   request. Requests the server sheds or sweeps (`deadline-exceeded`)
//!   count in the `overloaded` bucket, not as errors — useful for
//!   exploring admission control, but not meaningful under `--check`
//!   unless the baseline was captured with the same deadline.

use dnnperf_bench::json_number;
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

struct Flags {
    smoke: bool,
    out: Option<String>,
    check: Option<String>,
    deadline_ms: Option<u64>,
}

fn parse_flags() -> Flags {
    let mut flags = Flags {
        smoke: false,
        out: None,
        check: None,
        deadline_ms: None,
    };
    let parse_deadline = |v: Option<String>| -> Option<u64> {
        let v = v.unwrap_or_default();
        match v.parse() {
            Ok(ms) => Some(ms),
            Err(_) => {
                eprintln!("loadgen: --deadline-ms needs a millisecond count, got {v:?}");
                std::process::exit(2);
            }
        }
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => flags.smoke = true,
            "--out" => flags.out = args.next(),
            "--check" => flags.check = args.next(),
            "--deadline-ms" => flags.deadline_ms = parse_deadline(args.next()),
            other => {
                if let Some(v) = other.strip_prefix("--out=") {
                    flags.out = Some(v.to_string());
                } else if let Some(v) = other.strip_prefix("--check=") {
                    flags.check = Some(v.to_string());
                } else if let Some(v) = other.strip_prefix("--deadline-ms=") {
                    flags.deadline_ms = parse_deadline(Some(v.to_string()));
                } else {
                    eprintln!("loadgen: unknown flag {other}");
                    std::process::exit(2);
                }
            }
        }
    }
    flags
}

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
    profile: &'static str,
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

impl Report {
    fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"dnnperf-bench-6\",\n");
        out.push_str(&format!("  \"profile\": \"{}\",\n", self.profile));
        out.push_str(&format!("  \"cores\": {},\n", self.cores));
        out.push_str(&format!("  \"clients\": {},\n", self.clients));
        out.push_str(&format!(
            "  \"requests_per_client\": {},\n",
            self.requests_per_client
        ));
        out.push_str(&format!("  \"zoo_size\": {},\n", self.zoo_size));
        out.push_str(&format!("  \"ok\": {},\n", self.ok));
        out.push_str(&format!("  \"overloaded\": {},\n", self.overloaded));
        out.push_str(&format!("  \"errors\": {},\n", self.errors));
        out.push_str(&format!("  \"p50_us\": {:.1},\n", self.p50_us));
        out.push_str(&format!("  \"p99_us\": {:.1},\n", self.p99_us));
        out.push_str(&format!(
            "  \"throughput_rps\": {:.1},\n",
            self.throughput_rps
        ));
        out.push_str(&format!("  \"cache_hits\": {},\n", self.cache_hits));
        out.push_str(&format!("  \"cache_misses\": {},\n", self.cache_misses));
        out.push_str(&format!(
            "  \"cache_evictions\": {},\n",
            self.cache_evictions
        ));
        out.push_str(&format!("  \"cache_entries\": {},\n", self.cache_entries));
        out.push_str(&format!("  \"cache_bytes\": {}\n", self.cache_bytes));
        out.push_str("}\n");
        out
    }
}

fn lcg_next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn run(smoke: bool, deadline_ms: Option<u64>) -> Report {
    let (clients, requests_per_client) = if smoke { (128, 20) } else { (256, 100) };

    let gpu = GpuSpec::by_name("A100").expect("A100 spec");
    let nets = train_nets();
    let ds = collect(&nets, std::slice::from_ref(&gpu), &[8, 32]);
    let suite = Arc::new(Workflow::train(&ds, "A100").expect("train"));

    let catalog = zoo::cnn_zoo();
    let zoo_size = catalog.len();
    let names: Vec<String> = catalog.iter().map(|n| n.name().to_string()).collect();

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
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
                            deadline_ms,
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
                            // Admission-control outcomes are load signals,
                            // not failures: shed (full queue) and
                            // deadline-shed (--deadline-ms) land together.
                            Ok(Response::Overloaded | Response::DeadlineExceeded) => {
                                res.overloaded += 1;
                            }
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
        profile: if smoke { "smoke" } else { "full" },
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
    let flags = parse_flags();
    dnnperf_bench::banner("LOADGEN", "multi-tenant TCP serving under concurrent load");

    let report = run(flags.smoke, flags.deadline_ms);
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

    if let Some(path) = &flags.out {
        std::fs::write(path, report.to_json()).expect("write report");
        println!("wrote {path}");
    }

    if let Some(path) = &flags.check {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("loadgen --check: cannot read {path}: {e}"));
        let base_p99 = json_number(&baseline, "p99_us")
            .unwrap_or_else(|| panic!("loadgen --check: no p99_us in {path}"));
        let base_rps = json_number(&baseline, "throughput_rps")
            .unwrap_or_else(|| panic!("loadgen --check: no throughput_rps in {path}"));
        let mut failed = false;
        if report.errors > 0 {
            eprintln!("GATE FAIL: {} client-observed errors", report.errors);
            failed = true;
        }
        if report.clients < MIN_CLIENTS {
            eprintln!(
                "GATE FAIL: only {} concurrent clients (floor {MIN_CLIENTS})",
                report.clients
            );
            failed = true;
        }
        let p99_limit = base_p99 * MAX_P99_REGRESSION;
        if report.p99_us > p99_limit {
            eprintln!(
                "GATE FAIL: p99 {:.0} us exceeds {:.0} (baseline {:.0} x {MAX_P99_REGRESSION})",
                report.p99_us, p99_limit, base_p99
            );
            failed = true;
        }
        let rps_floor = base_rps * MIN_THROUGHPUT_FRACTION;
        if report.throughput_rps < rps_floor {
            eprintln!(
                "GATE FAIL: throughput {:.0} req/s below {:.0} (baseline {:.0} / 6)",
                report.throughput_rps, rps_floor, base_rps
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "gate OK: p99 {:.0} us (limit {:.0}), {:.0} req/s (floor {:.0}), 0 errors",
            report.p99_us, p99_limit, report.throughput_rps, rps_floor
        );
    }
}
