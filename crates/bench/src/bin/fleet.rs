//! FLEET: capacity-planning sweep over the fleet what-if engine, with a
//! reproducibility gate.
//!
//! Trains suites for two GPUs plus the inter-GPU fallback, then sweeps
//! offered load × (placement, batching) policy combinations over a
//! three-pool fleet (A100, V100, and a never-profiled TITAN RTX priced
//! by IGKW). Every sweep point is simulated **twice** and the two
//! reports must be byte-identical and conservation-clean — the bench
//! aborts otherwise, `--check` or not.
//!
//! Because the simulator consumes no wall clock and no ambient
//! randomness, the sweep figures are fully deterministic: the `--check`
//! gate compares request counts *exactly* against the committed
//! BENCH_7.json and the float figures (p99 sojourn, demand, SLO
//! attainment) within a tight relative tolerance that only absorbs
//! libm-level drift.
//!
//! Flags:
//!
//! * `--smoke` — same sweep (the sim is already cheap; training
//!   dominates), kept for CI symmetry with the other gates;
//! * `--out PATH` — write the figures as one JSON document (BENCH_7.json);
//! * `--check PATH` — re-run and gate against a committed baseline.

use dnnperf_bench::json_number;
use dnnperf_core::{IgkwModel, PredictionOracle, Workflow};
use dnnperf_data::collect::collect;
use dnnperf_dnn::{zoo, Network};
use dnnperf_gpu::GpuSpec;
use dnnperf_simkit::{
    simulate_fleet, ArrivalProcess, BatchingPolicy, FleetConfig, FleetReport, LeastLoaded,
    NetworkAffinity, NoBatching, PlacementPolicy, PoolSpec, RequestClass, RoundRobin, SizeCap,
    TimeWindow, WorkloadSpec,
};
use std::sync::Arc;
use std::time::Instant;

/// Relative tolerance for float figures vs the baseline: deterministic
/// modulo libm differences, so this is tight.
const FLOAT_RTOL: f64 = 1e-6;

const RATES: [f64; 3] = [250.0, 500.0, 1000.0];
const SEED: u64 = 1701;
const HORIZON: f64 = 0.4;

struct Flags {
    smoke: bool,
    out: Option<String>,
    check: Option<String>,
}

fn parse_flags() -> Flags {
    let mut flags = Flags {
        smoke: false,
        out: None,
        check: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => flags.smoke = true,
            "--out" => flags.out = args.next(),
            "--check" => flags.check = args.next(),
            other => {
                if let Some(v) = other.strip_prefix("--out=") {
                    flags.out = Some(v.to_string());
                } else if let Some(v) = other.strip_prefix("--check=") {
                    flags.check = Some(v.to_string());
                } else {
                    eprintln!("fleet: unknown flag {other}");
                    std::process::exit(2);
                }
            }
        }
    }
    flags
}

fn catalog() -> Vec<Network> {
    vec![
        zoo::mobilenet::mobilenet_v2(0.25, 1.0),
        zoo::mobilenet::mobilenet_v2(0.5, 1.5),
        zoo::squeezenet::squeezenet(64, 32, 0.125),
    ]
}

fn classes() -> Vec<RequestClass> {
    vec![
        RequestClass {
            tenant: "imaging".into(),
            network: 0,
            batch: 1,
            weight: 3.0,
        },
        RequestClass {
            tenant: "imaging".into(),
            network: 1,
            batch: 8,
            weight: 1.0,
        },
        RequestClass {
            tenant: "edge".into(),
            network: 2,
            batch: 1,
            weight: 2.0,
        },
    ]
}

fn build_oracle(nets: &[Network]) -> PredictionOracle {
    let train = |gpu: &str| {
        let spec = GpuSpec::by_name(gpu).expect("gpu spec");
        let ds = collect(nets, std::slice::from_ref(&spec), &[1, 8]);
        Arc::new(Workflow::train(&ds, gpu).expect("train suite"))
    };
    let igkw_gpus = [
        GpuSpec::by_name("A100").expect("A100"),
        GpuSpec::by_name("A40").expect("A40"),
        GpuSpec::by_name("GTX 1080 Ti").expect("GTX 1080 Ti"),
    ];
    let igkw_ds = collect(nets, &igkw_gpus, &[1, 8]);
    let igkw = IgkwModel::train(&igkw_ds, &igkw_gpus).expect("train igkw");

    let mut oracle = PredictionOracle::new();
    oracle.add_suite(train("A100"));
    oracle.add_suite(train("V100"));
    oracle.set_igkw(igkw);
    oracle
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        pools: vec![
            PoolSpec {
                name: "a100-pool".into(),
                gpu: GpuSpec::by_name("A100").expect("A100"),
                gpus: 2,
                queue_cap: Some(16),
            },
            PoolSpec {
                name: "v100-pool".into(),
                gpu: GpuSpec::by_name("V100").expect("V100"),
                gpus: 2,
                queue_cap: Some(16),
            },
            // Never profiled: priced entirely by the IGKW fallback.
            PoolSpec {
                name: "titan-pool".into(),
                gpu: GpuSpec::by_name("TITAN RTX").expect("TITAN RTX"),
                gpus: 1,
                queue_cap: Some(16),
            },
        ],
        slo_seconds: 0.02,
        queue_samples: 4,
    }
}

struct Combo {
    tag: &'static str,
    placement: fn() -> Box<dyn PlacementPolicy>,
    batching: fn() -> Box<dyn BatchingPolicy>,
}

fn combos() -> Vec<Combo> {
    vec![
        Combo {
            tag: "rr_none",
            placement: || Box::<RoundRobin>::default(),
            batching: || Box::new(NoBatching),
        },
        Combo {
            tag: "ll_size",
            placement: || Box::new(LeastLoaded),
            batching: || Box::new(SizeCap { max_batch: 4 }),
        },
        Combo {
            tag: "na_window",
            placement: || Box::new(NetworkAffinity),
            batching: || {
                Box::new(TimeWindow {
                    window_seconds: 0.002,
                    max_batch: 4,
                })
            },
        },
    ]
}

struct Point {
    key: String,
    report: FleetReport,
}

fn sweep(oracle: &PredictionOracle) -> (Vec<Point>, f64) {
    let catalog = catalog();
    let cfg = fleet_config();
    let mut points = Vec::new();
    let started = Instant::now();
    for &rate in &RATES {
        for combo in combos() {
            let wl = WorkloadSpec {
                classes: classes(),
                arrivals: ArrivalProcess::Poisson { rate_rps: rate },
                seed: SEED,
                horizon_seconds: HORIZON,
            };
            let run = || {
                simulate_fleet(
                    &catalog,
                    &wl,
                    &cfg,
                    (combo.placement)().as_mut(),
                    (combo.batching)().as_ref(),
                    oracle,
                )
                .expect("fleet point")
            };
            let a = run();
            let b = run();
            // Hard correctness gates, --check or not: the two runs must
            // replay byte-identically and conserve every request.
            if a.to_json() != b.to_json() {
                eprintln!("FATAL: replay diverged at rate {rate} combo {}", combo.tag);
                std::process::exit(1);
            }
            if !a.conservation_ok() {
                eprintln!(
                    "FATAL: conservation violated at rate {rate} combo {}: {a:?}",
                    combo.tag
                );
                std::process::exit(1);
            }
            points.push(Point {
                key: format!("r{}_{}", rate as u64, combo.tag),
                report: a,
            });
        }
    }
    (points, started.elapsed().as_secs_f64() * 1e3)
}

/// Per-point figures the gate compares. Counts are exact; floats within
/// [`FLOAT_RTOL`].
const INT_KEYS: [&str; 5] = ["offered", "admitted", "rejected", "completed", "in_flight"];
const FLOAT_KEYS: [&str; 3] = ["p99_ms", "demand_ms", "slo_att"];

fn point_figures(p: &Point) -> Vec<(String, String)> {
    let r = &p.report;
    vec![
        (format!("{}_offered", p.key), r.offered.to_string()),
        (format!("{}_admitted", p.key), r.admitted.to_string()),
        (format!("{}_rejected", p.key), r.rejected.to_string()),
        (format!("{}_completed", p.key), r.completed.to_string()),
        (
            format!("{}_in_flight", p.key),
            r.in_flight_at_horizon.to_string(),
        ),
        (
            format!("{}_p99_ms", p.key),
            format!("{:.6}", r.p99_sojourn_seconds * 1e3),
        ),
        (
            format!("{}_demand_ms", p.key),
            format!("{:.6}", r.service_demand_seconds * 1e3),
        ),
        (
            format!("{}_slo_att", p.key),
            format!("{:.6}", r.slo_attainment),
        ),
    ]
}

fn to_json(profile: &str, points: &[Point], sweep_ms: f64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"dnnperf-bench-7\",\n");
    out.push_str(&format!("  \"profile\": \"{profile}\",\n"));
    out.push_str(&format!(
        "  \"cores\": {},\n",
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    ));
    out.push_str(&format!("  \"points\": {},\n", points.len()));
    out.push_str(&format!("  \"sweep_wall_ms\": {sweep_ms:.1},\n"));
    let mut figures: Vec<(String, String)> = Vec::new();
    for p in points {
        figures.extend(point_figures(p));
    }
    for (i, (k, v)) in figures.iter().enumerate() {
        let sep = if i + 1 == figures.len() { "" } else { "," };
        out.push_str(&format!("  \"{k}\": {v}{sep}\n"));
    }
    out.push_str("}\n");
    out
}

fn main() {
    let flags = parse_flags();
    dnnperf_bench::banner(
        "FLEET",
        "capacity-planning sweep over cached plan predictions",
    );

    let profile = if flags.smoke { "smoke" } else { "full" };
    let nets = catalog();
    println!("training 2 suites + IGKW over {} networks...", nets.len());
    let oracle = build_oracle(&nets);
    let (points, sweep_ms) = sweep(&oracle);

    println!();
    println!(
        "{} sweep points (2 runs each) in {:.1} ms — every point replayed byte-identically \
         and conserved all requests",
        points.len(),
        sweep_ms
    );
    for p in &points {
        let r = &p.report;
        println!(
            "  {:>14}: offered {:>4}, completed {:>4}, rejected {:>3}, p99 {:>8.3} ms, \
             SLO {:>5.1}%, igkw pool completed {}",
            p.key,
            r.offered,
            r.completed,
            r.rejected,
            r.p99_sojourn_seconds * 1e3,
            r.slo_attainment * 100.0,
            r.pools[2].completed,
        );
    }

    let doc = to_json(profile, &points, sweep_ms);
    if let Some(path) = &flags.out {
        std::fs::write(path, &doc).expect("write report");
        println!("wrote {path}");
    }

    if let Some(path) = &flags.check {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("fleet --check: cannot read {path}: {e}"));
        let mut failed = false;
        for p in &points {
            let r = &p.report;
            let ints: [(&str, f64); 5] = [
                ("offered", r.offered as f64),
                ("admitted", r.admitted as f64),
                ("rejected", r.rejected as f64),
                ("completed", r.completed as f64),
                ("in_flight", r.in_flight_at_horizon as f64),
            ];
            for (suffix, got) in ints {
                let key = format!("{}_{suffix}", p.key);
                let Some(want) = json_number(&baseline, &key) else {
                    eprintln!("GATE FAIL: baseline {path} has no {key}");
                    failed = true;
                    continue;
                };
                if got != want {
                    eprintln!("GATE FAIL: {key} = {got}, baseline {want} (exact match required)");
                    failed = true;
                }
            }
            let floats: [(&str, f64); 3] = [
                ("p99_ms", r.p99_sojourn_seconds * 1e3),
                ("demand_ms", r.service_demand_seconds * 1e3),
                ("slo_att", r.slo_attainment),
            ];
            for (suffix, got) in floats {
                let key = format!("{}_{suffix}", p.key);
                let Some(want) = json_number(&baseline, &key) else {
                    eprintln!("GATE FAIL: baseline {path} has no {key}");
                    failed = true;
                    continue;
                };
                let tol = want.abs() * FLOAT_RTOL + 1e-6;
                if (got - want).abs() > tol {
                    eprintln!("GATE FAIL: {key} = {got}, baseline {want} (tol {tol:e})");
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "gate OK: {} points × ({} exact counts + {} float figures) match {path}",
            points.len(),
            INT_KEYS.len(),
            FLOAT_KEYS.len()
        );
    }
}
