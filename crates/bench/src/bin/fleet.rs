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
//! * `--check PATH` — validate the baseline, re-run and gate against it
//!   row by row (see [`table`]).

use dnnperf_bench::report::{self, Bound, Flags, Row, Table};
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

/// Tolerance for float figures vs the baseline, relative plus absolute:
/// deterministic modulo libm differences, so this is tight.
const FLOAT_TOL: Bound = Bound::Within {
    rel: 1e-6,
    abs: 1e-6,
};

const RATES: [f64; 3] = [250.0, 500.0, 1000.0];
const SEED: u64 = 1701;
const HORIZON: f64 = 0.4;

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

/// The sweep points in report order: every offered rate × policy combo.
fn grid() -> Vec<(f64, Combo)> {
    RATES
        .iter()
        .flat_map(|&rate| combos().into_iter().map(move |combo| (rate, combo)))
        .collect()
}

/// The prefix of a point's keys in the report.
fn point_key(rate: f64, combo: &Combo) -> String {
    format!("r{}_{}", rate as u64, combo.tag)
}

struct Sweep {
    /// One report per [`grid`] point, in grid order.
    points: Vec<FleetReport>,
    wall_ms: f64,
}

fn sweep(oracle: &PredictionOracle) -> Sweep {
    let catalog = catalog();
    let cfg = fleet_config();
    let mut points = Vec::new();
    let started = Instant::now();
    for (rate, combo) in grid() {
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
        points.push(a);
    }
    Sweep {
        points,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// BENCH_7. Per point, request counts must match the baseline exactly and
/// float figures within [`FLOAT_TOL`].
fn table() -> Table<Sweep> {
    type R = Row<Sweep>;
    let mut rows = vec![
        R::int("cores", |_| report::cores() as u64),
        R::int("points", |s| s.points.len() as u64),
        R::fixed("sweep_wall_ms", 1, |s| s.wall_ms),
    ];
    for (i, (rate, combo)) in grid().iter().enumerate() {
        let key = point_key(*rate, combo);
        let count = |suffix: &str, value: fn(&FleetReport) -> u64| {
            R::int(format!("{key}_{suffix}"), move |s| value(&s.points[i])).gate(Bound::Exact)
        };
        let figure = |suffix: &str, value: fn(&FleetReport) -> f64| {
            R::fixed(format!("{key}_{suffix}"), 6, move |s| value(&s.points[i])).gate(FLOAT_TOL)
        };
        rows.extend([
            count("offered", |r| r.offered),
            count("admitted", |r| r.admitted),
            count("rejected", |r| r.rejected),
            count("completed", |r| r.completed),
            count("in_flight", |r| r.in_flight_at_horizon),
            figure("p99_ms", |r| r.p99_sojourn_seconds * 1e3),
            figure("demand_ms", |r| r.service_demand_seconds * 1e3),
            figure("slo_att", |r| r.slo_attainment),
        ]);
    }
    Table::new("dnnperf-bench-7", rows)
}

fn main() {
    let flags = Flags::parse("fleet", &[]);
    let table = table();
    let baseline = table.baseline(&flags);
    dnnperf_bench::banner(
        "FLEET",
        "capacity-planning sweep over cached plan predictions",
    );

    let nets = catalog();
    println!("training 2 suites + IGKW over {} networks...", nets.len());
    let oracle = build_oracle(&nets);
    let sweep = sweep(&oracle);

    println!();
    println!(
        "{} sweep points (2 runs each) in {:.1} ms — every point replayed byte-identically \
         and conserved all requests",
        sweep.points.len(),
        sweep.wall_ms
    );
    for ((rate, combo), r) in grid().iter().zip(&sweep.points) {
        println!(
            "  {:>14}: offered {:>4}, completed {:>4}, rejected {:>3}, p99 {:>8.3} ms, \
             SLO {:>5.1}%, igkw pool completed {}",
            point_key(*rate, combo),
            r.offered,
            r.completed,
            r.rejected,
            r.p99_sojourn_seconds * 1e3,
            r.slo_attainment * 100.0,
            r.pools[2].completed,
        );
    }
    table.publish(&flags, &sweep, &[], baseline);
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_baseline_carries_every_gated_key() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_7.json");
        let doc = std::fs::read_to_string(path).expect("committed baseline");
        super::table()
            .validate("BENCH_7.json", doc)
            .expect("BENCH_7");
    }
}
