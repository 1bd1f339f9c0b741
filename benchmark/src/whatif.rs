//! `whatif`: design-space sweeps. Each pass first prices every network of
//! the zoo at five batch sizes on all seven Table 1 GPUs through a
//! [`PredictionOracle`] whose plans were just invalidated (so every
//! compiled-plan answer is a cold compile, and the two GPUs without a
//! trained suite go through the IGKW model), then simulates a
//! four-pool fleet twice with [`simulate_fleet`].

use crate::gen::Rng;
use crate::report::Report;
use crate::stats::{median, median_of_percentiles};
use crate::trace::{explained_share, Tracer};
use crate::{
    cores, median_setup, now, overhead_pct, secs, set_all, set_collect, write_spans, zoo, Opts,
};
use dnnperf_core::{IgkwModel, OracleSource, PredictionOracle, TrainOptions, Workflow};
use dnnperf_data::collect::{collect_report_opts, evaluation_gpus, TRAIN_BATCH};
use dnnperf_data::{CollectOptions, CollectReport};
use dnnperf_dnn::Network;
use dnnperf_gpu::GpuSpec;
use dnnperf_simkit::{
    simulate_fleet, ArrivalProcess, FleetConfig, FleetReport, LeastLoaded, PoolSpec, RequestClass,
    SizeCap, WorkloadSpec,
};
use std::sync::Arc;

const SWEEP_BATCHES: [usize; 5] = [1, 4, 16, 64, 256];
const FLEET_CLASSES: usize = 24;
const FLEET_MAX_BATCH: usize = 8;
/// Offered load as a share of the fleet's unbatched capacity.
const TARGET_LOAD: f64 = 0.8;

/// Everything priced before the first sweep: the trained suites of the
/// five evaluation GPUs and the IGKW model behind one oracle.
struct Setup {
    zoo: Vec<Network>,
    suites: Vec<Arc<Workflow>>,
    oracle: PredictionOracle,
    collect: CollectReport,
    collect_rows: usize,
    collect_s: f64,
}

fn setup(smoke: bool, tr: &mut Tracer) -> Setup {
    tr.span("setup", 0, |tr| {
        let zoo = zoo(smoke);
        let gpus = evaluation_gpus();
        let t = now();
        let (ds, collect) = tr.span("collect", 0, |_| {
            collect_report_opts(
                &zoo,
                &gpus,
                &[TRAIN_BATCH],
                &CollectOptions::with_threads(cores()),
            )
        });
        let collect_s = secs(t);
        let mut oracle = PredictionOracle::new();
        let suites: Vec<Arc<Workflow>> = gpus
            .iter()
            .map(|g| {
                tr.span("train", 0, |_| {
                    let opts = TrainOptions::with_threads(cores());
                    Arc::new(Workflow::train_opts(&ds, &g.name, &opts).expect("train a suite"))
                })
            })
            .collect();
        for s in &suites {
            oracle.add_suite(Arc::clone(s));
        }
        let igkw = tr.span("igkw.train", 0, |_| {
            IgkwModel::train(&ds, &gpus).expect("train IGKW")
        });
        oracle.set_igkw(igkw);
        Setup {
            zoo,
            suites,
            oracle,
            collect,
            collect_rows: ds.kernels.len(),
            collect_s,
        }
    })
}

/// The seeded inputs: the order the design space is swept in and the
/// fleet's request mix, pools and offered load.
struct Inputs {
    /// `(gpu, network, batch)` indices, in sweep order.
    sweep: Vec<(usize, usize, usize)>,
    gpus: Vec<GpuSpec>,
    workload: WorkloadSpec,
    fleet: FleetConfig,
}

fn inputs(st: &Setup, opts: &Opts) -> Inputs {
    let gpus = GpuSpec::all();
    let mut sweep = Vec::with_capacity(gpus.len() * st.zoo.len() * SWEEP_BATCHES.len());
    for g in 0..gpus.len() {
        for n in 0..st.zoo.len() {
            for b in 0..SWEEP_BATCHES.len() {
                sweep.push((g, n, b));
            }
        }
    }
    Rng::new(opts.seed, 10).shuffle(&mut sweep);

    let mut rng = Rng::new(opts.seed, 11);
    let classes: Vec<RequestClass> = (0..FLEET_CLASSES)
        .map(|_| RequestClass {
            tenant: "whatif".into(),
            network: rng.below(st.zoo.len()),
            batch: [1, 2, 4, 8][rng.below(4)],
            weight: 0.5 + rng.next_f64(),
        })
        .collect();
    let pool = |name: &str, gpu: &str, gpus: usize| PoolSpec {
        name: name.into(),
        gpu: GpuSpec::by_name(gpu).expect("a Table 1 GPU"),
        gpus,
        queue_cap: Some(64),
    };
    // Two pools with trained suites, two priced only by IGKW.
    let pools = vec![
        pool("a100", "A100", 4),
        pool("v100", "V100", 4),
        pool("a5000", "RTX A5000", 4),
        pool("p620", "Quadro P620", 8),
    ];
    // Offer TARGET_LOAD of what the pools could serve one request at a
    // time, from the mix's mean service time on each pool.
    let total_weight: f64 = classes.iter().map(|c| c.weight).sum();
    let capacity: f64 = pools
        .iter()
        .map(|p| {
            let mean_s: f64 = classes
                .iter()
                .map(|c| {
                    let priced = st.oracle.predict(&p.gpu, &st.zoo[c.network], c.batch);
                    c.weight * priced.map_or(0.0, |o| o.seconds)
                })
                .sum::<f64>()
                / total_weight;
            p.gpus as f64 / mean_s.max(1e-9)
        })
        .sum();
    let rate_rps = TARGET_LOAD * capacity;
    let offered = if opts.smoke { 5_000.0 } else { 500_000.0 };
    Inputs {
        sweep,
        gpus,
        workload: WorkloadSpec {
            classes,
            arrivals: ArrivalProcess::Poisson { rate_rps },
            seed: opts.seed,
            horizon_seconds: offered / rate_rps,
        },
        fleet: FleetConfig {
            pools,
            slo_seconds: 0.05,
            queue_samples: 8,
        },
    }
}

struct PassOut {
    seconds: f64,
    sweep_s: f64,
    /// Per-prediction latency (µs) of compiled-plan and IGKW answers.
    plan_us: Vec<f64>,
    igkw_us: Vec<f64>,
    checksum: u64,
    resident: usize,
    first_sim_s: f64,
    second_sim_s: f64,
    report: Option<FleetReport>,
}

fn pass(st: &Setup, inp: &Inputs, id: u64, tr: &mut Tracer, report: &mut Report) -> PassOut {
    let t = now();
    let mut out = tr.span("pass", id, |tr| {
        let t = now();
        let (plan_us, igkw_us, checksum, resident) = tr.span("sweep", id, |tr| {
            tr.span("invalidate_plans", id, |_| {
                for s in &st.suites {
                    s.invalidate_plans();
                }
            });
            let (mut plan_us, mut igkw_us) = (Vec::new(), Vec::new());
            let mut checksum = 0u64;
            for &(g, n, b) in &inp.sweep {
                let t = now();
                let priced = tr.span("oracle.predict", id, |_| {
                    st.oracle
                        .predict(&inp.gpus[g], &st.zoo[n], SWEEP_BATCHES[b])
                });
                let us = secs(t) * 1e6;
                match priced {
                    Ok(p) => {
                        let i = ((g * st.zoo.len() + n) * SWEEP_BATCHES.len() + b) as u64;
                        checksum =
                            checksum.wrapping_add(p.seconds.to_bits().wrapping_mul(2 * i + 1));
                        match p.source {
                            OracleSource::CompiledPlan => plan_us.push(us),
                            OracleSource::Igkw => igkw_us.push(us),
                        }
                    }
                    Err(e) => report.fail(1, format!("oracle prediction failed: {e}")),
                }
            }
            let resident: usize = st.suites.iter().map(|s| s.cached_plans()).sum();
            (plan_us, igkw_us, checksum, resident)
        });
        let sweep_s = secs(t);
        let (first_sim_s, second_sim_s, fleet_report) = tr.span("fleet", id, |tr| {
            let mut simulate = || {
                let t = now();
                let r = tr.span("simulate_fleet", id, |_| {
                    simulate_fleet(
                        &st.zoo,
                        &inp.workload,
                        &inp.fleet,
                        &mut LeastLoaded,
                        &SizeCap {
                            max_batch: FLEET_MAX_BATCH,
                        },
                        &st.oracle,
                    )
                });
                (r, secs(t))
            };
            let (first, first_s) = simulate();
            let (second, second_s) = simulate();
            report.attempt(2);
            let fleet_report = match (first, second) {
                (Ok(a), Ok(b)) => {
                    if a.to_json() != b.to_json() {
                        report.fail(1, "the two fleet reports differ");
                    }
                    if !(a.conservation_ok() && b.conservation_ok()) {
                        report.fail(1, "a fleet report lost or invented requests");
                    }
                    Some(b)
                }
                _ => {
                    report.fail(2, "fleet simulation failed");
                    None
                }
            };
            (first_s, second_s, fleet_report)
        });
        PassOut {
            seconds: 0.0,
            sweep_s,
            plan_us,
            igkw_us,
            checksum,
            resident,
            first_sim_s,
            second_sim_s,
            report: fleet_report,
        }
    });
    out.seconds = secs(t);
    out
}

struct Passes {
    passes: Vec<PassOut>,
}

impl Passes {
    fn seconds(&self) -> Vec<f64> {
        self.passes.iter().map(|p| p.seconds).collect()
    }

    /// Median across passes of each pass's `p`-th percentile of the
    /// compiled-plan and IGKW prediction latencies together.
    fn latency_us(&self, p: f64) -> f64 {
        let per_pass: Vec<Vec<f64>> = self
            .passes
            .iter()
            .map(|o| [o.plan_us.as_slice(), &o.igkw_us].concat())
            .collect();
        median_of_percentiles(&per_pass, p)
    }
}

fn run_passes(
    st: &Setup,
    inp: &Inputs,
    budget: f64,
    min_passes: usize,
    tr: &mut Tracer,
    report: &mut Report,
) -> Passes {
    let start = now();
    let mut passes: Vec<PassOut> = Vec::new();
    let igkw_gpus = inp
        .gpus
        .iter()
        .filter(|g| st.oracle.suite_for(&g.name).is_none())
        .count();
    let igkw_expected = igkw_gpus * st.zoo.len() * SWEEP_BATCHES.len();
    loop {
        let out = pass(st, inp, passes.len() as u64, tr, report);
        report.attempt(inp.sweep.len() as u64);
        if out.igkw_us.len() != igkw_expected {
            report.fail(
                1,
                "IGKW priced a different number of requests than expected",
            );
        }
        if passes
            .first()
            .is_some_and(|first| first.checksum != out.checksum)
        {
            report.fail(1, "the prediction checksum changed between passes");
        }
        passes.push(out);
        if passes.len() >= min_passes && secs(start) >= budget {
            return Passes { passes };
        }
    }
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::new(opts.trace);
    let (st, setup_s) = median_setup(|| setup(opts.smoke, &mut tr));
    let inp = inputs(&st, opts);
    let predictions = inp.sweep.len() as f64;
    if !opts.trace {
        let p = run_passes(
            &st,
            &inp,
            opts.seconds,
            2,
            &mut Tracer::new(false),
            &mut report,
        );
        eprintln!(
            "whatif: {} passes of {} predictions and 2 fleet simulations of {} requests",
            p.passes.len(),
            inp.sweep.len(),
            p.passes[0].report.as_ref().map_or(0, |r| r.offered)
        );
        set_all(
            &mut report,
            &[
                ("setup_s", setup_s),
                ("p50_us", p.latency_us(50.0)),
                ("p90_us", p.latency_us(90.0)),
                ("throughput_per_s", predictions / median(&p.seconds())),
            ],
        );
        return report;
    }

    let untraced = run_passes(
        &st,
        &inp,
        opts.seconds / 2.0,
        1,
        &mut Tracer::new(false),
        &mut report,
    );
    let p = run_passes(&st, &inp, opts.seconds / 2.0, 1, &mut tr, &mut report);
    write_spans(opts, &tr);
    let last = p.passes.last().expect("at least one pass");
    let fleet = |f: fn(&FleetReport) -> f64| last.report.as_ref().map_or(0.0, f);
    let offered = fleet(|r| r.offered as f64);
    let sweep_s = median(&p.passes.iter().map(|o| o.sweep_s).collect::<Vec<_>>());
    let a100 = st
        .oracle
        .suite_for("A100")
        .expect("A100 has a trained suite");
    set_all(
        &mut report,
        &[
            ("oracle.predict_cold_p50_us", median(&last.plan_us)),
            ("oracle.predictions_per_s", predictions / sweep_s),
            ("igkw.predict_p50_us", median(&last.igkw_us)),
            ("plan.resident", last.resident as f64),
            ("fleet.simulate_s", last.second_sim_s),
            ("fleet.pricing_s", last.first_sim_s - last.second_sim_s),
            ("fleet.offered", offered),
            ("fleet.completed", fleet(|r| r.completed as f64)),
            ("fleet.rejected", fleet(|r| r.rejected as f64)),
            (
                "fleet.utilization",
                fleet(|r| {
                    r.pools.iter().map(|p| p.utilization).sum::<f64>() / r.pools.len() as f64
                }),
            ),
            ("fleet.sim_requests_per_s", offered / last.second_sim_s),
            ("kw.models", a100.kw.num_models() as f64),
            ("kw.kernels", a100.kw.num_kernels() as f64),
            (
                "trace.overhead_pct",
                overhead_pct(untraced.latency_us(50.0), p.latency_us(50.0)),
            ),
            (
                "trace.explained_pct",
                explained_share(tr.spans(), "pass") * 100.0,
            ),
        ],
    );
    set_collect(&mut report, st.collect_s, st.collect_rows, &st.collect);
    report
}
