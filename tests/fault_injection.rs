//! Fault-injection conformance suite for the resilient collection engine.
//!
//! The contract under test: with bounded retries (the default budget
//! matches the fault plan's `max_faulty_attempts`), every *recoverable*
//! fault universe — transient errors, stragglers, corrupted measurements —
//! produces a dataset **byte-identical** to the fault-free run, at any
//! thread count. Panics are isolated to their grid point; corruption that
//! survives an exhausted retry budget is quarantined at ingest, never
//! trained on.

use dnnperf::data::collect::{collect, collect_report_opts, evaluation_gpus};
use dnnperf::data::{csv, dataset_is_wholesome, quarantine_scale_outliers, CollectOptions};
use dnnperf::dnn::{zoo, Network};
use dnnperf::gpu::{FaultKinds, FaultPlan, GpuSpec};
use dnnperf_testkit::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Small, cheap-to-profile networks so the property runs stay fast.
fn net_pool() -> Vec<Network> {
    vec![
        zoo::mobilenet::mobilenet_v2(0.25, 1.0),
        zoo::mobilenet::mobilenet_v2(0.5, 1.5),
        zoo::squeezenet::squeezenet(64, 32, 0.125),
        zoo::squeezenet::squeezenet(128, 128, 0.25),
    ]
}

fn pick<T: Clone>(pool: &[T], indices: &[usize]) -> Vec<T> {
    let mut seen = vec![false; pool.len()];
    let mut out = Vec::new();
    for &i in indices {
        let i = i % pool.len();
        if !seen[i] {
            seen[i] = true;
            out.push(pool[i].clone());
        }
    }
    out
}

fn scratch_dir(tag: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dnnperf_fault_{tag}_{}_{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A recoverable-chaos plan: transients, stragglers AND corrupted
/// measurements, but no panics — everything a bounded retry budget can
/// repair. The straggler delay is shrunk so test wall time stays low (the
/// engine's re-dispatch threshold scales with it).
fn recoverable_chaos(seed: u64, rate: f64) -> FaultPlan {
    FaultPlan {
        kinds: FaultKinds {
            transient: true,
            straggler: true,
            corrupt: true,
            panic: false,
        },
        straggler_delay: Duration::from_millis(2),
        ..FaultPlan::chaos(seed, rate)
    }
}

props! {
    /// The tentpole property: a fault-injected run with retries enabled is
    /// byte-identical to the fault-free run — same rows, same order, same
    /// bits — whatever the seed, rate, fault mix and worker count.
    #[test]
    fn faulty_collection_matches_fault_free(
        net_idx in vec(0usize..4, 1..=3),
        gpu_idx in vec(0usize..5, 1..=2),
        batches in vec(select(vec![1usize, 2, 4]), 1..=2),
        threads in 1usize..9,
        seed in 0u64..1_000_000,
        rate in select(vec![0.15f64, 0.4, 0.8]),
        chaos in select(vec![false, true]),
    ) {
        let nets = pick(&net_pool(), &net_idx);
        let gpus = pick(&evaluation_gpus(), &gpu_idx);
        let reference = collect(&nets, &gpus, &batches);

        let plan = if chaos {
            recoverable_chaos(seed, rate)
        } else {
            FaultPlan::transient_only(seed, rate)
        };
        let opts = CollectOptions::with_threads(threads).faulty(plan);
        let (ds, report) = collect_report_opts(&nets, &gpus, &batches, &opts);

        prop_assert_eq!(&ds, &reference);
        // Every recovery must be accounted: a recovered point implies
        // retries, and nothing may be quarantined or lost outright.
        prop_assert!(report.recovered <= report.retried);
        prop_assert_eq!(report.dropped, 0);
        prop_assert_eq!(report.panicked, 0);
        prop_assert_eq!(report.quarantined, 0);
        prop_assert_eq!(report.ok as usize, nets.len() * gpus.len() * batches.len());
    }
}

/// The byte-for-byte half of the contract, checked at the CSV layer: the
/// exported files of a fault-injected run are identical to the fault-free
/// export, byte for byte.
#[test]
fn faulty_csv_export_is_byte_identical() {
    let nets = net_pool();
    let gpus = [GpuSpec::by_name("A100").unwrap()];
    let batches = [2usize, 8];

    let reference = collect(&nets, &gpus, &batches);
    let opts = CollectOptions::with_threads(4).faulty(recoverable_chaos(0xD00F, 0.6));
    let (faulty, report) = collect_report_opts(&nets, &gpus, &batches, &opts);
    assert_eq!(faulty, reference);
    assert!(
        report.retried > 0,
        "rate 0.6 must actually inject something: {report:?}"
    );

    let (ref_dir, faulty_dir) = (scratch_dir("csv_ref"), scratch_dir("csv_faulty"));
    csv::write_dataset(&reference, &ref_dir).unwrap();
    csv::write_dataset(&faulty, &faulty_dir).unwrap();
    for file in ["networks.csv", "layers.csv", "kernels.csv"] {
        let a = std::fs::read(ref_dir.join(file)).unwrap();
        let b = std::fs::read(faulty_dir.join(file)).unwrap();
        assert_eq!(a, b, "{file} differs between fault-free and faulty runs");
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&faulty_dir);
}

/// Panic isolation: with a panic-only fault plan, a panicking grid point
/// loses exactly that point — the rest of the campaign completes, and the
/// report says who died. The expected casualties are computed from the
/// plan itself (decisions are a pure function of the grid cell).
#[test]
fn panics_lose_only_their_grid_point() {
    let nets = net_pool();
    let gpus = [
        GpuSpec::by_name("A100").unwrap(),
        GpuSpec::by_name("V100").unwrap(),
    ];
    let batches = [4usize];
    let plan = FaultPlan {
        kinds: FaultKinds {
            transient: false,
            straggler: false,
            corrupt: false,
            panic: true,
        },
        ..FaultPlan::chaos(0xBAD, 0.5)
    };

    // Predict the casualty list: panic-only plans kill a point iff the
    // plan fires on either replicate of its first attempt (fault-stream
    // indices 0 and 1; panics are not retried).
    let mut doomed = Vec::new();
    for gpu in &gpus {
        for net in &nets {
            for &batch in &batches {
                if plan.decide(&gpu.name, net.name(), batch, 0).is_some()
                    || plan.decide(&gpu.name, net.name(), batch, 1).is_some()
                {
                    doomed.push((gpu.name.clone(), net.name().to_string(), batch as u32));
                }
            }
        }
    }
    assert!(
        !doomed.is_empty() && doomed.len() < nets.len() * gpus.len(),
        "seed must kill some but not all points, got {}/{}",
        doomed.len(),
        nets.len() * gpus.len()
    );

    for threads in [1usize, 4] {
        let opts = CollectOptions::with_threads(threads).faulty(plan.clone());
        let (ds, report) = collect_report_opts(&nets, &gpus, &batches, &opts);
        assert_eq!(report.panicked as usize, doomed.len());
        assert_eq!(report.dropped as usize, doomed.len());
        assert_eq!(report.ok as usize, nets.len() * gpus.len() - doomed.len());
        // The survivors' rows are intact and the casualties are absent.
        let reference = collect(&nets, &gpus, &batches);
        for row in &ds.networks {
            assert!(reference.networks.contains(row));
        }
        for (gpu, net, batch) in &doomed {
            assert!(
                !ds.networks.iter().any(|r| {
                    &*r.gpu == gpu.as_str() && &*r.network == net.as_str() && r.batch == *batch
                }),
                "doomed point ({gpu}, {net}, {batch}) must be absent"
            );
        }
        assert!(dataset_is_wholesome(&ds));
    }
}

/// With the retry budget forced to zero, corrupted measurements can reach
/// ingest — NaN/Inf/negative ones are rejected at the trace boundary
/// (dropping the point), and finite scale outliers are quarantined by the
/// MAD screen. Either way, nothing poisoned survives into the dataset.
#[test]
fn unretried_corruption_is_quarantined_not_trained_on() {
    let nets: Vec<Network> = (1..7)
        .map(|w| zoo::mobilenet::mobilenet_v2(w as f64 * 0.25, 1.0))
        .collect();
    let gpus = [GpuSpec::by_name("A100").unwrap()];
    let plan = FaultPlan {
        kinds: FaultKinds {
            transient: false,
            straggler: false,
            corrupt: true,
            panic: false,
        },
        ..FaultPlan::chaos(0xC0DE3, 0.9)
    };
    let opts = CollectOptions::with_threads(2).faulty(plan).with_retries(0);
    let (ds, report) = collect_report_opts(&nets, &gpus, &[2], &opts);

    assert!(
        report.corrupt_measurements + report.quarantined > 0,
        "rate 0.9 corruption must leave a mark: {report:?}"
    );
    assert!(
        report.quarantined > 0,
        "expected at least one finite scale outlier to reach the screen: {report:?}"
    );
    // Whatever survived is clean: wholesome, and the screen finds nothing
    // more to remove (idempotence).
    assert!(dataset_is_wholesome(&ds));
    let mut again = ds.clone();
    assert_eq!(quarantine_scale_outliers(&mut again), 0);
    assert_eq!(again, ds);

    // The same universe with the default retry budget recovers everything.
    let opts = CollectOptions::with_threads(2).faulty(FaultPlan {
        kinds: FaultKinds {
            transient: false,
            straggler: false,
            corrupt: true,
            panic: false,
        },
        ..FaultPlan::chaos(0xC0DE3, 0.9)
    });
    let (healed, report) = collect_report_opts(&nets, &gpus, &[2], &opts);
    assert_eq!(healed, collect(&nets, &gpus, &[2]));
    assert_eq!(report.quarantined, 0);
    assert!(report.recovered > 0);
}
