//! Golden-file test for the dataset CSV format.
//!
//! The CSV files are the repo's interchange format: their byte-level
//! layout must not drift silently.
//! A pinned in-memory dataset — with deliberately awkward floating-point
//! values — is written out and compared byte-for-byte against checked-in
//! golden files, then re-parsed and compared for exact equality.
//!
//! To regenerate the golden files after an *intentional* format change:
//!
//! ```text
//! DNNPERF_UPDATE_GOLDEN=1 cargo test -p dnnperf-data --test golden
//! ```
//!
//! and commit the updated files under `tests/golden/`.

use dnnperf_data::csv::{read_dataset, write_dataset};
use dnnperf_data::{Dataset, KernelRow, LayerRow, NetworkRow};
use std::path::{Path, PathBuf};

/// The pinned dataset. Every f64 here is chosen to stress the shortest
/// round-trip `Display` formatting the writers rely on: values needing 17
/// significant digits, classic binary-unrepresentable decimals, and
/// extreme-but-normal magnitudes.
fn pinned_dataset() -> Dataset {
    Dataset {
        networks: vec![
            NetworkRow {
                network: "GoldenNet-1".into(),
                family: "golden".into(),
                gpu: "A100".into(),
                batch: 512,
                flops: u64::MAX,
                bytes: 1,
                e2e_seconds: 0.1 + 0.2, // 0.30000000000000004
                gpu_seconds: 1.0 / 3.0,
                kernel_count: 3,
            },
            NetworkRow {
                network: "GoldenNet-2".into(),
                family: "golden".into(),
                gpu: "GTX 1080 Ti".into(),
                batch: 1,
                flops: 0,
                bytes: u64::MAX,
                e2e_seconds: 1e-9,
                gpu_seconds: 12345.678901234567,
                kernel_count: 0,
            },
        ],
        layers: vec![LayerRow {
            network: "GoldenNet-1".into(),
            gpu: "A100".into(),
            batch: 512,
            layer_index: 0,
            layer_type: "conv".into(),
            flops: 1 << 40,
            in_elems: 7,
            out_elems: 11,
            seconds: 2.0_f64.powi(-30),
        }],
        kernels: vec![
            KernelRow {
                network: "GoldenNet-1".into(),
                gpu: "A100".into(),
                batch: 512,
                layer_index: 0,
                layer_type: "conv".into(),
                kernel: "implicit_gemm_128x64[tf32]".into(),
                in_elems: 7,
                flops: 1 << 40,
                out_elems: 11,
                seconds: 0.1,
            },
            KernelRow {
                network: "GoldenNet-1".into(),
                gpu: "A100".into(),
                batch: 512,
                layer_index: 0,
                layer_type: "conv".into(),
                kernel: "splitK_reduce".into(),
                in_elems: 7,
                flops: 1 << 40,
                out_elems: 11,
                seconds: 1e-6 / 3.0, // 17 significant digits to round-trip
            },
            KernelRow {
                network: "GoldenNet-2".into(),
                gpu: "GTX 1080 Ti".into(),
                batch: 1,
                layer_index: 3,
                layer_type: "fc".into(),
                kernel: "sgemm_32x32".into(),
                in_elems: u64::MAX,
                flops: 2,
                out_elems: 1000,
                seconds: 4503599627370497.0, // 2^52 + 1: max exact integer range
            },
        ],
    }
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

const FILES: [&str; 3] = ["networks.csv", "layers.csv", "kernels.csv"];

#[test]
fn csv_output_matches_golden_files_byte_for_byte() {
    let ds = pinned_dataset();
    let out = std::env::temp_dir().join(format!("dnnperf_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    write_dataset(&ds, &out).expect("write dataset");

    let golden = golden_dir();
    if std::env::var_os("DNNPERF_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(&golden).expect("create golden dir");
        for f in FILES {
            std::fs::copy(out.join(f), golden.join(f)).expect("update golden file");
        }
        let _ = std::fs::remove_dir_all(&out);
        return;
    }

    for f in FILES {
        let written = std::fs::read(out.join(f)).expect("written CSV");
        let expected = std::fs::read(golden.join(f)).unwrap_or_else(|e| {
            panic!("missing golden file {f} ({e}); run with DNNPERF_UPDATE_GOLDEN=1 to create")
        });
        assert_eq!(
            written, expected,
            "{f} drifted from tests/golden/{f}; if the format change is \
             intentional, regenerate with DNNPERF_UPDATE_GOLDEN=1"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn golden_files_parse_back_to_the_pinned_dataset() {
    // Exact equality: the shortest-representation Display formatting must
    // survive a full write -> parse cycle for every row and every f64.
    let parsed = read_dataset(&golden_dir()).expect("parse golden files");
    assert_eq!(parsed, pinned_dataset());
}
