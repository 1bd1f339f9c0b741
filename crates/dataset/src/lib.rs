//! The dnnperf measurement dataset.
//!
//! Mirrors the paper's data management section: measurements are flat rows
//! ("We prepare our dataset as CSV files, with columns including network
//! structure, batch size, layer FLOPs, hardware information,
//! kernel-by-kernel execution times, layer-to-kernel mapping, and end-to-end
//! execution times"), cleaned of duplicates and failed runs, and split into
//! a training set and a randomly selected 15% test set.
//!
//! # Examples
//!
//! ```
//! use dnnperf_data::collect::collect;
//! use dnnperf_dnn::zoo;
//! use dnnperf_gpu::GpuSpec;
//!
//! let nets = [zoo::resnet::resnet18(), zoo::vgg::vgg11()];
//! let gpus = [GpuSpec::by_name("A100").unwrap()];
//! let ds = collect(&nets, &gpus, &[64]);
//! assert_eq!(ds.networks.len(), 2);
//! assert!(ds.kernels.len() > 50);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod collect;
pub mod csv;
pub mod dataset;
pub mod hygiene;
pub mod record;
pub mod split;
pub mod view;

pub use collect::{CollectMode, CollectOptions, CollectReport};
pub use dataset::Dataset;
pub use hygiene::{dataset_is_wholesome, quarantine_scale_outliers, trace_is_wholesome};
pub use record::{KernelRow, LayerRow, NetworkRow};
pub use split::split_names;
pub use view::{DatasetView, GroupView};
