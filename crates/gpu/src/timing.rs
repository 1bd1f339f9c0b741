//! The hidden ground-truth kernel timing model.
//!
//! This module substitutes for physical GPU execution. Per kernel launch it
//! prices a roofline:
//!
//! ```text
//! t = max( actual_bytes / (eff_mem * dev * BW * sat),
//!          actual_flops / (eff_comp * dev * PEAK * sat) )
//!     * measurement_noise  +  launch_overhead
//! ```
//!
//! * `actual_bytes = kappa(family) * theoretical_bytes` — real kernels move a
//!   family-specific multiple of the theoretical minimum traffic (im2col
//!   replication, GEMM re-reads, transform buffers). This is what makes the
//!   *measured* "bandwidth efficiency" computed from theoretical bytes come
//!   out around 10% and stay stable across GPUs (the paper's O6/Figure 9).
//! * `eff_mem`/`eff_comp` are per-kernel-name efficiencies drawn (via hash)
//!   from family-specific ranges, GPU-independent.
//! * `dev` is a small per-(kernel, GPU) lognormal deviation — the reason the
//!   paper's Inter-GPU model bottoms out around 15% error.
//! * `sat` models SM under-utilisation when a launch has too few thread
//!   blocks to fill the device (the paper's O1 small-workload deviation and
//!   Figure 6 batch-size saturation).
//!
//! **The prediction crates must never read these parameters.** They see only
//! the produced times, as the paper's predictor sees only measured CSVs.

use crate::hashrng::{hash_with, lognormal, uniform};
use crate::kernel::{KernelDesc, KernelFamily};
use crate::spec::GpuSpec;

/// Minimum duration of any kernel (scheduling floor).
const MIN_KERNEL_SECONDS: f64 = 1.5e-6;

/// Scale (in waves of thread blocks per SM) of the saturation curve.
const SATURATION_WAVES: f64 = 8.0;

/// Shape constant of the hyperbolic saturation curve: at one full wave the
/// device reaches `1 / (1 + SATURATION_KNEE)` of peak.
const SATURATION_KNEE: f64 = 0.25;

/// Hidden per-family pricing parameters.
#[derive(Debug, Clone, Copy)]
struct FamilyParams {
    /// Actual-to-theoretical traffic multiplier.
    kappa: f64,
    /// DRAM efficiency range sampled per kernel name.
    eff_mem: (f64, f64),
    /// Compute efficiency range sampled per kernel name.
    eff_comp: (f64, f64),
}

fn family_params(f: KernelFamily) -> FamilyParams {
    use KernelFamily::*;
    let p = |kappa, eff_mem, eff_comp| FamilyParams {
        kappa,
        eff_mem,
        eff_comp,
    };
    match f {
        Im2col => p(10.0, (0.60, 0.85), (0.02, 0.05)),
        GemmConv => p(10.5, (0.55, 0.85), (0.13, 0.26)),
        Gemm1x1 => p(7.0, (0.60, 0.90), (0.13, 0.26)),
        WinogradIn => p(6.0, (0.60, 0.85), (0.05, 0.10)),
        WinogradGemm => p(7.7, (0.55, 0.85), (0.16, 0.29)),
        WinogradOut => p(6.0, (0.60, 0.85), (0.05, 0.10)),
        FftIn => p(8.0, (0.55, 0.80), (0.05, 0.10)),
        FftGemm => p(7.0, (0.55, 0.80), (0.13, 0.23)),
        FftOut => p(8.0, (0.55, 0.80), (0.05, 0.10)),
        DirectConv => p(18.0, (0.50, 0.80), (0.05, 0.12)),
        DepthwiseConv => p(2.5, (0.50, 0.80), (0.02, 0.08)),
        GroupedGemm => p(7.5, (0.55, 0.85), (0.10, 0.21)),
        GemmFc => p(2.5, (0.55, 0.85), (0.15, 0.30)),
        BiasAct => p(1.0, (0.70, 0.95), (0.01, 0.05)),
        BnInf => p(1.0, (0.65, 0.90), (0.01, 0.05)),
        Pooling => p(1.1, (0.60, 0.85), (0.01, 0.05)),
        Elementwise => p(1.0, (0.70, 0.95), (0.01, 0.05)),
        AddTensor => p(1.0, (0.70, 0.95), (0.01, 0.05)),
        ConcatCopy => p(2.0, (0.65, 0.90), (0.01, 0.05)),
        Reduce => p(1.0, (0.60, 0.85), (0.01, 0.05)),
        Softmax => p(2.0, (0.55, 0.85), (0.01, 0.05)),
        LayerNormK => p(2.0, (0.55, 0.85), (0.01, 0.05)),
        EmbedLookup => p(1.5, (0.40, 0.70), (0.01, 0.05)),
        BatchedGemm => p(6.0, (0.55, 0.85), (0.15, 0.30)),
        ShuffleCopy => p(2.0, (0.65, 0.90), (0.01, 0.05)),
        // Training backward kernels: gradient GEMMs behave like their
        // forward counterparts with somewhat worse locality; the
        // element-wise/statistics backward passes are plain streams.
        DgradConv => p(11.0, (0.55, 0.85), (0.12, 0.24)),
        WgradConv => p(12.0, (0.50, 0.80), (0.10, 0.22)),
        BnBwd => p(1.5, (0.60, 0.85), (0.01, 0.05)),
        PoolBwd => p(1.5, (0.55, 0.80), (0.01, 0.05)),
        ElementwiseBwd => p(1.5, (0.70, 0.95), (0.01, 0.05)),
        OptimizerStep => p(3.0, (0.65, 0.90), (0.01, 0.05)),
    }
}

/// Family-specific scale on the per-shape deviation: dense GEMM and
/// streaming kernels are heavily tuned and behave smoothly across problem
/// shapes, while convolution algorithms suffer tile-quantisation cliffs.
fn shape_scale(f: KernelFamily) -> f64 {
    use KernelFamily::*;
    match f {
        GemmFc | BatchedGemm => 0.2,
        BiasAct | BnInf | Elementwise | AddTensor | ConcatCopy | Reduce | Softmax | LayerNormK
        | ShuffleCopy | EmbedLookup | Pooling | BnBwd | PoolBwd | ElementwiseBwd
        | OptimizerStep => 0.5,
        _ => 1.0,
    }
}

/// The ground-truth timing model: deterministic given its seed.
#[derive(Debug, Clone)]
pub struct TimingModel {
    seed: u64,
    /// Lognormal sigma of the per-(kernel, GPU) efficiency deviation.
    dev_sigma: f64,
    /// Lognormal sigma of the per-(kernel, problem shape) deviation: the
    /// same kernel is not perfectly linear in its driver variable across
    /// layer shapes (tile quantisation, cache behaviour). GPU-independent.
    shape_sigma: f64,
    /// Lognormal sigma of residual measurement noise (after the paper's
    /// 30-batch averaging).
    noise_sigma: f64,
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel::new()
    }
}

impl TimingModel {
    /// The canonical hidden ground truth used by the whole evaluation.
    pub fn new() -> Self {
        TimingModel {
            seed: 0x00d1_ce00_c0ff_ee00,
            dev_sigma: 0.22,
            shape_sigma: 0.18,
            noise_sigma: 0.02,
        }
    }

    /// An alternative universe with different hidden parameters; used by
    /// robustness tests to show the predictor is not tuned to one seed.
    pub fn with_seed(seed: u64) -> Self {
        TimingModel {
            seed,
            ..TimingModel::new()
        }
    }

    /// Per-kernel CPU launch overhead on this GPU's host, in seconds.
    pub fn launch_overhead(&self, gpu: &GpuSpec) -> f64 {
        3.0e-6 * uniform(hash_with(&gpu.name, self.seed ^ 0x11), 0.8, 1.3)
    }

    /// Per-batch CPU/GPU synchronisation overhead, in seconds.
    pub fn sync_overhead(&self, gpu: &GpuSpec) -> f64 {
        40.0e-6 * uniform(hash_with(&gpu.name, self.seed ^ 0x22), 0.8, 1.4)
    }

    /// SM saturation factor in `(0, 1)` for a launch of `blocks` blocks:
    /// a smooth hyperbolic ramp that approaches full utilisation once the
    /// launch spans a few waves of thread blocks.
    pub fn saturation(&self, blocks: u64, gpu: &GpuSpec) -> f64 {
        let x = blocks as f64 / (SATURATION_WAVES * gpu.sm_count as f64);
        x / (x + SATURATION_KNEE)
    }

    /// Prices one kernel launch on `gpu`. `noise_key` must identify the
    /// measurement (network, batch, layer, kernel index) so repeated
    /// measurements are reproducible while distinct ones decorrelate.
    pub fn kernel_time(&self, k: &KernelDesc, gpu: &GpuSpec, noise_key: u64) -> f64 {
        let p = family_params(k.family);
        let hk = hash_with(&k.name, self.seed);
        let eff_mem = uniform(
            hash_with(&k.name, self.seed ^ 0xA1),
            p.eff_mem.0,
            p.eff_mem.1,
        );
        let eff_comp = uniform(
            hash_with(&k.name, self.seed ^ 0xA2),
            p.eff_comp.0,
            p.eff_comp.1,
        );
        let dev_key = hash_with(&gpu.name, hk);
        let dev = lognormal(dev_key, self.dev_sigma);
        let shape_key = hk ^ k.flops.rotate_left(17) ^ k.bytes.rotate_left(41) ^ k.work_items;
        let shape_dev = lognormal(
            crate::hashrng::splitmix(shape_key),
            self.shape_sigma * shape_scale(k.family),
        );
        let sat = self.saturation(k.blocks(), gpu);

        let t_mem = (k.bytes as f64 * p.kappa) / (eff_mem * dev * gpu.bandwidth_bytes() * sat);
        let t_comp = k.flops as f64 / (eff_comp * dev * gpu.peak_flops() * sat);
        let t = (t_mem.max(t_comp) * shape_dev).max(MIN_KERNEL_SECONDS);
        let noise = lognormal(hash_with(&k.name, self.seed ^ noise_key), self.noise_sigma);
        t * noise + self.launch_overhead(gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelRole;

    fn gpu(name: &str) -> GpuSpec {
        GpuSpec::by_name(name).unwrap()
    }

    fn kernel(family: KernelFamily, flops: u64, bytes: u64, work: u64) -> KernelDesc {
        KernelDesc {
            name: format!("{}_test", family.base_name()),
            family,
            role: KernelRole::Main,
            flops,
            bytes,
            work_items: work,
        }
    }

    #[test]
    fn deterministic_given_same_key() {
        let m = TimingModel::new();
        let k = kernel(KernelFamily::BnInf, 1 << 20, 1 << 22, 1 << 20);
        let a = m.kernel_time(&k, &gpu("A100"), 42);
        let b = m.kernel_time(&k, &gpu("A100"), 42);
        assert_eq!(a, b);
        let c = m.kernel_time(&k, &gpu("A100"), 43);
        assert_ne!(a, c);
    }

    #[test]
    fn memory_bound_kernel_scales_with_bytes() {
        let m = TimingModel::new();
        let g = gpu("A100");
        let small = kernel(KernelFamily::BnInf, 1 << 20, 100 << 20, 100 << 18);
        let big = kernel(KernelFamily::BnInf, 1 << 21, 200 << 20, 200 << 18);
        let ts = m.kernel_time(&small, &g, 1);
        let tb = m.kernel_time(&big, &g, 1);
        let ratio = tb / ts;
        assert!((ratio - 2.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn faster_memory_means_faster_kernels() {
        let m = TimingModel::new();
        // Saturated, memory-bound kernel with the SAME name on both GPUs.
        let k = kernel(KernelFamily::AddTensor, 1 << 20, 1 << 30, 1 << 28);
        let t_a100 = m.kernel_time(&k, &gpu("A100"), 1);
        let t_1080 = m.kernel_time(&k, &gpu("GTX 1080 Ti"), 1);
        assert!(t_1080 > 2.0 * t_a100, "a100 {t_a100}, 1080ti {t_1080}");
    }

    #[test]
    fn unsaturated_launch_is_slower_per_byte() {
        let m = TimingModel::new();
        let g = gpu("A100");
        // 8 blocks on a 108-SM GPU: far from saturation.
        let tiny = kernel(KernelFamily::AddTensor, 1 << 10, 1 << 14, 1 << 13);
        let sat_tiny = m.saturation(tiny.blocks(), &g);
        assert!(sat_tiny < 0.3, "{sat_tiny}");
        let huge = kernel(KernelFamily::AddTensor, 1 << 20, 1 << 30, 1 << 28);
        let sat_huge = m.saturation(huge.blocks(), &g);
        assert!(sat_huge > 0.99 && sat_huge < 1.0, "{sat_huge}");
        assert!(sat_tiny < sat_huge);
    }

    #[test]
    fn compute_bound_kernel_ignores_bandwidth() {
        let m = TimingModel::new();
        // Enormous FLOPs, tiny bytes: compute bound everywhere.
        let k = kernel(KernelFamily::GemmFc, 1 << 42, 1 << 20, 1 << 28);
        let t_a40 = m.kernel_time(&k, &gpu("A40"), 1); // 37.4 TFLOPS
        let t_titan = m.kernel_time(&k, &gpu("TITAN RTX"), 1); // 16.3 TFLOPS
        assert!(t_titan > 1.5 * t_a40);
    }

    #[test]
    fn launch_overhead_floor() {
        let m = TimingModel::new();
        let k = kernel(KernelFamily::Elementwise, 1, 1, 1);
        let t = m.kernel_time(&k, &gpu("V100"), 7);
        assert!(t >= MIN_KERNEL_SECONDS);
        assert!(t < 50e-6, "tiny kernel should cost microseconds, got {t}");
    }

    #[test]
    fn measured_bandwidth_efficiency_is_paperlike() {
        // theoretical_bytes / (t * BW) should land near ~10% for the
        // conv GEMM families (Figure 9's stable band), on every GPU.
        let m = TimingModel::new();
        for gname in ["A100", "A40", "GTX 1080 Ti", "TITAN RTX"] {
            let g = gpu(gname);
            let k = kernel(KernelFamily::GemmConv, 1 << 28, 1 << 28, 1 << 26);
            let t = m.kernel_time(&k, &g, 3);
            let eff = (1u64 << 28) as f64 / (t * g.bandwidth_bytes());
            assert!(eff > 0.03 && eff < 0.6, "{gname}: eff {eff}");
        }
    }

    #[test]
    fn different_seeds_give_different_universes() {
        let a = TimingModel::new();
        let b = TimingModel::with_seed(99);
        let k = kernel(KernelFamily::GemmConv, 1 << 28, 1 << 28, 1 << 26);
        assert_ne!(
            a.kernel_time(&k, &gpu("A100"), 1),
            b.kernel_time(&k, &gpu("A100"), 1)
        );
    }
}
