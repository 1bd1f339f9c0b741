//! Deterministic fault injection around the profiler.
//!
//! On real hardware, profiling campaigns fail in ways our simulator never
//! does: driver hiccups abort a run, a co-located job turns one measurement
//! into a straggler, ECC or clock glitches corrupt a timing. The paper's
//! pipeline (and Habitat-style runtime predictors generally) must survive
//! all of these. This module makes those failure modes *reproducible*: a
//! seeded [`FaultPlan`] decides, purely from
//! `(seed, gpu, network, batch, attempt)`, whether a given profiling
//! attempt fails transiently, straggles, panics, or returns corrupted
//! times — without ever touching the hidden timing model.
//!
//! Two properties make the plan compatible with the collection engine's
//! byte-identical-output invariant:
//!
//! 1. **Attempt-keyed faults.** The decision depends on the attempt index,
//!    so a retried job sees an *independent* fault draw — not the same
//!    fault forever.
//! 2. **Bounded depth.** Once `attempt >= max_faulty_attempts`, the plan
//!    always answers "no fault". A retry policy with at least
//!    `max_faulty_attempts` retries therefore deterministically converges
//!    to the clean measurement, which is bit-identical to the fault-free
//!    run because the underlying profiler is deterministic.

use crate::hashrng::{hash_with, splitmix, unit};
use crate::profiler::{ProfileError, Profiler};
use crate::trace::Trace;
use dnnperf_dnn::Network;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// How a corrupted measurement is damaged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Corruption {
    /// One kernel time becomes NaN (propagates into the e2e sum).
    Nan,
    /// One kernel time becomes +inf.
    Inf,
    /// One kernel time flips negative.
    Negative,
    /// One kernel time is multiplied by the factor (a silent outlier:
    /// finite and positive, so it survives the validity screen and must be
    /// caught statistically downstream).
    Scale(f64),
}

/// A single injected fault for one profiling attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectedFault {
    /// The attempt fails with [`ProfileError::Transient`].
    Transient,
    /// The attempt succeeds but only after the given extra wall-time.
    Straggler(Duration),
    /// The attempt succeeds but the returned trace is damaged.
    Corrupt(Corruption),
    /// The attempt panics (a crashed worker process).
    Panic,
}

/// Which fault kinds a plan may draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultKinds {
    /// Allow [`InjectedFault::Transient`].
    pub transient: bool,
    /// Allow [`InjectedFault::Straggler`].
    pub straggler: bool,
    /// Allow [`InjectedFault::Corrupt`].
    pub corrupt: bool,
    /// Allow [`InjectedFault::Panic`].
    pub panic: bool,
}

impl FaultKinds {
    /// Only transient errors and stragglers: every fault is recoverable by
    /// retrying, so collection output must be byte-identical to fault-free.
    pub fn transient_only() -> Self {
        FaultKinds {
            transient: true,
            straggler: true,
            corrupt: false,
            panic: false,
        }
    }

    /// Everything at once (chaos testing).
    pub fn chaos() -> Self {
        FaultKinds {
            transient: true,
            straggler: true,
            corrupt: true,
            panic: true,
        }
    }

    fn enabled_count(&self) -> u64 {
        u64::from(self.transient)
            + u64::from(self.straggler)
            + u64::from(self.corrupt)
            + u64::from(self.panic)
    }
}

/// A seeded, deterministic fault schedule.
///
/// `decide` is a pure function of the plan and
/// `(gpu, network, batch, attempt)`: two plans with equal fields make
/// identical decisions on any machine, any thread interleaving, any run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed separating independent fault universes.
    pub seed: u64,
    /// Per-attempt fault probability in `[0, 1]`.
    pub rate: f64,
    /// Which fault kinds may fire.
    pub kinds: FaultKinds,
    /// Attempts `>= max_faulty_attempts` are always clean, bounding how
    /// many retries any job can need. Must be at least 1 for faults to
    /// fire at all.
    pub max_faulty_attempts: u32,
    /// Extra latency injected for stragglers.
    pub straggler_delay: Duration,
}

impl FaultPlan {
    /// A recoverable-faults-only plan: transients and stragglers at `rate`.
    pub fn transient_only(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            rate,
            kinds: FaultKinds::transient_only(),
            max_faulty_attempts: 3,
            straggler_delay: Duration::from_millis(25),
        }
    }

    /// An everything-can-happen plan at `rate` (corruption and panics too).
    pub fn chaos(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            rate,
            kinds: FaultKinds::chaos(),
            max_faulty_attempts: 3,
            straggler_delay: Duration::from_millis(25),
        }
    }

    /// Hash key for one `(gpu, net, batch, attempt)` cell.
    fn cell(&self, gpu: &str, net: &str, batch: usize, attempt: u32) -> u64 {
        let g = hash_with(gpu, self.seed ^ 0xFA17_0001);
        let n = hash_with(net, self.seed ^ 0xFA17_0002);
        splitmix(g ^ n.rotate_left(17) ^ (batch as u64) << 3 ^ u64::from(attempt) << 48)
    }

    /// Decides the fault (if any) for one profiling attempt.
    ///
    /// Deterministic in all arguments; `None` whenever
    /// `attempt >= max_faulty_attempts`, whenever `rate <= 0`, or whenever
    /// no fault kind is enabled.
    pub fn decide(
        &self,
        gpu: &str,
        net: &str,
        batch: usize,
        attempt: u32,
    ) -> Option<InjectedFault> {
        if attempt >= self.max_faulty_attempts || self.rate <= 0.0 {
            return None;
        }
        let kinds = self.kinds.enabled_count();
        if kinds == 0 {
            return None;
        }
        let h = self.cell(gpu, net, batch, attempt);
        if unit(h) >= self.rate {
            return None;
        }
        // Pick among the enabled kinds with an independent draw.
        let pick = splitmix(h ^ 0x9E37_79B9_7F4A_7C15) % kinds;
        let mut order = Vec::with_capacity(4);
        if self.kinds.transient {
            order.push(0u8);
        }
        if self.kinds.straggler {
            order.push(1);
        }
        if self.kinds.corrupt {
            order.push(2);
        }
        if self.kinds.panic {
            order.push(3);
        }
        Some(match order[pick as usize] {
            0 => InjectedFault::Transient,
            1 => InjectedFault::Straggler(self.straggler_delay),
            2 => {
                let c = splitmix(h ^ 0x00C0_FFEE) % 4;
                InjectedFault::Corrupt(match c {
                    0 => Corruption::Nan,
                    1 => Corruption::Inf,
                    2 => Corruption::Negative,
                    // The base factor is perturbed by the attempt index so
                    // two corrupted attempts can never agree byte-for-byte:
                    // replicate comparison is then a *sound* corruption
                    // detector (agreement implies both replicates clean).
                    _ => Corruption::Scale(
                        if splitmix(h ^ 0xD1CE) & 1 == 0 {
                            40.0
                        } else {
                            0.025
                        } * (1.0 + f64::from(attempt) * 1e-6),
                    ),
                })
            }
            _ => InjectedFault::Panic,
        })
    }
}

/// Applies a [`Corruption`] to a trace in place, damaging one
/// deterministically chosen kernel and keeping `e2e_seconds` consistent
/// with the damaged sum (as a real corrupted timing stream would).
pub fn corrupt_trace(trace: &mut Trace, corruption: Corruption, pick: u64) {
    let total: usize = trace.layers.iter().map(|l| l.kernels.len()).sum();
    if total == 0 {
        return;
    }
    let mut target = (pick % total as u64) as usize;
    for layer in &mut trace.layers {
        if target < layer.kernels.len() {
            let k = &mut layer.kernels[target];
            let old = k.seconds;
            let new = match corruption {
                Corruption::Nan => f64::NAN,
                Corruption::Inf => f64::INFINITY,
                Corruption::Negative => -old.abs(),
                Corruption::Scale(f) => old * f,
            };
            k.seconds = new;
            // Keep the e2e aggregate consistent with the damaged kernel
            // stream; NaN/Inf propagate as they would in a real sum.
            trace.e2e_seconds = trace.e2e_seconds - old + new;
            return;
        }
        target -= layer.kernels.len();
    }
}

/// A decorator around [`Profiler`] that injects the faults a [`FaultPlan`]
/// schedules, while delegating all clean measurements to the inner
/// profiler untouched.
///
/// Stateless with respect to timing: the fault decision depends only on
/// the plan and the attempt index, never on wall-clock or thread identity.
#[derive(Debug)]
pub struct FaultyProfiler {
    inner: Profiler,
    plan: FaultPlan,
    /// Attempt counters for the stateful [`FaultyProfiler::profile`]
    /// convenience entry point, keyed by `(network, batch)`.
    attempts: Mutex<HashMap<(String, usize), u32>>,
}

impl FaultyProfiler {
    /// Wraps `inner` with the fault schedule `plan`.
    pub fn new(inner: Profiler, plan: FaultPlan) -> Self {
        FaultyProfiler {
            inner,
            plan,
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// The wrapped clean profiler.
    pub fn inner(&self) -> &Profiler {
        &self.inner
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Profiles `net` at `batch` as attempt number `attempt` (zero-based).
    ///
    /// This is the pure entry point retry loops should use: passing the
    /// attempt index explicitly keeps the fault schedule independent of
    /// call interleaving across threads.
    ///
    /// # Errors
    ///
    /// Propagates the inner profiler's validation/OOM errors (these are
    /// checked *before* fault injection: a malformed request is permanent,
    /// not transient) and returns [`ProfileError::Transient`] when the
    /// plan schedules a transient fault.
    ///
    /// # Panics
    ///
    /// Panics when the plan schedules [`InjectedFault::Panic`] for this
    /// attempt — deliberately, to exercise caller-side panic isolation.
    pub fn profile_attempt(
        &self,
        net: &Network,
        batch: usize,
        attempt: u32,
    ) -> Result<Trace, ProfileError> {
        self.faulted(net, batch, attempt, |n, b| self.inner.profile(n, b))
    }

    /// Training-step counterpart of [`FaultyProfiler::profile_attempt`].
    ///
    /// # Errors
    ///
    /// As for [`FaultyProfiler::profile_attempt`].
    pub fn profile_training_attempt(
        &self,
        net: &Network,
        batch: usize,
        attempt: u32,
    ) -> Result<Trace, ProfileError> {
        self.faulted(net, batch, attempt, |n, b| {
            self.inner.profile_training(n, b)
        })
    }

    /// Drop-in replacement for [`Profiler::profile`] that tracks the
    /// attempt index internally per `(network, batch)`.
    ///
    /// Convenient for sequential callers; parallel retry loops should
    /// prefer [`FaultyProfiler::profile_attempt`] so attempt numbering is
    /// explicit rather than dependent on call order.
    ///
    /// # Errors
    ///
    /// As for [`FaultyProfiler::profile_attempt`].
    pub fn profile(&self, net: &Network, batch: usize) -> Result<Trace, ProfileError> {
        let attempt = {
            let mut m = self.attempts.lock().unwrap_or_else(PoisonError::into_inner);
            let slot = m.entry((net.name().to_string(), batch)).or_insert(0);
            let a = *slot;
            *slot += 1;
            a
        };
        self.profile_attempt(net, batch, attempt)
    }

    fn faulted(
        &self,
        net: &Network,
        batch: usize,
        attempt: u32,
        run: impl Fn(&Network, usize) -> Result<Trace, ProfileError>,
    ) -> Result<Trace, ProfileError> {
        // Permanent failures (validation, OOM) surface before injection:
        // the request itself is wrong, no fault universe changes that.
        let mut trace = run(net, batch)?;
        match self
            .plan
            .decide(&self.inner.gpu().name, net.name(), batch, attempt)
        {
            None => Ok(trace),
            Some(InjectedFault::Transient) => Err(ProfileError::Transient {
                network: net.name().to_string(),
                batch,
                attempt,
            }),
            Some(InjectedFault::Straggler(delay)) => {
                std::thread::sleep(delay);
                Ok(trace)
            }
            Some(InjectedFault::Corrupt(c)) => {
                let pick = splitmix(
                    self.plan
                        .cell(&self.inner.gpu().name, net.name(), batch, attempt)
                        ^ 0x5E1EC7,
                );
                corrupt_trace(&mut trace, c, pick);
                Ok(trace)
            }
            Some(InjectedFault::Panic) => panic!(
                "injected profiler crash: {} at batch {batch} (attempt {attempt})",
                net.name()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GpuSpec;
    use dnnperf_dnn::zoo;

    fn a100() -> Profiler {
        Profiler::new(GpuSpec::by_name("A100").unwrap())
    }

    #[test]
    fn decisions_are_deterministic() {
        let p = FaultPlan::chaos(42, 0.5);
        let q = FaultPlan::chaos(42, 0.5);
        for attempt in 0..4 {
            for batch in [1usize, 16, 256] {
                assert_eq!(
                    p.decide("A100", "ResNet-18", batch, attempt),
                    q.decide("A100", "ResNet-18", batch, attempt)
                );
            }
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let p = FaultPlan::chaos(1, 0.5);
        let q = FaultPlan::chaos(2, 0.5);
        let grid: Vec<_> = (0..64)
            .map(|i| {
                (
                    p.decide("A100", "VGG-16", i, 0).is_some(),
                    q.decide("A100", "VGG-16", i, 0).is_some(),
                )
            })
            .collect();
        assert!(grid.iter().any(|(a, b)| a != b), "seeds never disagreed");
    }

    #[test]
    fn fault_rate_is_respected_roughly() {
        let p = FaultPlan::transient_only(7, 0.25);
        let fired = (0..400)
            .filter(|&b| p.decide("V100", "ResNet-50", b, 0).is_some())
            .count();
        // 400 draws at p=0.25: expect ~100, allow a wide band.
        assert!((50..180).contains(&fired), "fired {fired}/400");
    }

    #[test]
    fn attempts_beyond_bound_are_always_clean() {
        let p = FaultPlan::chaos(3, 1.0);
        for b in 0..50 {
            assert_eq!(p.decide("A100", "VGG-16", b, p.max_faulty_attempts), None);
            assert!(p.decide("A100", "VGG-16", b, 0).is_some(), "rate 1.0");
        }
    }

    #[test]
    fn zero_rate_never_fires() {
        let p = FaultPlan::chaos(3, 0.0);
        for b in 0..50 {
            assert_eq!(p.decide("A100", "VGG-16", b, 0), None);
        }
    }

    #[test]
    fn transient_only_plans_never_corrupt_or_panic() {
        let p = FaultPlan::transient_only(11, 1.0);
        for b in 1..200 {
            match p.decide("A100", "ResNet-18", b, 0) {
                Some(InjectedFault::Corrupt(_)) | Some(InjectedFault::Panic) => {
                    panic!("transient-only plan drew a destructive fault")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn retried_faulty_profile_converges_to_clean() {
        let net = zoo::resnet::resnet18();
        let clean = a100().profile(&net, 64).unwrap();
        let fp = FaultyProfiler::new(a100(), FaultPlan::transient_only(9, 1.0));
        // Rate 1.0: the first max_faulty_attempts attempts fault (transient
        // or straggler), then the bound forces a clean run.
        let mut got = None;
        for attempt in 0..=fp.plan().max_faulty_attempts {
            match fp.profile_attempt(&net, 64, attempt) {
                Ok(t) => {
                    got = Some(t);
                    break;
                }
                Err(e) => assert!(e.is_transient(), "unexpected: {e}"),
            }
        }
        assert_eq!(got.expect("bounded plan must converge"), clean);
    }

    #[test]
    fn corruption_damages_exactly_one_kernel() {
        let net = zoo::resnet::resnet18();
        let clean = a100().profile(&net, 32).unwrap();
        let mut t = clean.clone();
        corrupt_trace(&mut t, Corruption::Nan, 12345);
        let nans: usize = t
            .layers
            .iter()
            .flat_map(|l| &l.kernels)
            .filter(|k| k.seconds.is_nan())
            .count();
        assert_eq!(nans, 1);
        assert!(t.e2e_seconds.is_nan(), "NaN must propagate to the e2e sum");

        let mut s = clean.clone();
        corrupt_trace(&mut s, Corruption::Scale(40.0), 999);
        let changed: usize = s
            .layers
            .iter()
            .flat_map(|l| &l.kernels)
            .zip(clean.layers.iter().flat_map(|l| &l.kernels))
            .filter(|(a, b)| a.seconds != b.seconds)
            .count();
        assert_eq!(changed, 1);
        assert!(s.e2e_seconds > clean.e2e_seconds);
    }

    #[test]
    fn stateful_profile_advances_attempts() {
        let net = zoo::resnet::resnet18();
        let fp = FaultyProfiler::new(a100(), FaultPlan::transient_only(9, 1.0));
        let clean = a100().profile(&net, 64).unwrap();
        // Call until the attempt counter passes the fault bound.
        let mut ok = None;
        for _ in 0..=fp.plan().max_faulty_attempts {
            if let Ok(t) = fp.profile(&net, 64) {
                ok = Some(t);
                break;
            }
        }
        assert_eq!(ok.expect("stateful retries converge"), clean);
    }

    #[test]
    fn permanent_errors_win_over_faults() {
        let net = zoo::vgg::vgg16();
        let p620 = Profiler::new(GpuSpec::by_name("Quadro P620").unwrap());
        let fp = FaultyProfiler::new(p620, FaultPlan::chaos(1, 1.0));
        let err = fp.profile_attempt(&net, 512, 0).unwrap_err();
        assert!(matches!(err, ProfileError::OutOfMemory { .. }));
        let err = fp.profile_attempt(&net, 0, 0).unwrap_err();
        assert!(matches!(err, ProfileError::ZeroBatch { .. }));
    }

    #[test]
    fn injected_panic_fires() {
        let mut plan = FaultPlan::chaos(4, 1.0);
        plan.kinds = FaultKinds {
            transient: false,
            straggler: false,
            corrupt: false,
            panic: true,
        };
        let fp = FaultyProfiler::new(a100(), plan);
        let net = zoo::resnet::resnet18();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fp.profile_attempt(&net, 8, 0)
        }));
        assert!(r.is_err(), "panic-only plan at rate 1.0 must panic");
    }
}
