//! `KernelMap::kernels_for` and `KwModel::predict_layer` allocate nothing,
//! on an exact hit or on a nearest-signature miss, for a trained KW model
//! and for an IGKW model specialised to an unprofiled GPU. A counting global allocator tallies the heap
//! allocations of the current thread, so tests running in parallel do not
//! see each other's.

use dnnperf_core::{IgkwModel, KernelMap, KwModel, LayerSignature};
use dnnperf_data::collect::collect;
use dnnperf_dnn::{zoo, Conv2d, Layer, LayerKind, TensorShape};
use dnnperf_gpu::GpuSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// The default `alloc_zeroed` and `realloc` go through `alloc`, so they are
// counted too.
// SAFETY: both methods forward to `System` with the caller's own
// arguments; the thread-local counter bump never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwarded unchanged; `ptr` came from `System` via `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Runs `f` and returns its result with the number of heap allocations it
/// made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn resnet18_map() -> KernelMap {
    let ds = collect(
        &[zoo::resnet::resnet18()],
        &[GpuSpec::by_name("A100").unwrap()],
        &[16],
    );
    KernelMap::from_rows(&ds.kernels)
}

/// A convolution shape ResNet-18 does not have.
fn odd_conv() -> Layer {
    Layer::apply(
        LayerKind::Conv2d(Conv2d::square(96, 96, 3, 1, 1)),
        TensorShape::chw(96, 30, 30),
    )
    .unwrap()
}

/// A ResNet-18 convolution: an exact hit for models trained on ResNet-18.
fn resnet18_conv() -> Layer {
    let net = zoo::resnet::resnet18();
    let conv = net.layers().iter().find(|l| l.type_tag() == "conv");
    conv.unwrap().clone()
}

fn recorded(map: &KernelMap, layer: &Layer) -> bool {
    let sig = LayerSignature::of_layer(layer);
    map.entries().any(|(s, _)| *s == sig)
}

#[test]
fn exact_hit_allocates_nothing() {
    let map = resnet18_map();
    let net = zoo::resnet::resnet18();
    let layer = net
        .layers()
        .iter()
        .find(|l| l.type_tag() == "conv")
        .unwrap();
    assert!(recorded(&map, layer));
    let (kernels, n) = allocations(|| map.kernels_for(layer).map(<[_]>::len));
    assert!(kernels.is_some_and(|k| k > 0));
    assert_eq!(n, 0, "exact hit allocated {n} times");
}

#[test]
fn nearest_fallback_allocates_nothing() {
    let map = resnet18_map();
    // A convolution shape ResNet-18 does not have.
    let odd = Layer::apply(
        LayerKind::Conv2d(Conv2d::square(96, 96, 3, 1, 1)),
        TensorShape::chw(96, 30, 30),
    )
    .unwrap();
    assert!(!recorded(&map, &odd));
    let (kernels, n) = allocations(|| map.kernels_for(&odd).map(<[_]>::len));
    assert!(kernels.is_some_and(|k| k > 0));
    assert_eq!(n, 0, "nearest fallback allocated {n} times");
}

#[test]
fn kw_pricing_allocates_nothing_on_a_covered_hit_or_miss() {
    let gpu = GpuSpec::by_name("A100").unwrap();
    let ds = collect(&[zoo::resnet::resnet18()], &[gpu], &[16]);
    let trained = KwModel::train(&ds, "A100").unwrap();
    // IGKW prices through the same loop, as a KW model specialised to the
    // target GPU.
    let gpus = [
        GpuSpec::by_name("A100").unwrap(),
        GpuSpec::by_name("V100").unwrap(),
    ];
    let ds = collect(&[zoo::resnet::resnet18()], &gpus, &[8, 32]);
    let igkw = IgkwModel::train(&ds, &gpus).unwrap();
    let specialised = igkw.specialise(&GpuSpec::by_name("TITAN RTX").unwrap());
    for (kw, what) in [(&trained, "trained"), (&specialised, "specialised")] {
        for (layer, hit) in [(resnet18_conv(), true), (odd_conv(), false)] {
            assert_eq!(recorded(kw.mapping(), &layer), hit);
            assert!(kw.predict_layer_coverage(&layer, 8).is_full());
            let (seconds, n) = allocations(|| kw.predict_layer(&layer, 8));
            assert!(seconds > 0.0);
            assert_eq!(n, 0, "{what} KW pricing (hit: {hit}) allocated {n} times");
        }
    }
}

#[test]
fn the_counter_sees_allocations() {
    let (v, n) = allocations(|| vec![0u8; 64]);
    assert_eq!(v.len(), 64);
    assert_eq!(n, 1);
}
