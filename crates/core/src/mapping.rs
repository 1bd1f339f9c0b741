//! The layer-to-kernel mapping table (the left-most block of the paper's
//! Figure 10).
//!
//! "Since the cuDNN library decides the kernels to use according to the
//! problem sizes, we create a look-up table that maps from the layer type
//! and input/output size to the kernel list. We provide the look-up table
//! for all the kernels we encounter in our dataset."
//!
//! Keys are *per-sample* (batch-normalised) layer signatures so that a table
//! built at the training batch size applies to any batch size. Lookups fall
//! back to the nearest recorded signature of the same layer type (log-space
//! distance) for shapes unseen in training. The table is keyed by layer type
//! first, and each recorded signature keeps its log coordinates, so a lookup
//! allocates nothing and a miss is one scan without logarithms.

use dnnperf_data::KernelRow;
use dnnperf_dnn::flops::layer_flops;
use dnnperf_dnn::Layer;
use std::collections::{btree_map, BTreeMap};
use std::sync::Arc;

/// A batch-invariant description of a layer instance: its type tag plus
/// per-sample input size, FLOPs and output size.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayerSignature {
    /// Layer type tag (`"conv"`, `"bn"`, ...).
    pub tag: Arc<str>,
    /// Per-sample input element count.
    pub in_per: u64,
    /// Per-sample theoretical FLOPs.
    pub flops_per: u64,
    /// Per-sample output element count.
    pub out_per: u64,
}

/// A signature's per-sample `(in_per, flops_per, out_per)` sizes: the
/// exact-match key inside one layer type.
type SizeKey = (u64, u64, u64);

impl LayerSignature {
    /// Computes the signature of a layer from its static structure.
    pub fn of_layer(layer: &Layer) -> Self {
        let (in_per, flops_per, out_per) = sizes_of(layer);
        LayerSignature {
            tag: Arc::from(layer.type_tag()),
            in_per,
            flops_per,
            out_per,
        }
    }

    /// Recovers the signature from a measured kernel row (dividing the
    /// batch-level driver variables by the batch size).
    pub fn of_row(row: &KernelRow) -> Self {
        let n = row.batch.max(1) as u64;
        LayerSignature {
            tag: row.layer_type.clone(),
            in_per: row.in_elems / n,
            flops_per: row.flops / n,
            out_per: row.out_elems / n,
        }
    }

    fn size_key(&self) -> SizeKey {
        (self.in_per, self.flops_per, self.out_per)
    }
}

fn sizes_of(layer: &Layer) -> SizeKey {
    (
        layer.input.elems() as u64,
        layer_flops(layer),
        layer.output.elems() as u64,
    )
}

/// `ln(x + 1)` of each size: the space the nearest fallback measures in.
fn log_coords((in_per, flops_per, out_per): SizeKey) -> [f64; 3] {
    let ln = |x: u64| ((x + 1) as f64).ln();
    [ln(in_per), ln(flops_per), ln(out_per)]
}

/// Squared log-space distance from a query to a candidate, summed in the
/// order in, flops, out.
fn distance([qi, qf, qo]: [f64; 3], [ci, cf, co]: [f64; 3]) -> f64 {
    (qi - ci) * (qi - ci) + (qf - cf) * (qf - cf) + (qo - co) * (qo - co)
}

/// The learned mapping from layer signatures to kernel name lists.
#[derive(Debug, Clone, Default)]
pub struct KernelMap {
    by_tag: BTreeMap<Arc<str>, TagTable>,
}

/// The recorded signatures of one layer type.
#[derive(Debug, Clone, Default)]
struct TagTable {
    /// Exact-match index: size key -> position in `entries`.
    index: BTreeMap<SizeKey, usize>,
    /// The nearest fallback's candidates, in insertion order.
    entries: Vec<Recorded>,
}

#[derive(Debug, Clone)]
struct Recorded {
    sig: LayerSignature,
    kernels: Vec<Arc<str>>,
    /// [`log_coords`] of the signature, taken once at insert.
    coords: [f64; 3],
}

impl PartialEq for KernelMap {
    fn eq(&self, other: &Self) -> bool {
        // Equality compares the recorded entries, not the candidate order
        // (insertion order, which differs between a trained map and its
        // loaded copy). That order does decide exact distance ties in the
        // nearest fallback, so equal maps may answer a tied miss
        // differently.
        self.entries().eq(other.entries())
    }
}

impl KernelMap {
    /// Builds the table from measured kernel rows. Rows of one layer
    /// execution must be contiguous (as produced by collection).
    ///
    /// # Examples
    ///
    /// ```
    /// use dnnperf_core::KernelMap;
    /// use dnnperf_data::collect::collect;
    /// use dnnperf_gpu::GpuSpec;
    ///
    /// let nets = [dnnperf_dnn::zoo::resnet::resnet18()];
    /// let ds = collect(&nets, &[GpuSpec::by_name("A100").unwrap()], &[16]);
    /// let map = KernelMap::from_rows(&ds.kernels);
    /// assert!(map.len() > 10);
    /// ```
    pub fn from_rows(rows: &[KernelRow]) -> Self {
        let refs: Vec<&KernelRow> = rows.iter().collect();
        KernelMap::from_row_refs(&refs)
    }

    /// Builds the table from borrowed kernel rows — the allocation-free
    /// path [`crate::KwModel`] training uses after filtering a dataset by
    /// GPU, so no row is ever cloned just to be scanned. Semantics are
    /// identical to [`KernelMap::from_rows`].
    pub fn from_row_refs(rows: &[&KernelRow]) -> Self {
        let mut map = KernelMap::default();
        let mut i = 0;
        while i < rows.len() {
            let Some(r) = rows.get(i) else { break };
            let mut kernels = vec![r.kernel.clone()];
            let mut j = i + 1;
            while let Some(next) = rows.get(j) {
                if !same_layer_execution(r, next) {
                    break;
                }
                kernels.push(next.kernel.clone());
                j += 1;
            }
            let sig = LayerSignature::of_row(r);
            map.insert(sig, kernels);
            i = j;
        }
        map
    }

    /// Inserts one signature -> kernel-list entry (first write wins).
    pub fn insert(&mut self, sig: LayerSignature, kernels: Vec<Arc<str>>) {
        let table = self.by_tag.entry(sig.tag.clone()).or_default();
        let key = sig.size_key();
        if let btree_map::Entry::Vacant(slot) = table.index.entry(key) {
            slot.insert(table.entries.len());
            table.entries.push(Recorded {
                sig,
                kernels,
                coords: log_coords(key),
            });
        }
    }

    /// Merges another table into this one (first write wins per signature),
    /// inserting the other table's entries in [`LayerSignature`] order.
    pub fn merge(&mut self, other: KernelMap) {
        for table in other.by_tag.into_values() {
            let mut entries = table.entries;
            // One tag per table, so the size key is the signature order.
            entries.sort_unstable_by_key(|e| e.sig.size_key());
            for e in entries {
                self.insert(e.sig, e.kernels);
            }
        }
    }

    /// Number of distinct signatures recorded.
    pub fn len(&self) -> usize {
        self.by_tag.values().map(|t| t.entries.len()).sum()
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.by_tag.is_empty()
    }

    /// Iterates over all recorded (signature, kernel list) entries in
    /// [`LayerSignature`] order.
    pub fn entries(&self) -> impl Iterator<Item = (&LayerSignature, &[Arc<str>])> {
        self.by_tag
            .values()
            .flat_map(|t| t.index.values().filter_map(|&i| t.entries.get(i)))
            .map(|e| (&e.sig, e.kernels.as_slice()))
    }

    /// Looks up the kernel list for a layer: exact signature match first,
    /// then the nearest recorded signature of the same layer type (the
    /// first recorded one on an exact distance tie). Allocates nothing.
    ///
    /// Returns `None` if no layer of this type was ever recorded — which,
    /// for types like `flatten` that launch no kernels, is the correct
    /// "free" answer.
    pub fn kernels_for(&self, layer: &Layer) -> Option<&[Arc<str>]> {
        let table = self.by_tag.get(layer.type_tag())?;
        let key = sizes_of(layer);
        let found = match table.index.get(&key) {
            Some(&i) => table.entries.get(i),
            None => {
                let q = log_coords(key);
                table
                    .entries
                    .iter()
                    .map(|e| (distance(q, e.coords), e))
                    .min_by(|a, b| a.0.total_cmp(&b.0))
                    .map(|(_, e)| e)
            }
        };
        found.map(|e| e.kernels.as_slice())
    }
}

impl KernelMap {
    /// Serializes the table (persistence; deterministic order).
    pub(crate) fn write_text(&self, out: &mut String) {
        out.push_str(&format!("map {}\n", self.len()));
        for (sig, kernels) in self.entries() {
            out.push_str(&format!(
                "sig {} {} {} {} {}",
                sig.tag,
                sig.in_per,
                sig.flops_per,
                sig.out_per,
                kernels.len()
            ));
            for k in kernels {
                out.push(' ');
                out.push_str(k);
            }
            out.push('\n');
        }
    }

    /// Deserializes a table written by [`KernelMap::write_text`].
    pub(crate) fn read_text(
        cur: &mut crate::persist::Cursor<'_>,
    ) -> Result<Self, crate::persist::PersistError> {
        use crate::persist::field;
        let count: usize = {
            let rest = cur.keyword("map")?;
            rest.trim()
                .parse()
                .map_err(|_| cur.parse_err(format!("bad map count {rest:?}")))?
        };
        let mut map = KernelMap::default();
        for _ in 0..count {
            let rest = cur.keyword("sig")?;
            let mut parts = rest.split_whitespace();
            let tag = parts
                .next()
                .ok_or_else(|| cur.parse_err("missing signature tag"))?;
            let sig = LayerSignature {
                tag: Arc::from(tag),
                in_per: field(cur, &mut parts, "in_per")?,
                flops_per: field(cur, &mut parts, "flops_per")?,
                out_per: field(cur, &mut parts, "out_per")?,
            };
            let k: usize = field(cur, &mut parts, "kernel count")?;
            let kernels: Vec<Arc<str>> = parts.map(Arc::from).collect();
            if kernels.len() != k {
                return Err(cur.parse_err(format!("expected {k} kernels, found {}", kernels.len())));
            }
            map.insert(sig, kernels);
        }
        Ok(map)
    }
}

fn same_layer_execution(a: &KernelRow, b: &KernelRow) -> bool {
    a.layer_index == b.layer_index && a.network == b.network && a.gpu == b.gpu && a.batch == b.batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnperf_data::collect::collect;
    use dnnperf_dnn::zoo;
    use dnnperf_gpu::GpuSpec;

    fn a100_map(nets: &[dnnperf_dnn::Network], batch: usize) -> KernelMap {
        let ds = collect(nets, &[GpuSpec::by_name("A100").unwrap()], &[batch]);
        KernelMap::from_rows(&ds.kernels)
    }

    #[test]
    fn exact_lookup_matches_dispatch() {
        let net = zoo::resnet::resnet18();
        let map = a100_map(std::slice::from_ref(&net), 32);
        for layer in net.layers() {
            let expected = dnnperf_gpu::dispatch::dispatch_layer(layer, 32);
            match map.kernels_for(layer) {
                Some(got) => {
                    let got: Vec<&str> = got.iter().map(|k| &**k).collect();
                    let want: Vec<&str> = expected.iter().map(|k| k.name.as_str()).collect();
                    assert_eq!(got, want, "layer {layer:?}");
                }
                None => assert!(expected.is_empty(), "missing mapping for {layer:?}"),
            }
        }
    }

    #[test]
    fn signatures_are_batch_invariant() {
        let net = zoo::resnet::resnet18();
        let map16 = a100_map(std::slice::from_ref(&net), 16);
        let map64 = a100_map(std::slice::from_ref(&net), 64);
        let keys = |m: &KernelMap| m.entries().map(|(s, _)| s.clone()).collect::<Vec<_>>();
        assert_eq!(keys(&map16), keys(&map64));
        // And structural signatures hit the table exactly.
        let recorded = keys(&map16);
        for layer in net.layers() {
            let sig = LayerSignature::of_layer(layer);
            let in_map = recorded.contains(&sig);
            let has_kernels = !dnnperf_gpu::dispatch::dispatch_layer(layer, 1).is_empty();
            assert_eq!(in_map, has_kernels, "{layer:?}");
        }
    }

    #[test]
    fn nearest_fallback_finds_same_type() {
        let map = a100_map(&[zoo::resnet::resnet18()], 16);
        // A conv shape not present in ResNet-18.
        let odd = dnnperf_dnn::Layer::apply(
            dnnperf_dnn::LayerKind::Conv2d(dnnperf_dnn::Conv2d::square(96, 96, 3, 1, 1)),
            dnnperf_dnn::TensorShape::chw(96, 30, 30),
        )
        .unwrap();
        let kernels = map.kernels_for(&odd).expect("nearest fallback");
        assert!(!kernels.is_empty());
    }

    #[test]
    fn unseen_tag_returns_none() {
        let map = a100_map(&[zoo::vgg::vgg11()], 16);
        let ln = dnnperf_dnn::Layer::apply(
            dnnperf_dnn::LayerKind::LayerNorm,
            dnnperf_dnn::TensorShape::tokens(8, 8),
        )
        .unwrap();
        assert!(map.kernels_for(&ln).is_none());
    }

    #[test]
    fn merge_unions_signatures() {
        let a = a100_map(&[zoo::vgg::vgg11()], 16);
        let b = a100_map(&[zoo::mobilenet::mobilenet_v2(1.0, 1.0)], 16);
        let (la, lb) = (a.len(), b.len());
        let mut merged = a;
        merged.merge(b);
        assert!(merged.len() >= la.max(lb));
        assert!(merged.len() <= la + lb);
    }
}
