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
//! distance) for shapes unseen in training. An exact hit is one probe of a
//! hash index over the sizes. Each recorded signature keeps its log
//! coordinates, so a lookup allocates nothing, and a miss is an exact pruned
//! search: each type's candidates are sorted by their flops coordinate and
//! scanned outward from the query.
//!
//! The table interns its kernel symbols: each gets a kernel id, and each
//! recorded signature keeps its kernels' ids next to their names. A model
//! resolves what it knows about every symbol once, into a `ById` table,
//! so pricing a layer reads its terms by index instead of by name.

use dnnperf_data::KernelRow;
use dnnperf_dnn::flops::layer_flops;
use dnnperf_dnn::Layer;
use std::collections::BTreeMap;
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
pub(crate) type SizeKey = (u64, u64, u64);

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

/// A layer's per-sample sizes. A walk takes them once per layer.
pub(crate) fn sizes_of(layer: &Layer) -> SizeKey {
    (
        layer.input.elems() as u64,
        layer_flops(layer),
        layer.output.elems() as u64,
    )
}

/// The three driver variables of a layer at `batch`: input elements,
/// FLOPs and output elements, indexed by [`crate::Driver::index`].
pub(crate) fn drivers((in_per, flops_per, out_per): SizeKey, batch: usize) -> [f64; 3] {
    let n = batch as f64;
    [in_per as f64 * n, flops_per as f64 * n, out_per as f64 * n]
}

/// The index of the flops coordinate in [`log_coords`]: the axis the
/// nearest fallback's candidates are sorted and pruned on.
const FLOPS: usize = 1;

/// `ln(x + 1)` of each size: the space the nearest fallback measures in.
fn log_coords((in_per, flops_per, out_per): SizeKey) -> [f64; 3] {
    let ln = |x: u64| ((x + 1) as f64).ln();
    [ln(in_per), ln(flops_per), ln(out_per)]
}

/// Squared log-space distance from a query to a candidate, summed in the
/// order in, flops, out. Its second term is [`flops_gap`].
fn distance(q: [f64; 3], c: [f64; 3]) -> f64 {
    let ([qi, _, qo], [ci, _, co]) = (q, c);
    (qi - ci) * (qi - ci) + flops_gap(q, c) + (qo - co) * (qo - co)
}

/// The flops term of [`distance`], and a lower bound of the whole rounded
/// sum: every term is non-negative and rounding is monotone, so
/// `fl(fl(a + b) + c) >= fl(a + b) >= b`.
fn flops_gap([_, qf, _]: [f64; 3], [_, cf, _]: [f64; 3]) -> f64 {
    (qf - cf) * (qf - cf)
}

/// The learned mapping from layer signatures to kernel name lists.
#[derive(Debug, Clone, Default)]
pub struct KernelMap {
    /// Every recorded signature, in insertion order, which breaks
    /// distance ties in the nearest fallback.
    entries: Vec<Recorded>,
    /// Exact-match index over `entries`.
    index: ExactIndex,
    /// Per layer type, the nearest fallback's candidates, sorted by their
    /// flops coordinate and, among equal ones, by position in `entries`.
    by_tag: BTreeMap<Arc<str>, Vec<Candidate>>,
    /// Interned kernel symbols; a symbol's position is its kernel id.
    symbols: Vec<Arc<str>>,
    /// Symbol -> kernel id.
    ids: BTreeMap<Arc<str>, usize>,
}

/// One recorded signature and the kernels it launches.
#[derive(Debug, Clone)]
pub(crate) struct Recorded {
    sig: LayerSignature,
    kernels: Vec<Arc<str>>,
    /// The kernel id of each of `kernels`, in the same order.
    ids: Box<[usize]>,
}

impl Recorded {
    /// The kernel ids of the signature's kernel list, in launch order.
    pub(crate) fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// The signature's kernel symbols, in launch order.
    pub(crate) fn kernels(&self) -> &[Arc<str>] {
        &self.kernels
    }
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// [`log_coords`] of the signature, taken once at insert.
    coords: [f64; 3],
    /// Position of the signature in `entries`.
    pos: usize,
}

/// An open-addressing hash index from a signature to its position in
/// `entries`: an exact hit hashes the three sizes and probes a few slots,
/// with no tree walk. It is only probed, never iterated, so its layout
/// reaches no output. Probe runs are set by the recorded signatures alone:
/// a query cannot lengthen them.
#[derive(Debug, Clone, Default)]
struct ExactIndex {
    /// `position + 1` of an entry, or 0 for an empty slot. The length is
    /// zero or a power of two, and at most half the slots are full.
    slots: Vec<usize>,
}

impl ExactIndex {
    /// The first slot to probe for `sizes`, before masking.
    fn home((in_per, flops_per, out_per): SizeKey) -> usize {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let h = ((in_per.wrapping_mul(K) ^ flops_per).wrapping_mul(K) ^ out_per).wrapping_mul(K);
        (h >> 32) as usize
    }

    /// The position of the entry recorded for `tag` and `sizes`.
    fn find(&self, entries: &[Recorded], tag: &str, sizes: SizeKey) -> Option<usize> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut i = Self::home(sizes) & mask;
        loop {
            // An empty slot (0) ends the probe.
            let pos = self.slots.get(i)?.checked_sub(1)?;
            let sig = &entries.get(pos)?.sig;
            if sig.size_key() == sizes && *sig.tag == *tag {
                return Some(pos);
            }
            i = (i + 1) & mask;
        }
    }

    /// Indexes the last of `entries`, first growing (and rebuilding) the
    /// slots if that would fill more than half of them.
    fn push(&mut self, entries: &[Recorded]) {
        let n = entries.len();
        if 2 * n > self.slots.len() {
            self.slots = vec![0; (2 * n).next_power_of_two()];
            for (pos, e) in entries.iter().enumerate() {
                self.place(e.sig.size_key(), pos);
            }
        } else if let Some(e) = entries.last() {
            self.place(e.sig.size_key(), n - 1);
        }
    }

    fn place(&mut self, sizes: SizeKey, pos: usize) {
        let mask = self.slots.len().wrapping_sub(1);
        let mut i = Self::home(sizes) & mask;
        while let Some(slot) = self.slots.get_mut(i) {
            if *slot == 0 {
                *slot = pos + 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }
}

impl KernelMap {
    /// The recorded signature nearest to `q` among one type's
    /// `candidates`, the lowest position winning an exact distance tie:
    /// `Iterator::min_by` over the type's entries in insertion order,
    /// without visiting every candidate. The scan moves outward from the
    /// query's flops coordinate, always to the side with the smaller
    /// [`flops_gap`], and stops once that gap exceeds the best distance
    /// found. Gaps only grow outward and each bounds its candidate's
    /// distance from below, so every candidate at or below the final best
    /// distance is visited.
    fn nearest(&self, c: &[Candidate], q: [f64; 3]) -> Option<&Recorded> {
        let gap = |i: usize| c.get(i).map(|x| (i, flops_gap(q, x.coords)));
        // The next candidates outward: `lo - 1` below the query, `hi` above.
        let mut hi = c.partition_point(|x| x.coords[FLOPS] < q[FLOPS]);
        let mut lo = hi;
        let mut best: Option<(f64, usize)> = None;
        loop {
            let (i, g) = match (lo.checked_sub(1).and_then(gap), gap(hi)) {
                (Some(down), Some(up)) if up.1 < down.1 => up,
                (Some(down), _) => down,
                (None, Some(up)) => up,
                (None, None) => break,
            };
            if best.is_some_and(|(bd, _)| g > bd) {
                break;
            }
            let Some(cand) = c.get(i) else { break };
            let d = distance(q, cand.coords);
            if best.is_none_or(|(bd, bp)| d < bd || (d == bd && cand.pos < bp)) {
                best = Some((d, cand.pos));
            }
            if i < hi {
                lo = i;
            } else {
                hi = i + 1;
            }
        }
        self.entries.get(best?.1)
    }
}

impl PartialEq for KernelMap {
    fn eq(&self, other: &Self) -> bool {
        // Equality compares the recorded entries, not their insertion
        // order (which differs between a trained map and its loaded copy)
        // nor the kernel ids (first-insert order, likewise). Insertion
        // order does decide exact distance ties in the nearest fallback,
        // so equal maps may answer a tied miss differently.
        self.entries().eq(other.entries())
    }
}

/// A table indexed by kernel id: what one model knows about each of its
/// [`KernelMap`]'s interned symbols, resolved once by
/// [`KernelMap::resolve`] when the model is built.
///
/// Kernel ids follow insertion order, which differs between a trained
/// model and its loaded copy, while the table is a function of the
/// model's recorded content. It therefore takes no part in equality:
/// every two tables compare equal.
#[derive(Debug, Clone, Default)]
pub(crate) struct ById<T>(Vec<T>);

impl<T> ById<T> {
    /// The entry of kernel id `id`.
    pub(crate) fn get(&self, id: usize) -> Option<&T> {
        self.0.get(id)
    }
}

impl<T> PartialEq for ById<T> {
    fn eq(&self, _: &Self) -> bool {
        true
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
        let key = sig.size_key();
        if self.index.find(&self.entries, &sig.tag, key).is_some() {
            return;
        }
        let (kernels, ids): (Vec<_>, Vec<_>) = kernels.into_iter().map(|k| self.intern(k)).unzip();
        let coords = log_coords(key);
        let candidates = self.by_tag.entry(sig.tag.clone()).or_default();
        let at = candidates.partition_point(|c| c.coords[FLOPS].total_cmp(&coords[FLOPS]).is_le());
        let pos = self.entries.len();
        candidates.insert(at, Candidate { coords, pos });
        self.entries.push(Recorded {
            sig,
            kernels,
            ids: ids.into_boxed_slice(),
        });
        self.index.push(&self.entries);
    }

    /// The shared `Arc` and the kernel id of symbol `k`, interning it on
    /// first sight.
    fn intern(&mut self, k: Arc<str>) -> (Arc<str>, usize) {
        if let Some((shared, &id)) = self.ids.get_key_value(&k) {
            return (shared.clone(), id);
        }
        let id = self.symbols.len();
        self.symbols.push(k.clone());
        self.ids.insert(k.clone(), id);
        (k, id)
    }

    /// Merges another table into this one (first write wins per signature),
    /// inserting the other table's entries in [`LayerSignature`] order.
    pub fn merge(&mut self, other: KernelMap) {
        let mut entries = other.entries;
        entries.sort_unstable_by(|a, b| a.sig.cmp(&b.sig));
        for e in entries {
            self.insert(e.sig, e.kernels);
        }
    }

    /// Number of distinct signatures recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all recorded (signature, kernel list) entries in
    /// [`LayerSignature`] order.
    pub fn entries(&self) -> impl Iterator<Item = (&LayerSignature, &[Arc<str>])> {
        let mut sorted: Vec<&Recorded> = self.entries.iter().collect();
        sorted.sort_unstable_by(|a, b| a.sig.cmp(&b.sig));
        sorted.into_iter().map(|e| (&e.sig, e.kernels()))
    }

    /// Looks up the kernel list for a layer: exact signature match first,
    /// then the nearest recorded signature of the same layer type (the
    /// first recorded one on an exact distance tie). Allocates nothing.
    ///
    /// Returns `None` if no layer of this type was ever recorded — which,
    /// for types like `flatten` that launch no kernels, is the correct
    /// "free" answer.
    pub fn kernels_for(&self, layer: &Layer) -> Option<&[Arc<str>]> {
        self.lookup(layer.type_tag(), sizes_of(layer))
            .map(Recorded::kernels)
    }

    /// The recorded entry [`KernelMap::kernels_for`] answers from, for a
    /// layer of type `tag` with per-sample `sizes`.
    pub(crate) fn lookup(&self, tag: &str, sizes: SizeKey) -> Option<&Recorded> {
        match self.index.find(&self.entries, tag, sizes) {
            Some(pos) => self.entries.get(pos),
            None => self.nearest(self.by_tag.get(tag)?, log_coords(sizes)),
        }
    }

    /// Resolves every interned kernel symbol once, in kernel-id order.
    pub(crate) fn resolve<T>(&self, mut f: impl FnMut(&str) -> T) -> ById<T> {
        ById(self.symbols.iter().map(|k| f(k)).collect())
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
