//! In-memory index structure and lookups.

use crate::histogram::estimate_at;
use graphstore::hash::FxHashMap;
use graphstore::{EntityId, Label};

/// Identity-uncertainty oracle: the piece of the PEG the index needs.
///
/// Implemented by `pegmatch::model::ExistenceModel`; kept as a trait so this
/// crate stays below the core library in the dependency graph.
pub trait IdentityOracle: Sync {
    /// `Prn` of a set of entity nodes: probability they co-exist.
    fn prn(&self, nodes: &[EntityId]) -> f64;

    /// Fast path: node exists in every world (lets builders skip `prn`).
    fn always_exists(&self, _v: EntityId) -> bool {
        false
    }
}

/// Trivial oracle for graphs without identity uncertainty.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoIdentity;

impl IdentityOracle for NoIdentity {
    fn prn(&self, _nodes: &[EntityId]) -> f64 {
        1.0
    }

    fn always_exists(&self, _v: EntityId) -> bool {
        true
    }
}

/// Construction parameters.
#[derive(Clone, Debug)]
pub struct PathIndexConfig {
    /// Maximum path length `L` in edges (0 = single nodes only).
    pub max_len: usize,
    /// Probability lower bound `β` for indexed paths.
    pub beta: f64,
    /// Bucket resolution `γ`.
    pub gamma: f64,
    /// Worker threads for construction (0 = all available cores).
    pub threads: usize,
    /// Histogram probability points (ascending).
    pub hist_grid: Vec<f64>,
}

impl Default for PathIndexConfig {
    fn default() -> Self {
        Self {
            max_len: 3,
            beta: 0.3,
            gamma: 0.1,
            threads: 0,
            hist_grid: crate::DEFAULT_HIST_GRID.to_vec(),
        }
    }
}

impl PathIndexConfig {
    /// Number of buckets implied by `gamma`.
    pub fn n_buckets(&self) -> usize {
        (1.0 / self.gamma).ceil() as usize + 1
    }

    /// Bucket index for probability `p`.
    pub fn bucket_of(&self, p: f64) -> usize {
        ((p / self.gamma) as usize).min(self.n_buckets() - 1)
    }
}

/// A borrowed view of one stored path under a specific label assignment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathRef<'a> {
    /// Node ids along the path (canonical orientation).
    pub nodes: &'a [u32],
    /// `Prle` under the key's label assignment.
    pub prle: f64,
    /// `Prn` of the path's node set.
    pub prn: f64,
}

impl PathRef<'_> {
    /// Total probability `Prle · Prn`.
    #[inline]
    pub fn prob(&self) -> f64 {
        self.prle * self.prn
    }
}

/// A directed path match returned by lookups.
#[derive(Clone, Debug, PartialEq)]
pub struct PathMatch {
    /// Node ids in query orientation: `nodes[i]` matches position `i` of the
    /// requested label sequence.
    pub nodes: Vec<EntityId>,
    /// `Prle` under the requested label sequence.
    pub prle: f64,
    /// `Prn` of the node set.
    pub prn: f64,
}

impl PathMatch {
    /// Total probability.
    #[inline]
    pub fn prob(&self) -> f64 {
        self.prle * self.prn
    }
}

/// One probability bucket, struct-of-arrays: entry `i` is
/// `nodes[i * stride..(i + 1) * stride]`, `prle[i]`, `prn[i]`, where the
/// stride is the length of the bucket's label sequence.
#[derive(Clone, Debug, Default)]
pub(crate) struct Bucket {
    pub(crate) nodes: Vec<u32>,
    pub(crate) prle: Vec<f64>,
    pub(crate) prn: Vec<f64>,
}

impl Bucket {
    pub(crate) fn len(&self) -> usize {
        self.prle.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.prle.is_empty()
    }

    pub(crate) fn push(&mut self, nodes: impl IntoIterator<Item = u32>, prle: f64, prn: f64) {
        self.nodes.extend(nodes);
        self.prle.push(prle);
        self.prn.push(prn);
    }

    /// Entries in storage order.
    pub(crate) fn iter(&self, stride: usize) -> impl Iterator<Item = PathRef<'_>> {
        self.nodes
            .chunks_exact(stride)
            .zip(self.prle.iter().zip(&self.prn))
            .map(|(nodes, (&prle, &prn))| PathRef { nodes, prle, prn })
    }

    /// Keeps the entries whose nodes satisfy `keep`, compacting in place
    /// without reordering; returns how many were dropped.
    pub(crate) fn retain(&mut self, stride: usize, keep: impl Fn(&[u32]) -> bool) -> usize {
        let n = self.len();
        let mut w = 0;
        for r in 0..n {
            if !keep(&self.nodes[r * stride..(r + 1) * stride]) {
                continue;
            }
            if w != r {
                self.nodes.copy_within(r * stride..(r + 1) * stride, w * stride);
                self.prle[w] = self.prle[r];
                self.prn[w] = self.prn[r];
            }
            w += 1;
        }
        self.nodes.truncate(w * stride);
        self.prle.truncate(w);
        self.prn.truncate(w);
        n - w
    }
}

/// Per-canonical-sequence storage: entries bucketed by total probability.
#[derive(Clone, Debug)]
pub(crate) struct SeqBuckets {
    /// Nodes per entry: the length of the label sequence.
    pub(crate) stride: usize,
    pub(crate) buckets: Vec<Bucket>,
}

impl SeqBuckets {
    pub(crate) fn new(stride: usize, n_buckets: usize) -> Self {
        Self { stride, buckets: vec![Bucket::default(); n_buckets] }
    }

    pub(crate) fn len(&self) -> usize {
        self.buckets.iter().map(Bucket::len).sum()
    }

    /// Every entry, bucket by bucket, in storage order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = PathRef<'_>> {
        self.buckets.iter().flat_map(move |b| b.iter(self.stride))
    }

    /// Moves `other`'s entries to the end of the matching buckets.
    pub(crate) fn append(&mut self, other: SeqBuckets) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets) {
            if dst.is_empty() {
                *dst = src;
            } else {
                dst.nodes.extend_from_slice(&src.nodes);
                dst.prle.extend_from_slice(&src.prle);
                dst.prn.extend_from_slice(&src.prn);
            }
        }
    }

    /// Histogram counts over the entries satisfying `keep`, or `None` when
    /// none does.
    pub(crate) fn hist_counts(
        &self,
        grid: &[f64],
        keep: &dyn Fn(&PathRef<'_>) -> bool,
    ) -> Option<Vec<u32>> {
        let mut counts = vec![0u32; grid.len()];
        let mut any = false;
        for e in self.iter().filter(|e| keep(e)) {
            any = true;
            let p = e.prob();
            for (c, &g) in counts.iter_mut().zip(grid) {
                if p >= g {
                    *c += 1;
                }
            }
        }
        any.then_some(counts)
    }
}

/// The context-aware path index (in-memory form).
#[derive(Clone, Debug)]
pub struct PathIndex {
    config: PathIndexConfig,
    pub(crate) map: FxHashMap<Vec<u16>, SeqBuckets>,
    /// Histogram per canonical sequence: counts of entries with total
    /// probability ≥ each grid point.
    pub(crate) hist: FxHashMap<Vec<u16>, Vec<u32>>,
    pub(crate) n_entries: usize,
}

/// Canonical orientation of a label sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Orientation {
    /// The requested sequence is stored as-is.
    Forward,
    /// The requested sequence is stored reversed.
    Reverse,
    /// Palindromic: stored entries yield both directions.
    Palindrome,
}

pub(crate) fn canonicalize(seq: &[u16]) -> (Vec<u16>, Orientation) {
    let rev: Vec<u16> = seq.iter().rev().copied().collect();
    match seq.cmp(rev.as_slice()) {
        std::cmp::Ordering::Less => (seq.to_vec(), Orientation::Forward),
        std::cmp::Ordering::Greater => (rev, Orientation::Reverse),
        std::cmp::Ordering::Equal => (seq.to_vec(), Orientation::Palindrome),
    }
}

/// Canonical storage orientation of a label sequence, plus whether the
/// sequence is palindromic (palindromic lookups yield both directions per
/// stored entry, which doubles histogram estimates).
///
/// Public so composite stores (e.g. a sharded store merging per-shard
/// histograms) can reproduce [`PathIndex::estimate_count`]'s keying
/// exactly.
pub fn canonical_label_seq(labels: &[Label]) -> (Vec<u16>, bool) {
    let seq: Vec<u16> = labels.iter().map(|l| l.0).collect();
    let (canonical, orient) = canonicalize(&seq);
    (canonical, orient == Orientation::Palindrome)
}

/// The estimation core shared by [`PathIndex::estimate_count`] and
/// composite stores holding merged histograms: interpolate `counts` at
/// `alpha` over `grid` and double palindromic multi-node sequences (their
/// entries answer both directions). Keeping this in one place is what
/// guarantees a store with bit-identical counts produces bit-identical
/// estimates.
pub fn estimate_from_counts(
    grid: &[f64],
    counts: &[u32],
    alpha: f64,
    palindrome: bool,
    seq_len: usize,
) -> f64 {
    let base = estimate_at(grid, counts, alpha);
    let factor = if palindrome && seq_len > 1 { 2.0 } else { 1.0 };
    base * factor
}

impl PathIndex {
    pub(crate) fn empty(config: PathIndexConfig) -> Self {
        Self { config, map: FxHashMap::default(), hist: FxHashMap::default(), n_entries: 0 }
    }

    /// The construction parameters.
    pub fn config(&self) -> &PathIndexConfig {
        &self.config
    }

    /// Total stored entries (canonical paths × label assignments).
    pub fn n_entries(&self) -> usize {
        self.n_entries
    }

    /// Number of distinct canonical label sequences.
    pub fn n_sequences(&self) -> usize {
        self.map.len()
    }

    /// Approximate in-memory footprint in bytes.
    pub fn approx_bytes(&self) -> u64 {
        let mut total = 0u64;
        for (k, v) in &self.map {
            total += (k.len() * 2 + 56) as u64;
            for b in &v.buckets {
                total += (72 + b.nodes.len() * 4 + b.len() * 16) as u64;
            }
        }
        for (k, v) in &self.hist {
            total += (k.len() * 2 + v.len() * 4 + 48) as u64;
        }
        total
    }

    /// Every stored entry with its canonical label sequence and
    /// probability bucket, in storage order (for equivalence checks).
    pub fn entries(&self) -> impl Iterator<Item = (&[u16], usize, PathRef<'_>)> {
        self.map.iter().flat_map(|(seq, sb)| {
            sb.buckets.iter().enumerate().flat_map(move |(bucket, b)| {
                b.iter(sb.stride).map(move |e| (seq.as_slice(), bucket, e))
            })
        })
    }

    /// Histogram counts of a canonical label sequence (one per grid point).
    pub fn histogram(&self, canonical: &[u16]) -> Option<&[u32]> {
        self.hist.get(canonical).map(Vec::as_slice)
    }

    pub(crate) fn insert(&mut self, canonical: &[u16], entry: PathRef<'_>) {
        let bucket = self.config.bucket_of(entry.prob());
        let n_buckets = self.config.n_buckets();
        if !self.map.contains_key(canonical) {
            self.map.insert(canonical.to_vec(), SeqBuckets::new(canonical.len(), n_buckets));
        }
        let sb = self.map.get_mut(canonical).unwrap();
        sb.buckets[bucket].push(entry.nodes.iter().copied(), entry.prle, entry.prn);
        self.n_entries += 1;
    }

    /// Appends a worker's output sequence by sequence, calling `touched`
    /// on each sequence before it lands.
    pub(crate) fn absorb(
        &mut self,
        seqs: Vec<(Vec<u16>, SeqBuckets)>,
        mut touched: impl FnMut(&[u16]),
    ) {
        for (seq, sb) in seqs {
            touched(&seq);
            self.n_entries += sb.len();
            match self.map.get_mut(&seq) {
                Some(dst) => dst.append(sb),
                None => {
                    self.map.insert(seq, sb);
                }
            }
        }
    }

    /// Rebuilds the per-sequence histograms from the stored entries.
    pub(crate) fn rebuild_histograms(&mut self) {
        self.hist.clear();
        let grid = &self.config.hist_grid;
        for (seq, sb) in &self.map {
            let counts = sb.hist_counts(grid, &|_| true).unwrap_or_else(|| vec![0; grid.len()]);
            self.hist.insert(seq.clone(), counts);
        }
    }

    /// Per-sequence histogram counts over the subset of entries
    /// satisfying `keep` — computed exactly as the index's own histograms
    /// are, but with non-matching entries skipped. Sequences with no kept
    /// entry are omitted; the output is sorted by sequence for
    /// deterministic iteration.
    ///
    /// A sharded store uses this to count each path exactly once (at the
    /// shard that owns it), so that summing per-shard histograms
    /// element-wise reproduces the unsharded histogram — and with it,
    /// bit-identical cardinality estimates.
    pub fn histogram_counts_where(
        &self,
        keep: &dyn Fn(&PathRef<'_>) -> bool,
    ) -> Vec<(Vec<u16>, Vec<u32>)> {
        let grid = &self.config.hist_grid;
        let mut out: Vec<(Vec<u16>, Vec<u32>)> = self
            .map
            .iter()
            .filter_map(|(seq, sb)| Some((seq.clone(), sb.hist_counts(grid, keep)?)))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// All directed path matches for `labels` with total probability
    /// ≥ `min_prob`. (`PIndex(lQ(VP), α)` of the paper.)
    pub fn lookup(&self, labels: &[Label], min_prob: f64) -> Vec<PathMatch> {
        let seq: Vec<u16> = labels.iter().map(|l| l.0).collect();
        let (canonical, orient) = canonicalize(&seq);
        let Some(sb) = self.map.get(&canonical) else {
            return Vec::new();
        };
        // Start one bucket early: floating-point probabilities a hair below
        // `min_prob` may land in the previous bucket yet pass the exact
        // (epsilon-tolerant) per-entry filter below.
        let start_bucket = self.config.bucket_of(min_prob).saturating_sub(1);
        let mut out = Vec::new();
        for b in &sb.buckets[start_bucket..] {
            for e in b.iter(sb.stride) {
                if e.prob() + 1e-12 < min_prob {
                    continue;
                }
                push_matches(&mut out, e, orient);
            }
        }
        out
    }

    /// Exact number of directed matches for `labels` at threshold `alpha`
    /// (linear in the candidate buckets; used by tests and small queries).
    pub fn count_exact(&self, labels: &[Label], alpha: f64) -> usize {
        self.lookup(labels, alpha).len()
    }

    /// Histogram-based estimate of `|PIndex(labels, alpha)|` using
    /// exponential interpolation between grid points (Section 5.2.1).
    pub fn estimate_count(&self, labels: &[Label], alpha: f64) -> f64 {
        let seq: Vec<u16> = labels.iter().map(|l| l.0).collect();
        let (canonical, orient) = canonicalize(&seq);
        let Some(counts) = self.hist.get(&canonical) else {
            return 0.0;
        };
        estimate_from_counts(
            &self.config.hist_grid,
            counts,
            alpha,
            orient == Orientation::Palindrome,
            labels.len(),
        )
    }
}

/// Appends the directed matches of stored entry `e` for a lookup whose
/// sequence has orientation `orient` (both directions for palindromes).
pub(crate) fn push_matches(out: &mut Vec<PathMatch>, e: PathRef<'_>, orient: Orientation) {
    let to_match = |reverse: bool| {
        let nodes: Vec<EntityId> = if reverse {
            e.nodes.iter().rev().map(|&n| EntityId(n)).collect()
        } else {
            e.nodes.iter().map(|&n| EntityId(n)).collect()
        };
        PathMatch { nodes, prle: e.prle, prn: e.prn }
    };
    match orient {
        Orientation::Forward => out.push(to_match(false)),
        Orientation::Reverse => out.push(to_match(true)),
        Orientation::Palindrome => {
            out.push(to_match(false));
            if e.nodes.len() > 1 {
                out.push(to_match(true));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization() {
        assert_eq!(canonicalize(&[1, 2, 3]), (vec![1, 2, 3], Orientation::Forward));
        assert_eq!(canonicalize(&[3, 2, 1]), (vec![1, 2, 3], Orientation::Reverse));
        assert_eq!(canonicalize(&[2, 1, 2]), (vec![2, 1, 2], Orientation::Palindrome));
        assert_eq!(canonicalize(&[5]), (vec![5], Orientation::Palindrome));
    }

    #[test]
    fn bucket_math() {
        let cfg = PathIndexConfig { gamma: 0.1, ..Default::default() };
        assert_eq!(cfg.n_buckets(), 11);
        assert_eq!(cfg.bucket_of(0.0), 0);
        assert_eq!(cfg.bucket_of(0.55), 5);
        assert_eq!(cfg.bucket_of(1.0), 10);
    }

    #[test]
    fn insert_lookup_direction_handling() {
        let mut idx = PathIndex::empty(PathIndexConfig::default());
        // Canonical sequence [1,2,3] with a path 10-11-12.
        idx.insert(&[1, 2, 3], PathRef { nodes: &[10, 11, 12], prle: 0.8, prn: 1.0 });
        idx.rebuild_histograms();

        let fwd = idx.lookup(&[Label(1), Label(2), Label(3)], 0.5);
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].nodes, vec![EntityId(10), EntityId(11), EntityId(12)]);

        let rev = idx.lookup(&[Label(3), Label(2), Label(1)], 0.5);
        assert_eq!(rev.len(), 1);
        assert_eq!(rev[0].nodes, vec![EntityId(12), EntityId(11), EntityId(10)]);

        assert!(idx.lookup(&[Label(1), Label(2), Label(3)], 0.9).is_empty());
        assert!(idx.lookup(&[Label(9)], 0.1).is_empty());
    }

    #[test]
    fn palindrome_yields_both_directions() {
        let mut idx = PathIndex::empty(PathIndexConfig::default());
        idx.insert(&[1, 2, 1], PathRef { nodes: &[5, 6, 7], prle: 0.9, prn: 1.0 });
        idx.rebuild_histograms();
        let got = idx.lookup(&[Label(1), Label(2), Label(1)], 0.1);
        assert_eq!(got.len(), 2);
        assert_ne!(got[0].nodes, got[1].nodes);
        // Single nodes are not doubled.
        let mut idx2 = PathIndex::empty(PathIndexConfig::default());
        idx2.insert(&[4], PathRef { nodes: &[9], prle: 1.0, prn: 1.0 });
        assert_eq!(idx2.lookup(&[Label(4)], 0.5).len(), 1);
    }

    #[test]
    fn estimate_uses_histogram_and_palindrome_factor() {
        let mut idx = PathIndex::empty(PathIndexConfig::default());
        for i in 0..10 {
            idx.insert(&[1, 2, 1], PathRef { nodes: &[i, i + 100, i + 200], prle: 0.55, prn: 1.0 });
        }
        idx.rebuild_histograms();
        let est = idx.estimate_count(&[Label(1), Label(2), Label(1)], 0.5);
        assert!((est - 20.0).abs() < 1e-9, "est = {est}");
        let exact = idx.count_exact(&[Label(1), Label(2), Label(1)], 0.5);
        assert_eq!(exact, 20);
    }
}
