//! Index construction: parallel bounded-length path enumeration.
//!
//! Construction runs a depth-first enumeration of directed paths from every
//! start node, pruning by the anti-monotone bound `Prle · Prn ≥ β` (any
//! prefix of an indexable path is itself indexable — the property the paper
//! exploits to build length `l+1` from length `l`). Start nodes are
//! partitioned across the persistent [`pegpool`] worker pool (with a merge
//! barrier, mirroring the paper's per-length synchronization barrier);
//! each worker emits only canonically-oriented paths so every undirected
//! path/labeling pair is stored exactly once.

use crate::index::{IdentityOracle, PathIndex, PathIndexConfig, PathMatch, SeqBuckets};
use graphstore::hash::{FxHashMap, FxHashSet};
use graphstore::{EntityGraph, EntityId, Label};

/// Probability slack for threshold comparisons.
const EPS: f64 = 1e-12;

/// Builds the context-aware path index for `graph`.
pub fn build_index(
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    config: &PathIndexConfig,
) -> PathIndex {
    let starts: Vec<u32> = (0..graph.n_nodes() as u32).collect();
    let mut index = PathIndex::empty(config.clone());
    for partial in enumerate_partials(graph, oracle, config, &starts, None) {
        index.absorb(partial.seqs, |_| {});
    }
    index.rebuild_histograms();
    index
}

/// Incrementally patches `index` after a graph mutation, given the set of
/// `dirty` nodes (any node whose labels, incident edges, or existence
/// component may differ from the graph the index was built for; new nodes
/// must be marked dirty). Node ids must be stable across the mutation —
/// the entity-graph compiler guarantees this by tombstoning deletions.
///
/// The result is entry- and histogram-identical to [`build_index`] on the
/// mutated graph:
///
/// 1. every stored entry touching a dirty node is dropped (clean entries
///    are unaffected by construction of the dirty set);
/// 2. every canonical path containing a dirty node starts within
///    `max_len` hops of one, so re-running the enumeration from that ball,
///    emitting only dirty-touching paths, regenerates exactly the dropped
///    ones;
/// 3. histograms of affected sequences are recomputed with the same
///    integer loop full construction uses, and sequences left without
///    entries are removed entirely.
pub fn update_index(
    index: &mut PathIndex,
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    dirty: &[bool],
) {
    let config = index.config().clone();
    let is_dirty = |n: u32| dirty.get(n as usize).copied().unwrap_or(true);
    let mut affected: FxHashSet<Vec<u16>> = FxHashSet::default();

    // 1. Drop entries that touch a dirty node.
    let mut removed_total = 0usize;
    for (seq, sb) in index.map.iter_mut() {
        let stride = sb.stride;
        let mut removed_here = 0usize;
        for b in sb.buckets.iter_mut() {
            removed_here += b.retain(stride, |nodes| !nodes.iter().any(|&v| is_dirty(v)));
        }
        if removed_here > 0 {
            affected.insert(seq.clone());
            removed_total += removed_here;
        }
    }
    index.n_entries -= removed_total;

    // 2. Region: ball of `max_len` hops around the dirty set in the new
    // graph. The canonical start of any path containing a dirty node lies
    // inside it.
    let n = graph.n_nodes();
    let mut in_region = vec![false; n];
    let mut frontier: Vec<u32> = Vec::new();
    for (v, r) in in_region.iter_mut().enumerate() {
        if is_dirty(v as u32) {
            *r = true;
            frontier.push(v as u32);
        }
    }
    for _ in 0..config.max_len {
        if frontier.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for &v in &frontier {
            for &nb in graph.neighbors(EntityId(v)) {
                if !in_region[nb as usize] {
                    in_region[nb as usize] = true;
                    next.push(nb);
                }
            }
        }
        frontier = next;
    }
    let starts: Vec<u32> = (0..n as u32).filter(|&v| in_region[v as usize]).collect();

    // 3. Re-enumerate from the region, keeping only dirty-touching paths.
    for partial in enumerate_partials(graph, oracle, &config, &starts, Some(dirty)) {
        index.absorb(partial.seqs, |seq| {
            if !affected.contains(seq) {
                affected.insert(seq.to_vec());
            }
        });
    }

    // 4. Patch histograms of affected sequences; drop emptied sequences.
    for seq in affected {
        match index.map.get(&seq).and_then(|sb| sb.hist_counts(&config.hist_grid, &|_| true)) {
            Some(counts) => {
                index.hist.insert(seq, counts);
            }
            None => {
                index.map.remove(&seq);
                index.hist.remove(&seq);
            }
        }
    }
}

/// One worker's output: entries grouped by canonical label sequence in
/// first-emission order, each bucketed exactly as the index stores them.
/// Absorbing partials in worker order therefore reproduces the entry
/// order of inserting every emitted path one at a time.
struct Partial {
    n_buckets: usize,
    slot: FxHashMap<Vec<u16>, usize>,
    seqs: Vec<(Vec<u16>, SeqBuckets)>,
}

impl Partial {
    fn new(config: &PathIndexConfig) -> Self {
        Self { n_buckets: config.n_buckets(), slot: FxHashMap::default(), seqs: Vec::new() }
    }

    fn seq_buckets(&mut self, labels: &[u16]) -> &mut SeqBuckets {
        let i = match self.slot.get(labels) {
            Some(&i) => i,
            None => {
                self.slot.insert(labels.to_vec(), self.seqs.len());
                self.seqs.push((labels.to_vec(), SeqBuckets::new(labels.len(), self.n_buckets)));
                self.seqs.len() - 1
            }
        };
        &mut self.seqs[i].1
    }
}

/// Enumerates from `starts`, strided over `config.threads` workers (0 = all
/// cores) on the shared persistent pool; partials come back in worker
/// order, so the merged output is deterministic.
fn enumerate_partials(
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    config: &PathIndexConfig,
    starts: &[u32],
    dirty: Option<&[bool]>,
) -> Vec<Partial> {
    let threads = if config.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        config.threads
    };
    let threads = threads.clamp(1, starts.len().max(1));
    let run = |t: usize| {
        let mut out = Partial::new(config);
        for &v in starts.iter().skip(t).step_by(threads) {
            enumerate_from(graph, oracle, config, EntityId(v), dirty, &mut out);
        }
        out
    };
    if threads == 1 {
        vec![run(0)]
    } else {
        pegpool::pool_with(threads).map(threads, run)
    }
}

/// DFS state for one start node.
struct Walk<'a> {
    graph: &'a EntityGraph,
    oracle: &'a dyn IdentityOracle,
    config: &'a PathIndexConfig,
    /// When set (incremental update), only paths containing at least one
    /// flagged node are emitted. The walk itself is unrestricted — a clean
    /// prefix may pick up a dirty node later.
    dirty: Option<&'a [bool]>,
    nodes: Vec<EntityId>,
    labels: Vec<u16>,
    all_trivial: bool,
}

fn enumerate_from(
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    config: &PathIndexConfig,
    start: EntityId,
    dirty: Option<&[bool]>,
    out: &mut Partial,
) {
    let mut walk = Walk {
        graph,
        oracle,
        config,
        dirty,
        nodes: Vec::with_capacity(config.max_len + 1),
        labels: Vec::with_capacity(config.max_len + 1),
        all_trivial: true,
    };
    let start_trivial = oracle.always_exists(start);
    for l in graph.node(start).labels.support() {
        let lp = graph.label_prob(start, l);
        let prn = if start_trivial { 1.0 } else { oracle.prn(&[start]) };
        if lp * prn + EPS < config.beta {
            continue;
        }
        walk.nodes.push(start);
        walk.labels.push(l.0);
        walk.all_trivial = start_trivial;
        emit_if_canonical(&walk, lp, prn, out);
        extend(&mut walk, lp, out);
        walk.nodes.pop();
        walk.labels.pop();
    }
}

fn extend(walk: &mut Walk<'_>, prle: f64, out: &mut Partial) {
    if walk.nodes.len() > walk.config.max_len {
        return;
    }
    let last = *walk.nodes.last().unwrap();
    let last_label = Label(*walk.labels.last().unwrap());
    let neighbor_count = walk.graph.neighbors(last).len();
    for k in 0..neighbor_count {
        let (nb, edge) = {
            let lo = walk.graph.neighbors(last)[k];
            (EntityId(lo), walk.graph.edge_between(last, EntityId(lo)).unwrap())
        };
        if walk.nodes.contains(&nb) {
            continue;
        }
        if walk.graph.shares_ref_with_any(nb, &walk.nodes) {
            continue;
        }
        let nb_trivial = walk.oracle.always_exists(nb);
        let support: Vec<Label> = walk.graph.node(nb).labels.support().collect();
        for l in support {
            let lp = walk.graph.label_prob(nb, l);
            let ep = if edge.a == last {
                edge.prob.prob(last_label, l)
            } else {
                edge.prob.prob(l, last_label)
            };
            if lp <= 0.0 || ep <= 0.0 {
                continue;
            }
            let new_prle = prle * lp * ep;
            walk.nodes.push(nb);
            walk.labels.push(l.0);
            let was_trivial = walk.all_trivial;
            walk.all_trivial = walk.all_trivial && nb_trivial;
            let prn = if walk.all_trivial { 1.0 } else { walk.oracle.prn(&walk.nodes) };
            if new_prle * prn + EPS >= walk.config.beta {
                emit_if_canonical(walk, new_prle, prn, out);
                extend(walk, new_prle, out);
            }
            walk.nodes.pop();
            walk.labels.pop();
            walk.all_trivial = was_trivial;
        }
    }
}

fn emit_if_canonical(walk: &Walk<'_>, prle: f64, prn: f64, out: &mut Partial) {
    if let Some(dirty) = walk.dirty {
        let touches = walk.nodes.iter().any(|v| dirty.get(v.0 as usize).copied().unwrap_or(true));
        if !touches {
            return;
        }
    }
    let seq = &walk.labels;
    let is_canonical = {
        let rev_cmp = cmp_with_reversed(seq);
        match rev_cmp {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => {
                walk.nodes.len() == 1 || walk.nodes[0].0 < walk.nodes[walk.nodes.len() - 1].0
            }
        }
    };
    if !is_canonical {
        return;
    }
    let bucket = walk.config.bucket_of(prle * prn);
    out.seq_buckets(seq).buckets[bucket].push(walk.nodes.iter().map(|v| v.0), prle, prn);
}

/// Compares a sequence with its own reversal without allocating.
fn cmp_with_reversed(seq: &[u16]) -> std::cmp::Ordering {
    let n = seq.len();
    for i in 0..n {
        match seq[i].cmp(&seq[n - 1 - i]) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

/// On-demand path enumeration for thresholds *below* the index's `β`
/// (the paper's footnote: such paths are "computed on demand").
///
/// Walks the graph constrained to the exact `labels` sequence, returning all
/// directed matches with total probability ≥ `min_prob`.
pub fn enumerate_paths_online(
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    labels: &[Label],
    min_prob: f64,
) -> Vec<PathMatch> {
    let mut out = Vec::new();
    if labels.is_empty() {
        return out;
    }
    let mut nodes: Vec<EntityId> = Vec::with_capacity(labels.len());
    for v in graph.node_ids() {
        let lp = graph.label_prob(v, labels[0]);
        if lp <= 0.0 {
            continue;
        }
        nodes.push(v);
        walk_seq(graph, oracle, labels, min_prob, lp, &mut nodes, &mut out);
        nodes.pop();
    }
    out
}

fn walk_seq(
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    labels: &[Label],
    min_prob: f64,
    prle: f64,
    nodes: &mut Vec<EntityId>,
    out: &mut Vec<PathMatch>,
) {
    let depth = nodes.len();
    let prn = oracle.prn(nodes);
    if prle * prn + EPS < min_prob {
        return;
    }
    if depth == labels.len() {
        out.push(PathMatch { nodes: nodes.clone(), prle, prn });
        return;
    }
    let last = *nodes.last().unwrap();
    let want = labels[depth];
    let prev_label = labels[depth - 1];
    let deg = graph.neighbors(last).len();
    for k in 0..deg {
        let nb = EntityId(graph.neighbors(last)[k]);
        if nodes.contains(&nb) || graph.shares_ref_with_any(nb, nodes) {
            continue;
        }
        let lp = graph.label_prob(nb, want);
        if lp <= 0.0 {
            continue;
        }
        let ep = graph.edge_prob(last, nb, prev_label, want);
        if ep <= 0.0 {
            continue;
        }
        nodes.push(nb);
        walk_seq(graph, oracle, labels, min_prob, prle * lp * ep, nodes, out);
        nodes.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::NoIdentity;
    use graphstore::dist::{EdgeProbability, LabelDist};
    use graphstore::{EntityGraphBuilder, LabelTable, RefId};

    /// Triangle a-b-c plus a pendant: labels x,y,z,x; all edges prob 0.8.
    fn small_graph() -> EntityGraph {
        let table = LabelTable::from_names(["x", "y", "z"]);
        let n = table.len();
        let mut b = EntityGraphBuilder::new(table);
        let v0 = b.add_node(LabelDist::delta(Label(0), n), vec![RefId(0)]);
        let v1 = b.add_node(LabelDist::delta(Label(1), n), vec![RefId(1)]);
        let v2 = b.add_node(LabelDist::delta(Label(2), n), vec![RefId(2)]);
        let v3 = b.add_node(LabelDist::delta(Label(0), n), vec![RefId(3)]);
        for (u, v) in [(v0, v1), (v1, v2), (v0, v2), (v2, v3)] {
            b.add_edge(u, v, EdgeProbability::Independent(0.8));
        }
        b.build()
    }

    #[test]
    fn single_node_entries() {
        let g = small_graph();
        let cfg = PathIndexConfig { max_len: 0, beta: 0.5, ..Default::default() };
        let idx = build_index(&g, &NoIdentity, &cfg);
        // 4 nodes, one label each.
        assert_eq!(idx.n_entries(), 4);
        assert_eq!(idx.lookup(&[Label(0)], 0.5).len(), 2);
        assert_eq!(idx.lookup(&[Label(1)], 0.5).len(), 1);
    }

    #[test]
    fn length_one_paths_fold_symmetry() {
        let g = small_graph();
        let cfg = PathIndexConfig { max_len: 1, beta: 0.1, ..Default::default() };
        let idx = build_index(&g, &NoIdentity, &cfg);
        // Edges (x,y), (y,z), (x,z), (z,x): canonical label pairs.
        let xy = idx.lookup(&[Label(0), Label(1)], 0.1);
        assert_eq!(xy.len(), 1);
        let yx = idx.lookup(&[Label(1), Label(0)], 0.1);
        assert_eq!(yx.len(), 1);
        assert_eq!(xy[0].nodes.iter().rev().copied().collect::<Vec<_>>(), yx[0].nodes);
        // (x,z) matches two edges: v0-v2 and v3-v2.
        assert_eq!(idx.lookup(&[Label(0), Label(2)], 0.1).len(), 2);
    }

    #[test]
    fn beta_prunes_long_paths() {
        let g = small_graph();
        // Path of 2 edges has prob 0.8^2 = 0.64; of 3 edges 0.512.
        let cfg = PathIndexConfig { max_len: 3, beta: 0.6, ..Default::default() };
        let idx = build_index(&g, &NoIdentity, &cfg);
        let two = idx.lookup(&[Label(0), Label(1), Label(2)], 0.6);
        assert!(!two.is_empty());
        let three = idx.lookup(&[Label(0), Label(1), Label(2), Label(0)], 0.6);
        assert!(three.is_empty());
        // Lower beta admits them.
        let cfg2 = PathIndexConfig { max_len: 3, beta: 0.3, ..Default::default() };
        let idx2 = build_index(&g, &NoIdentity, &cfg2);
        assert!(!idx2.lookup(&[Label(0), Label(1), Label(2), Label(0)], 0.3).is_empty());
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let g = small_graph();
        let mut cfg = PathIndexConfig { max_len: 3, beta: 0.1, threads: 1, ..Default::default() };
        let seq = build_index(&g, &NoIdentity, &cfg);
        cfg.threads = 4;
        let par = build_index(&g, &NoIdentity, &cfg);
        assert_eq!(seq.n_entries(), par.n_entries());
        for labels in [
            vec![Label(0)],
            vec![Label(0), Label(1)],
            vec![Label(0), Label(1), Label(2)],
            vec![Label(0), Label(2), Label(0)],
        ] {
            let mut a = seq.lookup(&labels, 0.1);
            let mut b = par.lookup(&labels, 0.1);
            a.sort_by(|x, y| x.nodes.cmp(&y.nodes));
            b.sort_by(|x, y| x.nodes.cmp(&y.nodes));
            assert_eq!(a, b, "mismatch for {labels:?}");
        }
    }

    #[test]
    fn online_enumeration_matches_index() {
        let g = small_graph();
        let cfg = PathIndexConfig { max_len: 3, beta: 0.1, ..Default::default() };
        let idx = build_index(&g, &NoIdentity, &cfg);
        for labels in [
            vec![Label(0), Label(1)],
            vec![Label(0), Label(1), Label(2)],
            vec![Label(0), Label(2), Label(0)],
            vec![Label(2), Label(0)],
        ] {
            let mut a = idx.lookup(&labels, 0.2);
            let mut b = enumerate_paths_online(&g, &NoIdentity, &labels, 0.2);
            a.sort_by(|x, y| x.nodes.cmp(&y.nodes));
            b.sort_by(|x, y| x.nodes.cmp(&y.nodes));
            assert_eq!(a, b, "mismatch for {labels:?}");
        }
    }

    #[test]
    fn incremental_update_matches_rebuild() {
        let table = LabelTable::from_names(["x", "y", "z"]);
        let n = table.len();
        let build = |edge_prob: f64, pendant_label: Label| {
            let mut b = EntityGraphBuilder::new(table.clone());
            let v0 = b.add_node(LabelDist::delta(Label(0), n), vec![RefId(0)]);
            let v1 = b.add_node(LabelDist::delta(Label(1), n), vec![RefId(1)]);
            let v2 = b.add_node(LabelDist::delta(Label(2), n), vec![RefId(2)]);
            let v3 = b.add_node(LabelDist::delta(pendant_label, n), vec![RefId(3)]);
            for (u, v) in [(v0, v1), (v1, v2), (v0, v2)] {
                b.add_edge(u, v, EdgeProbability::Independent(0.8));
            }
            b.add_edge(v2, v3, EdgeProbability::Independent(edge_prob));
            b.build()
        };
        let before = build(0.8, Label(0));
        let after = build(0.5, Label(1));
        let cfg = PathIndexConfig { max_len: 3, beta: 0.1, threads: 1, ..Default::default() };

        let mut idx = build_index(&before, &NoIdentity, &cfg);
        // Edge (v2,v3) and v3's label changed: both endpoints are dirty.
        let dirty = vec![false, false, true, true];
        update_index(&mut idx, &after, &NoIdentity, &dirty);

        let fresh = build_index(&after, &NoIdentity, &cfg);
        assert_eq!(idx.n_entries(), fresh.n_entries());
        assert_eq!(idx.n_sequences(), fresh.n_sequences());
        for (seq, counts) in &fresh.hist {
            assert_eq!(idx.hist.get(seq), Some(counts), "hist mismatch for {seq:?}");
        }
        for seq in fresh.map.keys() {
            let labels: Vec<Label> = seq.iter().map(|&l| Label(l)).collect();
            let mut a = idx.lookup(&labels, 0.0);
            let mut b = fresh.lookup(&labels, 0.0);
            a.sort_by(|x, y| x.nodes.cmp(&y.nodes));
            b.sort_by(|x, y| x.nodes.cmp(&y.nodes));
            assert_eq!(a, b, "entries mismatch for {seq:?}");
        }
    }

    #[test]
    fn palindromic_sequences_counted_once_per_direction() {
        let g = small_graph();
        let cfg = PathIndexConfig { max_len: 2, beta: 0.1, ..Default::default() };
        let idx = build_index(&g, &NoIdentity, &cfg);
        // x-z-x path: v0-v2-v3 (labels x,z,x). Palindromic: both directions.
        let got = idx.lookup(&[Label(0), Label(2), Label(0)], 0.1);
        assert_eq!(got.len(), 2);
        let ns: Vec<Vec<u32>> = got.iter().map(|m| m.nodes.iter().map(|v| v.0).collect()).collect();
        assert!(ns.contains(&vec![0, 2, 3]));
        assert!(ns.contains(&vec![3, 2, 0]));
    }
}
