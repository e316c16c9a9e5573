//! Differential test: the arena-direct k-partite builder equals the nested
//! reference builder, field for field and bit for bit.
//!
//! `build_kpartite` writes vertex rows, perception rows and CSR links
//! straight into the graph's arenas and runs the join admission test off
//! precomputed factor rows. The reference below is the nested builder it
//! replaced, kept verbatim: one `Vert` per candidate, a lookup table keyed
//! on heap vectors, a per-pair admission test that looks every factor up
//! again, and `KPartiteGraph::from_partitions` to sort, dedup and flatten.
//! Both must produce the same images, links, alive-link counts and the
//! same bits of `w1`, `w2` and every perception entry — across random
//! PEGs, path and cyclic shapes whose paths share 1, 2 and 3 nodes, an α
//! ladder, pool lanes {1, 2}, an empty partition and single-node paths.

use datagen::{random_query, synthetic_refgraph, QuerySpec, SyntheticConfig};
use graphstore::hash::FxHashMap;
use graphstore::{EntityId, Label};
use pathindex::PathIndexConfig;
use pegmatch::model::PegBuilder;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegmatch::online::build_kpartite;
use pegmatch::online::candidates::{find_candidates, CandidateSet, NodeCandidateCache, PathStats};
use pegmatch::online::decompose::{decompose, DecompStrategy, Decomposition, QueryPath};
use pegmatch::online::kpartite::{CoverAssignment, KPartiteGraph, Partition, Vert};
use pegmatch::query::{QNode, QueryGraph};
use pegmatch::Peg;

const EPS: f64 = 1e-12;

/// The nested builder `build_kpartite` replaced, verbatim.
fn reference_build(
    peg: &Peg,
    query: &QueryGraph,
    decomp: &Decomposition,
    candidate_sets: &[CandidateSet],
    alpha: f64,
    pool: &pegpool::ThreadPool,
) -> KPartiteGraph {
    let k = decomp.paths.len();
    let cover = CoverAssignment::new(query, decomp);

    let mut partitions: Vec<Partition> = Vec::with_capacity(k);
    for i in 0..k {
        let joined = decomp.joins[i].clone();
        let path = &decomp.paths[i];
        let make_vert = |pm: &pathindex::PathMatch| {
            let mut w1 = 1.0;
            for &pos in &cover.owned_nodes[i] {
                w1 *= peg.graph.label_prob(pm.nodes[pos], query.label(path.nodes[pos]));
            }
            for &(a, b) in &cover.owned_edges[i] {
                w1 *= peg.graph.edge_prob(
                    pm.nodes[a],
                    pm.nodes[b],
                    query.label(path.nodes[a]),
                    query.label(path.nodes[b]),
                );
            }
            let mut perception = vec![1.0; k];
            perception[i] = w1;
            Vert {
                nodes: pm.nodes.clone(),
                w1,
                w2: pm.prn,
                alive: true,
                links: vec![Vec::new(); joined.len()],
                perception,
            }
        };
        let matches = &candidate_sets[i].matches;
        let verts: Vec<Vert> = if pool.lanes() > 1 && matches.len() >= 64 {
            let chunks = pool.chunks(matches.len(), 4);
            pool.map(chunks.len(), |ci| {
                matches[chunks[ci].clone()].iter().map(make_vert).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
        } else {
            matches.iter().map(make_vert).collect()
        };
        partitions.push(Partition { joined, verts });
    }

    for i in 0..k {
        for &j in &decomp.joins[i] {
            if j < i {
                continue;
            }
            let shared = decomp.shared_nodes(i, j);
            let pos_i: Vec<usize> =
                shared.iter().map(|&n| decomp.paths[i].position(n).unwrap()).collect();
            let pos_j: Vec<usize> =
                shared.iter().map(|&n| decomp.paths[j].position(n).unwrap()).collect();

            let mut table: FxHashMap<Vec<u32>, Vec<u32>> = FxHashMap::default();
            for (wj, v) in partitions[j].verts.iter().enumerate() {
                let key: Vec<u32> = pos_j.iter().map(|&p| v.nodes[p].0).collect();
                table.entry(key).or_default().push(wj as u32);
            }

            let slot_ij = partitions[i].joined.iter().position(|&x| x == j).expect("join symmetry");
            let slot_ji = partitions[j].joined.iter().position(|&x| x == i).expect("join symmetry");
            let probe = |wi: usize, key: &mut Vec<u32>, out: &mut Vec<(u32, u32)>| {
                let v = &partitions[i].verts[wi];
                key.clear();
                key.extend(pos_i.iter().map(|&p| v.nodes[p].0));
                let Some(buddies) = table.get(key.as_slice()) else { return };
                out.extend(
                    buddies
                        .iter()
                        .filter(|&&wj| {
                            let w = &partitions[j].verts[wj as usize];
                            joined_pair_ok(peg, query, decomp, i, j, v, w, alpha)
                        })
                        .map(|&wj| (wi as u32, wj)),
                );
            };
            let n_i = partitions[i].verts.len();
            let new_links: Vec<(u32, u32)> = if pool.lanes() > 1 && n_i >= 64 {
                let chunks = pool.chunks(n_i, 4);
                pool.map(chunks.len(), |ci| {
                    let mut key = Vec::new();
                    let mut out = Vec::new();
                    for wi in chunks[ci].clone() {
                        probe(wi, &mut key, &mut out);
                    }
                    out
                })
                .into_iter()
                .flatten()
                .collect()
            } else {
                let mut key = Vec::new();
                let mut out = Vec::new();
                for wi in 0..n_i {
                    probe(wi, &mut key, &mut out);
                }
                out
            };
            for (wi, wj) in new_links {
                partitions[i].verts[wi as usize].links[slot_ij].push(wj);
                partitions[j].verts[wj as usize].links[slot_ji].push(wi);
            }
        }
    }
    KPartiteGraph::from_partitions(partitions)
}

/// The per-pair admission test the reference builder calls, verbatim.
#[allow(clippy::too_many_arguments)]
fn joined_pair_ok(
    peg: &Peg,
    query: &QueryGraph,
    decomp: &Decomposition,
    i: usize,
    j: usize,
    vi: &Vert,
    vj: &Vert,
    alpha: f64,
) -> bool {
    let mut mapping: Vec<(QNode, EntityId)> = Vec::new();
    for (paths, vert) in [(i, vi), (j, vj)] {
        for (pos, &n) in decomp.paths[paths].nodes.iter().enumerate() {
            let e = vert.nodes[pos];
            match mapping.iter().find(|(q, _)| *q == n) {
                Some((_, prev)) => {
                    if *prev != e {
                        return false;
                    }
                }
                None => mapping.push((n, e)),
            }
        }
    }
    for (a, (_, ea)) in mapping.iter().enumerate() {
        for (_, eb) in &mapping[a + 1..] {
            if ea == eb {
                return false;
            }
            if !peg.graph.refs_disjoint(*ea, *eb) {
                return false;
            }
        }
    }
    let mut prle = 1.0;
    for &(n, e) in &mapping {
        prle *= peg.graph.label_prob(e, query.label(n));
        if prle == 0.0 {
            return false;
        }
    }
    let mut edges: Vec<(QNode, QNode)> = Vec::new();
    for p in [i, j] {
        for e in decomp.paths[p].edges() {
            if !edges.contains(&e) {
                edges.push(e);
            }
        }
    }
    let image = |n: QNode| mapping.iter().find(|(q, _)| *q == n).unwrap().1;
    for (a, b) in edges {
        prle *= peg.graph.edge_prob(image(a), image(b), query.label(a), query.label(b));
        if prle == 0.0 {
            return false;
        }
    }
    let entities: Vec<EntityId> = mapping.iter().map(|(_, e)| *e).collect();
    let prn = peg.prn(&entities);
    prle * prn + EPS >= alpha
}

/// Asserts two graphs agree on every field the read views expose.
/// Returns the total link-entry count.
fn assert_same_graph(got: &KPartiteGraph, want: &KPartiteGraph, ctx: &str) -> usize {
    assert_eq!(got.n_partitions(), want.n_partitions(), "{ctx}");
    assert_eq!(got.alive_counts(), want.alive_counts(), "{ctx}");
    let mut links = 0;
    for pi in 0..got.n_partitions() {
        let (g, w) = (got.part(pi), want.part(pi));
        assert_eq!(g.joined(), w.joined(), "{ctx} p{pi}");
        assert_eq!(g.n_verts(), w.n_verts(), "{ctx} p{pi}");
        for vi in 0..g.n_verts() {
            let (x, y) = (g.vert(vi), w.vert(vi));
            let at = format!("{ctx} p{pi} v{vi}");
            assert_eq!(x.alive(), y.alive(), "{at}");
            assert_eq!(x.nodes(), y.nodes(), "{at}");
            assert_eq!(x.w1().to_bits(), y.w1().to_bits(), "{at}: w1");
            assert_eq!(x.w2().to_bits(), y.w2().to_bits(), "{at}: w2");
            let xp: Vec<u64> = x.perception().iter().map(|f| f.to_bits()).collect();
            let yp: Vec<u64> = y.perception().iter().map(|f| f.to_bits()).collect();
            assert_eq!(xp, yp, "{at}: perception");
            for slot in 0..g.joined().len() {
                assert_eq!(x.links(slot), y.links(slot), "{at} slot {slot}");
                assert_eq!(x.alive_link_count(slot), y.alive_link_count(slot), "{at} slot {slot}");
                links += x.links(slot).len();
            }
        }
    }
    links
}

/// A decomposition over hand-picked paths, with the join structure
/// (joined pairs and their shared nodes) derived the way `decompose` does.
fn decomposition_of(paths: &[&[QNode]]) -> Decomposition {
    let paths: Vec<QueryPath> = paths.iter().map(|p| QueryPath { nodes: p.to_vec() }).collect();
    let k = paths.len();
    let mut joins = vec![Vec::new(); k];
    let mut shared = FxHashMap::default();
    for i in 0..k {
        for j in i + 1..k {
            let mut common: Vec<QNode> =
                paths[i].nodes.iter().copied().filter(|n| paths[j].nodes.contains(n)).collect();
            if common.is_empty() {
                continue;
            }
            common.sort_unstable();
            joins[i].push(j);
            joins[j].push(i);
            shared.insert((i, j), common);
        }
    }
    Decomposition { paths, joins, shared }
}

struct World {
    peg: Peg,
    index: OfflineIndex,
    n_labels: usize,
}

fn world(seed: u64, n_refs: usize, uncertainty: f64) -> World {
    let cfg =
        SyntheticConfig { seed, ..SyntheticConfig::paper_with_uncertainty(n_refs, uncertainty) };
    let peg = PegBuilder::new().build(&synthetic_refgraph(&cfg)).unwrap();
    let n_labels = peg.graph.label_table().len();
    let opts =
        OfflineOptions { index: PathIndexConfig { max_len: 3, beta: 0.05, ..Default::default() } };
    let index = OfflineIndex::build(&peg, &opts).unwrap();
    World { peg, index, n_labels }
}

fn candidate_sets(
    w: &World,
    query: &QueryGraph,
    decomp: &Decomposition,
    alpha: f64,
) -> Vec<CandidateSet> {
    let cache = NodeCandidateCache::new();
    let pool = pegpool::pool_with(1);
    decomp
        .paths
        .iter()
        .map(|p| {
            let stats = PathStats::new(query, p);
            find_candidates(&w.peg, &w.index, query, p, &stats, alpha, &cache, &pool)
        })
        .collect()
}

/// Builds with both builders at every pool width and compares. Returns
/// the link-entry count (identical across widths).
fn check(
    w: &World,
    query: &QueryGraph,
    decomp: &Decomposition,
    sets: &[CandidateSet],
    alpha: f64,
    ctx: &str,
) -> usize {
    let mut links = None;
    for lanes in [1usize, 2] {
        let pool = pegpool::pool_with(lanes);
        let want = reference_build(&w.peg, query, decomp, sets, alpha, &pool);
        let got = build_kpartite(&w.peg, query, decomp, sets, alpha, &pool);
        let n = assert_same_graph(&got, &want, &format!("{ctx} lanes={lanes}"));
        assert_eq!(*links.get_or_insert(n), n, "{ctx}: link count depends on lanes");
    }
    links.unwrap()
}

fn labels(n: usize, n_labels: usize, seed: u64) -> Vec<Label> {
    (0..n).map(|i| Label(((seed as usize + 3 * i) % n_labels.min(3)) as u16)).collect()
}

/// Query edges, hand-picked paths, and the shared-node count of paths 0
/// and 1.
type Case = (Vec<(QNode, QNode)>, Vec<&'static [QNode]>, usize);

const ALPHAS: [f64; 4] = [0.5, 0.2, 0.05, 0.01];

#[test]
fn hand_decomposed_shapes_sharing_one_two_and_three_nodes() {
    let mut linked = [0usize; 4];
    for (seed, uncertainty) in [(3u64, 0.2), (17, 0.6), (29, 0.4)] {
        let w = world(seed, 160, uncertainty);
        let cases: [Case; 4] = [
            // A five-node path split at its middle node.
            (vec![(0, 1), (1, 2), (2, 3), (3, 4)], vec![&[0, 1, 2], &[2, 3, 4]], 1),
            // A 4-cycle as two 2-edge paths meeting at both ends.
            (vec![(0, 1), (1, 2), (2, 3), (0, 3)], vec![&[0, 1, 2], &[2, 3, 0]], 2),
            // A 4-cycle as a 3-edge path plus a 2-edge path over one of its
            // edges: three shared nodes, and a shared edge the union skips.
            (vec![(0, 1), (1, 2), (2, 3), (0, 3)], vec![&[0, 1, 2, 3], &[2, 3, 0]], 3),
            // A triangle with a tail: three partitions, two slots each.
            (vec![(0, 1), (1, 2), (0, 2), (2, 3)], vec![&[0, 1, 2], &[2, 3], &[2, 0]], 1),
        ];
        for (ci, (edges, paths, shared)) in cases.iter().enumerate() {
            let n = edges.iter().map(|&(a, b)| a.max(b)).max().unwrap() as usize + 1;
            let q = QueryGraph::new(labels(n, w.n_labels, seed), edges.clone()).unwrap();
            let d = decomposition_of(paths);
            assert_eq!(d.shared_nodes(0, 1).len(), *shared);
            for alpha in ALPHAS {
                let sets = candidate_sets(&w, &q, &d, alpha);
                let ctx = format!("seed={seed} case={ci} alpha={alpha}");
                linked[ci] += check(&w, &q, &d, &sets, alpha, &ctx);
            }
        }
    }
    // Every shape admitted some links somewhere, so the comparison above
    // covered real join work, not only empty slots.
    assert!(linked.iter().all(|&n| n > 0), "links per case: {linked:?}");
}

/// At α = 0 the probability test admits everything with a nonzero
/// `prle`, so only the structural rejections (join predicates,
/// injectivity, shared references) stand between a pair and a link — the
/// case where a dropped check would show.
#[test]
fn zero_threshold_keeps_every_rejection() {
    for (seed, n_refs) in [(31u64, 70usize), (37, 90)] {
        let w = world(seed, n_refs, 0.6);
        let q = QueryGraph::new(labels(4, w.n_labels, seed), vec![(0, 1), (1, 2), (2, 3), (0, 3)])
            .unwrap();
        for paths in [vec![&[0, 1, 2][..], &[2, 3, 0]], vec![&[0, 1, 2, 3][..], &[2, 3, 0]]] {
            let d = decomposition_of(&paths);
            let sets = candidate_sets(&w, &q, &d, 0.0);
            check(&w, &q, &d, &sets, 0.0, &format!("seed={seed} alpha=0"));
        }
    }
}

#[test]
fn decomposed_random_queries() {
    for seed in [5u64, 11, 23] {
        let w = world(seed, 180, 0.4);
        for (spec, max_len) in [
            (QuerySpec::new(3, 3), 1),
            (QuerySpec::new(4, 4), 2),
            (QuerySpec::new(4, 5), 2),
            (QuerySpec::new(5, 6), 2),
            (QuerySpec::new(5, 5), 3),
        ] {
            let q = random_query(spec, w.n_labels, seed);
            let d = decompose(&q, max_len, &|_| 1.0, DecompStrategy::CostBased).unwrap();
            for alpha in ALPHAS {
                let sets = candidate_sets(&w, &q, &d, alpha);
                let ctx = format!("seed={seed} q({},{}) L={max_len} alpha={alpha}", spec.n, spec.m);
                check(&w, &q, &d, &sets, alpha, &ctx);
            }
        }
    }
}

#[test]
fn empty_partitions_and_single_node_paths() {
    let w = world(7, 140, 0.4);
    // An emptied partition: its neighbours keep their vertices, all with
    // empty link slots.
    let q =
        QueryGraph::new(labels(5, w.n_labels, 1), vec![(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
    let d = decomposition_of(&[&[0, 1, 2], &[2, 3, 4]]);
    for empty in 0..2 {
        let mut sets = candidate_sets(&w, &q, &d, 0.05);
        assert!(!sets[1 - empty].matches.is_empty());
        sets[empty].matches.clear();
        sets[empty].bounds.clear();
        assert_eq!(check(&w, &q, &d, &sets, 0.05, &format!("empty={empty}")), 0);
    }
    // A single-node query: one path with no edges and no joins.
    for label in 0..w.n_labels.min(3) {
        let q = QueryGraph::new(vec![Label(label as u16)], vec![]).unwrap();
        let d = decompose(&q, 2, &|_| 1.0, DecompStrategy::CostBased).unwrap();
        assert_eq!(d.paths.len(), 1);
        assert_eq!(d.paths[0].nodes.len(), 1);
        for alpha in ALPHAS {
            let sets = candidate_sets(&w, &q, &d, alpha);
            check(&w, &q, &d, &sets, alpha, &format!("single label={label} alpha={alpha}"));
        }
    }
}
