//! Cross-crate persistence: entity graphs and path indexes written through
//! the kvstore B+-tree must round-trip and serve identical query results.

use datagen::{sampled_query, synthetic_refgraph, QuerySpec, SyntheticConfig};
use graphstore::persist::{load_entity_graph, save_entity_graph};
use kvstore::{BTreeStore, Kv, MemStore};
use pathindex::disk::{load_index, save_index, DiskPathIndex};
use pathindex::PathIndexConfig;
use pegmatch::matcher::match_bruteforce;
use pegmatch::model::PegBuilder;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegmatch::online::{QueryOptions, QueryPipeline};

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pegmatch-it-{name}-{}", std::process::id()));
    p
}

#[test]
fn entity_graph_roundtrip_via_disk() {
    let refs = synthetic_refgraph(&SyntheticConfig::paper(300));
    let peg = PegBuilder::new().build(&refs).unwrap();
    let path = tmp("graph");
    {
        let mut store = BTreeStore::create(&path).unwrap();
        save_entity_graph(&peg.graph, &mut store).unwrap();
        store.flush().unwrap();
    }
    let store = BTreeStore::open(&path).unwrap();
    let g2 = load_entity_graph(&store).unwrap();
    assert_eq!(g2.n_nodes(), peg.graph.n_nodes());
    assert_eq!(g2.n_edges(), peg.graph.n_edges());
    for v in peg.graph.node_ids() {
        assert_eq!(g2.node(v).refs, peg.graph.node(v).refs);
        assert_eq!(g2.node(v).labels, peg.graph.node(v).labels);
    }
    drop(store);
    std::fs::remove_file(&path).ok();
}

#[test]
fn index_roundtrip_preserves_query_results() {
    let refs = synthetic_refgraph(&SyntheticConfig::paper(250));
    let peg = PegBuilder::new().build(&refs).unwrap();
    let opts =
        OfflineOptions { index: PathIndexConfig { max_len: 2, beta: 0.2, ..Default::default() } };
    let idx = OfflineIndex::build(&peg, &opts).unwrap();

    // Persist the path index through the disk B+-tree and reload.
    let path = tmp("index");
    {
        let mut store = BTreeStore::create(&path).unwrap();
        save_index(&idx.paths, &mut store).unwrap();
        store.flush().unwrap();
    }
    let store = BTreeStore::open(&path).unwrap();
    let paths2 = load_index(&store).unwrap();
    assert_eq!(paths2.n_entries(), idx.paths.n_entries());

    let idx2 = OfflineIndex { context: idx.context.clone(), paths: paths2, stats: idx.stats };
    let pipe1 = QueryPipeline::new(&peg, &idx);
    let pipe2 = QueryPipeline::new(&peg, &idx2);
    for seed in 0..4u64 {
        if let Some(q) = sampled_query(&peg.graph, QuerySpec::new(4, 4), seed) {
            let a = pipe1.run(&q, 0.3, &QueryOptions::default()).unwrap();
            let b = pipe2.run(&q, 0.3, &QueryOptions::default()).unwrap();
            assert_eq!(a.matches.len(), b.matches.len());
            for (x, y) in a.matches.iter().zip(&b.matches) {
                assert_eq!(x.nodes, y.nodes);
            }
            // Sanity: both equal brute force.
            let want = match_bruteforce(&peg, &q, 0.3);
            assert_eq!(a.matches.len(), want.len());
        }
    }
    drop(store);
    std::fs::remove_file(&path).ok();
}

#[test]
fn disk_index_lookups_match_memory() {
    let refs = synthetic_refgraph(&SyntheticConfig::paper(200));
    let peg = PegBuilder::new().build(&refs).unwrap();
    let opts =
        OfflineOptions { index: PathIndexConfig { max_len: 2, beta: 0.3, ..Default::default() } };
    let idx = OfflineIndex::build(&peg, &opts).unwrap();
    let mut kv = MemStore::new();
    save_index(&idx.paths, &mut kv).unwrap();
    let disk = DiskPathIndex::open(&kv).unwrap();
    let n_labels = peg.graph.label_table().len() as u16;
    for a in 0..n_labels {
        for b in 0..n_labels {
            let labels = [graphstore::Label(a), graphstore::Label(b)];
            for alpha in [0.3, 0.6, 0.9] {
                let mut x = idx.paths.lookup(&labels, alpha);
                let mut y = disk.lookup(&labels, alpha).unwrap();
                x.sort_by(|p, q| p.nodes.cmp(&q.nodes));
                y.sort_by(|p, q| p.nodes.cmp(&q.nodes));
                assert_eq!(x, y, "labels ({a},{b}) alpha {alpha}");
            }
        }
    }
    assert!(kv.len() > 0);
}

/// Identity oracle for the format pin: every third node is uncertain, so
/// entries carry `Prn < 1` and spread across more buckets.
struct ThirdsUncertain;

impl pathindex::IdentityOracle for ThirdsUncertain {
    fn prn(&self, nodes: &[graphstore::EntityId]) -> f64 {
        nodes.iter().filter(|v| v.0 % 3 == 0).fold(1.0, |p, _| p * 0.85)
    }
}

/// FNV-1a digest of `save_index` output (length-prefixed keys and values,
/// in key order) for a fixed 9-node graph built with `threads` workers,
/// plus the key and entry counts.
fn saved_index_digest(threads: usize) -> (usize, usize, u64) {
    use graphstore::dist::{EdgeProbability, LabelDist};
    use graphstore::{EntityGraphBuilder, Label, LabelTable, RefId};

    let table = LabelTable::from_names(["x", "y", "z"]);
    let n = table.len();
    let mut b = EntityGraphBuilder::new(table);
    let vs: Vec<_> = (0..9u32)
        .map(|i| {
            let labels = if i % 4 == 1 {
                LabelDist::from_pairs(&[(Label(0), 0.6), (Label(2), 0.4)], n)
            } else {
                LabelDist::delta(Label((i % 3) as u16), n)
            };
            b.add_node(labels, vec![RefId(i)])
        })
        .collect();
    for (i, w) in vs.windows(2).enumerate() {
        b.add_edge(w[0], w[1], EdgeProbability::Independent(0.95 - 0.05 * i as f64));
    }
    for (u, v, p) in [(0, 4, 0.7), (2, 7, 0.55), (3, 8, 0.9), (1, 6, 0.35)] {
        b.add_edge(vs[u], vs[v], EdgeProbability::Independent(p));
    }
    let g = b.build();
    let cfg = PathIndexConfig { max_len: 3, beta: 0.1, threads, ..Default::default() };
    let idx = pathindex::build_index(&g, &ThirdsUncertain, &cfg);

    let mut kv = MemStore::new();
    save_index(&idx, &mut kv).unwrap();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &x in (bytes.len() as u32).to_le_bytes().iter().chain(bytes) {
            h = (h ^ x as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut n_keys = 0usize;
    kv.scan(None, None, &mut |k, v| {
        eat(k);
        eat(v);
        n_keys += 1;
        true
    })
    .unwrap();
    (n_keys, idx.n_entries(), h)
}

/// `save_index` output is pinned byte for byte: the `"M"`, `"S"`, `"H"`
/// and `"P" seq bucket n` keys, their values and their order, for a
/// sequential and a three-worker build. A change to the in-memory layout
/// must not change what lands on disk.
#[test]
fn saved_index_bytes_are_pinned() {
    assert_eq!(saved_index_digest(1), (184, 101, 0xaf93_1ff1_6e36_37cb));
    assert_eq!(saved_index_digest(3), (184, 101, 0x1117_7302_249a_c2e4));
}
