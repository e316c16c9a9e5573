//! Seeded inputs: the graph spec, the request list and the mutation
//! batches of each workload. Everything here is a pure function of
//! `(workload, seed)`, so two runs with one seed send the same requests in
//! the same order.

use datagen::{permuted_query, random_query, synthetic_refgraph, QuerySpec, SyntheticConfig};
use graphstore::{GraphOp, LabelTable, RefGraph, RefId};
use pathindex::PathIndexConfig;
use pegmatch::offline::OfflineOptions;
use pegmatch::pattern::{format_pattern, parse_pattern};
use pegmatch::query::QueryGraph;
use pegwire::json::{obj, Json};
use std::collections::HashSet;

/// Reference count of the synthetic graph.
pub const GRAPH_REFS: usize = 2000;
/// Generator seed of the graph: the CLI default, which gives 2,008
/// entities and 10,156 edges. `--seed` draws the requests and mutation
/// batches, not the graph (see README, "Workload choices").
pub const GRAPH_SEED: u64 = 42;
/// Identity-uncertainty knob of the synthetic generator.
pub const UNCERTAINTY: f64 = 0.2;
/// Path index length and pruning threshold, passed to the server
/// explicitly so the in-process reference builds the same index.
pub const MAX_LEN: usize = 2;
pub const BETA: f64 = 0.3;
/// Client connections; the callers wait for each answer (closed loop).
pub const CONNECTIONS: usize = 2;
/// Ops per `update_graph` batch.
pub const OPS_PER_BATCH: usize = 16;
/// Top-k size of `sharded-topk`.
pub const TOPK_K: usize = 10;
/// Seed of the fixed threshold-query list.
const LIST_SEED: u64 = 0x6c69_7374;
/// Shapes in the `sharded-topk` pool, and the seed that draws them.
const TOPK_POOL: usize = 256;
const TOPK_POOL_SEED: u64 = 0x706f_6f6c;

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn prob(&mut self) -> f64 {
        0.05 + 0.9 * (self.next_u64() % 1000) as f64 / 1000.0
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CyclicLocal,
    BulkReply,
    ShardedTopk,
    LiveMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::CyclicLocal, Workload::BulkReply, Workload::ShardedTopk, Workload::LiveMixed];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CyclicLocal => "cyclic-local",
            Workload::BulkReply => "bulk-reply",
            Workload::ShardedTopk => "sharded-topk",
            Workload::LiveMixed => "live-mixed",
        }
    }

    /// `shard-worker` processes behind the coordinator (0 = unsharded).
    pub fn workers(self) -> usize {
        if self == Workload::ShardedTopk {
            2
        } else {
            0
        }
    }

    /// Requests per second no run of this workload reaches, with room
    /// for a program ten times faster; sizes the request list so the
    /// window never drains it.
    pub fn max_rate(self) -> f64 {
        if self == Workload::ShardedTopk {
            3000.0
        } else {
            600.0
        }
    }

    /// Batches the sequential write probe sends after the query window on
    /// the workloads that do not mutate inside it. A distributed batch
    /// rebuilds worker shards and costs about three local ones.
    pub fn probe_batches(self) -> usize {
        if self == Workload::ShardedTopk {
            16
        } else {
            40
        }
    }

    /// Queries per second the window's readers complete even on a slow
    /// run (about two thirds of the typical rate); sizes the shuffled
    /// head of the request list.
    pub fn min_rate(self) -> f64 {
        match self {
            Workload::CyclicLocal => 30.0,
            Workload::BulkReply => 20.0,
            Workload::ShardedTopk => 100.0,
            Workload::LiveMixed => 12.0,
        }
    }

    /// Whether one connection writes during the query window.
    pub fn writes_in_window(self) -> bool {
        self == Workload::LiveMixed
    }
}

/// What one request asks.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Threshold `query` capped at `limit` matches.
    Query { alpha: f64, limit: usize },
    /// `query_topk` with the server's default threshold floor.
    Topk { k: usize },
}

pub struct Request {
    /// Pattern text as sent.
    pub pattern: String,
    /// The pattern parsed back against the graph's label table: exactly
    /// the query the server answers.
    pub query: QueryGraph,
    pub op: Op,
}

impl Request {
    pub fn line(&self, id: usize) -> String {
        let b = obj().field("id", id).field("pattern", self.pattern.as_str());
        let j = match self.op {
            Op::Query { alpha, limit } => {
                b.field("op", "query").field("alpha", alpha).field("limit", limit)
            }
            Op::Topk { k } => b.field("op", "query_topk").field("k", k),
        };
        j.build().to_string()
    }
}

pub fn update_line(id: usize, batch: &[GraphOp]) -> String {
    obj()
        .field("op", "update_graph")
        .field("id", id)
        .field("ops", pegshard::wire::encode_ops(batch))
        .build()
        .to_string()
}

pub fn graph_refs() -> RefGraph {
    synthetic_refgraph(&SyntheticConfig {
        seed: GRAPH_SEED,
        ..SyntheticConfig::paper_with_uncertainty(GRAPH_REFS, UNCERTAINTY)
    })
}

pub fn offline_options() -> OfflineOptions {
    OfflineOptions { index: PathIndexConfig { max_len: MAX_LEN, beta: BETA, ..Default::default() } }
}

/// Flags that make `pegcli serve` generate and index the workload graph.
pub fn graph_flags() -> Vec<String> {
    [
        "--kind",
        "synthetic",
        "--size",
        &GRAPH_REFS.to_string(),
        "--seed",
        &GRAPH_SEED.to_string(),
        "--uncertainty",
        &UNCERTAINTY.to_string(),
        "--max-len",
        &MAX_LEN.to_string(),
        "--beta",
        &BETA.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn request(table: &LabelTable, q: &QueryGraph, op: Op) -> Request {
    let pattern = format_pattern(q, table);
    let query = parse_pattern(&pattern, table).expect("formatted patterns parse");
    Request { pattern, query, op }
}

/// Threshold queries cycling through `mix`, a list of
/// `(nodes, edges, alpha)`, with seeded labels and edges. The round robin
/// gives every run, whatever its seed, the same share of each shape and
/// threshold. With `distinct`, no two requests share a canonical shape,
/// so neither the plan cache nor the execution cache can serve a repeat;
/// a slot whose shape class is used up (there are 35 labelled triangles)
/// passes to the next entry of the mix.
fn threshold_requests(
    table: &LabelTable,
    rng: &mut Rng,
    n: usize,
    mix: &[(usize, usize, f64)],
    limit: usize,
    distinct: bool,
) -> Vec<Request> {
    const DRAWS_PER_SLOT: usize = 64;
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    let mut slot = 0usize;
    while out.len() < n {
        let (k, m, alpha) = mix[slot % mix.len()];
        slot += 1;
        for _ in 0..DRAWS_PER_SLOT {
            let q = random_query(QuerySpec::new(k, m), table.len(), rng.next_u64());
            if !distinct || seen.insert(q.canonical_form().hash64()) {
                out.push(request(table, &q, Op::Query { alpha, limit }));
                break;
            }
        }
    }
    out
}

/// Top-k requests drawn Zipf-skewed (weight 1/rank) from a fixed pool of
/// shapes, each sent under a fresh variable numbering. The pool and its
/// ranking do not depend on the seed: which shape is the most popular
/// would otherwise set a run's cost.
fn topk_requests(table: &LabelTable, rng: &mut Rng, n: usize) -> Vec<Request> {
    const SHAPES: [(usize, usize); 4] = [(3, 2), (3, 3), (4, 3), (4, 4)];
    let mut pool_rng = Rng::new(TOPK_POOL_SEED);
    let pool: Vec<QueryGraph> = (0..TOPK_POOL)
        .map(|i| {
            let (k, m) = SHAPES[i % SHAPES.len()];
            random_query(QuerySpec::new(k, m), table.len(), pool_rng.next_u64())
        })
        .collect();
    let weights: Vec<f64> = (0..TOPK_POOL).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    (0..n)
        .map(|_| {
            let mut x = rng.unit() * total;
            let mut r = 0;
            while r + 1 < TOPK_POOL && x >= weights[r] {
                x -= weights[r];
                r += 1;
            }
            let q = permuted_query(&pool[r], rng.next_u64());
            request(table, &q, Op::Topk { k: TOPK_K })
        })
        .collect()
}

/// The request list of `w` for a window of `seconds`: longer than any
/// window drains, walked in order, so two runs of one seed send the same
/// requests.
///
/// Threshold workloads draw one fixed list (the same for every seed) and
/// let the seed shuffle its head: the requests a slow run still completes
/// in the window. Every run then answers the same head, in its own order,
/// and runs of different seeds differ in order and pairing rather than in
/// which queries they happened to draw. Top-k requests are seeded draws
/// over a fixed pool.
pub fn requests(w: Workload, seed: u64, table: &LabelTable, seconds: f64) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x5151_0000_0000_0000);
    let n = (seconds * w.max_rate()) as usize + 200;
    // q(5,6) runs at 0.3 only: at 0.1 about one draw in ten spends
    // 0.8-8 s in match generation, and a handful of those would be the
    // whole window (see README, "Workload choices").
    const CYCLIC: [(usize, usize, f64); 9] = [
        (3, 3, 0.3),
        (3, 3, 0.1),
        (4, 4, 0.3),
        (4, 4, 0.1),
        (4, 5, 0.3),
        (4, 5, 0.1),
        (5, 6, 0.3),
        (5, 7, 0.3),
        (5, 7, 0.1),
    ];
    const ACYCLIC: [(usize, usize, f64); 3] = [(3, 2, 0.03), (4, 3, 0.03), (5, 4, 0.03)];
    const MAX_LIMIT: usize = 10_000;
    const PAGE_LIMIT: usize = 1_000;
    let mut fixed = Rng::new(LIST_SEED);
    let mut list = match w {
        Workload::CyclicLocal | Workload::LiveMixed => {
            threshold_requests(table, &mut fixed, n, &CYCLIC, PAGE_LIMIT, true)
        }
        Workload::BulkReply => threshold_requests(table, &mut fixed, n, &ACYCLIC, MAX_LIMIT, false),
        Workload::ShardedTopk => return topk_requests(table, &mut rng, n),
    };
    let head = ((seconds * w.min_rate()) as usize).min(list.len());
    for i in (1..head).rev() {
        list.swap(i, rng.below(i + 1));
    }
    list
}

/// `n` mutation batches of [`OPS_PER_BATCH`] ops, each valid against the
/// graph the previous batches leave: half `upsert_edge` between live
/// references, a quarter `set_weight`, a quarter `delete_edge` of an
/// edge that exists at that point.
pub fn update_batches(seed: u64, refs: &RefGraph, n: usize) -> Vec<Vec<GraphOp>> {
    let mut rng = Rng::new(seed ^ 0xabcd_0000_0000_0000);
    let mut g = refs.clone();
    let alive: Vec<u32> = (0..g.n_refs() as u32).filter(|&r| g.ref_is_alive(RefId(r))).collect();
    (0..n)
        .map(|_| {
            let mut batch = Vec::with_capacity(OPS_PER_BATCH);
            while batch.len() < OPS_PER_BATCH {
                let op = match rng.below(4) {
                    0 | 1 => {
                        let a = alive[rng.below(alive.len())];
                        let b = alive[rng.below(alive.len())];
                        if a == b {
                            continue;
                        }
                        GraphOp::UpsertEdge { a: RefId(a), b: RefId(b), p: rng.prob() }
                    }
                    2 => GraphOp::SetSingletonWeight {
                        r: RefId(alive[rng.below(alive.len())]),
                        weight: rng.prob(),
                    },
                    _ => {
                        let e = &g.edges()[rng.below(g.n_edges())];
                        GraphOp::DeleteEdge { a: e.a, b: e.b }
                    }
                };
                g.apply_all(std::slice::from_ref(&op)).expect("generated ops are valid");
                batch.push(op);
            }
            batch
        })
        .collect()
}

pub fn spec_json(w: Workload, seed: u64) -> Json {
    obj()
        .field("workload", w.name())
        .field("seed", seed)
        .field("graph_refs", GRAPH_REFS)
        .field("graph_seed", GRAPH_SEED)
        .field("uncertainty", UNCERTAINTY)
        .field("max_len", MAX_LEN)
        .field("beta", BETA)
        .field("connections", CONNECTIONS)
        .field("workers", w.workers())
        .build()
}
