//! The traced replay: the served requests again, in process, one at a
//! time, with a clock around each call into each layer's public function.
//! The program itself carries no extra tracing for this.
//!
//! Each request runs twice: once through the direct pipeline
//! (`run_limited` / `run_topk`, untraced) and once staged — `prepare`,
//! `CandidateSource::retrieve`, `build_kpartite`, `KPartiteGraph::reduce`
//! and `generate_matches_limited`, driven in the order the session and
//! the top-k driver call them. The staged answer must equal the direct one
//! bit for bit; the time the stages do not account for is reported.

use crate::check::{direct, query_options, Version};
use crate::workload::{Op, Request};
use graphstore::{GraphOp, RefGraph};
use pegmatch::matcher::Match;
use pegmatch::model::PegBuilder;
use pegmatch::online::{
    build_kpartite, generate_matches_limited, CandidateSource, KPartiteGraph, LocalSource,
    PlanCache, PreparedQuery, QueryPipeline, ReduceOptions,
};
use pegmatch::Peg;
use pegtrace::Span;
use pegwire::json::{obj, Json};
use std::sync::Arc;
use std::time::Instant;

const EPS: f64 = 1e-12;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Per-request layer measurements.
#[derive(Default)]
pub struct Layers {
    pub prepare_us: f64,
    pub retrieve_ms: f64,
    pub join_ms: f64,
    pub reduce_ms: f64,
    pub generate_ms: f64,
    /// Wall time of the whole staged run.
    pub staged_ms: f64,
    /// Wall time of the direct, untraced run.
    pub direct_ms: f64,
    pub encode_ms: f64,
    pub raw: usize,
    pub pruned: usize,
    pub vertices: usize,
    pub links: usize,
    pub rounds: usize,
    pub frontier_evals: usize,
    /// Vertices alive after reduction (summed over reductions).
    pub survivors: usize,
    /// Vertices the reductions started from.
    pub reduced_from: usize,
    pub matches: usize,
    pub truncated: bool,
    /// Halo replicas dropped by the shards, and distinct candidates
    /// gathered (sharded source only).
    pub scatter_dups: usize,
    pub scatter_kept: usize,
}

struct Staged<'a> {
    peg: &'a Peg,
    source: &'a dyn CandidateSource,
    /// The scatter-gather source, when sharded (for its duplicate counts).
    sharded: Option<&'a pegshard::ShardedGraphStore>,
    prepared: PreparedQuery,
    pool: Arc<pegpool::ThreadPool>,
    reduce: ReduceOptions,
    l: Layers,
}

impl Staged<'_> {
    /// Retrieval, join and reduction at `alpha`: the session's base.
    fn base(&mut self, alpha: f64) -> KPartiteGraph {
        let p = &self.prepared;
        let t = Instant::now();
        let sets = self
            .source
            .retrieve(
                p.query(),
                p.decomposition(),
                p.path_stats(),
                alpha,
                &Span::disabled(),
                &self.pool,
            )
            .expect("retrieval succeeds");
        self.l.retrieve_ms += ms(t);
        if let Some(store) = self.sharded {
            let scatter = store.last_scatter();
            self.l.scatter_dups += scatter.duplicates_dropped;
            self.l.scatter_kept += scatter.pruned_distinct;
        }
        self.l.raw += sets.iter().map(|s| s.raw_count).sum::<usize>();
        self.l.pruned += sets.iter().map(|s| s.matches.len()).sum::<usize>();
        let t = Instant::now();
        let mut kp =
            build_kpartite(self.peg, p.query(), p.decomposition(), &sets, alpha, &self.pool);
        self.l.join_ms += ms(t);
        for pi in 0..kp.n_partitions() {
            let part = kp.part(pi);
            self.l.vertices += part.n_verts();
            for vi in 0..part.n_verts() {
                let v = part.vert(vi);
                self.l.links += (0..part.joined().len()).map(|s| v.links(s).len()).sum::<usize>();
            }
        }
        self.reduce(&mut kp, alpha);
        kp
    }

    fn reduce(&mut self, kp: &mut KPartiteGraph, alpha: f64) {
        self.l.reduced_from += kp.alive_counts().iter().sum::<usize>();
        let t = Instant::now();
        let r = kp.reduce(alpha, &self.reduce);
        self.l.reduce_ms += ms(t);
        self.l.rounds += r.rounds;
        self.l.frontier_evals += r.frontier_evals;
        self.l.survivors += kp.alive_counts().iter().sum::<usize>();
    }

    fn generate(
        &mut self,
        kp: &KPartiteGraph,
        alpha: f64,
        limit: Option<usize>,
    ) -> (Vec<Match>, bool) {
        let p = &self.prepared;
        let t = Instant::now();
        let out = generate_matches_limited(
            self.peg,
            p.query(),
            p.decomposition(),
            kp,
            p.join_order(),
            alpha,
            limit,
            &self.pool,
        );
        self.l.generate_ms += ms(t);
        out
    }

    /// `QuerySession::run_at` on a fresh session.
    fn threshold(&mut self, alpha: f64, limit: usize) -> (Vec<Match>, bool) {
        let kp = self.base(alpha);
        self.generate(&kp, alpha, Some(limit))
    }

    /// `QueryPipeline::run_topk`: geometric threshold descent over one
    /// session, rebasing one step ahead when the threshold drops below
    /// the base and refining a copy of the base above it.
    fn topk(&mut self, k: usize, min_alpha: f64) -> (Vec<Match>, bool) {
        let floor = min_alpha.max(EPS);
        let mut alpha = 0.5f64;
        let mut base: Option<(f64, KPartiteGraph)> = None;
        loop {
            if let Some((b, _)) = base {
                if alpha + EPS < b {
                    let a = (alpha * 0.25).max(floor);
                    base = Some((a, self.base(a)));
                }
            }
            if base.as_ref().is_none_or(|(b, _)| alpha + EPS < *b) {
                base = Some((alpha, self.base(alpha)));
            }
            let (b, kp) = base.take().expect("base built above");
            let (matches, _) = if alpha > b + EPS {
                let mut refined = kp.clone();
                self.reduce(&mut refined, alpha);
                self.generate(&refined, alpha, None)
            } else {
                self.generate(&kp, alpha, None)
            };
            base = Some((b, kp));
            if matches.len() >= k || alpha <= floor {
                let mut matches = matches;
                matches.sort_by(|a, b| {
                    b.prob()
                        .partial_cmp(&a.prob())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.nodes.cmp(&b.nodes))
                });
                matches.truncate(k);
                return (matches, false);
            }
            alpha = (alpha * 0.25).max(floor);
        }
    }
}

/// The reply's `matches` array as the server encodes it.
fn encode(matches: &[Match]) -> String {
    Json::Arr(
        matches
            .iter()
            .map(|m| {
                obj()
                    .field(
                        "nodes",
                        Json::Arr(m.nodes.iter().map(|e| Json::Num(e.0 as f64)).collect()),
                    )
                    .field("prle", m.prle)
                    .field("prn", m.prn)
                    .field("prob", m.prob())
                    .build()
            })
            .collect(),
    )
    .to_string()
}

fn bit_equal(a: &[Match], b: &[Match]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.nodes == y.nodes
                && x.prle.to_bits() == y.prle.to_bits()
                && x.prn.to_bits() == y.prn.to_bits()
        })
}

/// Replays `req` against `v` (local index) or `sharded` (scatter over the
/// workers). Returns the layers and whether the staged answer equals the
/// direct one.
pub fn replay(
    v: &Version,
    sharded: Option<&pegshard::ShardedGraphStore>,
    plans: &Arc<PlanCache>,
    req: &Request,
) -> (Layers, bool) {
    let opts = query_options();
    let local = LocalSource { peg: &v.peg, offline: &v.offline };
    let (peg, source): (&Peg, &dyn CandidateSource) = match sharded {
        Some(store) => (store.peg(), store),
        None => (&v.peg, &local),
    };
    let t = Instant::now();
    let direct = direct(&QueryPipeline::with_source(peg, source), req);
    let direct_ms = ms(t);

    let t_staged = Instant::now();
    let pipe = QueryPipeline::builder(peg).source(source).plan_cache(Arc::clone(plans)).build();
    let seed_alpha = match req.op {
        Op::Query { alpha, .. } => alpha,
        Op::Topk { .. } => 0.5,
    };
    let t = Instant::now();
    let prepared = pipe.prepare(&req.query, seed_alpha, &opts).expect("valid request");
    let prepare_us = t.elapsed().as_secs_f64() * 1e6;
    let pool = pegpool::pool_with(opts.threads);
    let reduce = ReduceOptions {
        use_upperbounds: opts.use_upperbounds,
        use_frontier: opts.use_frontier,
        parallel: opts.parallel_reduction || pool.lanes() > 1,
        threads: opts.threads,
        max_rounds: opts.max_rounds,
    };
    let mut st = Staged {
        peg,
        source,
        sharded,
        prepared,
        pool,
        reduce,
        l: Layers { prepare_us, direct_ms, ..Layers::default() },
    };
    let (matches, truncated) = match req.op {
        Op::Query { alpha, limit } => st.threshold(alpha, limit),
        Op::Topk { k } => st.topk(k, 1e-9),
    };
    st.l.staged_ms = ms(t_staged);
    st.l.matches = matches.len();
    st.l.truncated = truncated;
    let t = Instant::now();
    std::hint::black_box(encode(&matches));
    st.l.encode_ms = ms(t);
    let faithful = truncated == direct.1 && bit_equal(&matches, &direct.0);
    (st.l, faithful)
}

/// One mutation batch, staged: reference-network edit plus entity
/// recompile (`apply`), then the path-index delta (`index`).
pub struct UpdateLayers {
    pub apply_ms: f64,
    pub index_ms: f64,
    pub dirty: usize,
}

/// `live::apply_ops`, staged.
pub fn replay_update(
    refs: &RefGraph,
    v: &Version,
    ops: &[GraphOp],
) -> (RefGraph, Version, UpdateLayers) {
    let t = Instant::now();
    let mut next = refs.clone();
    let touched = next.apply_all(ops).expect("generated ops are valid");
    let delta = PegBuilder::new().rebuild(&next, &v.peg, &touched).expect("recompile succeeds");
    let apply_ms = ms(t);
    let t = Instant::now();
    let offline = v.offline.rebuild_delta(&delta.peg, &delta.dirty).expect("index delta succeeds");
    let index_ms = ms(t);
    let dirty = delta.dirty.iter().filter(|d| **d).count();
    (next, Version { peg: delta.peg, offline }, UpdateLayers { apply_ms, index_ms, dirty })
}
