//! The sharded store: transport-independent scatter-gather on the
//! [`ShardTransport`] seam.

use crate::shard::{affected_shards, halo_for, Shard};
use crate::transport::{
    InProcessTransport, ShardReply, ShardRequest, ShardTransport, TcpTransport, TransportError,
    WorkerStats,
};
use crate::wire;
use graphstore::hash::FxHashMap;
use graphstore::{GraphOp, Label, RefGraph};
use pathindex::PathMatch;
use pegmatch::error::PegError;
use pegmatch::model::PegBuilder;
use pegmatch::offline::OfflineOptions;
use pegmatch::online::{
    CandidateSet, CandidateSource, Decomposition, PathStats, PreparedQuery, QueryPipeline,
};
use pegmatch::query::QueryGraph;
use pegmatch::Peg;
use pegpool::ThreadPool;
use pegtrace::Span;
use pegwire::Json;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-shard size and ownership breakdown.
#[derive(Clone, Debug)]
pub struct ShardInfo {
    /// Nodes in the shard subgraph (owned + replicated halo).
    pub nodes: usize,
    /// Nodes this shard owns.
    pub owned_nodes: usize,
    /// Edges in the shard subgraph.
    pub edges: usize,
    /// Path-index entries the shard stores.
    pub index_entries: usize,
    /// Approximate in-memory path-index bytes.
    pub index_bytes: u64,
}

/// Build-time sharding statistics: partition shape and replication cost.
#[derive(Clone, Debug)]
pub struct ShardingStats {
    /// Shard count.
    pub n_shards: usize,
    /// Replication radius in hops around owned nodes (`max_len + 1`).
    pub halo_radius: usize,
    /// Per-shard breakdown.
    pub per_shard: Vec<ShardInfo>,
    /// Σ shard nodes − graph nodes: the boundary copies replication pays.
    pub replicated_nodes: usize,
    /// Σ shard nodes ÷ graph nodes (1.0 = no replication).
    pub replication_factor: f64,
    /// Σ shard index entries ÷ unsharded entry count is not tracked here
    /// (no unsharded index is built); this is the raw Σ entries.
    pub total_index_entries: usize,
    /// Wall time of the whole sharded build (subgraphs + indexes —
    /// or, for a distributed store, the worker handshake that built
    /// them remotely).
    pub build_time: Duration,
}

/// Retrieval-time scatter-gather statistics for the most recent
/// [`CandidateSource::retrieve`] call (a top-k run rebases more than once;
/// this snapshot describes the last scatter).
#[derive(Clone, Debug, Default)]
pub struct ScatterStats {
    /// Raw index retrievals per shard (including boundary replicas).
    pub per_shard_raw: Vec<usize>,
    /// Per shard: survivors of that shard's own context pruning,
    /// boundary replicas included (replicas are dropped by the shard's
    /// home filter before the gather ever sees them).
    pub per_shard_pruned: Vec<usize>,
    /// Distinct raw retrievals (each logical path counted at its home
    /// shard) — equals the unsharded pipeline's raw count.
    pub raw_distinct: usize,
    /// Distinct pruned candidates after the gather.
    pub pruned_distinct: usize,
    /// Boundary-replicated candidates that survived a shard's pruning but
    /// were dropped by its home filter (never shipped, never gathered).
    pub duplicates_dropped: usize,
    /// Wall time of the scatter + gather. For a prefetched retrieval this
    /// is the batched scatter's wall time, not the (near-zero) cache hit.
    pub retrieve_time: Duration,
    /// True when this retrieval was served from the prefetch cache (its
    /// scatter ran earlier, inside a batched
    /// [`ShardedGraphStore::prefetch`]).
    pub prefetched: bool,
}

/// What one [`ShardedGraphStore::apply_update`] did: how much of the
/// partition the mutation's dirty ball actually reached.
#[derive(Clone, Debug)]
pub struct UpdateStats {
    /// Dirty nodes in the compiled delta (existence-changed ∪ touched).
    pub n_dirty: usize,
    /// Shards rebuilt because the dirty ball reached their halo.
    pub rebuilt_shards: usize,
    /// Existence components carried over from the previous model by
    /// `Arc` (in-process; 0 for a distributed store, where reuse happens
    /// worker-side).
    pub reused_components: usize,
    /// Wall time of the whole update (compile + shard rebuilds, or the
    /// worker broadcast that ran them remotely).
    pub update_time: Duration,
}

/// One entity graph partitioned into N shards, each owning its own
/// subgraph ([`Peg`]) and offline index, with a scatter-gather
/// [`CandidateSource`] on top — written once against the
/// [`ShardTransport`] seam, so the shards may live in this process
/// ([`ShardedGraphStore::build`]) or behind worker processes
/// ([`ShardedGraphStore::connect`]) with **identical** results.
///
/// The store keeps the **full** PEG for the global phases (k-partite
/// construction, joint reduction, match generation evaluate cross-path
/// edges and joint existence), while the *path index* — the offline
/// phase's dominant artifact — exists only in partitioned form. Results
/// through [`ShardedGraphStore::pipeline`] are f64-bit-identical to an
/// unsharded [`QueryPipeline`] over the same graph and offline options,
/// for every shard count and either transport; see the crate docs for
/// the exactness argument.
pub struct ShardedGraphStore {
    peg: Peg,
    transport: Box<dyn ShardTransport>,
    /// The offline options every shard's index was built with — a live
    /// update must rebuild affected shards with the identical config or
    /// the rebuild-equivalence guarantee breaks.
    opts: OfflineOptions,
    /// Shared index config needed to reproduce unsharded estimates.
    beta: f64,
    max_len: usize,
    hist_grid: Vec<f64>,
    /// Merged per-sequence histograms: element-wise sums of each shard's
    /// home-only counts, bit-identical to the unsharded histogram.
    hist: FxHashMap<Vec<u16>, Vec<u32>>,
    stats: ShardingStats,
    last_scatter: Mutex<ScatterStats>,
    /// Gathered candidate sets scattered ahead of execution by
    /// [`ShardedGraphStore::prefetch`], keyed by the exact retrieve
    /// arguments; [`CandidateSource::retrieve`] consumes a matching entry
    /// instead of scattering again.
    prefetched: Mutex<Vec<PrefetchEntry>>,
}

/// The exact arguments a retrieval scatters with, in owned form — what a
/// prefetched result is keyed by. Equality here is equality of the wire
/// request: same label ids, same edges, same decomposition paths, same
/// threshold bits. `pstats` is excluded deliberately: it is a pure
/// function of `(query, path)` (recomputed shard-side), so it cannot
/// diverge between prefetch and retrieve.
#[derive(PartialEq)]
struct PrefetchKey {
    labels: Vec<u16>,
    edges: Vec<(u16, u16)>,
    paths: Vec<Vec<u16>>,
    alpha_bits: u64,
}

impl PrefetchKey {
    fn new(query: &QueryGraph, decomp: &Decomposition, alpha: f64) -> PrefetchKey {
        PrefetchKey {
            labels: query.labels().iter().map(|l| l.0).collect(),
            edges: query.edges().to_vec(),
            paths: decomp.paths.iter().map(|p| p.nodes.clone()).collect(),
            alpha_bits: alpha.to_bits(),
        }
    }
}

struct PrefetchEntry {
    key: PrefetchKey,
    sets: Vec<CandidateSet>,
    scatter: ScatterStats,
}

/// Prefetch-cache entry cap: a batched `query_batch` is bounded well
/// below this, so entries only pile up if callers prefetch and never
/// execute; FIFO eviction bounds that memory.
const MAX_PREFETCHED: usize = 64;

/// Merges one shard's home-only histogram into the accumulator
/// (element-wise integer sums — exact, order-independent).
fn merge_histogram(hist: &mut FxHashMap<Vec<u16>, Vec<u32>>, entries: Vec<(Vec<u16>, Vec<u32>)>) {
    for (seq, counts) in entries {
        match hist.get_mut(&seq) {
            Some(acc) => {
                for (a, c) in acc.iter_mut().zip(&counts) {
                    *a += c;
                }
            }
            None => {
                hist.insert(seq, counts);
            }
        }
    }
}

fn sharding_stats(
    n_shards: usize,
    halo: usize,
    per_shard: Vec<ShardInfo>,
    graph_nodes: usize,
    build_time: Duration,
) -> ShardingStats {
    let total_nodes: usize = per_shard.iter().map(|s| s.nodes).sum();
    ShardingStats {
        n_shards,
        halo_radius: halo,
        replicated_nodes: total_nodes.saturating_sub(graph_nodes),
        replication_factor: if graph_nodes == 0 {
            1.0
        } else {
            total_nodes as f64 / graph_nodes as f64
        },
        total_index_entries: per_shard.iter().map(|s| s.index_entries).sum(),
        per_shard,
        build_time,
    }
}

impl ShardedGraphStore {
    /// Partitions `peg` into `n_shards` in-process shards and builds each
    /// shard's offline index with `opts` (shard builds fan out on the
    /// shared pool). `n_shards == 1` is the degenerate single-shard store
    /// — same machinery, no boundary replication.
    pub fn build(peg: Peg, opts: &OfflineOptions, n_shards: usize) -> Result<Self, PegError> {
        if n_shards == 0 {
            return Err(PegError::Invalid("shard count must be at least 1".into()));
        }
        let t0 = Instant::now();
        let halo = halo_for(n_shards, opts.index.max_len.max(1));
        let shards: Vec<Arc<Shard>> = pegpool::global()
            .map(n_shards, |s| Shard::build(&peg, opts, s, n_shards, halo))
            .into_iter()
            .map(|r| r.map(Arc::new))
            .collect::<Result<_, _>>()?;

        // Merge home-only histograms: each indexed path is counted exactly
        // once (at its home shard), so the element-wise integer sums equal
        // the unsharded index's histogram — and with it, every cardinality
        // estimate the planner asks for, bit-for-bit.
        let mut hist: FxHashMap<Vec<u16>, Vec<u32>> = FxHashMap::default();
        for shard in &shards {
            merge_histogram(
                &mut hist,
                shard.offline.paths.histogram_counts_where(&|sp| shard.is_home_stored(sp.nodes)),
            );
        }

        let per_shard: Vec<ShardInfo> = shards
            .iter()
            .map(|s| ShardInfo {
                nodes: s.peg.graph.n_nodes(),
                owned_nodes: s.n_owned,
                edges: s.peg.graph.n_edges(),
                index_entries: s.offline.paths.n_entries(),
                index_bytes: s.offline.paths.approx_bytes(),
            })
            .collect();
        let stats = sharding_stats(n_shards, halo, per_shard, peg.graph.n_nodes(), t0.elapsed());
        Ok(Self {
            peg,
            transport: Box::new(InProcessTransport { shards }),
            opts: opts.clone(),
            beta: opts.index.beta,
            max_len: opts.index.max_len,
            hist_grid: opts.index.hist_grid.clone(),
            hist,
            stats,
            last_scatter: Mutex::new(ScatterStats::default()),
            prefetched: Mutex::new(Vec::new()),
        })
    }

    /// Binds a store to remote shard workers: sends one `shard_load`
    /// request per worker (built by `load_request(shard, n_shards)` — the
    /// caller supplies the generator spec; requests are issued
    /// concurrently so workers build in parallel), merges the home-only
    /// histograms from the replies, and cross-checks every worker's full
    /// graph against `peg` (node and edge counts must match — a worker
    /// that built a different graph would silently break bit-exactness,
    /// so it is an error instead).
    ///
    /// `peg` is the full graph, which the coordinator keeps for the
    /// global phases; only candidate retrieval goes over the wire.
    pub fn connect(
        peg: Peg,
        opts: &OfflineOptions,
        transport: TcpTransport,
        load_request: impl Fn(usize, usize) -> Json,
    ) -> Result<Self, PegError> {
        let n_shards = transport.n_shards();
        if n_shards == 0 {
            return Err(PegError::Invalid("at least one worker required".into()));
        }
        let t0 = Instant::now();
        let requests: Vec<Json> = (0..n_shards).map(|s| load_request(s, n_shards)).collect();
        let replies: Vec<Result<Json, PegError>> = std::thread::scope(|scope| {
            let transport = &transport;
            let handles: Vec<_> = requests
                .iter()
                .enumerate()
                .map(|(s, req)| {
                    scope.spawn(move || transport.call(s, req).map_err(|e| e.into_peg()))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("handshake thread")).collect()
        });

        let mut hist: FxHashMap<Vec<u16>, Vec<u32>> = FxHashMap::default();
        let mut per_shard = Vec::with_capacity(n_shards);
        let merged = (|| -> Result<(), PegError> {
            for (s, reply) in replies.into_iter().enumerate() {
                let reply = reply?;
                if reply.get("ok") != Some(&Json::Bool(true)) {
                    let code = reply.get("error").and_then(Json::as_str).unwrap_or("error");
                    let msg = reply.get("message").and_then(Json::as_str).unwrap_or("no detail");
                    return Err(PegError::ShardUnavailable {
                        shard: s,
                        detail: format!("shard_load rejected ({code}): {msg}"),
                    });
                }
                let field = |k: &str| -> Result<usize, PegError> {
                    reply.get(k).and_then(Json::as_usize).ok_or_else(|| {
                        PegError::ShardUnavailable {
                            shard: s,
                            detail: format!("shard_load reply missing \"{k}\""),
                        }
                    })
                };
                let (full_nodes, full_edges) = (field("nodes")?, field("edges")?);
                if full_nodes != peg.graph.n_nodes() || full_edges != peg.graph.n_edges() {
                    return Err(PegError::Invalid(format!(
                        "worker {s} built a different graph ({full_nodes} nodes / {full_edges} \
                         edges vs the coordinator's {} / {}); generator specs must match",
                        peg.graph.n_nodes(),
                        peg.graph.n_edges()
                    )));
                }
                per_shard.push(ShardInfo {
                    nodes: field("shard_nodes")?,
                    owned_nodes: field("owned_nodes")?,
                    edges: field("shard_edges")?,
                    index_entries: field("index_entries")?,
                    index_bytes: field("index_bytes")? as u64,
                });
                let entries = reply
                    .get("hist")
                    .ok_or_else(|| PegError::ShardUnavailable {
                        shard: s,
                        detail: "shard_load reply missing \"hist\"".into(),
                    })
                    .and_then(|h| {
                        wire::decode_histogram(h).map_err(|e| PegError::ShardUnavailable {
                            shard: s,
                            detail: format!("bad histogram: {e}"),
                        })
                    })?;
                merge_histogram(&mut hist, entries);
            }
            Ok(())
        })();
        if let Err(e) = merged {
            // A partial handshake must not strand shard state on the
            // workers that *did* build: best-effort shard_unload to each
            // (workers that never loaded reply not_found, harmlessly)
            // before dropping the connections with the error.
            transport.release();
            return Err(e);
        }
        let halo = halo_for(n_shards, opts.index.max_len.max(1));
        let stats = sharding_stats(n_shards, halo, per_shard, peg.graph.n_nodes(), t0.elapsed());
        Ok(Self {
            peg,
            transport: Box::new(transport),
            opts: opts.clone(),
            beta: opts.index.beta,
            max_len: opts.index.max_len,
            hist_grid: opts.index.hist_grid.clone(),
            hist,
            stats,
            last_scatter: Mutex::new(ScatterStats::default()),
            prefetched: Mutex::new(Vec::new()),
        })
    }

    /// The full probabilistic entity graph (global phases run on it).
    pub fn peg(&self) -> &Peg {
        &self.peg
    }

    /// The offline index configuration every shard was built with.
    /// Live-graph embedders need it to register the store for mutation
    /// (`apply_update` recompiles dirty shards under the same options).
    pub fn offline_options(&self) -> &OfflineOptions {
        &self.opts
    }

    /// Shard count.
    pub fn n_shards(&self) -> usize {
        self.transport.n_shards()
    }

    /// Build-time partition and replication statistics.
    pub fn stats(&self) -> &ShardingStats {
        &self.stats
    }

    /// Scatter-gather statistics of the most recent retrieval. A failed
    /// retrieval resets the snapshot to its default (all-zero) state, so
    /// a reader never mistakes a previous query's numbers for the failed
    /// one's.
    pub fn last_scatter(&self) -> ScatterStats {
        self.last_scatter.lock().unwrap().clone()
    }

    /// Per-worker transport counters (`None` for the in-process
    /// transport, which has no wire to measure).
    pub fn worker_stats(&self) -> Option<Vec<WorkerStats>> {
        self.transport.worker_stats()
    }

    /// Releases transport-side resources: for a distributed store, tells
    /// every worker to drop its shard state (best-effort) and closes the
    /// persistent connections. In-process stores free everything on drop
    /// and this is a no-op.
    pub fn release_workers(&self) {
        self.transport.release()
    }

    /// A query pipeline over this store: the same `run` / `run_limited` /
    /// `run_topk` / plan-cache surface as the unsharded pipeline, with
    /// candidate retrieval scattered across the shards.
    pub fn pipeline(&self) -> QueryPipeline<'_> {
        QueryPipeline::with_source(&self.peg, self)
    }

    /// Validates and gathers one scatter's per-shard results into
    /// candidate sets: per path, concatenate the disjoint home-filtered
    /// shard contributions and sort into the canonical candidate order.
    /// A failed shard fails the whole retrieval — partial candidate lists
    /// would silently change results; the first failing shard (lowest
    /// index) wins deterministically. The dedup is defense-in-depth
    /// against a misbehaving remote worker — with correct workers home
    /// sets are disjoint and it drops nothing. `retrieve_time` is left
    /// zero for the caller to stamp.
    fn gather(
        &self,
        n_paths: usize,
        results: Vec<Result<ShardReply, TransportError>>,
    ) -> Result<(Vec<CandidateSet>, ScatterStats), PegError> {
        let n_shards = results.len();
        let mut replies: Vec<ShardReply> = Vec::with_capacity(n_shards);
        for (s, reply) in results.into_iter().enumerate() {
            let reply = reply.map_err(|e| e.into_peg())?;
            if reply.paths.len() != n_paths {
                return Err(PegError::ShardUnavailable {
                    shard: s,
                    detail: format!(
                        "reply carries {} path partials, expected {n_paths}",
                        reply.paths.len()
                    ),
                });
            }
            replies.push(reply);
        }

        let mut scatter = ScatterStats {
            per_shard_raw: vec![0; n_shards],
            per_shard_pruned: vec![0; n_shards],
            ..ScatterStats::default()
        };
        let mut out = Vec::with_capacity(n_paths);
        for i in 0..n_paths {
            let mut merged: Vec<(PathMatch, f64)> = Vec::new();
            let mut raw_count = 0usize;
            for (s, reply) in replies.iter_mut().enumerate() {
                let part = &mut reply.paths[i];
                scatter.per_shard_raw[s] += part.raw_total;
                scatter.per_shard_pruned[s] += part.pruned_total;
                raw_count += part.raw_home;
                merged.extend(part.matches.drain(..).zip(part.bounds.drain(..)));
            }
            // Canonical sort + defensive dedup, keep-bounds riding along
            // so the gathered sets carry the same aligned bounds an
            // unsharded retrieval produces.
            merged.sort_unstable_by(|a, b| a.0.nodes.cmp(&b.0.nodes));
            merged.dedup_by(|a, b| a.0.nodes == b.0.nodes);
            scatter.pruned_distinct += merged.len();
            scatter.raw_distinct += raw_count;
            let mut matches = Vec::with_capacity(merged.len());
            let mut bounds = Vec::with_capacity(merged.len());
            for (m, b) in merged {
                matches.push(m);
                bounds.push(b);
            }
            out.push(CandidateSet { matches, bounds, raw_count });
        }
        // Survivors a shard's home filter dropped (boundary replicas),
        // plus anything the defensive gather dedup removed.
        scatter.duplicates_dropped =
            scatter.per_shard_pruned.iter().sum::<usize>().saturating_sub(scatter.pruned_distinct);
        Ok((out, scatter))
    }

    /// Scatters many retrievals at once — one batched round trip per
    /// worker on a remote transport ([`ShardTransport::scatter_many`]) —
    /// and parks the gathered candidate sets in the prefetch cache, keyed
    /// by the exact arguments [`CandidateSource::retrieve`] will pass
    /// when each prepared query executes (see [`PreparedQuery`]'s
    /// accessors: a session rebasing at `alpha` retrieves with precisely
    /// its plan's query, decomposition, and statistics). Best-effort: a
    /// failed query is simply not cached, and its later live scatter
    /// surfaces the error — correctness never depends on prefetching.
    pub fn prefetch(&self, batch: &[(&PreparedQuery, f64)], pool: &ThreadPool) {
        if batch.is_empty() {
            return;
        }
        // Prefetches are untraced: batch scatters carry no trace id, and
        // there is no live request whose tree they would belong to.
        let inert = Span::disabled();
        let reqs: Vec<ShardRequest<'_>> = batch
            .iter()
            .map(|(p, alpha)| ShardRequest {
                query: p.query(),
                decomp: p.decomposition(),
                pstats: p.path_stats(),
                alpha: *alpha,
                span: &inert,
            })
            .collect();
        let t0 = Instant::now();
        let all = self.transport.scatter_many(&reqs, pool);
        let elapsed = t0.elapsed();
        let mut cache = self.prefetched.lock().unwrap();
        for (req, results) in reqs.iter().zip(all) {
            let Ok((sets, mut scatter)) = self.gather(req.decomp.paths.len(), results) else {
                continue;
            };
            // The batch's wall time is the honest scatter cost of each
            // member — they shared one round trip.
            scatter.retrieve_time = elapsed;
            scatter.prefetched = true;
            let key = PrefetchKey::new(req.query, req.decomp, req.alpha);
            cache.retain(|e| e.key != key);
            if cache.len() >= MAX_PREFETCHED {
                cache.remove(0);
            }
            cache.push(PrefetchEntry { key, sets, scatter });
        }
    }

    /// Applies a mutation batch to this store, returning the successor
    /// store, the mutated reference network (input to the *next*
    /// mutation), and what the update touched. `self` is untouched —
    /// in-flight sessions keep querying the pre-update store while the
    /// caller swaps the successor in.
    ///
    /// `refs` must be the reference network this store's graph was
    /// compiled from and `builder` the compiler it was compiled with;
    /// the successor is then **bit-identical** to a from-scratch
    /// `build`/`connect` over the mutated network: only shards whose
    /// halo ball the dirty set reaches are rebuilt (the rest are carried
    /// by `Arc` in process, or reused worker-side over the wire — see
    /// `shard::affected_shards` for the soundness argument),
    /// and the merged histogram is re-derived from every shard's
    /// home-only counts, so planner estimates match a fresh build's
    /// exactly.
    ///
    /// Distributed stores broadcast `shard_update` at the next version.
    /// On a partial failure the error is returned and `self` stays fully
    /// usable (its retrieves pin the pre-update version, which workers
    /// keep); retrying the update re-sends the same version, which
    /// workers that already applied it acknowledge idempotently.
    pub fn apply_update(
        &self,
        refs: &RefGraph,
        builder: &PegBuilder,
        ops: &[GraphOp],
    ) -> Result<(ShardedGraphStore, RefGraph, UpdateStats), PegError> {
        let t0 = Instant::now();
        let n_shards = self.transport.n_shards();
        let mut new_refs = refs.clone();
        let touched = new_refs.apply_all(ops).map_err(PegError::Invalid)?;
        let delta = builder.rebuild(&new_refs, &self.peg, &touched)?;
        let n_dirty = delta.dirty.iter().filter(|d| **d).count();
        let halo = halo_for(n_shards, self.opts.index.max_len.max(1));
        let affected =
            affected_shards(&self.peg.graph, &delta.peg.graph, &delta.dirty, n_shards, halo);

        if let Some(ipt) = self.transport.as_in_process() {
            let new_peg = delta.peg;
            let shards: Vec<Arc<Shard>> = {
                let prev = &ipt.shards;
                let new_peg = &new_peg;
                let affected = &affected;
                pegpool::global()
                    .map(n_shards, |s| {
                        if affected[s] {
                            Shard::build(new_peg, &self.opts, s, n_shards, halo).map(Arc::new)
                        } else {
                            Ok(prev[s].clone())
                        }
                    })
                    .into_iter()
                    .collect::<Result<_, _>>()?
            };
            let mut hist: FxHashMap<Vec<u16>, Vec<u32>> = FxHashMap::default();
            for shard in &shards {
                merge_histogram(
                    &mut hist,
                    shard
                        .offline
                        .paths
                        .histogram_counts_where(&|sp| shard.is_home_stored(sp.nodes)),
                );
            }
            let per_shard: Vec<ShardInfo> = shards
                .iter()
                .map(|s| ShardInfo {
                    nodes: s.peg.graph.n_nodes(),
                    owned_nodes: s.n_owned,
                    edges: s.peg.graph.n_edges(),
                    index_entries: s.offline.paths.n_entries(),
                    index_bytes: s.offline.paths.approx_bytes(),
                })
                .collect();
            let update = UpdateStats {
                n_dirty,
                rebuilt_shards: affected.iter().filter(|a| **a).count(),
                reused_components: delta.reused_components,
                update_time: t0.elapsed(),
            };
            let stats =
                sharding_stats(n_shards, halo, per_shard, new_peg.graph.n_nodes(), t0.elapsed());
            let store = ShardedGraphStore {
                peg: new_peg,
                transport: Box::new(InProcessTransport { shards }),
                opts: self.opts.clone(),
                beta: self.beta,
                max_len: self.max_len,
                hist_grid: self.hist_grid.clone(),
                hist,
                stats,
                last_scatter: Mutex::new(ScatterStats::default()),
                prefetched: Mutex::new(Vec::new()),
            };
            return Ok((store, new_refs, update));
        }

        let tcp = self.transport.as_tcp().ok_or_else(|| {
            PegError::Invalid("this store's transport does not support live updates".into())
        })?;
        let version = tcp.version() + 1;
        let req = wire::update_request(tcp.graph(), ops, version);
        let replies: Vec<Result<Json, PegError>> = std::thread::scope(|scope| {
            let (tcp, req) = (&tcp, &req);
            let handles: Vec<_> = (0..n_shards)
                .map(|s| scope.spawn(move || tcp.call(s, req).map_err(|e| e.into_peg())))
                .collect();
            handles.into_iter().map(|h| h.join().expect("update broadcast thread")).collect()
        });

        let new_peg = delta.peg;
        let mut hist: FxHashMap<Vec<u16>, Vec<u32>> = FxHashMap::default();
        let mut per_shard = Vec::with_capacity(n_shards);
        let mut rebuilt_shards = 0usize;
        for (s, reply) in replies.into_iter().enumerate() {
            let reply = reply?;
            if reply.get("ok") != Some(&Json::Bool(true)) {
                let code = reply.get("error").and_then(Json::as_str).unwrap_or("error");
                let msg = reply.get("message").and_then(Json::as_str).unwrap_or("no detail");
                return Err(PegError::ShardUnavailable {
                    shard: s,
                    detail: format!("shard_update rejected ({code}): {msg}"),
                });
            }
            let field = |k: &str| -> Result<usize, PegError> {
                reply.get(k).and_then(Json::as_usize).ok_or_else(|| PegError::ShardUnavailable {
                    shard: s,
                    detail: format!("shard_update reply missing \"{k}\""),
                })
            };
            if field("version")? as u64 != version {
                return Err(PegError::ShardUnavailable {
                    shard: s,
                    detail: format!("worker acknowledged the wrong version (wanted {version})"),
                });
            }
            // The same cross-check the load handshake does: a worker
            // whose mutated full graph disagrees with the coordinator's
            // would silently break bit-exactness.
            let (full_nodes, full_edges) = (field("nodes")?, field("edges")?);
            if full_nodes != new_peg.graph.n_nodes() || full_edges != new_peg.graph.n_edges() {
                return Err(PegError::Invalid(format!(
                    "worker {s} mutated to a different graph ({full_nodes} nodes / {full_edges} \
                     edges vs the coordinator's {} / {})",
                    new_peg.graph.n_nodes(),
                    new_peg.graph.n_edges()
                )));
            }
            if reply.get("rebuilt") == Some(&Json::Bool(true)) {
                rebuilt_shards += 1;
            }
            per_shard.push(ShardInfo {
                nodes: field("shard_nodes")?,
                owned_nodes: field("owned_nodes")?,
                edges: field("shard_edges")?,
                index_entries: field("index_entries")?,
                index_bytes: field("index_bytes")? as u64,
            });
            let entries = reply
                .get("hist")
                .ok_or_else(|| PegError::ShardUnavailable {
                    shard: s,
                    detail: "shard_update reply missing \"hist\"".into(),
                })
                .and_then(|h| {
                    wire::decode_histogram(h).map_err(|e| PegError::ShardUnavailable {
                        shard: s,
                        detail: format!("bad histogram: {e}"),
                    })
                })?;
            merge_histogram(&mut hist, entries);
        }

        let update = UpdateStats {
            n_dirty,
            rebuilt_shards,
            reused_components: delta.reused_components,
            update_time: t0.elapsed(),
        };
        let stats =
            sharding_stats(n_shards, halo, per_shard, new_peg.graph.n_nodes(), t0.elapsed());
        let store = ShardedGraphStore {
            peg: new_peg,
            transport: Box::new(tcp.at_version(version)),
            opts: self.opts.clone(),
            beta: self.beta,
            max_len: self.max_len,
            hist_grid: self.hist_grid.clone(),
            hist,
            stats,
            last_scatter: Mutex::new(ScatterStats::default()),
            prefetched: Mutex::new(Vec::new()),
        };
        Ok((store, new_refs, update))
    }
}

impl CandidateSource for ShardedGraphStore {
    fn max_len(&self) -> usize {
        self.max_len
    }

    fn beta(&self) -> f64 {
        self.beta
    }

    fn estimate_path_count(&self, labels: &[Label], alpha: f64) -> f64 {
        // Mirror `OfflineIndex::estimate_path_count` over the merged
        // histogram: clamp below-β thresholds to β (the on-demand
        // fallback's count is approximated by the count at β, exactly as
        // the unsharded store does), then the shared estimation core.
        // Counts equal the unsharded histogram's, so estimates are
        // bit-identical.
        let alpha = alpha.max(self.beta);
        let (canonical, palindrome) = pathindex::canonical_label_seq(labels);
        let Some(counts) = self.hist.get(&canonical) else {
            return 0.0;
        };
        pathindex::estimate_from_counts(&self.hist_grid, counts, alpha, palindrome, labels.len())
    }

    fn retrieve(
        &self,
        query: &QueryGraph,
        decomp: &Decomposition,
        pstats: &[PathStats],
        alpha: f64,
        span: &Span,
        pool: &ThreadPool,
    ) -> Result<Vec<CandidateSet>, PegError> {
        let t0 = Instant::now();
        let n_paths = decomp.paths.len();
        // Cleared up front: if the scatter fails below, the snapshot must
        // not keep advertising a previous query's numbers.
        *self.last_scatter.lock().unwrap() = ScatterStats::default();

        // A matching prefetched result short-circuits the scatter — its
        // candidates came from the identical wire request, gathered the
        // identical way, so the result is bit-for-bit what a live scatter
        // would produce.
        let key = PrefetchKey::new(query, decomp, alpha);
        let hit = {
            let mut cache = self.prefetched.lock().unwrap();
            cache.iter().position(|e| e.key == key).map(|pos| cache.remove(pos))
        };
        if let Some(entry) = hit {
            *self.last_scatter.lock().unwrap() = entry.scatter;
            return Ok(entry.sets);
        }

        // Scatter, through the transport seam: every shard answers every
        // path with home-filtered, globalized, canonically sorted
        // partials (see `Shard::retrieve_path` for the exactness
        // argument).
        let req = ShardRequest { query, decomp, pstats, alpha, span };
        let results = self.transport.scatter(&req, pool);
        let (out, mut scatter) = self.gather(n_paths, results)?;
        scatter.retrieve_time = t0.elapsed();
        *self.last_scatter.lock().unwrap() = scatter;
        Ok(out)
    }
}
