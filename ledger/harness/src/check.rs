//! The correctness gate, run after the timed window: every served reply
//! against the in-process pipeline on an identically generated graph.
//! Query replies must carry the same node tuples and the same f64 bits of
//! `prle`/`prn`; update replies must report the version, node and edge
//! counts of a from-scratch rebuild with the same ops applied.

use crate::client::{Reply, Sample, WireMatch};
use crate::workload::{offline_options, Op, Request};
use graphstore::{GraphOp, RefGraph};
use pegmatch::matcher::Match;
use pegmatch::model::PegBuilder;
use pegmatch::offline::OfflineIndex;
use pegmatch::online::{QueryOptions, QueryPipeline};
use pegmatch::Peg;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A compiled graph version: the PEG and its offline index.
pub struct Version {
    pub peg: Peg,
    pub offline: OfflineIndex,
}

/// Build timings (milliseconds) and size of one version.
#[derive(Clone, Copy, Default)]
pub struct BuildInfo {
    pub peg_ms: f64,
    pub index_ms: f64,
    pub entities: usize,
    pub edges: usize,
}

impl Version {
    pub fn build(refs: &RefGraph) -> (Version, BuildInfo) {
        let t = Instant::now();
        let peg = PegBuilder::new().build(refs).expect("generated graphs compile");
        let peg_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let offline = OfflineIndex::build(&peg, &offline_options()).expect("offline index builds");
        let index_ms = t.elapsed().as_secs_f64() * 1e3;
        let (entities, edges) = (peg.graph.n_nodes(), peg.graph.n_edges());
        (Version { peg, offline }, BuildInfo { peg_ms, index_ms, entities, edges })
    }
}

/// One lane per query, as the server runs each session.
pub fn query_options() -> QueryOptions {
    QueryOptions { threads: 1, ..Default::default() }
}

/// The direct pipeline's answer to `req` — `run_limited` or `run_topk`
/// with no caches attached.
pub fn reference(v: &Version, req: &Request) -> (Vec<Match>, bool) {
    direct(&QueryPipeline::new(&v.peg, &v.offline), req)
}

/// `req` answered by `pipe`'s untraced drivers.
pub fn direct(pipe: &QueryPipeline<'_>, req: &Request) -> (Vec<Match>, bool) {
    let opts = query_options();
    let res = match req.op {
        Op::Query { alpha, limit } => pipe.run_limited(&req.query, alpha, Some(limit), &opts),
        Op::Topk { k } => pipe.run_topk(&req.query, k, 1e-9, &opts),
    };
    let res = res.expect("generated requests are valid");
    (res.matches, res.truncated)
}

pub fn same(wire: &[WireMatch], want: &[Match]) -> bool {
    wire.len() == want.len()
        && wire.iter().zip(want).all(|(w, m)| {
            w.prle == m.prle.to_bits()
                && w.prn == m.prn.to_bits()
                && w.nodes.len() == m.nodes.len()
                && w.nodes.iter().zip(&m.nodes).all(|(a, b)| *a == b.0)
        })
}

/// Outcome of the gate.
pub struct Verdict {
    /// Per query sample (same order as given): the graph version its
    /// reply matched, or `None` when it failed.
    pub query_versions: Vec<Option<usize>>,
    /// Failed ops: error replies, timeouts and wrong answers.
    pub failed: usize,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
    /// The version-0 build.
    pub build: BuildInfo,
}

/// Checks every sample. Queries may have been answered at any version in
/// their window; `updates` are the batches the update samples applied,
/// in order. Reference work runs on `lanes` threads.
pub fn check(
    refs0: &RefGraph,
    requests: &[Request],
    queries: &[&Sample],
    updates: &[&Sample],
    batches: &[Vec<GraphOp>],
    lanes: usize,
) -> Verdict {
    let mut verdict = Verdict {
        query_versions: vec![None; queries.len()],
        failed: 0,
        notes: Vec::new(),
        build: BuildInfo::default(),
    };
    let note = |verdict: &mut Verdict, msg: String| {
        verdict.failed += 1;
        if verdict.notes.len() < 5 {
            verdict.notes.push(msg);
        }
    };
    // Queries still waiting for a version that matches them.
    let mut open: Vec<usize> = Vec::new();
    for (qi, s) in queries.iter().enumerate() {
        match &s.reply {
            Reply::Matches { .. } => open.push(qi),
            Reply::Failed(e) => note(&mut verdict, format!("query {}: {e}", s.index)),
            Reply::Update { .. } => unreachable!("query samples carry query replies"),
        }
    }
    let last = queries
        .iter()
        .map(|s| s.versions.1)
        .chain(updates.iter().map(|s| s.index + 1))
        .max()
        .unwrap_or(0);
    let mut refs = refs0.clone();
    for v in 0..=last {
        if v > 0 {
            refs.apply_all(&batches[v - 1]).expect("generated ops are valid");
        }
        let due: Vec<usize> =
            open.iter().copied().filter(|&qi| queries[qi].versions.0 <= v).collect();
        let update = updates.iter().find(|s| s.index + 1 == v);
        if due.is_empty() && update.is_none() {
            continue;
        }
        // Update-only versions need the entity graph's size, not its index.
        let version = (!due.is_empty()).then(|| {
            let (version, times) = Version::build(&refs);
            if v == 0 {
                verdict.build = times;
            }
            version
        });
        if let Some(s) = update {
            let size = |p: &Peg| (p.graph.n_nodes(), p.graph.n_edges());
            let (n, e) = match &version {
                Some(version) => size(&version.peg),
                None => size(&PegBuilder::new().build(&refs).expect("generated graphs compile")),
            };
            match &s.reply {
                Reply::Update { version: got, nodes, edges, .. } => {
                    let want = (v as u64, n, e);
                    if (*got, *nodes, *edges) != want {
                        note(
                            &mut verdict,
                            format!(
                                "update {}: got {:?}, rebuild {want:?}",
                                s.index,
                                (got, nodes, edges)
                            ),
                        );
                    }
                }
                Reply::Failed(e) => note(&mut verdict, format!("update {}: {e}", s.index)),
                Reply::Matches { .. } => unreachable!("update samples carry update replies"),
            }
        }
        let Some(version) = version else { continue };
        let passed = Mutex::new(Vec::new());
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|sc| {
            for _ in 0..lanes {
                sc.spawn(|| {
                    while let Some(&qi) = due.get(cursor.fetch_add(1, Ordering::SeqCst)) {
                        let s = queries[qi];
                        let Reply::Matches { matches, truncated, .. } = &s.reply else {
                            unreachable!()
                        };
                        let (want, want_truncated) = reference(&version, &requests[s.index]);
                        if *truncated == want_truncated && same(matches, &want) {
                            passed.lock().expect("no checker panicked").push(qi);
                        }
                    }
                });
            }
        });
        for qi in passed.into_inner().expect("no checker panicked") {
            verdict.query_versions[qi] = Some(v);
        }
        open.retain(|&qi| verdict.query_versions[qi].is_none());
        for &qi in &open {
            if queries[qi].versions.1 <= v {
                let s = queries[qi];
                note(
                    &mut verdict,
                    format!(
                        "query {} ({}): reply differs from the direct pipeline",
                        s.index, requests[s.index].pattern
                    ),
                );
            }
        }
        open.retain(|&qi| queries[qi].versions.1 > v);
    }
    verdict
}
