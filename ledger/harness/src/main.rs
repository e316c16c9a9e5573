//! Serving ledger: drives the real `pegcli serve` / `pegcli shard-worker`
//! processes over loopback with a seeded closed-loop request list, checks
//! every reply against the in-process pipeline, and prints the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of an in-process staged
//! replay (`--trace 1`). See `ledger/README.md`.
//!
//! ```text
//! ledger --pegcli PATH --workload NAME --seed N --seconds S --trace 0|1 [--commit C] [--rustc V]
//! ```

mod check;
mod client;
mod json;
mod procs;
mod replay;
mod workload;

use check::Version;
use client::{Kind, Reply, Sample};
use pegmatch::online::PlanCache;
use pegwire::json::{obj, Json};
use procs::Topology;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use workload::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Requests and mutation batches the traced replay re-runs.
const REPLAY_REQUESTS: usize = 64;
const REPLAY_UPDATES: usize = 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    pegcli: PathBuf,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |k: &str| -> Option<&str> {
        argv.iter().position(|a| a == k).and_then(|i| argv.get(i + 1)).map(String::as_str)
    };
    let need = |k: &str| get(k).ok_or_else(|| format!("missing {k}"));
    let workload = need("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: need("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: need("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
            .ok_or("--seconds must be a number of seconds in (0, 3600]")?,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other}")),
        },
        pegcli: PathBuf::from(need("--pegcli")?),
        commit: get("--commit").unwrap_or("unknown").to_string(),
        rustc: get("--rustc").unwrap_or("unknown").to_string(),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("ledger: {e}");
            std::process::exit(1);
        }
    }
}

/// Nearest-rank percentile of unsorted values (0 when empty).
fn pct(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn run(args: &Args) -> Result<Json, String> {
    let w = args.workload;
    let t = Instant::now();
    let refs0 = workload::graph_refs();
    let refgraph_ms = t.elapsed().as_secs_f64() * 1e3;
    let table = refs0.label_table().clone();
    let requests = workload::requests(w, args.seed, &table, args.seconds);
    let n_batches =
        if w.writes_in_window() { (args.seconds * 40.0) as usize + 40 } else { w.probe_batches() };
    let batches = workload::update_batches(args.seed, &refs0, n_batches);
    let flags = workload::graph_flags();

    // Set-up, several times; the last topology stays up for the window.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut topo: Option<Topology> = None;
    for _ in 0..SETUP_REPS {
        drop(topo.take());
        let (t, dt) = Topology::start(&args.pegcli, &flags, w.workers())?;
        setups.push(dt.as_secs_f64());
        topo = Some(t);
    }
    let topo = topo.expect("at least one set-up");
    let addr = topo.server.addr.clone();

    let readers =
        if w.writes_in_window() { workload::CONNECTIONS - 1 } else { workload::CONNECTIONS };
    let window = client::run_window(
        &addr,
        &requests,
        w.writes_in_window().then_some(batches.as_slice()),
        readers,
        args.seconds,
    )?;
    let stats = client::Conn::open(&addr)?.call_json(r#"{"op":"stats"}"#)?;
    let peak_rss_mb = topo.peak_rss_mib()?;
    let mut samples = window.samples;
    if !w.writes_in_window() {
        samples.extend(client::run_updates(&addr, &batches)?);
    }
    // The traced replay of the sharded workload scatters to the same
    // workers; every other run stops the servers before the check.
    let topo = if args.trace && w.workers() > 0 {
        Some(topo)
    } else {
        drop(topo);
        None
    };

    let queries: Vec<&Sample> = samples.iter().filter(|s| s.kind == Kind::Query).collect();
    let updates: Vec<&Sample> = samples.iter().filter(|s| s.kind == Kind::Update).collect();
    let t_check = Instant::now();
    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
    let verdict = check::check(&refs0, &requests, &queries, &updates, &batches, lanes);
    let check_s = t_check.elapsed().as_secs_f64();
    for n in &verdict.notes {
        eprintln!("ledger: check failed: {n}");
    }

    let query_ms: Vec<f64> = queries.iter().map(|s| s.rtt.as_secs_f64() * 1e3).collect();
    let update_ms: Vec<f64> = updates.iter().map(|s| s.rtt.as_secs_f64() * 1e3).collect();
    let mut metrics: Metrics = if !args.trace {
        vec![
            ("query_p50_ms", pct(&query_ms, 0.5), "ms"),
            ("query_p90_ms", pct(&query_ms, 0.9), "ms"),
            ("throughput_qps", queries.len() as f64 / window.wall.as_secs_f64(), "1/s"),
            ("update_p50_ms", pct(&update_ms, 0.5), "ms"),
            ("update_p90_ms", pct(&update_ms, 0.9), "ms"),
            ("setup_s", pct(&setups, 0.5), "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    } else {
        Vec::new()
    };
    let mut correct = verdict.failed == 0;
    if args.trace {
        let served = served_layers(&queries, &updates, &stats);
        let (replayed, faithful) =
            replay_layers(&refs0, &requests, &queries, &verdict, &batches, topo.as_ref())?;
        correct &= faithful;
        metrics.push(("setup.refgraph_ms", refgraph_ms, "ms"));
        metrics.push(("setup.peg_ms", verdict.build.peg_ms, "ms"));
        metrics.push(("setup.index_ms", verdict.build.index_ms, "ms"));
        metrics.extend(replayed);
        metrics.extend(served);
    }
    drop(topo);

    let attempted = samples.len();
    let failed = verdict.failed;
    let stamp = obj()
        .field("commit", args.commit.as_str())
        .field("rustc", args.rustc.as_str())
        .field("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()))
        .field("spec", workload::spec_json(w, args.seed))
        .field("entities", verdict.build.entities)
        .field("edges", verdict.build.edges)
        .field("seconds", args.seconds)
        .field("check_s", check_s)
        .field("trace", args.trace)
        .field("queries", queries.len())
        .field("updates", updates.len())
        .field("setups_s", Json::Arr(setups.iter().map(|&x| Json::Num(x)).collect()))
        .build();
    println!("ledger stamp {stamp}");
    println!(
        "ledger {}: {attempted} ops attempted, {failed} failed (error rate {:.4}), correct {correct}",
        w.name(),
        ratio(failed as f64, attempted as f64),
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    let mut m = obj();
    for (name, value, unit) in &metrics {
        m = m.field(name, obj().field("value", *value).field("unit", *unit).build());
    }
    Ok(obj()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", m.build())
        .build())
}

/// Layer metrics the served run itself reports: reply sizes, time spent
/// outside the server's measured execution, cache hit rates and the
/// coordinator's per-worker transport counters.
fn served_layers(queries: &[&Sample], updates: &[&Sample], stats: &Json) -> Metrics {
    let mut bytes = Vec::new();
    let mut outside = Vec::new();
    let (mut plan_hits, mut plan_seen) = (0usize, 0usize);
    for s in queries {
        if let Reply::Matches { elapsed_us, plan_from_cache, .. } = &s.reply {
            bytes.push(s.bytes as f64);
            outside.push(s.rtt.as_secs_f64() * 1e3 - *elapsed_us as f64 / 1e3);
            if let Some(hit) = plan_from_cache {
                plan_seen += 1;
                plan_hits += usize::from(*hit);
            }
        }
    }
    let mut update_server = Vec::new();
    let mut update_outside = Vec::new();
    for s in updates {
        if let Reply::Update { update_us, .. } = &s.reply {
            update_server.push(*update_us as f64 / 1e3);
            update_outside.push(s.rtt.as_secs_f64() * 1e3 - *update_us as f64 / 1e3);
        }
    }
    let graph = stats.get("graphs").and_then(Json::as_arr).and_then(|g| g.first());
    let num =
        |j: Option<&Json>, k: &str| j.and_then(|j| j.get(k)).and_then(Json::as_f64).unwrap_or(0.0);
    // `query_topk` replies carry no plan flag: read the server's own
    // plan-cache counters (no update ran before they were read).
    let plan_hit_rate = if plan_seen > 0 {
        plan_hits as f64 / plan_seen as f64
    } else {
        num(graph.and_then(|g| g.get("plan_cache")), "hit_rate")
    };
    let exec = stats.get("exec_cache");
    let exec_hit_rate = ratio(num(exec, "hits"), num(exec, "hits") + num(exec, "misses"));
    let workers: Vec<&Json> = graph
        .and_then(|g| g.get("workers"))
        .and_then(Json::as_arr)
        .map(|w| w.iter().collect())
        .unwrap_or_default();
    let sum = |k: &str| workers.iter().fold(0.0, |acc, w| acc + num(Some(w), k));
    let n_queries = queries.len() as f64;
    vec![
        ("plan_cache.hit_rate", plan_hit_rate, "ratio"),
        ("exec_cache.hit_rate", exec_hit_rate, "ratio"),
        ("scatter.bytes_rx_per_query", ratio(sum("bytes_rx"), n_queries), "B"),
        ("scatter.requests_per_query", ratio(sum("requests"), n_queries), "count"),
        ("reply.bytes_p50", pct(&bytes, 0.5), "B"),
        ("serve.outside_p50_ms", pct(&outside, 0.5), "ms"),
        ("update.server_p50_ms", pct(&update_server, 0.5), "ms"),
        ("update.outside_p50_ms", pct(&update_outside, 0.5), "ms"),
    ]
}

/// The staged in-process replay of the first [`REPLAY_REQUESTS`] checked
/// queries, each at the graph version its reply matched, interleaved with
/// the staged mutation batches. Returns the layer metrics and whether
/// every staged answer equalled the direct pipeline's.
fn replay_layers(
    refs0: &graphstore::RefGraph,
    requests: &[workload::Request],
    queries: &[&Sample],
    verdict: &check::Verdict,
    batches: &[Vec<graphstore::GraphOp>],
    topo: Option<&Topology>,
) -> Result<(Metrics, bool), String> {
    let mut by_version: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (qi, v) in verdict.query_versions.iter().enumerate() {
        if let Some(v) = v {
            by_version.entry(*v).or_default().push(queries[qi].index);
        }
    }
    let mut picked: Vec<(usize, usize)> =
        by_version.iter().flat_map(|(v, idx)| idx.iter().map(move |i| (*i, *v))).collect();
    picked.sort();
    picked.truncate(REPLAY_REQUESTS);
    let mut at: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, v) in picked {
        at.entry(v).or_default().push(i);
    }
    let last = at.keys().copied().max().unwrap_or(0).max(REPLAY_UPDATES.min(batches.len()));

    let (mut current, _) = Version::build(refs0);
    let mut refs = refs0.clone();
    // Sharding set-up: the sharded workload connects to its running
    // workers (they build their shards over the wire); the others time
    // the same two-way partition and shard index builds in process.
    let (sharded, shard_ms) = match topo {
        Some(topo) if !topo.workers.is_empty() => {
            let (store, ms) = connect_sharded(&current, topo)?;
            (Some(store), ms)
        }
        _ => {
            let t = Instant::now();
            let shards = current.peg.clone();
            pegshard::ShardedGraphStore::build(shards, &workload::offline_options(), 2)
                .map_err(|e| e.to_string())?;
            (None, t.elapsed().as_secs_f64() * 1e3)
        }
    };
    let mut layers = Vec::new();
    let mut ups = Vec::new();
    let mut faithful = true;
    for v in 0..=last {
        let plans = Arc::new(PlanCache::new());
        for &i in at.get(&v).into_iter().flatten() {
            let (l, ok) = replay::replay(&current, sharded.as_ref(), &plans, &requests[i]);
            if !ok {
                eprintln!("ledger: replay of request {i} differs from the direct pipeline");
            }
            faithful &= ok;
            layers.push(l);
        }
        if let Some(batch) = batches.get(v).filter(|_| v < last) {
            let (next_refs, next, u) = replay::replay_update(&refs, &current, batch);
            refs = next_refs;
            current = next;
            ups.push(u);
        }
    }
    if let Some(store) = &sharded {
        store.release_workers();
    }

    let col = |f: &dyn Fn(&replay::Layers) -> f64| layers.iter().map(f).collect::<Vec<f64>>();
    let sum = |f: &dyn Fn(&replay::Layers) -> usize| layers.iter().map(f).sum::<usize>() as f64;
    let n = layers.len() as f64;
    let retrieve = col(&|l| l.retrieve_ms);
    let join = col(&|l| l.join_ms);
    let generate = col(&|l| l.generate_ms);
    let residual = col(&|l| {
        l.direct_ms - (l.prepare_us / 1e3 + l.retrieve_ms + l.join_ms + l.reduce_ms + l.generate_ms)
    });
    let staged: f64 = col(&|l| l.staged_ms).iter().sum();
    let direct: f64 = col(&|l| l.direct_ms).iter().sum();
    let upd = |f: &dyn Fn(&replay::UpdateLayers) -> f64| ups.iter().map(f).collect::<Vec<f64>>();
    Ok((
        vec![
            ("setup.shard_ms", shard_ms, "ms"),
            ("prepare.p50_us", pct(&col(&|l| l.prepare_us), 0.5), "us"),
            ("retrieve.p50_ms", pct(&retrieve, 0.5), "ms"),
            ("retrieve.p90_ms", pct(&retrieve, 0.9), "ms"),
            ("retrieve.raw", sum(&|l| l.raw) / n, "count"),
            ("retrieve.keep_ratio", ratio(sum(&|l| l.pruned), sum(&|l| l.raw)), "ratio"),
            (
                "scatter.dup_ratio",
                ratio(sum(&|l| l.scatter_dups), sum(&|l| l.scatter_dups + l.scatter_kept)),
                "ratio",
            ),
            ("join.p50_ms", pct(&join, 0.5), "ms"),
            ("join.p90_ms", pct(&join, 0.9), "ms"),
            ("join.vertices", sum(&|l| l.vertices) / n, "count"),
            ("join.links", sum(&|l| l.links) / n, "count"),
            ("reduce.p50_ms", pct(&col(&|l| l.reduce_ms), 0.5), "ms"),
            ("reduce.rounds", sum(&|l| l.rounds) / n, "count"),
            ("reduce.frontier_evals", sum(&|l| l.frontier_evals) / n, "count"),
            (
                "reduce.survivor_ratio",
                ratio(sum(&|l| l.survivors), sum(&|l| l.reduced_from)),
                "ratio",
            ),
            ("generate.p50_ms", pct(&generate, 0.5), "ms"),
            ("generate.p90_ms", pct(&generate, 0.9), "ms"),
            ("generate.matches", sum(&|l| l.matches) / n, "count"),
            ("generate.truncated_share", sum(&|l| usize::from(l.truncated)) / n, "ratio"),
            ("encode.p50_ms", pct(&col(&|l| l.encode_ms), 0.5), "ms"),
            ("update.apply_ms", pct(&upd(&|u| u.apply_ms), 0.5), "ms"),
            ("update.index_ms", pct(&upd(&|u| u.index_ms), 0.5), "ms"),
            ("update.dirty_nodes", mean(&upd(&|u| u.dirty as f64)), "count"),
            ("replay.residual_ms", pct(&residual, 0.5), "ms"),
            ("trace.overhead_ratio", ratio(staged, direct), "ratio"),
            ("replay.requests", n, "count"),
        ],
        faithful,
    ))
}

/// Connects an in-process coordinator to the running workers under a
/// graph name of its own, timing `ShardedGraphStore::connect` (the
/// workers build their shards inside it).
fn connect_sharded(
    v: &Version,
    topo: &Topology,
) -> Result<(pegshard::ShardedGraphStore, f64), String> {
    const NAME: &str = "ledger-replay";
    let opts = workload::offline_options();
    let spec = pegserve::GraphSpec {
        kind: "synthetic".to_string(),
        size: workload::GRAPH_REFS,
        seed: workload::GRAPH_SEED,
        uncertainty: workload::UNCERTAINTY,
    };
    let addrs: Vec<String> = topo.workers.iter().map(|w| w.addr.clone()).collect();
    let t = Instant::now();
    let transport = pegshard::TcpTransport::connect(NAME, &addrs, Default::default())
        .map_err(|e| e.to_string())?;
    let store = pegshard::ShardedGraphStore::connect(v.peg.clone(), &opts, transport, |s, n| {
        spec.shard_load_json(NAME, &opts.index, s, n)
    })
    .map_err(|e| e.to_string())?;
    Ok((store, t.elapsed().as_secs_f64() * 1e3))
}
