//! The candidate k-partite graph and joint search-space reduction
//! (Sections 5.2.3–5.2.4).
//!
//! Each partition holds the candidate matches of one decomposition path; a
//! link connects two candidates that satisfy all join predicates, whose
//! combined probability reaches α, and whose references are compatible.
//! Two reductions run to fixpoint:
//!
//! * **reduction by structure** — a candidate must keep at least one live
//!   link into *every* partition its path joins with;
//! * **reduction by upper bounds** — perception-vector message passing: each
//!   vertex tracks, per partition, an upper bound on the `w1` weight of any
//!   compatible candidate there; a vertex dies when
//!   `w2 · ∏ perception < α`.
//!
//! # Layout
//!
//! The graph is stored as flat CSR-style arenas rather than nested `Vec`s:
//! one `u32` link buffer with per-(vertex, slot) offset ranges, flat `f64`
//! weight/perception arrays, and an entity-id slab. A vertex is addressed
//! by its *global id* `gv = parts[pi].base + vi`; its perception row lives
//! at `perception[gv·k .. gv·k + k]`. [`build_kpartite`] writes these
//! arenas directly; [`Partition`]/[`Vert`] are a nested shape for graphs
//! built by hand (tests, reference builders), which
//! [`KPartiteGraph::from_partitions`] flattens. [`PartView`]/[`VertView`]
//! are the read API for generation and tests.
//!
//! # Frontier
//!
//! Message rounds are Jacobi (each round reads only the previous round's
//! state), and a vertex's proposed update is a *pure* min/max function of
//! its alive neighbors' perception rows. Re-evaluating a vertex whose
//! inputs did not change since its last evaluation therefore emits nothing
//! — so rounds only visit the *active frontier*: vertices marked dirty
//! because an in-neighbor's perception changed last round or a kill
//! removed one of their links. The frontier is seeded with every vertex,
//! making round 1 identical to a full sweep, and the skip rule is bit-exact
//! by purity (see `tests/reduction_frontier_equivalence.rs`); set
//! [`ReduceOptions::use_frontier`] to `false` to force full sweeps.

use crate::online::candidates::CandidateSet;
use crate::online::decompose::Decomposition;
use crate::query::{QNode, QueryGraph};
use crate::Peg;
use graphstore::hash::FxHashMap;
use graphstore::EntityId;

const EPS: f64 = 1e-12;

/// One candidate path match in nested form (per-slot link lists), for
/// hand-built graphs; see [`KPartiteGraph::from_partitions`].
#[derive(Clone, Debug)]
pub struct Vert {
    /// Entity images aligned with the path's query nodes.
    pub nodes: Vec<EntityId>,
    /// Exclusive-coverage weight `w1` (label/edge probabilities of the
    /// query nodes/edges this partition owns).
    pub w1: f64,
    /// Identity weight `w2 = Prn` of the path's node set.
    pub w2: f64,
    /// Liveness flag (pruned vertices stay in place).
    pub alive: bool,
    /// Link lists parallel to the partition's `joined` list; local vertex
    /// ids into the joined partition (canonicalized on flatten).
    pub links: Vec<Vec<u32>>,
    /// Perception vector: per-partition upper bounds on compatible `w1`s.
    pub perception: Vec<f64>,
}

/// One partition (all candidates of one decomposition path), nested form.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Indices of joined partitions, ascending.
    pub joined: Vec<usize>,
    /// The candidate vertices.
    pub verts: Vec<Vert>,
}

/// Flattened per-partition metadata: where this partition's vertices live
/// inside the graph's arenas.
#[derive(Clone, Debug)]
struct PartMeta {
    /// Indices of joined partitions, ascending.
    joined: Vec<usize>,
    /// First global vertex id of this partition.
    base: usize,
    /// Vertex count.
    n: usize,
    /// Nodes per vertex (the path length).
    path_len: usize,
    /// Offset of this partition's entity-id slab in `nodes`.
    nodes_off: usize,
    /// First slot id: slot `(vi, s)` is `slot_off + vi·|joined| + s`.
    slot_off: usize,
}

impl PartMeta {
    fn sid(&self, vi: usize, slot: usize) -> usize {
        self.slot_off + vi * self.joined.len() + slot
    }
}

/// Per-round frontier telemetry: how much work the delta-driven schedule
/// actually did versus the full sweep it replaced.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundFrontier {
    /// Vertices evaluated this round (the frontier size).
    pub evals: usize,
    /// Alive vertices at round start (what a full sweep would evaluate).
    pub alive: usize,
    /// Perception entries tightened this round.
    pub updates: usize,
}

/// Outcome counters of a reduction run.
#[derive(Clone, Debug, Default)]
pub struct ReductionStats {
    /// Vertices removed by reduction by structure.
    pub removed_structure: usize,
    /// Vertices removed by reduction by upper bounds.
    pub removed_upperbound: usize,
    /// Message-passing rounds executed.
    pub rounds: usize,
    /// Vertices actually evaluated across all rounds.
    pub frontier_evals: usize,
    /// Alive vertices a full sweep would have evaluated but the frontier
    /// skipped (`Σ per round: alive − evals`).
    pub full_evals_avoided: usize,
    /// Per-round frontier sizes, in round order.
    pub round_frontiers: Vec<RoundFrontier>,
    /// `log10` of the search-space product after the first structure pass.
    pub log10_after_structure: f64,
    /// `log10` of the final search-space product.
    pub log10_final: f64,
}

/// Reduction configuration.
#[derive(Clone, Copy, Debug)]
pub struct ReduceOptions {
    /// Apply reduction by upper bounds after structure.
    pub use_upperbounds: bool,
    /// Evaluate only the active frontier each round (bit-exact vs the
    /// full sweep; `false` forces full sweeps, as a reference mode).
    pub use_frontier: bool,
    /// Run message passing with partitions distributed over the pool.
    pub parallel: bool,
    /// Pool size for parallel passes (`0` = available parallelism). The
    /// pool is the process-wide persistent one — no threads are spawned
    /// per round (or even per query).
    pub threads: usize,
    /// Safety cap on message-passing rounds per pass.
    pub max_rounds: usize,
}

impl Default for ReduceOptions {
    fn default() -> Self {
        Self {
            use_upperbounds: true,
            use_frontier: true,
            parallel: false,
            threads: 0,
            max_rounds: 32,
        }
    }
}

/// One proposed perception tightening: `verts[vi].perception[entry] = val`.
/// Flat triples keep the per-round output buffers reusable and free of
/// nested allocations.
#[derive(Clone, Copy, Debug)]
struct PerceptionUpdate {
    vi: u32,
    entry: u32,
    val: f64,
}

/// Per-partition round scratch, allocated once per pass and reused across
/// rounds: the update buffer plus the per-entry min/max accumulators.
struct RoundBuf {
    updates: Vec<PerceptionUpdate>,
    evals: usize,
    /// min over joined slots of the per-slot best, per entry.
    cand: Vec<f64>,
    /// max over alive links of `perception[entry]`, per entry.
    best: Vec<f64>,
}

impl RoundBuf {
    fn new(k: usize) -> Self {
        Self { updates: Vec::new(), evals: 0, cand: vec![0.0; k], best: vec![0.0; k] }
    }
}

/// Hands each pool lane a `&mut` to its own (disjoint) slot of a buffer
/// array. `pegpool::for_each` claims every index exactly once, so no two
/// lanes ever alias the same element.
struct SlotWriter<T>(*mut T);

unsafe impl<T: Send> Sync for SlotWriter<T> {}

/// A dense bitset over global vertex ids.
#[derive(Clone, Debug, Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(bits: usize) -> Self {
        Self { words: vec![0u64; bits.div_ceil(64)] }
    }

    fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Sets bits `0..n` (the container must have been sized for `n`).
    fn set_all(&mut self, n: usize) {
        self.words.fill(!0u64);
        if n & 63 != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << (n & 63)) - 1;
            }
        }
    }

    /// Calls `f` for every set bit in `start..end`, ascending.
    fn for_each_in(&self, start: usize, end: usize, mut f: impl FnMut(usize)) {
        if start >= end {
            return;
        }
        let first = start >> 6;
        let last = (end - 1) >> 6;
        for wi in first..=last {
            let mut word = self.words[wi];
            if wi == first {
                word &= !0u64 << (start & 63);
            }
            if wi == last && end & 63 != 0 {
                word &= (1u64 << (end & 63)) - 1;
            }
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                f((wi << 6) | bit);
                word &= word - 1;
            }
        }
    }
}

/// The candidate k-partite graph (Definition 6), in flat CSR arenas.
#[derive(Clone, Debug)]
pub struct KPartiteGraph {
    /// Partition count.
    k: usize,
    parts: Vec<PartMeta>,
    /// Liveness per global vertex id.
    alive: Vec<bool>,
    /// Alive vertex count per partition (maintained by `kill`).
    alive_n: Vec<usize>,
    /// `w1` per global vertex id.
    w1: Vec<f64>,
    /// `w2` per global vertex id.
    w2: Vec<f64>,
    /// Entity-id slab; vertex `(pi, vi)`'s images are the `path_len` ids
    /// at `nodes_off + vi·path_len`.
    nodes: Vec<EntityId>,
    /// Perception rows: `k` entries per vertex at `gv·k`.
    perception: Vec<f64>,
    /// Flat link buffer: local vertex ids into the slot's joined partition.
    links: Vec<u32>,
    /// CSR offsets over slot ids (`len = total_slots + 1`).
    link_off: Vec<usize>,
    /// Count of *alive* link targets per slot id.
    link_alive: Vec<u32>,
    /// Frontier for the *next* message round: vertices with a changed
    /// input (an in-neighbor's perception, or a link killed).
    msg_dirty: BitSet,
    /// Frontier being accumulated *during* a round's apply phase.
    next_dirty: BitSet,
    /// Vertices whose own upper bound changed since the last prune.
    bound_dirty: BitSet,
    /// Whether the zero-link invariant holds (structure fixpoint reached
    /// and every later kill cascades immediately) — lets later structure
    /// passes skip their scan entirely.
    structure_clean: bool,
}

impl KPartiteGraph {
    /// Flattens nested-form partitions into the arena layout. Link lists
    /// are canonicalized (sorted, deduplicated) here; alive-link counts
    /// are derived from target liveness.
    pub fn from_partitions(mut partitions: Vec<Partition>) -> Self {
        let k = partitions.len();
        for p in &mut partitions {
            for v in &mut p.verts {
                debug_assert_eq!(v.links.len(), p.joined.len());
                for l in &mut v.links {
                    l.sort_unstable();
                    l.dedup();
                }
            }
        }
        let mut parts: Vec<PartMeta> = Vec::with_capacity(k);
        let (mut base, mut nodes_off, mut slot_off) = (0usize, 0usize, 0usize);
        for p in &partitions {
            let path_len = p.verts.first().map_or(0, |v| v.nodes.len());
            parts.push(PartMeta {
                joined: p.joined.clone(),
                base,
                n: p.verts.len(),
                path_len,
                nodes_off,
                slot_off,
            });
            base += p.verts.len();
            nodes_off += p.verts.len() * path_len;
            slot_off += p.verts.len() * p.joined.len();
        }
        let (n_verts, total_slots) = (base, slot_off);

        let mut alive = Vec::with_capacity(n_verts);
        let mut w1 = Vec::with_capacity(n_verts);
        let mut w2 = Vec::with_capacity(n_verts);
        let mut nodes = Vec::with_capacity(nodes_off);
        let mut perception = Vec::with_capacity(n_verts * k);
        let mut links = Vec::new();
        let mut link_off = Vec::with_capacity(total_slots + 1);
        link_off.push(0);
        for p in &partitions {
            for v in &p.verts {
                assert_eq!(v.perception.len(), k, "perception width must equal partition count");
                alive.push(v.alive);
                w1.push(v.w1);
                w2.push(v.w2);
                nodes.extend_from_slice(&v.nodes);
                perception.extend_from_slice(&v.perception);
                for l in &v.links {
                    links.extend_from_slice(l);
                    link_off.push(links.len());
                }
            }
        }
        Self::assemble(k, parts, alive, w1, w2, nodes, perception, links, link_off)
    }

    /// Finishes a graph from filled arenas: derives alive-link counts from
    /// target liveness and per-partition alive counts, and seeds the
    /// message frontier with every vertex so the first reduction round is
    /// a full sweep.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        k: usize,
        parts: Vec<PartMeta>,
        alive: Vec<bool>,
        w1: Vec<f64>,
        w2: Vec<f64>,
        nodes: Vec<EntityId>,
        perception: Vec<f64>,
        links: Vec<u32>,
        link_off: Vec<usize>,
    ) -> Self {
        let n_verts = alive.len();
        let mut link_alive = vec![0u32; link_off.len() - 1];
        for p in &parts {
            for vi in 0..p.n {
                for (slot, &pj) in p.joined.iter().enumerate() {
                    let sid = p.sid(vi, slot);
                    let qbase = parts[pj].base;
                    link_alive[sid] = links[link_off[sid]..link_off[sid + 1]]
                        .iter()
                        .filter(|&&w| alive[qbase + w as usize])
                        .count() as u32;
                }
            }
        }
        let alive_n: Vec<usize> = parts
            .iter()
            .map(|p| alive[p.base..p.base + p.n].iter().filter(|&&a| a).count())
            .collect();

        let mut msg_dirty = BitSet::new(n_verts);
        msg_dirty.set_all(n_verts);
        Self {
            k,
            parts,
            alive,
            alive_n,
            w1,
            w2,
            nodes,
            perception,
            links,
            link_off,
            link_alive,
            msg_dirty,
            next_dirty: BitSet::new(n_verts),
            bound_dirty: BitSet::new(n_verts),
            structure_clean: false,
        }
    }

    /// Partition count.
    pub fn n_partitions(&self) -> usize {
        self.k
    }

    /// Read view over one partition.
    pub fn part(&self, pi: usize) -> PartView<'_> {
        PartView { g: self, pi }
    }

    /// `log10` of the product of alive partition sizes (the paper's search
    /// space measure); `-inf` when a partition is empty.
    pub fn log10_search_space(&self) -> f64 {
        self.alive_n
            .iter()
            .map(|&n| if n == 0 { f64::NEG_INFINITY } else { (n as f64).log10() })
            .sum()
    }

    /// Alive vertex counts per partition.
    pub fn alive_counts(&self) -> Vec<usize> {
        self.alive_n.clone()
    }

    /// Runs joint search-space reduction to fixpoint.
    pub fn reduce(&mut self, alpha: f64, opts: &ReduceOptions) -> ReductionStats {
        self.reduce_traced(alpha, opts, &pegtrace::Span::disabled())
    }

    /// [`KPartiteGraph::reduce`], emitting per-round / per-prune children
    /// (frontier size, updates, kills) under `span` when it records.
    pub fn reduce_traced(
        &mut self,
        alpha: f64,
        opts: &ReduceOptions,
        span: &pegtrace::Span,
    ) -> ReductionStats {
        let mut stats = ReductionStats::default();
        self.structure_fixpoint(&mut stats.removed_structure);
        stats.log10_after_structure = self.log10_search_space();
        if opts.use_upperbounds {
            // The first prune of a reduce call re-checks every alive bound:
            // α may differ from whatever threshold this graph (or the base
            // it was cloned from) last converged at.
            let mut scan_all_bounds = true;
            loop {
                let killed = self.upperbound_pass(alpha, opts, &mut stats, span, scan_all_bounds);
                scan_all_bounds = false;
                stats.removed_upperbound += killed;
                if killed == 0 {
                    break;
                }
                self.structure_fixpoint(&mut stats.removed_structure);
            }
        }
        stats.log10_final = self.log10_search_space();
        stats
    }

    /// Kills vertices lacking a live link to some joined partition, cascading.
    ///
    /// Cascades drain fully inside every kill site (here and the prune in
    /// `upperbound_pass`), so once the first fixpoint is reached no alive
    /// vertex ever holds a zero alive-link count between passes —
    /// `structure_clean` records that and later calls skip the scan.
    fn structure_fixpoint(&mut self, removed: &mut usize) {
        if self.structure_clean {
            return;
        }
        let mut worklist: Vec<(usize, u32)> = Vec::new();
        for (pi, p) in self.parts.iter().enumerate() {
            let ns = p.joined.len();
            for vi in 0..p.n {
                if !self.alive[p.base + vi] {
                    continue;
                }
                let s0 = p.sid(vi, 0);
                if self.link_alive[s0..s0 + ns].contains(&0) {
                    worklist.push((pi, vi as u32));
                }
            }
        }
        while let Some((pi, vi)) = worklist.pop() {
            if !self.alive[self.parts[pi].base + vi as usize] {
                continue;
            }
            self.kill(pi, vi, &mut worklist);
            *removed += 1;
        }
        self.structure_clean = true;
    }

    /// Marks a vertex dead and decrements neighbors' live-link counts,
    /// scheduling any neighbor that drops to zero. Every alive neighbor
    /// joins the message frontier: it just lost an input.
    fn kill(&mut self, pi: usize, vi: u32, worklist: &mut Vec<(usize, u32)>) {
        let vi = vi as usize;
        let gv = self.parts[pi].base + vi;
        self.alive[gv] = false;
        self.alive_n[pi] -= 1;
        let ns = self.parts[pi].joined.len();
        let s0 = self.parts[pi].sid(vi, 0);
        for slot in 0..ns {
            let pj = self.parts[pi].joined[slot];
            let back_slot = self.parts[pj]
                .joined
                .iter()
                .position(|&x| x == pi)
                .expect("join relation must be symmetric");
            let (qbase, qns, qslot_off) =
                (self.parts[pj].base, self.parts[pj].joined.len(), self.parts[pj].slot_off);
            let (lo, hi) = (self.link_off[s0 + slot], self.link_off[s0 + slot + 1]);
            for li in lo..hi {
                let w = self.links[li] as usize;
                let gw = qbase + w;
                if !self.alive[gw] {
                    continue;
                }
                self.msg_dirty.set(gw);
                let sid_back = qslot_off + w * qns + back_slot;
                debug_assert!(self.link_alive[sid_back] > 0);
                self.link_alive[sid_back] -= 1;
                if self.link_alive[sid_back] == 0 {
                    worklist.push((pj, w as u32));
                }
            }
        }
    }

    /// Message passing to fixpoint, then pruning by `w2 · ∏ perception < α`.
    /// Returns the number of vertices killed.
    ///
    /// Rounds are Jacobi: every proposed update of a round reads only the
    /// previous round's state, so the parallel schedule is bit-identical to
    /// the sequential one. Per-partition update buffers are allocated once
    /// per pass and reused across rounds; only *changed* entries are ever
    /// emitted (no per-vertex perception clones). Each round consumes
    /// `msg_dirty` and accumulates `next_dirty` (the readers of every
    /// applied update); the prune consumes `bound_dirty` (the vertices
    /// whose own bound tightened) unless `scan_all_bounds` forces the full
    /// check.
    fn upperbound_pass(
        &mut self,
        alpha: f64,
        opts: &ReduceOptions,
        stats: &mut ReductionStats,
        span: &pegtrace::Span,
        scan_all_bounds: bool,
    ) -> usize {
        let k = self.k;
        let frontier = opts.use_frontier;
        let recording = span.is_recording();
        // `parallel` forces the pooled path even when the pool resolves to
        // one lane (it then runs inline, bit-identically) — so the flag
        // deterministically exercises the parallel implementation.
        let pool = (opts.parallel && k > 1).then(|| pegpool::pool_with(opts.threads));
        let mut bufs: Vec<RoundBuf> = (0..k).map(|_| RoundBuf::new(k)).collect();
        for _ in 0..opts.max_rounds {
            stats.rounds += 1;
            let t0 = recording.then(std::time::Instant::now);
            let alive_now: usize = self.alive_n.iter().sum();
            // Compute phase: disjoint buffers, shared read-only graph.
            match &pool {
                Some(pool) => {
                    let this = &*self;
                    let writer = SlotWriter(bufs.as_mut_ptr());
                    let writer = &writer;
                    pool.for_each(k, &|pi| {
                        // Safety: `for_each` claims each index exactly once,
                        // so lane `pi` is the sole writer of `bufs[pi]`.
                        let buf = unsafe { &mut *writer.0.add(pi) };
                        this.round_for_partition(pi, frontier, buf);
                    });
                }
                None => {
                    for (pi, buf) in bufs.iter_mut().enumerate() {
                        self.round_for_partition(pi, frontier, buf);
                    }
                }
            }
            // Apply phase: sequential, in partition index order — the same
            // deterministic merge at every lane count. Updates for one
            // vertex are contiguous (the compute loop emits per vertex), so
            // reader-marking dedupes on the fly.
            let mut evals_total = 0usize;
            let mut updates_total = 0usize;
            for (pi, buf) in bufs.iter_mut().enumerate() {
                evals_total += std::mem::take(&mut buf.evals);
                updates_total += buf.updates.len();
                let base = self.parts[pi].base;
                let mut last_vi = u32::MAX;
                for &u in &buf.updates {
                    let gv = base + u.vi as usize;
                    self.perception[gv * k + u.entry as usize] = u.val;
                    if u.vi != last_vi {
                        last_vi = u.vi;
                        self.bound_dirty.set(gv);
                        self.mark_readers_dirty(pi, u.vi as usize);
                    }
                }
                buf.updates.clear();
            }
            stats.frontier_evals += evals_total;
            stats.full_evals_avoided += alive_now - evals_total;
            stats.round_frontiers.push(RoundFrontier {
                evals: evals_total,
                alive: alive_now,
                updates: updates_total,
            });
            if let Some(t0) = t0 {
                let child = span.child_done("round", t0.elapsed());
                child.tag("round", stats.rounds);
                child.tag("frontier", evals_total);
                child.tag("alive", alive_now);
                child.tag("updates", updates_total);
            }
            std::mem::swap(&mut self.msg_dirty, &mut self.next_dirty);
            self.next_dirty.clear_all();
            if updates_total == 0 {
                break;
            }
        }
        // Prune. The frontier prune visits `bound_dirty ∩ alive` in
        // ascending (partition, vertex) order — a subsequence of the full
        // scan — and skipped vertices are guaranteed survivors: their bound
        // is unchanged since a prune that already passed them at this α.
        let t0 = recording.then(std::time::Instant::now);
        let mut killed = 0usize;
        let mut scanned = 0usize;
        let mut worklist: Vec<(usize, u32)> = Vec::new();
        if scan_all_bounds || !frontier {
            for pi in 0..k {
                let (base, n) = (self.parts[pi].base, self.parts[pi].n);
                for vi in 0..n {
                    let gv = base + vi;
                    if !self.alive[gv] {
                        continue;
                    }
                    scanned += 1;
                    if self.upper_bound_of(gv) + EPS < alpha {
                        self.kill(pi, vi as u32, &mut worklist);
                        killed += 1;
                    }
                }
            }
        } else {
            let mut cands: Vec<(usize, u32)> = Vec::new();
            for (pi, p) in self.parts.iter().enumerate() {
                let alive = &self.alive;
                self.bound_dirty.for_each_in(p.base, p.base + p.n, |gv| {
                    if alive[gv] {
                        cands.push((pi, (gv - p.base) as u32));
                    }
                });
            }
            scanned = cands.len();
            for (pi, vi) in cands {
                let gv = self.parts[pi].base + vi as usize;
                if self.alive[gv] && self.upper_bound_of(gv) + EPS < alpha {
                    self.kill(pi, vi, &mut worklist);
                    killed += 1;
                }
            }
        }
        self.bound_dirty.clear_all();
        // Cascade structural consequences immediately so counts stay sane.
        while let Some((pj, w)) = worklist.pop() {
            if self.alive[self.parts[pj].base + w as usize] {
                self.kill(pj, w, &mut worklist);
                killed += 1;
            }
        }
        if let Some(t0) = t0 {
            let child = span.child_done("prune", t0.elapsed());
            child.tag("scanned", scanned);
            child.tag("kills", killed);
        }
        killed
    }

    /// The pruning bound of a vertex: `w2 · ∏ perception`.
    fn upper_bound_of(&self, gv: usize) -> f64 {
        let k = self.k;
        self.w2[gv] * self.perception[gv * k..gv * k + k].iter().product::<f64>()
    }

    /// Marks every alive reader of `(pi, vi)`'s perception row — its link
    /// neighbors — into the next round's frontier.
    fn mark_readers_dirty(&mut self, pi: usize, vi: usize) {
        let ns = self.parts[pi].joined.len();
        let s0 = self.parts[pi].sid(vi, 0);
        for slot in 0..ns {
            let qbase = self.parts[self.parts[pi].joined[slot]].base;
            let (lo, hi) = (self.link_off[s0 + slot], self.link_off[s0 + slot + 1]);
            for li in lo..hi {
                let gw = qbase + self.links[li] as usize;
                if self.alive[gw] {
                    self.next_dirty.set(gw);
                }
            }
        }
    }

    /// Proposed perception tightenings for the vertices of partition `pi`
    /// (one Jacobi half-round), appended to `buf`. With `use_frontier`,
    /// only vertices in `msg_dirty` are evaluated — bit-exact because a
    /// vertex with unchanged inputs emits nothing (purity).
    fn round_for_partition(&self, pi: usize, use_frontier: bool, buf: &mut RoundBuf) {
        let p = &self.parts[pi];
        if use_frontier {
            self.msg_dirty.for_each_in(p.base, p.base + p.n, |gv| {
                if self.alive[gv] {
                    self.eval_vertex(pi, gv - p.base, buf);
                }
            });
        } else {
            for vi in 0..p.n {
                if self.alive[p.base + vi] {
                    self.eval_vertex(pi, vi, buf);
                }
            }
        }
    }

    /// One vertex's Jacobi evaluation.
    ///
    /// For entry `e ≠ pi`, a vertex's new bound is the min over its joined
    /// partitions of the max `perception[e]` among its alive links there.
    /// The joined partition `e` itself participates: its vertices' own
    /// entries hold their `w1`, which is exactly the direct-link base case
    /// of the paper's message definition. (An earlier revision carried a
    /// dead `entry == pi` re-check here whose comment suggested skipping
    /// `pj == entry`; that variant would discard the base case and weaken
    /// the bound — see `direct_links_feed_the_perception_bound`.) The
    /// receiver's own entry stays at `w1` — senders never overwrite it.
    ///
    /// All entries accumulate in one sweep over each link list (each alive
    /// neighbor's perception row is read contiguously); per entry the
    /// max/min comparison order matches the link/slot order, so the result
    /// is identical to the per-entry formulation.
    fn eval_vertex(&self, pi: usize, vi: usize, buf: &mut RoundBuf) {
        let RoundBuf { updates, evals, cand, best } = buf;
        *evals += 1;
        let k = self.k;
        let p = &self.parts[pi];
        let gv = p.base + vi;
        let s0 = p.sid(vi, 0);
        cand.fill(f64::INFINITY);
        for (slot, &pj) in p.joined.iter().enumerate() {
            let qbase = self.parts[pj].base;
            best.fill(0.0);
            for &w in &self.links[self.link_off[s0 + slot]..self.link_off[s0 + slot + 1]] {
                let gw = qbase + w as usize;
                if !self.alive[gw] {
                    continue;
                }
                let row = &self.perception[gw * k..gw * k + k];
                for (b, &val) in best.iter_mut().zip(row) {
                    if val > *b {
                        *b = val;
                    }
                }
            }
            for (c, &b) in cand.iter_mut().zip(best.iter()) {
                if b < *c {
                    *c = b;
                }
            }
        }
        let row = &self.perception[gv * k..gv * k + k];
        for (entry, (&candidate, &current)) in cand.iter().zip(row).enumerate() {
            if entry == pi {
                continue; // Own entry stays at w1.
            }
            if candidate.is_finite() && candidate + 1e-15 < current {
                updates.push(PerceptionUpdate {
                    vi: vi as u32,
                    entry: entry as u32,
                    val: candidate,
                });
            }
        }
    }
}

/// Read view over one partition of a [`KPartiteGraph`].
#[derive(Clone, Copy)]
pub struct PartView<'g> {
    g: &'g KPartiteGraph,
    pi: usize,
}

impl<'g> PartView<'g> {
    /// Indices of joined partitions, ascending.
    pub fn joined(&self) -> &'g [usize] {
        &self.g.parts[self.pi].joined
    }

    /// Vertex count (alive and dead).
    pub fn n_verts(&self) -> usize {
        self.g.parts[self.pi].n
    }

    /// Number of alive vertices.
    pub fn alive_count(&self) -> usize {
        self.g.alive_n[self.pi]
    }

    /// Slot of partition `j` within this partition's link lists.
    pub fn slot_of(&self, j: usize) -> Option<usize> {
        self.g.parts[self.pi].joined.iter().position(|&x| x == j)
    }

    /// Read view over one vertex.
    pub fn vert(&self, vi: usize) -> VertView<'g> {
        let p = &self.g.parts[self.pi];
        debug_assert!(vi < p.n);
        VertView { g: self.g, pi: self.pi, vi, gv: p.base + vi }
    }
}

/// Read view over one vertex of a [`KPartiteGraph`].
#[derive(Clone, Copy)]
pub struct VertView<'g> {
    g: &'g KPartiteGraph,
    pi: usize,
    vi: usize,
    gv: usize,
}

impl<'g> VertView<'g> {
    /// Liveness flag.
    pub fn alive(&self) -> bool {
        self.g.alive[self.gv]
    }

    /// Exclusive-coverage weight `w1`.
    pub fn w1(&self) -> f64 {
        self.g.w1[self.gv]
    }

    /// Identity weight `w2 = Prn`.
    pub fn w2(&self) -> f64 {
        self.g.w2[self.gv]
    }

    /// Entity images aligned with the path's query nodes.
    pub fn nodes(&self) -> &'g [EntityId] {
        let p = &self.g.parts[self.pi];
        let off = p.nodes_off + self.vi * p.path_len;
        &self.g.nodes[off..off + p.path_len]
    }

    /// Sorted link list for the given slot (local ids into the joined
    /// partition).
    pub fn links(&self, slot: usize) -> &'g [u32] {
        let sid = self.g.parts[self.pi].sid(self.vi, slot);
        &self.g.links[self.g.link_off[sid]..self.g.link_off[sid + 1]]
    }

    /// Count of *alive* links in the given slot.
    pub fn alive_link_count(&self, slot: usize) -> u32 {
        self.g.link_alive[self.g.parts[self.pi].sid(self.vi, slot)]
    }

    /// Perception vector: per-partition upper bounds on compatible `w1`s.
    pub fn perception(&self) -> &'g [f64] {
        let k = self.g.k;
        &self.g.perception[self.gv * k..self.gv * k + k]
    }

    /// The pruning bound: `w2 · ∏ perception`.
    pub fn upper_bound(&self) -> f64 {
        self.g.upper_bound_of(self.gv)
    }
}

/// Exclusive coverage: assigns every query node and edge to exactly one
/// partition so `∏ w1` over a full match equals `Prle(M)`.
#[derive(Clone, Debug)]
pub struct CoverAssignment {
    /// Per partition: positions (on its path) of owned query nodes.
    pub owned_nodes: Vec<Vec<usize>>,
    /// Per partition: owned path edges as position pairs.
    pub owned_edges: Vec<Vec<(usize, usize)>>,
}

impl CoverAssignment {
    /// First-covering-path assignment over the decomposition.
    pub fn new(query: &QueryGraph, decomp: &Decomposition) -> Self {
        let k = decomp.paths.len();
        let mut node_owner: FxHashMap<QNode, usize> = FxHashMap::default();
        let mut edge_owner: FxHashMap<(QNode, QNode), usize> = FxHashMap::default();
        for (i, p) in decomp.paths.iter().enumerate() {
            for &n in &p.nodes {
                node_owner.entry(n).or_insert(i);
            }
            for e in p.edges() {
                edge_owner.entry(e).or_insert(i);
            }
        }
        debug_assert_eq!(node_owner.len(), query.n_nodes());
        let mut owned_nodes = vec![Vec::new(); k];
        let mut owned_edges = vec![Vec::new(); k];
        for (i, p) in decomp.paths.iter().enumerate() {
            for (pos, &n) in p.nodes.iter().enumerate() {
                if node_owner[&n] == i && !owned_nodes[i].contains(&pos) {
                    owned_nodes[i].push(pos);
                }
            }
            let nodes = &p.nodes;
            for (w_idx, w) in nodes.windows(2).enumerate() {
                let key = (w[0].min(w[1]), w[0].max(w[1]));
                if edge_owner[&key] == i {
                    // A path may traverse the same edge... it cannot (simple
                    // path), so each position pair appears once.
                    owned_edges[i].push((w_idx, w_idx + 1));
                }
            }
        }
        // Deduplicate node ownership: a node occurs once per simple path.
        Self { owned_nodes, owned_edges }
    }
}

/// Builds the candidate k-partite graph: vertices from `candidate_sets`,
/// links from join-candidate computation (lookup tables per joined pair,
/// Section 5.2.3). See [`build_kpartite_traced`] for how.
pub fn build_kpartite(
    peg: &Peg,
    query: &QueryGraph,
    decomp: &Decomposition,
    candidate_sets: &[CandidateSet],
    alpha: f64,
    pool: &pegpool::ThreadPool,
) -> KPartiteGraph {
    let span = pegtrace::Span::disabled();
    build_kpartite_traced(peg, query, decomp, candidate_sets, alpha, pool, &span)
}

/// [`build_kpartite`], tagging `span` (when it records) with `vertices`,
/// `probed` (candidate pairs the lookup tables returned, each one run
/// through the admission test) and `links` (link entries written, both
/// directions).
///
/// The graph is written straight into its arenas, in three steps:
///
/// 1. **Vertex rows.** Per candidate, the label factor of every path
///    position and the edge factor of every path edge are looked up once.
///    `w1` is the product of its owned factors in cover order; a flag
///    records whether the candidate's own images are pairwise distinct and
///    reference-disjoint.
/// 2. **Join tables.** Per joined pair `(i, j)`, `i < j`, partition `j` is
///    indexed on a `u64` hash of its shared-node images, as head/next
///    chains built in reverse so every chain ascends. A per-pair plan fixes
///    the union mapping, the shared-node equality checks and the union
///    edge order once per pair; each probed pair then multiplies
///    precomputed factors in that order.
/// 3. **CSR links.** Count per slot, prefix-sum, fill. Probes emit pairs
///    with `wi` ascending and `wj` ascending within each `wi`, so every
///    slot comes out sorted and duplicate-free without a sort.
///
/// Vertex rows and probes fan out over `pool` in order-preserving chunks,
/// so the graph is identical at any lane count.
pub fn build_kpartite_traced(
    peg: &Peg,
    query: &QueryGraph,
    decomp: &Decomposition,
    candidate_sets: &[CandidateSet],
    alpha: f64,
    pool: &pegpool::ThreadPool,
    span: &pegtrace::Span,
) -> KPartiteGraph {
    let k = decomp.paths.len();
    let candidate_sets = &candidate_sets[..k];
    let cover = CoverAssignment::new(query, decomp);

    let mut parts: Vec<PartMeta> = Vec::with_capacity(k);
    let (mut base, mut nodes_off, mut slot_off) = (0usize, 0usize, 0usize);
    for (i, cs) in candidate_sets.iter().enumerate() {
        let (n, path_len) = (cs.matches.len(), decomp.paths[i].nodes.len());
        let joined = decomp.joins[i].clone();
        let n_slots = n * joined.len();
        parts.push(PartMeta { joined, base, n, path_len, nodes_off, slot_off });
        base += n;
        nodes_off += n * path_len;
        slot_off += n_slots;
    }
    let (n_verts, total_slots) = (base, slot_off);

    let mut nodes = Vec::with_capacity(nodes_off);
    let mut w2 = Vec::with_capacity(n_verts);
    for (cs, p) in candidate_sets.iter().zip(&parts) {
        for pm in &cs.matches {
            assert_eq!(pm.nodes.len(), p.path_len, "candidate images must span their path");
            nodes.extend_from_slice(&pm.nodes);
            w2.push(pm.prn);
        }
    }

    let rows: Vec<VertexRows> = (0..k)
        .map(|i| {
            let path = &decomp.paths[i].nodes;
            let matches = &candidate_sets[i].matches;
            let (owned_nodes, owned_edges) = (&cover.owned_nodes[i], &cover.owned_edges[i]);
            chunked(pool, matches.len(), |r| {
                VertexRows::compute(peg, query, path, owned_nodes, owned_edges, &matches[r])
            })
            .into_iter()
            .reduce(VertexRows::append)
            .unwrap_or_default()
        })
        .collect();

    let mut w1 = Vec::with_capacity(n_verts);
    let mut perception = vec![1.0; n_verts * k];
    for (pi, r) in rows.iter().enumerate() {
        for (vi, &w) in r.w1.iter().enumerate() {
            perception[(parts[pi].base + vi) * k + pi] = w;
            w1.push(w);
        }
    }

    // Join-candidate pairs per joined pair (i < j).
    let side = |i: usize| JoinSide {
        nodes: &nodes[parts[i].nodes_off..parts[i].nodes_off + parts[i].n * parts[i].path_len],
        len: parts[i].path_len,
        rows: &rows[i],
    };
    let mut probed = 0usize;
    let mut joins: Vec<JoinLinks> = Vec::new();
    for i in 0..k {
        for &j in &decomp.joins[i] {
            if j < i {
                continue;
            }
            let plan = PairPlan::new(decomp, i, j);
            let (a, b) = (side(i), side(j));
            // Lookup table over partition j: `heads[key]` starts a chain of
            // vertex ids linked through `next`, built in reverse so each
            // chain ascends.
            let mut heads: FxHashMap<u64, u32> = FxHashMap::default();
            heads.reserve(parts[j].n);
            let mut next = vec![NO_VERT; parts[j].n];
            for wj in (0..parts[j].n).rev() {
                let key = join_key(b.images(wj), &plan.key_j);
                if let Some(prev) = heads.insert(key, wj as u32) {
                    next[wj] = prev;
                }
            }
            let chunks = chunked(pool, parts[i].n, |r| {
                let mut out = Vec::new();
                let mut probed = 0usize;
                let mut union = Vec::new();
                for wi in r {
                    let Some(&head) = heads.get(&join_key(a.images(wi), &plan.key_i)) else {
                        continue;
                    };
                    let mut wj = head;
                    while wj != NO_VERT {
                        probed += 1;
                        if plan.admits(peg, &a, wi, &b, wj as usize, alpha, &mut union) {
                            out.push((wi as u32, wj));
                        }
                        wj = next[wj as usize];
                    }
                }
                (out, probed)
            });
            let mut pairs = Vec::with_capacity(chunks.len());
            for (out, n) in chunks {
                probed += n;
                pairs.push(out);
            }
            let slot_ij = parts[i].joined.iter().position(|&x| x == j).expect("join symmetry");
            let slot_ji = parts[j].joined.iter().position(|&x| x == i).expect("join symmetry");
            joins.push(JoinLinks { i, j, slot_ij, slot_ji, pairs });
        }
    }

    // CSR links in two passes: count per slot (into `link_off[sid + 1]`),
    // prefix-sum, then fill through per-slot cursors. A slot receives
    // entries from exactly one joined pair, in emission order — ascending.
    let mut link_off = vec![0usize; total_slots + 1];
    for jl in &joins {
        for &(wi, wj) in jl.pairs.iter().flatten() {
            link_off[parts[jl.i].sid(wi as usize, jl.slot_ij) + 1] += 1;
            link_off[parts[jl.j].sid(wj as usize, jl.slot_ji) + 1] += 1;
        }
    }
    for s in 0..total_slots {
        link_off[s + 1] += link_off[s];
    }
    let mut cursor = link_off[..total_slots].to_vec();
    let mut links = vec![0u32; link_off[total_slots]];
    for jl in &joins {
        for &(wi, wj) in jl.pairs.iter().flatten() {
            let s = parts[jl.i].sid(wi as usize, jl.slot_ij);
            links[cursor[s]] = wj;
            cursor[s] += 1;
            let s = parts[jl.j].sid(wj as usize, jl.slot_ji);
            links[cursor[s]] = wi;
            cursor[s] += 1;
        }
    }

    if span.is_recording() {
        span.tag("vertices", n_verts);
        span.tag("probed", probed);
        span.tag("links", links.len());
    }
    let alive = vec![true; n_verts];
    KPartiteGraph::assemble(k, parts, alive, w1, w2, nodes, perception, links, link_off)
}

/// Chain terminator in a join lookup table.
const NO_VERT: u32 = u32::MAX;

/// Runs `f` over `0..n` — split into order-preserving chunks across `pool`
/// when it has several lanes and `n` is worth splitting — and returns the
/// chunk results in index order (always at least one).
fn chunked<T: Send>(
    pool: &pegpool::ThreadPool,
    n: usize,
    f: impl Fn(std::ops::Range<usize>) -> T + Sync,
) -> Vec<T> {
    if pool.lanes() > 1 && n >= 64 {
        let chunks = pool.chunks(n, 4);
        pool.map(chunks.len(), |ci| f(chunks[ci].clone()))
    } else {
        vec![f(0..n)]
    }
}

/// Lookup-table key: a hash of a candidate's images at the shared
/// positions. A collision only lengthens a chain — the admission test
/// compares every shared image — so the key is exact for any number of
/// shared nodes.
fn join_key(images: &[EntityId], pos: &[usize]) -> u64 {
    pos.iter().fold(0u64, |h, &p| {
        (h.rotate_left(26) ^ u64::from(images[p].0)).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// Per-vertex factor rows of one partition, in vertex order.
#[derive(Default)]
struct VertexRows {
    /// `Pr(image.l = label)` per path position, `path_len` per vertex.
    lab: Vec<f64>,
    /// Each label row multiplied out in position order, starting at 1.0.
    lab_prod: Vec<f64>,
    /// Edge probability per path edge (positions `e`, `e + 1`),
    /// `path_len − 1` per vertex.
    edg: Vec<f64>,
    /// The vertex's images are pairwise distinct and reference-disjoint.
    ok: Vec<bool>,
    /// Exclusive-coverage weight.
    w1: Vec<f64>,
}

impl VertexRows {
    fn compute(
        peg: &Peg,
        query: &QueryGraph,
        path: &[QNode],
        owned_nodes: &[usize],
        owned_edges: &[(usize, usize)],
        matches: &[pathindex::PathMatch],
    ) -> Self {
        let (n, len) = (matches.len(), path.len());
        let mut r = VertexRows {
            lab: Vec::with_capacity(n * len),
            lab_prod: Vec::with_capacity(n),
            edg: Vec::with_capacity(n * len.saturating_sub(1)),
            ok: Vec::with_capacity(n),
            w1: Vec::with_capacity(n),
        };
        for pm in matches {
            let images = &pm.nodes;
            let (lab0, edg0) = (r.lab.len(), r.edg.len());
            let mut prod = 1.0;
            for (&e, &q) in images.iter().zip(path) {
                let f = peg.graph.label_prob(e, query.label(q));
                prod *= f;
                r.lab.push(f);
            }
            for (e, q) in images.windows(2).zip(path.windows(2)) {
                r.edg.push(peg.graph.edge_prob(e[0], e[1], query.label(q[0]), query.label(q[1])));
            }
            let mut w1 = 1.0;
            for &pos in owned_nodes {
                w1 *= r.lab[lab0 + pos];
            }
            for &(a, _) in owned_edges {
                w1 *= r.edg[edg0 + a];
            }
            r.lab_prod.push(prod);
            r.ok.push(images.iter().enumerate().all(|(a, &ea)| {
                images[a + 1..].iter().all(|&eb| ea != eb && peg.graph.refs_disjoint(ea, eb))
            }));
            r.w1.push(w1);
        }
        r
    }

    fn append(mut self, other: Self) -> Self {
        self.lab.extend(other.lab);
        self.lab_prod.extend(other.lab_prod);
        self.edg.extend(other.edg);
        self.ok.extend(other.ok);
        self.w1.extend(other.w1);
        self
    }
}

/// One partition as the join sees it: its image slab and factor rows.
struct JoinSide<'a> {
    nodes: &'a [EntityId],
    len: usize,
    rows: &'a VertexRows,
}

impl JoinSide<'_> {
    fn images(&self, v: usize) -> &[EntityId] {
        &self.nodes[v * self.len..(v + 1) * self.len]
    }
}

/// The admitted pairs of one joined pair `(i, j)`, `i < j`, as per-chunk
/// lists in emission order.
struct JoinLinks {
    i: usize,
    j: usize,
    slot_ij: usize,
    slot_ji: usize,
    pairs: Vec<Vec<(u32, u32)>>,
}

/// The admission test of one joined pair `(i, j)`, fixed once per pair.
///
/// The union mapping is path `i`'s nodes in path order, then path `j`'s
/// nodes that path `i` does not visit; the union edge order is path `i`'s
/// edges, then path `j`'s edges that path `i` lacks. (Paths are simple, so
/// neither list repeats a node or an edge.)
struct PairPlan {
    /// Positions on paths `i` and `j` of every node both visit.
    eq: Vec<(usize, usize)>,
    /// Positions on path `j` of the nodes only it visits, in path order.
    j_only: Vec<usize>,
    /// Indices of path `j`'s edges that path `i` lacks, in path order.
    j_edges: Vec<usize>,
    /// Positions of the decomposition's shared nodes on path `i` / `j`:
    /// the lookup-table key.
    key_i: Vec<usize>,
    key_j: Vec<usize>,
}

impl PairPlan {
    fn new(decomp: &Decomposition, i: usize, j: usize) -> Self {
        let (pi, pj) = (&decomp.paths[i], &decomp.paths[j]);
        let (mut eq, mut j_only) = (Vec::new(), Vec::new());
        for (q, &n) in pj.nodes.iter().enumerate() {
            match pi.position(n) {
                Some(p) => eq.push((p, q)),
                None => j_only.push(q),
            }
        }
        let i_edges: Vec<(QNode, QNode)> = pi.edges().collect();
        let j_edges =
            pj.edges().enumerate().filter(|(_, e)| !i_edges.contains(e)).map(|(x, _)| x).collect();
        let shared = decomp.shared_nodes(i, j);
        Self {
            eq,
            j_only,
            j_edges,
            key_i: shared.iter().map(|&n| pi.position(n).unwrap()).collect(),
            key_j: shared.iter().map(|&n| pj.position(n).unwrap()).collect(),
        }
    }

    /// Join-candidate admission test for `(vi, vj)`: the join predicates,
    /// injectivity and reference compatibility over the union mapping, and
    /// `Pr(Pu1 ∘ Pu2) ≥ α` on the joined subgraph.
    ///
    /// Bit-exact with evaluating every factor per pair: `prle` multiplies
    /// the same factors in the same order — labels over the union mapping,
    /// then edges in union order — and a zero prefix rejects, exactly as
    /// an early exit would. Edge factors are looked up in path order while
    /// the union order names edges by sorted endpoints; `edge_prob` is
    /// symmetric under swapping both endpoints and both labels, so the
    /// factor is the same number. Injectivity over the union splits into
    /// each side's own images (the `ok` rows; path `j`'s shared images
    /// equal path `i`'s once the equality checks pass) plus the cross
    /// pairs between path `i` and path `j`'s other images.
    #[allow(clippy::too_many_arguments)]
    fn admits(
        &self,
        peg: &Peg,
        a: &JoinSide<'_>,
        vi: usize,
        b: &JoinSide<'_>,
        vj: usize,
        alpha: f64,
        union: &mut Vec<EntityId>,
    ) -> bool {
        if !a.rows.ok[vi] || !b.rows.ok[vj] {
            return false;
        }
        let (ia, ib) = (a.images(vi), b.images(vj));
        if self.eq.iter().any(|&(p, q)| ia[p] != ib[q]) {
            return false;
        }
        for &q in &self.j_only {
            let eb = ib[q];
            if ia.iter().any(|&ea| ea == eb || !peg.graph.refs_disjoint(ea, eb)) {
                return false;
            }
        }
        let mut prle = a.rows.lab_prod[vi];
        if prle == 0.0 {
            return false;
        }
        for &q in &self.j_only {
            prle *= b.rows.lab[vj * b.len + q];
            if prle == 0.0 {
                return false;
            }
        }
        let ea = a.len.saturating_sub(1);
        for &f in &a.rows.edg[vi * ea..(vi + 1) * ea] {
            prle *= f;
            if prle == 0.0 {
                return false;
            }
        }
        let eb = b.len.saturating_sub(1);
        for &x in &self.j_edges {
            prle *= b.rows.edg[vj * eb + x];
            if prle == 0.0 {
                return false;
            }
        }
        union.clear();
        union.extend_from_slice(ia);
        union.extend(self.j_only.iter().map(|&q| ib[q]));
        prle * peg.prn(union) + EPS >= alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::peg::{figure1_refgraph, PegBuilder};
    use crate::offline::{OfflineIndex, OfflineOptions};
    use crate::online::candidates::{find_candidates, NodeCandidateCache, PathStats};
    use crate::online::decompose::{decompose, DecompStrategy};
    use graphstore::Label;

    /// Builds the k-partite graph for the Figure-1 (r,a,i) query decomposed
    /// into two single-edge paths (forced by max_len = 1).
    fn setup(alpha: f64) -> (Peg, KPartiteGraph, Decomposition) {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(1, 0.01)).unwrap();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = crate::query::QueryGraph::path(&[r, a, i]).unwrap();
        let d = decompose(&q, 1, &|_| 1.0, DecompStrategy::CostBased).unwrap();
        assert_eq!(d.paths.len(), 2);
        let cache = NodeCandidateCache::new();
        let pool = pegpool::pool_with(1);
        let sets: Vec<CandidateSet> = d
            .paths
            .iter()
            .map(|p| {
                let s = PathStats::new(&q, p);
                find_candidates(&peg, &idx, &q, p, &s, alpha, &cache, &pool)
            })
            .collect();
        let kp = build_kpartite(&peg, &q, &d, &sets, alpha, &pool);
        (peg, kp, d)
    }

    #[test]
    fn links_respect_join_predicates() {
        let (_peg, kp, d) = setup(0.05);
        // Both partitions share exactly query node 1 (the `a` center).
        assert_eq!(d.shared.len(), 1);
        for pi in 0..kp.n_partitions() {
            let p = kp.part(pi);
            for vi in 0..p.n_verts() {
                let v = p.vert(vi);
                for (slot, &pj) in p.joined().iter().enumerate() {
                    let q = kp.part(pj);
                    for &w in v.links(slot) {
                        let wv = q.vert(w as usize);
                        // Shared node position: find it and compare images.
                        let shared = d.shared_nodes(pi, pj);
                        for &sn in shared {
                            let a = v.nodes()[d.paths[pi].position(sn).unwrap()];
                            let b = wv.nodes()[d.paths[pj].position(sn).unwrap()];
                            assert_eq!(a, b);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn structure_reduction_kills_linkless() {
        let (_peg, mut kp, _d) = setup(0.05);
        let before: usize = kp.alive_counts().iter().sum();
        let stats =
            kp.reduce(0.05, &ReduceOptions { use_upperbounds: false, ..Default::default() });
        let after: usize = kp.alive_counts().iter().sum();
        assert_eq!(before - after, stats.removed_structure);
        // Every survivor keeps a link everywhere it must.
        for pi in 0..kp.n_partitions() {
            let p = kp.part(pi);
            for vi in 0..p.n_verts() {
                let v = p.vert(vi);
                if !v.alive() {
                    continue;
                }
                for slot in 0..p.joined().len() {
                    assert!(v.alive_link_count(slot) > 0);
                }
            }
        }
    }

    #[test]
    fn upperbound_reduction_tightens_more_with_high_alpha() {
        let (_peg, mut kp_low, _) = setup(0.05);
        let (_peg2, mut kp_high, _) = setup(0.05);
        let low = kp_low.reduce(0.05, &ReduceOptions::default());
        // Reduce the *same* initial graph with a stricter threshold.
        let high = kp_high.reduce(0.2, &ReduceOptions::default());
        let alive_low: usize = kp_low.alive_counts().iter().sum();
        let alive_high: usize = kp_high.alive_counts().iter().sum();
        assert!(alive_high <= alive_low);
        assert!(
            high.removed_upperbound + high.removed_structure
                >= low.removed_upperbound + low.removed_structure
        );
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(1, 0.01)).unwrap();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = crate::query::QueryGraph::path(&[r, a, i]).unwrap();
        let d = decompose(&q, 1, &|_| 1.0, DecompStrategy::CostBased).unwrap();
        let cache = NodeCandidateCache::new();
        let seq_pool = pegpool::pool_with(1);
        let sets: Vec<CandidateSet> = d
            .paths
            .iter()
            .map(|p| {
                let s = PathStats::new(&q, p);
                let mut cs = find_candidates(&peg, &idx, &q, p, &s, 0.01, &cache, &seq_pool);
                // Tile the figure-1 candidates past the chunking threshold
                // (64) so the pooled vertex-build and probe branches —
                // which this test exists to cover — actually execute.
                assert!(!cs.matches.is_empty());
                let originals = cs.matches.clone();
                while cs.matches.len() < 100 {
                    cs.matches.extend(originals.iter().cloned());
                }
                cs
            })
            .collect();
        assert!(sets.iter().all(|cs| cs.matches.len() >= 64));
        let seq = build_kpartite(&peg, &q, &d, &sets, 0.01, &seq_pool);
        for threads in [2usize, 4] {
            let pool = pegpool::pool_with(threads);
            let par = build_kpartite(&peg, &q, &d, &sets, 0.01, &pool);
            assert_eq!(seq.n_partitions(), par.n_partitions());
            for pi in 0..seq.n_partitions() {
                let (p, q2) = (seq.part(pi), par.part(pi));
                assert_eq!(p.joined(), q2.joined());
                assert_eq!(p.n_verts(), q2.n_verts());
                for vi in 0..p.n_verts() {
                    let (x, y) = (p.vert(vi), q2.vert(vi));
                    assert_eq!(x.nodes(), y.nodes());
                    assert_eq!(x.w1().to_bits(), y.w1().to_bits(), "threads={threads}");
                    assert_eq!(x.w2().to_bits(), y.w2().to_bits());
                    for slot in 0..p.joined().len() {
                        assert_eq!(x.links(slot), y.links(slot));
                        assert_eq!(x.alive_link_count(slot), y.alive_link_count(slot));
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_reduction_matches_sequential() {
        for threads in [0usize, 2, 4] {
            let (_p1, mut seq, _) = setup(0.05);
            let (_p2, mut par, _) = setup(0.05);
            let s1 = seq.reduce(0.1, &ReduceOptions { parallel: false, ..Default::default() });
            let s2 =
                par.reduce(0.1, &ReduceOptions { parallel: true, threads, ..Default::default() });
            assert_eq!(seq.alive_counts(), par.alive_counts());
            assert_eq!(s1.removed_structure, s2.removed_structure);
            assert_eq!(s1.removed_upperbound, s2.removed_upperbound);
            assert_eq!(s1.rounds, s2.rounds);
            assert_eq!(s1.frontier_evals, s2.frontier_evals);
            assert_eq!(s1.full_evals_avoided, s2.full_evals_avoided);
            for pi in 0..seq.n_partitions() {
                let (p, q) = (seq.part(pi), par.part(pi));
                for vi in 0..p.n_verts() {
                    let (a, b) = (p.vert(vi), q.vert(vi));
                    assert_eq!(a.alive(), b.alive());
                    for (x, y) in a.perception().iter().zip(b.perception()) {
                        assert!((x - y).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn frontier_reduction_matches_full_sweep_bitwise() {
        for alpha in [0.02, 0.1, 0.3] {
            let (_p1, mut frontier, _) = setup(0.02);
            let (_p2, mut full, _) = setup(0.02);
            let sf =
                frontier.reduce(alpha, &ReduceOptions { use_frontier: true, ..Default::default() });
            let sv =
                full.reduce(alpha, &ReduceOptions { use_frontier: false, ..Default::default() });
            assert_eq!(sf.rounds, sv.rounds, "alpha={alpha}");
            assert_eq!(sf.removed_structure, sv.removed_structure);
            assert_eq!(sf.removed_upperbound, sv.removed_upperbound);
            assert_eq!(frontier.alive_counts(), full.alive_counts());
            // The frontier never does MORE work than the sweep, and both
            // report per-round telemetry for every round.
            assert!(sf.frontier_evals <= sv.frontier_evals);
            assert_eq!(sf.round_frontiers.len(), sf.rounds);
            assert_eq!(sv.round_frontiers.len(), sv.rounds);
            assert!(sv.full_evals_avoided == 0, "full sweep avoids nothing");
            for pi in 0..frontier.n_partitions() {
                let (p, q) = (frontier.part(pi), full.part(pi));
                for vi in 0..p.n_verts() {
                    let (a, b) = (p.vert(vi), q.vert(vi));
                    assert_eq!(a.alive(), b.alive());
                    for (x, y) in a.perception().iter().zip(b.perception()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "alpha={alpha} pi={pi} vi={vi}");
                    }
                }
            }
        }
    }

    /// A two-partition graph where each partition's only join partner is
    /// the other one. A vertex `A` with `w1 = 1` links only to a weak
    /// vertex `B` (`w1 = 0.3`), so `A`'s perception of partition 1 must
    /// tighten to exactly `B.w1` via the *direct* link — the `pj == entry`
    /// message the dead guard's comment would have skipped. Under that
    /// (incorrect) skip-variant no message about partition 1 could ever
    /// reach `A` (partition 1 is its only sender), perception would stay
    /// at 1.0, and the α = 0.5 prune below would not fire.
    fn two_partition_chain() -> KPartiteGraph {
        let vert = |w1: f64, own: usize, other_links: Vec<u32>| Vert {
            nodes: vec![EntityId(own as u32)],
            w1,
            w2: 1.0,
            alive: true,
            links: vec![other_links],
            perception: {
                let mut p = vec![1.0; 2];
                p[own] = w1;
                p
            },
        };
        KPartiteGraph::from_partitions(vec![
            Partition { joined: vec![1], verts: vec![vert(1.0, 0, vec![0])] },
            Partition { joined: vec![0], verts: vec![vert(0.3, 1, vec![0])] },
        ])
    }

    #[test]
    fn direct_links_feed_the_perception_bound() {
        // At a permissive threshold nothing dies, exposing the fixpoint
        // perceptions: A learned B's w1 through the direct link.
        let mut kp = two_partition_chain();
        let stats = kp.reduce(0.1, &ReduceOptions::default());
        assert_eq!(stats.removed_structure + stats.removed_upperbound, 0);
        let a = kp.part(0).vert(0);
        assert!((a.perception()[1] - 0.3).abs() < 1e-12, "direct-link base case must propagate");
        assert!((a.upper_bound() - 0.3).abs() < 1e-12);

        // At α = 0.5 the tightened bound prunes A (and B cascades away).
        let mut kp = two_partition_chain();
        let stats = kp.reduce(0.5, &ReduceOptions::default());
        assert!(stats.removed_upperbound >= 1, "upper-bound prune must fire: {stats:?}");
        assert!(kp.alive_counts().iter().all(|&n| n == 0));
    }

    #[test]
    fn bitset_ranges_and_seeding() {
        let mut b = BitSet::new(130);
        b.set_all(130);
        let mut seen = Vec::new();
        b.for_each_in(60, 70, |i| seen.push(i));
        assert_eq!(seen, (60..70).collect::<Vec<_>>());
        b.clear_all();
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        let mut seen = Vec::new();
        b.for_each_in(0, 130, |i| seen.push(i));
        assert_eq!(seen, vec![0, 63, 64, 129]);
        let mut seen = Vec::new();
        b.for_each_in(64, 129, |i| seen.push(i));
        assert_eq!(seen, vec![64]);
        let mut seen = Vec::new();
        b.for_each_in(130, 130, |i| seen.push(i));
        assert!(seen.is_empty());
    }

    #[test]
    fn cover_assignment_partitions_everything_once() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let _ = peg;
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = crate::query::QueryGraph::path(&[r, a, i]).unwrap();
        let d = decompose(&q, 1, &|_| 1.0, DecompStrategy::CostBased).unwrap();
        let cover = CoverAssignment::new(&q, &d);
        let total_nodes: usize = cover.owned_nodes.iter().map(|v| v.len()).sum();
        let total_edges: usize = cover.owned_edges.iter().map(|v| v.len()).sum();
        assert_eq!(total_nodes, q.n_nodes());
        assert_eq!(total_edges, q.n_edges());
    }
}
