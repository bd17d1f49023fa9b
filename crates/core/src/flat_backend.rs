//! The flat engine: MIS rounds as frontier sweeps over CSR adjacency.

use crate::backend::{self, BackendError, CoinFlip, FlatAlgo, MisBackend, Slot};
use crate::{bounded_arb, ghaffari, luby, metivier, ArbParams, MisRun};
use arbmis_congest::{execute_indexed, rng, BitMask, Every, Frontier, Parallelism, WordFilter};
use arbmis_graph::{Graph, NodeId};
use arbmis_obs::{FlightRecorder, Recorder, RoundRecord};
use std::ops::{Index, IndexMut};
use std::sync::Mutex;

/// Shared-memory replay of the CONGEST MIS protocols.
///
/// No message objects: a round is one or two sweeps over the active set,
/// reading neighbor flags straight out of word-packed [`BitMask`]es —
/// a neighbor probe costs 1 bit of an `n/8`-byte array. Every sweep
/// walks the two-level [`Frontier`] in ascending id order, skipping
/// empty words through its summary, so a sweep costs O(|frontier|)
/// rather than O(n) (DESIGN.md §10). Every coin draw is keyed by node id
/// (or, in a rank-keyed BoundedArb phase, by the node's rank within the
/// active set) and every tie-break compares ids (DESIGN.md §13).
/// Métivier, BoundedArb, degree reduction and Luby decide through one
/// win scan: a node joins when its `(key, id)` beats the key of every
/// competing neighbor, and each algorithm supplies only the deciding
/// set, the competing test and the key (DESIGN.md §10). Priorities are
/// never stored: the scan draws each one where it compares it, for the
/// node deciding and for each competing neighbor it probes. A node that
/// a lower-id neighbor already beat earlier in the same walk carries a
/// loser mark and is skipped without a draw. The coin sweeps branch on
/// no coin: Luby's mark sweep writes each mark bit from its draw, and
/// its win scan walks only the words of `active & marked`; Ghaffari
/// keeps one coin word per node (exponent and mark) that its pull reads
/// without an activity test (DESIGN.md §13).
///
/// # Deterministic parallelism
///
/// Each sweep is written once, as a per-node body run by one chunked
/// walk of the frontier. At one thread a single chunk covers every word
/// and runs inline; with [`with_threads`](FlatBackend::with_threads)` > 1`
/// the same body runs per word-aligned chunk on the [`execute_indexed`]
/// work-stealing pool. A chunk writes only its own nodes' entries and
/// collects its winners in ascending order into a private buffer;
/// buffers are concatenated in chunk order (= ascending node order), so
/// the result is bit-identical at every thread count (DESIGN.md §7).
/// Only the single-threaded path is steady-state alloc-free. Ghaffari's
/// decide sweep stays serial at every thread count.
///
/// Randomness is the counter-pure [`rng`] keyed by
/// `(seed, node, iteration, tag)`, the same draws the CONGEST protocols
/// make, which is what makes this backend round-identical to the
/// CONGEST-backed adapter (`arbmis_flat::CongestBackend`).
pub struct FlatBackend<'g> {
    g: &'g Graph,
    seed: u64,
    algo: FlatAlgo,
    /// Nodes active at round 0; `None` starts from every node. Nodes
    /// outside it never run.
    region: Option<BitMask>,
    /// Coin keys of a rank-keyed phase: each node's rank within the
    /// active set the phase started from
    /// ([`rank_active`](FlatBackend::rank_active)). `None` keys coins by
    /// node id.
    ranks: Option<RankIndex>,
    /// Worker threads for the chunked sweeps (1 = one inline chunk).
    threads: usize,
    recorder: Recorder,
    flight: FlightRecorder,
    /// Injected single-coin perturbation (divergence drills); `None` in
    /// normal operation.
    coin_flip: Option<CoinFlip>,
    round: u64,
    /// Nodes that have not yet halted (the simulator's `pending`).
    /// Deactivated nodes halt at the next announce-type round, as in the
    /// simulator, so this trails `active_count` until then.
    unfinished: usize,
    /// Active set, walked by every sweep; its inner mask answers the
    /// neighbor probes.
    active: Frontier,
    active_count: usize,
    /// MIS membership (write-only in hot loops).
    in_mis: BitMask,
    /// Bad set (BoundedArb exiles).
    bad: BitMask,
    /// `active_deg[p]` = number of active neighbors of node `p` while
    /// `deg_exact` holds, an upper bound on it otherwise (stored degrees
    /// only ever fall). Luby pulls it: its mark sweep recounts every
    /// active node's entry from the active mask. BoundedArb pushes it:
    /// while `track_deg` is set, each deactivation decrements all
    /// neighbors.
    active_deg: Vec<u32>,
    /// The deciding set of the win scans that do not walk every active
    /// node (ANDed with the active set by the walk): Luby's marks of the
    /// current iteration, or degree reduction's competitors. Stale for
    /// inactive nodes.
    marked: BitMask,
    /// Loser marks of the [`WinScan`] (DESIGN.md §10, §13): a set bit
    /// says a lower-id competing neighbor with a larger key was found
    /// earlier in the same sweep, so the node cannot win and the walk
    /// skips it, clearing the bit. A chunk marks only nodes in its own
    /// words that its walk visits, so the mask is all-zero between
    /// sweeps.
    losers: BitMask,
    /// Degree reduction's high nodes at iteration boundaries: the active
    /// nodes whose active degree exceeds the target, with that degree
    /// stored exactly. Empty for every other algorithm.
    high: Vec<NodeId>,
    /// Ghaffari's desire exponents (`p = 2^-e`); stale for inactive
    /// nodes. Empty for every other algorithm.
    exponent: Vec<u32>,
    /// Ghaffari's coin words, the only per-node state its pull reads
    /// from neighbors: an active node's exponent as of the mark sweep
    /// with its mark in [`ghaffari::MARK`], [`ghaffari::INACTIVE`] for
    /// every other node. The pull then updates `exponent` in place.
    /// Empty for every other algorithm.
    coins: Vec<u32>,
    /// `64 - priority_bits(n)`, hoisted: [`rng::draw_priority`]
    /// recomputes a floating-point `⌈log₂ n⌉` on every draw, which the
    /// win scan would otherwise pay per probe.
    prio_shift: u32,
    /// Whether deactivations currently decrement `active_deg` (see
    /// [`deactivate_in`]). Only BoundedArb tracks, and only in scales
    /// whose ρ_k opt-out can fire; it recounts exactly before each
    /// scale's bad exits
    /// ([`start_arb_scale`](FlatBackend::start_arb_scale)). Luby recounts
    /// in its mark sweep ([`decide_luby`](FlatBackend::decide_luby)),
    /// Métivier and Ghaffari read no degrees, and degree reduction
    /// recounts its high nodes from their adjacency after each exit
    /// ([`refresh_high`](FlatBackend::refresh_high)).
    track_deg: bool,
    /// Whether `active_deg` is exact for every active node. Reads that
    /// need exact degrees (bad exits, the trace maxima) check it.
    deg_exact: bool,
    /// Winners of the current iteration, ascending.
    wins: Vec<NodeId>,
    /// Joiners of the last executed round, ascending.
    joiners: Vec<NodeId>,
    /// Scratch for bad-exit violators (snapshot before exiling).
    removals: Vec<NodeId>,
    /// Per-chunk winner buffers of the collecting sweeps, reused across
    /// rounds.
    chunk_bufs: Vec<Vec<NodeId>>,
    obs_flushed: bool,
}

/// Removes node `v` from the active set if it is active and returns
/// whether it was: clears the frontier bit and, with `track_deg`,
/// decrements every neighbor's active degree once. `v` halts at the next
/// announce-type round. Free function over the split-off fields so
/// callers can hold the graph across calls.
///
/// `track_deg = false` skips the decrement loop — over a run it is 2m
/// random u32 read-modify-writes plus a CSR row fetch per removed node,
/// the single largest memory cost of the exit path at large n — and
/// leaves the stored degrees as upper bounds. Only BoundedArb sets it,
/// and only in scales whose opt-out can fire.
fn deactivate_in(
    g: &Graph,
    active: &mut Frontier,
    active_count: &mut usize,
    active_deg: &mut [u32],
    track_deg: bool,
    v: NodeId,
) -> bool {
    let removed = active.take(v);
    *active_count -= usize::from(removed);
    if track_deg && removed {
        for u in g.neighbors(v) {
            active_deg[u] -= 1;
        }
    }
    removed
}

/// Number of active neighbors of node `p`: its exact active degree.
fn active_degree(g: &Graph, active: &BitMask, p: NodeId) -> u32 {
    g.neighbors(p).iter().filter(|&u| active.test(u)).count() as u32
}

/// Number of active neighbors of node `p` whose active degree exceeds
/// `threshold` (the Invariant's high-degree count).
fn high_degree_neighbors(
    g: &Graph,
    active: &BitMask,
    deg: &[u32],
    p: NodeId,
    threshold: f64,
) -> usize {
    g.neighbors(p)
        .iter()
        .filter(|&u| active.test(u) && f64::from(deg[u]) > threshold)
        .count()
}

/// The iteration cap of a run to completion. Every algorithm here ends
/// whp long before it, so a run still going past it is an engine fault,
/// not bad luck.
fn iteration_cap(n: usize) -> u64 {
    let logn = (n.max(2) as f64).log2();
    2000 + (60.0 * logn * logn) as u64
}

/// Number of word-aligned chunks a sweep splits the active set into:
/// one at one thread, otherwise four per thread (at most one per word)
/// so the work-stealing pool can even out uneven chunks.
fn chunk_count(words: usize, threads: usize) -> usize {
    if threads <= 1 {
        1
    } else {
        (threads * 4).min(words.max(1))
    }
}

/// The one walk every threaded active-set sweep runs. The word array
/// splits into [`chunk_count`] disjoint, ascending word ranges;
/// `shard(wlo, whi)` builds each chunk's private state, in chunk order,
/// and `body(state, p)` runs on every active node `p` of the chunk that
/// `filter` keeps ([`Every`] active node, or those a mask also holds), in
/// ascending order, skipping empty words through the frontier's summary
/// (O(|frontier|) per sweep at every thread count). One chunk runs
/// inline; several run on the [`execute_indexed`] pool. Bodies read
/// shared state and write only their chunk's, so results never depend
/// on the thread count.
///
/// A chunk walks by `for_each` (the frontier iterator's `fold`), which
/// keeps the cursors in registers around the body; a `for` loop over
/// `next` did not (DESIGN.md §13).
fn walk<S: Send, F: WordFilter + Sync>(
    active: &Frontier,
    filter: F,
    threads: usize,
    mut shard: impl FnMut(usize, usize) -> S,
    body: impl Fn(&mut S, NodeId) + Sync,
) {
    let words = active.mask().words().len();
    let chunks = chunk_count(words, threads);
    let range = |c: usize| (c * words / chunks, (c + 1) * words / chunks);
    if chunks == 1 {
        let mut state = shard(0, words);
        active
            .iter_words_and(0, words, filter)
            .for_each(|p| body(&mut state, p));
        return;
    }
    let states: Vec<Mutex<Option<S>>> = (0..chunks)
        .map(|c| {
            let (wlo, whi) = range(c);
            Mutex::new(Some(shard(wlo, whi)))
        })
        .collect();
    execute_indexed(chunks, Parallelism::Threads(threads), |_w, c| {
        let (wlo, whi) = range(c);
        // Moved out of the mutex so the walk holds it in a local.
        let mut state = states[c]
            .lock()
            .expect("only chunk c's one run locks its state")
            .take()
            .expect("each chunk runs once");
        active
            .iter_words_and(wlo, whi, filter)
            .for_each(|p| body(&mut state, p));
    });
}

/// [`walk`] that keeps the visited nodes `keep` accepts: each chunk
/// collects its own, ascending, into its buffer of `bufs`, and `out`
/// gets the buffers' concatenation in chunk order — the ascending list.
/// `filter` and `shard` work as in [`walk`].
fn collect<S: Send, F: WordFilter + Sync>(
    active: &Frontier,
    filter: F,
    threads: usize,
    bufs: &mut Vec<Vec<NodeId>>,
    out: &mut Vec<NodeId>,
    mut shard: impl FnMut(usize, usize) -> S,
    keep: impl Fn(&mut S, NodeId) -> bool + Sync,
) {
    let chunks = chunk_count(active.mask().words().len(), threads);
    if bufs.len() < chunks {
        bufs.resize_with(chunks, Vec::new);
    }
    let mut free = bufs.iter_mut();
    walk(
        active,
        filter,
        threads,
        |wlo, whi| {
            let buf = free.next().expect("a buffer per chunk");
            buf.clear();
            (buf, shard(wlo, whi))
        },
        |(buf, state), p| {
            if keep(state, p) {
                buf.push(p);
            }
        },
    );
    out.clear();
    for buf in &bufs[..chunks] {
        out.extend_from_slice(buf);
    }
}

/// One chunk's entries of an array indexed by node id (or, for a mask's
/// words, by word id), indexed by that id.
struct Shard<'a, T> {
    lo: usize,
    entries: &'a mut [T],
}

impl<T> Index<usize> for Shard<'_, T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.entries[i - self.lo]
    }
}

impl<T> IndexMut<usize> for Shard<'_, T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.entries[i - self.lo]
    }
}

/// A chunk's words of the loser mask (see [`FlatBackend`]'s `losers`).
impl Shard<'_, u64> {
    /// Clears node `v`'s loser bit and returns whether it was set: a
    /// lower-id neighbor already beat `v` in this sweep.
    #[inline]
    fn take_loser(&mut self, v: NodeId) -> bool {
        let (word, bit) = (&mut self[v >> 6], 1u64 << (v & 63));
        let was = *word & bit;
        *word &= !bit;
        was != 0
    }

    /// Whether the deciding node's `key` beats neighbor key `theirs`.
    /// A beaten neighbor above the deciding node gets its loser bit,
    /// when its word is this chunk's, so the walk skips it later.
    #[inline]
    fn beats(&mut self, key: (u64, NodeId), theirs: (u64, NodeId)) -> bool {
        let beats = key > theirs;
        if beats && theirs.1 > key.1 {
            let v = theirs.1;
            if let Some(word) = self.entries.get_mut((v >> 6) - self.lo) {
                *word |= 1u64 << (v & 63);
            }
        }
        beats
    }
}

/// A [`walk`] `shard` that hands out `entries` chunk by chunk: the chunk
/// of words `wlo..whi` owns entries `per_word·wlo..per_word·whi`
/// (clamped to the array) — 64 per word for a node-indexed array, 1 for
/// a mask's words.
fn shards<'a, T>(
    mut entries: &'a mut [T],
    per_word: usize,
) -> impl FnMut(usize, usize) -> Shard<'a, T> {
    let mut lo = 0;
    move |_wlo, whi| {
        let hi = (per_word * whi).min(lo + entries.len());
        let (head, tail) = std::mem::take(&mut entries).split_at_mut(hi - lo);
        entries = tail;
        let shard = Shard { lo, entries: head };
        lo = hi;
        shard
    }
}

/// The rank of each node within a fixed node set, in O(n/64) space: a
/// copy of the set's mask words plus, per word, the number of members
/// in the words before it. A rank is that count plus one masked
/// popcount. At 10⁶ nodes the index takes about 190 KB, against the
/// 8 MB of a per-node rank table, so its lookups stay in cache.
struct RankIndex {
    words: Vec<u64>,
    base: Vec<u32>,
}

impl RankIndex {
    /// The index of the members of `mask`.
    fn new(mask: &BitMask) -> Self {
        let words = mask.words().to_vec();
        let mut count = 0u32;
        let base = words
            .iter()
            .map(|w| {
                let before = count;
                count += w.count_ones();
                before
            })
            .collect();
        RankIndex { words, base }
    }

    /// Number of members below `v`: `v`'s rank when `v` is a member.
    #[inline]
    fn rank(&self, v: NodeId) -> NodeId {
        let below = self.words[v >> 6] & ((1u64 << (v & 63)) - 1);
        self.base[v >> 6] as NodeId + below.count_ones() as NodeId
    }
}

/// One decide round's coins, split off the engine's fields. Nothing
/// stores priorities: [`sweep`](Coins::sweep) hands a win scan the
/// round's priority function, which maps a node id to the node's
/// priority, and the scan calls it for the node deciding and for each
/// competing neighbor it probes. Each scan gets one case of the coins —
/// id or rank keys, with or without the ρ_k opt-out, with or without an
/// injected flip — chosen outside the per-node loop, so a probe never
/// branches on the case.
struct Coins<'a> {
    seed: u64,
    iter: u64,
    tag: u64,
    /// `64 - priority_bits` of the keyed node count.
    shift: u32,
    ranks: Option<&'a RankIndex>,
    /// Stored active degrees and ρ_k, when the opt-out can fire.
    opt_out: Option<(&'a [u32], f64)>,
    /// Node and XOR mask of an injected flip, keyed by node id whatever
    /// the coin keys are.
    flip: Option<(NodeId, u64)>,
}

impl Coins<'_> {
    /// Runs `scan` keyed by this round's priorities.
    fn sweep<F: WordFilter + Sync, C: Fn(NodeId) -> bool + Sync>(self, scan: WinScan<'_, F, C>) {
        match self.ranks {
            None => self.draw(|v| v, scan),
            Some(ranks) => self.draw(move |v| ranks.rank(v), scan),
        }
    }

    /// Métivier's priority of the node keyed `key(v)`: `draw_priority`
    /// with the `priority_bits` shift hoisted (identical value), never 0.
    /// The ρ_k opt-out zeroes it above the cutoff.
    fn draw<F: WordFilter + Sync, C: Fn(NodeId) -> bool + Sync>(
        &self,
        key: impl Fn(NodeId) -> NodeId + Sync,
        scan: WinScan<'_, F, C>,
    ) {
        let (seed, iter, tag, shift) = (self.seed, self.iter, self.tag, self.shift);
        let draw = move |v| (rng::draw(seed, key(v), iter, tag) >> shift) | 1;
        match self.opt_out {
            None => self.flip(draw, scan),
            Some((deg, rho)) => self.flip(
                move |v| if f64::from(deg[v]) > rho { 0 } else { draw(v) },
                scan,
            ),
        }
    }

    /// Applies the injected flip, if any: the flipped node's priority
    /// XOR the mask, kept nonzero.
    fn flip<F: WordFilter + Sync, C: Fn(NodeId) -> bool + Sync>(
        &self,
        prio: impl Fn(NodeId) -> u64 + Sync,
        scan: WinScan<'_, F, C>,
    ) {
        match self.flip {
            None => scan.run(&prio),
            Some((node, xor)) => scan.run(&move |v| {
                let p = prio(v);
                if v == node {
                    (p ^ xor) | 1
                } else {
                    p
                }
            }),
        }
    }
}

/// The one win scan: the only code that compares `(key, id)` pairs and
/// sets or clears loser bits (DESIGN.md §10, §13). Every active node that
/// `filter` keeps decides, and wins when its `(key, id)` beats the key of
/// every probed neighbor that `competes` accepts; key 0 (the ρ_k opt-out)
/// never wins. A node whose loser bit is set is skipped, and a competing
/// neighbor it beats gets one.
///
/// Every node that `competes` accepts must be one the walk visits: an
/// active node that `filter` keeps. Then a chunk visits each node it
/// marks and clears its bit, so the loser mask is all-zero again after
/// the scan ([`FlatBackend::win_scan`] asserts it in debug builds).
struct WinScan<'a, F, C> {
    g: &'a Graph,
    active: &'a Frontier,
    threads: usize,
    /// Which active nodes decide: the walk's filter.
    filter: F,
    /// Which probed neighbors compete.
    competes: C,
    lent: Lent<'a>,
}

/// The engine's scratch that [`FlatBackend::win_scan`] lends one scan:
/// the loser mask, the chunk buffers, and the winner list the winners
/// land in, ascending.
struct Lent<'a> {
    losers: &'a mut BitMask,
    bufs: &'a mut Vec<Vec<NodeId>>,
    wins: &'a mut Vec<NodeId>,
}

impl<'a> Lent<'a> {
    /// A win scan of `b`'s active set over `filter` and `competes`.
    fn scan<F, C>(self, b: &'a FlatBackend<'_>, filter: F, competes: C) -> WinScan<'a, F, C> {
        WinScan {
            g: b.g,
            active: &b.active,
            threads: b.threads,
            filter,
            competes,
            lent: self,
        }
    }
}

impl<F: WordFilter + Sync, C: Fn(NodeId) -> bool + Sync> WinScan<'_, F, C> {
    /// Decides every node the walk visits under `key`, which maps a node
    /// id to its key in this round.
    fn run(self, key: &(impl Fn(NodeId) -> u64 + Sync)) {
        let (g, competes, lent) = (self.g, &self.competes, self.lent);
        let losers = shards(lent.losers.words_mut(), 1);
        collect(
            self.active,
            self.filter,
            self.threads,
            lent.bufs,
            lent.wins,
            losers,
            |losers, p| {
                if losers.take_loser(p) {
                    return false;
                }
                let mine = (key(p), p);
                mine.0 != 0
                    && g.neighbors(p)
                        .iter()
                        .all(|u| !competes(u) || losers.beats(mine, (key(u), u)))
            },
        );
    }
}

impl<'g> FlatBackend<'g> {
    /// A flat backend for `algo` on `g` under `seed`, ready at round 0.
    pub fn new(g: &'g Graph, seed: u64, algo: FlatAlgo) -> Self {
        let n = g.n();
        let ghaffari_len = if matches!(algo, FlatAlgo::Ghaffari) {
            n
        } else {
            0
        };
        let mut b = FlatBackend {
            g,
            seed,
            algo,
            region: None,
            ranks: None,
            threads: 1,
            recorder: arbmis_obs::global(),
            flight: arbmis_obs::global_flight(),
            coin_flip: None,
            round: 0,
            unfinished: 0,
            active: Frontier::new(n),
            active_count: 0,
            in_mis: BitMask::new(n),
            bad: BitMask::new(n),
            active_deg: vec![0; n],
            marked: BitMask::new(n),
            losers: BitMask::new(n),
            high: Vec::new(),
            exponent: vec![0; ghaffari_len],
            coins: vec![0; ghaffari_len],
            prio_shift: 64 - rng::priority_bits(n),
            track_deg: false,
            deg_exact: false,
            wins: Vec::new(),
            joiners: Vec::new(),
            removals: Vec::new(),
            chunk_bufs: Vec::new(),
            obs_flushed: false,
        };
        b.reset();
        b
    }

    /// Worker threads for the chunked sweeps (default 1 = inline;
    /// results are bit-identical at every count).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// An engine for the centralized entry points (`luby::run`,
    /// `metivier::run*`, `bounded_arb_independent_set*`): no recorder and
    /// no flight ring, since those report through their return values.
    pub(crate) fn unobserved(g: &'g Graph, seed: u64, algo: FlatAlgo) -> Self {
        Self::new(g, seed, algo)
            .with_recorder(Recorder::disabled())
            .with_flight(FlightRecorder::disabled())
    }

    /// Starts from exactly the nodes of `region` instead of every node.
    /// Coins stay keyed by node id and `g.n()`, so a region run draws
    /// the same coins as the full run would.
    pub(crate) fn with_region(mut self, region: &[bool]) -> Self {
        self.region = Some(BitMask::from_bools(region));
        self.reset();
        self
    }

    /// Hands the engine to the next phase of a multi-phase run (ArbMIS):
    /// `algo` under `seed`, from round 0, on the current active set. The
    /// MIS and the bad set carry over. Coins are keyed by node id and
    /// `g.n()` until [`rank_active`](Self::rank_active) rekeys them.
    /// Stored degrees carry over too: exact, or upper bounds once any
    /// phase removed nodes without tracking. A switched engine must not
    /// be rewound with [`MisBackend::init`].
    pub(crate) fn switch_algo(&mut self, algo: FlatAlgo, seed: u64) {
        debug_assert!(
            !matches!(algo, FlatAlgo::Ghaffari),
            "Ghaffari's exponents are sized at construction"
        );
        self.algo = algo;
        self.seed = seed;
        self.ranks = None;
        self.prio_shift = 64 - rng::priority_bits(self.g.n());
        self.begin_phase();
    }

    /// Keys every coin by the node's rank within the current active set
    /// and draws `priority_bits` of its size: the ids and `n` of the
    /// subgraph the active set induces. Ranks ascend with node ids, so
    /// tie-breaks on node ids order nodes as the subgraph's ids would,
    /// and the phase decides exactly what the same engine decides on the
    /// extracted subgraph. A full active set keeps the identity keys,
    /// which are its ranks. Otherwise the ranks come from a
    /// [`RankIndex`] of the current active set, which the active set only
    /// shrinks away from until the next phase. For unobserved drivers
    /// only: flight coin digests and injected coin flips stay keyed by
    /// node id. Only BoundedArb's priority draws read rank keys.
    pub(crate) fn rank_active(&mut self) {
        debug_assert!(
            matches!(self.algo, FlatAlgo::BoundedArb { .. }),
            "only BoundedArb draws rank-keyed coins"
        );
        if self.active_count < self.g.n() {
            self.ranks = Some(RankIndex::new(self.active.mask()));
        }
        self.prio_shift = 64 - rng::priority_bits(self.active_count);
    }

    /// Routes observability through `recorder` instead of the global one.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Routes per-round flight records through `flight` instead of the
    /// global ring.
    #[must_use]
    pub fn with_flight(mut self, flight: FlightRecorder) -> Self {
        self.flight = flight;
        self
    }

    /// The flight recorder this backend writes to.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Injects a single-coin perturbation (see [`CoinFlip`]). For
    /// divergence-tooling tests; pristine runs leave this unset.
    #[must_use]
    pub fn with_coin_flip(mut self, flip: CoinFlip) -> Self {
        self.coin_flip = Some(flip);
        self
    }

    /// Whether node `v` is still active (nonempty at termination only
    /// for BoundedArb, whose output is not maximal).
    pub fn is_active(&self, v: NodeId) -> bool {
        self.active.contains(v)
    }

    /// Bad-set mask (BoundedArb's exiled nodes).
    pub fn bad(&self) -> &BitMask {
        &self.bad
    }

    /// Current number of active nodes (the frontier size).
    pub fn active_count(&self) -> usize {
        self.active_count
    }

    /// The active set as a mask.
    pub(crate) fn active_mask(&self) -> Vec<bool> {
        self.active.mask().to_bools()
    }

    /// Largest active degree over active nodes, 0 when none is active.
    /// Reads exact degrees only: at round 0 of Luby or BoundedArb, or
    /// after a BoundedArb scale end.
    pub(crate) fn max_active_degree(&self) -> usize {
        self.debug_assert_degrees_exact();
        self.active
            .iter()
            .map(|p| self.active_deg[p] as usize)
            .max()
            .unwrap_or(0)
    }

    /// Largest number of active neighbors with active degree above
    /// `threshold`, over active nodes — the Invariant's worst surviving
    /// high-degree count. Same exactness requirement as
    /// [`max_active_degree`](Self::max_active_degree).
    pub(crate) fn max_high_degree_neighbors(&self, threshold: f64) -> usize {
        self.debug_assert_degrees_exact();
        self.active
            .iter()
            .map(|p| {
                high_degree_neighbors(self.g, self.active.mask(), &self.active_deg, p, threshold)
            })
            .max()
            .unwrap_or(0)
    }

    /// [`max_active_degree`](Self::max_active_degree) from stored degrees
    /// that may be upper bounds: a node's degree is recounted from its
    /// adjacency only when its stored bound beats the best exact degree
    /// so far, and the recount replaces the bound.
    pub(crate) fn exact_max_active_degree(&mut self) -> usize {
        if self.deg_exact {
            return self.max_active_degree();
        }
        let g = self.g;
        let Self {
            active, active_deg, ..
        } = self;
        let mask = active.mask();
        let mut best = 0;
        for p in active.iter() {
            if active_deg[p] > best {
                active_deg[p] = active_degree(g, mask, p);
                best = best.max(active_deg[p]);
            }
        }
        best as usize
    }

    /// Removes the active nodes whose active degree exceeds `threshold`
    /// from the active set and returns them, ascending. Reads exact
    /// degrees unless the threshold is infinite. Neighbors' stored
    /// degrees are not decremented, so they stay upper bounds if the
    /// nodes come back through
    /// [`activate_undominated`](Self::activate_undominated).
    pub(crate) fn take_active_above(&mut self, threshold: f64) -> Vec<NodeId> {
        if threshold.is_infinite() {
            return Vec::new();
        }
        self.debug_assert_degrees_exact();
        let taken: Vec<NodeId> = self
            .active
            .iter()
            .filter(|&p| f64::from(self.active_deg[p]) > threshold)
            .collect();
        for &p in &taken {
            self.active.remove(p);
        }
        self.active_count -= taken.len();
        self.deg_exact &= taken.is_empty();
        taken
    }

    /// Returns to the active set each node of `nodes` (all inactive)
    /// that is not in the MIS and has no MIS neighbor.
    pub(crate) fn activate_undominated(&mut self, nodes: &[NodeId]) {
        for &v in nodes {
            debug_assert!(!self.active.contains(v));
            if !self.in_mis.test(v) && self.g.neighbors(v).iter().all(|u| !self.in_mis.test(u)) {
                self.active.insert(v);
                self.active_count += 1;
            }
        }
    }

    /// Degree reads need exact stored degrees, or nothing active to read.
    fn debug_assert_degrees_exact(&self) {
        debug_assert!(
            self.deg_exact || self.active_count == 0,
            "active degrees read while they are only upper bounds"
        );
    }

    /// Whether an iteration starting now could decide anything: some node
    /// is active and, under degree reduction, some node is high.
    fn has_competitors(&self) -> bool {
        match self.algo {
            FlatAlgo::DegreeReduction { .. } => !self.high.is_empty(),
            _ => self.active_count > 0,
        }
    }

    /// Steps whole Luby/Métivier/Ghaffari/degree-reduction iterations
    /// (announce, decide, exit) from an iteration boundary until no node
    /// competes or `max` iterations ran, and returns how many ran. The
    /// closing all-halt round of a full run is never executed: it decides
    /// nothing.
    pub(crate) fn run_iterations(&mut self, max: u64) -> u64 {
        debug_assert!(matches!(
            backend::slot(&self.algo, self.round),
            Slot::Announce { .. }
        ));
        let mut iterations = 0;
        while iterations < max && self.has_competitors() {
            self.advance_rounds(backend::schedule_rounds(1, 0));
            iterations += 1;
        }
        iterations
    }

    /// Runs whole iterations until no node competes, at most
    /// [`iteration_cap`] of them, and returns how many ran.
    ///
    /// # Panics
    ///
    /// If nodes still compete after the cap, in every build: the engine
    /// stopped making progress, and going on would hang the driver.
    pub(crate) fn run_to_completion(&mut self) -> u64 {
        let cap = iteration_cap(self.g.n());
        let iterations = self.run_iterations(cap);
        assert!(
            !self.has_competitors(),
            "{:?} still has active nodes after its cap of {cap} iterations \
             (active count {}): the engine stopped making progress",
            self.algo,
            self.active_count
        );
        iterations
    }

    /// Runs to completion ([`run_to_completion`](Self::run_to_completion))
    /// and reports the iterations in schedule rounds, without the closing
    /// halt round.
    pub(crate) fn into_mis_run(mut self) -> MisRun {
        let iterations = self.run_to_completion();
        let rounds = backend::schedule_rounds(iterations, 0);
        MisRun::new(self.in_mis.to_bools(), iterations, rounds)
    }

    /// Executes `rounds` rounds.
    pub(crate) fn advance_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.advance();
        }
    }

    /// Alloc-free rewind to round 0.
    fn reset(&mut self) {
        let n = self.g.n();
        match &self.region {
            None => self.active.fill(),
            Some(region) => {
                self.active.clear();
                for v in region.iter() {
                    self.active.insert(v);
                }
            }
        }
        self.active_count = self.region.as_ref().map_or(n, BitMask::count_ones);
        self.in_mis.clear_all();
        self.bad.clear_all();
        self.marked.clear_all();
        self.removals.clear();
        // Every desire starts at 1/2; each mark sweep writes the active
        // nodes' coin words.
        self.exponent.fill(1);
        self.coins.fill(ghaffari::INACTIVE);
        // Algorithms that read degrees start from the full-graph degrees:
        // exact on a full start, upper bounds on a region. Métivier and
        // Ghaffari never read degrees.
        self.deg_exact = false;
        if !matches!(self.algo, FlatAlgo::Metivier | FlatAlgo::Ghaffari) {
            for (p, d) in self.active_deg.iter_mut().enumerate() {
                *d = self.g.degree(p) as u32;
            }
            self.deg_exact = self.region.is_none();
        }
        self.begin_phase();
        // `active_deg` is left stale when the protocol never reads it.
    }

    /// Round 0 of the current algorithm on the current active set: the
    /// per-phase state [`reset`](Self::reset) and
    /// [`switch_algo`](Self::switch_algo) share. No algorithm tracks
    /// degrees at round 0 (BoundedArb decides per scale whether to);
    /// degree reduction collects its high nodes.
    fn begin_phase(&mut self) {
        self.round = 0;
        self.obs_flushed = false;
        self.unfinished = self.active_count;
        self.wins.clear();
        self.joiners.clear();
        self.track_deg = false;
        self.high.clear();
        if let FlatAlgo::DegreeReduction { target } = self.algo {
            let deg = &self.active_deg;
            self.high
                .extend(self.active.iter().filter(|&p| f64::from(deg[p]) > target));
            self.refresh_high(target);
        }
    }

    /// Keeps the high nodes that are still active and still above
    /// `target`, recounting each one's active degree from its adjacency
    /// unless stored degrees are exact: O(Σ deg(high)). Stored degrees
    /// never rise, so a node dropped here never becomes high again.
    fn refresh_high(&mut self, target: f64) {
        let g = self.g;
        let Self {
            active,
            active_deg,
            high,
            deg_exact,
            ..
        } = self;
        let mask = active.mask();
        high.retain(|&p| {
            if !mask.test(p) {
                return false;
            }
            if !*deg_exact {
                active_deg[p] = active_degree(g, mask, p);
            }
            f64::from(active_deg[p]) > target
        });
    }

    /// Recounts the exact active degree of every active node.
    fn recount_degrees(&mut self) {
        let g = self.g;
        let Self {
            active, active_deg, ..
        } = self;
        let mask = active.mask();
        for p in active.iter() {
            active_deg[p] = active_degree(g, mask, p);
        }
        self.deg_exact = true;
    }

    /// BoundedArb scale start. A scale reads active degrees only through
    /// the ρ_k opt-out, and stored degrees never rise, so when no stored
    /// degree exceeds ρ_k (or the cutoff is off) no node opts out all
    /// scale and the scale runs without degree upkeep. Otherwise the
    /// degrees are made exact and kept exact for the scale.
    fn start_arb_scale(&mut self, rho: Option<f64>) {
        let active_deg = &self.active_deg;
        self.track_deg =
            rho.is_some_and(|r| self.active.iter().any(|p| f64::from(active_deg[p]) > r));
        if self.track_deg && !self.deg_exact {
            self.recount_degrees();
        }
    }

    /// Announce-type round: nodes deactivated since the previous one
    /// halt here (the simulator's `process_exits`-then-`Halt`), and every
    /// node halts once no iteration could decide anything (for degree
    /// reduction, once no node is high).
    fn halt_inactive(&mut self) {
        self.unfinished = if self.has_competitors() {
            self.active_count
        } else {
            0
        };
    }

    /// Node and XOR mask of the injected coin flip aimed at iteration
    /// `iter`, if its node is active.
    fn active_flip(&self, iter: u64) -> Option<(NodeId, u64)> {
        let f = self
            .coin_flip
            .filter(|f| f.iteration == iter && f.node < self.g.n())?;
        self.active.contains(f.node).then_some((f.node, f.xor))
    }

    /// Toggles Luby's mark bit of node `pos`.
    fn toggle_mark(&mut self, pos: NodeId) {
        if self.marked.test(pos) {
            self.marked.clear(pos);
        } else {
            self.marked.set(pos);
        }
    }

    /// The coins of a priority decide at iteration `iter` under `tag`,
    /// keyed by node id (or rank). `rho` is ρ_k while BoundedArb's
    /// opt-out can fire; `None` draws unconditionally.
    fn coins(&self, tag: u64, iter: u64, rho: Option<f64>) -> Coins<'_> {
        Coins {
            seed: self.seed,
            iter,
            tag,
            shift: self.prio_shift,
            ranks: self.ranks.as_ref(),
            opt_out: rho.map(|r| (&self.active_deg[..], r)),
            flip: self.active_flip(iter),
        }
    }

    /// Runs one [`WinScan`], which `scan` builds from the engine and the
    /// scratch it is lent: the loser mask, the chunk buffers, and `wins`,
    /// which receives the winners. Every scan leaves the loser mask
    /// all-zero (debug builds check it), since each node a chunk marks is
    /// one its walk visits.
    fn win_scan(&mut self, scan: impl FnOnce(&Self, Lent<'_>)) {
        let mut losers = std::mem::take(&mut self.losers);
        let mut bufs = std::mem::take(&mut self.chunk_bufs);
        let mut wins = std::mem::take(&mut self.wins);
        let lent = Lent {
            losers: &mut losers,
            bufs: &mut bufs,
            wins: &mut wins,
        };
        scan(self, lent);
        debug_assert!(
            losers.words().iter().all(|&w| w == 0),
            "a win scan left loser marks behind"
        );
        self.losers = losers;
        self.chunk_bufs = bufs;
        self.wins = wins;
    }

    /// A priority decide over the active set: Métivier's, or
    /// BoundedArb's with `rho`. The [`WinScan`] walks [`Every`] active
    /// node and every active neighbor competes, each keyed by its
    /// priority. Priority 0 (the ρ_k opt-out) never wins; Métivier
    /// priorities are never 0 (the low bit is forced), so the same scan
    /// serves both protocols.
    ///
    /// Each check is a short-circuiting `all` scan: with i.i.d.
    /// priorities, a node expects to find a beating neighbor within a
    /// couple of probes, so per-node work is far below `deg(p)` — this
    /// beats any full-per-edge scheme. A probe draws the neighbor's
    /// priority on the spot: at 10⁶ nodes and beyond, one hash is
    /// cheaper than a random read of a stored priority array, and no
    /// fill sweep runs first.
    ///
    /// An edge is not always read from both sides. When `p` beats a
    /// probed higher-id neighbor `u`, `u` gets a loser bit, and the walk
    /// reaching `u` clears it and moves on: no draw for `u`, no probes.
    /// The set of winners is unchanged, since `u` cannot be a local
    /// maximum. Marks stay chunk-local (a chunk writes only its own
    /// words of `losers`, through [`shards`]), so every chunk still
    /// decides its own nodes from read-only shared state, and the
    /// winners are the same at every thread count.
    fn prio_decide(&mut self, tag: u64, iter: u64, rho: Option<f64>) {
        self.win_scan(|b, lent| {
            let mask = b.active.mask();
            b.coins(tag, iter, rho)
                .sweep(lent.scan(b, Every, |u| mask.test(u)));
        });
    }

    /// Degree-reduction decide: the high nodes and their active
    /// neighbors compete, each drawing Métivier's priority, and a
    /// competitor wins when its `(priority, id)` beats every competing
    /// neighbor's. Non-competitors neither draw nor block. The
    /// competitors are marked in `marked`, a subset of the active set,
    /// and the [`WinScan`] walks only their words (`&marked`) and counts
    /// only them as competing neighbors, so it runs chunked on the
    /// thread pool like the priority decide and skips competitors a
    /// lower-id competitor already beat. Work is O(Σ deg(high)) to mark
    /// plus the competitors' win checks.
    fn decide_degree_reduction(&mut self, iter: u64) {
        let g = self.g;
        let Self {
            active,
            marked,
            high,
            ..
        } = self;
        marked.clear_all();
        for &h in high.iter() {
            marked.set(h);
            for u in g.neighbors(h) {
                if active.contains(u) {
                    marked.set(u);
                }
            }
        }
        self.win_scan(|b, lent| {
            let marked = &b.marked;
            b.coins(metivier::TAG_PRIORITY, iter, None)
                .sweep(lent.scan(b, marked, |u| marked.test(u)));
        });
    }

    /// Luby decide: marked with `P = 1/2d`, `(degree, id)`-maximal among
    /// marked active neighbors; degree-0 nodes join outright.
    ///
    /// The mark sweep writes every mark bit from its draw, without a
    /// branch on the coin, and marks every degree-0 node (`1/(2·0)` is
    /// `+∞`). The [`WinScan`] then walks only the words of
    /// `active & marked` (`&marked`), so it never visits an unmarked
    /// node, and counts a neighbor as competing when it is active and
    /// marked, keyed by `active_deg + 1`. The key is never 0, so a
    /// degree-0 node, which the walk reaches and no neighbor blocks,
    /// wins; and it orders nodes as `(degree, id)` does. Like the
    /// priority decide, the scan skips a node that a lower-id marked
    /// neighbor already beat: it cannot be a local maximum.
    ///
    /// Degrees are pulled, not pushed: unless they are already exact (a
    /// full start before any exit, where `reset` stored `g.degree`), the
    /// mark sweep counts each active node's active neighbors from the
    /// active mask and stores the count before drawing the mark, so the
    /// count runs on every worker. Phase 2, the coin-flip hook and the
    /// degree-0 rule then read this iteration's exact degrees, and the
    /// exit does no decrements. Per iteration the count reads each active
    /// node's CSR row in ascending order and tests its neighbors in the
    /// `n/8`-byte active mask. The active set shrinks geometrically in
    /// expectation (Luby removes a constant fraction of the active edges
    /// per iteration), so over a run this is a small multiple of m
    /// reads, against the push's 2m random decrements into the `4n`-byte
    /// degree array plus a random row fetch per removed node.
    fn decide_luby(&mut self, iter: u64) {
        let g = self.g;
        let seed = self.seed;
        // Phase 1: active degrees, then mark flips.
        let count = !self.deg_exact;
        {
            let Self {
                active,
                active_deg,
                marked,
                threads,
                ..
            } = self;
            let mask = active.mask();
            let mut degs = shards(active_deg, 64);
            let mut marks = shards(marked.words_mut(), 1);
            let shard = |wlo, whi| (degs(wlo, whi), marks(wlo, whi));
            walk(active, Every, *threads, shard, |(deg, marks), p| {
                if count {
                    deg[p] = active_degree(g, mask, p);
                }
                // Degree 0 always marks, so the win scan reaches it.
                let marked = luby::is_marked(seed, p, iter, deg[p] as usize);
                let (word, bit) = (&mut marks[p >> 6], p & 63);
                *word = (*word & !(1 << bit)) | (u64::from(marked) << bit);
            });
        }
        self.deg_exact = true;
        if let Some((pos, xor)) = self.active_flip(iter) {
            if xor != 0 && self.active_deg[pos] > 0 {
                self.toggle_mark(pos);
            }
        }
        // Phase 2: competition among marked nodes, the only ones walked.
        self.win_scan(|b, lent| {
            let (mask, marked, deg) = (b.active.mask(), &b.marked, &b.active_deg[..]);
            lent.scan(b, marked, |u| mask.test(u) && marked.test(u))
                .run(&|v| u64::from(deg[v]) + 1);
        });
    }

    /// Ghaffari decide, serial at every thread count. The mark sweep
    /// draws each active node's mark at its desire exponent and writes
    /// both into the node's coin word, without a branch on the mark; an
    /// injected flip toggles the mark bit. The pull records the winners
    /// (marked, no marked neighbor) and computes each active node's next
    /// exponent from its pre-removal active neighborhood, in place: it
    /// reads neighbors only through their coin words. Per neighbor it
    /// adds the word's desire and ORs in its mark, with no activity
    /// test, since an inactive node's word has no mark and desire +0.0
    /// (adding it leaves the sum's bits unchanged). The effective degree
    /// is summed in ascending neighbor id, the order of the simulator's
    /// inbox, so the floating-point sum and every comparison with 2 come
    /// out as the CONGEST protocol's do.
    fn decide_ghaffari(&mut self, iter: u64) {
        let seed = self.seed;
        let Self {
            active,
            exponent,
            coins,
            ..
        } = self;
        active.iter().for_each(|p| {
            let marked = ghaffari::is_marked(seed, p, iter, exponent[p]);
            coins[p] = exponent[p] | (u32::from(marked) << 31);
        });
        if let Some((pos, xor)) = self.active_flip(iter) {
            if xor != 0 {
                self.coins[pos] ^= ghaffari::MARK;
            }
        }
        let g = self.g;
        let Self {
            active,
            exponent,
            coins,
            wins,
            ..
        } = self;
        wins.clear();
        active.iter().for_each(|p| {
            let mut d = 0.0;
            let mut marks = 0;
            for u in g.neighbors(p) {
                let coin = coins[u];
                d += ghaffari::coin_desire(coin);
                marks |= coin;
            }
            if coins[p] & !marks & ghaffari::MARK != 0 {
                wins.push(p);
            }
            exponent[p] = ghaffari::next_exponent(exponent[p], d);
        });
    }

    /// The rest of Ghaffari's exit: every node the exit removed, a winner
    /// or a winner's neighbor, gets the inactive coin word. A neighbor
    /// that was inactive already has it. Kept out of line: inlined into
    /// [`advance`](Self::advance), it slowed degree reduction's rounds on
    /// a 10⁶-node 3-tree from 8.0 to 8.5 ms (traced benchmark passes).
    #[inline(never)]
    fn retire_coins(&mut self) {
        let g = self.g;
        for &w in &self.wins {
            self.coins[w] = ghaffari::INACTIVE;
            for u in g.neighbors(w) {
                self.coins[u] = ghaffari::INACTIVE;
            }
        }
    }

    /// Exit round: winners join the MIS; winners and their dominated
    /// active neighbors leave the active set. The winners, already
    /// ascending, are the round's joiners.
    ///
    /// # Panics
    ///
    /// If a winner is not active, in every build: the exit is applying
    /// winners that some earlier exit already removed, so the round
    /// timeline slipped. Going on would leave `active_count` wrong and
    /// the drivers looping.
    fn exit_step(&mut self) {
        let g = self.g;
        let Self {
            active,
            active_count,
            active_deg,
            in_mis,
            track_deg,
            deg_exact,
            wins,
            joiners,
            ..
        } = self;
        let track_deg = *track_deg;
        for &w in wins.iter() {
            in_mis.set(w);
            assert!(
                deactivate_in(g, active, active_count, active_deg, track_deg, w),
                "exit of winner node {w}, which is not active: the round timeline slipped"
            );
            for u in g.neighbors(w) {
                deactivate_in(g, active, active_count, active_deg, track_deg, u);
            }
        }
        *deg_exact &= track_deg || wins.is_empty();
        joiners.clear();
        joiners.extend_from_slice(wins);
    }

    /// Scale-end bad exits: a node with too many high-degree active
    /// neighbors is exiled to the bad set. Violators are collected from
    /// a consistent snapshot before any of them is removed, matching the
    /// protocol (every node judges the degrees announced one round
    /// earlier).
    fn bad_exits(&mut self, params: &ArbParams, scale: u32) {
        if !self.deg_exact {
            self.recount_degrees();
        }
        let g = self.g;
        let hd = params.high_degree_threshold(scale);
        let bad_thr = params.bad_threshold(scale);
        let Self {
            active,
            active_count,
            active_deg,
            bad,
            threads,
            chunk_bufs,
            removals,
            ..
        } = self;
        let (mask, deg) = (active.mask(), &active_deg[..]);
        collect(
            active,
            Every,
            *threads,
            chunk_bufs,
            removals,
            |_, _| (),
            |(), p| high_degree_neighbors(g, mask, deg, p, hd) as f64 > bad_thr,
        );
        for &p in removals.iter() {
            bad.set(p);
            // Always decrement: the trace and the headroom gauge read
            // exact degrees after the scale end.
            let removed = deactivate_in(g, active, active_count, active_deg, true, p);
            debug_assert!(removed, "bad-exit violators are active");
        }
    }

    /// Executes one CONGEST round (the infallible body of
    /// [`MisBackend::step_round`]).
    fn advance(&mut self) {
        debug_assert!(!self.is_done(), "step_round called after completion");
        let entering = self.active_count;
        if self.recorder.enabled() {
            self.recorder
                .observe("flat_round_frontier", entering as u64);
        }
        // Coin digest of the round about to execute (needs the active
        // set *entering* the round). Pure RNG replay — observation only.
        let coin_digest = if self.flight.enabled() {
            backend::coin_digest(
                &self.algo,
                self.seed,
                self.g.n(),
                self.round,
                |v| self.is_active(v),
                self.coin_flip,
            )
        } else {
            0
        };
        self.joiners.clear();
        match (backend::slot(&self.algo, self.round), self.algo) {
            (
                Slot::Announce {
                    scale,
                    scale_start: true,
                    ..
                },
                FlatAlgo::BoundedArb { params, rho_cutoff },
            ) => {
                self.start_arb_scale(rho_cutoff.then(|| params.rho(scale)));
                self.halt_inactive();
            }
            (Slot::Announce { .. } | Slot::DegreeExchange, _) => self.halt_inactive(),
            (Slot::Decide { iter, .. }, FlatAlgo::Luby) => self.decide_luby(iter),
            (Slot::Decide { iter, .. }, FlatAlgo::Metivier) => {
                self.prio_decide(metivier::TAG_PRIORITY, iter, None)
            }
            (Slot::Decide { iter, .. }, FlatAlgo::Ghaffari) => self.decide_ghaffari(iter),
            (Slot::Decide { iter, .. }, FlatAlgo::DegreeReduction { .. }) => {
                self.decide_degree_reduction(iter)
            }
            (Slot::Decide { iter, scale }, FlatAlgo::BoundedArb { params, .. }) => {
                // Métivier with priority 0 (the opt-out) above ρ_k. The
                // opt-out is evaluated only while degrees are tracked:
                // otherwise no stored degree exceeded ρ_k at the scale
                // start, and stored degrees never rise.
                let rho = self.track_deg.then(|| params.rho(scale));
                self.prio_decide(bounded_arb::TAG_PRIORITY, iter, rho)
            }
            (Slot::Exit, algo) => {
                self.exit_step();
                match algo {
                    FlatAlgo::DegreeReduction { target } => self.refresh_high(target),
                    FlatAlgo::Ghaffari => self.retire_coins(),
                    _ => {}
                }
            }
            (Slot::BadExit { scale }, FlatAlgo::BoundedArb { params, .. }) => {
                self.bad_exits(&params, scale)
            }
            (Slot::BadExit { .. }, _) => unreachable!("only BoundedArb has scale ends"),
            (Slot::End, _) => self.unfinished = 0,
        }
        self.round += 1;
        if self.flight.enabled() {
            self.flight.record(RoundRecord {
                engine: "flat",
                round: self.round - 1,
                frontier: entering as u64,
                joiners: self.joiners.len() as u64,
                joiner_digest: backend::joiner_digest(&self.joiners),
                coin_digest,
                messages: 0,
                bits: 0,
                scan: "frontier",
                span_seq: self.recorder.seq(),
            });
        }
        if self.unfinished == 0 && !self.obs_flushed {
            self.obs_flushed = true;
            if self.recorder.enabled() {
                self.recorder.add("flat_runs", 1);
                self.recorder.add("flat_rounds", self.round);
            }
        }
    }
}

impl MisBackend for FlatBackend<'_> {
    fn init(&mut self) {
        self.reset();
    }

    fn step_round(&mut self) -> Result<(), BackendError> {
        self.advance();
        Ok(())
    }

    fn joiners(&self) -> &[NodeId] {
        &self.joiners
    }

    fn is_done(&self) -> bool {
        self.unfinished == 0
    }

    fn mis(&self) -> &BitMask {
        &self.in_mis
    }

    fn round(&self) -> u64 {
        self.round
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Rank by definition: the members of `set` below `v`.
    fn naive_rank(set: &[bool], v: NodeId) -> NodeId {
        set[..v].iter().filter(|&&b| b).count()
    }

    fn index_ranks(set: &[bool]) -> Vec<NodeId> {
        let index = RankIndex::new(&BitMask::from_bools(set));
        (0..set.len()).map(|v| index.rank(v)).collect()
    }

    fn naive_ranks(set: &[bool]) -> Vec<NodeId> {
        (0..set.len()).map(|v| naive_rank(set, v)).collect()
    }

    #[test]
    fn rank_index_matches_naive_rank_at_word_edges() {
        for n in [0, 1, 63, 64, 65, 127, 128, 200] {
            let ends: Vec<bool> = (0..n).map(|v| matches!(v & 63, 0 | 63)).collect();
            let inner: Vec<bool> = ends.iter().map(|&b| !b).collect();
            for set in [vec![false; n], vec![true; n], ends, inner] {
                assert_eq!(index_ranks(&set), naive_ranks(&set), "{set:?}");
            }
        }
    }

    /// An exit that applies winners a previous exit already removed (a
    /// slipped round timeline) panics in every build, naming the node,
    /// instead of corrupting the active count.
    #[test]
    fn a_repeated_exit_panics_naming_the_winner() {
        let g = arbmis_graph::gen::path(9);
        let mut b = FlatBackend::unobserved(&g, 5, FlatAlgo::Metivier);
        b.advance_rounds(2); // announce, decide
        let first = *b.wins.first().expect("a path has a local maximum");
        b.exit_step();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.exit_step()))
            .expect_err("the second exit must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(
            msg.contains(&format!("winner node {first},")),
            "message names another node: {msg}"
        );
    }

    proptest! {
        #[test]
        fn rank_index_matches_naive_rank(bits in proptest::collection::vec(0u8..2, 0..300)) {
            let set: Vec<bool> = bits.iter().map(|&b| b == 1).collect();
            prop_assert_eq!(index_ranks(&set), naive_ranks(&set));
        }
    }
}
