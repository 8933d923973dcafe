//! The incremental, arena-backed max-min allocation engine.
//!
//! [`crate::allocator::max_min_allocate`] is the *reference* allocator:
//! given the full flow set it re-resolves every subpath's hops to directed
//! channels (one `HashMap` probe per hop) and allocates fresh vectors for
//! every piece of working state — on **every** call. The flow-level event
//! loop calls the allocator on every arrival and departure, so the
//! reference formulation costs `O(events × flows × hops)` repeated path
//! resolution plus thousands of heap allocations per event.
//!
//! [`AllocEngine`] is the production engine the simulator uses instead:
//!
//! * [`FlowPaths`] — an arena that resolves each flow's preference-ordered
//!   subpaths to flat directed-channel index slices (`Vec<u32>` + offsets)
//!   **once at flow arrival**, via the O(1) dense adjacency table
//!   ([`inrpp_topology::dense::DenseChannels`]). Departed flows return
//!   their slot (and its buffers) to a free list, so steady-state churn
//!   allocates nothing.
//! * [`AllocatorScratch`] — the progressive-filling working state
//!   (residuals, per-channel flow counts, frozen flags, subpath cursors)
//!   held across events and reused, so a re-allocation touches only
//!   pre-sized flat arrays.
//! * An active set sorted by caller key (the simulator uses flow ids), so
//!   iteration order — and therefore every floating-point operation —
//!   matches the reference allocator fed the same flows in the same
//!   order.
//!
//! **Exactness contract:** for any active set, [`AllocEngine::allocate`]
//! produces bit-identical `flow_rates`, `subpath_rates`, `dir_used` and
//! filling rounds to the reference allocator. A filling round costs
//! about one operation per channel in use plus the re-selections, yet
//! every floating-point value is the reference's:
//!
//! * **`δ`** is `min(residual / count)` over the channels in use. The
//!   minimum does not depend on scan order, and division is correctly
//!   rounded, so dividing by a count of 1 or 2ᵏ needs no shortcut.
//! * **Residuals.** The reference subtracts `δ` from `residual[d]` once
//!   per flow on channel `d`; all `count[d]` subtractions of a round use
//!   the same `δ`. A closed form (`repeated_sub`) gives that chain's
//!   exact bits: inside one binade every step after the first subtracts
//!   the same multiple of the ulp, exactly. A chain that leaves the
//!   binade runs the scalar loop.
//! * **Subpath rates.** The reference adds `δ` to a flow's preferred
//!   subpath in every round the flow is unfrozen. Preference cursors only
//!   advance, so a subpath is preferred over one run of consecutive
//!   rounds, and its rate is the left fold from `0.0` of those rounds'
//!   `δ`s. The engine records each `δ` (and the running sum from round 1)
//!   and writes each rate once, when the flow leaves the subpath or the
//!   loop ends.
//! * **Saturation** is `residual <= 0.0`: residuals start at capacity
//!   and are clamped to exactly `0.0` once they fall to `capacity·ε`, so
//!   this equals the reference's `residual <= capacity·ε` test.
//! * **Re-selection** starts from the flow's current cursor and runs only
//!   for flows on newly saturated channels. That is sound because
//!   saturation is monotone within one allocation, so subpaths once
//!   skipped stay skipped, and a preference changes only when its subpath
//!   loses a channel.
//!
//! The contract is gated by unit tests here (the closed form against the
//! scalar loop over 10⁷ seeded cases), the reference-equivalence property
//! test in `tests/properties.rs`, and the Fig. 4a-scale replay in
//! `tests/allocator_oracle.rs`.

use inrpp_topology::dense::DenseChannels;
use inrpp_topology::graph::Topology;
use inrpp_topology::spath::Path;

use crate::allocator::{UnresolvedHop, MAX_ROUNDS, REL_EPS};

/// One flow's resolved subpaths inside the [`FlowPaths`] arena.
#[derive(Debug, Clone, Default)]
struct SlotData {
    /// Directed-channel indices of every subpath, concatenated.
    dirs: Vec<u32>,
    /// Exclusive end offset of each subpath within `dirs`.
    ends: Vec<u32>,
}

impl SlotData {
    /// Channel slice of subpath `i`.
    #[inline]
    fn subpath(&self, i: usize) -> &[u32] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.dirs[start..self.ends[i] as usize]
    }

    /// Number of subpaths.
    #[inline]
    fn len(&self) -> usize {
        self.ends.len()
    }
}

/// Arena of per-flow resolved subpaths: flat `Vec<u32>` channel slices
/// plus offsets, filled once at flow arrival through an O(1) dense
/// adjacency lookup and recycled through a slot free list.
#[derive(Debug)]
pub struct FlowPaths {
    dense: DenseChannels,
    slots: Vec<SlotData>,
    free: Vec<u32>,
}

impl FlowPaths {
    /// An empty arena resolving against `topo`.
    pub fn new(topo: &Topology) -> Self {
        FlowPaths {
            dense: DenseChannels::build(topo),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Resolve `paths` into a fresh (or recycled) slot and return its id.
    /// On an unresolvable hop nothing is retained and the typed error
    /// names the offending node pair.
    pub fn insert(&mut self, paths: &[Path]) -> Result<u32, UnresolvedHop> {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(SlotData::default());
                (self.slots.len() - 1) as u32
            }
        };
        let data = &mut self.slots[slot as usize];
        data.dirs.clear();
        data.ends.clear();
        for p in paths {
            for w in p.nodes().windows(2) {
                match self.dense.dir_index(w[0], w[1]) {
                    Some(d) => data.dirs.push(d),
                    None => {
                        data.dirs.clear();
                        data.ends.clear();
                        self.free.push(slot);
                        return Err(UnresolvedHop {
                            from: w[0],
                            to: w[1],
                        });
                    }
                }
            }
            data.ends.push(data.dirs.len() as u32);
        }
        Ok(slot)
    }

    /// Release `slot` back to the free list (its buffers keep their
    /// capacity for the next flow).
    pub fn remove(&mut self, slot: u32) {
        let data = &mut self.slots[slot as usize];
        data.dirs.clear();
        data.ends.clear();
        self.free.push(slot);
    }

    /// Slots currently allocated (live + free), i.e. the arena footprint.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// Reusable progressive-filling working state, held by the engine across
/// events so re-allocations are allocation-free in steady state.
#[derive(Debug)]
pub struct AllocatorScratch {
    /// Effective capacity per directed channel: base scaled by the current
    /// fault factor (0 while the link is down).
    caps: Vec<f64>,
    /// Undegraded capacity per directed channel (fixed per topology).
    base_caps: Vec<f64>,
    /// Remaining capacity per directed channel.
    residual: Vec<f64>,
    /// Occurrences of each directed channel across unfrozen flows'
    /// preferred subpaths, maintained incrementally across rounds.
    count: Vec<u32>,
    /// Per active position: no subpath with headroom left.
    frozen: Vec<bool>,
    /// Per active position: cursor into the subpath preference order.
    preferred: Vec<u32>,
    /// Per channel: `(position, subpath)` of every selection routed
    /// through it. An entry is stale once its flow has moved on (frozen,
    /// or preferring a later subpath); the rescan skips those. Drives the
    /// targeted re-selection: only flows on a newly saturated channel can
    /// change preference.
    on_channel: Vec<Vec<(u32, u32)>>,
    /// Per active position: the first filling round whose `δ` its
    /// preferred subpath receives (1 for the initial selection).
    since: Vec<u32>,
    /// `δ` of every filling round so far, in round order.
    deltas: Vec<f64>,
    /// `prefix[k]` = `δ₁ + … + δₖ` summed left to right from `0.0` — the
    /// exact rate of a subpath preferred from round 1 through round `k`.
    prefix: Vec<f64>,
    /// Channels saturated by the current round.
    newly_sat: Vec<u32>,
    /// Channels with `count > 0` (zero-count entries are swept out after
    /// each round's rescans). The per-round scans iterate this instead
    /// of every channel — late rounds have few flows left.
    in_use: Vec<u32>,
    /// Membership flag for `in_use` (prevents duplicate entries when a
    /// channel's count returns to zero and climbs again).
    in_list: Vec<bool>,
    /// Spare buffer rotated through `on_channel` entries during rescans.
    rescan_buf: Vec<(u32, u32)>,
}

impl AllocatorScratch {
    fn new(topo: &Topology) -> Self {
        let mut caps = Vec::with_capacity(topo.link_count() * 2);
        for l in topo.link_ids() {
            let c = topo.link(l).capacity.as_bps();
            caps.push(c);
            caps.push(c);
        }
        AllocatorScratch {
            residual: vec![0.0; caps.len()],
            count: vec![0; caps.len()],
            on_channel: vec![Vec::new(); caps.len()],
            in_list: vec![false; caps.len()],
            base_caps: caps.clone(),
            caps,
            frozen: Vec::new(),
            preferred: Vec::new(),
            since: Vec::new(),
            deltas: Vec::new(),
            prefix: Vec::new(),
            newly_sat: Vec::new(),
            in_use: Vec::new(),
            rescan_buf: Vec::new(),
        }
    }

    /// True when channel `d` has no headroom left. Equal to the
    /// reference's `residual <= caps·REL_EPS` wherever it is asked: a
    /// residual starts at `caps` (above `caps·ε` when `caps > 0`, and `0`
    /// when `caps == 0`), and each round either leaves it above `caps·ε`
    /// or clamps it to exactly `0.0`.
    #[inline]
    fn saturated(&self, d: usize) -> bool {
        self.residual[d] <= 0.0
    }

    /// Set both directions of `link` to `factor` of base capacity; `0`
    /// means the link is down (flows through it freeze at rate 0, since a
    /// zero-capacity channel is saturated from the start of every fill).
    /// Takes effect at the next [`AllocEngine::allocate`] call.
    fn set_link_capacity_factor(&mut self, link: usize, factor: f64) {
        debug_assert!((0.0..=1.0).contains(&factor), "factor {factor}");
        for d in [2 * link, 2 * link + 1] {
            self.caps[d] = self.base_caps[d] * factor;
        }
    }

    /// Route flow `i` over the channels of its newly preferred subpath
    /// `p`: count it, list it for targeted re-selection, and make sure
    /// each channel is on the in-use scan list.
    #[inline]
    fn route(&mut self, data: &SlotData, i: usize, p: usize) {
        self.preferred[i] = p as u32;
        for &d in data.subpath(p) {
            let d = d as usize;
            self.count[d] += 1;
            self.on_channel[d].push((i as u32, p as u32));
            if !self.in_list[d] {
                self.in_list[d] = true;
                self.in_use.push(d as u32);
            }
        }
    }

    /// First subpath of `data` at or after cursor `from` whose channels
    /// all have headroom; `None` freezes the flow. Scanning from the
    /// cursor is sound because saturation is monotone within one
    /// allocation — everything before the cursor stayed saturated.
    #[inline]
    fn select_from(&self, data: &SlotData, from: usize) -> Option<usize> {
        (from..data.len()).find(|&p| !data.subpath(p).iter().any(|&d| self.saturated(d as usize)))
    }

    /// Rate of a subpath preferred from round `since` through round
    /// `upto`: `δ_since + … + δ_upto` summed left to right from `0.0`,
    /// the addition sequence the reference's per-round `+= δ` performs.
    #[inline]
    fn folded(&self, since: u32, upto: usize) -> f64 {
        if since == 1 {
            self.prefix[upto]
        } else {
            self.deltas
                .get(since as usize - 1..upto)
                .map_or(0.0, |ds| ds.iter().fold(0.0, |acc, &x| acc + x))
        }
    }

    /// Move flow `i` off its preferred subpath after round `round`
    /// saturated one of its channels, keeping `count`, `on_channel` and
    /// `in_use` in sync and writing the final rate of the subpath it
    /// leaves into `subs` (its slice of subpath rates). The next clean
    /// subpath becomes preferred; returns true when none is left and the
    /// flow froze.
    fn leave(&mut self, data: &SlotData, i: usize, round: usize, subs: &mut [f64]) -> bool {
        let p0 = self.preferred[i] as usize;
        subs[p0] = self.folded(self.since[i], round);
        for &d in data.subpath(p0) {
            self.count[d as usize] -= 1;
        }
        match self.select_from(data, p0 + 1) {
            Some(p) => {
                self.since[i] = round as u32 + 1;
                self.route(data, i, p);
                false
            }
            None => {
                self.frozen[i] = true;
                true
            }
        }
    }
}

/// Range of the flow at `pos` in the flat subpath-rate vector, given
/// each position's exclusive end offset.
#[inline]
fn sub_range(sub_ends: &[u32], pos: usize) -> std::ops::Range<usize> {
    let start = if pos == 0 {
        0
    } else {
        sub_ends[pos - 1] as usize
    };
    start..sub_ends[pos] as usize
}

/// Exponent bits of an `f64`: masking a positive normal `r` with them
/// gives the power of two at the bottom of its binade.
const EXP_MASK: u64 = 0x7ff0_0000_0000_0000;

/// `r` after `c` rounded subtractions of `delta` — bit for bit the value
/// of `for _ in 0..c { r -= delta }` — in O(1) unless the chain leaves
/// `r`'s binade. Requires `c >= 1` and `delta >= 0`.
///
/// Let `lo` be the power of two at the bottom of `r`'s binade and `u`
/// its ulp. While the exact difference `x − δ` of a step stays at or
/// above `lo`, the representable numbers nearest it are the multiples of
/// `u`, so the step subtracts `δ` rounded to a multiple of `u`, exactly.
/// Which multiple depends only on `δ`, except when `δ` lies exactly
/// halfway between two: then round-half-even picks the one that leaves
/// an even significand, so every step after the first subtracts the
/// same even multiple. Either way, every step after `x1 = r − δ`
/// subtracts the same `d = x1 − (x1 − δ)`. So:
///
/// * if `x1 ≥ lo` and `(x1 − (c−2)·d) − lo ≥ δ`, the last step — hence
///   every earlier one — stays in the binade, and the result is
///   `x1 − (c−1)·d`. Every operation in it is then exact: `d` and the
///   products are multiples of `u` below `lo`, the differences stay in
///   `[lo, 2·lo)` (Sterbenz). For `c == 1` the result is `x1` either way.
/// * if the check fails, either some step leaves the binade or the
///   product `(c−2)·d` rounds to at least `x1 − lo` — which happens only
///   when its exact value is that large — so the check is exact.
///
/// A chain that leaves the binade (the channel that saturates, or a
/// residual falling below a power of two) takes the scalar loop, as do
/// infinite and NaN values, which fail a comparison.
#[inline]
fn repeated_sub(r: f64, delta: f64, c: u32) -> f64 {
    debug_assert!(c >= 1 && delta >= 0.0, "c {c}, delta {delta}");
    let lo = f64::from_bits(r.to_bits() & EXP_MASK);
    let x1 = r - delta;
    let d = x1 - (x1 - delta);
    let n = f64::from(c);
    if x1 >= lo && (x1 - (n - 2.0) * d) - lo >= delta {
        return x1 - (n - 1.0) * d;
    }
    let mut x = r;
    for _ in 0..c {
        x -= delta;
    }
    x
}

/// The persistent allocation engine: flows enter at arrival
/// ([`AllocEngine::insert`]), leave at departure
/// ([`AllocEngine::remove`]), and [`AllocEngine::allocate`] recomputes
/// only the rate vectors — numerically identical to the reference
/// allocator run from scratch over the same active set.
///
/// ```
/// use inrpp_flowsim::engine::AllocEngine;
/// use inrpp_flowsim::allocator::max_min_allocate;
/// use inrpp_topology::{spath::Path, Topology};
///
/// let topo = Topology::fig3();
/// let n = |s: &str| topo.node_by_name(s).unwrap();
/// let mut eng = AllocEngine::new(&topo);
/// eng.insert(7, &[
///     Path::new(vec![n("1"), n("2"), n("4")]),
///     Path::new(vec![n("1"), n("2"), n("3"), n("4")]),
/// ]).unwrap();
/// eng.insert(9, &[Path::new(vec![n("1"), n("2"), n("3")])]).unwrap();
/// eng.allocate();
/// // identical to the paper's Fig. 3 INRPP outcome — and bit-identical
/// // to the reference allocator fed the same flows
/// assert!((eng.flow_rates()[0] - 5e6).abs() < 1.0);
/// assert!((eng.flow_rates()[1] - 5e6).abs() < 1.0);
/// ```
#[derive(Debug)]
pub struct AllocEngine {
    paths: FlowPaths,
    scratch: AllocatorScratch,
    /// Active flow keys, ascending — the canonical iteration order.
    keys: Vec<u64>,
    /// Arena slot per active position (parallel to `keys`).
    slots: Vec<u32>,
    // ---- outputs of the last `allocate()` ----------------------------
    flow_rates: Vec<f64>,
    sub_rates: Vec<f64>,
    /// Per position: exclusive end offset into `sub_rates`.
    sub_ends: Vec<u32>,
    dir_used: Vec<f64>,
    rounds: usize,
}

impl AllocEngine {
    /// A fresh engine for `topo` with an empty active set.
    pub fn new(topo: &Topology) -> Self {
        AllocEngine {
            paths: FlowPaths::new(topo),
            scratch: AllocatorScratch::new(topo),
            keys: Vec::new(),
            slots: Vec::new(),
            flow_rates: Vec::new(),
            sub_rates: Vec::new(),
            sub_ends: Vec::new(),
            dir_used: Vec::new(),
            rounds: 0,
        }
    }

    /// Number of active flows.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no flow is active.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Active flow keys, ascending; positions index the rate vectors.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Arena slot of the flow at `pos`.
    #[inline]
    pub fn slot_at(&self, pos: usize) -> usize {
        self.slots[pos] as usize
    }

    /// Admit a flow: resolve its preference-ordered subpaths into the
    /// arena once, keyed by `key` (must be unique among active flows).
    /// Returns the arena slot, which is stable until [`Self::remove`].
    ///
    /// # Panics
    /// Panics if `key` is already active.
    pub fn insert(&mut self, key: u64, paths: &[Path]) -> Result<usize, UnresolvedHop> {
        let idx = match self.keys.binary_search(&key) {
            Ok(_) => panic!("flow key {key} inserted twice"),
            Err(i) => i,
        };
        let slot = self.paths.insert(paths)?;
        self.keys.insert(idx, key);
        self.slots.insert(idx, slot);
        Ok(slot as usize)
    }

    /// Retire the flow keyed `key`, freeing its arena slot. Returns the
    /// slot it occupied, or `None` if the key was not active.
    pub fn remove(&mut self, key: u64) -> Option<usize> {
        let idx = self.keys.binary_search(&key).ok()?;
        self.keys.remove(idx);
        let slot = self.slots.remove(idx);
        self.paths.remove(slot);
        Some(slot as usize)
    }

    /// Recompute max-min rates for the current active set (progressive
    /// filling over the arena, scratch reused). Outputs are readable
    /// until the next `insert`/`remove`/`allocate`.
    ///
    /// A round costs about one operation per channel in use, plus the
    /// rescans. Every restructuring against the reference allocator keeps
    /// its arithmetic bit for bit:
    ///
    /// * channel counts are maintained incrementally instead of rebuilt
    ///   per round — pure integer bookkeeping, same values;
    /// * `δ` is the minimum of `residual[d] / count[d]` over channels in
    ///   use — `min` does not depend on scan order, and zero-count
    ///   channels are swept out after each round's rescans;
    /// * the `count[d]` subtractions of `δ` the reference applies to
    ///   `residual[d]` in a round (one per flow, all with the same `δ`,
    ///   no other channel involved) are one closed-form
    ///   `repeated_sub`, which returns the scalar chain's exact bits;
    /// * a subpath's rate is written once, when its flow leaves it or the
    ///   loop ends: the reference adds `δ` to it in every round it is
    ///   preferred, and preference cursors only advance, so that rate is
    ///   a left fold from `0.0` of the `δ`s of one run of consecutive
    ///   rounds, and `folded` replays exactly that fold;
    /// * the saturation test is `residual[d] <= 0.0`, equal to the
    ///   reference's `residual[d] <= caps[d]·ε` on the clamped residuals;
    /// * re-selection is driven by the flow lists of newly saturated
    ///   channels — exactly the flows the reference's full rescan could
    ///   move (a preference changes only when the flow's current subpath
    ///   loses a channel), and per-flow re-selection is independent of
    ///   the order flows are visited in.
    pub fn allocate(&mut self) {
        let s = &mut self.scratch;
        let ndir = s.caps.len();
        s.residual.copy_from_slice(&s.caps);
        s.frozen.clear();
        s.preferred.clear();
        self.sub_ends.clear();
        let mut total_subs = 0u32;
        for &slot in &self.slots {
            let data = &self.paths.slots[slot as usize];
            total_subs += data.len() as u32;
            self.sub_ends.push(total_subs);
            s.frozen.push(data.ends.is_empty());
            s.preferred.push(0);
        }
        self.sub_rates.clear();
        self.sub_rates.resize(total_subs as usize, 0.0);
        s.since.clear();
        s.since.resize(self.slots.len(), 1);
        s.deltas.clear();
        s.prefix.clear();
        s.prefix.push(0.0);

        // Initial selection, then seed counts, per-channel flow lists and
        // the in-use channel list.
        s.count.fill(0);
        for l in &mut s.on_channel {
            l.clear();
        }
        for k in 0..s.in_use.len() {
            s.in_list[s.in_use[k] as usize] = false;
        }
        s.in_use.clear();
        let mut live = 0usize;
        for (i, &slot) in self.slots.iter().enumerate() {
            if s.frozen[i] {
                continue;
            }
            let data = &self.paths.slots[slot as usize];
            match s.select_from(data, 0) {
                Some(p) => {
                    s.route(data, i, p);
                    live += 1;
                }
                None => s.frozen[i] = true,
            }
        }

        let mut rounds = 0;
        while rounds < MAX_ROUNDS {
            rounds += 1;
            if live == 0 {
                break;
            }
            // Largest uniform increment no used channel can refuse — the
            // same minimum the reference takes over all channels. Division
            // is correctly rounded, so dividing by a count of 1 or 2ᵏ
            // needs no shortcut to give the identity's or scaling's bits.
            let mut delta = f64::INFINITY;
            for &d in &s.in_use {
                let d = d as usize;
                let q = s.residual[d] / f64::from(s.count[d]);
                // a select (`minsd`), not `f64::min`'s NaN handling: no
                // quotient is NaN, as `count > 0` and `residual > 0`
                if q < delta {
                    delta = q;
                }
            }
            debug_assert!(delta.is_finite(), "unfrozen flows must use channels");
            let prefix = s.prefix[s.deltas.len()] + delta;
            s.deltas.push(delta);
            s.prefix.push(prefix);
            // `count[d] > 0` implies `residual[d] > caps[d]·ε` (else the
            // subpath would not have been selectable), so `δ` is strictly
            // positive whenever any flow is unfrozen — the reference's
            // `if δ > 0` guard is vacuous here and the saturation clamp
            // can run fused into the subtraction pass: all of a channel's
            // subtractions happen before its clamp check, exactly as the
            // reference orders them.
            let AllocatorScratch {
                caps,
                residual,
                count,
                newly_sat,
                in_use,
                ..
            } = s;
            newly_sat.clear();
            for &d in in_use.iter() {
                let d = d as usize;
                let mut r = repeated_sub(residual[d], delta, count[d]);
                // clamp channels that just saturated to exactly zero so
                // the saturation predicate is stable, and collect them:
                // only flows routed through them can change preference
                if r <= caps[d] * REL_EPS {
                    r = 0.0;
                    newly_sat.push(d as u32);
                }
                residual[d] = r;
            }
            // Re-select the affected flows: every flow still preferring a
            // subpath through a newly saturated channel moves on. A
            // saturated channel never re-enters any preference, so its
            // flow list is consumed (its buffer rotates through
            // `rescan_buf` to keep capacity).
            for k in 0..s.newly_sat.len() {
                let d = s.newly_sat[k] as usize;
                let mut pending = std::mem::take(&mut s.rescan_buf);
                std::mem::swap(&mut pending, &mut s.on_channel[d]);
                for &(i, p) in &pending {
                    let pos = i as usize;
                    if s.frozen[pos] || s.preferred[pos] != p {
                        continue; // stale: the flow has moved on
                    }
                    let data = &self.paths.slots[self.slots[pos] as usize];
                    let subs = &mut self.sub_rates[sub_range(&self.sub_ends, pos)];
                    if s.leave(data, pos, rounds, subs) {
                        live -= 1;
                    }
                }
                pending.clear();
                s.rescan_buf = pending;
            }
            let AllocatorScratch {
                count,
                in_use,
                in_list,
                ..
            } = s;
            in_use.retain(|&d| {
                let keep = count[d as usize] > 0;
                in_list[d as usize] = keep;
                keep
            });
        }
        debug_assert!(rounds < MAX_ROUNDS, "allocator failed to converge");
        self.rounds = rounds;
        // Flows still unfrozen kept their last subpath to the end.
        let filled = s.deltas.len();
        self.flow_rates.clear();
        for pos in 0..self.slots.len() {
            let subs = &mut self.sub_rates[sub_range(&self.sub_ends, pos)];
            if !s.frozen[pos] {
                subs[s.preferred[pos] as usize] = s.folded(s.since[pos], filled);
            }
            self.flow_rates.push(subs.iter().sum());
        }
        self.dir_used.clear();
        for d in 0..ndir {
            self.dir_used.push(s.caps[d] - s.residual[d]);
        }
    }

    /// Total rate per active flow (bits/s), in key order.
    pub fn flow_rates(&self) -> &[f64] {
        &self.flow_rates
    }

    /// Rate per subpath of the flow at `pos` (bits/s, preference order).
    #[inline]
    pub fn subpath_rates(&self, pos: usize) -> &[f64] {
        &self.sub_rates[sub_range(&self.sub_ends, pos)]
    }

    /// Bits/s consumed on every directed channel.
    pub fn dir_used(&self) -> &[f64] {
        &self.dir_used
    }

    /// Filling rounds of the last allocation (diagnostics).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Degrade (or restore) both directions of `link` to `factor` of base
    /// capacity for all subsequent allocations; `0` takes the link down.
    pub fn set_link_capacity_factor(&mut self, link: usize, factor: f64) {
        self.scratch.set_link_capacity_factor(link, factor);
    }

    /// Mean utilisation over directed channels that carry any capacity —
    /// same semantics as [`crate::allocator::Allocation::mean_utilisation`].
    pub fn mean_utilisation(&self) -> f64 {
        let mut sum = 0.0;
        let mut carrying = 0usize;
        for (d, &used) in self.dir_used.iter().enumerate() {
            let cap = self.scratch.caps[d];
            if cap > 0.0 {
                sum += (used / cap).min(1.0);
                carrying += 1;
            }
        }
        if carrying == 0 {
            0.0
        } else {
            sum / carrying as f64
        }
    }

    /// Add `utilisation × dt` per directed channel into `acc` — the
    /// time-weighted accumulation the simulator keeps, without the
    /// per-event vector the reference `dir_utilisation` would allocate.
    pub fn accumulate_channel_utilisation(&self, dt: f64, acc: &mut [f64]) {
        for (d, w) in acc.iter_mut().enumerate() {
            let cap = self.scratch.caps[d];
            let u = if cap <= 0.0 {
                0.0
            } else {
                (self.dir_used[d] / cap).min(1.0)
            };
            *w += u * dt;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::max_min_allocate;
    use inrpp_sim::rng::SimRng;
    use inrpp_sim::time::SimDuration;
    use inrpp_sim::units::Rate;
    use inrpp_topology::graph::NodeId;

    /// Spacing of the representable numbers just above positive `r`.
    fn ulp(r: f64) -> f64 {
        f64::from_bits(r.to_bits() + 1) - r
    }

    /// One `(r, δ)` pair of the kernel test, drawn from a family picked
    /// by `family`; `cmax` is the longest chain the pair will be run for.
    fn kernel_case(family: u64, cmax: u32, rng: &mut SimRng) -> (f64, f64) {
        // a positive normal r with a random mantissa, 2^e ≤ r < 2^(e+1)
        let e = rng.index(90) as i64 - 30;
        let mantissa = (rng.f64() * (1u64 << 52) as f64) as u64;
        let r = f64::from_bits(((1023 + e) as u64) << 52 | mantissa);
        let pow2 = f64::from_bits(((1023 + e) as u64) << 52);
        let scale = 2f64.powi(-(rng.index(64) as i32));
        match family {
            // generic: δ anywhere from r down to 2⁻⁶⁴·r
            0 => (r, r * scale * (0.5 + rng.f64())),
            // δ = r/c: the chain reaches about zero at step c
            1 => (r, r / (1 + rng.index(cmax as usize)) as f64),
            // r exactly a power of two
            2 => (pow2, pow2 * scale * rng.f64()),
            // r just above a power of two
            3 => {
                let r = pow2 + ulp(pow2) * (1 + rng.index(4)) as f64;
                (r, ulp(r) * (rng.index(8) as f64 + rng.f64()))
            }
            // δ = (k+½)·ulp: a rounding tie at every step
            4 => {
                let k = (rng.f64() * 2f64.powi(rng.index(40) as i32)) as u64;
                (r, ulp(r) * (k as f64 + 0.5))
            }
            // δ below half an ulp, up to the neighbours of the tie
            5 => {
                let half = ulp(r) * 0.5;
                let delta = match rng.index(3) {
                    0 => half * rng.f64(),
                    1 => f64::from_bits(half.to_bits() - 1),
                    _ => f64::from_bits(half.to_bits() + 1),
                };
                (r, delta)
            }
            // subnormal r
            6 => {
                let r = f64::from_bits(1 + (rng.f64() * (1u64 << 52) as f64) as u64);
                (r, r * scale * rng.f64())
            }
            // infinite r
            _ => (f64::INFINITY, r),
        }
    }

    /// The closed-form repeated subtraction equals the scalar chain bit
    /// for bit over 10⁷ seeded cases. Each `(r, δ)` pair runs the chain
    /// once and checks the closed form at every `c` from 1 to a chain
    /// length drawn log-uniformly from 1..=1000.
    #[test]
    fn repeated_sub_matches_scalar_chain() {
        let mut rng = SimRng::from_seed_u64(0xD1FF_5EED);
        let mut cases = 0u64;
        let mut pair = 0u64;
        while cases < 10_000_000 {
            let cmax = 1000f64.powf(rng.f64()).round() as u32;
            let (r, delta) = kernel_case(pair % 8, cmax, &mut rng);
            let mut x = r;
            for c in 1..=cmax {
                x -= delta;
                let got = repeated_sub(r, delta, c);
                assert_eq!(
                    got.to_bits(),
                    x.to_bits(),
                    "r {r:e}, δ {delta:e}, c {c}: {got:e} != {x:e}"
                );
            }
            cases += u64::from(cmax);
            pair += 1;
        }
    }

    /// Engine output must be bit-identical to the reference allocator.
    fn assert_matches_reference(topo: &Topology, keyed: &[(u64, Vec<Path>)]) {
        let mut eng = AllocEngine::new(topo);
        let mut sorted = keyed.to_vec();
        sorted.sort_by_key(|(k, _)| *k);
        for (k, paths) in keyed {
            eng.insert(*k, paths).unwrap();
        }
        eng.allocate();
        let flows: Vec<Vec<Path>> = sorted.iter().map(|(_, p)| p.clone()).collect();
        let reference = max_min_allocate(topo, &flows);
        assert_eq!(eng.flow_rates(), reference.flow_rates.as_slice());
        assert_eq!(eng.dir_used(), reference.dir_used.as_slice());
        assert_eq!(eng.rounds(), reference.rounds);
        for (pos, want) in reference.subpath_rates.iter().enumerate() {
            assert_eq!(eng.subpath_rates(pos), want.as_slice());
        }
        assert_eq!(eng.mean_utilisation(), reference.mean_utilisation(topo));
    }

    fn fig3_keyed() -> (Topology, Vec<(u64, Vec<Path>)>) {
        let topo = Topology::fig3();
        let n = |s: &str| topo.node_by_name(s).unwrap();
        let keyed = vec![
            (
                10u64,
                vec![
                    Path::new(vec![n("1"), n("2"), n("4")]),
                    Path::new(vec![n("1"), n("2"), n("3"), n("4")]),
                ],
            ),
            (4u64, vec![Path::new(vec![n("1"), n("2"), n("3")])]),
        ];
        (topo, keyed)
    }

    #[test]
    fn matches_reference_on_fig3() {
        let (topo, keyed) = fig3_keyed();
        assert_matches_reference(&topo, &keyed);
    }

    #[test]
    fn matches_reference_after_churn() {
        // insert three, remove the middle key, re-insert with new paths:
        // the surviving set must still match a from-scratch reference run
        let topo = Topology::fig3();
        let n = |s: &str| topo.node_by_name(s).unwrap();
        let a = vec![
            Path::new(vec![n("1"), n("2"), n("4")]),
            Path::new(vec![n("1"), n("2"), n("3"), n("4")]),
        ];
        let b = vec![Path::new(vec![n("1"), n("2"), n("3")])];
        let c = vec![Path::new(vec![n("4"), n("3"), n("2")])];
        let mut eng = AllocEngine::new(&topo);
        eng.insert(1, &a).unwrap();
        eng.insert(2, &b).unwrap();
        eng.insert(3, &c).unwrap();
        eng.allocate();
        assert_eq!(eng.remove(2), Some(1));
        assert_eq!(eng.remove(2), None, "double remove is a no-op");
        // the freed slot is recycled for the next insert
        let slot = eng.insert(9, &b).unwrap();
        assert_eq!(slot, 1);
        eng.allocate();
        let reference = max_min_allocate(&topo, &[a, c, b]); // key order 1, 3, 9
        assert_eq!(eng.flow_rates(), reference.flow_rates.as_slice());
        assert_eq!(eng.dir_used(), reference.dir_used.as_slice());
        assert_eq!(eng.keys(), &[1, 3, 9]);
    }

    #[test]
    fn matches_reference_with_unroutable_flow() {
        let (topo, mut keyed) = fig3_keyed();
        keyed.push((7, Vec::new())); // unroutable: empty subpath list
        assert_matches_reference(&topo, &keyed);
    }

    #[test]
    fn matches_reference_on_shared_bottleneck() {
        let topo = Topology::dumbbell(
            4,
            Rate::mbps(100.0),
            Rate::mbps(10.0),
            SimDuration::from_millis(1),
        );
        let keyed: Vec<(u64, Vec<Path>)> = (0..4)
            .map(|i| {
                (
                    i as u64 * 3 + 1,
                    vec![Path::new(vec![
                        NodeId(i),
                        NodeId(4),
                        NodeId(5),
                        NodeId(6 + i),
                    ])],
                )
            })
            .collect();
        assert_matches_reference(&topo, &keyed);
    }

    #[test]
    fn unresolved_hop_is_a_typed_error_and_leaks_nothing() {
        let topo = Topology::fig3();
        let n = |s: &str| topo.node_by_name(s).unwrap();
        let mut eng = AllocEngine::new(&topo);
        let bad = vec![Path::new(vec![n("1"), n("4")])];
        let err = eng.insert(1, &bad).unwrap_err();
        assert_eq!(err.from, n("1"));
        assert_eq!(err.to, n("4"));
        assert!(eng.is_empty());
        // the slot probed by the failed insert is reusable
        eng.insert(1, &[Path::new(vec![n("1"), n("2")])]).unwrap();
        eng.allocate();
        assert_eq!(eng.len(), 1);
        assert!((eng.flow_rates()[0] - 10e6).abs() < 1.0);
        assert_eq!(eng.paths.capacity(), 1, "failed insert left no slot behind");
    }

    #[test]
    fn empty_active_set_allocates_to_nothing() {
        let topo = Topology::fig3();
        let mut eng = AllocEngine::new(&topo);
        eng.allocate();
        assert!(eng.flow_rates().is_empty());
        assert!(eng.dir_used().iter().all(|&u| u == 0.0));
        assert_eq!(eng.mean_utilisation(), 0.0);
    }

    #[test]
    fn accumulate_channel_utilisation_matches_reference_weighting() {
        let (topo, keyed) = fig3_keyed();
        let mut eng = AllocEngine::new(&topo);
        for (k, p) in &keyed {
            eng.insert(*k, p).unwrap();
        }
        eng.allocate();
        let flows: Vec<Vec<Path>> = {
            let mut s = keyed.clone();
            s.sort_by_key(|(k, _)| *k);
            s.into_iter().map(|(_, p)| p).collect()
        };
        let reference = max_min_allocate(&topo, &flows);
        let dt = 0.25;
        let mut acc = vec![0.0; topo.link_count() * 2];
        eng.accumulate_channel_utilisation(dt, &mut acc);
        let want: Vec<f64> = reference
            .dir_utilisation(&topo)
            .into_iter()
            .map(|u| u * dt)
            .collect();
        assert_eq!(acc, want);
    }
}
