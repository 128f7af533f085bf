//! The shared radio medium: propagation, carrier sensing and reception.
//!
//! Every transmission draws one shadowing sample per receiver (paper
//! eq. 1); that same sample governs both carrier sensing and decoding of
//! the frame, so the channel is self-consistent for its duration. Every
//! draw — slow fade, fast fade, hazard survival — comes from a
//! counter-based keyed stream ([`comap_radio::stream`]): the medium
//! holds **no mutable RNG state at all**, so no sweep order, backend or
//! future shard plan can perturb a single sample.
//!
//! The medium speaks the MAC's language: [`Medium::begin`] and
//! [`Medium::end`] return `(node, MacEvent)` pairs — `Sense`, `Rx`,
//! `TxDone`, `Announce` — that the simulator dispatches unchanged, and
//! observed runs collect the physical-layer [`SimEvent`]s for
//! [`Medium::drain_events`].
//!
//! A frame on the air is recorded once, in its sender's state: a
//! single-radio node sends at most one frame at a time and cannot
//! receive while it does. A [`TxId`] holds the sender's index in its low
//! 32 bits and a never-reused generation count in the high bits.
//!
//! Reception follows the SINR-threshold capture model: a receiver locks
//! onto the first frame whose SINR against the current ambient power
//! clears the rate's minimum; the frame survives if its SINR against the
//! *worst* overlapping interference stays above that minimum. With
//! `capture` enabled, a later frame that is decodable *despite* the
//! currently locked signal steals the lock (preamble capture) — without
//! it, two saturated hidden flows annihilate each other completely, which
//! neither commodity hardware nor NS-2 reproduces.
//!
//! # The power ledger invariant
//!
//! The ambient power a node senses is a **pure function of the set of
//! transmissions currently on the air**: per-receiver powers are
//! quantized onto the exact integer grid of
//! [`QuantizedPower`](comap_radio::units::QuantizedPower) when a frame
//! starts, and the same grains are subtracted when it ends, so
//! [`Medium::sensed`] is bit-identical no matter how many frames have
//! come and gone in between. Debug builds verify the ledger against a
//! from-scratch recomputation after every [`Medium::begin`] /
//! [`Medium::end`]; release callers can do the same through
//! [`Medium::ledger_divergence_grains`].
//!
//! # The relevance floor and spatial culling
//!
//! A link whose cached mean received power sits below the *relevance
//! floor* ([`RELEVANCE_MARGIN_DB`] decibels under the thermal noise
//! floor) contributes **exactly zero** to every receiver-side quantity:
//! no fading draw, no ledger grains, no [`MacEvent::Sense`]. That rule is
//! part of the propagation model itself, applied to the cached means.
//!
//! A backend only chooses the *candidate* receivers, ascending:
//!
//! * [`MediumBackend::Exhaustive`] takes every other node (the reference
//!   enumeration).
//! * [`MediumBackend::Culled`] takes the nodes in the 3 × 3 grid-cell
//!   neighbourhood of the sender (cell side = the channel's relevance
//!   range) plus a per-node *overflow list* of links whose static
//!   shadowing draw keeps them relevant beyond that range.
//!
//! One code path then filters the candidates by the relevance floor into
//! the transmission's single receiver list — `(node, power)`, ascending —
//! which `begin` and `end` walk. Both candidate sets cover the relevant
//! set, so both backends build the same list and move identical grains.
//! See DESIGN.md §7 for the derivation of the radius and the exactness
//! argument.
//!
//! # The mobility hot path
//!
//! Movement never recomputes links eagerly. A link's slow-fade mean is a
//! **pure function** of the endpoints' positions and *position epochs*:
//! the slow-fade draw comes from a counter-based stream keyed by
//! `(seed, min(i, j), max(i, j), epoch sum)`, so the link cache can be
//! filled lazily, in any order, under any backend.
//!
//! The cache holds only the links a transmission reads: one row per
//! node of `(peer, mean dBm)` entries (16 bytes each), ascending by peer.
//! A sender's first `begin` after a move fills its row in bulk from its
//! sorted candidate list — each missing link is computed once, stored at
//! the row's exact size and mirrored into the peer's row, so the rows
//! stay symmetric. [`Medium::set_position`] snaps the target onto the
//! position quantum; an applied move bumps the mover's epoch, drops its
//! row and deletes it from every peer row listed there, so every stored
//! entry is always fresh. Memory is `O(n·k)` for `k` candidates per node,
//! not `O(n²)`.
//!
//! The move then refreshes the mover's overflow list. One pass over the
//! positions keeps the peers inside the hard skip radius of the ±6σ
//! clamp; each of those is held against the skip radius of its *own*
//! slow-fade draw, which the draw's Box–Muller radius bits bound
//! ([`normal_radius_zeros`]): most are rejected from three [`mix64`]
//! rounds, and only the rest pay the path loss. See DESIGN.md §8.
//!
//! # Per-frame stream discipline
//!
//! Fast fades are keyed by `(fade seed, tx → rx, frame counter)` and
//! hazard-survival draws by `(hazard seed, tx → rx, frame counter)`,
//! where the frame counter is the transmission's never-reused [`TxId`]
//! generation. No draw depends on another, so the order in which
//! [`Medium::begin`] visits its candidates cannot change a value. See
//! DESIGN.md §11.

use rand::rngs::StdRng;
use rand::Rng;

use comap_mac::time::SimTime;
use comap_radio::pathloss::LogNormalShadowing;
use comap_radio::stream::{
    keyed_state, link_key, mix64, normal_bound, normal_from_state, normal_radius_zeros,
    uniform_from_state, RADIUS_ZEROS_MAX,
};
use comap_radio::units::{Db, Dbm, Meters, MilliWatts, QuantizedPower};
use comap_radio::{Position, NOISE_FLOOR};

use crate::frame::{Frame, NodeId, TxId};
use crate::mac::MacEvent;
use crate::observe::SimEvent;
use crate::stats::MediumStats;

/// Which candidate receivers the medium enumerates for a transmission.
///
/// That is all a backend decides: the relevance filter, the draws and
/// the ledger run the same code over any candidate set, so both backends
/// produce bit-identical results (same reports, same event streams, same
/// draws) — the culled backend is only allowed to be *faster*. The
/// differential harness in `crates/sim/tests/differential.rs` pins that
/// equivalence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediumBackend {
    /// Reference enumeration: every other node is a candidate.
    Exhaustive,
    /// Spatial culling: the 3 × 3 grid neighbourhood of the sender plus
    /// its overflow list.
    Culled,
}

#[derive(Debug, Clone, Copy)]
struct RxLock {
    tx: TxId,
    signal: MilliWatts,
    /// Interference power during the current exposure span.
    interference: MilliWatts,
    /// Accumulated expected bit errors (`Σ BER(SINR) · bitrate · dt`).
    hazard: f64,
    /// Start of the current exposure span.
    since: SimTime,
    /// Bit rate of the locked frame (for the hazard integral).
    rate: comap_radio::rates::Rate,
}

/// Bit-error rate at `delta_db` decibels below the rate\'s minimum SINR:
/// `1e-5` at the threshold, doubling per dB below it, vanishing above.
/// The 8 000-bit scale of a data frame turns this into a sharp-but-
/// duration-sensitive corruption model.
fn bit_error_rate(delta_db: f64) -> f64 {
    (1e-5 * 2f64.powf(delta_db)).min(0.5)
}

impl RxLock {
    /// Accrues hazard for the span ending `now`, then resets the span.
    fn accrue(&mut self, now: SimTime) {
        let dt = now.saturating_duration_since(self.since).as_secs_f64();
        if dt > 0.0 {
            let sinr_db = 10.0 * (self.signal.value() / self.interference.value()).log10();
            let delta = self.rate.min_sinr().value() - sinr_db;
            self.hazard += bit_error_rate(delta) * self.rate.bits_per_second() * dt;
        }
        self.since = now;
    }
}

#[derive(Debug, Clone, Default)]
struct PhyState {
    /// The frame this node has on the air. A single-radio node sends at
    /// most one at a time, and cannot receive while it does.
    tx: Option<ActiveTx>,
    /// Exact ledger of the ambient power arriving from every active
    /// transmission (own transmissions excluded).
    incoming: QuantizedPower,
    lock: Option<RxLock>,
}

/// A frame on the air, recorded in its sender's [`PhyState`].
#[derive(Debug, Clone)]
struct ActiveTx {
    id: TxId,
    frame: Frame,
    end: SimTime,
    /// `(node, power)` of every receiver above the relevance floor,
    /// ascending by node and pre-quantized so begin/end move identical
    /// grains. The same list under either backend.
    receivers: Vec<(u32, QuantizedPower)>,
}

/// One entry of a node's link-cache row: the peer and the link's mean
/// received power in dBm (mean path loss at the current distance plus
/// the slow-fade draw). The relevance predicate and the ledger
/// quantization are derived from the mean where they are needed.
type RowEntry = (u32, f64);

/// Per-frame fading deviation: for *static* nodes most of the shadowing
/// (obstructions, walls) does not change between frames; only a small
/// fast-fading component does. The per-link remainder comes from the
/// counter-based slow-fade stream, keeping the total variance at the
/// channel\'s σ².
const FAST_SIGMA_DB: f64 = 1.5;

/// Margin below the thermal noise floor at which a link stops being
/// *relevant*: its mean received power can no longer flip a carrier-sense
/// comparison or perturb a SINR entry beyond the noise the comparison
/// already tolerates (a single sub-floor contribution shifts the ambient
/// sum by < 0.02 dB), so the model treats it as exactly zero. 25 dB puts
/// the floor at −120 dBm for the −95 dBm noise floor.
pub const RELEVANCE_MARGIN_DB: f64 = 25.0;

/// Default position quantum in meters (see
/// [`Medium::with_quantization`]): micro-moves inside a 1 m cell change
/// the mean path loss by well under a dB even at the 1 m near-field
/// clamp — far below the testbed's 4 dB shadowing deviation — so they
/// are coalesced instead of invalidating the mover's links.
pub const DEFAULT_POSITION_QUANTUM_M: f64 = 1.0;

/// Largest number of grid cells per axis. Beyond this the cells simply
/// grow past the relevance range, which only ever *over*-includes
/// candidates — correctness never depends on the cap.
const MAX_CELLS_PER_AXIS: usize = 64;

/// Low bits of a [`TxId`], which hold the sender's node index; the
/// high bits hold a never-reused generation count, so a stale id can
/// never alias a later transmission from the same sender.
const SLOT_BITS: u32 = 32;

impl TxId {
    /// The sender, whose [`PhyState`] records the transmission.
    fn sender(self) -> usize {
        (self.0 & ((1 << SLOT_BITS) - 1)) as usize
    }

    /// The frame counter keying the transmission's fades and hazard
    /// draws.
    fn generation(self) -> u64 {
        self.0 >> SLOT_BITS
    }
}

/// The slow-fade stream state of the unordered link `{lo, hi}` at
/// position-epoch sum `esum` — a counter-based stream, so the draw
/// is a pure function of its key: lazy cache refills can happen in any
/// order, under any backend. [`normal_from_state`] turns it into the
/// draw; [`normal_radius_zeros`] bounds that draw from one more
/// [`mix64`] round, which is all the overflow scan needs to reject a
/// pair.
///
/// The key fold is the original mobility-rework one (no seed pre-mix),
/// kept verbatim so every slow-fade realization shipped since then
/// stays bit-identical. The pre-mix that [`keyed_state`] adds guards
/// structured *cross-seed* aliases; the slow-fade stream has exactly
/// one seed, drawn at random, so the legacy fold is sound here — and
/// only here. New streams must use [`keyed_state`].
fn link_slow_state(seed: u64, lo: u32, hi: u32, esum: u64) -> u64 {
    let h = mix64((seed ^ 0x5851_F42D_4C95_7F2D) ^ link_key(lo, hi));
    mix64(h ^ esum)
}

/// One standard-normal slow-fade draw for the unordered link `{lo, hi}`
/// at position-epoch sum `esum`, clamped to
/// ±[`NORMAL_CLAMP_SIGMA`](comap_radio::stream::NORMAL_CLAMP_SIGMA).
fn link_slow_normal(seed: u64, lo: u32, hi: u32, esum: u64) -> f64 {
    normal_from_state(link_slow_state(seed, lo, hi, esum))
}

/// Deterministic counters of the link cache and the culling layer.
/// Backend-dependent by design (the exhaustive backend enumerates more
/// candidates), so they are surfaced by side accessor and the run
/// profiler only — never through a [`SimReport`](crate::stats::SimReport).
///
/// Both cache counters are in **directed-link units**: a lookup is one
/// directed cache read serving a power sample, a recompute is one link
/// missing from the sender's row and computed into it — the mirror entry
/// in the peer's row is stored by the same fill without being counted,
/// since no second path-loss evaluation happens.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediumCounters {
    /// Directed link-cache entries computed through the path-loss path
    /// because the sender's row lacked them.
    pub cache_recomputes: u64,
    /// Directed link-cache reads serving a received-power sample (one
    /// per relevant receiver per transmission).
    pub cache_lookups: u64,
    /// Candidate receivers enumerated across all `begin` calls, before
    /// the relevance filter.
    pub cull_candidates: u64,
    /// Receivers that passed the relevance filter (and therefore drew
    /// fading and entered the ledger).
    pub cull_relevant: u64,
    /// Moves that changed the quantized position (epoch bump, grid
    /// re-file, overflow refresh).
    pub moves_applied: u64,
    /// Moves coalesced away because the target stayed inside the same
    /// position-quantum cell: no epoch bump, no invalidation.
    pub moves_coalesced: u64,
}

/// Uniform grid over node positions. Cell sides are at least the
/// relevance range, so any pair of nodes within that range lands in the
/// same or adjacent cells: the cell coordinate map is a composition of a
/// 1-Lipschitz clamp and a floor-divide by the cell side, which cannot
/// separate two coordinates closer than one cell side by more than one
/// cell. Out-of-bounds positions clamp onto the border cells — that only
/// ever over-includes candidates.
#[derive(Debug, Clone)]
struct Grid {
    min_x: f64,
    min_y: f64,
    /// Cell sides in meters (≥ the relevance range whenever the axis has
    /// more than one cell).
    cell_w: f64,
    cell_h: f64,
    nx: usize,
    ny: usize,
    /// Node ids per cell (unordered — candidates are sorted on gather).
    cells: Vec<Vec<u32>>,
    /// Flattened cell index of each node.
    cell_of: Vec<u32>,
}

impl Grid {
    fn new(positions: &[Position], range: Meters) -> Self {
        let r = range.value().max(1.0);
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in positions {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let axis = |min: f64, max: f64| {
            let width = (max - min).max(0.0);
            let n = ((width / r).floor() as usize).clamp(1, MAX_CELLS_PER_AXIS);
            // n = ⌊width / r⌋ (≥ 1 cell) keeps the side ≥ r: width / n ≥ r.
            (n, (width / n as f64).max(r))
        };
        let (nx, cell_w) = axis(min_x, max_x);
        let (ny, cell_h) = axis(min_y, max_y);
        let mut grid = Grid {
            min_x,
            min_y,
            cell_w,
            cell_h,
            nx,
            ny,
            cells: vec![Vec::new(); nx * ny],
            cell_of: vec![0; positions.len()],
        };
        for (i, p) in positions.iter().enumerate() {
            let c = grid.cell_index(*p);
            grid.cells[c].push(i as u32);
            grid.cell_of[i] = c as u32;
        }
        grid
    }

    fn cell_index(&self, p: Position) -> usize {
        let clamp = |v: f64, cell: f64, n: usize| -> usize {
            let c = (v / cell).floor();
            // Negative coordinates clamp onto the first cell.
            (c.max(0.0) as usize).min(n - 1)
        };
        let cx = clamp(p.x - self.min_x, self.cell_w, self.nx);
        let cy = clamp(p.y - self.min_y, self.cell_h, self.ny);
        cy * self.nx + cx
    }

    /// Re-files a node under its new position's cell.
    fn move_node(&mut self, node: usize, to: Position) {
        let old = self.cell_of[node] as usize;
        let new = self.cell_index(to);
        if new == old {
            return;
        }
        let cell = &mut self.cells[old];
        if let Some(i) = cell.iter().position(|&v| v as usize == node) {
            cell.swap_remove(i);
        }
        self.cells[new].push(node as u32);
        self.cell_of[node] = new as u32;
    }

    /// Appends every node in the 3 × 3 cell neighbourhood of `node`
    /// (including `node` itself) to `out`.
    fn gather_neighbors(&self, node: usize, out: &mut Vec<u32>) {
        let c = self.cell_of[node] as usize;
        let (cx, cy) = (c % self.nx, c / self.nx);
        for y in cy.saturating_sub(1)..=(cy + 1).min(self.ny - 1) {
            for x in cx.saturating_sub(1)..=(cx + 1).min(self.nx - 1) {
                out.extend_from_slice(&self.cells[y * self.nx + x]);
            }
        }
    }
}

/// The medium over a set of node positions.
#[derive(Debug)]
pub struct Medium {
    channel: LogNormalShadowing,
    /// Node positions, snapped onto the position quantum.
    positions: Vec<Position>,
    capture: bool,
    backend: MediumBackend,
    /// Emit [`MacEvent::Announce`] when a node locks onto a data frame
    /// (the paper\'s in-band header implementation, Section V method 1).
    inband_announce: bool,
    /// Per node: its frame on the air, its ledger and its receiver lock.
    states: Vec<PhyState>,
    /// Generation counter feeding new [`TxId`]s.
    next_gen: u64,
    /// Seed of the counter-based per-link slow-fade streams, drawn once
    /// from the construction stream. The medium holds no mutable RNG —
    /// every draw after construction is a pure function of one of these
    /// three seeds and a stable key.
    link_seed: u64,
    /// Seed of the per-frame fast-fade streams, keyed
    /// `(fade_seed, tx → rx, frame counter)`.
    fade_seed: u64,
    /// Seed of the hazard-survival streams, keyed
    /// `(hazard_seed, tx → rx, frame counter)`. Distinct from
    /// [`Medium::fade_seed`] so the two draws of the same frame and
    /// link are statistically unrelated.
    hazard_seed: u64,
    /// Position epoch per node, bumped by every applied (non-coalesced)
    /// move. The endpoints' epoch sum keys a link's slow-fade draw, so
    /// a mover's links draw fresh slow fades.
    node_epoch: Vec<u32>,
    /// Link cache: one row per node, ascending by peer, holding only the
    /// links its transmissions (or its peers') have read since either
    /// endpoint last moved. Symmetric (`b ∈ rows[a]` ⟺ `a ∈ rows[b]`,
    /// with the same mean), and every entry is fresh.
    rows: Vec<Vec<RowEntry>>,
    /// Reusable buffer of the links a fill finds missing.
    missing: Vec<RowEntry>,
    /// Static (slow) shadowing deviation in dB: the channel sigma minus
    /// the fast-fading component, in quadrature.
    slow_sigma: f64,
    fast_sigma: Db,
    /// Mean power below which a link is treated as exactly zero.
    relevance_floor: Dbm,
    /// Distance at which the channel's *mean* power reaches the floor —
    /// the grid cell side. Links pushed past it by a favourable static
    /// draw live in the overflow lists instead.
    relevance_range: Meters,
    /// Squared overflow-scan radii in m², one per value `k` of
    /// [`normal_radius_zeros`]: beyond entry `k` a slow draw with `k`
    /// radius zeros (at most [`normal_bound`]`(k)` deviations) cannot
    /// lift the mean over the relevance floor. The last entry is the
    /// hard radius of the ±6σ clamp of every keyed normal draw
    /// ([`NORMAL_CLAMP_SIGMA`](comap_radio::stream::NORMAL_CLAMP_SIGMA)):
    /// the clip is a modeling choice (one-sided mass beyond 6σ is
    /// ≈ 1e-9, far below anything the simulator can resolve) that buys
    /// a hard geometric bound, so the per-move scan rejects far nodes on
    /// a squared distance alone.
    skip_sq: [f64; RADIUS_ZEROS_MAX as usize + 1],
    /// Position quantum in meters; 0 disables quantization (every move
    /// is applied verbatim).
    quantum: f64,
    /// Quantum cell index per node (empty when quantization is off).
    qx: Vec<i64>,
    qy: Vec<i64>,
    grid: Grid,
    /// Per-node sorted lists of nodes that stay relevant beyond the grid
    /// reach (`dist > relevance_range` yet `mean ≥ floor`): the static
    /// shadowing draw can up-fade a link, so distance alone cannot bound
    /// the mean. Symmetric, typically empty, refreshed against the
    /// movers' *current* epochs on every applied move.
    overflow: Vec<Vec<u32>>,
    /// Reusable candidate buffer of [`Medium::draw_receivers`].
    scratch: Vec<u32>,
    stats: MediumStats,
    counters: MediumCounters,
    /// Instrumentation enabled — gates every event construction below,
    /// so an unobserved medium pays one predictable branch per site.
    observe: bool,
    /// CCA threshold for carrier-sense transition events.
    cs_threshold: MilliWatts,
    /// Last carrier-sense state emitted per node.
    cs_busy: Vec<bool>,
    /// Events accumulated since the last [`Medium::drain_events`].
    events: Vec<SimEvent>,
    /// Wall-clock nanoseconds spent verifying the ledger. Kept outside
    /// [`MediumStats`] so wall-clock time never enters a [`SimReport`].
    ledger_check_nanos: u64,
}

impl Medium {
    /// Creates a medium for nodes at `positions` over `channel`. The
    /// channel\'s shadowing deviation is split into a static per-link
    /// component (reciprocal, drawn lazily from the counter-based
    /// per-link stream, folded into the link cache) and a small
    /// per-frame fading component of at most [`FAST_SIGMA_DB`].
    ///
    /// Positions — initial and moved-to alike — are snapped onto a grid
    /// of `quantum` meters (0 disables snapping): sub-quantum moves are
    /// physically indistinguishable under shadowing of several dB, so
    /// they coalesce into no-ops instead of invalidating the mover's
    /// links.
    pub fn with_quantization(
        channel: LogNormalShadowing,
        mut positions: Vec<Position>,
        capture: bool,
        mut rng: StdRng,
        backend: MediumBackend,
        quantum: Meters,
    ) -> Self {
        let n = positions.len();
        let states = vec![PhyState::default(); n];
        let sigma = channel.sigma().value();
        let fast = sigma.min(FAST_SIGMA_DB);
        let slow = (sigma * sigma - fast * fast).max(0.0).sqrt();
        let relevance_floor = NOISE_FLOOR + Db::new(-RELEVANCE_MARGIN_DB);
        let relevance_range = channel.range_for_threshold(relevance_floor);
        // Each skip radius inverts the floor minus the largest up-fade
        // a draw with `k` radius zeros can give; the relative inflation
        // dwarfs the rounding noise between this inversion and the fill
        // path's `link_mean_at` (and between `normal_bound` and the
        // draw), so the squared-distance rejection can never hide a
        // relevant link.
        let skip_sq = std::array::from_fn(|k| {
            let skip = if slow > 0.0 {
                let deepest = relevance_floor + Db::new(-(normal_bound(k as u32) * slow));
                channel.range_for_threshold(deepest).value() * (1.0 + 1e-9)
            } else {
                relevance_range.value()
            };
            skip * skip
        });
        // Seed-derivation order matters for artifact stability: the
        // slow-fade seed draws first, so re-keying the per-frame
        // streams never perturbed the per-link slow fades.
        let link_seed = rng.gen::<u64>();
        let fade_seed = rng.gen::<u64>();
        let hazard_seed = rng.gen::<u64>();
        let q = quantum.value();
        let (mut qx, mut qy) = (Vec::new(), Vec::new());
        if q > 0.0 {
            qx.reserve(n);
            qy.reserve(n);
            for p in &mut positions {
                let (ix, iy) = ((p.x / q).round() as i64, (p.y / q).round() as i64);
                *p = Position::new(ix as f64 * q, iy as f64 * q);
                qx.push(ix);
                qy.push(iy);
            }
        }
        let grid = Grid::new(&positions, relevance_range);
        let mut medium = Medium {
            channel,
            positions,
            capture,
            backend,
            inband_announce: false,
            states,
            next_gen: 0,
            link_seed,
            fade_seed,
            hazard_seed,
            node_epoch: vec![0; n],
            rows: vec![Vec::new(); n],
            missing: Vec::new(),
            slow_sigma: slow,
            fast_sigma: Db::new(fast),
            relevance_floor,
            relevance_range,
            skip_sq,
            quantum: q,
            qx,
            qy,
            grid,
            overflow: vec![Vec::new(); n],
            scratch: Vec::new(),
            stats: MediumStats::default(),
            counters: MediumCounters::default(),
            observe: false,
            cs_threshold: Dbm::MIN.to_milliwatts(),
            cs_busy: vec![false; n],
            events: Vec::new(),
            ledger_check_nanos: 0,
        };
        // Bootstrap the overflow lists (link means stay lazy): ascending
        // pair order keeps every list sorted.
        for a in 0..n {
            let peers: Vec<usize> = medium
                .within_hard_skip(a, a + 1)
                .filter(|&(b, d2)| medium.overflows(a, b, d2))
                .map(|(b, _)| b)
                .collect();
            for b in peers {
                medium.overflow[a].push(b as u32);
                medium.overflow[b].push(a as u32);
            }
        }
        medium
    }

    /// Enables in-band header announcements.
    pub fn set_inband_announce(&mut self, enabled: bool) {
        self.inband_announce = enabled;
    }

    /// Enables instrumentation-event emission; carrier-sense busy/idle
    /// transitions are judged against the CCA threshold `t_cs`. Nodes
    /// already busy at this point get their `CsBusy` now, so later
    /// passes need only look at the nodes whose power moved.
    pub fn enable_observation(&mut self, t_cs: Dbm) {
        self.observe = true;
        self.cs_threshold = t_cs.to_milliwatts();
        self.emit_cs_transitions(0..self.states.len());
    }

    /// Drains the events accumulated since the last call (always empty
    /// unless [`Medium::enable_observation`] was called); the buffer
    /// keeps its capacity.
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, SimEvent> {
        self.events.drain(..)
    }

    /// Wall-clock nanoseconds spent in ledger verification (debug
    /// builds; 0 in release). Surfaced by the run profiler only — never
    /// part of a report.
    pub fn ledger_check_nanos(&self) -> u64 {
        self.ledger_check_nanos
    }

    /// The backend in force.
    pub fn backend(&self) -> MediumBackend {
        self.backend
    }

    /// Deterministic link-cache and culling counters. Backend-dependent
    /// by design; never part of a report.
    pub fn counters(&self) -> MediumCounters {
        self.counters
    }

    /// Distance at which the channel's mean power reaches the relevance
    /// floor — the grid cell side.
    pub fn relevance_range(&self) -> Meters {
        self.relevance_range
    }

    /// Emits a carrier-sense transition event for every node of `nodes`
    /// whose sensed power crossed the CCA threshold since its last pass.
    fn emit_cs_transitions(&mut self, nodes: impl IntoIterator<Item = usize>) {
        for n in nodes {
            let busy = self.sensed(NodeId(n)).value() >= self.cs_threshold.value();
            if busy != self.cs_busy[n] {
                self.cs_busy[n] = busy;
                self.events.push(if busy {
                    SimEvent::CsBusy { node: NodeId(n) }
                } else {
                    SimEvent::CsIdle { node: NodeId(n) }
                });
            }
        }
    }

    /// Mean received power of the link `{a, b}` in dBm at the endpoints'
    /// current positions and epochs: mean path loss (behind the 1 m
    /// near-field clamp of
    /// [`link_mean_at`](LogNormalShadowing::link_mean_at)) plus the
    /// link's slow-fade draw. A pure function — the lazy row fill,
    /// [`Medium::relevant_receivers`] and the overflow scan all evaluate
    /// exactly this expression, so they can never disagree.
    fn compute_link_dbm(&self, a: usize, b: usize) -> f64 {
        let d = self.positions[a].distance_to(self.positions[b]);
        let mut dbm = self.channel.link_mean_at(d).value();
        if self.slow_sigma > 0.0 {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            dbm += self.slow_sigma
                * link_slow_normal(self.link_seed, lo as u32, hi as u32, self.epoch_sum(a, b));
        }
        dbm
    }

    /// The slow-fade key of the link `{a, b}`: its endpoints' epoch sum.
    fn epoch_sum(&self, a: usize, b: usize) -> u64 {
        self.node_epoch[a] as u64 + self.node_epoch[b] as u64
    }

    /// Makes `src`'s row cover `candidates` (ascending). One merge walk
    /// finds the missing links; each is computed once, counted once,
    /// stored in a new row allocated at its exact size and mirrored into
    /// the peer's row.
    fn fill_row(&mut self, src: usize, candidates: &[u32]) {
        let mut missing = std::mem::take(&mut self.missing);
        missing.clear();
        let row = &self.rows[src];
        let mut k = 0;
        for &j in candidates {
            while k < row.len() && row[k].0 < j {
                k += 1;
            }
            if row.get(k).is_none_or(|e| e.0 != j) {
                missing.push((j, self.compute_link_dbm(src, j as usize)));
            }
        }
        if !missing.is_empty() {
            self.counters.cache_recomputes += missing.len() as u64;
            let old = std::mem::take(&mut self.rows[src]);
            let mut row = Vec::with_capacity(old.len() + missing.len());
            let (mut i, mut m) = (0, 0);
            while i < old.len() || m < missing.len() {
                if m == missing.len() || (i < old.len() && old[i].0 < missing[m].0) {
                    row.push(old[i]);
                    i += 1;
                } else {
                    row.push(missing[m]);
                    m += 1;
                }
            }
            self.rows[src] = row;
            let me = src as u32;
            for &(j, dbm) in &missing {
                let peer = &mut self.rows[j as usize];
                let at = peer.partition_point(|e| e.0 < me);
                debug_assert!(peer.get(at).is_none_or(|e| e.0 != me), "rows lost symmetry");
                peer.insert(at, (me, dbm));
            }
        }
        self.missing = missing;
    }

    /// Drops `node`'s row and deletes `node` from every peer row listed
    /// in it — by symmetry, every entry that involved `node`.
    fn evict_row(&mut self, node: usize) {
        let me = node as u32;
        for (peer, _) in std::mem::take(&mut self.rows[node]) {
            let row = &mut self.rows[peer as usize];
            if let Ok(k) = row.binary_search_by_key(&me, |e| e.0) {
                row.remove(k);
            }
        }
    }

    /// The peers of `node` from `from` on that lie within the hard skip
    /// radius (the last entry of [`Medium::skip_sq`]), ascending, with
    /// their squared distance: one pass over the positions, no path-loss
    /// math.
    fn within_hard_skip(
        &self,
        node: usize,
        from: usize,
    ) -> impl Iterator<Item = (usize, f64)> + '_ {
        let p = self.positions[node];
        let hard = self.skip_sq[RADIUS_ZEROS_MAX as usize];
        self.positions[from..]
            .iter()
            .zip(from..)
            .filter_map(move |(q, other)| {
                let (dx, dy) = (p.x - q.x, p.y - q.y);
                let d2 = dx * dx + dy * dy;
                (d2 <= hard && other != node).then_some((other, d2))
            })
    }

    /// Whether `b`, at squared distance `d2` inside the hard skip
    /// radius, belongs on `a`'s overflow list: beyond the grid reach
    /// (`dist > relevance_range`) yet relevant. Most such pairs lie
    /// beyond the skip radius of their own draw's bound and are
    /// rejected from three [`mix64`] rounds, before any path-loss math.
    /// Symmetric in `a` and `b`.
    fn overflows(&self, a: usize, b: usize, d2: f64) -> bool {
        d2 <= self.skip_sq[self.slow_radius_zeros(a, b) as usize]
            && self.positions[a].distance_to(self.positions[b]).value()
                > self.relevance_range.value()
            && self.compute_link_dbm(a, b) >= self.relevance_floor.value()
    }

    /// The radius zeros of the link `{a, b}`'s current slow-fade draw,
    /// which index its skip radius in [`Medium::skip_sq`].
    fn slow_radius_zeros(&self, a: usize, b: usize) -> u32 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        normal_radius_zeros(link_slow_state(
            self.link_seed,
            lo as u32,
            hi as u32,
            self.epoch_sum(a, b),
        ))
    }

    /// Moves a node. The target snaps onto the position quantum: a move
    /// that stays inside the mover's current quantum cell coalesces into
    /// a no-op. An applied move stores the snapped position, bumps the
    /// mover's position epoch (a mover meets new walls, so its links draw
    /// fresh slow fades), evicts exactly the mover's cached links — its
    /// row and its entry in every peer's row, which refill on first use —
    /// then re-files the node in the grid and refreshes the overflow
    /// lists on both sides of every affected pair. Transmissions already
    /// on the air keep the powers they were drawn with.
    pub fn set_position(&mut self, node: NodeId, to: Position) {
        let to = if self.quantum > 0.0 {
            let ix = (to.x / self.quantum).round() as i64;
            let iy = (to.y / self.quantum).round() as i64;
            if ix == self.qx[node.0] && iy == self.qy[node.0] {
                self.counters.moves_coalesced += 1;
                return;
            }
            self.qx[node.0] = ix;
            self.qy[node.0] = iy;
            Position::new(ix as f64 * self.quantum, iy as f64 * self.quantum)
        } else {
            to
        };
        self.counters.moves_applied += 1;
        self.positions[node.0] = to;
        self.node_epoch[node.0] += 1;
        self.evict_row(node.0);
        self.grid.move_node(node.0, to);
        self.refresh_overflow(node.0);
    }

    /// Rebuilds `node`'s overflow list the way [`Medium::evict_row`]
    /// and [`Medium::fill_row`] keep the rows: the lists are symmetric
    /// (`b ∈ overflow[a]` ⟺ `a ∈ overflow[b]`), so the mover is deleted
    /// from every peer list its old list names, then inserted into every
    /// peer list its new list names. No stale entry referencing the
    /// mover survives anywhere.
    fn refresh_overflow(&mut self, node: usize) {
        let me = node as u32;
        for peer in std::mem::take(&mut self.overflow[node]) {
            let list = &mut self.overflow[peer as usize];
            if let Ok(k) = list.binary_search(&me) {
                list.remove(k);
            }
        }
        // Ascending scan order keeps the rebuilt list sorted.
        let new: Vec<u32> = self
            .within_hard_skip(node, 0)
            .filter(|&(other, d2)| self.overflows(node, other, d2))
            .map(|(other, _)| other as u32)
            .collect();
        for &peer in &new {
            let list = &mut self.overflow[peer as usize];
            let at = list.partition_point(|&v| v < me);
            debug_assert!(list.get(at) != Some(&me), "overflow lists lost symmetry");
            list.insert(at, me);
        }
        self.overflow[node] = new;
    }

    /// Fills `out` with the candidate receivers of a transmission from
    /// `src`, ascending and without `src` — the one place the backends
    /// differ. Everything downstream (freshening, the relevance filter,
    /// the fading draws, the ledger) runs the same code over the
    /// candidates, so a backend whose candidates cover the relevant set
    /// produces the same receiver list as any other.
    fn candidates(&self, src: usize, out: &mut Vec<u32>) {
        out.clear();
        match self.backend {
            MediumBackend::Exhaustive => {
                out.extend((0..self.positions.len() as u32).filter(|&j| j as usize != src));
            }
            MediumBackend::Culled => {
                self.grid.gather_neighbors(src, out);
                out.extend_from_slice(&self.overflow[src]);
                out.sort_unstable();
                out.dedup();
                out.retain(|&j| j as usize != src);
            }
        }
    }

    /// The candidate receivers the backend in force enumerates for a
    /// transmission from `node`, before the relevance filter. Under
    /// [`MediumBackend::Culled`] that is the 3 × 3 grid neighbourhood
    /// plus the overflow list — a superset of the relevant set by
    /// construction (the property test pins this).
    pub fn candidate_receivers(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.candidates(node.0, &mut out);
        out.into_iter().map(|j| NodeId(j as usize)).collect()
    }

    /// The receivers above the relevance floor for a transmission from
    /// `node`, ascending — the receiver list either backend builds.
    pub fn relevant_receivers(&self, node: NodeId) -> Vec<NodeId> {
        let floor = self.relevance_floor.value();
        (0..self.positions.len())
            .filter(|&j| j != node.0 && self.compute_link_dbm(node.0, j) >= floor)
            .map(NodeId)
            .collect()
    }

    /// The overflow list of `node`: peers kept relevant beyond the grid
    /// reach by an up-fade, ascending. Exposed so the staleness property
    /// tests can compare the maintained lists against a from-scratch
    /// recomputation.
    pub fn overflow_peers(&self, node: NodeId) -> Vec<NodeId> {
        self.overflow[node.0]
            .iter()
            .map(|&j| NodeId(j as usize))
            .collect()
    }

    /// Pre-warms `node`'s link-cache row: fills it with the links to the
    /// candidate receivers — exactly what the next `begin()` from `node`
    /// reads — now instead of lazily then. Fills are pure functions of
    /// the positions and epochs, so a warmed run produces bit-identical
    /// powers, events and reports to a lazy one — only the
    /// `cache_recomputes` timing moves. The differential harness drives
    /// both fill orders through this hook; a sharded engine can use it
    /// to warm a shard before its first frame.
    pub fn warm_links(&mut self, node: NodeId) {
        let mut candidates = std::mem::take(&mut self.scratch);
        self.candidates(node.0, &mut candidates);
        self.fill_row(node.0, &candidates);
        self.scratch = candidates;
    }

    /// Total ambient power currently sensed at `node` (noise floor plus
    /// every active transmission, excluding the node's own). A pure
    /// function of the active-transmission set — see the module docs.
    pub fn sensed(&self, node: NodeId) -> MilliWatts {
        NOISE_FLOOR.to_milliwatts() + self.states[node.0].incoming.to_milliwatts()
    }

    /// Whether `node` is currently transmitting.
    pub fn is_transmitting(&self, node: NodeId) -> bool {
        self.states[node.0].tx.is_some()
    }

    /// Whether `node` is currently locked onto (decoding) a frame —
    /// the preamble-detection component of carrier sensing.
    pub fn is_locked(&self, node: NodeId) -> bool {
        self.states[node.0].lock.is_some()
    }

    /// Number of transmissions currently on the air.
    pub fn active_count(&self) -> usize {
        self.states.iter().filter(|s| s.tx.is_some()).count()
    }

    /// Counters of capture, hazard and ledger-verification events.
    pub fn stats(&self) -> MediumStats {
        self.stats
    }

    /// Largest divergence (in ledger grains) between any node's
    /// incremental ledger and a from-scratch recomputation over the
    /// active set. The ledger invariant says this is always 0; the
    /// long-run drift test pins that down.
    pub fn ledger_divergence_grains(&self) -> u128 {
        let mut recomputed = vec![QuantizedPower::ZERO; self.states.len()];
        for active in self.states.iter().filter_map(|s| s.tx.as_ref()) {
            for &(n, power) in &active.receivers {
                recomputed[n as usize] += power;
            }
        }
        self.states
            .iter()
            .zip(recomputed)
            .map(|(s, r)| s.incoming.abs_diff(r))
            .max()
            .unwrap_or(0)
    }

    /// Debug-build ledger verification, run after every mutation. The
    /// wall-clock cost is accumulated for the run profiler.
    fn debug_check_ledger(&mut self) {
        if cfg!(debug_assertions) {
            #[expect(
                clippy::disallowed_methods,
                reason = "wall clock only times the audit, never feeds sim state"
            )]
            let started = std::time::Instant::now();
            self.stats.ledger_checks += 1;
            let divergence = self.ledger_divergence_grains();
            debug_assert_eq!(divergence, 0, "power ledger diverged from the active set");
            self.ledger_check_nanos += started.elapsed().as_nanos() as u64;
        }
    }

    /// Builds the receiver list of a transmission from `src`: the
    /// backend's candidates, read from `src`'s row once it covers them
    /// and filtered by the relevance floor, with one fading draw per
    /// survivor. Every fade is a pure function of
    /// `(fade_seed, src → rx, frame_ctr)`, so neither the visiting order
    /// nor the backend can change a single value.
    fn draw_receivers(&mut self, src: usize, frame_ctr: u64) -> Vec<(u32, QuantizedPower)> {
        let mut candidates = std::mem::take(&mut self.scratch);
        self.candidates(src, &mut candidates);
        self.counters.cull_candidates += candidates.len() as u64;
        self.fill_row(src, &candidates);
        let floor = self.relevance_floor.value();
        let sigma = self.fast_sigma.value();
        let row = &self.rows[src];
        let mut k = 0;
        let mut receivers = Vec::with_capacity(candidates.len());
        for &j in &candidates {
            // The fill made the row a superset of the candidates.
            while row[k].0 < j {
                k += 1;
            }
            let mean = row[k].1;
            if mean < floor {
                continue;
            }
            // A fading deviation is non-negative; zero disables fast
            // fading and the mean is the exact power.
            let dbm = if sigma > 0.0 {
                let h = keyed_state(self.fade_seed, link_key(src as u32, j), frame_ctr);
                Dbm::new(mean) + Db::new(sigma * normal_from_state(h))
            } else {
                Dbm::new(mean)
            };
            receivers.push((j, QuantizedPower::from_milliwatts(dbm.to_milliwatts())));
        }
        let relevant = receivers.len() as u64;
        self.counters.cull_relevant += relevant;
        self.counters.cache_lookups += relevant;
        self.scratch = candidates;
        receivers
    }

    /// Receiver-side bookkeeping when `tx` starts: ledger credit, lock
    /// acquisition or preamble capture, and the `Sense`/`Announce` MAC
    /// events. `power` is always non-zero (sub-floor receivers are never
    /// visited).
    fn receive_begin(
        &mut self,
        n: usize,
        power: QuantizedPower,
        tx: &ActiveTx,
        now: SimTime,
        notes: &mut Vec<(NodeId, MacEvent)>,
    ) {
        let (id, frame) = (tx.id, tx.frame);
        let p = power.to_milliwatts();
        let capture = self.capture;
        let mut captured = false;
        let state = &mut self.states[n];
        let ambient = NOISE_FLOOR.to_milliwatts() + state.incoming.to_milliwatts();
        let threshold = frame.rate.min_sinr().to_linear();
        let decodable = state.tx.is_none() && p.value() / ambient.value() >= threshold;
        state.incoming += power;
        let incoming_now = state.incoming.to_milliwatts();
        let mut announced = false;
        state.lock = match state.lock {
            None if decodable => {
                announced = true;
                Some(RxLock {
                    tx: id,
                    signal: p,
                    interference: ambient,
                    hazard: 0.0,
                    since: now,
                    rate: frame.rate,
                })
            }
            None => None,
            Some(mut lock) => {
                // Close the exposure span at the old interference
                // level, then raise it.
                lock.accrue(now);
                lock.interference = NOISE_FLOOR.to_milliwatts() + incoming_now - lock.signal;
                // Preamble capture: the new frame is decodable even
                // over the locked signal.
                if capture && decodable {
                    announced = true;
                    captured = true;
                    Some(RxLock {
                        tx: id,
                        signal: p,
                        interference: ambient,
                        hazard: 0.0,
                        since: now,
                        rate: frame.rate,
                    })
                } else {
                    Some(lock)
                }
            }
        };
        if captured {
            self.stats.captures += 1;
            if self.observe {
                self.events.push(SimEvent::Capture {
                    node: NodeId(n),
                    src: frame.src,
                });
            }
        }
        if announced
            && self.inband_announce
            && matches!(frame.body, crate::frame::FrameBody::Data { .. })
        {
            notes.push((
                NodeId(n),
                MacEvent::Announce {
                    link: (frame.src, frame.dst),
                    data_end: tx.end,
                },
            ));
        }
        notes.push((NodeId(n), MacEvent::Sense));
    }

    /// Puts `frame` on the air from its source at `now`, lasting until
    /// `end`. Returns the transmission id and the [`MacEvent`]s for the
    /// nodes it affects. Only the receivers above the relevance floor
    /// are visited — the same list under either backend.
    ///
    /// # Panics
    ///
    /// Panics if the source is already transmitting, or if `end` is not
    /// after `now`.
    pub fn begin(
        &mut self,
        frame: Frame,
        now: SimTime,
        end: SimTime,
    ) -> (TxId, Vec<(NodeId, MacEvent)>) {
        let src = frame.src.0;
        assert!(
            self.states[src].tx.is_none(),
            "node {} started a second transmission",
            frame.src
        );
        assert!(
            end > now,
            "transmission must end after it begins ({now} .. {end})"
        );

        // One fading draw per relevant receiver, consistent for the
        // frame's whole lifetime, keyed by the generation embedded in
        // the id (which is how `receive_end` recovers the hazard key).
        // Node ids are `u32`, so the sender fits the low bits.
        let id = TxId((self.next_gen << SLOT_BITS) | src as u64);
        self.next_gen += 1;
        let active = ActiveTx {
            id,
            frame,
            end,
            receivers: self.draw_receivers(src, id.generation()),
        };

        // A transmitting node cannot keep receiving: it loses any lock.
        self.states[src].lock = None;

        if self.observe {
            self.events.push(SimEvent::TxBegin {
                src: frame.src,
                dst: frame.dst,
                kind: frame.kind(),
                rate: frame.rate,
            });
        }

        let mut notes = Vec::new();
        for &(n, power) in &active.receivers {
            self.receive_begin(n as usize, power, &active, now, &mut notes);
        }
        if self.observe {
            // Only the receivers' ambient power moved.
            self.emit_cs_transitions(active.receivers.iter().map(|&(n, _)| n as usize));
        }
        self.states[src].tx = Some(active);
        self.debug_check_ledger();
        (id, notes)
    }

    /// Receiver-side bookkeeping when `tx` ends: ledger debit, lock
    /// resolution (survival draw) and the `Sense` MAC event.
    fn receive_end(
        &mut self,
        n: usize,
        power: QuantizedPower,
        tx: &ActiveTx,
        now: SimTime,
        notes: &mut Vec<(NodeId, MacEvent)>,
    ) {
        let (id, frame) = (tx.id, tx.frame);
        let observe = self.observe;
        self.states[n].incoming -= power;
        if let Some(mut lock) = self.states[n].lock {
            if lock.tx == id {
                // Close the final exposure span and draw survival.
                lock.accrue(now);
                self.states[n].lock = None;
                let survive = (-lock.hazard).exp();
                // The survival draw is keyed by the frame's generation
                // (recovered from the TxId) and the directed link, so it
                // is independent of the order transmissions resolve in.
                let draw = uniform_from_state(keyed_state(
                    self.hazard_seed,
                    link_key(frame.src.0 as u32, n as u32),
                    id.generation(),
                ));
                if survive >= 1.0 - 1e-12 || draw < survive {
                    if observe {
                        let sinr_db =
                            10.0 * (lock.signal.value() / lock.interference.value()).log10();
                        self.events.push(SimEvent::RxResolved {
                            node: NodeId(n),
                            src: frame.src,
                            rssi_dbm: lock.signal.to_dbm().value(),
                            sinr_db,
                        });
                    }
                    notes.push((
                        NodeId(n),
                        MacEvent::Rx {
                            frame,
                            rssi: lock.signal.to_dbm(),
                        },
                    ));
                } else {
                    self.stats.hazard_drops += 1;
                    if observe {
                        self.events.push(SimEvent::HazardDrop {
                            node: NodeId(n),
                            src: frame.src,
                        });
                    }
                }
            } else {
                // The locked frame's interference just dropped: close
                // its span at the old level.
                lock.accrue(now);
                lock.interference = NOISE_FLOOR.to_milliwatts()
                    + self.states[n].incoming.to_milliwatts()
                    - lock.signal;
                self.states[n].lock = Some(lock);
            }
        }
        notes.push((NodeId(n), MacEvent::Sense));
    }

    /// Takes a transmission off the air at `now`, resolving receptions.
    /// Returns per-node [`MacEvent`]s (`Rx` for a successful receiver,
    /// `TxDone` for the sender, `Sense` for everyone whose ambient power
    /// dropped). Only the receivers `begin` listed are visited — no one
    /// else's ambient power moved.
    ///
    /// # Panics
    ///
    /// Panics if `tx` is not on the air, or if `now` differs from the
    /// end time the transmission was scheduled with — ending a frame at
    /// the wrong instant would corrupt every overlapping hazard
    /// integral, so the medium refuses instead of silently accepting it.
    pub fn end(&mut self, tx: TxId, now: SimTime) -> Vec<(NodeId, MacEvent)> {
        #[expect(
            clippy::panic,
            reason = "documented invariant: ending a tx that is not on the air corrupts hazard integrals, so refuse loudly"
        )]
        let active = self
            .states
            .get_mut(tx.sender())
            .and_then(|s| s.tx.take_if(|a| a.id == tx))
            .unwrap_or_else(|| panic!("transmission {tx:?} not on the air"));
        assert_eq!(
            active.end, now,
            "Medium::end({tx:?}) at {now}, but the transmission is scheduled to end at {}",
            active.end
        );

        let frame = active.frame;

        if self.observe {
            self.events.push(SimEvent::TxEnd {
                src: frame.src,
                kind: frame.kind(),
            });
        }

        let mut notes = Vec::new();
        for &(n, power) in &active.receivers {
            self.receive_end(n as usize, power, &active, now, &mut notes);
        }
        notes.push((frame.src, MacEvent::TxDone { frame }));
        if self.observe {
            self.emit_cs_transitions(active.receivers.iter().map(|&(n, _)| n as usize));
        }
        self.debug_check_ledger();
        notes
    }

    /// The propagation channel in force.
    pub fn channel(&self) -> &LogNormalShadowing {
        &self.channel
    }

    /// Position of a node as the physics see it — snapped onto the
    /// position quantum.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comap_mac::time::SimDuration;
    use comap_radio::rates::Rate;
    use comap_radio::stream::NORMAL_CLAMP_SIGMA;
    use comap_radio::units::Db;
    use rand::SeedableRng;

    use crate::frame::FrameBody;

    /// A deterministic (σ = 0) medium: A at 0, B at 10 m, C at 200 m.
    fn medium() -> Medium {
        let chan = LogNormalShadowing::from_friis(Dbm::new(0.0), 2.9, Db::ZERO);
        Medium::with_quantization(
            chan,
            vec![
                Position::new(0.0, 0.0),
                Position::new(10.0, 0.0),
                Position::new(200.0, 0.0),
            ],
            true,
            StdRng::seed_from_u64(1),
            MediumBackend::Culled,
            Meters::new(DEFAULT_POSITION_QUANTUM_M),
        )
    }

    fn data(src: usize, dst: usize) -> Frame {
        Frame {
            src: NodeId(src),
            dst: NodeId(dst),
            body: FrameBody::Data {
                seq: 0,
                payload_bytes: 500,
                retry: false,
            },
            rate: Rate::Mbps11,
        }
    }

    fn end_at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn clean_frame_is_delivered() {
        let mut m = medium();
        let (tx, _) = m.begin(data(0, 1), SimTime::ZERO, end_at(1000));
        let notes = m.end(tx, end_at(1000));
        let rx = notes
            .iter()
            .find(|(n, note)| *n == NodeId(1) && matches!(note, MacEvent::Rx { .. }));
        assert!(rx.is_some(), "B must receive: {notes:?}");
        assert!(notes
            .iter()
            .any(|(n, note)| *n == NodeId(0) && matches!(note, MacEvent::TxDone { .. })));
    }

    #[test]
    fn sensed_power_rises_and_falls_exactly() {
        let mut m = medium();
        let idle = m.sensed(NodeId(1));
        let (tx, _) = m.begin(data(0, 1), SimTime::ZERO, end_at(1000));
        assert!(m.sensed(NodeId(1)).value() > idle.value() * 100.0);
        m.end(tx, end_at(1000));
        // The exact ledger restores the idle level bit for bit — not
        // merely within a tolerance.
        assert_eq!(m.sensed(NodeId(1)), idle);
    }

    #[test]
    fn remote_node_barely_senses() {
        let mut m = medium();
        let (_tx, _) = m.begin(data(0, 1), SimTime::ZERO, end_at(1000));
        // At 200 m with α = 2.9: ~ −107 dBm, far below the −95 dBm floor
        // yet above the −120 dBm relevance floor, so it still enters the
        // ledger.
        let sensed = m.sensed(NodeId(2)).to_dbm();
        assert!(sensed.value() < -94.0, "sensed = {sensed}");
        assert!(
            m.sensed(NodeId(2)).value() > NOISE_FLOOR.to_milliwatts().value(),
            "a −107 dBm link is relevant and must reach the ledger"
        );
    }

    #[test]
    fn transmitting_node_cannot_receive() {
        let mut m = medium();
        let (tx_b, _) = m.begin(data(1, 2), SimTime::ZERO, end_at(1000));
        let (tx_a, _) = m.begin(data(0, 1), SimTime::ZERO, end_at(1000));
        let notes = m.end(tx_a, end_at(1000));
        assert!(
            !notes
                .iter()
                .any(|(n, note)| *n == NodeId(1) && matches!(note, MacEvent::Rx { .. })),
            "B was transmitting and must miss A's frame"
        );
        m.end(tx_b, end_at(1000));
    }

    #[test]
    fn collision_corrupts_the_weaker_frame() {
        // C transmits to B from 190 m — far too weak; then A's strong
        // frame arrives and (with capture) steals the lock.
        let mut m = medium();
        let (tx_c, _) = m.begin(data(2, 1), SimTime::ZERO, end_at(2000));
        let (tx_a, _) = m.begin(data(0, 1), SimTime::ZERO, end_at(1000));
        let notes_a = m.end(tx_a, end_at(1000));
        assert!(
            notes_a
                .iter()
                .any(|(n, note)| *n == NodeId(1) && matches!(note, MacEvent::Rx { .. })),
            "A's frame captures: {notes_a:?}"
        );
        let notes_c = m.end(tx_c, end_at(2000));
        assert!(
            !notes_c
                .iter()
                .any(|(n, note)| *n == NodeId(1) && matches!(note, MacEvent::Rx { .. })),
            "C's frame is lost"
        );
    }

    #[test]
    fn without_capture_the_first_lock_sticks_and_dies() {
        let chan = LogNormalShadowing::from_friis(Dbm::new(0.0), 2.9, Db::ZERO);
        let mut m = Medium::with_quantization(
            chan,
            vec![
                Position::new(0.0, 0.0),
                Position::new(10.0, 0.0),
                Position::new(30.0, 0.0),
            ],
            false,
            StdRng::seed_from_u64(1),
            MediumBackend::Culled,
            Meters::new(DEFAULT_POSITION_QUANTUM_M),
        );
        // C at 30 m from B(10 m): decodable alone. Then A's much stronger
        // frame arrives: no capture, so the lock stays with C and is
        // corrupted by A.
        let (tx_c, _) = m.begin(data(2, 1), SimTime::ZERO, end_at(2000));
        let (tx_a, _) = m.begin(data(0, 1), SimTime::ZERO, end_at(1000));
        let notes_a = m.end(tx_a, end_at(1000));
        assert!(
            !notes_a
                .iter()
                .any(|(_, note)| matches!(note, MacEvent::Rx { .. })),
            "A must not be received without capture"
        );
        let notes_c = m.end(tx_c, end_at(2000));
        assert!(
            !notes_c
                .iter()
                .any(|(_, note)| matches!(note, MacEvent::Rx { .. })),
            "C was corrupted by A"
        );
    }

    #[test]
    fn interference_high_water_mark_outlives_the_interferer() {
        // Interferer overlaps only the first quarter of the frame; the
        // frame must still be judged by the worst-case overlap. Capture
        // is off so the lock provably stays with the first frame.
        let chan = LogNormalShadowing::from_friis(Dbm::new(0.0), 2.9, Db::ZERO);
        let mut m = Medium::with_quantization(
            chan,
            vec![
                Position::new(0.0, 0.0),  // A: sender
                Position::new(30.0, 0.0), // B: receiver (30 m)
                Position::new(32.0, 0.0), // C: close interferer
            ],
            false,
            StdRng::seed_from_u64(1),
            MediumBackend::Culled,
            Meters::new(DEFAULT_POSITION_QUANTUM_M),
        );
        let (tx_a, _) = m.begin(data(0, 1), SimTime::ZERO, end_at(2000));
        let (tx_c, _) = m.begin(data(2, 0), SimTime::ZERO, end_at(500));
        m.end(tx_c, end_at(500)); // interferer gone long before the frame ends
        let notes = m.end(tx_a, end_at(2000));
        assert!(
            !notes
                .iter()
                .any(|(n, note)| *n == NodeId(1) && matches!(note, MacEvent::Rx { .. })),
            "frame must be corrupted by the transient interferer"
        );
        assert!(
            m.stats().hazard_drops >= 1,
            "the corruption shows up in the counters"
        );
    }

    #[test]
    #[should_panic(expected = "second transmission")]
    fn double_transmit_panics() {
        let mut m = medium();
        let _ = m.begin(data(0, 1), SimTime::ZERO, end_at(1000));
        let _ = m.begin(data(0, 2), SimTime::ZERO, end_at(1000));
    }

    #[test]
    #[should_panic(expected = "scheduled to end at")]
    fn ending_at_the_wrong_time_panics() {
        let mut m = medium();
        let (tx, _) = m.begin(data(0, 1), SimTime::ZERO, end_at(1000));
        let _ = m.end(tx, end_at(900));
    }

    #[test]
    #[should_panic(expected = "not on the air")]
    fn ending_twice_panics() {
        let mut m = medium();
        let (tx, _) = m.begin(data(0, 1), SimTime::ZERO, end_at(1000));
        m.end(tx, end_at(1000));
        let _ = m.end(tx, end_at(1000));
    }

    #[test]
    fn a_sender_record_is_reused_without_id_aliasing() {
        let mut m = medium();
        let (tx1, _) = m.begin(data(0, 1), SimTime::ZERO, end_at(1000));
        m.end(tx1, end_at(1000));
        let (tx2, _) = m.begin(data(0, 1), end_at(1000), end_at(2000));
        assert_ne!(
            tx1, tx2,
            "generations keep a sender's frames distinguishable"
        );
        assert_eq!(m.active_count(), 1);
        m.end(tx2, end_at(2000));
        assert_eq!(m.active_count(), 0);
    }

    #[test]
    #[should_panic(expected = "not on the air")]
    fn a_stale_id_cannot_end_its_reused_slot() {
        let mut m = medium();
        let (tx1, _) = m.begin(data(0, 1), SimTime::ZERO, end_at(1000));
        m.end(tx1, end_at(1000));
        let _ = m.begin(data(0, 1), end_at(1000), end_at(2000));
        let _ = m.end(tx1, end_at(2000));
    }

    #[test]
    fn capture_shows_up_in_the_counters() {
        // C at 40 m (30 m from B): decodable alone (≈ −83 dBm, 12 dB over
        // the floor) but weak enough that A's frame (−69 dBm from 10 m)
        // clears the 11 Mbps threshold over it and steals the lock.
        let chan = LogNormalShadowing::from_friis(Dbm::new(0.0), 2.9, Db::ZERO);
        let mut m = Medium::with_quantization(
            chan,
            vec![
                Position::new(0.0, 0.0),
                Position::new(10.0, 0.0),
                Position::new(40.0, 0.0),
            ],
            true,
            StdRng::seed_from_u64(1),
            MediumBackend::Culled,
            Meters::new(DEFAULT_POSITION_QUANTUM_M),
        );
        let (_tx_c, _) = m.begin(data(2, 1), SimTime::ZERO, end_at(2000));
        assert_eq!(m.stats().captures, 0);
        let (_tx_a, _) = m.begin(data(0, 1), SimTime::ZERO, end_at(1000));
        assert_eq!(m.stats().captures, 1, "A's frame captures B's lock");
    }

    #[test]
    fn ledger_matches_recomputation_through_churn() {
        let chan = LogNormalShadowing::testbed(Dbm::new(0.0));
        let positions: Vec<Position> = (0..6)
            .map(|i| Position::new(10.0 * i as f64, 3.0 * i as f64))
            .collect();
        let mut m = Medium::with_quantization(
            chan,
            positions,
            true,
            StdRng::seed_from_u64(3),
            MediumBackend::Culled,
            Meters::new(DEFAULT_POSITION_QUANTUM_M),
        );
        let mut t = 0u64;
        for round in 0..200 {
            let src = round % 6;
            let dst = (round + 1) % 6;
            let (tx, _) = m.begin(data(src, dst), end_at(t), end_at(t + 100));
            assert_eq!(m.ledger_divergence_grains(), 0);
            m.end(tx, end_at(t + 100));
            assert_eq!(m.ledger_divergence_grains(), 0);
            t += 100;
        }
    }

    /// A far node (beyond the relevance floor) must see *exactly* no
    /// effect: no ledger grains, no sense note, no fading draw.
    #[test]
    fn sub_floor_link_contributes_exactly_nothing() {
        let chan = LogNormalShadowing::from_friis(Dbm::new(0.0), 2.9, Db::ZERO);
        for backend in [MediumBackend::Exhaustive, MediumBackend::Culled] {
            let mut m = Medium::with_quantization(
                chan,
                vec![
                    Position::new(0.0, 0.0),
                    Position::new(10.0, 0.0),
                    Position::new(5_000.0, 0.0), // ≈ −147 dBm mean: culled
                ],
                true,
                StdRng::seed_from_u64(1),
                backend,
                Meters::new(DEFAULT_POSITION_QUANTUM_M),
            );
            let idle = m.sensed(NodeId(2));
            let (tx, notes) = m.begin(data(0, 1), SimTime::ZERO, end_at(1000));
            assert_eq!(
                m.sensed(NodeId(2)),
                idle,
                "{backend:?}: ledger must not move"
            );
            assert!(
                !notes.iter().any(|(n, _)| *n == NodeId(2)),
                "{backend:?}: no note for a culled receiver"
            );
            let notes = m.end(tx, end_at(1000));
            assert!(!notes.iter().any(|(n, _)| *n == NodeId(2)));
            assert_eq!(m.sensed(NodeId(2)), idle);
        }
    }

    /// The candidate set of the culled gather is a superset of the
    /// relevant set, before and after movement.
    #[test]
    fn candidates_cover_the_relevant_set_across_moves() {
        let chan = LogNormalShadowing::testbed(Dbm::new(0.0));
        let positions: Vec<Position> = (0..12)
            .map(|i| Position::new(450.0 * (i % 4) as f64, 600.0 * (i / 4) as f64))
            .collect();
        let mut m = Medium::with_quantization(
            chan,
            positions,
            true,
            StdRng::seed_from_u64(9),
            MediumBackend::Culled,
            Meters::new(DEFAULT_POSITION_QUANTUM_M),
        );
        for step in 0..8 {
            for node in 0..12 {
                let cand = m.candidate_receivers(NodeId(node));
                for r in m.relevant_receivers(NodeId(node)) {
                    assert!(
                        cand.contains(&r),
                        "step {step}: node {node} relevant {r} missing from {cand:?}"
                    );
                }
            }
            let mover = NodeId(step % 12);
            m.set_position(mover, Position::new(37.0 * step as f64, 210.0));
        }
    }

    /// The counter-based slow-fade stream is a pure function of its key
    /// with standard-normal moments (under the ±6σ clamp, which clips
    /// only ~2e-9 of the mass).
    #[test]
    fn link_slow_stream_is_standard_normal_and_keyed() {
        let n = 20_000u32;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for i in 0..n {
            let z = link_slow_normal(0xDEAD_BEEF, i % 97, 100 + i / 97, (i % 5) as u64);
            assert!(z.abs() <= NORMAL_CLAMP_SIGMA, "clamped draw escaped: {z}");
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / f64::from(n);
        let var = sumsq / f64::from(n) - mean * mean;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
        // Same key, same draw; any key component changes the draw.
        assert_eq!(link_slow_normal(1, 2, 3, 4), link_slow_normal(1, 2, 3, 4));
        assert_ne!(link_slow_normal(1, 2, 3, 4), link_slow_normal(1, 2, 3, 5));
        assert_ne!(link_slow_normal(1, 2, 3, 4), link_slow_normal(2, 2, 3, 4));
        assert_ne!(link_slow_normal(1, 2, 3, 4), link_slow_normal(1, 3, 3, 4));
    }

    /// Satellite fix: both cache counters are in directed-link units.
    /// Construction computes nothing; the first read of a stale link is
    /// one recompute serving one lookup; the reciprocal direction and
    /// repeat reads are pure lookups.
    #[test]
    fn cache_counters_share_directed_link_units() {
        let chan = LogNormalShadowing::testbed(Dbm::new(0.0));
        let n = 8usize;
        // All within ~65 m: every link stays relevant under any ±6σ
        // draw, so lookups track relevant receivers exactly.
        let positions: Vec<Position> = (0..n)
            .map(|i| Position::new(9.0 * i as f64, 2.0 * i as f64))
            .collect();
        let mut m = Medium::with_quantization(
            chan,
            positions,
            true,
            StdRng::seed_from_u64(5),
            MediumBackend::Culled,
            Meters::new(DEFAULT_POSITION_QUANTUM_M),
        );
        assert_eq!(m.counters().cache_recomputes, 0, "construction is lazy");
        assert_eq!(m.counters().cache_lookups, 0);

        // First transmission: every directed read misses and refills.
        let (tx, _) = m.begin(data(0, 1), SimTime::ZERO, end_at(1000));
        m.end(tx, end_at(1000));
        let c = m.counters();
        assert_eq!(c.cache_recomputes, (n - 1) as u64);
        assert_eq!(c.cache_lookups, (n - 1) as u64);

        // Repeat transmission: pure lookups.
        let (tx, _) = m.begin(data(0, 2), end_at(1000), end_at(2000));
        m.end(tx, end_at(2000));
        let c = m.counters();
        assert_eq!(c.cache_recomputes, (n - 1) as u64);
        assert_eq!(c.cache_lookups, 2 * (n - 1) as u64);

        // Reverse direction: the reciprocal fill already freshened
        // 1 → 0, so only the 6 links not touching node 0 refill.
        let (tx, _) = m.begin(data(1, 0), end_at(2000), end_at(3000));
        m.end(tx, end_at(3000));
        let c = m.counters();
        assert_eq!(c.cache_recomputes, 2 * (n - 1) as u64 - 1);
        assert_eq!(c.cache_lookups, 3 * (n - 1) as u64);
        assert!(c.cache_recomputes <= c.cache_lookups);
    }

    /// Carrier-sense events track only the receivers whose power moved,
    /// so enabling observation mid-frame reports the already-busy nodes
    /// at once, and the frame's end then idles them.
    #[test]
    fn observation_enabled_mid_frame_reports_busy_nodes() {
        let mut m = medium();
        let (tx, _) = m.begin(data(0, 1), SimTime::ZERO, end_at(1000));
        m.enable_observation(Dbm::new(-80.0));
        let busy: Vec<SimEvent> = m.drain_events().collect();
        assert_eq!(busy, vec![SimEvent::CsBusy { node: NodeId(1) }]);
        m.end(tx, end_at(1000));
        let events: Vec<SimEvent> = m.drain_events().collect();
        assert!(
            events.contains(&SimEvent::CsIdle { node: NodeId(1) }),
            "{events:?}"
        );
        assert!(!events.iter().any(|e| matches!(
            e,
            SimEvent::CsBusy { .. } | SimEvent::CsIdle { node: NodeId(2) }
        )));
    }

    /// A row entry is the medium's memory per cached directed link: a
    /// peer and a mean, nothing derived.
    #[test]
    fn link_row_entry_is_at_most_sixteen_bytes() {
        assert!(std::mem::size_of::<RowEntry>() <= 16);
    }

    /// A move recomputes nothing by itself: it bumps the mover's epoch
    /// and the stale links refill on first use. Sub-quantum moves
    /// coalesce into true no-ops.
    #[test]
    fn moves_invalidate_lazily_and_micro_moves_coalesce() {
        let chan = LogNormalShadowing::testbed(Dbm::new(0.0));
        let n = 8usize;
        let positions: Vec<Position> = (0..n)
            .map(|i| Position::new(9.0 * i as f64, 2.0 * i as f64))
            .collect();
        let mut m = Medium::with_quantization(
            chan,
            positions,
            true,
            StdRng::seed_from_u64(5),
            MediumBackend::Culled,
            Meters::new(DEFAULT_POSITION_QUANTUM_M),
        );
        // Warm the transmitter's row.
        let (tx, _) = m.begin(data(0, 1), SimTime::ZERO, end_at(1000));
        m.end(tx, end_at(1000));
        assert_eq!(m.counters().cache_recomputes, (n - 1) as u64);

        // An applied move: epoch bump only, no recomputation yet.
        m.set_position(NodeId(3), Position::new(5.0, 40.0));
        let c = m.counters();
        assert_eq!(c.moves_applied, 1);
        assert_eq!(c.cache_recomputes, (n - 1) as u64, "moves recompute lazily");

        // The next transmission from 0 refreshes exactly the 0 ↔ 3 link.
        let (tx, _) = m.begin(data(0, 1), end_at(1000), end_at(2000));
        m.end(tx, end_at(2000));
        let c = m.counters();
        assert_eq!(c.cache_recomputes, n as u64);
        assert_eq!(c.cache_lookups, 2 * (n - 1) as u64);

        // A sub-quantum wiggle (default quantum 1 m) coalesces: same
        // quantum cell, no epoch bump, nothing goes stale.
        m.set_position(NodeId(3), Position::new(5.2, 40.1));
        assert_eq!(m.counters().moves_coalesced, 1);
        assert_eq!(m.position(NodeId(3)), Position::new(5.0, 40.0));
        let (tx, _) = m.begin(data(0, 1), end_at(2000), end_at(3000));
        m.end(tx, end_at(3000));
        let c = m.counters();
        assert_eq!(c.cache_recomputes, n as u64, "coalesced move stays warm");
        assert!(c.cache_recomputes <= c.cache_lookups);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The overflow lists always equal a from-scratch recomputation of
        /// their membership predicate — in particular, moving a node
        /// purges every stale entry referencing it from *other* nodes'
        /// lists. Dense random fields a few relevance ranges (~573 m)
        /// across put hundreds of pairs in the band where membership
        /// hinges on the slow draw and its per-draw skip radius, so a
        /// scan that read a smaller radius than the draw's own would
        /// drop a relevant link.
        #[test]
        fn overflow_lists_track_moves_symmetrically(
            seed in 0u64..100_000,
            n in 12usize..40,
            side in 900.0f64..2_600.0,
            moves in proptest::collection::vec((0usize..64, 0.0f64..1.0, 0.0f64..1.0), 1..10),
        ) {
            let mut pos_rng = StdRng::seed_from_u64(seed ^ 0x0E4F_1011);
            let positions = (0..n)
                .map(|_| Position::new(pos_rng.gen_range(0.0..side), pos_rng.gen_range(0.0..side)))
                .collect();
            let mut m = Medium::with_quantization(
                LogNormalShadowing::testbed(Dbm::new(0.0)),
                positions,
                true,
                StdRng::seed_from_u64(seed),
                MediumBackend::Culled,
                Meters::new(DEFAULT_POSITION_QUANTUM_M),
            );
            let check = |m: &Medium, when: &str| {
                for a in 0..n {
                    let relevant = m.relevant_receivers(NodeId(a));
                    let expected: Vec<NodeId> = relevant
                        .into_iter()
                        .filter(|&b| {
                            m.position(NodeId(a)).distance_to(m.position(b)).value()
                                > m.relevance_range().value()
                        })
                        .collect();
                    assert_eq!(
                        m.overflow_peers(NodeId(a)),
                        expected,
                        "seed {seed}, {when}: node {a} overflow list diverged from brute force"
                    );
                }
            };
            check(&m, "fresh");
            // Movers land anywhere in (and a little beyond) the field:
            // entries referencing them must appear and vanish
            // symmetrically.
            for (step, (idx, x, y)) in moves.into_iter().enumerate() {
                let to = Position::new(1.4 * side * x - 0.2 * side, 1.4 * side * y - 0.2 * side);
                m.set_position(NodeId(idx % n), to);
                check(&m, &format!("after move {step}"));
            }
        }
    }

    /// Every link-cache row is strictly ascending and symmetric, and every
    /// entry equals the link's mean at the current positions and epochs.
    /// Returns the number of entries checked.
    fn check_rows(m: &Medium, when: &str) -> usize {
        let mut entries = 0;
        for (a, row) in m.rows.iter().enumerate() {
            assert!(
                row.windows(2).all(|w| w[0].0 < w[1].0),
                "{when}: row {a} is not strictly ascending: {row:?}"
            );
            for &(b, dbm) in row {
                let b = b as usize;
                assert_ne!(b, a, "{when}: row {a} lists itself");
                assert!(
                    m.rows[b].binary_search_by_key(&(a as u32), |e| e.0).is_ok(),
                    "{when}: {b} is in row {a} but {a} is not in row {b}"
                );
                assert_eq!(
                    dbm.to_bits(),
                    m.compute_link_dbm(a, b).to_bits(),
                    "{when}: stale entry {a} → {b}"
                );
                entries += 1;
            }
        }
        entries
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// The rows stay exact under random moves — applied and
        /// coalesced alike — interleaved with transmissions: no move
        /// leaves an entry behind that a fill would compute differently.
        #[test]
        fn link_rows_stay_exact_under_moves(
            seed in 0u64..10_000,
            ops in proptest::collection::vec(
                (0u8..4, 0usize..16, 0.0f64..1500.0, 0.0f64..1500.0), 1..48),
        ) {
            let n = 5 + (seed % 7) as usize;
            let backend = if seed % 2 == 0 {
                MediumBackend::Culled
            } else {
                MediumBackend::Exhaustive
            };
            let mut pos_rng = StdRng::seed_from_u64(seed ^ 0x5EED_0F05);
            let positions = (0..n)
                .map(|_| Position::new(pos_rng.gen_range(0.0..1200.0), pos_rng.gen_range(0.0..1200.0)))
                .collect();
            let mut m = Medium::with_quantization(
                LogNormalShadowing::testbed(Dbm::new(0.0)),
                positions,
                true,
                StdRng::seed_from_u64(seed),
                backend,
                Meters::new(DEFAULT_POSITION_QUANTUM_M),
            );
            let mut t = 0u64;
            let mut active: Vec<(TxId, u64)> = Vec::new();
            let end_earliest = |m: &mut Medium, active: &mut Vec<(TxId, u64)>, t: &mut u64| {
                if let Some(i) = (0..active.len()).min_by_key(|&i| active[i].1) {
                    let (tx, end) = active.swap_remove(i);
                    *t = (*t).max(end);
                    m.end(tx, end_at(end));
                }
            };
            for (op, idx, x, y) in ops {
                let node = idx % n;
                match op {
                    0 => {
                        if !m.is_transmitting(NodeId(node)) {
                            let end = t + 40 + (idx as u64 % 5) * 37;
                            let (tx, _) = m.begin(data(node, (node + 1) % n), end_at(t), end_at(end));
                            active.push((tx, end));
                        }
                    }
                    1 => end_earliest(&mut m, &mut active, &mut t),
                    2 => m.set_position(NodeId(node), Position::new(x, y)),
                    _ => {
                        // Inside the mover's 1 m quantum cell: coalesces.
                        let p = m.position(NodeId(node));
                        let before = m.counters().moves_coalesced;
                        m.set_position(NodeId(node), Position::new(p.x + x / 4000.0, p.y - y / 4000.0));
                        assert_eq!(m.counters().moves_coalesced, before + 1);
                    }
                }
                t += 13;
                check_rows(&m, &format!("seed {seed} op {op}"));
            }
            while !active.is_empty() {
                end_earliest(&mut m, &mut active, &mut t);
            }
            // One frame from every node fills every row.
            for node in 0..n {
                let (tx, _) = m.begin(data(node, (node + 1) % n), end_at(t), end_at(t + 50));
                m.end(tx, end_at(t + 50));
                t += 50;
            }
            assert!(check_rows(&m, "filled") > 0, "seed {seed}: no row was ever filled");
        }
    }

    /// Both backends walk identical relevant sets and draw identical
    /// powers, so sensed() agrees bit for bit through churn and moves.
    #[test]
    fn backends_agree_through_churn_and_moves() {
        let chan = LogNormalShadowing::testbed(Dbm::new(0.0));
        let positions: Vec<Position> = (0..10)
            .map(|i| Position::new(120.0 * (i % 5) as f64, 260.0 * (i / 5) as f64))
            .collect();
        let mut ex = Medium::with_quantization(
            chan,
            positions.clone(),
            true,
            StdRng::seed_from_u64(11),
            MediumBackend::Exhaustive,
            Meters::new(DEFAULT_POSITION_QUANTUM_M),
        );
        let mut cu = Medium::with_quantization(
            chan,
            positions,
            true,
            StdRng::seed_from_u64(11),
            MediumBackend::Culled,
            Meters::new(DEFAULT_POSITION_QUANTUM_M),
        );
        let mut t = 0u64;
        for round in 0..120usize {
            let src = round % 10;
            let dst = (round + 3) % 10;
            let (txe, ne) = ex.begin(data(src, dst), end_at(t), end_at(t + 90));
            let (txc, nc) = cu.begin(data(src, dst), end_at(t), end_at(t + 90));
            assert_eq!(ne, nc, "round {round}: begin notes diverged");
            if round % 7 == 0 {
                let to = Position::new(31.0 * round as f64 % 700.0, 130.0);
                let mover = NodeId((round + 5) % 10);
                if !ex.is_transmitting(mover) {
                    ex.set_position(mover, to);
                    cu.set_position(mover, to);
                }
            }
            let ne = ex.end(txe, end_at(t + 90));
            let nc = cu.end(txc, end_at(t + 90));
            assert_eq!(ne, nc, "round {round}: end notes diverged");
            for n in 0..10 {
                assert_eq!(ex.sensed(NodeId(n)), cu.sensed(NodeId(n)));
            }
            t += 90;
        }
        assert_eq!(ex.stats(), cu.stats());
    }
}
