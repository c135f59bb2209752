//! Serving-layer memoization of whole-optimum solves.
//!
//! A serving front-end (the `rlckit-serve` daemon, a notebook kernel,
//! an interactive what-if tool) asks the same question — "optimum for
//! this wire under this driver" — over and over with inputs that differ
//! only in measurement noise. Each answer costs a full Newton solve
//! of about nine two-pole delay evaluations, so this module provides
//! [`OptimumMemo`]: a bounded, thread-safe, optionally *sharded* memo
//! table keyed on the *quantized* bit patterns of `(r, l, c)` plus the
//! exact driver and threshold bits.
//!
//! # Quantization — and why campaigns must not use this
//!
//! Keys round each line parameter to the nearest multiple of the
//! [`QUANT_BITS`]-bit mantissa bucket, so two inputs within a relative
//! ~1e-10 of each other share an entry and the second one is served
//! from cache. That is the point of the serving layer — and exactly why
//! **campaign paths never route through this table**: a quantized hit
//! returns the optimum of a *nearby* input, which breaks the
//! bit-identity contract the sweeps, the planner, and the checkpoint
//! format all guarantee. Campaign code calls [`optimize_rlc`] for every
//! point instead, so no cache can change a single output bit. Hits,
//! misses and evictions are observable as `memo.hits`, `memo.misses`
//! and `memo.evictions`.
//!
//! # Sharding
//!
//! [`OptimumMemo::sharded`] splits the table into independently locked
//! shards routed by a key hash ([`OptimumMemo::shard_of`]), so
//! concurrent lookups of different shards never serialize on one
//! mutex. A serving daemon pins worker *i* to shard *i* and routes each
//! request to the worker that owns its key — then a shard's lock is
//! only ever contended by that worker's own queue, not by its peers.
//! The capacity bound is **per shard**. [`OptimumMemo::new`] is the
//! single-shard configuration with the original whole-table semantics.
//!
//! # Eviction
//!
//! Each shard is a hash index from key to entry plus a recency list of
//! its entries: the front is the next eviction victim, the back the
//! newest insert or the latest promotion. A probe, a promotion, an
//! insert and an eviction each cost one to three hash operations and a
//! few index writes, independent of the shard's size; nothing scans or
//! shifts the shard. A shard at capacity evicts its front entry and
//! reuses its slot for the insert. Which entry sits at the front is the
//! [`Eviction`] policy, chosen at construction; both policies share the
//! one structure and differ only in whether a counted hit promotes:
//!
//! * [`Eviction::Fifo`] (the default of [`OptimumMemo::new`] and
//!   [`OptimumMemo::sharded`]) keeps strict insertion order — the
//!   original semantics, and what the single-session campaign-adjacent
//!   tools were written against.
//! * [`Eviction::Lru`] ([`OptimumMemo::sharded_with_eviction`])
//!   additionally **promotes an entry to the back on every hit**, so
//!   the front is the least-recently-*used* entry. A serving daemon
//!   whose sessions mix hot warm-grid keys with one-shot cold keys
//!   wants this: under FIFO the boot-time warm-grid entries are the
//!   *oldest inserts* and therefore the first evicted by cold-key
//!   churn, exactly backwards from their value. Under LRU the churn
//!   evicts the stale cold entries instead.
//!
//! Either way `memo.evictions` counts every displaced entry, and
//! [`OptimumMemo::preload`] / [`OptimumMemo::probe`] stay
//! order-neutral (a warm-start replay or a diagnostic probe must not
//! perturb the recency ranking). [`OptimumMemo::export`] walks each
//! shard front to back, so a snapshot reloaded into the same layout
//! evicts in the same order as the memo it was taken from.
//!
//! # First answer wins
//!
//! Two callers that miss on one key concurrently both solve, and the
//! first insert is kept. The loser of that race gets the retained
//! answer back from [`OptimumMemo::optimum_served`] (still labelled
//! [`Served::Solved`]: it paid for a solve), not its own fresh bits, so
//! every caller of a key, hit or miss, sees the same answer.
//!
//! # Telemetry and the lock
//!
//! Counter updates happen strictly *outside* the shard lock: the
//! critical section is confined to the find/insert itself (see
//! [`OptimumMemo::probe`], the telemetry-free locked read). The first
//! touch of a trace counter takes the process-wide registry lock, and
//! even steady-state increments are atomic RMWs — none of that belongs
//! in the section every concurrent lookup queues behind.

use std::collections::HashMap;
use std::sync::Mutex;

use rlckit_numeric::Result;
use rlckit_tech::DriverParams;
use rlckit_tline::LineRlc;
use rlckit_trace::counter;
use rlckit_units::{HenriesPerMeter, Meters, Seconds};

use crate::checkpoint::fingerprint64;
use crate::optimizer::{optimize_rlc, OptimizerOptions, RlcOptimum};

/// Quantization granularity: line parameters are rounded to the nearest
/// multiple of `1 << QUANT_BITS` in mantissa-bit space. 20 bits of a
/// 52-bit mantissa keep ~9.6 significant decimal digits — far inside
/// extraction noise for R/L/C values, far outside solver tolerance.
pub const QUANT_BITS: u32 = 20;

/// Default bound on the number of retained entries (per shard).
pub const DEFAULT_CAPACITY: usize = 256;

/// Rounds `x` to the nearest [`QUANT_BITS`]-bit bucket, collapsing
/// near-identical inputs onto one key. Total on all finite inputs;
/// `-0.0` maps to the `+0.0` key so the two zeroes share an entry.
///
/// Rounding is to the *nearest* bucket, not truncation: two
/// measurement-noise neighbours that straddle a bucket boundary (`x`
/// with mantissa ending `…FFFFF` and `x + 1 ulp`) land in the same
/// bucket, because both are within half a bucket of the same rounded
/// value. Truncation — the original implementation — split exactly
/// those pairs and made the second of two equal-for-all-purposes asks
/// pay a full re-solve.
#[must_use]
pub fn quantize(x: f64) -> u64 {
    let bucket = 1u64 << QUANT_BITS;
    let bits = if x == 0.0 { 0 } else { x.to_bits() };
    // Round half up in bit space: the bit patterns of same-sign finite
    // floats are monotone in magnitude, so adding half a bucket and
    // truncating is round-to-nearest. Finite inputs cannot wrap (the
    // largest finite pattern plus half a bucket stays below u64::MAX);
    // saturating keeps the function total anyway.
    bits.saturating_add(bucket >> 1) & !(bucket - 1)
}

/// Memo key: quantized `(r, l, c)` plus the exact driver and threshold
/// bits (a different driver or threshold is a different question, not a
/// noisy re-ask of the same one).
///
/// Exactly 7 words: the optimum is length-independent — the route
/// length enters only as a multiplier in
/// [`OptimumMemo::route_delay`] — so length has no key slot. (An
/// earlier revision carried a hardcoded `length = 0.0` word in every
/// key: dead weight compared and hashed on every probe.)
pub type MemoKey = [u64; 7];

/// Builds the [`MemoKey`] for a question. Public so serving layers can
/// route a request to [`OptimumMemo::shard_of`] its key *before*
/// touching any shard.
#[must_use]
pub fn key_for(line: &LineRlc, driver: &DriverParams, options: OptimizerOptions) -> MemoKey {
    [
        quantize(line.resistance().get()),
        quantize(line.inductance().get()),
        quantize(line.capacitance().get()),
        driver.output_resistance.get().to_bits(),
        driver.parasitic_capacitance.get().to_bits(),
        driver.input_capacitance.get().to_bits(),
        options.threshold.to_bits(),
    ]
}

/// Whether an answer came from the memo or from a fresh solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// The answer was found in the memo (bit-identical to the first
    /// answer stored under its key).
    Hit,
    /// The answer was computed by [`optimize_rlc`] and inserted — or,
    /// when a concurrent solve of the same key was stored first, the
    /// stored answer was returned in its place.
    Solved,
}

impl Served {
    /// Stable lower-case label (`"memo"` / `"solve"`) for protocol use.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Hit => "memo",
            Self::Solved => "solve",
        }
    }
}

/// Which entry a full shard evicts (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Eviction {
    /// Strict insertion order: the oldest *insert* is evicted first,
    /// regardless of how recently it was hit. The original semantics;
    /// the default everywhere but the serving daemon.
    #[default]
    Fifo,
    /// Least-recently-used: every hit promotes its entry to the back,
    /// so the eviction victim is the entry that has gone unasked the
    /// longest. What a long-lived daemon serving hot/cold mixes wants.
    Lru,
}

/// A bounded, thread-safe, sharded memo table over [`optimize_rlc`]
/// for serving layers. See the module docs for the quantization
/// semantics, the sharding model, and the campaign-path exclusion.
pub struct OptimumMemo {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    eviction: Eviction,
}

/// Marks the end of a shard's recency list.
const NIL: usize = usize::MAX;

/// One entry, threaded on its shard's recency list.
struct Slot {
    key: MemoKey,
    value: RlcOptimum,
    prev: usize,
    next: usize,
}

/// One shard: a hash index from key to slot, and the slots threaded on
/// a doubly linked recency list. The front is the eviction victim, the
/// back the newest insert or the latest promotion. Entries leave only
/// by eviction, and an eviction always makes room for the insert that
/// caused it, so the victim's slot is reused in place and the slab
/// never has holes.
struct Shard {
    index: HashMap<MemoKey, usize>,
    slots: Vec<Slot>,
    front: usize,
    back: usize,
}

impl Shard {
    fn new() -> Self {
        Self {
            index: HashMap::new(),
            slots: Vec::new(),
            front: NIL,
            back: NIL,
        }
    }

    fn get(&self, key: &MemoKey) -> Option<RlcOptimum> {
        self.index.get(key).map(|&i| self.slots[i].value)
    }

    fn unlink(&mut self, i: usize) {
        let Slot { prev, next, .. } = self.slots[i];
        match prev {
            NIL => self.front = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.back = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_back(&mut self, i: usize) {
        self.slots[i].prev = self.back;
        self.slots[i].next = NIL;
        match self.back {
            NIL => self.front = i,
            b => self.slots[b].next = i,
        }
        self.back = i;
    }

    /// The value under `key`, moved to the back of the recency list.
    fn get_promote(&mut self, key: &MemoKey) -> Option<RlcOptimum> {
        let i = *self.index.get(key)?;
        if i != self.back {
            self.unlink(i);
            self.push_back(i);
        }
        Some(self.slots[i].value)
    }

    /// Stores `value` at the back unless `key` is present (then the
    /// retained value comes back as the error, and nothing moves). A
    /// full shard first evicts its front entry; `Ok(true)` reports it.
    fn insert(
        &mut self,
        key: MemoKey,
        value: RlcOptimum,
        capacity: usize,
    ) -> std::result::Result<bool, RlcOptimum> {
        if let Some(&i) = self.index.get(&key) {
            return Err(self.slots[i].value);
        }
        let evicted = self.slots.len() >= capacity;
        let slot = Slot {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let i = if evicted {
            let i = self.front;
            self.unlink(i);
            self.index.remove(&self.slots[i].key);
            self.slots[i] = slot;
            i
        } else {
            self.slots.push(slot);
            self.slots.len() - 1
        };
        self.index.insert(key, i);
        self.push_back(i);
        Ok(evicted)
    }

    /// Entries in recency order, front (next victim) first.
    fn iter(&self) -> impl Iterator<Item = &Slot> {
        std::iter::successors(self.slots.get(self.front), |s| self.slots.get(s.next))
    }
}

impl Default for OptimumMemo {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl OptimumMemo {
    /// Creates a single-shard memo retaining at most `capacity` entries
    /// (clamped to ≥ 1); the oldest entry is evicted first.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::sharded(1, capacity)
    }

    /// Creates a memo of `shards` independently locked shards (clamped
    /// to ≥ 1), each retaining at most `shard_capacity` entries, with
    /// the original [`Eviction::Fifo`] policy.
    #[must_use]
    pub fn sharded(shards: usize, shard_capacity: usize) -> Self {
        Self::sharded_with_eviction(shards, shard_capacity, Eviction::Fifo)
    }

    /// [`OptimumMemo::sharded`] with an explicit [`Eviction`] policy —
    /// the serving daemon passes [`Eviction::Lru`] here so cold-key
    /// churn cannot flush the warm grid.
    #[must_use]
    pub fn sharded_with_eviction(shards: usize, shard_capacity: usize, eviction: Eviction) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| Mutex::new(Shard::new())).collect(),
            shard_capacity: shard_capacity.max(1),
            eviction,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The eviction policy chosen at construction.
    #[must_use]
    pub fn eviction(&self) -> Eviction {
        self.eviction
    }

    /// Maximum entries retained per shard.
    #[must_use]
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// The shard a key routes to: an FNV-1a hash of the key words,
    /// reduced modulo the shard count. Stable across processes (the
    /// warm-start snapshot relies on nothing — entries re-route on
    /// load — but request routers rely on it within a process).
    #[must_use]
    pub fn shard_of(&self, key: &MemoKey) -> usize {
        (fingerprint64(key.iter().copied()) % self.shards.len() as u64) as usize
    }

    /// Number of currently retained entries in shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`. A poisoned lock is recovered:
    /// entries are plain data, and no shard update can panic between
    /// its writes short of a broken index, which is a bug.
    #[must_use]
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .slots
            .len()
    }

    /// Total number of currently retained entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|s| self.shard_len(s)).sum()
    }

    /// True when no entries are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The continuous optimum for `line` under `driver`, served from
    /// the memo when a quantization-equal question was answered before.
    ///
    /// # Errors
    ///
    /// Propagates [`optimize_rlc`] failures; failed solves are never
    /// cached, so a transient fault does not poison the table.
    pub fn optimum(
        &self,
        line: &LineRlc,
        driver: &DriverParams,
        options: OptimizerOptions,
    ) -> Result<RlcOptimum> {
        Ok(self.optimum_served(line, driver, options)?.0)
    }

    /// [`OptimumMemo::optimum`] plus whether the answer was a memo hit
    /// or a fresh solve — serving layers report this per response. A
    /// solve that loses the insert race to a concurrent solve of the
    /// same key returns the retained answer (see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates [`optimize_rlc`] failures.
    pub fn optimum_served(
        &self,
        line: &LineRlc,
        driver: &DriverParams,
        options: OptimizerOptions,
    ) -> Result<(RlcOptimum, Served)> {
        let key = key_for(line, driver, options);
        if let Some(hit) = self.lookup(&key) {
            return Ok((hit, Served::Hit));
        }
        let solved = optimize_rlc(line, driver, options)?;
        // A racing solver may have stored this key meanwhile: serve its
        // answer, so every caller of a key sees the first answer.
        let answer = self.insert(key, solved).err().unwrap_or(solved);
        Ok((answer, Served::Solved))
    }

    /// Total optimally-buffered delay of a route of `length`. The
    /// optimum is length-independent (delay per unit length times the
    /// route), so every length is served from the same memo entry.
    ///
    /// # Errors
    ///
    /// Propagates [`optimize_rlc`] failures.
    pub fn route_delay(
        &self,
        line: &LineRlc,
        driver: &DriverParams,
        length: Meters,
        options: OptimizerOptions,
    ) -> Result<Seconds> {
        Ok(self.optimum(line, driver, options)?.total_delay(length))
    }

    /// Critical inductance `l_crit` (Eq. 4) evaluated at the optimal
    /// `(h, k)` for this line — the paper's "does inductance matter
    /// here?" answer, served through the same memo entry as
    /// [`OptimumMemo::optimum`].
    ///
    /// # Errors
    ///
    /// Propagates [`optimize_rlc`] failures.
    pub fn lcrit(
        &self,
        line: &LineRlc,
        driver: &DriverParams,
        options: OptimizerOptions,
    ) -> Result<HenriesPerMeter> {
        Ok(self.optimum(line, driver, options)?.critical_inductance)
    }

    /// Telemetry-free locked read: the cached answer for `key`, if any.
    ///
    /// This is the *entire* critical section of a lookup — `memo.hits`
    /// / `memo.misses` accounting happens in the caller after the lock
    /// is released, so the section concurrent lookups queue behind
    /// contains no atomic counter RMWs and can never take the trace
    /// registry lock. Warm-start verification and tests use it directly
    /// to inspect the table without disturbing the counters.
    #[must_use]
    pub fn probe(&self, key: &MemoKey) -> Option<RlcOptimum> {
        self.shards[self.shard_of(key)]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(key)
    }

    /// Inserts an already-solved optimum without touching the hit/miss
    /// counters — the warm-start path (boot-time grid pre-solve and
    /// snapshot reload). Returns `true` if the entry was inserted,
    /// `false` if the key was already present (first answer wins, as
    /// everywhere). Evictions are counted as usual.
    pub fn preload(&self, key: MemoKey, value: RlcOptimum) -> bool {
        self.insert(key, value).is_ok()
    }

    /// Copies out every retained entry, shard by shard, each shard in
    /// recency order (next eviction victim first) — the warm-start
    /// snapshot writer. Preloading the copy into an empty memo of the
    /// same layout rebuilds the same recency order.
    #[must_use]
    pub fn export(&self) -> Vec<(MemoKey, RlcOptimum)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            out.extend(shard.iter().map(|s| (s.key, s.value)));
        }
        out
    }

    /// Locked read that additionally moves a hit entry to the back of
    /// its shard — the [`Eviction::Lru`] promote-on-hit step. Only the
    /// counting lookup path promotes; [`OptimumMemo::probe`] and
    /// [`OptimumMemo::preload`] are order-neutral by contract.
    fn probe_promote(&self, key: &MemoKey) -> Option<RlcOptimum> {
        self.shards[self.shard_of(key)]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get_promote(key)
    }

    fn lookup(&self, key: &MemoKey) -> Option<RlcOptimum> {
        let hit = match self.eviction {
            Eviction::Fifo => self.probe(key),
            Eviction::Lru => self.probe_promote(key),
        };
        // Counters deliberately live outside the lock (see module docs).
        if hit.is_some() {
            counter!("memo.hits").incr();
        } else {
            counter!("memo.misses").incr();
        }
        hit
    }

    /// Stores `value` under `key`, or returns the value already stored
    /// there (first answer wins). A full shard evicts its front entry —
    /// the oldest insert under [`Eviction::Fifo`], the least-recently-used
    /// entry under [`Eviction::Lru`] (hits move entries to the back).
    /// Eviction counting happens after the lock is released.
    fn insert(&self, key: MemoKey, value: RlcOptimum) -> std::result::Result<(), RlcOptimum> {
        let evicted = self.shards[self.shard_of(&key)]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, value, self.shard_capacity)?;
        if evicted {
            counter!("memo.evictions").incr();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_tech::TechNode;
    use rlckit_units::HenriesPerMeter;

    fn setup() -> (LineRlc, DriverParams) {
        let node = TechNode::nm100();
        let line = LineRlc::new(
            node.line().resistance,
            HenriesPerMeter::from_nano_per_milli(1.8),
            node.line().capacitance,
        );
        (line, node.driver())
    }

    #[test]
    fn quantize_collapses_neighbours_and_zeroes() {
        let x = 1.8e-6_f64;
        let noisy = f64::from_bits(x.to_bits() + 3);
        assert_eq!(quantize(x), quantize(noisy));
        assert_eq!(quantize(0.0), quantize(-0.0));
        assert_ne!(quantize(1.0), quantize(2.0));
    }

    /// Pre-fix regression for the truncating quantizer: two neighbours
    /// one ulp apart that straddle a bucket boundary (`…FFFFF` /
    /// `…00000` low mantissa bits) must share a bucket. Truncation put
    /// them in different buckets, so the second of two noise-equal asks
    /// paid a full re-solve.
    #[test]
    fn quantize_rounds_across_bucket_boundaries() {
        let low_mask = (1u64 << QUANT_BITS) - 1;
        let x = f64::from_bits(1.8e-6_f64.to_bits() | low_mask);
        let up = f64::from_bits(x.to_bits() + 1);
        assert_eq!(
            quantize(x),
            quantize(up),
            "boundary-straddling ulp neighbours must share a bucket"
        );
        // Rounding is to the *nearest* bucket: a value just under the
        // midpoint keeps the lower bucket, just over takes the upper.
        let base = 1.0f64.to_bits();
        let below_mid = f64::from_bits(base | (low_mask >> 1));
        let above_mid = f64::from_bits(base | ((low_mask >> 1) + 1));
        assert_eq!(quantize(below_mid), base);
        assert_eq!(quantize(above_mid), base + (1u64 << QUANT_BITS));
        // Negative values round on magnitude, and the sign survives.
        assert_eq!(quantize(-1.0), (-1.0f64).to_bits());
        assert_ne!(quantize(-1.0), quantize(1.0));
    }

    /// Pre-fix regression for the dead length slot: the key is exactly
    /// the 7 live words — quantized (r, l, c) and exact driver and
    /// threshold bits. The old 8-word key carried a hardcoded
    /// `quantize(0.0)` length component that no caller could vary.
    #[test]
    fn key_has_exactly_the_seven_live_words() {
        let (line, driver) = setup();
        let opts = OptimizerOptions::default();
        let key = key_for(&line, &driver, opts);
        assert_eq!(key.len(), 7);
        assert_eq!(
            key,
            [
                quantize(line.resistance().get()),
                quantize(line.inductance().get()),
                quantize(line.capacitance().get()),
                driver.output_resistance.get().to_bits(),
                driver.parasitic_capacitance.get().to_bits(),
                driver.input_capacitance.get().to_bits(),
                opts.threshold.to_bits(),
            ]
        );
    }

    #[test]
    fn second_ask_is_served_from_the_memo() {
        let (line, driver) = setup();
        let memo = OptimumMemo::default();
        // A measurement-noise perturbation of the inductance: same key.
        let noisy = LineRlc::new(
            line.resistance(),
            HenriesPerMeter::new(f64::from_bits(line.inductance().get().to_bits() + 1)),
            line.capacitance(),
        );
        let (((a, first), (b, second)), delta) = rlckit_trace::scoped(|| {
            let opts = OptimizerOptions::default();
            let first = memo.optimum_served(&line, &driver, opts).unwrap();
            (first, memo.optimum_served(&noisy, &driver, opts).unwrap())
        });
        assert_eq!(first, Served::Solved);
        assert_eq!(second, Served::Hit);
        assert_eq!(delta.counter("memo.misses"), 1);
        assert_eq!(delta.counter("memo.hits"), 1);
        assert_eq!(
            a.segment_delay.get().to_bits(),
            b.segment_delay.get().to_bits(),
            "a hit must return the cached optimum verbatim"
        );
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn distinct_questions_do_not_collide() {
        let (line, driver) = setup();
        let memo = OptimumMemo::default();
        let a = memo.optimum(&line, &driver, OptimizerOptions::default()).unwrap();
        let other = LineRlc::new(
            line.resistance(),
            HenriesPerMeter::from_nano_per_milli(0.9),
            line.capacitance(),
        );
        let b = memo.optimum(&other, &driver, OptimizerOptions::default()).unwrap();
        assert_eq!(memo.len(), 2);
        assert_ne!(
            a.segment_length.get().to_bits(),
            b.segment_length.get().to_bits()
        );
        // Thresholds key separately even on the same line.
        let opts = OptimizerOptions {
            threshold: 0.9,
            ..OptimizerOptions::default()
        };
        memo.optimum(&line, &driver, opts).unwrap();
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn capacity_bound_evicts_the_oldest_entry() {
        let (line, driver) = setup();
        let memo = OptimumMemo::new(2);
        let at = |nano_per_milli| {
            let l = LineRlc::new(
                line.resistance(),
                HenriesPerMeter::from_nano_per_milli(nano_per_milli),
                line.capacitance(),
            );
            memo.optimum(&l, &driver, OptimizerOptions::default()).unwrap();
        };
        let (_, delta) = rlckit_trace::scoped(|| [1.0, 1.4, 1.8].map(at));
        assert_eq!(memo.len(), 2);
        assert_eq!(delta.counter("memo.evictions"), 1);
        // The oldest (1.0 nH/mm) was evicted: asking again re-solves.
        let ((), delta) = rlckit_trace::scoped(|| at(1.0));
        assert_eq!(delta.counter("memo.misses"), 1);
    }

    /// The LRU policy's whole point: a hit must promote, so the hot
    /// entry survives the eviction that would have taken it under
    /// FIFO. (Pre-LRU, a daemon's boot-time warm grid was always the
    /// oldest insert and therefore the first casualty of cold churn.)
    #[test]
    fn lru_hits_promote_and_redirect_eviction() {
        let (line, driver) = setup();
        let opts = OptimizerOptions::default();
        let at = |nano_per_milli: f64| {
            LineRlc::new(
                line.resistance(),
                HenriesPerMeter::from_nano_per_milli(nano_per_milli),
                line.capacitance(),
            )
        };
        let memo = OptimumMemo::sharded_with_eviction(1, 2, Eviction::Lru);
        assert_eq!(memo.eviction(), Eviction::Lru);
        let hot = at(1.0);
        let ((), delta) = rlckit_trace::scoped(|| {
            memo.optimum(&hot, &driver, opts).unwrap(); // insert hot
            memo.optimum(&at(1.4), &driver, opts).unwrap(); // insert cold
            memo.optimum(&hot, &driver, opts).unwrap(); // hit hot → promote
            memo.optimum(&at(1.8), &driver, opts).unwrap(); // evicts 1.4, not hot
        });
        assert_eq!(delta.counter("memo.evictions"), 1, "evictions still count");
        assert!(
            memo.probe(&key_for(&hot, &driver, opts)).is_some(),
            "the promoted hot entry must survive"
        );
        assert!(
            memo.probe(&key_for(&at(1.4), &driver, opts)).is_none(),
            "the stale entry must be the victim"
        );
        // Under FIFO the same sequence evicts the hot entry instead.
        let fifo = OptimumMemo::sharded(1, 2);
        assert_eq!(fifo.eviction(), Eviction::Fifo);
        fifo.optimum(&hot, &driver, opts).unwrap();
        fifo.optimum(&at(1.4), &driver, opts).unwrap();
        fifo.optimum(&hot, &driver, opts).unwrap();
        fifo.optimum(&at(1.8), &driver, opts).unwrap();
        assert!(
            fifo.probe(&key_for(&hot, &driver, opts)).is_none(),
            "FIFO ignores recency: the oldest insert goes first"
        );
    }

    /// Probe and preload are order-neutral even under LRU: neither a
    /// diagnostic probe nor a warm-start duplicate may perturb the
    /// recency ranking.
    #[test]
    fn lru_probe_and_preload_do_not_promote() {
        let (line, driver) = setup();
        let opts = OptimizerOptions::default();
        let at = |nano_per_milli: f64| {
            LineRlc::new(
                line.resistance(),
                HenriesPerMeter::from_nano_per_milli(nano_per_milli),
                line.capacitance(),
            )
        };
        let memo = OptimumMemo::sharded_with_eviction(1, 2, Eviction::Lru);
        let first = at(1.0);
        memo.optimum(&first, &driver, opts).unwrap();
        let second = at(1.4);
        memo.optimum(&second, &driver, opts).unwrap();
        let first_key = key_for(&first, &driver, opts);
        // A probe and a duplicate preload of the front entry...
        let value = memo.probe(&first_key).unwrap();
        assert!(!memo.preload(first_key, value));
        // ...must leave it at the front: the next insert evicts it.
        memo.optimum(&at(1.8), &driver, opts).unwrap();
        assert!(
            memo.probe(&first_key).is_none(),
            "probe/preload must not have promoted the front entry"
        );
        assert!(memo.probe(&key_for(&second, &driver, opts)).is_some());
    }

    /// Regression for the dead length slot (behavioural half): an
    /// `optimum` ask and `route_delay` asks at two different lengths
    /// all share **one** memo entry — one miss, then hits.
    #[test]
    fn optimum_and_route_delay_share_one_entry() {
        let (line, driver) = setup();
        let memo = OptimumMemo::default();
        let opts = OptimizerOptions::default();
        let ((opt, d1, d2), delta) = rlckit_trace::scoped(|| {
            let opt = memo.optimum(&line, &driver, opts).unwrap();
            let d1 = memo.route_delay(&line, &driver, Meters::from_milli(30.0), opts);
            let d2 = memo.route_delay(&line, &driver, Meters::from_milli(60.0), opts);
            (opt, d1.unwrap(), d2.unwrap())
        });
        assert_eq!(memo.len(), 1, "every length maps onto the optimum's entry");
        assert_eq!(delta.counter("memo.misses"), 1, "one solve serves all lengths");
        assert_eq!(delta.counter("memo.hits"), 2);
        assert_eq!(
            d1.get().to_bits(),
            opt.total_delay(Meters::from_milli(30.0)).get().to_bits()
        );
        assert!(d2.get() > d1.get());
    }

    #[test]
    fn lcrit_is_served_from_the_optimum_entry() {
        let (line, driver) = setup();
        let memo = OptimumMemo::default();
        let opts = OptimizerOptions::default();
        let ((opt, lc), delta) = rlckit_trace::scoped(|| {
            let opt = memo.optimum(&line, &driver, opts).unwrap();
            (opt, memo.lcrit(&line, &driver, opts).unwrap())
        });
        assert_eq!(lc.get().to_bits(), opt.critical_inductance.get().to_bits());
        assert_eq!(delta.counter("memo.misses"), 1);
        assert_eq!(delta.counter("memo.hits"), 1);
        assert!(lc.get() > 0.0);
    }

    /// Regression for lock-held counter updates: [`OptimumMemo::probe`]
    /// is the entire critical section of a lookup and must record
    /// nothing — hit/miss accounting happens outside the lock. Before
    /// the fix the locked region itself bumped the counters (and on
    /// first touch took the trace registry lock while still holding the
    /// entries mutex), so no telemetry-free locked read could exist.
    #[test]
    fn probe_is_telemetry_free_and_lookup_counts_outside_the_lock() {
        let (line, driver) = setup();
        let memo = OptimumMemo::default();
        let opts = OptimizerOptions::default();
        memo.optimum(&line, &driver, opts).unwrap();
        let key = key_for(&line, &driver, opts);

        let ((), delta) = rlckit_trace::scoped(|| {
            assert!(memo.probe(&key).is_some());
            assert!(memo.probe(&[0; 7]).is_none());
        });
        assert_eq!(delta.counter("memo.hits"), 0, "probe must not count");
        assert_eq!(delta.counter("memo.misses"), 0, "probe must not count");

        // The counting lookup path still records exactly once per ask.
        let (_, delta) = rlckit_trace::scoped(|| memo.optimum(&line, &driver, opts).unwrap());
        assert_eq!(delta.counter("memo.hits"), 1);
        assert_eq!(delta.counter("memo.misses"), 0);
    }

    /// First answer wins across a race: the solve that stores second
    /// gets the first answer back, and the stored entry does not move.
    #[test]
    fn a_lost_insert_race_returns_the_stored_answer() {
        let (line, driver) = setup();
        let opts = OptimizerOptions::default();
        let memo = OptimumMemo::sharded_with_eviction(1, 2, Eviction::Lru);
        let key = key_for(&line, &driver, opts);
        let first = optimize_rlc(&line, &driver, opts).unwrap();
        let late = RlcOptimum {
            segment_delay: Seconds::new(first.segment_delay.get() * 2.0),
            ..first
        };
        assert_eq!(memo.insert(key, first), Ok(()));
        let retained = memo.insert(key, late).expect_err("the key is already stored");
        assert_eq!(
            retained.segment_delay.get().to_bits(),
            first.segment_delay.get().to_bits(),
            "the losing insert must hand back the first answer"
        );
        assert_eq!(
            memo.probe(&key).unwrap().segment_delay.get().to_bits(),
            first.segment_delay.get().to_bits()
        );
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn sharded_memo_routes_keys_stably_and_bounds_each_shard() {
        let (line, driver) = setup();
        let memo = OptimumMemo::sharded(4, 2);
        assert_eq!(memo.shard_count(), 4);
        let mut inserted = Vec::new();
        for i in 0..10 {
            let l = LineRlc::new(
                line.resistance(),
                HenriesPerMeter::from_nano_per_milli(0.5 + 0.4 * f64::from(i)),
                line.capacitance(),
            );
            memo.optimum(&l, &driver, OptimizerOptions::default()).unwrap();
            inserted.push(key_for(&l, &driver, OptimizerOptions::default()));
        }
        for s in 0..memo.shard_count() {
            assert!(memo.shard_len(s) <= 2, "shard {s} exceeded its capacity");
        }
        // Routing is a pure function of the key.
        for key in &inserted {
            assert_eq!(memo.shard_of(key), memo.shard_of(key));
            assert!(memo.shard_of(key) < 4);
        }
        // Keys spread across more than one shard on this grid.
        let shards_used: std::collections::BTreeSet<usize> =
            inserted.iter().map(|k| memo.shard_of(k)).collect();
        assert!(shards_used.len() > 1, "hash routing degenerated to one shard");
    }

    #[test]
    fn preload_and_export_round_trip_without_counters() {
        let (line, driver) = setup();
        let source = OptimumMemo::sharded(3, 8);
        for i in 0..5 {
            let l = LineRlc::new(
                line.resistance(),
                HenriesPerMeter::from_nano_per_milli(0.6 + 0.5 * f64::from(i)),
                line.capacitance(),
            );
            source.optimum(&l, &driver, OptimizerOptions::default()).unwrap();
        }
        let entries = source.export();
        assert_eq!(entries.len(), 5);

        let target = OptimumMemo::sharded(5, 8);
        let ((), delta) = rlckit_trace::scoped(|| {
            for (key, value) in &entries {
                assert!(target.preload(*key, *value), "fresh preload must insert");
                assert!(!target.preload(*key, *value), "duplicate preload must no-op");
            }
        });
        assert_eq!(delta.counter("memo.hits"), 0);
        assert_eq!(delta.counter("memo.misses"), 0);
        assert_eq!(target.len(), 5);
        for (key, value) in &entries {
            let cached = target.probe(key).expect("preloaded entry present");
            assert_eq!(
                cached.segment_delay.get().to_bits(),
                value.segment_delay.get().to_bits()
            );
        }
    }
}
