//! Property tests for the sharded [`rlckit::memo`] table, each reading
//! the `memo.*` counters of its own trace scope.
//!
//! **Differential.** [`VecShards`] below is the `Vec` shard that the
//! memo's shard replaced, reduced to keys:
//! each shard is a `Vec` in eviction order, searched linearly, that
//! promotes a counted LRU hit by `remove` + `push` and evicts with
//! `remove(0)`. One seeded sequence of counted asks (a miss solves and
//! inserts), preloads and probes drives both it and a real
//! [`OptimumMemo`], under FIFO and LRU, over 1 and 3 shards and shard
//! capacities 1–8. After every operation the two must agree on hit or
//! miss, inserted or not, the `memo.evictions` delta, `len()`, every
//! `shard_len`, and the `export()` sequence. Every key is only ever
//! asked with one exact line, so a value is a function of its key and
//! the model need not store values; the export's value bits are checked
//! against a cold solve of the key's line.
//!
//! **Concurrency.** N threads replay seeded mixes of identical re-asks, ulp-level noisy
//! neighbours, and distinct questions against one shared memo, and the
//! quiescent state afterwards must satisfy the serving-layer contract:
//!
//! * **no lost inserts** — every quantized key that was asked has a
//!   retained entry (capacity is sized so nothing evicts);
//! * **per-shard capacity bound** — no shard ever exceeds its limit;
//! * **counter consistency** — `memo.hits + memo.misses` equals the
//!   number of asks exactly (each lookup counts once, outside the
//!   lock), and misses at least cover the distinct keys;
//! * **hit bit-identity** — every *hit*, from any thread, carries the
//!   exact bits of the entry retained under its key; and for keys first
//!   solved from exact (un-noised) inputs those bits are what a cold
//!   [`optimize_rlc`] of the same question returns.
//!
//! The mix runs in two concurrent phases. The warm phase asks only the
//! exact universe lines, so however the first-insert races resolve, the
//! retained bits equal a cold solve. The mixed phase then adds noisy
//! neighbours and cold strays; neighbours hit the already-present keys,
//! so their answers must be the retained (exact-line) bits — noise in,
//! canonical bits out.
//!
//! A final race phase makes first-insert races likely on purpose: the
//! threads meet at a barrier, then all ask one fresh key, each with its
//! own noisy line, so two racing solves carry different bits. Every
//! answer of a key, hit or solve, must then be the retained entry's
//! bits — the loser of an insert race gets the winner's answer back.
//! Whether a given round races is up to the scheduler; the assertion
//! holds either way.

use std::collections::{BTreeMap, BTreeSet};

use rlckit::memo::{key_for, quantize, Eviction, MemoKey, OptimumMemo, Served, QUANT_BITS};
use rlckit::optimizer::{optimize_rlc, OptimizerOptions, RlcOptimum};
use rlckit_numeric::rng::Rng;
use rlckit_tech::TechNode;
use rlckit_tline::LineRlc;
use rlckit_units::HenriesPerMeter;

const KEYS: usize = 12;
const OPS_PER_CASE: usize = 120;

/// The earlier shard layout: one `Vec` per shard, front = next victim.
struct VecShards {
    shards: Vec<Vec<MemoKey>>,
    capacity: usize,
    lru: bool,
}

impl VecShards {
    fn probe(&self, shard: usize, key: &MemoKey) -> bool {
        self.shards[shard].contains(key)
    }

    /// A counted lookup: under LRU a hit moves to the back.
    fn lookup(&mut self, shard: usize, key: &MemoKey) -> bool {
        let entries = &mut self.shards[shard];
        let Some(index) = entries.iter().position(|k| k == key) else {
            return false;
        };
        if self.lru {
            let entry = entries.remove(index);
            entries.push(entry);
        }
        true
    }

    /// Returns `(inserted, evicted)`.
    fn insert(&mut self, shard: usize, key: MemoKey) -> (bool, bool) {
        let entries = &mut self.shards[shard];
        if entries.contains(&key) {
            return (false, false);
        }
        let evicted = entries.len() >= self.capacity;
        if evicted {
            entries.remove(0);
        }
        entries.push(key);
        (true, evicted)
    }
}

fn evictions() -> u64 {
    rlckit_trace::Scope::current().snapshot().counter("memo.evictions")
}

#[test]
fn new_shard_matches_the_vec_shard_op_for_op() {
    rlckit_trace::Scope::new().enter(differential);
}

fn differential() {
    let node = TechNode::nm100();
    let driver = node.driver();
    let options = OptimizerOptions::default();
    let lines: Vec<LineRlc> = (0..KEYS)
        .map(|i| {
            LineRlc::new(
                node.line().resistance,
                HenriesPerMeter::from_nano_per_milli(0.3 + 0.4 * i as f64),
                node.line().capacitance,
            )
        })
        .collect();
    let keys: Vec<MemoKey> = lines.iter().map(|l| key_for(l, &driver, options)).collect();
    let values: Vec<RlcOptimum> = lines
        .iter()
        .map(|l| optimize_rlc(l, &driver, options).expect("physical inputs converge"))
        .collect();
    let index_of = |key: &MemoKey| keys.iter().position(|k| k == key).expect("known key");

    let mut rng = Rng::new(0xD1FF_0001);
    let (mut hits, mut evicted) = (0u64, 0u64);
    for eviction in [Eviction::Fifo, Eviction::Lru] {
        for shard_count in [1, 3] {
            for capacity in 1..=8 {
                let case = format!("{eviction:?}, {shard_count} shards, capacity {capacity}");
                let memo = OptimumMemo::sharded_with_eviction(shard_count, capacity, eviction);
                let mut model = VecShards {
                    shards: vec![Vec::new(); shard_count],
                    capacity,
                    lru: eviction == Eviction::Lru,
                };
                for step in 0..OPS_PER_CASE {
                    // Skewed draw: a third of the ops go to three hot
                    // keys, so LRU promotions change the victims.
                    let i = if rng.index(3) == 0 {
                        rng.index(3)
                    } else {
                        rng.index(KEYS)
                    };
                    let key = keys[i];
                    let shard = memo.shard_of(&key);
                    let before = evictions();
                    let (op, expected_evicted) = match rng.index(10) {
                        0..=5 => {
                            let (_, served) = memo
                                .optimum_served(&lines[i], &driver, options)
                                .expect("physical inputs converge");
                            let hit = model.lookup(shard, &key);
                            assert_eq!(served == Served::Hit, hit, "{case}, step {step}: ask");
                            hits += u64::from(hit);
                            let evicted = !hit && model.insert(shard, key).1;
                            ("ask", evicted)
                        }
                        6..=7 => {
                            let inserted = memo.preload(key, values[i]);
                            let (expected, evicted) = model.insert(shard, key);
                            assert_eq!(inserted, expected, "{case}, step {step}: preload");
                            ("preload", evicted)
                        }
                        _ => {
                            let found = memo.probe(&key);
                            assert_eq!(
                                found.is_some(),
                                model.probe(shard, &key),
                                "{case}, step {step}: probe"
                            );
                            if let Some(found) = found {
                                assert_eq!(found, values[i], "{case}, step {step}: probe value");
                            }
                            ("probe", false)
                        }
                    };
                    evicted += u64::from(expected_evicted);
                    assert_eq!(
                        evictions() - before,
                        u64::from(expected_evicted),
                        "{case}, step {step}: {op} evictions"
                    );
                    for s in 0..shard_count {
                        assert_eq!(
                            memo.shard_len(s),
                            model.shards[s].len(),
                            "{case}, step {step}: shard {s}"
                        );
                    }
                    assert_eq!(memo.len(), model.shards.iter().map(Vec::len).sum::<usize>());
                    let exported = memo.export();
                    let expected: Vec<MemoKey> = model.shards.concat();
                    let exported_keys: Vec<MemoKey> = exported.iter().map(|(k, _)| *k).collect();
                    assert_eq!(
                        exported_keys, expected,
                        "{case}, step {step}: {op} export order"
                    );
                    for (key, value) in &exported {
                        assert_eq!(
                            *value,
                            values[index_of(key)],
                            "{case}, step {step}: export value"
                        );
                    }
                }
            }
        }
    }
    // The mix must reach both behaviours the shard has to reproduce.
    assert!(hits > 0 && evicted > 0, "{hits} hits, {evicted} evictions");
}

const THREADS: u64 = 4;
const ASKS_PER_THREAD: usize = 40;
const UNIVERSE: usize = 10;
const RACE_ROUNDS: usize = 12;

fn universe_line(node: &TechNode, index: usize) -> LineRlc {
    LineRlc::new(
        node.line().resistance,
        HenriesPerMeter::from_nano_per_milli(0.4 + 0.45 * index as f64),
        node.line().capacitance,
    )
}

/// Round `round`'s race line as thread `thread` asks it: a bucket-exact
/// inductance plus thread-dependent noise well inside the bucket, so
/// every thread's line has the same key but its own solve bits.
fn race_line(node: &TechNode, round: usize, thread: u64) -> LineRlc {
    let exact = quantize(HenriesPerMeter::from_nano_per_milli(6.0 + 0.25 * round as f64).get());
    LineRlc::new(
        node.line().resistance,
        HenriesPerMeter::new(f64::from_bits(exact + (thread << (QUANT_BITS - 4)))),
        node.line().capacitance,
    )
}

/// A seeded ask: mostly exact repeats, often noisy neighbours (a few
/// ulps of inductance noise, inside one quantization bucket by
/// round-to-nearest), occasionally a fresh off-universe question.
fn draw_ask(rng: &mut Rng, node: &TechNode) -> LineRlc {
    let base = universe_line(node, rng.index(UNIVERSE));
    match rng.index(10) {
        0..=5 => base,
        6..=8 => {
            let noise = rng.next_u64() % (1u64 << (QUANT_BITS - 2));
            LineRlc::new(
                base.resistance(),
                HenriesPerMeter::new(f64::from_bits(base.inductance().get().to_bits() + noise)),
                base.capacitance(),
            )
        }
        _ => LineRlc::new(
            base.resistance(),
            HenriesPerMeter::new(base.inductance().get() * rng.uniform(1.001, 1.2)),
            base.capacitance(),
        ),
    }
}

#[test]
fn concurrent_mixed_asks_preserve_the_memo_contract() {
    let node = TechNode::nm100();
    let driver = node.driver();
    let options = OptimizerOptions::default();
    // Worst-case hash skew must still fit: every distinct key the mix
    // can produce could land in one shard, so give each shard room for
    // all of them (universe + per-thread strays).
    let shards = 4;
    let capacity = UNIVERSE + THREADS as usize * ASKS_PER_THREAD / 5;
    let memo = OptimumMemo::sharded(shards, capacity);

    let trace = rlckit_trace::Scope::new();
    // Warm phase: all threads race over the exact universe lines in
    // thread-dependent order. Whichever first-insert wins per key, it
    // solved the exact line, so the retained bits are canonical.
    let observations: Vec<(MemoKey, u64, Served)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (memo, node, driver, trace) = (&memo, &node, &driver, &trace);
                let asks = move || {
                    let mut rng = Rng::new(0x5EED_0000 + t);
                    let mut seen = Vec::with_capacity(UNIVERSE + ASKS_PER_THREAD);
                    let mut ask = |line: LineRlc| {
                        let key = key_for(&line, driver, options);
                        let (opt, served) = memo
                            .optimum_served(&line, driver, options)
                            .expect("physical inputs always converge");
                        seen.push((key, opt.segment_delay.get().to_bits(), served));
                    };
                    let mut order: Vec<usize> = (0..UNIVERSE).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.index(i + 1));
                    }
                    for index in order {
                        ask(universe_line(node, index));
                    }
                    // Mixed phase: repeats, noisy neighbours, strays.
                    for _ in 0..ASKS_PER_THREAD {
                        ask(draw_ask(&mut rng, node));
                    }
                    seen
                };
                scope.spawn(move || trace.enter(asks))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let delta = trace.snapshot();

    let total_asks = (THREADS as usize * (UNIVERSE + ASKS_PER_THREAD)) as u64;
    let asked_keys: BTreeSet<MemoKey> = observations.iter().map(|(k, _, _)| *k).collect();

    // Counter consistency: every ask counted exactly once, outside the
    // lock; concurrent first-asks of one key may each pay a solve, so
    // misses can exceed the distinct-key count but never the ask count.
    let hits = delta.counter("memo.hits");
    let misses = delta.counter("memo.misses");
    assert_eq!(hits + misses, total_asks, "every lookup counts exactly once");
    assert!(
        misses >= asked_keys.len() as u64,
        "each distinct key pays at least one solve ({misses} misses, {} keys)",
        asked_keys.len()
    );
    assert!(hits > 0, "the seeded mix guarantees repeats");
    assert_eq!(delta.counter("memo.evictions"), 0, "capacity was sized to fit");

    // No lost inserts: every asked key is retained, and nothing else.
    assert_eq!(memo.len(), asked_keys.len(), "one entry per distinct key");
    for key in &asked_keys {
        assert!(memo.probe(key).is_some(), "asked key lost from the memo");
    }

    // Per-shard capacity bound held throughout (FIFO eviction would
    // have fired otherwise; quiescent check is the cheap invariant).
    for shard in 0..memo.shard_count() {
        assert!(
            memo.shard_len(shard) <= memo.shard_capacity(),
            "shard {shard} over capacity"
        );
    }

    // Hit bit-identity: every hit, from any thread, observed exactly
    // the bits retained under its key (entries are immutable after the
    // first insert, so there is one answer per key forever).
    let mut hit_bits_by_key: BTreeMap<MemoKey, BTreeSet<u64>> = BTreeMap::new();
    let mut hit_count = 0u64;
    for (key, bits, served) in &observations {
        if *served == Served::Hit {
            hit_count += 1;
            hit_bits_by_key.entry(*key).or_default().insert(*bits);
        }
    }
    assert_eq!(hit_count, hits, "Served::Hit labels agree with the counter");
    for (key, bits) in &hit_bits_by_key {
        assert_eq!(
            bits.len(),
            1,
            "key served different bits to different threads: {bits:?}"
        );
        let retained = memo.probe(key).expect("retained");
        assert_eq!(
            retained.segment_delay.get().to_bits(),
            *bits.iter().next().unwrap(),
            "hit served bits that differ from the retained entry"
        );
    }

    // Cold-solve identity: the warm phase asked every universe line
    // exactly, so whoever won each first-insert race solved the exact
    // line — retained bits must match a cold solve, and noisy
    // neighbours that hit these keys got the canonical bits above.
    for index in 0..UNIVERSE {
        let line = universe_line(&node, index);
        let key = key_for(&line, &driver, options);
        let retained = memo.probe(&key).expect("universe key retained");
        let cold = optimize_rlc(&line, &driver, options).expect("converges");
        assert_eq!(
            retained.segment_delay.get().to_bits(),
            cold.segment_delay.get().to_bits(),
            "served bits must equal a cold solve of the same question"
        );
        assert_eq!(
            retained.segment_length.get().to_bits(),
            cold.segment_length.get().to_bits()
        );
    }
    // Race phase: a fresh memo, a barrier before each round, and one
    // fresh key per round asked by every thread with its own noise.
    let race_memo = OptimumMemo::sharded(shards, RACE_ROUNDS);
    for round in 0..RACE_ROUNDS {
        let mut bits: Vec<u64> = (0..THREADS)
            .map(|t| {
                let line = race_line(&node, round, t);
                let cold = optimize_rlc(&line, &driver, options).expect("converges");
                cold.segment_delay.get().to_bits()
            })
            .collect();
        bits.dedup();
        assert!(bits.len() > 1, "round {round}: the noise must change the solve bits");
    }
    let barrier = std::sync::Barrier::new(THREADS as usize);
    let answers: Vec<(MemoKey, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (race_memo, barrier, node, driver) = (&race_memo, &barrier, &node, &driver);
                scope.spawn(move || {
                    (0..RACE_ROUNDS)
                        .map(|round| {
                            let line = race_line(node, round, t);
                            barrier.wait();
                            let (opt, _) = race_memo
                                .optimum_served(&line, driver, options)
                                .expect("physical inputs always converge");
                            (key_for(&line, driver, options), opt.segment_delay.get().to_bits())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    assert_eq!(race_memo.len(), RACE_ROUNDS, "one entry per race key");
    for (key, bits) in &answers {
        let retained = race_memo.probe(key).expect("race key retained");
        assert_eq!(
            retained.segment_delay.get().to_bits(),
            *bits,
            "a caller got bits that differ from the retained first answer"
        );
    }
}
