//! Concurrency property test for the sharded [`rlckit::memo`] table.
//!
//! N threads replay seeded mixes of identical re-asks, ulp-level noisy
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
//!
//! Everything lives in ONE `#[test]`: the `memo.*` counters are
//! process-global, so a sibling test exercising the memo in parallel
//! would break the exact counter arithmetic this test asserts.

use std::collections::{BTreeMap, BTreeSet};

use rlckit::memo::{key_for, quantize, MemoKey, OptimumMemo, Served, QUANT_BITS};
use rlckit::optimizer::{optimize_rlc, OptimizerOptions};
use rlckit_numeric::rng::Rng;
use rlckit_tech::TechNode;
use rlckit_tline::LineRlc;
use rlckit_units::HenriesPerMeter;

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

    let before = rlckit_trace::snapshot();
    // Warm phase: all threads race over the exact universe lines in
    // thread-dependent order. Whichever first-insert wins per key, it
    // solved the exact line, so the retained bits are canonical.
    let observations: Vec<(MemoKey, u64, Served)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let memo = &memo;
                let node = &node;
                let driver = &driver;
                scope.spawn(move || {
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
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let delta = rlckit_trace::snapshot().since(&before);

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
