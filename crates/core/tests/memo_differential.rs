//! Differential test of the [`rlckit::memo`] shard against the `Vec`
//! shard it replaced.
//!
//! [`VecShards`] below is that earlier implementation, reduced to keys:
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
//! Everything lives in ONE `#[test]`: `memo.evictions` is
//! process-global, so a sibling test would break the exact deltas.

use rlckit::memo::{key_for, Eviction, MemoKey, OptimumMemo, Served};
use rlckit::optimizer::{optimize_rlc, OptimizerOptions, RlcOptimum};
use rlckit_numeric::rng::Rng;
use rlckit_tech::TechNode;
use rlckit_tline::LineRlc;
use rlckit_units::HenriesPerMeter;

const UNIVERSE: usize = 12;
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
    rlckit_trace::snapshot().counter("memo.evictions")
}

#[test]
fn new_shard_matches_the_vec_shard_op_for_op() {
    let node = TechNode::nm100();
    let driver = node.driver();
    let options = OptimizerOptions::default();
    let lines: Vec<LineRlc> = (0..UNIVERSE)
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
                        rng.index(UNIVERSE)
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
