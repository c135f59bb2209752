//! Warm-start snapshot: persist and reload the memo across restarts.
//!
//! The daemon pre-solves a grid of NTRS technology optima at boot so
//! the first interactive ask is a memo hit, not a multi-second Newton
//! solve. That warm-up is itself worth persisting: [`save_atomic`]
//! writes every retained entry to a [`rlckit::checkpoint`] record log
//! of `f64` bit patterns, and [`load`] replays it through
//! [`OptimumMemo::preload`] (counter-free, first-answer-wins) on the
//! next boot. A reloaded entry is **bit-identical** to the solve that
//! produced it — the snapshot stores raw bits, never decimal round
//! trips.
//!
//! # Format
//!
//! The log header carries [`format_fingerprint`] over
//! `(version, QUANT_BITS, key width)`; a snapshot written under a
//! different quantization or key layout reports
//! [`LoadOutcome::Incompatible`] and is ignored (the daemon then falls
//! back to a cold warm-up — never to silently wrong cache hits). Every
//! record is one entry: the 7 key words, then the 8 value words, then
//! the line checksum. A line that fails its checksum — a torn tail, a
//! flipped byte — is dropped, so its key is solved afresh on demand.

use std::path::Path;

use rlckit::checkpoint::{fingerprint64, read_lenient, rewrite};
use rlckit::memo::{MemoKey, OptimumMemo, QUANT_BITS};
use rlckit::optimizer::RlcOptimum;
use rlckit_tline::Damping;
use rlckit_units::{HenriesPerMeter, Meters, Seconds};

/// Version of the snapshot layout described in the module docs.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Number of words in one entry record (7 key + 8 value).
const ENTRY_WORDS: usize = 15;

/// The format fingerprint the header must carry: any change to the
/// snapshot version, the quantization granularity, or the key width
/// invalidates persisted entries.
#[must_use]
pub fn format_fingerprint() -> u64 {
    fingerprint64([SNAPSHOT_VERSION, u64::from(QUANT_BITS), 7])
}

/// Result of a [`load`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOutcome {
    /// The snapshot was read; this many entries were preloaded.
    Loaded(usize),
    /// No snapshot file exists at the path.
    Missing,
    /// The file exists but was written under a different format
    /// fingerprint (version / quantization / key-width change); nothing
    /// was loaded.
    Incompatible,
}

pub(crate) fn encode_value(v: &RlcOptimum) -> [u64; 8] {
    let damping = match v.damping {
        Damping::Overdamped => 0,
        Damping::CriticallyDamped => 1,
        Damping::Underdamped => 2,
    };
    [
        v.segment_length.get().to_bits(),
        v.repeater_size.to_bits(),
        v.segment_delay.get().to_bits(),
        damping,
        v.critical_inductance.get().to_bits(),
        v.iterations as u64,
        u64::from(v.used_fallback),
        u64::from(v.restarts),
    ]
}

fn decode_value(words: &[u64]) -> Option<RlcOptimum> {
    let damping = match words[3] {
        0 => Damping::Overdamped,
        1 => Damping::CriticallyDamped,
        2 => Damping::Underdamped,
        _ => return None,
    };
    Some(RlcOptimum {
        segment_length: Meters::new(f64::from_bits(words[0])),
        repeater_size: f64::from_bits(words[1]),
        segment_delay: Seconds::new(f64::from_bits(words[2])),
        damping,
        critical_inductance: HenriesPerMeter::new(f64::from_bits(words[4])),
        iterations: usize::try_from(words[5]).ok()?,
        used_fallback: words[6] != 0,
        restarts: u32::try_from(words[7]).ok()?,
    })
}

/// Writes every retained memo entry to `path` through the log's
/// [`rewrite`]: the entries go to a `.tmp` sibling that is renamed over
/// `path`, so a reader (another daemon booting, an operator's `cp`)
/// never observes a half-written snapshot. The background re-warmer
/// relies on this to refresh the snapshot while the daemon is live.
/// Returns the number of entries written.
///
/// # Errors
///
/// Propagates file-creation, write, and rename failures (the `.tmp`
/// sibling is left behind on failure for post-mortems).
pub fn save_atomic(path: &Path, memo: &OptimumMemo) -> std::io::Result<usize> {
    let entries = memo.export();
    let records = entries
        .iter()
        .map(|(key, value)| key.iter().copied().chain(encode_value(value)).collect());
    rewrite(path, format_fingerprint(), records)?;
    Ok(entries.len())
}

/// Preloads `memo` from the snapshot at `path`. Entries re-route to
/// whatever shard layout `memo` has — the snapshot is layout-agnostic.
/// Records that fail their checksum or decode are skipped; already
/// present keys keep their first answer ([`OptimumMemo::preload`]).
///
/// # Errors
///
/// Propagates read failures other than the file not existing (which is
/// the normal first-boot case, reported as [`LoadOutcome::Missing`]).
pub fn load(path: &Path, memo: &OptimumMemo) -> std::io::Result<LoadOutcome> {
    let records = match read_lenient(path, format_fingerprint()) {
        Ok(Some(records)) => records,
        Ok(None) => return Ok(LoadOutcome::Incompatible),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LoadOutcome::Missing),
        Err(e) => return Err(e),
    };
    let mut loaded = 0usize;
    for words in records.iter().filter(|w| w.len() == ENTRY_WORDS) {
        let Some(value) = decode_value(&words[7..]) else {
            continue;
        };
        let mut key: MemoKey = [0; 7];
        key.copy_from_slice(&words[..7]);
        if memo.preload(key, value) {
            loaded += 1;
        }
    }
    Ok(LoadOutcome::Loaded(loaded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit::optimizer::OptimizerOptions;
    use rlckit_tech::TechNode;
    use rlckit_tline::LineRlc;

    fn solved_memo(entries: u32) -> OptimumMemo {
        let node = TechNode::nm100();
        let memo = OptimumMemo::sharded(3, 64);
        for i in 0..entries {
            let line = LineRlc::new(
                node.line().resistance,
                HenriesPerMeter::from_nano_per_milli(0.5 + 0.7 * f64::from(i)),
                node.line().capacitance,
            );
            memo.optimum(&line, &node.driver(), OptimizerOptions::default())
                .unwrap();
        }
        memo
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rlckit-serve-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let source = solved_memo(4);
        let path = temp_path("round-trip.snap");
        assert_eq!(save_atomic(&path, &source).unwrap(), 4);

        // Reload into a *differently sharded* memo: entries re-route.
        let target = OptimumMemo::sharded(5, 64);
        assert_eq!(load(&path, &target).unwrap(), LoadOutcome::Loaded(4));
        assert_eq!(target.len(), 4);
        for (key, value) in source.export() {
            let got = target.probe(&key).expect("entry survives the round trip");
            assert_eq!(
                got.segment_delay.get().to_bits(),
                value.segment_delay.get().to_bits()
            );
            assert_eq!(
                got.segment_length.get().to_bits(),
                value.segment_length.get().to_bits()
            );
            assert_eq!(got.damping, value.damping);
            assert_eq!(got.used_fallback, value.used_fallback);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_and_incompatible_snapshots_load_nothing() {
        let memo = OptimumMemo::default();
        let missing = temp_path("does-not-exist.snap");
        std::fs::remove_file(&missing).ok();
        assert_eq!(load(&missing, &memo).unwrap(), LoadOutcome::Missing);

        let stale = temp_path("stale.snap");
        // A version 1 snapshot (the pre-log text header) and a log
        // header for another format fingerprint.
        std::fs::write(
            &stale,
            "rlckit-serve-snapshot version=1 quant_bits=13 fingerprint=dead\n",
        )
        .unwrap();
        assert_eq!(load(&stale, &memo).unwrap(), LoadOutcome::Incompatible);
        rlckit::checkpoint::rewrite(&stale, format_fingerprint() ^ 1, Vec::new()).unwrap();
        assert_eq!(load(&stale, &memo).unwrap(), LoadOutcome::Incompatible);
        assert!(memo.is_empty());
        std::fs::remove_file(&stale).ok();
    }

    #[test]
    fn a_torn_tail_keeps_the_complete_prefix() {
        let source = solved_memo(3);
        let path = temp_path("torn.snap");
        save_atomic(&path, &source).unwrap();
        // Chop the last line in half, as a crash mid-write would.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep = text.len() - 40;
        std::fs::write(&path, &text[..keep]).unwrap();

        let target = OptimumMemo::default();
        assert_eq!(load(&path, &target).unwrap(), LoadOutcome::Loaded(2));
        assert_eq!(target.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    /// One hex digit changed in a value word still parses as a
    /// plausible value; the line checksum must keep it out of the memo.
    #[test]
    fn a_smudged_value_word_is_not_preloaded() {
        let source = solved_memo(3);
        let path = temp_path("smudged.snap");
        save_atomic(&path, &source).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let words: Vec<u64> = lines[1]
            .split(' ')
            .map(|w| u64::from_str_radix(w, 16).unwrap())
            .collect();
        let mut key: MemoKey = [0; 7];
        key.copy_from_slice(&words[..7]);
        // Last hex digit of value word 1 (the repeater size).
        let at = 17 * 8 + 15;
        let mut bytes = lines[1].clone().into_bytes();
        bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
        lines[1] = String::from_utf8(bytes).unwrap();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let target = OptimumMemo::default();
        assert_eq!(load(&path, &target).unwrap(), LoadOutcome::Loaded(2));
        assert!(target.probe(&key).is_none(), "smudged entry was preloaded");
        std::fs::remove_file(&path).ok();
    }

    /// A snapshot keeps each shard's recency order: reloaded into the
    /// same layout, an LRU memo exports the same sequence and evicts
    /// the same key on its next cold insert.
    #[test]
    fn a_reloaded_lru_snapshot_keeps_the_recency_order() {
        use rlckit::memo::{key_for, Eviction};
        let node = TechNode::nm100();
        let (driver, opts) = (node.driver(), OptimizerOptions::default());
        let line = |i: u32| {
            LineRlc::new(
                node.line().resistance,
                HenriesPerMeter::from_nano_per_milli(0.5 + 0.3 * f64::from(i)),
                node.line().capacitance,
            )
        };
        let asked = |memo: &OptimumMemo| {
            // Under LRU the re-asks of 0 and 1 promote them; the 12
            // other keys over 2 × 3 slots evict.
            for i in 2..14 {
                for j in [0, 1, i] {
                    memo.optimum(&line(j), &driver, opts).unwrap();
                }
            }
        };
        let words = |memo: &OptimumMemo| -> Vec<(MemoKey, [u64; 8])> {
            memo.export().iter().map(|(k, v)| (*k, encode_value(v))).collect()
        };
        let source = OptimumMemo::sharded_with_eviction(2, 3, Eviction::Lru);
        asked(&source);
        assert_eq!(source.len(), 6, "both shards must be full");
        let fifo = OptimumMemo::sharded(2, 3);
        asked(&fifo);
        assert_ne!(words(&fifo), words(&source), "promotions must have reordered the shards");

        let path = temp_path("recency.snap");
        save_atomic(&path, &source).unwrap();
        let target = OptimumMemo::sharded_with_eviction(2, 3, Eviction::Lru);
        assert_eq!(load(&path, &target).unwrap(), LoadOutcome::Loaded(6));
        assert_eq!(words(&target), words(&source));

        let cold = line(40);
        let cold_shard = source.shard_of(&key_for(&cold, &driver, opts));
        let victim = |memo: &OptimumMemo| {
            let before: Vec<MemoKey> = memo.export().iter().map(|(k, _)| *k).collect();
            memo.optimum(&cold, &driver, opts).unwrap();
            let gone: Vec<MemoKey> =
                before.into_iter().filter(|k| memo.probe(k).is_none()).collect();
            assert_eq!(gone.len(), 1, "a cold insert into a full shard evicts one key");
            assert_eq!(memo.shard_of(&gone[0]), cold_shard);
            gone[0]
        };
        assert_eq!(victim(&target), victim(&source));
        assert_eq!(words(&target), words(&source));
        std::fs::remove_file(&path).ok();
    }

    /// `memo.tmp` must not double as its own temp file: a reader that
    /// opened the old snapshot keeps seeing it whole while a new one
    /// is saved.
    #[test]
    fn saving_to_a_tmp_path_never_rewrites_the_live_file_in_place() {
        use std::io::Read as _;
        let path = temp_path("memo.tmp");
        save_atomic(&path, &solved_memo(2)).unwrap();
        let before = std::fs::read(&path).unwrap();
        let mut reader = std::fs::File::open(&path).unwrap();
        save_atomic(&path, &solved_memo(3)).unwrap();
        let mut held = Vec::new();
        reader.read_to_end(&mut held).unwrap();
        assert_eq!(held, before, "the live snapshot was rewritten in place");
        let target = OptimumMemo::default();
        assert_eq!(load(&path, &target).unwrap(), LoadOutcome::Loaded(3));
        std::fs::remove_file(&path).ok();
    }
}
