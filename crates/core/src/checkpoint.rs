//! The crash-safe record log behind campaign shard files (the
//! `rlckit-campaign` shard runner's checkpoints) and serve snapshots.
//!
//! Every line of a log is a run of space-separated 16-digit lowercase
//! hex words whose last word is [`fingerprint64`] over all the words
//! before it. The first line is the header, `version fingerprint
//! checksum`, which ties the file to one format version and one set of
//! inputs. Every further line is a record: its leading word(s) are the
//! record's key (a grid index, a memo key), then its payload, then the
//! checksum — so one flipped byte anywhere in a line, key included, is
//! detected rather than read back as a plausible value.
//!
//! One implementation of each operation serves both formats:
//!
//! - [`read_lenient`] keeps the records that checksum and drops the
//!   rest, which covers a torn tail left by a writer killed mid-line;
//! - [`read_strict`] refuses the file at its first bad line;
//! - [`CheckpointFile::append`] writes one record and hands it to the
//!   OS before returning;
//! - [`rewrite`] writes a whole log to a `.tmp` sibling and renames it
//!   over the target, so no reader ever sees a half-written file.
//!
//! A resumed campaign shard reproduces an uninterrupted run bit for
//! bit: records hold exact `f64` bit patterns, and each point's fault
//! scope and arithmetic depend only on its original grid index.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use rlckit_numeric::{NumericError, Result};

/// Version stamped into every log header; bump on format changes.
pub const CHECKPOINT_VERSION: u32 = 2;

/// FNV-1a over a stream of `u64` words (fed byte-wise, little-endian).
///
/// Fingerprints a campaign's inputs — line parameters, driver
/// parameters, options, and the sweep grid, all as exact bit patterns —
/// so a log is never resumed against different inputs, and checksums
/// every log line. Any single changed byte of the input changes the
/// hash.
#[must_use]
pub fn fingerprint64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Renders one log line: `words`, then their checksum, newline-terminated.
#[must_use]
pub fn format_line(words: &[u64]) -> String {
    let mut line = String::with_capacity(17 * (words.len() + 1));
    for word in words
        .iter()
        .copied()
        .chain([fingerprint64(words.iter().copied())])
    {
        let _ = write!(line, "{word:016x} ");
    }
    line.pop();
    line.push('\n');
    line
}

/// Parses one log line (without its newline) back into the words
/// [`format_line`] was given. `None` unless the line is at least two
/// 16-digit lowercase hex words separated by single spaces whose last
/// word checksums the rest.
#[must_use]
pub fn parse_line(line: &[u8]) -> Option<Vec<u64>> {
    let mut words = line
        .split(|&b| b == b' ')
        .map(parse_word)
        .collect::<Option<Vec<u64>>>()?;
    let checksum = words.pop()?;
    (!words.is_empty() && checksum == fingerprint64(words.iter().copied())).then_some(words)
}

fn parse_word(hex: &[u8]) -> Option<u64> {
    if hex.len() != 16 {
        return None;
    }
    hex.iter().try_fold(0u64, |acc, &b| {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        Some(acc << 4 | u64::from(digit))
    })
}

/// Every line of a log file, parsed. A complete last line may lack its
/// newline; a torn one fails to parse like any other bad line.
fn lines(bytes: &[u8]) -> impl Iterator<Item = Option<Vec<u64>>> + '_ {
    bytes
        .strip_suffix(b"\n")
        .unwrap_or(bytes)
        .split(|&b| b == b'\n')
        .map(parse_line)
}

fn header(fingerprint: u64) -> Vec<u64> {
    vec![u64::from(CHECKPOINT_VERSION), fingerprint]
}

/// Why [`read_strict`] refused a log.
#[derive(Debug)]
pub enum StrictError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The 1-based number of the first line that does not parse and
    /// checksum (line 1 is the header).
    BadLine(usize),
    /// The header is well-formed but names another version or
    /// fingerprint; carries the fingerprint found.
    Mismatch(u64),
}

/// Reads the log at `path` strictly: the header must carry this
/// version and `fingerprint`, and every line must checksum. Returns
/// every record's words in file order.
///
/// # Errors
///
/// The first deviation found, as a [`StrictError`].
pub fn read_strict(
    path: &Path,
    fingerprint: u64,
) -> std::result::Result<Vec<Vec<u64>>, StrictError> {
    let bytes = std::fs::read(path).map_err(StrictError::Io)?;
    let mut lines = lines(&bytes);
    match lines.next().flatten() {
        Some(words) if words == header(fingerprint) => {}
        Some(words) if words.len() == 2 => return Err(StrictError::Mismatch(words[1])),
        _ => return Err(StrictError::BadLine(1)),
    }
    lines
        .enumerate()
        .map(|(n, words)| words.ok_or(StrictError::BadLine(n + 2)))
        .collect()
}

/// Reads the log at `path` leniently: the records that checksum, in
/// file order, with every bad line dropped. `Ok(None)` when the header
/// is bad or belongs to another version or `fingerprint`.
///
/// # Errors
///
/// The read error when the file cannot be read (including
/// [`std::io::ErrorKind::NotFound`]).
pub fn read_lenient(path: &Path, fingerprint: u64) -> std::io::Result<Option<Vec<Vec<u64>>>> {
    let bytes = std::fs::read(path)?;
    let mut lines = lines(&bytes);
    if lines.next().flatten() != Some(header(fingerprint)) {
        return Ok(None);
    }
    Ok(Some(lines.flatten().collect()))
}

/// Replaces the log at `path` with a header for `fingerprint` and the
/// given records: the lines go to `path` with `.tmp` appended to its
/// file name, which is then renamed over `path`. Returns the written
/// file, positioned at its end for further appends.
///
/// # Errors
///
/// Create, write and rename failures (a failed rename leaves the
/// `.tmp` file behind).
pub fn rewrite(
    path: &Path,
    fingerprint: u64,
    records: impl IntoIterator<Item = Vec<u64>>,
) -> std::io::Result<File> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut writer = BufWriter::new(File::create(&tmp)?);
    writer.write_all(format_line(&header(fingerprint)).as_bytes())?;
    for words in records {
        writer.write_all(format_line(&words).as_bytes())?;
    }
    let file = writer
        .into_inner()
        .map_err(std::io::IntoInnerError::into_error)?;
    std::fs::rename(&tmp, path)?;
    Ok(file)
}

fn io_err(op: &str, e: &std::io::Error) -> NumericError {
    NumericError::InvalidInput(format!("checkpoint {op}: {e}"))
}

fn keyed(index: usize, words: &[u64]) -> Vec<u64> {
    std::iter::once(index as u64)
        .chain(words.iter().copied())
        .collect()
}

/// An open campaign checkpoint: a record log keyed by grid index.
pub struct CheckpointFile {
    file: Mutex<File>,
}

impl CheckpointFile {
    /// Opens (or creates) the checkpoint at `path` for a campaign with
    /// the given input `fingerprint`.
    ///
    /// Returns the handle and the completed points recovered by
    /// [`read_lenient`], keyed by grid index (a later record for the
    /// same index wins). A missing or unreadable file and a header for
    /// another version or fingerprint all start fresh. The file is
    /// [`rewrite`]n from the recovered points, so it is well-formed
    /// after open even if the previous writer was killed mid-line.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] on filesystem errors
    /// (unwritable path, etc.).
    pub fn open(path: &Path, fingerprint: u64) -> Result<(Self, BTreeMap<usize, Vec<u64>>)> {
        let completed: BTreeMap<usize, Vec<u64>> = read_lenient(path, fingerprint)
            .ok()
            .flatten()
            .unwrap_or_default()
            .into_iter()
            .filter_map(|words| Some((usize::try_from(words[0]).ok()?, words[1..].to_vec())))
            .collect();
        let file = rewrite(
            path,
            fingerprint,
            completed.iter().map(|(&i, w)| keyed(i, w)),
        )
        .map_err(|e| io_err("rewrite", &e))?;
        Ok((
            Self {
                file: Mutex::new(file),
            },
            completed,
        ))
    }

    /// Appends one completed point in a single write, so a kill
    /// immediately after a point completes loses at most the in-flight
    /// line.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] on write failures.
    pub fn append(&self, index: usize, words: &[u64]) -> Result<()> {
        let line = format_line(&keyed(index, words));
        self.file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .write_all(line.as_bytes())
            .map_err(|e| io_err("append", &e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rlckit-checkpoint-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_stable() {
        let a = fingerprint64([1, 2, 3]);
        let b = fingerprint64([1, 2, 3]);
        let c = fingerprint64([3, 2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(fingerprint64([]), fingerprint64([0]));
    }

    #[test]
    fn roundtrip_and_resume() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint64([7, 8, 9]);
        {
            let (ck, done) = CheckpointFile::open(&path, fp).unwrap();
            assert!(done.is_empty());
            ck.append(0, &[0x3ff0_0000_0000_0000, 42]).unwrap();
            ck.append(2, &[u64::MAX, 0]).unwrap();
        }
        let (_ck, done) = CheckpointFile::open(&path, fp).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[&0], vec![0x3ff0_0000_0000_0000, 42]);
        assert_eq!(done[&2], vec![u64::MAX, 0]);
        assert!(!done.contains_key(&1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_starts_fresh() {
        let path = temp_path("mismatch");
        let _ = std::fs::remove_file(&path);
        {
            let (ck, _) = CheckpointFile::open(&path, 111).unwrap();
            ck.append(0, &[1]).unwrap();
        }
        let (_ck, done) = CheckpointFile::open(&path, 222).unwrap();
        assert!(done.is_empty(), "mismatched fingerprint must not resume");
        let _ = std::fs::remove_file(&path);
    }

    /// A file from before the record log (version 1 JSONL) starts
    /// fresh instead of being misread.
    #[test]
    fn a_version_1_jsonl_checkpoint_starts_fresh() {
        let path = temp_path("v1");
        std::fs::write(
            &path,
            "{\"type\":\"header\",\"version\":1,\"fingerprint\":\"0x0000000000000005\"}\n\
             {\"type\":\"point\",\"index\":0,\"words\":[\"0x0000000000000001\"]}\n",
        )
        .unwrap();
        let (_ck, done) = CheckpointFile::open(&path, 5).unwrap();
        assert!(done.is_empty());
        assert!(matches!(read_strict(&path, 5), Ok(records) if records.is_empty()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_line_is_dropped_and_file_repaired() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint64([5]);
        {
            let (ck, _) = CheckpointFile::open(&path, fp).unwrap();
            ck.append(0, &[10]).unwrap();
            ck.append(1, &[11]).unwrap();
        }
        // Simulate a kill mid-write: append a torn partial line.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            let line = format_line(&[7, 12]);
            f.write_all(&line.as_bytes()[..line.len() / 2]).unwrap();
        }
        assert!(matches!(
            read_strict(&path, fp),
            Err(StrictError::BadLine(4))
        ));
        let (_ck, done) = CheckpointFile::open(&path, fp).unwrap();
        assert_eq!(done.len(), 2, "torn line must be dropped");
        assert!(!done.contains_key(&7));
        // The rewrite must have repaired the file: reopening again
        // still sees exactly the two valid points.
        drop(_ck);
        assert_eq!(read_strict(&path, fp).unwrap().len(), 2);
        let (_ck2, done2) = CheckpointFile::open(&path, fp).unwrap();
        assert_eq!(done, done2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_middle_lines_are_skipped() {
        let path = temp_path("malformed");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint64([1, 2]);
        let mut smudged = format_line(&[1, 3]).into_bytes();
        smudged[5] = b'9';
        std::fs::write(
            &path,
            [
                format_line(&header(fp)).into_bytes(),
                format_line(&[0, 1]).into_bytes(),
                b"not a log line at all\n".to_vec(),
                smudged,
                format_line(&[2, 2]).into_bytes(),
            ]
            .concat(),
        )
        .unwrap();
        let (_ck, done) = CheckpointFile::open(&path, fp).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[&0], vec![1]);
        assert_eq!(done[&2], vec![2]);
        let _ = std::fs::remove_file(&path);
    }

    /// A torn point write spliced with the next complete line must not
    /// parse: the torn prefix would donate point 1's index, the
    /// complete suffix point 2's words.
    #[test]
    fn torn_splice_cannot_adopt_another_points_words() {
        let first = format_line(&[1, 0xa]);
        let second = format_line(&[2, 0xb]);
        for cut in 1..first.len() - 1 {
            let spliced = format!("{}{}", &first[..cut], second.trim_end());
            assert_eq!(
                parse_line(spliced.as_bytes()),
                None,
                "a spliced torn write (cut {cut}) must be dropped, not resumed"
            );
        }
    }

    /// Seeded adversarial fuzz of the line parser: random truncations,
    /// splices and byte smudges of valid lines must never panic, and no
    /// mangled line may parse as anything but one of its source lines.
    #[test]
    fn mangled_point_lines_never_parse_as_spliced_points() {
        use rlckit_check::{gen, Check};
        Check::new().cases(200).run(
            &gen::tuple4(
                gen::usize_range(0, 5_000),
                gen::vec_in(gen::usize_range(0, usize::MAX), 0, 5)
                    .map(|v| v.into_iter().map(|w| w as u64).collect::<Vec<u64>>()),
                gen::usize_range(0, 120), // truncation point
                gen::usize_range(0, 4),   // mangling mode
            ),
            |(index, words, cut, mode)| {
                let record = keyed(*index, words);
                let line = format_line(&record);
                let body = line.trim_end();
                // The untouched line must round-trip exactly.
                assert_eq!(
                    parse_line(body.as_bytes()),
                    Some(record.clone()),
                    "writer output must parse back bit-for-bit"
                );
                let other = keyed(index + 1, &[0xdead]);
                let cut = (*cut).min(body.len() - 1);
                let mangled = match mode {
                    // Torn write: truncated mid-line.
                    0 => body.as_bytes()[..cut].to_vec(),
                    // Splice: torn prefix + a different complete line.
                    1 => [
                        &body.as_bytes()[..cut],
                        format_line(&other).trim_end().as_bytes(),
                    ]
                    .concat(),
                    // Smudge: one byte overwritten with garbage.
                    2 => {
                        let mut s = body.as_bytes().to_vec();
                        s[cut] = b'\x07';
                        s
                    }
                    // Doubled line (lost newline between two writes).
                    _ => format!("{body}{}", format_line(&other).trim_end()).into_bytes(),
                };
                if let Some(parsed) = parse_line(&mangled) {
                    assert!(
                        parsed == record || (*mode == 1 && parsed == other),
                        "mangled line (mode {mode}, cut {cut}) parsed as a mixed point: \
                         {parsed:?} from {:?}",
                        String::from_utf8_lossy(&mangled)
                    );
                }
            },
        );
    }

    #[test]
    fn header_parse_rejects_garbage() {
        let path = temp_path("header");
        for text in [
            String::new(),
            "\n".to_string(),
            format_line(&[u64::from(CHECKPOINT_VERSION)]),
            format_line(&[0, 0xff]).to_uppercase(),
        ] {
            std::fs::write(&path, &text).unwrap();
            assert!(
                matches!(read_strict(&path, 0xff), Err(StrictError::BadLine(1))),
                "{text:?}"
            );
            assert!(read_lenient(&path, 0xff).unwrap().is_none());
        }
        std::fs::write(&path, format_line(&[u64::from(CHECKPOINT_VERSION), 0xfe])).unwrap();
        assert!(matches!(
            read_strict(&path, 0xff),
            Err(StrictError::Mismatch(0xfe))
        ));
        std::fs::write(&path, format_line(&header(0xff))).unwrap();
        assert!(matches!(read_strict(&path, 0xff), Ok(records) if records.is_empty()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rewrite_appends_tmp_to_the_whole_file_name() {
        let dir = temp_path("rewrite-dir");
        std::fs::create_dir_all(&dir).unwrap();
        // `memo.tmp` must not be its own temp file, and `a.snap` and
        // `a.bin` must not share one.
        for name in ["memo.tmp", "a.snap", "a.bin"] {
            rewrite(&dir.join(name), 1, [vec![9]]).unwrap();
        }
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["a.bin", "a.snap", "memo.tmp"]);
        assert_eq!(
            read_strict(&dir.join("memo.tmp"), 1).unwrap(),
            vec![vec![9]]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
