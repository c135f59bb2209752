//! The multi-process campaign supervisor.
//!
//! `run --shards n` launches one `rlckit-campaign shard` child per
//! shard and babysits them to completion:
//!
//! * **Heartbeats are progress, not liveness.** A shard flushes its
//!   checkpoint after every point, so the supervisor watches the file
//!   for growth. A child that is alive but not appending (an injected
//!   hang, a wedged solve) trips the stall timeout and is killed — a
//!   responsive-looking PID is not evidence of work.
//! * **Crashes are relaunched with backoff.** Each death schedules a
//!   relaunch at `backoff_base × 2^(relaunches−1)`, capped at 2 s,
//!   tracked per shard as a deadline so one shard's backoff never
//!   delays another shard's exit. The relaunch generation is passed to
//!   the child, which keys the `RLCKIT_SHARD_FAULTS` schedule on it —
//!   so an injected crash loop converges instead of re-killing the same
//!   point forever.
//! * **The restart budget bounds the tantrum.** A shard that dies more
//!   than `restart_budget` times is *degraded*: its checkpoint is
//!   merged leniently and its unreached points become explicit
//!   `failed` rows, so the campaign always terminates with a complete
//!   (if honest about its holes) CSV.
//! * **The loop blocks; it does not poll.** A reader thread per child
//!   drains its (silent) stdout pipe to EOF, the child's exit, and sends
//!   `(shard, generation)` on one channel; the loop waits on it until the
//!   earliest stall deadline or relaunch time.
//!
//! Every lifecycle step lands in the flight recorder:
//! `campaign.shard.{launched,relaunched,stalled,completed,degraded}`
//! counters plus one [`EventKind::Outcome`] event per step with
//! `trace_id = shard` and `value = generation`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rlckit_trace::events::EventKind;
use rlckit_trace::{counter, event};

use crate::grid::{shard_file_name, CampaignSpec};
use crate::merge::{merge_shards, render_csv, MergeError};

/// Ceiling of the relaunch backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Supervision knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Number of shard processes.
    pub shards: usize,
    /// Relaunches allowed per shard before it is degraded.
    pub restart_budget: u32,
    /// How long a live child may go without growing its checkpoint
    /// before it is declared hung and killed. The checkpoint is read
    /// once per `stall_timeout`, so a hung child is killed between
    /// `stall_timeout` and 2×`stall_timeout` after its last observed
    /// growth.
    pub stall_timeout: Duration,
    /// First relaunch delay; doubles per relaunch of the same shard, up
    /// to 2 s.
    pub backoff_base: Duration,
}

impl SupervisorConfig {
    /// Defaults for `shards` shard processes.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            restart_budget: 5,
            stall_timeout: Duration::from_secs(30),
            backoff_base: Duration::from_millis(50),
        }
    }

    fn backoff(&self, relaunches: u32) -> Duration {
        let doublings = relaunches.saturating_sub(1).min(20);
        self.backoff_base
            .saturating_mul(1 << doublings)
            .min(BACKOFF_CAP)
    }
}

/// One shard's fate, as reported by [`supervise`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Relaunches spent (0 = the first launch sufficed).
    pub relaunches: u32,
    /// Whether the shard exhausted its restart budget.
    pub degraded: bool,
}

/// A completed supervised campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRun {
    /// The merged canonical CSV.
    pub csv: String,
    /// Per-shard fates.
    pub shards: Vec<ShardStatus>,
    /// Grid points recorded as failed because a degraded shard never
    /// reached them.
    pub unreached: usize,
}

/// Why a supervised run failed outright (degradation is not failure).
#[derive(Debug)]
pub enum SuperviseError {
    /// A child could not be spawned at all (bad executable path).
    Spawn(String),
    /// The final merge refused the shard files.
    Merge(MergeError),
}

impl std::fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Spawn(detail) => write!(f, "cannot spawn shard process: {detail}"),
            Self::Merge(e) => write!(f, "merge after supervision failed: {e}"),
        }
    }
}

impl std::error::Error for SuperviseError {}

impl From<MergeError> for SuperviseError {
    fn from(e: MergeError) -> Self {
        Self::Merge(e)
    }
}

/// Counts lifecycle step `$name` and records its [`EventKind::Outcome`]
/// event (`trace_id` = shard, `value` = generation).
macro_rules! lifecycle {
    ($name:literal, $shard:expr, $generation:expr) => {{
        let generation = u64::from($generation);
        counter!($name).incr();
        event!($shard as u64, $name, EventKind::Outcome, generation);
    }};
}

/// A running child of `generation`. Its checkpoint was `last_len`
/// bytes at the last look; the next look is at `deadline`.
struct Run {
    child: Child,
    generation: u32,
    last_len: u64,
    deadline: Instant,
}

/// One shard's lifecycle phase; each phase holds only what it needs.
enum State {
    Running(Run),
    /// No child; (re)launch at this instant.
    BackingOff(Instant),
    /// Exited successfully.
    Done,
    /// Spent its restart budget.
    Degraded,
}

struct Slot {
    shard: usize,
    checkpoint: PathBuf,
    relaunches: u32,
    state: State,
}

impl Slot {
    /// When the loop must next look at this slot; `None` once finished.
    fn wake_at(&self) -> Option<Instant> {
        match &self.state {
            State::Running(run) => Some(run.deadline),
            State::BackingOff(at) => Some(*at),
            State::Done | State::Degraded => None,
        }
    }

    /// Handles the exit notice of `generation`. A notice from a
    /// generation this slot no longer runs (one killed for stalling,
    /// whose pipe closed after its successor launched) is ignored.
    fn on_exit(&mut self, generation: u32, cfg: &SupervisorConfig) {
        match &mut self.state {
            State::Running(run) if run.generation == generation => {
                if run.child.wait().is_ok_and(|status| status.success()) {
                    self.state = State::Done;
                    lifecycle!("campaign.shard.completed", self.shard, generation);
                } else {
                    self.on_death(cfg);
                }
            }
            _ => {}
        }
    }

    fn on_death(&mut self, cfg: &SupervisorConfig) {
        if self.relaunches >= cfg.restart_budget {
            self.state = State::Degraded;
            lifecycle!("campaign.shard.degraded", self.shard, self.relaunches);
        } else {
            self.relaunches += 1;
            self.state = State::BackingOff(Instant::now() + cfg.backoff(self.relaunches));
        }
    }
}

fn checkpoint_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Supervises `cfg.shards` child processes of `exe` (the
/// `rlckit-campaign` binary itself) to a complete merged campaign.
///
/// # Errors
///
/// [`SuperviseError::Spawn`] if children cannot be started at all;
/// [`SuperviseError::Merge`] if a shard that claimed success left a
/// file the strict merge refuses.
pub fn supervise(
    exe: &Path,
    spec: &CampaignSpec,
    dir: &Path,
    cfg: &SupervisorConfig,
) -> Result<CampaignRun, SuperviseError> {
    assert!(cfg.shards > 0, "need at least one shard");
    std::fs::create_dir_all(dir)
        .map_err(|e| SuperviseError::Spawn(format!("campaign dir {}: {e}", dir.display())))?;
    let of = cfg.shards;
    let (exits, exit_notices) = mpsc::channel();
    // Starts generation `slot.relaunches` of the slot's shard, with a
    // reader thread that reports its exit. The thread is left detached:
    // its body cannot panic, and it ends when the child's pipe closes.
    let launch = |slot: &mut Slot| -> Result<(), SuperviseError> {
        let generation = slot.relaunches;
        let mut child = Command::new(exe)
            .arg("shard")
            .args(["--node", spec.node.name()])
            .args(["--points", &spec.points.to_string()])
            .args(["--index", &slot.shard.to_string()])
            .args(["--of", &of.to_string()])
            .args(["--generation", &generation.to_string()])
            .arg("--dir")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| SuperviseError::Spawn(format!("{}: {e}", exe.display())))?;
        let mut stdout = child.stdout.take().expect("shard stdout is piped");
        let (exits, shard) = (exits.clone(), slot.shard);
        std::thread::spawn(move || {
            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
            let _ = exits.send((shard, generation));
        });
        slot.state = State::Running(Run {
            child,
            generation,
            last_len: checkpoint_len(&slot.checkpoint),
            deadline: Instant::now() + cfg.stall_timeout,
        });
        Ok(())
    };

    let mut slots: Vec<Slot> = (0..of)
        .map(|shard| Slot {
            shard,
            checkpoint: dir.join(shard_file_name(shard, of)),
            relaunches: 0,
            state: State::BackingOff(Instant::now()),
        })
        .collect();

    while let Some(wake) = slots.iter().filter_map(Slot::wake_at).min() {
        if let Ok((shard, generation)) =
            exit_notices.recv_timeout(wake.saturating_duration_since(Instant::now()))
        {
            slots[shard].on_exit(generation, cfg);
        }
        let now = Instant::now();
        for slot in &mut slots {
            match &mut slot.state {
                State::Running(run) if run.deadline <= now => {
                    // Any size change counts as progress: a relaunch
                    // rewrites (and may shrink) the file before growing it.
                    let len = checkpoint_len(&slot.checkpoint);
                    if len != run.last_len {
                        run.last_len = len;
                        run.deadline = now + cfg.stall_timeout;
                        continue;
                    }
                    lifecycle!("campaign.shard.stalled", slot.shard, run.generation);
                    let _ = run.child.kill();
                    let _ = run.child.wait();
                    slot.on_death(cfg);
                }
                // The first pass launches every shard; a first launch
                // that fails fails the run, a relaunch counts as a death.
                State::BackingOff(at) if *at <= now => match (launch(slot), slot.relaunches) {
                    (Ok(()), 0) => lifecycle!("campaign.shard.launched", slot.shard, 0u32),
                    (Ok(()), n) => lifecycle!("campaign.shard.relaunched", slot.shard, n),
                    (Err(e), 0) => return Err(e),
                    (Err(_), _) => slot.on_death(cfg),
                },
                _ => {}
            }
        }
    }

    let degraded: BTreeSet<usize> = slots
        .iter()
        .filter(|s| matches!(s.state, State::Degraded))
        .map(|s| s.shard)
        .collect();
    let merged = merge_shards(spec, dir, of, &degraded)?;
    Ok(CampaignRun {
        csv: render_csv(spec, &merged),
        unreached: merged.unreached,
        shards: slots
            .iter()
            .map(|s| ShardStatus {
                shard: s.shard,
                relaunches: s.relaunches,
                degraded: degraded.contains(&s.shard),
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A generation killed for stalling still closes its stdout, and its
    /// exit notice can arrive after the successor launched. That stale
    /// notice must leave the successor running (neither reaped as done
    /// nor counted as a death); the successor's own notice completes it.
    #[test]
    fn a_stale_exit_notice_leaves_the_successor_running() {
        let cfg = SupervisorConfig::new(1);
        let successor = Command::new("true").spawn().expect("spawn `true`");
        let mut slot = Slot {
            shard: 0,
            checkpoint: PathBuf::new(),
            relaunches: 1,
            state: State::Running(Run {
                child: successor,
                generation: 1,
                last_len: 0,
                deadline: Instant::now() + cfg.stall_timeout,
            }),
        };
        slot.on_exit(0, &cfg);
        assert!(
            matches!(&slot.state, State::Running(run) if run.generation == 1),
            "the stale notice of generation 0 ended generation 1"
        );
        assert_eq!(slot.relaunches, 1);
        slot.on_exit(1, &cfg);
        assert!(matches!(slot.state, State::Done));
        assert_eq!(slot.relaunches, 1);
    }

    /// A first launch that cannot spawn fails the run at once instead of
    /// being retried into a degraded campaign.
    #[test]
    fn an_unspawnable_executable_fails_the_run() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("rlckit-supervise-no-exe-{}", std::process::id()));
        let spec = CampaignSpec {
            node: crate::grid::CampaignNode::Nm100,
            points: 3,
        };
        let exe = Path::new("/nonexistent/rlckit-campaign");
        let result = supervise(exe, &spec, &dir, &SupervisorConfig::new(2));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(result, Err(SuperviseError::Spawn(_))));
    }
}
