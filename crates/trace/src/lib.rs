//! `rlckit-trace` — zero-dependency solver/campaign telemetry.
//!
//! Every performance rung on the ROADMAP (hot-path profiling of the
//! two-pole delay solve, work-stealing for the planner's uneven
//! per-count calls, a sharded campaign driver) needs to know where
//! iterations and wall-clock actually go. This crate is that
//! instrumentation layer: **counters** and **iteration histograms**,
//! lightweight RAII **span timers**, read process-wide or per
//! [`Scope`], the [`events`] flight recorder, and an opt-in end-of-run
//! **sink** selected by the `RLCKIT_TRACE` environment variable.
//!
//! # Cost model
//!
//! * A metric static holds only its name and a word offset, assigned by
//!   one registry on the metric's first write. The values live in
//!   per-thread *recorders*: a thread takes one from a free list on its
//!   first write and is its only writer, so a counter increment is a
//!   relaxed load and store, a histogram observation two (bucket and
//!   sum; four for an overflow value), a span record four. No lock, no
//!   read-modify-write, no branch on a global flag, no shared cache
//!   line. A thread's [`events`] ring is its own, not its recorder's.
//!   A recorder grows when a metric registers past its end: nothing is
//!   capped, no write is dropped.
//! * A thread writes to a recorder of the [`Scope`] it is in.
//!   [`Scope::enter`] swaps the thread's recorder, so the write path is
//!   the same in every scope; entering the scope a thread is already in
//!   costs one thread-local read. A thread that leaves a scope parks
//!   its recorder in a thread-local list and takes it back when it
//!   re-enters, so a pool job takes no lock and folds nothing. A
//!   recorder goes back to the free list when it leaves the root, when
//!   its thread exits, or once its scope has ended (its last [`Scope`]
//!   handle dropped) and its thread next leaves a scope: its values
//!   fold into the retired words of its scope and of every enclosing
//!   one, and it is zeroed.
//! * Reads ([`snapshot`], [`Scope::snapshot`]) sum a scope's retired
//!   words and the recorders recording in it or below it, merging
//!   statics that share a name: totals and sink lines read as if there
//!   were one cell. A scope's snapshot is exact, extremes included,
//!   whatever runs beside it.
//! * Span timers *are* gated: when tracing is disabled
//!   ([`enabled`] returns `false`) [`SpanTimer::start`] returns an
//!   inert guard without reading the clock, so the disabled path costs
//!   one relaxed load and allocates nothing. The `trace_overhead`
//!   bench group quantifies both paths against a bare arithmetic op.
//!
//! # Determinism contract
//!
//! Counters and histograms record *algorithmic* quantities (iterations,
//! bracket doublings, fallback tallies): for every metric **except the
//! `par.*` family** they are a pure function of the computation's
//! inputs — re-running the same campaign yields bit-identical values,
//! regardless of thread count. The `par.*` metrics intentionally record
//! scheduling (tasks per worker, claims taken) and vary run to run.
//! Wall-clock quantities appear **only** under JSON keys ending in
//! `_ns` (and the derived `mean_ns`), so a determinism check can parse
//! the JSONL sink and ignore exactly the `*_ns` keys.
//!
//! # Sink selection
//!
//! | `RLCKIT_TRACE` | behaviour of [`flush`] |
//! |---|---|
//! | unset, empty, `0`, `off` | nothing (tracing disabled) |
//! | `summary` | aligned text summary to stderr |
//! | `jsonl` | JSON lines to stderr |
//! | `jsonl:<path>` | JSON lines written to `<path>` (truncate: last flush wins) |
//! | `jsonl+:<path>` | JSON lines **appended** to `<path>`, one marker-delimited snapshot per flush |
//!
//! Any other value behaves like `summary` (fail open: asking for
//! telemetry should never silence it).
//!
//! `jsonl:` truncation is the right semantics for one-shot campaign
//! bins — the final flush is the complete report. A long-running daemon
//! flushing periodically needs `jsonl+:`: every flush appends a
//! `{"type":"flush","value":<seq>}` marker line followed by the full
//! metric snapshot, so the file preserves the whole history instead of
//! only the last flush.
//!
//! # Examples
//!
//! ```
//! use rlckit_trace::{counter, histogram, span};
//!
//! rlckit_trace::set_enabled(true);
//! let ((), snap) = rlckit_trace::scoped(|| {
//!     let _guard = span!("example.work");
//!     counter!("example.calls").incr();
//!     histogram!("example.iterations").observe(3);
//! });
//! assert_eq!(snap.counter("example.calls"), 1);
//! assert_eq!(snap.histograms["example.iterations"].max, Some(3));
//! assert_eq!(rlckit_trace::snapshot().counter("example.calls"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};
use std::time::Instant;

/// Number of exact histogram buckets: values `0..BUCKETS-1` count into
/// their own bucket, anything `>= BUCKETS-1` lands in the last
/// (overflow) bucket. Iteration counts in this workspace are single
/// digits, so the exact range is generous.
pub const BUCKETS: usize = 33;

/// A metric kind fixes its words in a recorder. A counter is one word;
/// a histogram its [`BUCKETS`] buckets, its sum, and the minimum and
/// maximum of the overflow bucket (the other extremes follow from the
/// buckets); a span its count, total, minimum and maximum. Minima are
/// stored bit-inverted, so a zero word means "none yet" and every
/// extreme merges by maximum; every other word merges by sum.
/// An event scope takes no words: it registers its name only.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Counter,
    Histogram,
    Span,
    Scope,
}

impl Kind {
    /// Words one metric of this kind occupies, and the first extreme.
    const fn layout(self) -> (usize, usize) {
        match self {
            Self::Counter => (1, 1),
            Self::Histogram => (BUCKETS + 3, BUCKETS + 1),
            Self::Span => (4, 2),
            Self::Scope => (0, 0),
        }
    }

    /// Folds one copy of a metric's words into `acc`. A recorder that
    /// has not grown that far yields fewer values, which read as zeros.
    fn merge(self, acc: &mut [u64], values: impl Iterator<Item = u64>) {
        let n = self.layout().1;
        for (i, (a, v)) in acc.iter_mut().zip(values).enumerate() {
            *a = if i < n { a.wrapping_add(v) } else { v.max(*a) };
        }
    }
}

/// Everything the recorders share, behind one lock: the registered
/// metrics (kind, name, first word; statics that share a name each have
/// an entry), the words handed out so far, every recorder and every
/// event ring ever made and those no thread holds, and the event scope names.
struct Registry {
    metrics: Vec<(Kind, &'static str, usize)>,
    words: usize,
    recorders: Vec<Arc<Recorder>>,
    free: Vec<Arc<Recorder>>,
    scopes: Vec<&'static str>,
    rings: Vec<Arc<events::Ring>>,
    free_rings: Vec<Arc<events::Ring>>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    metrics: Vec::new(),
    words: 0,
    recorders: Vec::new(),
    free: Vec::new(),
    scopes: Vec::new(),
    rings: Vec::new(),
    free_rings: Vec::new(),
});

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn registry() -> MutexGuard<'static, Registry> {
    lock(&REGISTRY)
}

/// One thread's telemetry in one scope: its metric words and the scope
/// it records for. Only the holder writes; anyone reads.
struct Recorder {
    /// Growth swaps in a larger copy, so readers fetch it from here.
    words: Mutex<Arc<[AtomicU64]>>,
    /// Its scope (`None`: the root), set under the registry lock.
    scope: Mutex<Option<Arc<Node>>>,
}

/// A recorder taken for writing, with its word array at hand. Dropping
/// it folds its values into its scope's and every enclosing scope's
/// retired words, zeroes them and frees the recorder.
struct Held {
    recorder: Arc<Recorder>,
    words: Arc<[AtomicU64]>,
}

impl Held {
    /// Takes a free recorder, or makes one sized for every metric
    /// registered so far, to record for `scope`.
    fn acquire(node: Option<&Arc<Node>>) -> Self {
        let mut reg = registry();
        let recorder = reg.free.pop().unwrap_or_else(|| {
            let recorder = Arc::new(Recorder {
                words: Mutex::new((0..reg.words).map(|_| AtomicU64::new(0)).collect()),
                scope: Mutex::default(),
            });
            reg.recorders.push(Arc::clone(&recorder));
            recorder
        });
        *lock(&recorder.scope) = node.cloned();
        drop(reg);
        let words = Arc::clone(&lock(&recorder.words));
        Self { recorder, words }
    }

    /// The `width` words from `word` on. Growth at least doubles the
    /// array by copying it; the holder is its only writer, so the copy
    /// loses nothing.
    fn words(&mut self, word: usize, width: usize) -> &[AtomicU64] {
        if self.words.len() < word + width {
            let len = (word + width).max(2 * self.words.len());
            let old = &self.words;
            self.words = (0..len)
                .map(|i| AtomicU64::new(old.get(i).map_or(0, |w| w.load(Relaxed))))
                .collect();
            *lock(&self.recorder.words) = Arc::clone(&self.words);
        }
        &self.words[word..word + width]
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        let mut reg = registry();
        let node = lock(&self.recorder.scope).take();
        for at in chain(node.as_ref()) {
            fold(&reg, &mut lock(retired(at)), &self.words);
        }
        self.words.iter().for_each(|w| w.store(0, Relaxed));
        reg.free.push(Arc::clone(&self.recorder));
    }
}

/// Folds a recorder's words into `into`, metric by metric, sized for
/// every metric registered so far.
fn fold(reg: &Registry, into: &mut Vec<u64>, words: &[AtomicU64]) {
    into.resize(reg.words, 0);
    for &(kind, _, word) in &reg.metrics {
        let values = words.iter().skip(word).map(|w| w.load(Relaxed));
        kind.merge(&mut into[word..word + kind.layout().0], values);
    }
}

/// A thread's scope (`None`: the root) and its recorder there.
#[derive(Default)]
struct Local {
    node: Option<Arc<Node>>,
    held: Option<Held>,
}

thread_local! {
    /// The calling thread's scope and recorder. [`Scope::enter`] swaps
    /// them; the thread-local destructor returns the recorder.
    static LOCAL: RefCell<Local> = const { RefCell::new(Local { node: None, held: None }) };

    /// The recorders of scopes the thread has left, and [`ENDED`] when
    /// it last looked. The thread-local destructor returns them.
    static PARKED: RefCell<(Vec<Local>, u64)> = const { RefCell::new((Vec::new(), 0)) };
}

/// Scopes ended so far. A thread that sees it move returns the
/// recorders it parked in scopes that have ended.
static ENDED: AtomicU64 = AtomicU64::new(0);

/// Parks the recorder of a scope the thread leaves (a root one goes
/// back), after returning those of scopes that have ended. Returned
/// recorders fold once the borrow ends.
fn park(local: Local) {
    let _returned = PARKED.try_with(|parked| {
        let (parked, seen) = &mut *parked.borrow_mut();
        let mut returned = Vec::new();
        if *seen != ENDED.load(Acquire) {
            *seen = ENDED.load(Acquire);
            let ended = |l: &Local| l.node.as_ref().is_some_and(Node::ended);
            (returned, *parked) = std::mem::take(parked).into_iter().partition(ended);
        }
        let keep = local.node.is_some() && local.held.is_some();
        if keep { &mut *parked } else { &mut returned }.push(local);
        returned
    });
}

/// The thread's parked recorder for `node`, or none yet.
fn unpark(node: Option<&Arc<Node>>) -> Local {
    let at = node.map(Arc::as_ptr);
    let parked = PARKED.with_borrow_mut(|(parked, _)| {
        let i = parked
            .iter()
            .position(|l| l.node.as_ref().map(Arc::as_ptr) == at)?;
        Some(parked.swap_remove(i))
    });
    parked.unwrap_or_else(|| Local {
        node: node.cloned(),
        held: None,
    })
}

/// Runs `write` on the calling thread's recorder. A write that comes
/// after the thread has returned it (another thread-local's destructor
/// running later) borrows a free recorder at the root for that one
/// write.
fn with_recorder(write: impl Fn(&mut Held)) {
    let on_thread = LOCAL.try_with(|local| {
        let Local { node, held } = &mut *local.borrow_mut();
        write(held.get_or_insert_with(|| Held::acquire(node.as_ref())));
    });
    if on_thread.is_err() {
        write(&mut Held::acquire(None));
    }
}

/// A telemetry scope: a node in a tree rooted at the process (the
/// `Default` scope). Threads that [`enter`](Scope::enter) it write to
/// recorders it owns, so its [`snapshot`](Scope::snapshot) holds exactly
/// the writes made inside it and inside the scopes nested in it,
/// extremes included, while every write still counts toward every
/// enclosing scope. A thread starts at the root; `rlckit-par` workers
/// and pool jobs run in the scope of the thread that handed them work.
/// A scope ends when its last handle (clone) drops: nothing can enter
/// it again, and the recorders threads parked in it fold into it.
#[derive(Clone, Default)]
pub struct Scope(Option<Arc<Handle>>);

/// What the handles of one scope share; dropping it ends the scope.
struct Handle(Arc<Node>);

impl Drop for Handle {
    fn drop(&mut self) {
        ENDED.fetch_add(1, Release);
        // This thread returns what it parked here now, others later.
        park(Local::default());
    }
}

/// A scope below the root: its parent, retired words and handle.
struct Node {
    parent: Option<Arc<Node>>,
    retired: Mutex<Vec<u64>>,
    handle: Weak<Handle>,
}

impl Node {
    fn ended(self: &Arc<Self>) -> bool {
        self.handle.strong_count() == 0
    }
}

/// `node` and every node it lies in, up to the root (`None`).
fn chain(node: Option<&Arc<Node>>) -> impl Iterator<Item = Option<&Arc<Node>>> {
    std::iter::successors(Some(node), |at| at.map(|node| node.parent.as_ref()))
}

/// Where the words of recorders that went back to the free list while
/// recording in `node` or below it are folded.
fn retired(node: Option<&Arc<Node>>) -> &Mutex<Vec<u64>> {
    static ROOT: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    node.map_or(&ROOT, |node| &node.retired)
}

impl Scope {
    /// A new scope inside the calling thread's current one.
    #[must_use]
    pub fn new() -> Self {
        let parent = LOCAL.try_with(|local| local.borrow().node.clone());
        Self(Some(Arc::new_cyclic(|handle| {
            Handle(Arc::new(Node {
                parent: parent.ok().flatten(),
                retired: Mutex::default(),
                handle: handle.clone(),
            }))
        })))
    }

    fn node(&self) -> Option<&Arc<Node>> {
        self.0.as_ref().map(|handle| &handle.0)
    }

    /// The calling thread's current scope. (A thread is only in a scope
    /// while a handle on it is entered, so the handle is there.)
    #[must_use]
    pub fn current() -> Self {
        let handle = LOCAL.try_with(|local| {
            let node = local.borrow().node.clone();
            node.and_then(|node| node.handle.upgrade())
        });
        Self(handle.ok().flatten())
    }

    /// Runs `f` with the calling thread in this scope, on the recorder
    /// it parked here if there is one, then parks it here and returns
    /// the thread to its previous scope and recorder (also on panic).
    /// Entering the scope the thread is already in costs one
    /// thread-local read; re-entering one it parked in takes no lock.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Local);
        impl Drop for Restore {
            fn drop(&mut self) {
                let outer = std::mem::take(&mut self.0);
                park(LOCAL.with(|local| local.replace(outer)));
            }
        }
        let _restore = LOCAL.with(|local| {
            let at = local.borrow().node.as_ref().map(Arc::as_ptr);
            let entering = at != self.node().map(Arc::as_ptr);
            entering.then(|| Restore(local.replace(unpark(self.node()))))
        });
        f()
    }

    /// Every metric as written inside this scope so far.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let reg = registry();
        let mut words = lock(retired(self.node())).clone();
        words.resize(reg.words, 0);
        let this = self.node().map(Arc::as_ptr);
        for r in &reg.recorders {
            if chain(lock(&r.scope).as_ref()).any(|at| at.map(Arc::as_ptr) == this) {
                fold(&reg, &mut words, &lock(&r.words));
            }
        }
        let mut merged = BTreeMap::new();
        for &(kind, name, word) in &reg.metrics {
            let width = kind.layout().0;
            let acc = merged.entry((kind, name)).or_insert_with(|| vec![0; width]);
            kind.merge(acc, words[word..].iter().copied());
        }
        drop(reg);
        let mut snap = Snapshot::default();
        for ((kind, name), w) in merged {
            let name = String::from(name);
            if kind == Kind::Counter {
                snap.counters.insert(name, w[0]);
            } else if kind == Kind::Span {
                let span = SpanSnapshot {
                    count: w[0],
                    total_ns: w[1],
                    min_ns: !w[2],
                    max_ns: w[3],
                };
                snap.spans.insert(name, span);
            } else {
                // The extremes are bucket indices unless they overflowed.
                let at = |i: Option<usize>, overflow| {
                    i.map(|i| if i < BUCKETS - 1 { i as u64 } else { overflow })
                };
                let buckets = w[..BUCKETS].to_vec();
                let h = HistogramSnapshot {
                    count: buckets.iter().sum(),
                    sum: w[BUCKETS],
                    min: at(buckets.iter().position(|&c| c > 0), !w[BUCKETS + 1]),
                    max: at(buckets.iter().rposition(|&c| c > 0), w[BUCKETS + 2]),
                    buckets,
                };
                snap.histograms.insert(name, h);
            }
        }
        snap
    }
}

impl PartialEq for Scope {
    fn eq(&self, other: &Self) -> bool {
        self.node().map(Arc::as_ptr) == other.node().map(Arc::as_ptr)
    }
}

/// Runs `f` in a new scope inside the current one and returns its
/// result with the scope's snapshot: the exact telemetry of `f`,
/// including the `rlckit-par` work it hands out.
pub fn scoped<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    let scope = Scope::new();
    (scope.enter(f), scope.snapshot())
}

/// Adds `n` to a word only its holder writes.
fn bump(word: &AtomicU64, n: u64) {
    word.store(word.load(Relaxed).wrapping_add(n), Relaxed);
}

/// Raises a word only its holder writes to at least `v`.
fn raise(word: &AtomicU64, v: u64) {
    if v > word.load(Relaxed) {
        word.store(v, Relaxed);
    }
}

/// What a metric or event-scope static holds: its name and its first
/// word (a scope: its index in the scope names) + 1, 0 until first use
/// registers it.
struct Key(&'static str, AtomicU32);

impl Key {
    /// The first word (the scope index), registering on first use.
    fn word(&self, kind: Kind) -> usize {
        match self.1.load(Relaxed) {
            0 => self.register(kind),
            w => w as usize - 1,
        }
    }

    #[cold]
    fn register(&self, kind: Kind) -> usize {
        let mut reg = registry();
        // Another thread may have registered it since the caller looked.
        if let w @ 1.. = self.1.load(Relaxed) {
            return w as usize - 1;
        }
        let word = if kind == Kind::Scope {
            reg.scopes.push(self.0);
            reg.scopes.len() - 1
        } else {
            let word = reg.words;
            reg.metrics.push((kind, self.0, word));
            reg.words += kind.layout().0;
            word
        };
        let stored = u32::try_from(word + 1).expect("fewer than 2^32 words");
        self.1.store(stored, Relaxed);
        word
    }
}

/// A monotonically increasing event counter.
///
/// Declare one per call site with [`counter!`]; the `static` storage is
/// what makes increments allocation-free.
pub struct Counter(Key);

impl Counter {
    /// Creates an unregistered counter (const: usable in `static`s).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self(Key(name, AtomicU32::new(0)))
    }

    /// Adds `n` to the counter (safe from any thread).
    pub fn add(&'static self, n: u64) {
        let word = self.0.word(Kind::Counter);
        with_recorder(|held| bump(&held.words(word, 1)[0], n));
    }

    /// Increments the counter by one.
    pub fn incr(&'static self) {
        self.add(1);
    }
}

/// A histogram of small non-negative integer observations (iteration
/// counts, tasks per worker, …) with exact buckets plus running
/// count/sum/min/max.
pub struct Histogram(Key);

impl Histogram {
    /// Creates an unregistered histogram (const: usable in `static`s).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self(Key(name, AtomicU32::new(0)))
    }

    /// Records one observation (safe from any thread).
    pub fn observe(&'static self, value: u64) {
        let word = self.0.word(Kind::Histogram);
        let bucket = (value as usize).min(BUCKETS - 1);
        with_recorder(|held| {
            let w = held.words(word, Kind::Histogram.layout().0);
            bump(&w[bucket], 1);
            bump(&w[BUCKETS], value);
            if bucket == BUCKETS - 1 {
                raise(&w[BUCKETS + 1], !value);
                raise(&w[BUCKETS + 2], value);
            }
        });
    }
}

/// Aggregated wall-clock timings for one span label: count, total,
/// min and max, all in nanoseconds.
pub struct SpanTimer(Key);

impl SpanTimer {
    /// Creates an unregistered span timer (const: usable in `static`s).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Self(Key(name, AtomicU32::new(0)))
    }

    /// Starts a span. When tracing is disabled the returned guard is
    /// inert — no clock read, no allocation, nothing recorded on drop.
    #[must_use]
    pub fn start(&'static self) -> SpanGuard {
        if enabled() {
            SpanGuard(Some((self, Instant::now())))
        } else {
            SpanGuard(None)
        }
    }

    /// Records a completed span of `ns` nanoseconds directly.
    pub fn record_ns(&'static self, ns: u64) {
        let word = self.0.word(Kind::Span);
        with_recorder(|held| {
            let w = held.words(word, Kind::Span.layout().0);
            bump(&w[0], 1);
            bump(&w[1], ns);
            raise(&w[2], !ns);
            raise(&w[3], ns);
        });
    }
}

/// RAII guard returned by [`SpanTimer::start`]; records the elapsed
/// time on drop (or nothing, if tracing was disabled at start).
pub struct SpanGuard(Option<(&'static SpanTimer, Instant)>);

impl SpanGuard {
    /// True if this guard is actually timing (tracing was enabled).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((timer, start)) = self.0.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            timer.record_ns(ns);
        }
    }
}

/// Declares a `static` [`Counter`] at the call site and yields a
/// `&'static Counter` handle.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __RLCKIT_TRACE_COUNTER: $crate::Counter = $crate::Counter::new($name);
        &__RLCKIT_TRACE_COUNTER
    }};
}

/// Declares a `static` [`Histogram`] at the call site and yields a
/// `&'static Histogram` handle.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __RLCKIT_TRACE_HISTOGRAM: $crate::Histogram = $crate::Histogram::new($name);
        &__RLCKIT_TRACE_HISTOGRAM
    }};
}

/// Declares a `static` [`SpanTimer`] at the call site and starts a
/// span, yielding the [`SpanGuard`]. Bind it (`let _guard = span!(…);`)
/// so it lives to the end of the scope.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __RLCKIT_TRACE_SPAN: $crate::SpanTimer = $crate::SpanTimer::new($name);
        __RLCKIT_TRACE_SPAN.start()
    }};
}

// ---------------------------------------------------------------------------
// Enablement and sink configuration
// ---------------------------------------------------------------------------

/// Where [`flush`] sends the end-of-run report.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Sink {
    Disabled,
    Summary,
    Jsonl(Option<PathBuf>),
    JsonlAppend(PathBuf),
}

impl Sink {
    /// Parses an `RLCKIT_TRACE` value. Unknown non-empty values fail
    /// open to `Summary`.
    fn parse(raw: &str) -> Self {
        let v = raw.trim();
        match v {
            "" | "0" | "off" => Self::Disabled,
            "summary" | "1" => Self::Summary,
            "jsonl" => Self::Jsonl(None),
            _ => {
                if let Some(path) = v.strip_prefix("jsonl+:") {
                    Self::JsonlAppend(PathBuf::from(path))
                } else if let Some(path) = v.strip_prefix("jsonl:") {
                    Self::Jsonl(Some(PathBuf::from(path)))
                } else {
                    Self::Summary
                }
            }
        }
    }
}

/// The parsed `RLCKIT_TRACE` value, read once per process.
fn env_sink() -> &'static Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    SINK.get_or_init(|| Sink::parse(&std::env::var("RLCKIT_TRACE").unwrap_or_default()))
}

/// Programmatic enablement override: 0 = follow the environment,
/// 1 = forced on, 2 = forced off.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// True when tracing is on: either [`set_enabled`] forced it, or
/// `RLCKIT_TRACE` selects a sink. Counters and histograms record
/// regardless (they are effectively free); this flag gates the span
/// timers and is what makes the disabled path clock-free.
#[must_use]
pub fn enabled() -> bool {
    match FORCED.load(Relaxed) {
        1 => true,
        2 => false,
        _ => *env_sink() != Sink::Disabled,
    }
}

/// Forces tracing on or off for this process, overriding `RLCKIT_TRACE`
/// (used by tests and the bench harness; campaigns normally rely on the
/// environment variable alone).
pub fn set_enabled(on: bool) {
    FORCED.store(if on { 1 } else { 2 }, Relaxed);
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Point-in-time value of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observation (`None` when empty). After
    /// [`Snapshot::since`] this is the *process-lifetime* minimum, not
    /// the interval's; a [`Scope::snapshot`] has the exact extremes of
    /// the writes in its scope.
    pub min: Option<u64>,
    /// Largest observation (`None` when empty); same caveat as `min`.
    pub max: Option<u64>,
    /// Exact buckets: index = observed value, last bucket = overflow.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty). A pure function of count and
    /// sum, so deterministic whenever they are.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest bucket index with a nonzero count, capped at the
    /// overflow bucket (`None` when empty). Unlike `max` this *is*
    /// interval-exact after [`Snapshot::since`] (for values below the
    /// overflow bucket).
    #[must_use]
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// The `q`-quantile of the observations (`q` in `[0, 1]`), with
    /// linear interpolation *within* the containing bucket: bucket `i`
    /// holds observations of exact value `i`, modelled as uniformly
    /// spread over `[i, i+1)`, so e.g. the median of 100 observations
    /// of `3` is `3.5` rather than a bare bucket index. `None` when the
    /// histogram is empty or `q` is out of range / non-finite.
    ///
    /// The last bucket is the overflow bucket (observations `>=
    /// BUCKETS-1`): a quantile landing there interpolates between the
    /// bucket's lower bound and the recorded `max` instead of
    /// pretending the bucket is one unit wide — including the
    /// all-overflow case where *every* observation saturated. (After
    /// [`Snapshot::since`] the `max` is process-lifetime, not
    /// interval-exact — see [`HistogramSnapshot::min`] — so overflow
    /// interpolation on a delta is an upper-bound estimate.)
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !q.is_finite() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let last = self.buckets.len().checked_sub(1)?;
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            if bucket == 0 {
                continue;
            }
            let before = cumulative as f64;
            cumulative += bucket;
            if cumulative as f64 >= rank {
                let fraction = ((rank - before) / bucket as f64).clamp(0.0, 1.0);
                let (lo, hi) = if index == last {
                    let bound = self.max.map_or(last as f64, |m| m as f64).max(last as f64);
                    (last as f64, bound)
                } else {
                    (index as f64, index as f64 + 1.0)
                };
                return Some(lo + fraction * (hi - lo));
            }
        }
        // Floating-point slack consumed every bucket: the answer is the
        // top of the populated range.
        Some(self.max.map_or(last as f64, |m| m as f64))
    }
}

/// Point-in-time value of one span timer. All fields are wall-clock
/// derived and therefore non-deterministic; they serialize only under
/// `*_ns` keys.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanSnapshot {
    /// Number of completed spans.
    pub count: u64,
    /// Total nanoseconds across all spans.
    pub total_ns: u64,
    /// Shortest span (`u64::MAX` when empty).
    pub min_ns: u64,
    /// Longest span.
    pub max_ns: u64,
}

/// A consistent-enough copy of every registered metric (individual
/// loads are relaxed; concurrent increments may straddle the walk,
/// which telemetry tolerates by design).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span timer states by name.
    pub spans: BTreeMap<String, SpanSnapshot>,
}

impl Snapshot {
    /// A counter's value, 0 when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of all counters whose name ends with `suffix` (e.g.
    /// `".no_convergence"` for the campaign failure tally).
    #[must_use]
    pub fn counters_ending_with(&self, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| name.ends_with(suffix))
            .map(|(_, &v)| v)
            .sum()
    }

    /// The change since an `earlier` snapshot: counters, histogram
    /// counts/sums/buckets and span counts/totals subtract
    /// (saturating); histogram and span min/max keep this snapshot's
    /// process-lifetime values (see [`HistogramSnapshot::min`]); a
    /// [`Scope`]'s snapshot (see [`scoped`]) is exact.
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        let counters = self
            .counters
            .iter()
            .map(|(name, &v)| (name.clone(), v.saturating_sub(earlier.counter(name))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let mut d = h.clone();
                if let Some(old) = earlier.histograms.get(name) {
                    d.count = d.count.saturating_sub(old.count);
                    d.sum = d.sum.saturating_sub(old.sum);
                    for (b, ob) in d.buckets.iter_mut().zip(&old.buckets) {
                        *b = b.saturating_sub(*ob);
                    }
                }
                (name.clone(), d)
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(name, s)| {
                let mut d = s.clone();
                if let Some(old) = earlier.spans.get(name) {
                    d.count = d.count.saturating_sub(old.count);
                    d.total_ns = d.total_ns.saturating_sub(old.total_ns);
                }
                (name.clone(), d)
            })
            .collect();
        Self {
            counters,
            histograms,
            spans,
        }
    }
}

/// Captures the current value of every registered metric, process-wide:
/// the root scope's [`Scope::snapshot`].
#[must_use]
pub fn snapshot() -> Snapshot {
    Scope::default().snapshot()
}

// ---------------------------------------------------------------------------
// Sinks: text summary and JSONL
// ---------------------------------------------------------------------------

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Renders the aligned text summary of a snapshot. Zero-valued metrics
/// are omitted — a grep for a counter name in the summary is therefore
/// a nonzero check (the tier-1 gate relies on this for
/// `*.no_convergence`).
#[must_use]
pub fn summary_of(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        if *value > 0 {
            out.push_str(&format!("  counter   {name:<48} {value}\n"));
        }
    }
    for (name, h) in &snap.histograms {
        if h.count > 0 {
            out.push_str(&format!(
                "  histogram {name:<48} count {}  mean {:.3}  min {}  max {}\n",
                h.count,
                h.mean(),
                h.min.unwrap_or(0),
                h.max.unwrap_or(0),
            ));
        }
    }
    for (name, s) in &snap.spans {
        if s.count > 0 {
            out.push_str(&format!(
                "  span      {name:<48} count {}  total {}  mean {}\n",
                s.count,
                format_ns(s.total_ns as f64),
                format_ns(s.total_ns as f64 / s.count as f64),
            ));
        }
    }
    if out.is_empty() {
        out.push_str("  (no metrics recorded)\n");
    }
    out
}

/// Renders the current metrics as an aligned text summary.
#[must_use]
pub fn summary_string() -> String {
    summary_of(&snapshot())
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a snapshot as JSON lines: one object per metric, sorted by
/// kind then name. Deterministic fields only, except values under keys
/// ending in `_ns` (span wall-clock) — the documented escape hatch the
/// JSONL guard test checks.
#[must_use]
pub fn jsonl_of(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        out.push_str(&format!(
            "{{\"type\":\"counter\",\"name\":{},\"value\":{value}}}\n",
            json_escape(name)
        ));
    }
    for (name, h) in &snap.histograms {
        let buckets: Vec<String> = {
            let last = h.max_bucket().map_or(0, |i| i + 1);
            h.buckets[..last].iter().map(u64::to_string).collect()
        };
        out.push_str(&format!(
            "{{\"type\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{},\
             \"min\":{},\"max\":{},\"buckets\":[{}]}}\n",
            json_escape(name),
            h.count,
            h.sum,
            h.min.unwrap_or(0),
            h.max.unwrap_or(0),
            buckets.join(","),
        ));
    }
    for (name, s) in &snap.spans {
        let min_ns = if s.count == 0 { 0 } else { s.min_ns };
        out.push_str(&format!(
            "{{\"type\":\"span\",\"name\":{},\"count\":{},\"total_ns\":{},\
             \"min_ns\":{min_ns},\"max_ns\":{}}}\n",
            json_escape(name),
            s.count,
            s.total_ns,
            s.max_ns,
        ));
    }
    out
}

/// Renders the current metrics as JSON lines.
#[must_use]
pub fn jsonl_string() -> String {
    jsonl_of(&snapshot())
}

/// The next `jsonl+:` flush marker's sequence number. Its lock also
/// serializes concurrent flushes, so each appended block is one
/// contiguous byte range with an in-order marker (see
/// [`append_jsonl_snapshot`]).
static FLUSH_SEQ: Mutex<u64> = Mutex::new(0);

/// Appends one marker-delimited snapshot of the current metrics to
/// `path`: a `{"type":"flush","value":<seq>}` marker line (`seq` is a
/// per-process counter starting at 0) followed by the full
/// [`jsonl_string`] rendering. This is the `jsonl+:<path>` sink body —
/// the history-preserving flush a periodically-flushing daemon needs,
/// where the truncating `jsonl:<path>` sink would leave only the last
/// flush on disk. The file is created if absent.
///
/// Flushes are atomic with respect to each other: the marker's
/// sequence number is claimed and the whole block written as a single
/// `write_all` under one process-wide lock, so a reader never sees a
/// torn block and marker values appear in strictly increasing file
/// order even when a background flusher races an exit flush.
///
/// # Errors
///
/// Propagates the underlying open/write failure.
pub fn append_jsonl_snapshot(path: &std::path::Path) -> std::io::Result<()> {
    let mut seq = lock(&FLUSH_SEQ);
    let mut block = format!("{{\"type\":\"flush\",\"value\":{seq}}}\n");
    *seq += 1;
    block.push_str(&jsonl_string());
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(block.as_bytes())
}

/// Writes the end-of-run report to the sink `RLCKIT_TRACE` selects
/// (nothing when tracing is disabled). One-shot campaign binaries and
/// the bench harness call it once at the end; with the truncating
/// `jsonl:<path>` sink a later flush overwrites an earlier one (last
/// flush wins — the final flush is the complete report). Long-running
/// processes that flush periodically should run under `jsonl+:<path>`,
/// where every flush appends a marker-delimited snapshot instead (see
/// [`append_jsonl_snapshot`]).
pub fn flush() {
    match env_sink() {
        Sink::Disabled => {}
        Sink::Summary => {
            let _ = writeln!(std::io::stderr(), "trace summary:\n{}", summary_string());
        }
        Sink::Jsonl(None) => {
            let _ = write!(std::io::stderr(), "{}", jsonl_string());
        }
        Sink::Jsonl(Some(path)) => {
            if let Err(e) = std::fs::write(path, jsonl_string()) {
                eprintln!(
                    "warning: could not write trace jsonl {}: {e}",
                    path.display()
                );
            }
        }
        Sink::JsonlAppend(path) => {
            if let Err(e) = append_jsonl_snapshot(path) {
                eprintln!(
                    "warning: could not append trace jsonl {}: {e}",
                    path.display()
                );
            }
        }
    }
}

/// Serializes the unit tests that set or rely on the process-global
/// enabled flag, so one test's `set_enabled(false)` cannot land in the
/// middle of another test's recording.
#[cfg(test)]
pub(crate) fn enabled_flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads in sibling scopes write one counter and histogram at
    /// once, and each scope reads exactly its own writes, extremes
    /// included (every value overflows, and a later, smaller one lowers
    /// the minimum). A nested scope counts toward its outer scope and
    /// the process; a recorder reused after its scope ends reads zero.
    #[test]
    fn scopes_read_exactly_their_own_writes() {
        let c = counter!("test.scope_counter");
        let h = histogram!("test.scope_histogram");
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for n in [100u64, 250] {
                let barrier = &barrier;
                s.spawn(move || {
                    let ((), snap) = scoped(|| {
                        barrier.wait();
                        for i in 0..n {
                            c.incr();
                            h.observe(n + 2 - i % 3);
                        }
                    });
                    assert_eq!(snap.counter("test.scope_counter"), n);
                    let hs = &snap.histograms["test.scope_histogram"];
                    assert_eq!((hs.count, hs.min, hs.max), (n, Some(n), Some(n + 2)));
                    assert_eq!(hs.buckets[BUCKETS - 1], n, "every value overflows");
                });
            }
        });
        let outer = Scope::new();
        let inner = outer.enter(|| {
            assert!(Scope::current() == outer);
            c.add(1);
            scoped(|| c.add(7)).1
        });
        assert_eq!(inner.counter("test.scope_counter"), 7);
        assert_eq!(outer.snapshot().counter("test.scope_counter"), 8);
        assert_eq!(snapshot().counter("test.scope_counter"), 358);
        assert_eq!(snapshot().counter("test.never_touched"), 0);
        assert_eq!(Scope::new().snapshot().counter("test.scope_counter"), 0);
        let ((), fresh) = scoped(|| counter!("test.scope_fresh").incr());
        assert_eq!(fresh.counter("test.scope_fresh"), 1);
        assert_eq!(fresh.counter("test.scope_counter"), 0);
        assert_eq!(fresh.histograms["test.scope_histogram"].count, 0);
    }

    /// Recorders that record in `scope` or in a scope inside it now.
    fn recorders_within(scope: &Scope) -> usize {
        let this = scope.node().map(Arc::as_ptr);
        let reg = registry();
        let within = |r: &&Arc<Recorder>| {
            chain(lock(&r.scope).as_ref()).any(|at| at.map(Arc::as_ptr) == this)
        };
        reg.recorders.iter().filter(within).count()
    }

    /// The recorder the calling thread writes to now.
    fn current_recorder() -> usize {
        LOCAL
            .with(|local| {
                local
                    .borrow()
                    .held
                    .as_ref()
                    .map(|h| Arc::as_ptr(&h.recorder) as usize)
            })
            .expect("the thread has written")
    }

    /// A thread that alternates between two scopes parks one recorder
    /// in each and takes it back on every visit; a parked recorder stays
    /// while its scope is open, however many are, and folds into the
    /// enclosing scopes once the scope ends: at once on the thread that
    /// ends it, on the next leave elsewhere, at exit otherwise. Every
    /// snapshot stays exact throughout.
    #[test]
    fn parked_recorders_fold_when_their_scope_ends() {
        const VISITS: u64 = 500;
        const OPEN: u64 = 8;
        let c = counter!("test.park_counter");
        let many: u64 = (0..OPEN).map(|i| 10 + i).sum();
        let total = 3 * VISITS + 1 + many;
        let outer = Scope::new();
        let (a, b, open, ended) = outer.enter(|| {
            let open: Vec<Scope> = (0..OPEN).map(|_| Scope::new()).collect();
            (Scope::new(), Scope::new(), open, Scope::new())
        });
        let (to_worker, jobs) = std::sync::mpsc::channel::<Scope>();
        let (done, from_worker) = std::sync::mpsc::channel();
        let open = &open;
        std::thread::scope(|s| {
            let worker = s.spawn(move || {
                let mut taken = std::collections::BTreeSet::new();
                for _ in 0..VISITS {
                    taken.insert(a.enter(|| (c.add(1), current_recorder()).1));
                    taken.insert(b.enter(|| (c.add(2), current_recorder()).1));
                }
                assert_eq!(taken.len(), 2, "one recorder per scope, not per visit");
                assert_eq!((recorders_within(&a), recorders_within(&b)), (1, 1));
                assert_eq!(a.snapshot().counter("test.park_counter"), VISITS);
                assert_eq!(b.snapshot().counter("test.park_counter"), 2 * VISITS);
                // This thread ends both: it returns their recorders now.
                drop((a, b));
                for (i, scope) in (10..).zip(open) {
                    scope.enter(|| c.add(i));
                }
                assert!(open.iter().all(|scope| recorders_within(scope) == 1));
                for scope in jobs {
                    scope.enter(|| c.incr());
                    drop(scope);
                    done.send(()).unwrap();
                }
            });
            to_worker.send(ended.clone()).unwrap();
            from_worker.recv().unwrap();
            // Open scopes keep the worker's recorders; `outer` counts
            // them, exactly.
            assert_eq!(recorders_within(&outer), OPEN as usize + 1);
            assert_eq!(outer.snapshot().counter("test.park_counter"), total);
            // Ending `ended` here leaves the worker's recorder parked
            // until the worker next leaves a scope.
            drop(ended);
            to_worker.send(open[0].clone()).unwrap();
            from_worker.recv().unwrap();
            assert_eq!(recorders_within(&outer), OPEN as usize);
            assert_eq!(outer.snapshot().counter("test.park_counter"), total + 1);
            drop(to_worker);
            // Only a join waits for the thread-local destructors.
            worker.join().unwrap();
        });
        // The worker exited: what it parked in the open scopes folded.
        assert_eq!(recorders_within(&outer), 0);
        for (i, scope) in (10..).zip(open) {
            let own = i + u64::from(std::ptr::eq(scope, &open[0]));
            assert_eq!(scope.snapshot().counter("test.park_counter"), own);
        }
        assert_eq!(outer.snapshot().counter("test.park_counter"), total + 1);
        assert_eq!(snapshot().counter("test.park_counter"), total + 1);
    }

    #[test]
    fn histograms_track_buckets_and_extremes() {
        let h = histogram!("test.histogram_buckets");
        for v in [2u64, 2, 7, 40] {
            h.observe(v);
        }
        let snap = snapshot();
        let hs = &snap.histograms["test.histogram_buckets"];
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum, 51);
        assert_eq!(hs.min, Some(2));
        assert_eq!(hs.max, Some(40));
        assert_eq!(hs.buckets[2], 2);
        assert_eq!(hs.buckets[7], 1);
        assert_eq!(hs.buckets[BUCKETS - 1], 1, "40 overflows the exact range");
        assert!((hs.mean() - 12.75).abs() < 1e-12);
        assert_eq!(hs.max_bucket(), Some(BUCKETS - 1));
    }

    /// Seventeen threads write at once, each into its own recorder:
    /// every total must be exact, and equal the closed form over all
    /// threads.
    #[test]
    fn recorders_sum_to_exact_totals_across_threads() {
        const THREADS: u64 = 17;
        const ROUNDS: u64 = 500;
        let c = counter!("test.recorders_counter");
        let h = histogram!("test.recorders_histogram");
        static SPAN: SpanTimer = SpanTimer::new("test.recorders_span");
        let s = &SPAN;
        // Thread t observes (t + i) mod 40, covering every exact bucket
        // and the overflow bucket, and records a span of 10·t + i + 5 ns.
        let value = |t: u64, i: u64| (t + i) % 40;
        let ns = |t: u64, i: u64| 10 * t + i + 5;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    for i in 0..ROUNDS {
                        c.incr();
                        c.add(2);
                        h.observe(value(t, i));
                        s.record_ns(ns(t, i));
                    }
                });
            }
        });
        let mut buckets = vec![0u64; BUCKETS];
        let (mut sum, mut total_ns) = (0u64, 0u64);
        for t in 0..THREADS {
            for i in 0..ROUNDS {
                buckets[(value(t, i) as usize).min(BUCKETS - 1)] += 1;
                sum += value(t, i);
                total_ns += ns(t, i);
            }
        }
        let snap = snapshot();
        assert_eq!(snap.counter("test.recorders_counter"), 3 * THREADS * ROUNDS);
        let hs = &snap.histograms["test.recorders_histogram"];
        assert_eq!(hs.count, THREADS * ROUNDS);
        assert_eq!(hs.sum, sum);
        assert_eq!(hs.min, Some(0));
        assert_eq!(hs.max, Some(39));
        assert_eq!(hs.buckets, buckets);
        assert!(hs.buckets[BUCKETS - 1] > 0, "overflow bucket is exercised");
        let ss = &snap.spans["test.recorders_span"];
        assert_eq!(ss.count, THREADS * ROUNDS);
        assert_eq!(ss.total_ns, total_ns);
        assert_eq!(ss.min_ns, 5);
        assert_eq!(ss.max_ns, ns(THREADS - 1, ROUNDS - 1));
    }

    /// Threads that run one after another reuse the recorder each one
    /// hands back: they write to about as many recorders as threads
    /// record at once (sibling tests take some too), not one each, and
    /// every thread's values and events outlive it. Each thread reports
    /// the recorder it wrote to, so recorders that sibling tests make
    /// or keep parked do not count.
    #[test]
    fn short_lived_threads_recycle_recorders() {
        const THREADS: u64 = 256;
        let _flag = enabled_flag_lock();
        set_enabled(true);
        let mut used = std::collections::BTreeSet::new();
        for t in 0..THREADS {
            let recorder = std::thread::spawn(move || {
                counter!("test.recycle_counter").add(t);
                histogram!("test.recycle_histogram").observe(t % 40);
                static SPAN: SpanTimer = SpanTimer::new("test.recycle_span");
                SPAN.record_ns(t + 1);
                crate::event!(t, "test.recycle_event", events::EventKind::Outcome, t);
                current_recorder()
            })
            .join()
            .unwrap();
            used.insert(recorder);
        }
        let snap = snapshot();
        assert_eq!(
            snap.counter("test.recycle_counter"),
            THREADS * (THREADS - 1) / 2
        );
        let hs = &snap.histograms["test.recycle_histogram"];
        assert_eq!(hs.count, THREADS);
        assert_eq!(hs.sum, (0..THREADS).map(|t| t % 40).sum::<u64>());
        assert_eq!((hs.min, hs.max), (Some(0), Some(39)));
        let ss = &snap.spans["test.recycle_span"];
        assert_eq!(ss.count, THREADS);
        assert_eq!(ss.total_ns, THREADS * (THREADS + 1) / 2);
        assert_eq!((ss.min_ns, ss.max_ns), (1, THREADS));
        let events = events::collect().events;
        let mine = events.iter().filter(|e| e.scope == "test.recycle_event");
        assert_eq!(mine.count() as u64, THREADS);
        assert!(
            used.len() < 64,
            "{THREADS} threads in turn wrote to {} recorders",
            used.len()
        );
    }

    /// A write from a thread-local destructor that runs after the
    /// thread has handed its recorder back must neither panic nor be
    /// lost. Destructor order follows registration order, so one of the
    /// two threads writes late whichever way it runs.
    #[test]
    fn writes_from_late_destructors_are_kept() {
        struct WritesOnDrop;
        impl Drop for WritesOnDrop {
            fn drop(&mut self) {
                counter!("test.late_write").incr();
            }
        }
        thread_local! {
            static WRITES_ON_DROP: WritesOnDrop = const { WritesOnDrop };
        }
        std::thread::spawn(|| {
            WRITES_ON_DROP.with(|_| {});
            counter!("test.late_write").incr();
        })
        .join()
        .unwrap();
        std::thread::spawn(|| {
            counter!("test.late_write").incr();
            WRITES_ON_DROP.with(|_| {});
        })
        .join()
        .unwrap();
        assert_eq!(snapshot().counter("test.late_write"), 4);
    }

    /// A metric static is its name and a word offset; its values live
    /// in the recorders.
    #[test]
    fn metric_statics_are_a_name_and_an_offset() {
        let sizes = [
            std::mem::size_of::<Counter>(),
            std::mem::size_of::<Histogram>(),
            std::mem::size_of::<SpanTimer>(),
        ];
        assert!(sizes.iter().all(|&size| size <= 32), "{sizes:?}");
    }

    #[test]
    fn snapshot_delta_subtracts_counts_and_buckets() {
        let c = counter!("test.delta_counter");
        let h = histogram!("test.delta_histogram");
        c.add(2);
        h.observe(3);
        let before = snapshot();
        c.add(5);
        h.observe(3);
        h.observe(9);
        let delta = snapshot().since(&before);
        assert_eq!(delta.counter("test.delta_counter"), 5);
        let hd = &delta.histograms["test.delta_histogram"];
        assert_eq!(hd.count, 2);
        assert_eq!(hd.sum, 12);
        assert_eq!(hd.buckets[3], 1);
        assert_eq!(hd.buckets[9], 1);
    }

    #[test]
    fn span_guards_record_only_when_enabled() {
        // One test owns both states: parallel tests must not fight over
        // the global flag mid-assertion.
        let _flag = enabled_flag_lock();
        set_enabled(false);
        {
            let guard = span!("test.span_disabled");
            assert!(
                !guard.is_active(),
                "disabled tracing must yield inert guards"
            );
        }
        assert_eq!(
            snapshot()
                .spans
                .get("test.span_disabled")
                .map_or(0, |s| s.count),
            0
        );

        set_enabled(true);
        {
            let guard = span!("test.span_enabled");
            assert!(guard.is_active());
            std::hint::black_box(3u64.pow(7));
        }
        let snap = snapshot();
        let s = &snap.spans["test.span_enabled"];
        assert_eq!(s.count, 1);
        assert!(s.min_ns <= s.max_ns);
        assert!(s.total_ns >= s.max_ns);
        set_enabled(true);
    }

    #[test]
    fn sink_parsing_covers_the_documented_grammar() {
        assert_eq!(Sink::parse(""), Sink::Disabled);
        assert_eq!(Sink::parse("0"), Sink::Disabled);
        assert_eq!(Sink::parse("off"), Sink::Disabled);
        assert_eq!(Sink::parse("summary"), Sink::Summary);
        assert_eq!(Sink::parse("1"), Sink::Summary);
        assert_eq!(Sink::parse("jsonl"), Sink::Jsonl(None));
        assert_eq!(
            Sink::parse("jsonl:/tmp/trace.jsonl"),
            Sink::Jsonl(Some(PathBuf::from("/tmp/trace.jsonl")))
        );
        // Pre-fix regression: `jsonl+:` used to fall through to the
        // summary sink, so a daemon asking for append-mode history got
        // no file at all.
        assert_eq!(
            Sink::parse("jsonl+:/tmp/trace.jsonl"),
            Sink::JsonlAppend(PathBuf::from("/tmp/trace.jsonl"))
        );
        // Unknown values fail open to summary.
        assert_eq!(Sink::parse("weird"), Sink::Summary);
    }

    /// Pre-fix regression for the truncate-on-flush sink: periodic
    /// flushes through the append sink must *accumulate* — two flushes
    /// yield two marker-delimited snapshots, not one surviving "last
    /// flush wins" image.
    #[test]
    fn two_append_flushes_preserve_two_snapshots() {
        let path =
            std::env::temp_dir().join(format!("rlckit_trace_append_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);

        counter!("test.append_flush_counter").incr();
        append_jsonl_snapshot(&path).expect("first append");
        counter!("test.append_flush_counter").incr();
        append_jsonl_snapshot(&path).expect("second append");

        let text = std::fs::read_to_string(&path).expect("read back");
        let markers: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"flush\""))
            .collect();
        assert_eq!(markers.len(), 2, "each flush must leave its marker: {text}");
        // Marker sequence numbers are distinct and increasing.
        assert_ne!(markers[0], markers[1]);
        let counter_lines = text
            .lines()
            .filter(|l| l.contains("\"name\":\"test.append_flush_counter\""))
            .count();
        assert_eq!(counter_lines, 2, "both snapshots must carry the counter");
        // Every line is still a standalone JSON object.
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Pre-fix regression for flush atomicity: the marker's sequence
    /// number used to be claimed outside any lock and the block written
    /// through `write!` (multiple underlying writes), so two racing
    /// flushes could interleave their bytes — torn lines — or land
    /// their markers out of order. Post-fix each flush is one
    /// `write_all` under a lock that also claims the sequence number.
    #[test]
    fn interleaved_append_flushes_never_tear_blocks() {
        let path = std::env::temp_dir().join(format!(
            "rlckit_trace_interleave_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        const THREADS: u64 = 8;
        const FLUSHES: u64 = 5;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let path = &path;
                scope.spawn(move || {
                    for i in 0..FLUSHES {
                        // Grow the snapshot between flushes so blocks are
                        // big enough that an unserialized writer would
                        // interleave.
                        histogram!("test.interleave_flush_load").observe(t * FLUSHES + i);
                        append_jsonl_snapshot(path).expect("append");
                    }
                });
            }
        });

        let text = std::fs::read_to_string(&path).expect("read back");
        let mut markers = Vec::new();
        for line in text.lines() {
            // No torn lines: every line is a standalone JSON object.
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "torn line: {line:?}"
            );
            if let Some(rest) = line.strip_prefix("{\"type\":\"flush\",\"value\":") {
                let seq: u64 = rest.trim_end_matches('}').parse().expect(line);
                markers.push(seq);
            }
        }
        assert_eq!(markers.len() as u64, THREADS * FLUSHES);
        // Markers appear in strictly increasing file order: the claim
        // and the write happened under one lock.
        for pair in markers.windows(2) {
            assert!(pair[0] < pair[1], "markers out of order: {markers:?}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn percentile_interpolates_within_buckets() {
        // 100 observations uniformly over values 0..10: the exact
        // distribution's quantile function is q -> 10q.
        let mut h = HistogramSnapshot {
            count: 100,
            sum: 450,
            min: Some(0),
            max: Some(9),
            buckets: vec![0; BUCKETS],
        };
        for b in 0..10 {
            h.buckets[b] = 10;
        }
        assert!((h.percentile(0.5).unwrap() - 5.0).abs() < 1e-12);
        assert!((h.percentile(0.95).unwrap() - 9.5).abs() < 1e-12);
        assert!((h.percentile(1.0).unwrap() - 10.0).abs() < 1e-12);
        assert!((h.percentile(0.0).unwrap() - 0.0).abs() < 1e-12);

        // A point mass at 3 spreads over [3, 4): the median is 3.5, not
        // the bare bucket index.
        let point = HistogramSnapshot {
            count: 100,
            sum: 300,
            min: Some(3),
            max: Some(3),
            buckets: {
                let mut b = vec![0; BUCKETS];
                b[3] = 100;
                b
            },
        };
        assert!((point.percentile(0.5).unwrap() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_handles_overflow_and_degenerate_inputs() {
        // All-overflow: every observation saturated into the last
        // bucket. Interpolation runs between the bucket's lower bound
        // and the recorded max instead of a fictitious +1 width.
        let mut all_over = HistogramSnapshot {
            count: 10,
            sum: 400,
            min: Some(40),
            max: Some(40),
            buckets: vec![0; BUCKETS],
        };
        all_over.buckets[BUCKETS - 1] = 10;
        let lo = (BUCKETS - 1) as f64;
        let p50 = all_over.percentile(0.5).unwrap();
        assert!((p50 - (lo + 0.5 * (40.0 - lo))).abs() < 1e-12, "{p50}");
        assert!((all_over.percentile(1.0).unwrap() - 40.0).abs() < 1e-12);

        // Mixed: half exact, half overflow — p25 is exact-range, p75
        // overflow-range.
        let mut mixed = all_over.clone();
        mixed.count = 20;
        mixed.buckets[2] = 10;
        mixed.min = Some(2);
        assert!(mixed.percentile(0.25).unwrap() < 3.0);
        assert!(mixed.percentile(0.75).unwrap() > lo);

        // Empty and out-of-range inputs answer None, never panic.
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.percentile(0.5), None);
        assert_eq!(all_over.percentile(-0.1), None);
        assert_eq!(all_over.percentile(1.5), None);
        assert_eq!(all_over.percentile(f64::NAN), None);
    }

    #[test]
    fn summary_omits_zero_valued_metrics() {
        let mut snap = Snapshot::default();
        snap.counters.insert("zeros.are.hidden".into(), 0);
        snap.counters.insert("ones.are.shown".into(), 1);
        let text = summary_of(&snap);
        assert!(!text.contains("zeros.are.hidden"));
        assert!(text.contains("ones.are.shown"));
    }

    #[test]
    fn jsonl_lines_are_wellformed_objects() {
        let c = counter!("test.jsonl_counter");
        c.incr();
        let h = histogram!("test.jsonl_histogram");
        h.observe(4);
        let text = jsonl_string();
        assert!(!text.is_empty());
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"type\":\"counter\""));
        assert!(text.contains("\"type\":\"histogram\""));
        assert!(text.contains("\"name\":\"test.jsonl_counter\""));
    }

    #[test]
    fn counters_ending_with_sums_the_family() {
        let mut snap = Snapshot::default();
        snap.counters.insert("a.no_convergence".into(), 2);
        snap.counters.insert("b.c.no_convergence".into(), 3);
        snap.counters.insert("b.converged".into(), 100);
        assert_eq!(snap.counters_ending_with(".no_convergence"), 5);
    }
}
