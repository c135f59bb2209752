//! A sharded, bounded-queue worker pool for long-running services.
//!
//! [`par_map`](crate::par_map) executes one finite batch and joins; a
//! serving daemon instead needs workers that outlive any single request
//! and a **bounded** intake so a burst backpressures the producer
//! instead of growing an unbounded buffer. [`ShardedPool`]
//! provides that: one OS thread and one bounded FIFO queue per shard,
//! with requests routed to an explicit shard index.
//!
//! # Ordering and affinity contract
//!
//! * Requests submitted to the same shard are handled **in submission
//!   order** (per-shard FIFO), by **the same worker thread** every
//!   time. A serving layer that routes each request to the shard
//!   owning its cache key therefore serializes same-key requests —
//!   which is what makes a daemon's hit/miss sequence deterministic —
//!   while different keys proceed in parallel with no shared lock.
//! * [`ShardedPool::submit`] blocks when the shard's queue is full
//!   (bounded backpressure), never drops, and never reorders.
//!
//! # Panic policy
//!
//! A panicking handler must not kill its worker (a daemon shard that
//! dies silently turns every later request on that shard into a hang).
//! The worker catches the panic, counts it under `par.pool.panics`,
//! and keeps serving. Handlers signal *expected* failures through
//! their own response channel, not by panicking.
//!
//! # Telemetry
//!
//! `par.pool.submitted` counts intake, `par.pool.backpressure` counts
//! submissions that found the queue full and had to block, and the
//! `par.pool.queue_depth` histogram records the shard's queue depth
//! observed at each submission — the live "how far behind is the
//! daemon" signal. Like the rest of the `par.*` family these record
//! scheduling, not algorithmic, quantities. A job runs in its
//! submitter's trace scope and fault plan (see the crate docs).
//!
//! Requests submitted through [`ShardedPool::submit_traced`]
//! additionally carry a flight-recorder `trace_id`: the worker records
//! a `par.pool.dequeue` event (kind [`EventKind::Dequeue`], value =
//! shard index) the moment it picks the request up. Because workers
//! are pinned to shards, the shard index *is* the worker attribution,
//! and it is deterministic (key-hash routing), unlike the queue-depth
//! scheduling metrics above.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

use rlckit_trace::events::EventKind;
use rlckit_trace::{counter, event, histogram};

use crate::Context;

/// A submission rejected because the target shard's worker is gone —
/// possible only after the pool has started tearing down. Carries the
/// rejected request back to the caller, so a serving layer can still
/// answer it (e.g. with an error response naming the request's id)
/// instead of dropping it on the floor.
pub struct PoolClosed<Req> {
    /// The shard whose worker was gone.
    pub shard: usize,
    /// The rejected request, returned intact.
    pub request: Req,
}

impl<Req> std::fmt::Debug for PoolClosed<Req> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PoolClosed {{ shard: {} }}", self.shard)
    }
}

impl<Req> std::fmt::Display for PoolClosed<Req> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool shard {} worker is gone", self.shard)
    }
}

/// What travels down a shard's queue: the optional flight-recorder
/// trace id, the submitter's context, then the request itself.
type Tagged<Req> = (Option<u64>, Context, Req);

/// A fixed set of worker threads, each owning one bounded FIFO queue.
/// See the module docs for the ordering, backpressure and panic
/// contracts.
pub struct ShardedPool<Req: Send + 'static> {
    senders: std::sync::RwLock<Option<Vec<SyncSender<Tagged<Req>>>>>,
    workers: usize,
    depths: Arc<Vec<AtomicUsize>>,
    handles: std::sync::Mutex<Vec<JoinHandle<()>>>,
}

impl<Req: Send + 'static> ShardedPool<Req> {
    /// Spawns `workers` threads (clamped to ≥ 1), each with a bounded
    /// queue of `queue_depth` requests (clamped to ≥ 1). `handler`
    /// receives `(shard_index, request)` and runs on shard
    /// `shard_index`'s dedicated thread.
    #[must_use]
    pub fn new<F>(workers: usize, queue_depth: usize, handler: F) -> Self
    where
        F: Fn(usize, Req) + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let queue_depth = queue_depth.max(1);
        let handler = Arc::new(handler);
        let depths: Arc<Vec<AtomicUsize>> =
            Arc::new((0..workers).map(|_| AtomicUsize::new(0)).collect());
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for shard in 0..workers {
            let (tx, rx) = sync_channel::<Tagged<Req>>(queue_depth);
            let handler = Arc::clone(&handler);
            let depths = Arc::clone(&depths);
            handles.push(std::thread::spawn(move || {
                while let Ok((trace_id, context, req)) = rx.recv() {
                    depths[shard].fetch_sub(1, Ordering::Relaxed);
                    let job = || {
                        if let Some(id) = trace_id {
                            event!(id, "par.pool.dequeue", EventKind::Dequeue, shard as u64);
                        }
                        if catch_unwind(AssertUnwindSafe(|| handler(shard, req))).is_err() {
                            counter!("par.pool.panics").incr();
                        }
                    };
                    context.run(job);
                }
            }));
            senders.push(tx);
        }
        Self {
            senders: std::sync::RwLock::new(Some(senders)),
            workers,
            depths,
            handles: std::sync::Mutex::new(handles),
        }
    }

    /// Number of workers (= shards).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueues `req` on shard `shard % workers()`. Blocks while the
    /// shard's queue is full (bounded backpressure).
    ///
    /// # Errors
    ///
    /// [`PoolClosed`] — carrying the rejected request back — if the
    /// shard's worker is gone, possible only after the pool has started
    /// tearing down.
    pub fn submit(&self, shard: usize, req: Req) -> std::result::Result<(), PoolClosed<Req>> {
        self.submit_inner(shard, None, req)
    }

    /// Like [`ShardedPool::submit`], but tags the request with a
    /// flight-recorder `trace_id`: the shard's worker records a
    /// `par.pool.dequeue` event (value = shard index — worker
    /// attribution, since workers are pinned) when it picks the
    /// request up.
    ///
    /// # Errors
    ///
    /// Same as [`ShardedPool::submit`].
    pub fn submit_traced(
        &self,
        shard: usize,
        trace_id: u64,
        req: Req,
    ) -> std::result::Result<(), PoolClosed<Req>> {
        self.submit_inner(shard, Some(trace_id), req)
    }

    fn submit_inner(
        &self,
        shard: usize,
        trace_id: Option<u64>,
        req: Req,
    ) -> std::result::Result<(), PoolClosed<Req>> {
        let shard = shard % self.workers;
        let senders = self
            .senders
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // On rejection the request is handed back to the caller — a
        // serving layer answers it inline with the id it already parsed
        // rather than losing the correlation.
        let Some(senders) = senders.as_ref() else {
            return Err(PoolClosed {
                shard,
                request: req,
            });
        };
        counter!("par.pool.submitted").incr();
        let depth = self.depths[shard].fetch_add(1, Ordering::Relaxed) + 1;
        histogram!("par.pool.queue_depth").observe(depth as u64);
        let disconnected = |depths: &[AtomicUsize], request: Req| {
            depths[shard].fetch_sub(1, Ordering::Relaxed);
            PoolClosed { shard, request }
        };
        let job = (trace_id, Context::capture(), req);
        match senders[shard].try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(job)) => {
                counter!("par.pool.backpressure").incr();
                senders[shard]
                    .send(job)
                    .map_err(|e| disconnected(&self.depths, (e.0).2))
            }
            Err(TrySendError::Disconnected((_, _, req))) => Err(disconnected(&self.depths, req)),
        }
    }

    /// Closes every queue and joins every worker **without consuming
    /// the pool**: requests already enqueued are still handled, and
    /// every later submit returns [`PoolClosed`] carrying its request
    /// back. Idempotent — a second call is a no-op. A worker that
    /// panicked during teardown is ignored (its panics were already
    /// counted).
    pub fn shutdown(&self) {
        let taken = self
            .senders
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        drop(taken); // workers see Disconnected once their queue drains
        let handles = std::mem::take(
            &mut *self
                .handles
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Consuming variant of [`ShardedPool::shutdown`], for owners that
    /// are done with the pool entirely.
    pub fn join(self) {
        self.shutdown();
    }
}

impl<Req: Send + 'static> Drop for ShardedPool<Req> {
    /// Dropping the pool drains and joins its workers ([`shutdown`]
    /// semantics), so no worker thread outlives the pool it belongs to.
    ///
    /// [`shutdown`]: ShardedPool::shutdown
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Mutex;

    #[test]
    fn every_request_is_handled_by_its_shards_worker() {
        let seen: Arc<Mutex<Vec<(usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let pool = ShardedPool::new(3, 8, move |shard, req: usize| {
            sink.lock().unwrap().push((shard, req));
        });
        assert_eq!(pool.workers(), 3);
        for i in 0..96 {
            pool.submit(i % 3, i).unwrap();
        }
        pool.join();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 96);
        for &(shard, req) in seen.iter() {
            assert_eq!(shard, req % 3, "request {req} handled off its shard");
        }
    }

    #[test]
    fn same_shard_requests_keep_submission_order() {
        let seen: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let pool = ShardedPool::new(1, 4, move |_, req: usize| {
            sink.lock().unwrap().push(req);
        });
        for i in 0..50 {
            pool.submit(0, i).unwrap();
        }
        pool.join();
        assert_eq!(*seen.lock().unwrap(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn traced_submissions_record_worker_attributed_dequeue_events() {
        rlckit_trace::set_enabled(true);
        let pool = ShardedPool::new(2, 8, move |_, _req: usize| {});
        for i in 0..6u64 {
            pool.submit_traced(i as usize % 2, 9000 + i, i as usize)
                .unwrap();
        }
        // Untraced submissions must not fabricate events.
        pool.submit(0, 99).unwrap();
        pool.join();
        let events: Vec<_> = rlckit_trace::events::collect()
            .events
            .into_iter()
            .filter(|e| e.scope == "par.pool.dequeue" && (9000..9006).contains(&e.trace_id))
            .collect();
        assert_eq!(events.len(), 6);
        for e in &events {
            assert_eq!(e.kind, EventKind::Dequeue);
            assert_eq!(e.value, e.trace_id % 2, "value must be the owning shard");
        }
    }

    /// Pre-fix regression (serving-layer correlation): a submit that
    /// finds the pool shut down must hand the request back so the
    /// caller can still answer it with the id it already parsed. The
    /// old signature returned a bare error and dropped the request.
    #[test]
    fn shutdown_rejections_carry_the_request_back() {
        let pool = ShardedPool::new(2, 4, move |_, _req: (u64, String)| {});
        pool.submit(0, (1, "first".to_string())).unwrap();
        pool.shutdown();
        let err = pool
            .submit_traced(1, 77, (42, "orphan".to_string()))
            .expect_err("a shut-down pool must reject new work");
        assert_eq!(err.request.0, 42, "the request must come back intact");
        assert_eq!(err.request.1, "orphan");
        assert_eq!(err.shard, 1);
        // Idempotent: a second shutdown (and the final join) is a no-op.
        pool.shutdown();
        pool.join();
    }

    #[test]
    fn a_panicking_handler_does_not_kill_the_worker() {
        let seen: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let ((), snap) = rlckit_trace::scoped(|| {
            let pool = ShardedPool::new(1, 4, move |_, req: usize| {
                assert!(req != 2, "injected handler panic");
                sink.lock().unwrap().push(req);
            });
            for i in 0..5 {
                pool.submit(0, i).unwrap();
            }
            pool.join();
        });
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 3, 4]);
        assert_eq!(snap.counter("par.pool.panics"), 1);
    }

    #[test]
    fn full_queue_backpressures_instead_of_dropping() {
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let handled = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&handled);
        let gate_rx = Mutex::new(gate_rx);
        let scope = rlckit_trace::Scope::new();
        scope.enter(|| {
            let pool = Arc::new(ShardedPool::new(1, 2, move |_, _req: usize| {
                // Each request waits for one gate token, stalling the shard.
                gate_rx.lock().unwrap().recv().unwrap();
                count.fetch_add(1, Ordering::SeqCst);
            }));
            // One request occupies the worker, two fill the bounded queue.
            // (The first submits may transiently see a full queue while the
            // worker is still picking up its request, so backpressure below
            // is asserted as ≥ 1, not == 1.)
            for i in 0..3 {
                pool.submit(0, i).unwrap();
            }
            // The next submission must find the queue full and block.
            let blocked = {
                let (pool, context) = (Arc::clone(&pool), Context::capture());
                std::thread::spawn(move || context.run(|| pool.submit(0, 3).unwrap()))
            };
            for _ in 0..4 {
                gate_tx.send(()).unwrap();
            }
            blocked.join().unwrap();
            Arc::try_unwrap(pool)
                .unwrap_or_else(|_| panic!("submitter thread still holds the pool"))
                .join();
        });
        assert_eq!(
            handled.load(Ordering::SeqCst),
            4,
            "no request may be dropped"
        );
        let snap = scope.snapshot();
        assert!(
            snap.counter("par.pool.backpressure") >= 1,
            "the over-capacity submit must have blocked"
        );
        assert_eq!(snap.counter("par.pool.submitted"), 4);
        let depth = &snap.histograms["par.pool.queue_depth"];
        assert_eq!(depth.count, 4);
        // A submission observes at most the queue, its own increment and
        // the request the worker holds.
        assert!(depth.max.unwrap_or(0) <= 4, "depth must stay bounded");
    }
}
