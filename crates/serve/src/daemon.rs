//! Daemon plumbing around the engine: the concurrent TCP accept loop
//! and the periodic metrics flusher.
//!
//! # Concurrent connections
//!
//! [`serve_connections`] multiplexes any number of client connections
//! onto one [`Server`] (and therefore one shared pool and memo): each
//! accepted connection gets its own scoped session thread running
//! [`Server::serve`], bounded by [`TcpOptions::max_connections`] —
//! over-capacity connections are answered with a single clean
//! `"ok":false` line and closed, never silently dropped or queued
//! behind a stranger's session.
//!
//! Accept-side failures are **survivable by design**: a failed accept,
//! a peer that resets before its metadata can be read, or a socket
//! whose timeout cannot be armed is logged to stderr, tallied under
//! `serve.accept_errors`, and skipped — the daemon keeps serving
//! everyone else. (The pre-fix accept loop `?`-propagated each of
//! these out of `run()`, so one aborted handshake killed the daemon
//! for every client.)
//!
//! The loop is written against the small [`Connection`] trait rather
//! than [`std::net::TcpStream`] directly so the failure paths are unit
//! testable without real sockets.
//!
//! # Background flushing
//!
//! [`Flusher`] ticks [`rlckit_trace::flush`] every period so a
//! long-lived daemon's counters reach the `RLCKIT_TRACE` sink without
//! waiting for exit — and flushes **one final time on drop**, so even
//! a session shorter than one period sinks its counters.

use std::io::{BufReader, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use rlckit_trace::counter;

use crate::engine::{ServeSummary, Server};
use crate::protocol::response_error;

/// Default cap on simultaneously served connections
/// ([`TcpOptions::max_connections`]).
pub const DEFAULT_MAX_CONNECTIONS: usize = 64;

/// Accept-loop knobs of [`serve_connections`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpOptions {
    /// Read timeout armed on each accepted connection (`None` = never):
    /// an idle client is answered with a final `"ok":false` line and
    /// closed by the engine's clean-timeout path.
    pub idle_timeout: Option<Duration>,
    /// Simultaneously served connections beyond which a new arrival is
    /// answered with one `"ok":false` over-capacity line and closed.
    pub max_connections: usize,
}

impl Default for TcpOptions {
    fn default() -> Self {
        Self {
            idle_timeout: None,
            max_connections: DEFAULT_MAX_CONNECTIONS,
        }
    }
}

/// One accepted client connection, as the accept loop sees it. The
/// trait exists so [`serve_connections`]' failure handling (bad peer
/// metadata, un-armable timeouts) is testable without real sockets;
/// [`std::net::TcpStream`] is the production implementation.
pub trait Connection: Send {
    /// The read half handed to the session (wrapped in a `BufReader`).
    type Reader: std::io::Read + Send;
    /// The write half handed to the session.
    type Writer: std::io::Write + Send;

    /// Peer name for logs — the step that can fail on a connection
    /// that was reset between accept and metadata read.
    fn peer(&self) -> std::io::Result<String>;

    /// Arms the read timeout (`None` clears it).
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;

    /// Splits into independently owned read and write halves.
    ///
    /// # Errors
    ///
    /// Propagates the platform's handle-duplication failure (for TCP,
    /// `try_clone`).
    fn split(self) -> std::io::Result<(Self::Reader, Self::Writer)>;
}

impl Connection for std::net::TcpStream {
    type Reader = std::net::TcpStream;
    type Writer = std::net::TcpStream;

    fn peer(&self) -> std::io::Result<String> {
        Ok(self.peer_addr()?.to_string())
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        std::net::TcpStream::set_read_timeout(self, timeout)
    }

    fn split(self) -> std::io::Result<(Self, Self)> {
        // Each response leaves in one write; with Nagle on, a response
        // sent while the previous one is still unacknowledged waits for
        // the peer's delayed ACK.
        self.set_nodelay(true)?;
        // Clones share the socket, so the reader half inherits the
        // timeout armed above (and the no-delay option).
        let reader = self.try_clone()?;
        Ok((reader, self))
    }
}

/// Decrements the active-connection gauge when a session thread exits,
/// however it exits.
struct ActiveGuard<'a>(&'a AtomicUsize);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serves every connection yielded by `incoming` concurrently against
/// one shared `server`, until the iterator ends (a real
/// `TcpListener::incoming` never does; tests and drains do). Calls
/// `on_close(peer, result)` as each session finishes — logging and
/// event-draining live in the caller. Returns the number of
/// **accept-side** errors survived (failed accepts, unreadable peer
/// metadata, un-armable timeouts, failed splits), which are also
/// logged to stderr and counted under `serve.accept_errors`; none of
/// them terminates the loop.
pub fn serve_connections<C, I, F>(
    server: &Server,
    incoming: I,
    options: &TcpOptions,
    on_close: F,
) -> u64
where
    C: Connection,
    I: Iterator<Item = std::io::Result<C>>,
    F: Fn(&str, &std::io::Result<ServeSummary>) + Sync,
{
    let accept_errors = AtomicU64::new(0);
    let active = AtomicUsize::new(0);
    let survive = |stage: &str, e: std::io::Error| {
        eprintln!("rlckit-serve: accept error ({stage}): {e}");
        counter!("serve.accept_errors").incr();
        accept_errors.fetch_add(1, Ordering::SeqCst);
    };
    std::thread::scope(|scope| {
        for item in incoming {
            let conn = match item {
                Ok(conn) => conn,
                Err(e) => {
                    survive("accept", e);
                    continue;
                }
            };
            let peer = match conn.peer() {
                Ok(peer) => peer,
                Err(e) => {
                    survive("peer metadata", e);
                    continue;
                }
            };
            if options.idle_timeout.is_some() {
                if let Err(e) = conn.set_read_timeout(options.idle_timeout) {
                    survive("read timeout", e);
                    continue;
                }
            }
            let (reader, mut writer) = match conn.split() {
                Ok(halves) => halves,
                Err(e) => {
                    survive("split", e);
                    continue;
                }
            };
            // The gauge is incremented here, on the accept thread, so
            // the next arrival's capacity check already sees this
            // session — no window where k+1 sessions slip in.
            if active.load(Ordering::SeqCst) >= options.max_connections {
                counter!("serve.over_capacity").incr();
                let refusal = response_error(
                    None,
                    &format!(
                        "server at capacity ({} connections); retry later",
                        options.max_connections
                    ),
                );
                let _ = writeln!(writer, "{refusal}");
                let _ = writer.flush();
                continue;
            }
            active.fetch_add(1, Ordering::SeqCst);
            let active = &active;
            let on_close = &on_close;
            scope.spawn(move || {
                let _guard = ActiveGuard(active);
                let result = server.serve(BufReader::new(reader), writer);
                on_close(&peer, &result);
            });
        }
    });
    accept_errors.load(Ordering::SeqCst)
}

/// A periodic metrics flusher: ticks every period until dropped, then
/// flushes **one final time on the way out** — so a daemon session
/// shorter than one period still sinks its counters. (The pre-fix
/// version exited its loop on disconnect without that final flush,
/// contradicting its own doc.)
pub struct Flusher {
    stop: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
    flush: Arc<dyn Fn() + Send + Sync>,
}

impl Flusher {
    /// Starts the background thread, flushing [`rlckit_trace::flush`]
    /// every `secs` seconds.
    #[must_use]
    pub fn start(secs: u64) -> Self {
        Self::with_flush(Duration::from_secs(secs), Arc::new(rlckit_trace::flush))
    }

    /// Test seam: same lifecycle, caller-supplied flush action.
    fn with_flush(period: Duration, flush: Arc<dyn Fn() + Send + Sync>) -> Self {
        let (stop, tick) = mpsc::channel::<()>();
        let handle = {
            let flush = Arc::clone(&flush);
            std::thread::spawn(move || {
                while let Err(mpsc::RecvTimeoutError::Timeout) = tick.recv_timeout(period) {
                    flush();
                }
            })
        };
        Self {
            stop: Some(stop),
            handle: Some(handle),
            flush,
        }
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        // The final flush the doc promises, after the thread is gone so
        // nothing can race it.
        (self.flush)();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use std::sync::Mutex;

    /// An in-memory [`Connection`] whose reader is an mpsc byte feed
    /// (blocking until fed or EOF'd) and whose writer is shared with
    /// the test. Failure injection per accept stage.
    struct TestConn {
        input: mpsc::Receiver<Vec<u8>>,
        output: Arc<Mutex<Vec<u8>>>,
        fail_peer: bool,
        fail_split: bool,
    }

    type Feed = mpsc::Sender<Vec<u8>>;
    type Output = Arc<Mutex<Vec<u8>>>;

    fn test_conn(fail_peer: bool, fail_split: bool) -> (TestConn, Feed, Output) {
        let (feed, input) = mpsc::channel();
        let output = Arc::new(Mutex::new(Vec::new()));
        let conn = TestConn {
            input,
            output: Arc::clone(&output),
            fail_peer,
            fail_split,
        };
        (conn, feed, output)
    }

    struct ChannelReader {
        input: mpsc::Receiver<Vec<u8>>,
        buffered: Vec<u8>,
    }

    impl std::io::Read for ChannelReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.buffered.is_empty() {
                match self.input.recv() {
                    Ok(bytes) => self.buffered = bytes,
                    Err(_) => return Ok(0), // feed dropped = EOF
                }
            }
            let n = buf.len().min(self.buffered.len());
            buf[..n].copy_from_slice(&self.buffered[..n]);
            self.buffered.drain(..n);
            Ok(n)
        }
    }

    struct SharedWriter(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Connection for TestConn {
        type Reader = ChannelReader;
        type Writer = SharedWriter;

        fn peer(&self) -> std::io::Result<String> {
            if self.fail_peer {
                return Err(std::io::ErrorKind::ConnectionReset.into());
            }
            Ok("test-peer".to_string())
        }

        fn set_read_timeout(&self, _timeout: Option<Duration>) -> std::io::Result<()> {
            Ok(())
        }

        fn split(self) -> std::io::Result<(ChannelReader, SharedWriter)> {
            if self.fail_split {
                return Err(std::io::ErrorKind::Other.into());
            }
            Ok((
                ChannelReader {
                    input: self.input,
                    buffered: Vec::new(),
                },
                SharedWriter(self.output),
            ))
        }
    }

    const ASK: &[u8] = b"{\"id\":1,\"op\":\"optimum\",\"node\":\"100nm\",\"l_nh_mm\":1.8}\n";

    /// Pre-fix regression (the daemon-killer): an accept error, a peer
    /// whose metadata read fails, and a failed split each used to
    /// `?`-propagate out of the accept loop, terminating the daemon for
    /// every other client. Now each is logged, counted, and skipped —
    /// and the well-behaved client behind them is still served.
    #[test]
    fn accept_errors_are_survived_and_the_next_client_is_served() {
        rlckit_trace::set_enabled(true);
        let server = Server::new(ServeConfig::default());
        let (bad_peer, _feed1, _out1) = test_conn(true, false);
        let (bad_split, _feed2, _out2) = test_conn(false, true);
        let (good, feed, out) = test_conn(false, false);
        feed.send(ASK.to_vec()).unwrap();
        drop(feed); // EOF after the one request
        let closed = Mutex::new(Vec::new());
        let incoming = vec![
            Err(std::io::ErrorKind::ConnectionAborted.into()),
            Ok(bad_peer),
            Ok(bad_split),
            Ok(good),
        ];
        let (survived, delta) = rlckit_trace::scoped(|| {
            serve_connections(
                &server,
                incoming.into_iter(),
                &TcpOptions::default(),
                |peer, result| {
                    closed
                        .lock()
                        .unwrap()
                        .push((peer.to_string(), result.as_ref().unwrap().requests));
                },
            )
        });
        assert_eq!(survived, 3, "accept, peer, and split errors all survive");
        assert_eq!(delta.counter("serve.accept_errors"), 3);
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        assert!(text.contains("\"id\":1,\"ok\":true"), "good client served: {text}");
        assert_eq!(*closed.lock().unwrap(), vec![("test-peer".to_string(), 1)]);
    }

    /// Capacity bound: with one slot occupied by a live session, the
    /// next arrival gets a clean `"ok":false` refusal naming the limit
    /// — and the occupied session is unaffected.
    #[test]
    fn over_capacity_connections_get_a_clean_refusal() {
        let server = Server::new(ServeConfig::default());
        let options = TcpOptions {
            idle_timeout: None,
            max_connections: 1,
        };
        let (occupant, occupant_feed, occupant_out) = test_conn(false, false);
        let (refused, _refused_feed, refused_out) = test_conn(false, false);
        occupant_feed.send(ASK.to_vec()).unwrap();
        // The incoming iterator releases the occupant's EOF only after
        // the refused connection has been processed, making the
        // capacity collision deterministic.
        let mut occupant = Some(occupant);
        let mut refused = Some(refused);
        let mut occupant_feed = Some(occupant_feed);
        let mut stage = 0;
        let incoming = std::iter::from_fn(move || {
            stage += 1;
            match stage {
                1 => Some(Ok(occupant.take().unwrap())),
                2 => Some(Ok(refused.take().unwrap())),
                _ => {
                    drop(occupant_feed.take()); // EOF the occupant
                    None
                }
            }
        });
        let survived = serve_connections(&server, incoming, &options, |_, _| {});
        assert_eq!(survived, 0, "a refusal is not an accept error");
        let refused_text = String::from_utf8(refused_out.lock().unwrap().clone()).unwrap();
        assert!(refused_text.contains("\"ok\":false"), "{refused_text}");
        assert!(refused_text.contains("at capacity (1 connections)"), "{refused_text}");
        let occupant_text = String::from_utf8(occupant_out.lock().unwrap().clone()).unwrap();
        assert!(
            occupant_text.contains("\"id\":1,\"ok\":true"),
            "the occupant's session must complete normally: {occupant_text}"
        );
    }

    /// Pre-fix regression: the flusher's doc promised a final flush on
    /// the way out, but the loop exited on disconnect without one — a
    /// session shorter than one period sank nothing.
    #[test]
    fn flusher_flushes_on_drop_even_within_the_first_period() {
        let flushes = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&flushes);
        let flusher = Flusher::with_flush(
            Duration::from_secs(3600),
            Arc::new(move || {
                count.fetch_add(1, Ordering::SeqCst);
            }),
        );
        drop(flusher); // well inside the first period
        assert!(
            flushes.load(Ordering::SeqCst) >= 1,
            "a sub-period session must still sink its counters"
        );
    }
}
