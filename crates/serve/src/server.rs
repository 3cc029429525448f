//! The TCP server: admission control, worker pool, drain coordination.
//!
//! ```text
//!            accept thread                workers (sfa-par pool)
//!  listener ──accept──► bounded channel ──recv──► handle_conn ──► replies
//!     │           │ full → OVERLOADED + close          │
//!     │ cancel    ▼                                    ▼
//!     └──────► draining: stop accepting, drop sender,  finish current
//!              set drain deadline                      request, shed rest
//! ```
//!
//! **Admission control.** Accepted connections enter a bounded
//! [`sync_channel`]; when it is full the connection is refused with a
//! single `OVERLOADED` line and closed — explicit shedding instead of an
//! unbounded backlog. In-flight work is capped by the worker count (each
//! worker owns at most one connection at a time).
//!
//! **Timeouts.** Every socket read and write carries the request
//! timeout, so a slow-loris client or an unread reply can pin a worker
//! for at most one timeout. A request that cannot be answered within the
//! timeout is dropped and counted `timed_out`.
//!
//! **Drain.** When the [`CancelToken`] fires (SIGTERM, `--deadline-secs`,
//! or a test's explicit cancel), the accept thread stops accepting,
//! records the drain deadline, and closes the channel. Workers finish the
//! request they are on, shed everything still queued, and exit; the run
//! epilogue flushes acknowledged-but-unpersisted ingests through the
//! durable WAL. A second signal during the drain forces an immediate
//! `_exit` (see [`sfa_core::shutdown::FORCED_SHUTDOWN_EXIT_CODE`]).
//!
//! [`sync_channel`]: std::sync::mpsc::sync_channel

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sfa_core::shutdown::CancelToken;
use sfa_core::streaming::StreamingMiner;
use sfa_core::ServingMetrics;
use sfa_matrix::{Result, RowMajorMatrix};
use sfa_par::ThreadPool;

use crate::protocol::{fmt_sim, parse_request, ParseError, Request, MAX_LINE_BYTES};
use crate::snapshot::{Snapshot, SnapshotStore};
use crate::stats::ServerStats;
use crate::wal::IngestLog;

/// Everything `sfa serve` can be told. Defaults are production-shaped;
/// tests shrink the timeouts.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port.
    pub addr: String,
    /// Worker threads — the in-flight cap (0 = auto-size).
    pub threads: usize,
    /// Accepted connections that may wait for a worker before the gate
    /// sheds with `OVERLOADED`.
    pub queue_depth: usize,
    /// Per-request budget, doubling as the socket read/write timeout.
    pub request_timeout: Duration,
    /// Budget for the graceful drain once cancellation fires.
    pub drain: Duration,
    /// Serving threshold: `PAIRS` floor and the snapshot mining `s*`.
    pub s_star: f64,
    /// Candidate-generation slack below `s*` (the paper's `delta`).
    pub delta: f64,
    /// Sketch size `k` for the snapshot miner.
    pub k: usize,
    /// Sketch seed.
    pub seed: u64,
    /// Directory for the durable ingest log; `None` serves memory-only
    /// (acknowledged ingests then survive swaps but not restarts).
    pub state_dir: Option<PathBuf>,
    /// Test hook: artificial pause inserted into the drain epilogue so a
    /// second signal can be delivered deterministically.
    pub drain_hold: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            threads: 0,
            queue_depth: 64,
            request_timeout: Duration::from_millis(2_000),
            drain: Duration::from_secs(5),
            s_star: 0.5,
            delta: 0.2,
            k: 128,
            seed: 1,
            state_dir: None,
            drain_hold: Duration::ZERO,
        }
    }
}

/// Acknowledged ingest history and how much of it has been persisted.
#[derive(Debug, Default)]
struct IngestState {
    rows: Vec<Vec<u32>>,
    persisted: usize,
}

/// A bound, loaded, ready-to-run server.
#[derive(Debug)]
pub struct Server {
    config: ServerConfig,
    listener: TcpListener,
    store: SnapshotStore,
    stats: ServerStats,
    /// Rows of the base table; the miner holds the rows themselves.
    base_rows: usize,
    ingest: Mutex<IngestState>,
    /// The live sketch across epochs: rebuilds fold only newly ingested
    /// rows into it (`O(Δ·k)`) instead of re-sketching the full table.
    /// Only the rebuild loop mutates it; the mutex is for interior
    /// mutability behind `&self`.
    miner: Mutex<StreamingMiner>,
    wal: Option<IngestLog>,
    inflight: AtomicU64,
}

/// Shared worker context (one per [`Server::run`] invocation).
struct Ctx<'a> {
    server: &'a Server,
    draining: &'a AtomicBool,
    drain_deadline: &'a Mutex<Option<Instant>>,
}

impl Ctx<'_> {
    fn drained_out(&self) -> bool {
        self.drain_deadline
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .is_some_and(|d| Instant::now() >= d)
    }
}

/// How one connection loop iteration obtained (or failed to obtain) a
/// complete request line.
enum LineOutcome {
    /// A complete line (newline stripped).
    Line(Vec<u8>),
    /// Clean or dirty disconnect — close quietly, nothing to account.
    Closed,
    /// Read timeout with an empty buffer: idle keep-alive, close quietly.
    Idle,
    /// Read timeout mid-request (slow-loris): accounted as timed out.
    Stalled,
    /// The line outgrew [`MAX_LINE_BYTES`]: answer `ERR` and close.
    TooLong,
}

impl Server {
    /// Binds the listener and builds the startup snapshot from the base
    /// table plus any rows replayed from the state directory's ingest
    /// log.
    ///
    /// # Errors
    ///
    /// Bind failures, a corrupt ingest log, or snapshot construction
    /// errors.
    pub fn bind(config: ServerConfig, base: &RowMajorMatrix) -> Result<Self> {
        let n_cols = base.n_cols();
        let wal = match &config.state_dir {
            Some(dir) => Some(IngestLog::open(dir, n_cols)?),
            None => None,
        };
        let replayed = match &wal {
            Some(log) => log.replay()?,
            None => Vec::new(),
        };
        let mut miner = StreamingMiner::new(n_cols, config.k, config.seed);
        for (_, cols) in base.rows() {
            miner.push_row(cols);
        }
        for row in &replayed {
            miner.push_row(row);
        }
        let snapshot = Snapshot::build_from_miner(1, &miner, config.s_star, config.delta)?;
        let listener = TcpListener::bind(&config.addr)?;
        let persisted = replayed.len();
        Ok(Self {
            config,
            listener,
            store: SnapshotStore::new(snapshot),
            stats: ServerStats::default(),
            base_rows: base.n_rows() as usize,
            ingest: Mutex::new(IngestState {
                rows: replayed,
                persisted,
            }),
            miner: Mutex::new(miner),
            wal,
            inflight: AtomicU64::new(0),
        })
    }

    /// The address actually bound (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the OS lookup failure.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Serves until `cancel` fires, then drains gracefully and returns
    /// the session's metrics. Callers map a canceled run to the
    /// documented resumable exit code 3.
    ///
    /// # Errors
    ///
    /// Only epilogue persistence failures — serving errors are absorbed
    /// per-connection, and the drain itself is infallible.
    pub fn run(&self, cancel: &CancelToken) -> Result<ServingMetrics> {
        let start = Instant::now();
        let draining = AtomicBool::new(false);
        let drain_deadline: Mutex<Option<Instant>> = Mutex::new(None);
        let stop_rebuild = AtomicBool::new(false);
        let ctx = Ctx {
            server: self,
            draining: &draining,
            drain_deadline: &drain_deadline,
        };
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(self.config.queue_depth.max(1));
        let rx = Mutex::new(rx);
        let pool = ThreadPool::new(self.config.threads);
        std::thread::scope(|s| {
            s.spawn(|| self.rebuild_loop(&stop_rebuild));
            // The accept thread owns the sender: when it exits, the
            // channel closes and the workers drain out.
            s.spawn(|| self.accept_loop(tx, cancel, &ctx));
            pool.run(|_| worker_loop(&rx, &ctx));
            stop_rebuild.store(true, Ordering::SeqCst);
        });
        // Test hook: linger in the drain so a second signal has a window
        // to land (the handler `_exit`s, so this needs no polling).
        let hold_until = Instant::now() + self.config.drain_hold;
        while Instant::now() < hold_until {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.flush_ingests()?;
        Ok(self.stats.to_metrics(start.elapsed()))
    }

    /// Durably persists any acknowledged-but-unpersisted ingest rows.
    fn flush_ingests(&self) -> Result<()> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let pending: Option<Vec<Vec<u32>>> = {
            let st = lock_ingest(&self.ingest);
            (st.persisted < st.rows.len()).then(|| st.rows.clone())
        };
        if let Some(rows) = pending {
            wal.flush(&rows)?;
            let mut st = lock_ingest(&self.ingest);
            st.persisted = st.persisted.max(rows.len());
        }
        Ok(())
    }

    /// Accepts connections until cancellation, applying the admission
    /// gate; on cancel flips the drain state and closes the channel by
    /// dropping its sender clone.
    fn accept_loop(&self, tx: SyncSender<TcpStream>, cancel: &CancelToken, ctx: &Ctx<'_>) {
        self.listener
            .set_nonblocking(true)
            .expect("listener nonblocking");
        // The accept loop is the serve-side hot poll: the throttled view
        // keeps `--deadline-secs` support off the per-iteration clock.
        let mut cancel = cancel.throttled(sfa_core::shutdown::CANCEL_POLL_STRIDE);
        loop {
            if cancel.is_canceled() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => self.shed_connection(stream),
                    Err(TrySendError::Disconnected(_)) => break,
                },
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::Interrupted =>
                {
                    std::thread::sleep(Duration::from_millis(2));
                }
                // Transient accept failures (EMFILE, aborted handshake):
                // back off and keep serving.
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        ctx.draining.store(true, Ordering::SeqCst);
        *ctx.drain_deadline
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) =
            Some(Instant::now() + self.config.drain);
        // Sender drops here; workers observe the closed channel once the
        // queue is empty.
    }

    /// Refuses one connection at the gate: one `OVERLOADED` line, then
    /// close. Counts as one accepted + shed request.
    fn shed_connection(&self, stream: TcpStream) {
        self.stats.admit();
        self.stats.shed();
        let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
        let mut stream = stream;
        let _ = stream.write_all(b"OVERLOADED\n");
    }

    /// Off-hot-path snapshot rebuilds: persist new ingests, fold them
    /// into the live sketch, rebuild, swap. Runs until told to stop;
    /// failures are logged and retried on the next tick (the in-memory
    /// state is never lost by a failed flush — the drain epilogue
    /// retries once more).
    ///
    /// The rebuild is *incremental*: only rows not yet in the live
    /// [`StreamingMiner`] are pushed (`O(Δ·k)` sketch work for a
    /// Δ-row ingest), and because the bottom-k fold is order-insensitive
    /// the swapped-in epoch is byte-identical to a cold build over the
    /// full row set. Already-folded rows stay folded across a failed
    /// flush or build — the fold is idempotent per row, keyed on the
    /// miner's own row count. Under the ingest lock, which `HEALTH` and
    /// `INGEST` take too, the loop copies only the rows acked since its
    /// last look into its own copy of the history.
    fn rebuild_loop(&self, stop: &AtomicBool) {
        let mut ingested = lock_ingest(&self.ingest).rows.clone();
        let mut built_rows = self.base_rows + ingested.len();
        let mut epoch = 1u64;
        while !stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(15));
            {
                let st = lock_ingest(&self.ingest);
                if self.base_rows + st.rows.len() == built_rows {
                    continue;
                }
                ingested.extend_from_slice(&st.rows[ingested.len()..]);
            }
            // Persist before publishing: a swapped-in epoch must never
            // contain rows a crash could lose.
            if let Some(wal) = &self.wal {
                if let Err(e) = wal.flush(&ingested) {
                    eprintln!("sfa serve: ingest flush failed (will retry): {e}");
                    continue;
                }
                let mut st = lock_ingest(&self.ingest);
                st.persisted = st.persisted.max(ingested.len());
            }
            epoch += 1;
            let built = {
                // Only the rebuild loop takes this lock after startup,
                // so holding it across the build contends with no one.
                let mut miner = lock_miner(&self.miner);
                let folded = miner.n_rows() as usize - self.base_rows;
                for row in &ingested[folded..] {
                    miner.push_row(row);
                }
                Snapshot::build_from_miner(epoch, &miner, self.config.s_star, self.config.delta)
            };
            match built {
                Ok(snapshot) => {
                    built_rows = self.base_rows + ingested.len();
                    self.store.swap(snapshot);
                    self.stats.swapped();
                }
                Err(e) => eprintln!("sfa serve: snapshot rebuild failed: {e}"),
            }
        }
    }
}

fn lock_ingest(m: &Mutex<IngestState>) -> std::sync::MutexGuard<'_, IngestState> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock_miner(m: &Mutex<StreamingMiner>) -> std::sync::MutexGuard<'_, StreamingMiner> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One worker: pull connections until the channel closes; in drain, shed
/// instead of serving.
fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, ctx: &Ctx<'_>) {
    loop {
        // Holding the lock across `recv` is deliberate: exactly one idle
        // worker waits at a time, and the handoff happens as soon as the
        // accept thread enqueues.
        let conn = {
            let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv()
        };
        let Ok(stream) = conn else {
            return; // channel closed: drain complete for this worker
        };
        if ctx.draining.load(Ordering::SeqCst) {
            // Queued behind the drain: explicit shed, not silence.
            ctx.server.shed_connection(stream);
            continue;
        }
        handle_connection(stream, ctx);
    }
}

/// Accumulates bytes until a full line, a timeout, or a disconnect.
fn read_line(stream: &mut TcpStream, buf: &mut Vec<u8>, ctx: &Ctx<'_>) -> LineOutcome {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            let mut line: Vec<u8> = buf.drain(..=nl).collect();
            line.pop(); // the newline
            return LineOutcome::Line(line);
        }
        if buf.len() >= MAX_LINE_BYTES {
            return LineOutcome::TooLong;
        }
        if ctx.drained_out() {
            // Past the drain deadline nothing more gets read.
            return if buf.is_empty() {
                LineOutcome::Idle
            } else {
                LineOutcome::Stalled
            };
        }
        match stream.read(&mut chunk) {
            Ok(0) => return LineOutcome::Closed,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return if buf.is_empty() {
                    LineOutcome::Idle
                } else {
                    LineOutcome::Stalled
                };
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return LineOutcome::Closed,
        }
    }
}

/// Serves one connection: a keep-alive loop of request → reply, with
/// every failure mode mapped to exactly one accounting disposition.
fn handle_connection(mut stream: TcpStream, ctx: &Ctx<'_>) {
    let server = ctx.server;
    let timeout = server.config.request_timeout;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let _ = stream.set_nodelay(true);
    server.inflight.fetch_add(1, Ordering::SeqCst);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let line = match read_line(&mut stream, &mut buf, ctx) {
            LineOutcome::Line(line) => line,
            LineOutcome::Closed | LineOutcome::Idle => break,
            LineOutcome::Stalled => {
                // A request was started but never finished inside the
                // timeout — admitted and timed out.
                server.stats.admit();
                server.stats.time_out();
                break;
            }
            LineOutcome::TooLong => {
                server.stats.admit();
                let started = Instant::now();
                if stream.write_all(b"ERR line too long\n").is_ok() {
                    server.stats.answer(started.elapsed());
                    server.stats.malformed();
                } else {
                    server.stats.time_out();
                }
                break; // framing is unrecoverable past an oversized line
            }
        };
        server.stats.admit();
        let started = Instant::now();
        let parsed = parse_request(&line);
        let quit = matches!(parsed, Ok(Request::Quit));
        let (reply, is_err) = match parsed {
            Ok(req) => execute(&req, ctx),
            Err(ParseError { reason }) => (format!("ERR {reason}\n"), true),
        };
        if started.elapsed() > timeout {
            // Per-request deadline: the reply is stale, drop it.
            server.stats.time_out();
            break;
        }
        if stream.write_all(reply.as_bytes()).is_ok() {
            server.stats.answer(started.elapsed());
            if is_err {
                server.stats.malformed();
            }
        } else {
            server.stats.time_out();
            break;
        }
        if quit || ctx.draining.load(Ordering::SeqCst) {
            break;
        }
    }
    server.inflight.fetch_sub(1, Ordering::SeqCst);
}

/// Executes one well-formed request against the current snapshot.
/// Returns the full reply (trailing newline included) and whether it is
/// an `ERR`.
fn execute(req: &Request, ctx: &Ctx<'_>) -> (String, bool) {
    let server = ctx.server;
    let snap = server.store.load();
    match req {
        Request::TopK { col, k } => {
            if *col >= snap.n_cols {
                return ("ERR column out of range\n".to_owned(), true);
            }
            let top = snap.top_k(*col, *k);
            let mut reply = format!("OK {}\n", top.len());
            for (partner, sim) in top {
                reply.push_str(&format!("{partner} {}\n", fmt_sim(*sim)));
            }
            (reply, false)
        }
        Request::Sim { a, b } => {
            if *a >= snap.n_cols || *b >= snap.n_cols {
                return ("ERR column out of range\n".to_owned(), true);
            }
            let (sim, inter, union) = snap.similarity(*a, *b);
            (format!("OK {} {inter} {union}\n", fmt_sim(sim)), false)
        }
        Request::Pairs { s_star } => {
            let pairs = snap.pairs_at(s_star.max(server.config.s_star));
            let mut reply = format!("OK {}\n", pairs.len());
            for p in pairs {
                reply.push_str(&format!("{} {} {}\n", p.i, p.j, fmt_sim(p.similarity)));
            }
            (reply, false)
        }
        Request::Health => {
            let (acked, _persisted) = {
                let st = lock_ingest(&server.ingest);
                (st.rows.len(), st.persisted)
            };
            let rows = server.base_rows + acked;
            (
                format!(
                    "OK epoch={} rows={rows} cols={} pairs={} inflight={}\n",
                    snap.epoch,
                    snap.n_cols,
                    snap.pairs.len(),
                    server.inflight.load(Ordering::SeqCst)
                ),
                false,
            )
        }
        Request::Ingest { cols } => {
            if cols.last().is_some_and(|&c| c >= snap.n_cols) {
                return ("ERR column out of range\n".to_owned(), true);
            }
            let row_id = {
                let mut st = lock_ingest(&server.ingest);
                st.rows.push(cols.clone());
                server.base_rows + st.rows.len() - 1
            };
            server.stats.ingested(1);
            (format!("OK {row_id}\n"), false)
        }
        Request::Quit => ("OK bye\n".to_owned(), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn base_matrix() -> RowMajorMatrix {
        // Columns 0,1 identical; 2 overlaps half the rows.
        let rows = (0..8u32)
            .map(|i| {
                if i % 2 == 0 {
                    vec![0, 1, 2]
                } else {
                    vec![0, 1]
                }
            })
            .collect();
        RowMajorMatrix::from_rows(3, rows).unwrap()
    }

    fn test_config() -> ServerConfig {
        ServerConfig {
            threads: 2,
            queue_depth: 4,
            request_timeout: Duration::from_millis(400),
            drain: Duration::from_secs(2),
            s_star: 0.4,
            k: 32,
            seed: 7,
            ..ServerConfig::default()
        }
    }

    struct Client {
        reader: std::io::BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            Self {
                reader: std::io::BufReader::new(stream),
            }
        }

        fn send(&mut self, line: &str) {
            self.reader
                .get_mut()
                .write_all(format!("{line}\n").as_bytes())
                .expect("send");
        }

        fn recv(&mut self) -> String {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("recv");
            line.trim_end().to_owned()
        }

        fn roundtrip(&mut self, line: &str) -> String {
            self.send(line);
            self.recv()
        }
    }

    /// Runs `f` against a live server, then cancels and returns the
    /// session metrics.
    fn with_server<T>(
        config: ServerConfig,
        f: impl FnOnce(&mut Client, SocketAddr) -> T,
    ) -> (T, ServingMetrics) {
        let server = Server::bind(config, &base_matrix()).unwrap();
        let addr = server.local_addr().unwrap();
        let cancel = CancelToken::new();
        let (out, metrics) = std::thread::scope(|s| {
            let run = s.spawn(|| server.run(&cancel));
            // Cancel even when `f` panics — otherwise the scope joins a
            // server that never stops and the panic becomes a hang.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut client = Client::connect(addr);
                let out = f(&mut client, addr);
                drop(client);
                out
            }));
            cancel.cancel();
            let metrics = run.join().expect("server thread").expect("run");
            match result {
                Ok(out) => (out, metrics),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        });
        assert!(metrics.balances(), "{metrics:?}");
        (out, metrics)
    }

    #[test]
    fn answers_every_query_verb() {
        let (_, m) = with_server(test_config(), |c, _| {
            let topk = c.roundtrip("TOPK 0 5");
            assert_eq!(topk, "OK 2");
            assert_eq!(c.recv(), "1 1.000000");
            assert_eq!(c.recv(), "2 0.500000");
            assert_eq!(c.roundtrip("SIM 0 2"), "OK 0.500000 4 8");
            let pairs = c.roundtrip("PAIRS 0.9");
            assert_eq!(pairs, "OK 1");
            assert_eq!(c.recv(), "0 1 1.000000");
            let health = c.roundtrip("HEALTH");
            assert!(
                health.starts_with("OK epoch=1 rows=8 cols=3 pairs="),
                "{health}"
            );
            assert_eq!(c.roundtrip("QUIT"), "OK bye");
        });
        assert_eq!(m.answered, 5);
        assert_eq!(m.malformed, 0);
        assert_eq!(m.accepted, 5);
    }

    #[test]
    fn malformed_requests_get_err_and_count() {
        let (_, m) = with_server(test_config(), |c, _| {
            assert!(c.roundtrip("BOGUS 1 2").starts_with("ERR "));
            assert!(c.roundtrip("TOPK 99 5").starts_with("ERR "));
            assert!(c.roundtrip("SIM 0 99").starts_with("ERR "));
            assert_eq!(c.roundtrip("SIM 0 1"), "OK 1.000000 8 8");
        });
        assert_eq!(m.answered, 4);
        assert_eq!(m.malformed, 3);
    }

    #[test]
    fn ingest_rebuilds_and_swaps_epochs() {
        let (_, m) = with_server(test_config(), |c, _| {
            // Grow column 2 with four rows of its own: |2| goes 4 → 8,
            // the 0∩2 intersection stays 4, so sim(0,2) drops to 4/12.
            for _ in 0..4 {
                let reply = c.roundtrip("INGEST 2");
                assert!(reply.starts_with("OK "), "{reply}");
            }
            // Wait for a rebuild to land (bounded).
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                let health = c.roundtrip("HEALTH");
                if !health.starts_with("OK epoch=1 ") {
                    assert!(health.contains("rows=12"), "{health}");
                    break;
                }
                assert!(Instant::now() < deadline, "no swap before deadline");
                std::thread::sleep(Duration::from_millis(20));
            }
            // The new epoch serves the updated similarity exactly.
            assert_eq!(c.roundtrip("SIM 0 2"), "OK 0.333333 4 12");
        });
        assert_eq!(m.ingested_rows, 4);
        assert!(m.snapshot_swaps >= 1, "{m:?}");
    }

    #[test]
    fn slow_client_times_out_without_pinning_the_worker() {
        let cfg = ServerConfig {
            request_timeout: Duration::from_millis(120),
            ..test_config()
        };
        let (_, m) = with_server(cfg, |_, addr| {
            // A slow-loris: half a request, then silence.
            let mut loris = TcpStream::connect(addr).expect("connect");
            loris.write_all(b"TOPK 0").expect("partial");
            // The worker must shed it and keep serving others. A fresh
            // client is used because idle keep-alives are also reaped
            // after one request timeout.
            std::thread::sleep(Duration::from_millis(300));
            let mut late = Client::connect(addr);
            assert_eq!(late.roundtrip("SIM 0 1"), "OK 1.000000 8 8");
            drop(loris);
        });
        assert_eq!(m.timed_out, 1, "{m:?}");
        assert_eq!(m.answered, 1);
    }

    #[test]
    fn garbage_bytes_never_panic_the_server() {
        let (_, m) = with_server(test_config(), |c, addr| {
            // Each garbage client reads the server's replies before it
            // hangs up, so its lines are served (and counted) before the
            // drain starts rather than shed with the queue.
            let mut garbage = Client::connect(addr);
            garbage
                .reader
                .get_mut()
                .write_all(b"\x00\xff\xfe garbage \x07\n\x00\n")
                .expect("write");
            assert!(garbage.recv().starts_with("ERR "));
            assert!(garbage.recv().starts_with("ERR "));
            drop(garbage);
            let mut more = Client::connect(addr);
            more.reader
                .get_mut()
                .write_all(b"INGEST \x00\n")
                .expect("write");
            assert!(more.recv().starts_with("ERR "));
            drop(more);
            // Still alive and correct.
            assert_eq!(c.roundtrip("SIM 0 1"), "OK 1.000000 8 8");
        });
        assert!(m.malformed >= 1, "{m:?}");
        assert!(m.balances());
    }

    #[test]
    fn acked_ingests_survive_drain_and_restart() {
        let dir = std::env::temp_dir().join(format!("sfa_serve_restart_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServerConfig {
            state_dir: Some(dir.clone()),
            ..test_config()
        };
        let (_, m) = with_server(cfg.clone(), |c, _| {
            for _ in 0..3 {
                assert!(c.roundtrip("INGEST 2").starts_with("OK "));
            }
        });
        assert_eq!(m.ingested_rows, 3);
        // Restart: the replayed rows change SIM exactly as if re-ingested.
        let (_, m2) = with_server(cfg, |c, _| {
            let health = c.roundtrip("HEALTH");
            assert!(health.contains("rows=11"), "{health}");
            // |2| grew 4 → 7 from the replayed rows; 0∩2 is still 4.
            assert_eq!(c.roundtrip("SIM 0 2"), "OK 0.363636 4 11");
        });
        assert_eq!(m2.ingested_rows, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overload_sheds_explicitly() {
        // One worker, no queue: a parked connection makes any burst shed.
        let cfg = ServerConfig {
            threads: 1,
            queue_depth: 1,
            request_timeout: Duration::from_millis(600),
            ..test_config()
        };
        let server = Server::bind(cfg, &base_matrix()).unwrap();
        let addr = server.local_addr().unwrap();
        let cancel = CancelToken::new();
        let metrics = std::thread::scope(|s| {
            let run = s.spawn(|| server.run(&cancel));
            // Fill the single worker with a half-sent request…
            let mut parked = TcpStream::connect(addr).expect("connect");
            parked.write_all(b"TOPK ").expect("park");
            std::thread::sleep(Duration::from_millis(100));
            // …and burst past the queue. At least one must be shed with
            // an explicit OVERLOADED line; the rest are either served
            // (idle keep-alive, closed quietly) or shed too. The burst
            // clients only read — writing to an already-shed socket
            // would race its buffered reply against a RST.
            let burst: Vec<TcpStream> = (0..6)
                .map(|_| TcpStream::connect(addr).expect("connect"))
                .collect();
            let mut shed_seen = 0;
            for stream in burst {
                stream
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                let mut reader = std::io::BufReader::new(stream);
                let mut line = String::new();
                reader.read_line(&mut line).expect("read");
                match line.trim_end() {
                    "OVERLOADED" => shed_seen += 1,
                    "" => {} // served from the queue, idle-closed
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            drop(parked);
            cancel.cancel();
            (shed_seen, run.join().expect("thread").expect("run"))
        });
        let (shed_seen, m) = metrics;
        assert!(shed_seen >= 1, "burst did not shed: {m:?}");
        assert_eq!(m.shed, shed_seen, "{m:?}");
        assert!(m.balances(), "{m:?}");
    }
}
