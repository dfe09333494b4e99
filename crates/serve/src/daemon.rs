//! The match daemon (DESIGN.md §9.1, §9.3).
//!
//! A [`Server`] owns one [`Repository`]-backed match session for its
//! whole lifetime — token table, similarity memo, prepared schemas and
//! the pair-summary cache all stay hot in memory — and serves
//! concurrent clients over plain `std::net` TCP. There is no async
//! runtime in this offline workspace; concurrency is the same
//! `std::thread::scope` shape the batch session uses for pair
//! sharding: the accept loop spawns one scoped worker thread per
//! connection (many requests per connection), bounded by
//! [`ServeOptions::max_connections`]. A *fixed* pool would deadlock
//! the moment idle keep-alive connections pin every worker — on a
//! 1-core machine the default pool would be a single worker — so the
//! bound is on concurrent connections, not on threads serving them.
//! Every open connection is registered (a [`TcpStream`] clone), which
//! is how shutdown unblocks workers parked in `read` on idle peers.
//!
//! **One read path.** Every read is an entry of a [`Request::Batch`]
//! (a lone read is a one-entry worklist), and `serve_reads` answers
//! every one. Match and top-k entries go through the repository's read
//! resolver, as in-process reads do: the daemon names and frames,
//! [`Repository::resolve`] executes, and [`Repository::answer`] serves
//! and caches. An explain entry re-executes its pair with
//! [`Repository::explain`] under the same read guard and caches
//! nothing.
//!
//! **Read/write split.** The repository sits behind one [`RwLock`].
//! Every read runs under the read lock, cached or not: pair execution
//! is a pure function of frozen prepared state, so the resolver runs a
//! request's uncached pairs on the connection's own thread (connections
//! are the daemon's parallelism), and the similarity memo and the pair
//! cache both fill in place. Only mutations (every one a
//! [`Request::Mutate`]) and `Save` take the write lock, giving the
//! single-writer discipline the repository's on-disk lock already
//! enforces across processes.
//!
//! Responses are bit-identical to direct in-process calls on the same
//! corpus — the integration suite drives N concurrent clients against
//! a daemon and compares against [`cupid_core::MatchSession`] output
//! byte for byte.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use cupid_core::CupidConfig;
use cupid_lexical::Thesaurus;
use cupid_model::{wire::is_timeout, write_frame};
use cupid_repo::{RepoError, Repository};

use crate::histogram::LatencyHistogram;
use crate::log::{Level, Logger};
use crate::metrics::{http_response, render_prometheus, EXPOSITION_CONTENT_TYPE};
use crate::protocol::{BatchItem, BatchOutcome, MutationOp, Request, Response, StatsReport};
use crate::trace::{RequestTrace, SlowLog, Stage, StageRecorder};
use crate::ServeError;

/// Request-kind labels of the per-kind latency histograms, in recorder
/// order (`Shared::latencies` and the stage matrix are indexed by
/// [`latency_kind`]). The three schema mutations share one "mutate"
/// histogram — they share the same write-lock + journal path, so their
/// latency profile is one conversation. A one-entry batch records under
/// its item's kind; only empty and multi-entry batches record under
/// "batch".
const LATENCY_KINDS: [&str; 9] =
    ["mutate", "match_pair", "top_k", "stats", "save", "batch", "shutdown", "slow_log", "explain"];

/// Which histogram a request records into.
fn latency_kind(request: &Request) -> usize {
    match request {
        Request::Mutate { .. } => 0,
        Request::Batch { items } => match items.as_slice() {
            [BatchItem::MatchPair { .. }] => 1,
            [BatchItem::TopK { .. }] => 2,
            [BatchItem::Stats] => 3,
            [BatchItem::SlowLog] => 7,
            [BatchItem::Explain { .. }] => 8,
            _ => 5,
        },
        Request::Save => 4,
        Request::Shutdown => 6,
    }
}

/// Stats reads and Shutdown bypass admission control: an operator must
/// always be able to observe and drain an overloaded daemon.
fn bypasses_admission(kind: usize) -> bool {
    matches!(LATENCY_KINDS[kind], "stats" | "shutdown")
}

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Maximum concurrent client connections (each gets a scoped
    /// worker thread). A connection arriving over the cap is answered
    /// with an error frame and closed instead of queuing behind a
    /// worker that may be parked on an idle peer.
    pub max_connections: usize,
    /// Fsync the write-ahead journal after every `n` schema mutations
    /// (add/replace/remove) — the cheap durability point that replaced
    /// full-snapshot autosave (DESIGN.md §10.4): mutations already
    /// append journal records as they commit, so the periodic work is
    /// one `fsync`, not a corpus rewrite. `Some(1)` makes every
    /// acknowledged mutation durable before the response is written —
    /// the setting the crash-recovery suite runs under. `None`
    /// disables periodic syncs; explicit `Save` requests and the final
    /// save at shutdown still persist everything.
    pub autosave_every: Option<u64>,
    /// Fold the journal into a fresh snapshot once it holds this many
    /// records ([`Repository::set_compact_after`]); `None` compacts
    /// only on explicit saves and shutdown.
    pub compact_after: Option<u64>,
    /// Admission control (DESIGN.md §12.2): at most this many requests
    /// execute at once; an arrival that cannot get a slot within
    /// [`ServeOptions::queue_deadline`] is shed with a typed
    /// [`Response::Overloaded`] frame instead of queuing unboundedly.
    /// `None` disables admission control (every request executes).
    /// `Stats` and `Shutdown` bypass admission so operators can always
    /// observe and drain an overloaded daemon.
    pub max_inflight: Option<usize>,
    /// How long an arrival may wait for an in-flight slot before being
    /// shed. Zero means shed immediately when the cap is full.
    pub queue_deadline: Duration,
    /// How long a connection may sit idle *between* frames before the
    /// daemon closes it and reclaims the worker (DESIGN.md §12.1). An
    /// idle peer parks cheaply until this expires; `None` lets
    /// keep-alive connections park forever (the pre-hardening
    /// behaviour, where a silent peer pins a worker indefinitely).
    pub idle_timeout: Option<Duration>,
    /// How long a single frame may take to arrive or drain once its
    /// first byte is seen. A peer that stalls mid-frame is cut loudly
    /// (the stream cannot be resynchronized anyway) and counted in
    /// `deadline_cuts`. `None` disables the per-frame deadline.
    pub frame_deadline: Option<Duration>,
    /// Slow-log ring capacity: how many of the slowest traces the
    /// daemon retains for `SlowLog` reads. Zero disables the ring
    /// (the over-threshold counter still ticks).
    pub slow_log_capacity: usize,
    /// Requests at least this slow are counted and offered to the
    /// slow-log ring.
    pub slow_threshold: Duration,
    /// Minimum level of the daemon's structured stderr log.
    pub log_level: Level,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_connections: 64,
            autosave_every: None,
            compact_after: Some(1024),
            max_inflight: None,
            queue_deadline: Duration::from_millis(100),
            idle_timeout: Some(Duration::from_secs(300)),
            frame_deadline: Some(Duration::from_secs(30)),
            slow_log_capacity: 32,
            slow_threshold: Duration::from_millis(1),
            log_level: Level::Info,
        }
    }
}

/// Counting semaphore for admission control: a plain Mutex + Condvar
/// pair (no async runtime here) bounding concurrently *executing*
/// requests. Arrivals over the cap wait on the condvar up to the queue
/// deadline, then are shed.
struct Admission {
    max: usize,
    deadline: Duration,
    inflight: Mutex<usize>,
    freed: Condvar,
}

impl Admission {
    fn new(max: usize, deadline: Duration) -> Admission {
        Admission { max: max.max(1), deadline, inflight: Mutex::new(0), freed: Condvar::new() }
    }

    /// Acquire an in-flight slot, waiting up to the queue deadline.
    /// `None` means shed.
    fn admit(&self) -> Option<AdmitSlot<'_>> {
        let mut count = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        let give_up = Instant::now() + self.deadline;
        while *count >= self.max {
            let now = Instant::now();
            if now >= give_up {
                return None;
            }
            let (guard, _timeout) =
                self.freed.wait_timeout(count, give_up - now).unwrap_or_else(|e| e.into_inner());
            count = guard;
        }
        *count += 1;
        Some(AdmitSlot { admission: self })
    }
}

/// RAII in-flight slot: releasing wakes one queued waiter.
struct AdmitSlot<'a> {
    admission: &'a Admission,
}

impl Drop for AdmitSlot<'_> {
    fn drop(&mut self) {
        let mut count = self.admission.inflight.lock().unwrap_or_else(|e| e.into_inner());
        *count = count.saturating_sub(1);
        drop(count);
        self.admission.freed.notify_one();
    }
}

/// How many distinct mutation request ids the daemon remembers for
/// retry deduplication. 4096 ids bounds the table to a few hundred KiB
/// while covering far more in-flight retries than any sane client
/// budget produces; a retry arriving after its id was evicted re-runs
/// the operation, which at worst yields the same "already in
/// repository" error a non-idempotent double-apply would (DESIGN.md
/// §12.3 spells out this window).
const DEDUP_CAPACITY: usize = 4096;

/// Replay table for mutation retries: request id → the response the
/// first execution produced, evicted FIFO at [`DEDUP_CAPACITY`].
/// Checked and recorded while holding the repository *write* lock,
/// where mutations already serialize, so check-then-execute is
/// race-free without extra locking discipline.
#[derive(Default)]
struct DedupTable {
    seen: HashMap<u64, Response>,
    order: VecDeque<u64>,
}

impl DedupTable {
    fn record(&mut self, id: u64, response: &Response) {
        if self.seen.insert(id, response.clone()).is_none() {
            self.order.push_back(id);
            if self.order.len() > DEDUP_CAPACITY {
                if let Some(evicted) = self.order.pop_front() {
                    self.seen.remove(&evicted);
                }
            }
        }
    }
}

/// Open-connection registry: stream clones keyed by connection id, so
/// shutdown can unblock workers parked in `read` on idle peers.
#[derive(Default)]
struct Connections {
    next_id: u64,
    open: BTreeMap<u64, TcpStream>,
}

/// Shared state of a running daemon: the lock-guarded repository plus
/// the counters and flags every worker touches.
struct Shared<'a> {
    repo: RwLock<Repository<'a>>,
    path: PathBuf,
    addr: SocketAddr,
    options: ServeOptions,
    /// Shared with [`ShutdownHandle`]s, which may outlive the scope.
    shutdown: Arc<AtomicBool>,
    /// Set by [`Server::run`] the moment its accept loop breaks —
    /// the signal [`wake_accept_loop`] retries until it observes.
    accept_exited: Arc<AtomicBool>,
    requests: AtomicU64,
    mutations: AtomicU64,
    /// Requests shed by admission control ([`Response::Overloaded`]).
    shed: AtomicU64,
    /// Connections closed by the idle read deadline.
    idle_disconnects: AtomicU64,
    /// Connections cut mid-frame by the frame deadline (read or write).
    deadline_cuts: AtomicU64,
    /// Mutation retries answered from the request-id replay table.
    deduped: AtomicU64,
    /// In-flight admission semaphore; `None` when admission control is
    /// off.
    admission: Option<Admission>,
    /// Mutation-retry replay table (guarded separately, but only ever
    /// touched while holding the repository write lock).
    dedup: Mutex<DedupTable>,
    connections: Mutex<Connections>,
    /// Per-request-kind latency recorders, indexed by [`latency_kind`].
    latencies: [LatencyHistogram; LATENCY_KINDS.len()],
    /// Per-(kind, stage) attribution histograms finished traces fold
    /// into (DESIGN.md §13.1).
    stages: StageRecorder<{ LATENCY_KINDS.len() }>,
    /// Bounded ring of the slowest request traces.
    slow_log: SlowLog,
    /// The daemon's structured stderr logger.
    logger: Logger,
    /// Monotonic trace-id allocator (per daemon run).
    next_trace_id: AtomicU64,
    /// HTTP `/metrics` scrapes answered.
    metrics_scrapes: AtomicU64,
    /// Explain requests answered (DESIGN.md §14).
    explanations: AtomicU64,
}

/// A bound, not-yet-running match daemon. [`Server::bind`] opens the
/// repository (taking its single-writer lock) and the TCP listener;
/// [`Server::run`] serves until a `Shutdown` request, then saves.
pub struct Server<'a> {
    listener: TcpListener,
    shared: Shared<'a>,
}

impl<'a> Server<'a> {
    /// Bind a daemon: open (or create) the repository snapshot at
    /// `repo_path` under `config`/`thesaurus`, and listen on `addr`
    /// (use port 0 for an OS-assigned port, then [`Server::local_addr`]).
    pub fn bind(
        addr: impl ToSocketAddrs,
        repo_path: impl AsRef<Path>,
        config: &'a CupidConfig,
        thesaurus: &'a Thesaurus,
        options: ServeOptions,
    ) -> Result<Server<'a>, ServeError> {
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::Io {
            context: "bind listener".into(),
            message: e.to_string(),
        })?;
        let local = listener.local_addr().map_err(|e| ServeError::Io {
            context: "listener address".into(),
            message: e.to_string(),
        })?;
        // Connections are the daemon's parallelism: a request's uncached
        // pairs run on its own connection's thread, unsharded.
        let mut repo = Repository::open_or_create(repo_path.as_ref(), config, thesaurus)
            .map_err(ServeError::Repo)?
            .threads(1);
        repo.set_compact_after(options.compact_after);
        let path = repo.path().to_path_buf();
        let slow_log = SlowLog::new(options.slow_log_capacity, options.slow_threshold);
        let logger = Logger::new(options.log_level);
        Ok(Server {
            listener,
            shared: Shared {
                repo: RwLock::new(repo),
                path,
                addr: local,
                admission: options
                    .max_inflight
                    .map(|max| Admission::new(max, options.queue_deadline)),
                options: ServeOptions {
                    max_connections: options.max_connections.max(1),
                    ..options
                },
                shutdown: Arc::new(AtomicBool::new(false)),
                accept_exited: Arc::new(AtomicBool::new(false)),
                requests: AtomicU64::new(0),
                mutations: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                idle_disconnects: AtomicU64::new(0),
                deadline_cuts: AtomicU64::new(0),
                deduped: AtomicU64::new(0),
                dedup: Mutex::new(DedupTable::default()),
                connections: Mutex::new(Connections::default()),
                latencies: std::array::from_fn(|_| LatencyHistogram::new()),
                stages: StageRecorder::new(),
                slow_log,
                logger,
                next_trace_id: AtomicU64::new(1),
                metrics_scrapes: AtomicU64::new(0),
                explanations: AtomicU64::new(0),
            },
        })
    }

    /// A handle that triggers the same graceful drain a `Shutdown`
    /// frame does, from any thread: stop accepting, let in-flight
    /// requests finish, write the final save, return from
    /// [`Server::run`]. This is the programmatic stand-in for a signal
    /// handler — the workspace is `forbid(unsafe_code)` with no libc
    /// binding, so a process embedding the daemon installs its own
    /// SIGTERM hook and calls [`ShutdownHandle::drain`] from it.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            addr: self.shared.addr,
            flag: Arc::clone(&self.shared.shutdown),
            accept_exited: Arc::clone(&self.shared.accept_exited),
        }
    }

    /// The address the daemon is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The snapshot file the daemon persists to.
    pub fn repo_path(&self) -> &Path {
        &self.shared.path
    }

    /// Serve until a `Shutdown` request arrives, then write a final
    /// snapshot if the repository is dirty. Blocks the calling thread;
    /// worker threads are scoped inside, so the borrowed
    /// config/thesaurus only need to outlive this call.
    pub fn run(self) -> Result<(), ServeError> {
        let Server { listener, shared } = self;
        let shared = &shared;
        shared.logger.info(
            "listening",
            &[("addr", &shared.addr.to_string()), ("repo", &shared.path.display().to_string())],
        );
        std::thread::scope(|scope| {
            for conn in listener.incoming() {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // A failed accept is usually the peer's problem (reset
                // before we got to it) — but it can also be *ours*
                // (EMFILE under fd exhaustion), in which case the
                // pending connection stays queued and an instant retry
                // busy-spins at 100% CPU. Back off briefly either way;
                // a healthy listener never pays this.
                let Ok(mut stream) = conn else {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    continue;
                };
                stream.set_nodelay(true).ok();
                // Refused connections (over the cap, or setup failure)
                // get a loud error frame instead of queuing behind
                // workers parked on idle peers.
                let id = match register(shared, &stream) {
                    Ok(id) => id,
                    Err(message) => {
                        shared.logger.warn("connection_refused", &[("reason", &message)]);
                        Response::Error { message }.write_to(&mut stream).ok();
                        continue;
                    }
                };
                scope.spawn(move || {
                    serve_connection(stream, shared);
                    shared.connections.lock().unwrap_or_else(|e| e.into_inner()).open.remove(&id);
                });
            }
            // Publish that the accept loop is done: wake retriers stop
            // here, whether their wake connection was ever dequeued.
            shared.accept_exited.store(true, Ordering::SeqCst);
            // Graceful drain: close only the *read* half of every open
            // connection. Workers parked waiting for a frame observe a
            // clean EOF and exit; workers mid-request keep their write
            // half so the in-flight response still reaches its client
            // before the scope joins them.
            let conns = shared.connections.lock().unwrap_or_else(|e| e.into_inner());
            for stream in conns.open.values() {
                stream.shutdown(Shutdown::Read).ok();
            }
        });
        let mut repo = shared.repo.write().unwrap_or_else(|e| e.into_inner());
        if repo.is_dirty() {
            repo.save().map_err(|e| {
                shared.logger.error("final_save_failed", &[("err", &e.to_string())]);
                ServeError::Repo(e)
            })?;
        }
        shared
            .logger
            .info("drained", &[("requests", &shared.requests.load(Ordering::Relaxed).to_string())]);
        Ok(())
    }
}

/// Triggers a graceful drain of a running [`Server`] from outside its
/// serving thread (see [`Server::shutdown_handle`]). Cloneable and
/// `'static` — safe to move into a signal-handling or supervisor
/// thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    addr: SocketAddr,
    flag: Arc<AtomicBool>,
    accept_exited: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Begin the drain: set the shutdown flag and wake the accept loop
    /// until it is seen observing the flag. Idempotent. Returns once
    /// the accept loop has stopped (or the bounded wake retry gives
    /// up — e.g. [`Server::run`] was never called); [`Server::run`]
    /// returning is the signal that the final save completed.
    pub fn drain(&self) {
        self.flag.store(true, Ordering::SeqCst);
        wake_accept_loop(self.addr, &self.accept_exited);
    }
}

/// How long each wake connection is held open (and how long between
/// wake retries): long enough for a parked accept thread to get
/// scheduled and dequeue a *live* socket even on a loaded single core.
const WAKE_PAUSE: Duration = Duration::from_millis(10);
/// Bounds the wake retry loop (~2 s of pauses plus connect time) so a
/// drain of a server whose `run()` never started still returns.
const WAKE_ATTEMPTS: usize = 200;

/// Wake a `run()` loop parked in `accept` so it observes the shutdown
/// flag, retrying until the loop confirms its exit via `accept_exited`.
///
/// One fire-and-forget connect is not enough. Dropping the wake stream
/// immediately sends an RST right behind the handshake, and on a busy
/// single core the kernel can reap the reset connection from the
/// accept backlog before the parked accept thread is ever scheduled to
/// dequeue it — the wake is lost and the daemon sleeps forever with
/// its final save unwritten (caught by `tests/chaos_daemon.rs`). Each
/// attempt therefore holds its connection open across a pause, so the
/// socket is still live when `accept` returns it, and the loop keeps
/// trying (covering transient connect failures too) until the accept
/// loop's own exit signal confirms delivery.
fn wake_accept_loop(addr: SocketAddr, accept_exited: &AtomicBool) {
    let target = wake_addr(addr);
    for _ in 0..WAKE_ATTEMPTS {
        if accept_exited.load(Ordering::SeqCst) {
            return;
        }
        let wake = TcpStream::connect_timeout(&target, Duration::from_millis(250));
        std::thread::sleep(WAKE_PAUSE);
        drop(wake);
    }
}

/// Where a worker connects to wake its own accept loop: the bound
/// address, with an unspecified IP (a `0.0.0.0` / `[::]` bind)
/// replaced by loopback — connecting *to* the unspecified address is
/// not portable, and a failed wake would leave `run()` parked in
/// `accept` forever with the final save never written.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// Register a connection in the shutdown registry. The error is the
/// message to refuse the peer with, and names the actual cause — "at
/// capacity" and "clone failed under fd exhaustion" point an operator
/// at different knobs.
fn register(shared: &Shared<'_>, stream: &TcpStream) -> Result<u64, String> {
    let mut conns = shared.connections.lock().unwrap_or_else(|e| e.into_inner());
    if conns.open.len() >= shared.options.max_connections {
        return Err(format!(
            "server at its {}-connection capacity",
            shared.options.max_connections
        ));
    }
    let clone =
        stream.try_clone().map_err(|e| format!("server failed to set up the connection: {e}"))?;
    let id = conns.next_id;
    conns.next_id += 1;
    conns.open.insert(id, clone);
    Ok(id)
}

/// What waiting for a request frame's first byte resolved to.
enum FrameWait {
    /// At least one byte is buffered — a frame is arriving.
    Ready,
    /// Clean EOF: the peer (or a drain's `Shutdown::Read`) closed.
    Closed,
    /// The idle deadline expired with no byte sent.
    IdleExpired,
    /// The socket failed; nothing more can be read.
    Failed,
}

/// Park until the peer's next frame starts, under the idle deadline.
/// `peek` leaves the byte for the frame reader, so this distinguishes
/// "idle between frames" (cheap, tolerated up to `idle_timeout`) from
/// "stalled mid-frame" (cut by the much shorter frame deadline) —
/// DESIGN.md §12.1.
fn wait_for_frame(stream: &TcpStream, idle_timeout: Option<Duration>) -> FrameWait {
    if stream.set_read_timeout(idle_timeout).is_err() {
        return FrameWait::Failed;
    }
    let mut first = [0u8; 1];
    loop {
        match stream.peek(&mut first) {
            Ok(0) => return FrameWait::Closed,
            Ok(_) => return FrameWait::Ready,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => return FrameWait::IdleExpired,
            Err(_) => return FrameWait::Failed,
        }
    }
}

/// Serve one connection: a loop of request frame → response frame.
/// Ends when the peer closes, idles past the idle deadline, stalls past
/// the frame deadline, sends a malformed frame, or the daemon drains.
///
/// Connections that open with `GET ` instead of the `CPDF` frame magic
/// are HTTP metrics scrapes — answered once and closed (DESIGN.md
/// §13.3), so `/metrics` shares the daemon's port with the frame
/// protocol.
fn serve_connection(mut stream: TcpStream, shared: &Shared<'_>) {
    let opts = &shared.options;
    // A peer that stops draining its receive window mid-response would
    // otherwise pin the worker in `write` forever.
    if stream.set_write_timeout(opts.frame_deadline).is_err() {
        return;
    }
    let mut first_frame = true;
    loop {
        match wait_for_frame(&stream, opts.idle_timeout) {
            FrameWait::Ready => {}
            FrameWait::Closed | FrameWait::Failed => return,
            FrameWait::IdleExpired => {
                shared.idle_disconnects.fetch_add(1, Ordering::Relaxed);
                shared.logger.debug("idle_disconnect", &[]);
                return;
            }
        }
        // A frame has started: switch to the (tighter) frame deadline
        // for its remaining bytes.
        if opts.frame_deadline != opts.idle_timeout
            && stream.set_read_timeout(opts.frame_deadline).is_err()
        {
            return;
        }
        // Protocol sniff, once per connection: an HTTP request line
        // instead of the frame magic means a metrics scrape.
        if first_frame {
            first_frame = false;
            if sniff_http(&stream, opts.frame_deadline) {
                serve_metrics(stream, shared);
                return;
            }
        }
        let trace_id = shared.next_trace_id.fetch_add(1, Ordering::Relaxed);
        let mut trace = RequestTrace::new(trace_id);
        let started = Instant::now();
        let decode = trace.start(Stage::Decode);
        let request = match Request::read_from(&mut stream) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(e) => {
                if e.is_timeout() {
                    // Mid-frame stall: the stream holds half a frame and
                    // cannot be resynchronized, and an error frame would
                    // interleave with whatever the peer eventually
                    // sends. Cut loudly — count it, close it.
                    shared.deadline_cuts.fetch_add(1, Ordering::Relaxed);
                    shared.logger.warn("deadline_cut", &[("during", "request_read")]);
                    return;
                }
                // Tell the peer why before hanging up; after a framing
                // error the stream cannot be resynchronized.
                shared.logger.warn("malformed_frame", &[("err", &e.to_string())]);
                let resp = Response::Error { message: e.to_string() };
                resp.write_to(&mut stream).ok();
                return;
            }
        };
        decode.stop(&mut trace);
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let kind = latency_kind(&request);
        // Admission control: bound concurrently-executing requests,
        // shedding arrivals that cannot get a slot within the queue
        // deadline.
        let handler_started = Instant::now();
        let response = match &shared.admission {
            Some(admission) if !bypasses_admission(kind) => {
                let wait = trace.start(Stage::AdmissionWait);
                let slot = admission.admit();
                wait.stop(&mut trace);
                match slot {
                    Some(_slot) => handle_request(&request, shared, &mut trace),
                    None => {
                        shared.shed.fetch_add(1, Ordering::Relaxed);
                        shared.logger.warn(
                            "request_shed",
                            &[("trace_id", &trace_id.to_string()), ("kind", LATENCY_KINDS[kind])],
                        );
                        Response::Overloaded {
                            max_inflight: admission.max as u64,
                            queue_deadline_ms: admission.deadline.as_millis() as u64,
                        }
                    }
                }
            }
            _ => handle_request(&request, shared, &mut trace),
        };
        // Admission wait is timed separately; the residual tiling covers
        // only the handler's own wall time.
        let handler_wall = handler_started
            .elapsed()
            .saturating_sub(Duration::from_nanos(trace.stage_ns[Stage::AdmissionWait as usize]));
        trace.absorb_handler_residual(handler_wall);
        let shutting_down = matches!(response, Response::ShuttingDown);
        if shutting_down {
            // Commit to the shutdown *before* the response write: a
            // client that dies after sending Shutdown must still stop
            // the daemon (and trigger its final save), not leave it
            // running forever.
            shared.shutdown.store(true, Ordering::SeqCst);
        }
        let encode = trace.start(Stage::Encode);
        let (frame_kind, payload) = response.encode();
        encode.stop(&mut trace);
        let write = trace.start(Stage::SocketWrite);
        let wrote = write_frame(&mut stream, frame_kind, &payload);
        write.stop(&mut trace);
        // The request is over: record its wall (decode through socket
        // write) and fold the trace into the stage matrix and slow log.
        let wall = started.elapsed();
        shared.latencies[kind].record(wall);
        shared.stages.record(kind, &trace);
        shared.slow_log.offer(&trace, LATENCY_KINDS[kind], wall);
        if shutting_down {
            // Wake the accept loop and stay until it observes the flag.
            wake_accept_loop(shared.addr, &shared.accept_exited);
            return;
        }
        if let Err(e) = wrote {
            if e.is_timeout() {
                shared.deadline_cuts.fetch_add(1, Ordering::Relaxed);
                shared.logger.warn(
                    "deadline_cut",
                    &[("during", "response_write"), ("trace_id", &trace_id.to_string())],
                );
            }
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Does this just-arrived payload open with an HTTP `GET `? Peeks up to
/// four bytes without consuming them, waiting briefly for slow writers;
/// anything that diverges from `GET ` (the `CPDF` frame magic on byte
/// one, say) is the frame protocol. A prefix of `GET ` that never
/// completes falls through to the frame reader, which rejects the bad
/// magic loudly.
fn sniff_http(stream: &TcpStream, deadline: Option<Duration>) -> bool {
    let give_up = Instant::now() + deadline.unwrap_or(Duration::from_secs(2));
    let mut buf = [0u8; 4];
    loop {
        match stream.peek(&mut buf) {
            Ok(0) => return false,
            Ok(n) => {
                if buf[..n] != b"GET "[..n] {
                    return false;
                }
                if n == 4 {
                    return true;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
        if Instant::now() >= give_up {
            return false;
        }
        // Fewer than four bytes buffered and all consistent with
        // `GET `: give the writer a moment and peek again.
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Answer one HTTP metrics scrape and close. Only `GET /metrics` (and
/// `GET /`, for convenience) exist; anything else is a 404. The request
/// head is drained up to a small bound so well-behaved HTTP clients see
/// their request consumed before the response lands.
fn serve_metrics(mut stream: TcpStream, shared: &Shared<'_>) {
    // Read the request head (bounded; the frame deadline is already the
    // read timeout). Stop at the blank line; ignore the rest.
    let mut head = Vec::with_capacity(256);
    let mut chunk = [0u8; 256];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8 << 10 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
    let request_line = String::from_utf8_lossy(&head);
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let response = if path == "/metrics" || path == "/" {
        shared.metrics_scrapes.fetch_add(1, Ordering::Relaxed);
        shared.logger.debug("metrics_scrape", &[]);
        let report = {
            let guard = shared.repo.read().unwrap_or_else(|e| e.into_inner());
            stats_report(&guard, shared)
        };
        http_response("200 OK", EXPOSITION_CONTENT_TYPE, &render_prometheus(&report))
    } else {
        http_response("404 Not Found", "text/plain; charset=utf-8", "only /metrics lives here\n")
    };
    stream.write_all(&response).ok();
    stream.shutdown(Shutdown::Both).ok();
}

/// Execute one request against the shared repository. Never panics on
/// bad input: every failure becomes [`Response::Error`] and the
/// connection stays usable. The trace accumulates lock-wait and
/// uncached-execution time; everything else the handler does lands in
/// `exec_cached` via the residual tiling in [`serve_connection`].
fn handle_request(request: &Request, shared: &Shared<'_>, trace: &mut RequestTrace) -> Response {
    match request {
        Request::Mutate { request_id, op } => mutate(shared, *request_id, trace, |repo| match op {
            MutationOp::Add { sdl } => Ok(Response::Added { name: repo.import_sdl(sdl)? }),
            MutationOp::Replace { sdl } => {
                let schema = cupid_io::parse_sdl(sdl).map_err(RepoError::Import)?;
                repo.replace(&schema)?;
                Ok(Response::Replaced { name: schema.name().to_string() })
            }
            MutationOp::Remove { name } => {
                repo.remove(name)?;
                Ok(Response::Removed { name: name.clone() })
            }
        }),
        Request::Batch { items } => Response::Batch { entries: serve_reads(items, shared, trace) },
        Request::Save => {
            let wait = trace.start(Stage::LockWaitWrite);
            let mut guard = shared.repo.write().unwrap_or_else(|e| e.into_inner());
            wait.stop(trace);
            let exec = trace.start(Stage::ExecUncached);
            let saved = guard.save();
            exec.stop(trace);
            drop(guard);
            match saved {
                Ok(()) => Response::Saved {
                    bytes: std::fs::metadata(&shared.path).map(|m| m.len()).unwrap_or(0),
                },
                Err(e) => {
                    shared.logger.error("save_failed", &[("err", &e.to_string())]);
                    Response::Error { message: e.to_string() }
                }
            }
        }
        Request::Shutdown => Response::ShuttingDown,
    }
}

/// Build the `Stats` payload from a repository read guard plus the
/// daemon counters (for `Stats` reads and `/metrics` scrapes).
fn stats_report(guard: &Repository<'_>, shared: &Shared<'_>) -> StatsReport {
    let stats = guard.stats();
    let durability = guard.durability();
    StatsReport {
        schemas: stats.schemas as u64,
        cached_pairs: stats.cached_pairs as u64,
        pairs_executed: stats.pairs_executed as u64,
        vocab_size: stats.session.vocab_size as u64,
        vocab_bytes: stats.session.vocab_bytes as u64,
        distinct_pairs_computed: stats.session.distinct_pairs_computed as u64,
        sim_chunks: stats.session.sim_chunks as u64,
        sim_bytes: stats.session.sim_bytes as u64,
        requests_served: shared.requests.load(Ordering::Relaxed),
        journal_records: durability.journal_records,
        journal_bytes: durability.journal_bytes,
        replayed_records: durability.replayed_records,
        compactions: durability.compactions,
        shed_requests: shared.shed.load(Ordering::Relaxed),
        idle_disconnects: shared.idle_disconnects.load(Ordering::Relaxed),
        deadline_cuts: shared.deadline_cuts.load(Ordering::Relaxed),
        deduped_mutations: shared.deduped.load(Ordering::Relaxed),
        last_fsync_error: durability.last_fsync_error.unwrap_or_default(),
        slow_requests: shared.slow_log.over_threshold(),
        slow_log_entries: shared.slow_log.len() as u64,
        metrics_scrapes: shared.metrics_scrapes.load(Ordering::Relaxed),
        explanations_served: shared.explanations.load(Ordering::Relaxed),
        latencies: LATENCY_KINDS
            .iter()
            .zip(&shared.latencies)
            .map(|(k, h)| h.snapshot(k))
            .collect(),
        stage_latencies: shared.stages.snapshot(&LATENCY_KINDS),
    }
}

/// Serve a worklist of reads — a batch, or one lone read — under
/// **one** read guard: map each entry to its pairs or its error,
/// [`Repository::resolve`] all the pairs at once, and
/// [`Repository::answer`] them at once, which caches what `resolve`
/// executed. An explain entry names no pairs: it re-executes its pair
/// ([`Repository::explain`]) and never touches the pair cache. A bad
/// entry (unknown schema name) fails alone with the repository's error,
/// and every other entry completes.
fn serve_reads(
    items: &[BatchItem],
    shared: &Shared<'_>,
    trace: &mut RequestTrace,
) -> Vec<Result<BatchOutcome, String>> {
    let wait = trace.start(Stage::LockWaitRead);
    let guard = shared.repo.read().unwrap_or_else(|e| e.into_inner());
    wait.stop(trace);
    // Every entry's pair count, its pairs appended to one flat worklist.
    // An entry that fails pushes none, so each entry's answers are the
    // next `count` in worklist order.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let counts: Vec<Result<usize, String>> = items
        .iter()
        .map(|item| {
            let start = pairs.len();
            match item {
                // The source resolves first, so an entry naming two
                // unknown schemas reports the source.
                BatchItem::MatchPair { source, target } => {
                    let i = guard.index_of(source).map_err(|e| e.to_string())?;
                    pairs.push((i, guard.index_of(target).map_err(|e| e.to_string())?));
                }
                BatchItem::TopK { k } => {
                    pairs.extend(guard.discovery_index().top_k_pairs(*k as usize));
                }
                BatchItem::Stats | BatchItem::Explain { .. } | BatchItem::SlowLog => {}
            }
            Ok(pairs.len() - start)
        })
        .collect();
    let exec = trace.start(Stage::ExecUncached);
    let batch = guard.resolve(&pairs);
    if !batch.is_empty() {
        exec.stop(trace);
    }
    let mut answers = guard.answer(batch, &pairs).into_iter();
    let mut explained = 0;
    let entries = items
        .iter()
        .zip(counts)
        .map(|(item, count)| {
            let mut answers = answers.by_ref().take(count?);
            Ok(match item {
                BatchItem::MatchPair { source, target } => BatchOutcome::Matched {
                    source: source.clone(),
                    target: target.clone(),
                    summary: answers.next().expect("one pair per match entry"),
                },
                BatchItem::TopK { .. } => BatchOutcome::TopKList {
                    names: guard.names().to_vec(),
                    summaries: answers.collect(),
                },
                BatchItem::Stats => BatchOutcome::Stats(stats_report(&guard, shared)),
                BatchItem::Explain { source, target } => {
                    let exec = trace.start(Stage::ExecUncached);
                    let explanation = guard.explain(source, target);
                    exec.stop(trace);
                    let explanation = explanation.map_err(|e| e.to_string())?;
                    debug_assert!(explanation.recomposes_exactly());
                    explained += 1;
                    BatchOutcome::Explained(explanation)
                }
                BatchItem::SlowLog => BatchOutcome::SlowLog(shared.slow_log.snapshot()),
            })
        })
        .collect();
    drop(guard);
    if explained > 0 {
        shared.explanations.fetch_add(explained, Ordering::Relaxed);
    }
    entries
}

/// Run a schema mutation under the write lock, then apply the autosave
/// policy while still holding it: the mutation's journal record is
/// already appended, so autosave is one journal `fsync`
/// ([`Repository::sync_journal`]) — the response is not written until
/// the record is durable, which is the guarantee the crash-recovery
/// suite SIGKILLs daemons to verify.
///
/// The replay table is consulted by `request_id` *inside* the write
/// lock: a retry of an already-applied mutation gets the original
/// response back verbatim — success or error alike — instead of
/// re-executing, so an ack lost to a connection reset cannot
/// double-apply (DESIGN.md §12.3).
fn mutate(
    shared: &Shared<'_>,
    request_id: u64,
    trace: &mut RequestTrace,
    op: impl FnOnce(&mut Repository<'_>) -> Result<Response, RepoError>,
) -> Response {
    let wait = trace.start(Stage::LockWaitWrite);
    let mut guard = shared.repo.write().unwrap_or_else(|e| e.into_inner());
    wait.stop(trace);
    if let Some(original) =
        shared.dedup.lock().unwrap_or_else(|e| e.into_inner()).seen.get(&request_id)
    {
        shared.deduped.fetch_add(1, Ordering::Relaxed);
        return original.clone();
    }
    let exec = trace.start(Stage::ExecUncached);
    let applied = op(&mut guard);
    exec.stop(trace);
    let committed = applied.is_ok();
    let response = applied.unwrap_or_else(|e| Response::Error { message: e.to_string() });
    shared.dedup.lock().unwrap_or_else(|e| e.into_inner()).record(request_id, &response);
    if !committed {
        return response;
    }
    let count = shared.mutations.fetch_add(1, Ordering::Relaxed) + 1;
    if let Some(every) = shared.options.autosave_every {
        if every > 0 && count.is_multiple_of(every) {
            // The mutation itself already committed, so the client must
            // see success either way — reporting an error here would
            // make a retried add fail with "already in
            // repository" for an add that worked. A failed sync only
            // loses durability, which the next sync or save retries;
            // log it daemon-side *and* surface it through the `Stats`
            // frame's `last_fsync_error` (the repository records it).
            let sync = trace.start(Stage::ExecUncached);
            let synced = guard.sync_journal();
            sync.stop(trace);
            if let Err(e) = synced {
                shared.logger.error(
                    "journal_fsync_failed",
                    &[
                        ("err", &e.to_string()),
                        ("trace_id", &trace.trace_id.to_string()),
                        ("note", "state kept in memory"),
                    ],
                );
            }
        }
    }
    response
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_entry_batches_are_timed_and_admitted_like_lone_reads() {
        let pair = || BatchItem::MatchPair { source: "A".into(), target: "B".into() };
        let explain = || BatchItem::Explain { source: "A".into(), target: "B".into() };
        let batch = |items| Request::Batch { items };
        for (request, want_kind, want_bypass) in [
            (batch(vec![pair()]), "match_pair", false),
            (batch(vec![BatchItem::TopK { k: 3 }]), "top_k", false),
            (batch(vec![BatchItem::Stats]), "stats", true),
            (batch(Vec::new()), "batch", false),
            (batch(vec![pair(), pair()]), "batch", false),
            (batch(vec![BatchItem::Stats, BatchItem::Stats]), "batch", false),
            (batch(vec![BatchItem::SlowLog]), "slow_log", false),
            (batch(vec![explain()]), "explain", false),
            (batch(vec![explain(), BatchItem::SlowLog]), "batch", false),
            (Request::Shutdown, "shutdown", true),
            (Request::Save, "save", false),
            (
                Request::Mutate { request_id: 1, op: MutationOp::Remove { name: "A".into() } },
                "mutate",
                false,
            ),
        ] {
            let kind = latency_kind(&request);
            let got = (LATENCY_KINDS[kind], bypasses_admission(kind));
            assert_eq!(got, (want_kind, want_bypass), "{request:?}");
        }
    }
}
