//! The daemon's client library: blocking connections, batched frames,
//! and a checkout/checkin connection pool.
//!
//! A [`ServeClient`] is deliberately thin — it owns a single stream and
//! runs the protocol synchronously, so "N concurrent clients" is N
//! `ServeClient`s on N threads, which is exactly how the integration
//! suite and the ledger's `serve_mixed` workload drive the daemon.
//! Three layers sit on top of that core:
//!
//! * **Timeouts** — [`ClientBuilder`] dials with a connect timeout and
//!   arms a read timeout on the socket, so a hung daemon surfaces as a
//!   loud [`cupid_model::FrameError::Io`] instead of parking the client
//!   thread forever.
//! * **Batching** — [`ServeClient::batch`] ships a worklist of
//!   match/top-k/stats/explain/slow-log reads in one frame
//!   ([`crate::protocol::Request::Batch`]); the daemon executes it
//!   under one read-lock acquisition. Each entry
//!   carries its own status, so one bad entry fails alone. A unary read
//!   is a one-entry batch.
//! * **Pooling** — [`ServePool`] hands out connections with
//!   checkout/checkin semantics: capped size, lazy dial, and eviction
//!   of connections whose transport broke mid-exchange (tracked by the
//!   client's poison flag — a framing error desynchronizes the stream
//!   beyond recovery, so the pool drops it and dials fresh).
//! * **Retries** — a [`RetryPolicy`] on the builder makes the client
//!   transparently reconnect and resend when an exchange fails with a
//!   *retryable* error ([`ServeError::is_retryable`]): reads are safe
//!   to repeat trivially, and every mutation is a [`Request::Mutate`]
//!   frame carrying a client-assigned request id the daemon
//!   deduplicates, so a retried mutation whose ack was lost cannot
//!   double-apply (DESIGN.md §12.3).

use std::hash::{BuildHasher, Hasher};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use cupid_core::{MatchSummary, PairExplanation};

use crate::protocol::{BatchItem, BatchOutcome, MutationOp, Request, Response, StatsReport};
use crate::retry::{splitmix64, RetryPolicy};
use crate::trace::TraceRecord;
use crate::ServeError;

/// A connected daemon client.
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    /// Set when the transport broke (frame error, timeout, peer close
    /// mid-exchange): the stream may be desynchronized, so the client
    /// refuses further exchanges (without a retry policy) and its pool
    /// evicts it on checkin. With a retry policy, the next call
    /// reconnects instead.
    poisoned: bool,
    /// The peer we connected to — kept so a retrying client can redial
    /// after a transport failure without re-resolving.
    peer: SocketAddr,
    /// The options we dialed with, reused verbatim on reconnect.
    builder: ClientBuilder,
    /// Next mutation request id. Seeded per-client from OS randomness
    /// (a fresh `RandomState`) so two clients cannot collide in the
    /// daemon's replay table; within a client, ids increment.
    next_request_id: u64,
}

/// Connection options for [`ServeClient`]: dial and read deadlines,
/// plus an optional retry policy. `ServeClient::connect` uses the
/// defaults (no timeouts, no retries — the integration suite's daemons
/// answer or die); services fronting a shared daemon should set all
/// three.
#[derive(Debug, Clone, Default)]
pub struct ClientBuilder {
    connect_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
    retry: Option<RetryPolicy>,
}

impl ClientBuilder {
    /// No timeouts (block until the OS gives up), no retries.
    pub fn new() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// Fail `connect` after this long per resolved address.
    pub fn connect_timeout(mut self, timeout: Duration) -> ClientBuilder {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Fail a read (and poison the connection) once the daemon has
    /// been silent this long mid-exchange. Surfaces as
    /// [`ServeError::DeadlineExceeded`].
    pub fn read_timeout(mut self, timeout: Duration) -> ClientBuilder {
        self.read_timeout = Some(timeout);
        self
    }

    /// Transparently retry retryable failures under `policy`
    /// (reconnecting first when the transport broke). Only requests
    /// that are safe to repeat are retried — see
    /// [`ServeClient`]'s module docs.
    pub fn retry(mut self, policy: RetryPolicy) -> ClientBuilder {
        self.retry = Some(policy);
        self
    }

    /// Connect to a running daemon with these options.
    pub fn connect(&self, addr: impl ToSocketAddrs) -> Result<ServeClient, ServeError> {
        let io_err = |e: &dyn std::fmt::Display| ServeError::Io {
            context: "connect".into(),
            message: e.to_string(),
        };
        let stream = match self.connect_timeout {
            None => TcpStream::connect(&addr).map_err(|e| io_err(&e))?,
            Some(timeout) => {
                // `TcpStream::connect_timeout` wants one resolved
                // address; try each in resolution order, keeping the
                // last error for the report.
                let addrs = addr.to_socket_addrs().map_err(|e| io_err(&e))?;
                let mut last: Option<std::io::Error> = None;
                let mut connected = None;
                for a in addrs {
                    match TcpStream::connect_timeout(&a, timeout) {
                        Ok(s) => {
                            connected = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                connected.ok_or_else(|| ServeError::Io {
                    context: "connect".into(),
                    message: last
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "address resolved to nothing".into()),
                })?
            }
        };
        let peer = stream.peer_addr().map_err(|e| io_err(&e))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(self.read_timeout).map_err(|e| io_err(&e))?;
        stream.set_write_timeout(self.read_timeout).map_err(|e| io_err(&e))?;
        Ok(ServeClient {
            stream,
            poisoned: false,
            peer,
            builder: self.clone(),
            next_request_id: random_id_base(),
        })
    }
}

/// A per-client random starting point for mutation request ids, drawn
/// from the OS-seeded `RandomState` (no `rand` dependency in the
/// non-dev tree). Collisions between two clients would require both
/// the 64-bit bases *and* the offsets to align — vanishingly unlikely
/// within the daemon's 4096-entry replay window.
fn random_id_base() -> u64 {
    std::collections::hash_map::RandomState::new().build_hasher().finish()
}

/// The result of a top-`k` discovery request: the executed candidate
/// pairs plus the daemon's name table for rendering summary ids.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKListing {
    /// Schema names, in repository order.
    pub names: Vec<String>,
    /// Executed candidate pairs' summaries, in `(i, j)` index order.
    pub summaries: Vec<MatchSummary>,
}

impl ServeClient {
    /// Connect to a running daemon with default options (no timeouts);
    /// see [`ClientBuilder`] for deadlines.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<ServeClient, ServeError> {
        ClientBuilder::new().connect(addr)
    }

    /// True once the transport broke mid-exchange: the stream may hold
    /// half a frame, so the client is unusable (absent a retry policy)
    /// and a pool evicts it.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// One request/response exchange on the current stream. Transport
    /// failures (frame corruption, timeout, peer close) poison the
    /// client; [`ServeError::Remote`] and [`ServeError::Overloaded`]
    /// answers do not — the protocol stays in sync across an
    /// application-level refusal.
    fn roundtrip(&mut self, request: &Request) -> Result<Response, ServeError> {
        if self.poisoned {
            return Err(ServeError::Poisoned);
        }
        let result = (|| {
            request.write_to(&mut self.stream).map_err(ServeError::Frame)?;
            match Response::read_from(&mut self.stream).map_err(ServeError::Frame)? {
                Some(Response::Error { message }) => Err(ServeError::Remote(message)),
                Some(Response::Overloaded { max_inflight, queue_deadline_ms }) => {
                    Err(ServeError::Overloaded { max_inflight, queue_deadline_ms })
                }
                Some(response) => Ok(response),
                None => Err(ServeError::Closed),
            }
        })();
        match result {
            Err(ServeError::Frame(e)) if e.is_timeout() => {
                // The stream may hold half a frame — desynchronized
                // either way — but the *cause* is the deadline, and
                // that's what callers and the retry loop branch on.
                self.poisoned = true;
                Err(ServeError::DeadlineExceeded)
            }
            Err(e @ (ServeError::Frame(_) | ServeError::Io { .. } | ServeError::Closed)) => {
                self.poisoned = true;
                Err(e)
            }
            other => other,
        }
    }

    /// One logical exchange: [`ServeClient::roundtrip`] wrapped in the
    /// builder's [`RetryPolicy`], when one is set and `request` is safe
    /// to resend. Before each retry the client sleeps the policy's
    /// backoff delay and, if the transport broke, redials the same
    /// peer. Non-retryable errors and exhausted budgets surface the
    /// *last* error.
    fn call(&mut self, request: &Request) -> Result<Response, ServeError> {
        let Some(policy) = self.builder.retry.clone() else {
            return self.roundtrip(request);
        };
        if !retryable_request(request) {
            return self.roundtrip(request);
        }
        let mut attempt = 0u32;
        loop {
            let result = match self.reconnect_if_poisoned() {
                Ok(()) => self.roundtrip(request),
                Err(e) => Err(e),
            };
            match result {
                Ok(response) => return Ok(response),
                Err(e) if e.is_retryable() && attempt < policy.budget => {
                    std::thread::sleep(policy.delay(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Redial the original peer with the original options after a
    /// transport failure, swapping the broken stream for a fresh one.
    /// Mutation ids are *not* reset — the replay table keys on them.
    fn reconnect_if_poisoned(&mut self) -> Result<(), ServeError> {
        if !self.poisoned {
            return Ok(());
        }
        let fresh = self.builder.connect(self.peer)?;
        self.stream = fresh.stream;
        self.poisoned = false;
        Ok(())
    }

    fn unexpected(response: Response) -> ServeError {
        ServeError::Unexpected(format!("unexpected response variant: {response:?}"))
    }

    /// One read as a one-entry batch: its entry's outcome, or the
    /// entry's error as [`ServeError::Remote`].
    fn read(&mut self, item: BatchItem) -> Result<BatchOutcome, ServeError> {
        let entry = self.batch(vec![item])?.pop().expect("one entry per worklist item");
        entry.map_err(ServeError::Remote)
    }

    /// The next client-assigned mutation request id (random base,
    /// sequential offsets — see [`random_id_base`]).
    fn next_request_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id = self.next_request_id.wrapping_add(1);
        id
    }

    /// Add a schema from SDL text; returns the stored name.
    pub fn add_sdl(&mut self, sdl: &str) -> Result<String, ServeError> {
        let request = Request::Mutate {
            request_id: self.next_request_id(),
            op: MutationOp::Add { sdl: sdl.to_string() },
        };
        match self.call(&request)? {
            Response::Added { name } => Ok(name),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Replace the stored schema with the same name, from SDL text.
    pub fn replace_sdl(&mut self, sdl: &str) -> Result<String, ServeError> {
        let request = Request::Mutate {
            request_id: self.next_request_id(),
            op: MutationOp::Replace { sdl: sdl.to_string() },
        };
        match self.call(&request)? {
            Response::Replaced { name } => Ok(name),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Remove the schema stored under `name`.
    pub fn remove(&mut self, name: &str) -> Result<(), ServeError> {
        let request = Request::Mutate {
            request_id: self.next_request_id(),
            op: MutationOp::Remove { name: name.to_string() },
        };
        match self.call(&request)? {
            Response::Removed { .. } => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Match one stored pair by name. The summary is bit-identical to
    /// an in-process match of the same schemas.
    pub fn match_pair(&mut self, source: &str, target: &str) -> Result<MatchSummary, ServeError> {
        let item = BatchItem::MatchPair { source: source.to_string(), target: target.to_string() };
        summary_of(self.read(item)?)
    }

    /// Ship a worklist of requests in one batch frame; the daemon
    /// executes it under one read-lock acquisition. Entries come back
    /// in worklist order, each with its own status — one bad entry
    /// (unknown schema name) fails alone. The transport-level `Err` is
    /// reserved for the whole exchange failing.
    pub fn batch(
        &mut self,
        items: Vec<BatchItem>,
    ) -> Result<Vec<Result<BatchOutcome, String>>, ServeError> {
        let sent = items.len();
        match self.call(&Request::Batch { items })? {
            Response::Batch { entries } if entries.len() == sent => Ok(entries),
            Response::Batch { entries } => Err(ServeError::Unexpected(format!(
                "batch answered {} entries for {sent} requests",
                entries.len()
            ))),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Match many stored pairs in one batched round-trip — the
    /// high-throughput form of [`ServeClient::match_pair`]. Summaries
    /// are bit-identical to unary calls; per-entry errors (unknown
    /// names) come back in-slot.
    pub fn match_pairs<S: AsRef<str>, T: AsRef<str>>(
        &mut self,
        pairs: &[(S, T)],
    ) -> Result<Vec<Result<MatchSummary, String>>, ServeError> {
        let items = pairs
            .iter()
            .map(|(s, t)| BatchItem::MatchPair {
                source: s.as_ref().to_string(),
                target: t.as_ref().to_string(),
            })
            .collect();
        self.batch(items)?
            .into_iter()
            .map(|entry| match entry {
                Ok(outcome) => summary_of(outcome).map(Ok),
                Err(message) => Ok(Err(message)),
            })
            .collect()
    }

    /// Run several top-`k` discovery probes in one batched round-trip.
    pub fn top_k_many(
        &mut self,
        ks: &[usize],
    ) -> Result<Vec<Result<TopKListing, String>>, ServeError> {
        let items = ks.iter().map(|&k| BatchItem::TopK { k: k as u32 }).collect();
        self.batch(items)?
            .into_iter()
            .map(|entry| match entry {
                Ok(outcome) => listing_of(outcome).map(Ok),
                Err(message) => Ok(Err(message)),
            })
            .collect()
    }

    /// Index-pruned top-`k` discovery over the daemon's corpus.
    pub fn top_k(&mut self, k: usize) -> Result<TopKListing, ServeError> {
        listing_of(self.read(BatchItem::TopK { k: k as u32 })?)
    }

    /// Daemon counters.
    pub fn stats(&mut self) -> Result<StatsReport, ServeError> {
        match self.read(BatchItem::Stats)? {
            BatchOutcome::Stats(report) => Ok(report),
            other => Err(unexpected_outcome(other)),
        }
    }

    /// Per-mapping score provenance for one stored pair (DESIGN.md
    /// §14): the lsim/ssim/wsim breakdown, top contributing token
    /// pairs, and the structural context behind every kept mapping.
    /// Every mapping in the answer recomposes to its reported `wsim`
    /// bit-exactly.
    pub fn explain(&mut self, source: &str, target: &str) -> Result<PairExplanation, ServeError> {
        let item = BatchItem::Explain { source: source.to_string(), target: target.to_string() };
        match self.read(item)? {
            BatchOutcome::Explained(explanation) => Ok(explanation),
            other => Err(unexpected_outcome(other)),
        }
    }

    /// The daemon's slow-log ring: its slowest retained request traces,
    /// slowest first, each with a full per-stage breakdown.
    pub fn slow_log(&mut self) -> Result<Vec<TraceRecord>, ServeError> {
        match self.read(BatchItem::SlowLog)? {
            BatchOutcome::SlowLog(traces) => Ok(traces),
            other => Err(unexpected_outcome(other)),
        }
    }

    /// Persist the daemon's snapshot now; returns its size in bytes.
    pub fn save(&mut self) -> Result<u64, ServeError> {
        match self.call(&Request::Save)? {
            Response::Saved { bytes } => Ok(bytes),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Ask the daemon to shut down (it saves a dirty repository on the
    /// way out).
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }
}

/// The summary a match read answered with.
fn summary_of(outcome: BatchOutcome) -> Result<MatchSummary, ServeError> {
    match outcome {
        BatchOutcome::Matched { summary, .. } => Ok(summary),
        other => Err(unexpected_outcome(other)),
    }
}

/// The listing a top-`k` read answered with.
fn listing_of(outcome: BatchOutcome) -> Result<TopKListing, ServeError> {
    match outcome {
        BatchOutcome::TopKList { names, summaries } => Ok(TopKListing { names, summaries }),
        other => Err(unexpected_outcome(other)),
    }
}

fn unexpected_outcome(outcome: BatchOutcome) -> ServeError {
    ServeError::Unexpected(format!("unexpected read outcome: {outcome:?}"))
}

/// Is this request safe to send twice? Every request but `Shutdown`
/// is: reads trivially, `Save` because saving twice persists the same
/// state, and [`Request::Mutate`] because its request id replays
/// daemon-side instead of re-executing.
fn retryable_request(request: &Request) -> bool {
    !matches!(request, Request::Shutdown)
}

/// Pool bookkeeping: parked connections plus the count of live ones
/// (parked + checked out), which the cap bounds.
struct PoolState {
    idle: Vec<ServeClient>,
    live: usize,
}

struct PoolInner {
    addr: String,
    cap: usize,
    builder: ClientBuilder,
    /// Dial counter: the n-th dialed connection reseeds the builder's
    /// retry policy with `splitmix64(seed ^ n)` so pooled clients
    /// back off on decorrelated schedules (no thundering herd after a
    /// shared fault) while the whole pool stays deterministic for a
    /// fixed seed and dial order.
    dials: AtomicU64,
    state: Mutex<PoolState>,
    available: Condvar,
}

impl PoolInner {
    /// The builder for the next fresh dial, retry seed decorrelated.
    fn dial_builder(&self) -> ClientBuilder {
        let mut builder = self.builder.clone();
        if let Some(policy) = &mut builder.retry {
            let n = self.dials.fetch_add(1, Ordering::Relaxed);
            policy.seed = splitmix64(policy.seed ^ n);
        }
        builder
    }
}

/// A capped checkout/checkin pool of daemon connections.
///
/// Connections are dialed lazily — the pool starts empty and grows on
/// demand up to its cap; a checkout over the cap parks until a checkin.
/// Checkin is [`PooledClient`]'s `Drop`: a healthy connection goes back
/// to the idle list, a poisoned one (transport broke mid-exchange) is
/// evicted so the next checkout dials fresh. Clone the pool to share it
/// across client threads — clones are handles to one pool.
#[derive(Clone)]
pub struct ServePool {
    inner: Arc<PoolInner>,
}

impl ServePool {
    /// A pool of at most `cap` connections to `addr` (dialed with
    /// default [`ClientBuilder`] options; see
    /// [`ServePool::with_builder`] for timeouts).
    pub fn new(addr: impl Into<String>, cap: usize) -> ServePool {
        ServePool::with_builder(addr, cap, ClientBuilder::new())
    }

    /// A pool whose connections are dialed with `builder`'s timeouts
    /// and retry policy. When the builder carries a [`RetryPolicy`],
    /// each dialed connection gets a decorrelated seed (the policy's
    /// seed mixed with the pool's dial counter) so simultaneous
    /// redials don't share a backoff schedule.
    pub fn with_builder(addr: impl Into<String>, cap: usize, builder: ClientBuilder) -> ServePool {
        ServePool {
            inner: Arc::new(PoolInner {
                addr: addr.into(),
                cap: cap.max(1),
                builder,
                dials: AtomicU64::new(0),
                state: Mutex::new(PoolState { idle: Vec::new(), live: 0 }),
                available: Condvar::new(),
            }),
        }
    }

    /// Check a connection out: an idle one if parked, a fresh dial if
    /// under the cap, otherwise block until a checkin. The returned
    /// guard derefs to [`ServeClient`] and checks itself back in on
    /// drop.
    pub fn checkout(&self) -> Result<PooledClient, ServeError> {
        let inner = &self.inner;
        let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(client) = state.idle.pop() {
                return Ok(PooledClient { client: Some(client), pool: Arc::clone(inner) });
            }
            if state.live < inner.cap {
                // Reserve the slot before dialing so concurrent
                // checkouts cannot overshoot the cap, and dial outside
                // the lock so a slow connect doesn't stall checkins.
                state.live += 1;
                drop(state);
                return match inner.dial_builder().connect(inner.addr.as_str()) {
                    Ok(client) => {
                        Ok(PooledClient { client: Some(client), pool: Arc::clone(inner) })
                    }
                    Err(e) => {
                        let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
                        state.live -= 1;
                        drop(state);
                        inner.available.notify_one();
                        Err(e)
                    }
                };
            }
            state = inner.available.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Connections currently parked in the pool (diagnostics/tests).
    pub fn idle(&self) -> usize {
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner()).idle.len()
    }

    /// Live connections — parked plus checked out (diagnostics/tests).
    pub fn live(&self) -> usize {
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner()).live
    }
}

/// A checked-out pool connection: derefs to [`ServeClient`], checks
/// itself back in on drop (eviction instead if the transport broke).
pub struct PooledClient {
    client: Option<ServeClient>,
    pool: Arc<PoolInner>,
}

impl Deref for PooledClient {
    type Target = ServeClient;
    fn deref(&self) -> &ServeClient {
        self.client.as_ref().expect("client present until drop")
    }
}

impl DerefMut for PooledClient {
    fn deref_mut(&mut self) -> &mut ServeClient {
        self.client.as_mut().expect("client present until drop")
    }
}

impl Drop for PooledClient {
    fn drop(&mut self) {
        let client = self.client.take().expect("client present until drop");
        let mut state = self.pool.state.lock().unwrap_or_else(|e| e.into_inner());
        if client.is_poisoned() {
            // The stream may hold half a frame; handing it to the next
            // checkout would fail every exchange. Drop the connection
            // and free its cap slot.
            state.live -= 1;
        } else {
            state.idle.push(client);
        }
        drop(state);
        self.pool.available.notify_one();
    }
}
