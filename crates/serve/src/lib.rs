//! # cupid-serve — the long-running match daemon (DESIGN.md §9)
//!
//! The paper frames Cupid as a reusable component inside a larger
//! data-integration system, and the interactive workloads that matter
//! at corpus scale — dataset discovery (query schema in, top-k
//! candidates out), rule-driven matching pipelines — assume a
//! *resident* matcher: prepared schemas, the interned token table, the
//! similarity memo and the pair-summary cache all hot in memory,
//! invoked repeatedly at low latency. Until this crate, every workload
//! was a one-shot process over [`cupid_repo::Repository`], paying
//! snapshot load per invocation.
//!
//! `cupid-serve` is that resident half:
//!
//! * **[`Server`]** — a daemon owning one repository-backed session,
//!   serving concurrent clients over std-only TCP (no async runtime in
//!   this offline workspace): the accept loop spawns a scoped worker
//!   thread per connection, capped by
//!   [`ServeOptions::max_connections`]; reads run concurrently under
//!   an `RwLock`, uncached matches execute under the *read* lock,
//!   filling the one similarity memo in place, and only cache
//!   publication, saves and schema mutations serialize through the
//!   writer.
//! * **[`protocol`]** — a length-prefixed, checksummed binary protocol
//!   over [`cupid_model::wire`] frames. Every read is a [`BatchItem`]
//!   (`MatchPair`, `TopK` discovery, `Stats`, `Explain`, `SlowLog`) in
//!   a [`Request::Batch`] frame, alone or many to a frame; every
//!   mutation is a [`Request::Mutate`] (SDL payloads, incremental
//!   re-match underneath, a request id for retry deduplication); plus
//!   `Save` and `Shutdown`.
//! * **[`ServeClient`]** — the blocking client library the CLI, the
//!   tests, the ledger and the example all drive the daemon with, with
//!   connect/read timeouts via [`ClientBuilder`] and transport-error
//!   poisoning (a desynchronized stream refuses reuse).
//! * **Batch frames** (DESIGN.md §11) — one checksummed frame carries
//!   a worklist of [`BatchItem`]s, answered under a single read lock;
//!   each entry succeeds or fails alone. A
//!   lone read is a one-entry worklist.
//!   [`ServePool`] adds a capped, lazily dialed connection pool whose
//!   checkin evicts poisoned connections, and
//!   [`ServeClient::match_pairs`] / [`ServeClient::top_k_many`] wrap
//!   the common worklists.
//! * **Latency histograms** ([`histogram`]) — fixed-bucket log2
//!   histograms per request kind, snapshotted into the `Stats` frame
//!   as [`KindLatency`] with p50/p99/p999 on the reading side.
//!
//! Responses are bit-identical to direct in-process calls — the wire
//! format ships `f64`s by bit pattern, and pair execution is a pure
//! function of schema content — which `tests/serve_daemon.rs` proves
//! with N concurrent clients against a [`cupid_core::MatchSession`],
//! batched against unary included.
//!
//! ## Quick start
//!
//! ```
//! use cupid_core::Cupid;
//! use cupid_lexical::Thesaurus;
//! use cupid_serve::{CupidServeExt, ServeClient, ServePool};
//!
//! let dir = std::env::temp_dir().join(format!("cupid-serve-doc-{}", std::process::id()));
//! let cupid = Cupid::new(Thesaurus::parse("abbrev Qty = quantity").unwrap());
//! // Port 0: the OS assigns a free port; read it back before running.
//! let server = cupid.serve("127.0.0.1:0", &dir).unwrap();
//! let addr = server.local_addr();
//! std::thread::scope(|scope| {
//!     scope.spawn(move || server.run().unwrap());
//!     let mut client = ServeClient::connect(addr).unwrap();
//!     client.add_sdl("schema PO\n  element Item\n    attr Qty : int\n").unwrap();
//!     client.add_sdl("schema Order\n  element Item\n    attr Quantity : int\n").unwrap();
//!     let summary = client.match_pair("PO", "Order").unwrap();
//!     assert!(summary.has_leaf_mapping("PO.Item.Qty", "Order.Item.Quantity"));
//!     // Worklists go out as ONE batch frame, through a pooled client.
//!     let pool = ServePool::new(addr.to_string(), 2);
//!     let entries = pool.checkout().unwrap()
//!         .match_pairs(&[("PO", "Order"), ("Order", "PO")]).unwrap();
//!     assert!(entries.iter().all(|e| e.is_ok()));
//!     client.shutdown().unwrap();
//! });
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::net::ToSocketAddrs;
use std::path::Path;

use cupid_core::Cupid;
use cupid_model::FrameError;
use cupid_repo::RepoError;

pub mod chaos;
mod client;
mod daemon;
pub mod histogram;
pub mod log;
pub mod metrics;
pub mod protocol;
mod retry;
pub mod trace;

pub use client::{ClientBuilder, PooledClient, ServeClient, ServePool, TopKListing};
pub use daemon::{ServeOptions, Server, ShutdownHandle};
pub use histogram::{KindLatency, LatencyHistogram, LATENCY_BUCKETS};
pub use log::{Level, Logger};
pub use metrics::render_prometheus;
pub use protocol::{BatchItem, BatchOutcome, MutationOp, Request, Response, StatsReport};
pub use retry::RetryPolicy;
pub use trace::{RequestTrace, SlowLog, Stage, TraceRecord, STAGES, STAGE_NAMES};

/// Errors of the daemon subsystem (server, client, CLI).
#[derive(Debug)]
pub enum ServeError {
    /// A socket operation failed.
    Io {
        /// What was being attempted.
        context: String,
        /// The underlying error.
        message: String,
    },
    /// A frame could not be read or written (stream died, or the bytes
    /// on it are corrupt — the connection cannot continue).
    Frame(FrameError),
    /// The repository layer failed (snapshot I/O, lock held, …).
    Repo(RepoError),
    /// The daemon shed the request under admission control: its
    /// in-flight cap (`max_inflight`) stayed full past the queue
    /// deadline. Retryable — backing off is exactly what the daemon is
    /// asking for.
    Overloaded {
        /// The daemon's in-flight request cap.
        max_inflight: u64,
        /// How long the request waited for a slot, in milliseconds.
        queue_deadline_ms: u64,
    },
    /// An exchange did not complete within the configured deadline
    /// (connect, read, or write timeout) — including after exhausting
    /// the retry budget on timeouts.
    DeadlineExceeded,
    /// The connection desynchronized on an earlier transport error and
    /// refuses reuse; reconnect (or check a fresh client out of the
    /// pool) to continue.
    Poisoned,
    /// The daemon answered with an error response; the connection
    /// remains usable.
    Remote(String),
    /// The daemon answered with a well-formed response of the wrong
    /// variant — a protocol bug, not a user error.
    Unexpected(String),
    /// The daemon closed the connection before answering.
    Closed,
}

impl ServeError {
    /// Whether a retry can succeed where this error failed: the fault
    /// is transient (overload, deadline, transport) rather than a
    /// property of the request itself ([`ServeError::Remote`] — the
    /// daemon executed it and said no) or of the client (`Poisoned`,
    /// `Repo`, protocol bugs). The retry loop in [`ServeClient`]
    /// branches on this instead of parsing message strings.
    pub fn is_retryable(&self) -> bool {
        match self {
            ServeError::Overloaded { .. }
            | ServeError::DeadlineExceeded
            | ServeError::Closed
            | ServeError::Io { .. }
            | ServeError::Frame(_) => true,
            ServeError::Repo(_)
            | ServeError::Poisoned
            | ServeError::Remote(_)
            | ServeError::Unexpected(_) => false,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { context, message } => write!(f, "{context}: {message}"),
            ServeError::Frame(e) => write!(f, "{e}"),
            ServeError::Repo(e) => write!(f, "{e}"),
            ServeError::Overloaded { max_inflight, queue_deadline_ms } => write!(
                f,
                "daemon overloaded: {max_inflight} requests in flight for over \
                 {queue_deadline_ms} ms; retry with backoff"
            ),
            ServeError::DeadlineExceeded => write!(f, "exchange exceeded its deadline"),
            ServeError::Poisoned => {
                write!(f, "connection poisoned by an earlier transport error; reconnect")
            }
            ServeError::Remote(m) => write!(f, "daemon error: {m}"),
            ServeError::Unexpected(m) => write!(f, "{m}"),
            ServeError::Closed => write!(f, "daemon closed the connection mid-exchange"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        ServeError::Frame(e)
    }
}

impl From<RepoError> for ServeError {
    fn from(e: RepoError) -> Self {
        ServeError::Repo(e)
    }
}

/// Extension trait putting `serve()` on the [`Cupid`] facade — the
/// entry point of the daemon subsystem, mirroring how
/// [`cupid_repo::CupidRepositoryExt`] exposes `repository()`.
pub trait CupidServeExt {
    /// Bind a match daemon on `addr` over the repository persisted at
    /// `repo_path` (taking its single-writer lock), with default
    /// options. Call [`Server::run`] on the result to serve.
    fn serve<A: ToSocketAddrs, P: AsRef<Path>>(
        &self,
        addr: A,
        repo_path: P,
    ) -> Result<Server<'_>, ServeError>;
}

impl CupidServeExt for Cupid {
    fn serve<A: ToSocketAddrs, P: AsRef<Path>>(
        &self,
        addr: A,
        repo_path: P,
    ) -> Result<Server<'_>, ServeError> {
        Server::bind(addr, repo_path, self.config(), self.thesaurus(), ServeOptions::default())
    }
}
