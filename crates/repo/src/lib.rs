//! # cupid-repo — the persistent schema repository (DESIGN.md §8)
//!
//! The paper frames matching as one step of a long-lived
//! data-integration workflow (§9), and PR 3's [`MatchSession`] made the
//! in-process half of that cheap: prepare every schema once, share one
//! token-similarity memo across all pairs. This crate is the half that
//! survives restarts:
//!
//! * **Snapshots** — a [`Repository`] persists the whole session
//!   (token table, similarity memo chunks, every prepared schema, the
//!   source schema graphs) in a versioned, hand-rolled binary format
//!   with a trailing checksum. Config and thesaurus fingerprints are
//!   stored alongside; opening with a different matcher configuration
//!   invalidates the snapshot instead of serving subtly wrong numbers.
//! * **Incremental re-matching** — per-pair [`MatchSummary`] results
//!   are cached keyed by the two schemas' *content hashes*. Editing
//!   one schema of an `N`-schema corpus re-executes only that schema's
//!   `N−1` pairs; everything else is served from the cache,
//!   bit-identical to a cold rebuild. The edit evicts the summaries it
//!   strands, so the cache never outgrows the live corpus. Every read
//!   takes `&self` and caches the pairs it executes in place, so one
//!   handle serves concurrent readers (DESIGN.md §9.3).
//! * **Top-k discovery** — an inverted index over interned leaf name
//!   tokens ([`DiscoveryIndex`]) retrieves match candidates by cheap
//!   token overlap, so corpus discovery can execute `N·k` pairs
//!   instead of `N·(N−1)/2`.
//! * **Single-writer locking** — opening a repository takes an OS
//!   file lock on `<snapshot>.lock` for the lifetime of the handle
//!   ([`RepoLock`]), so two handles, in one process or two, can no
//!   longer clobber each other's saves last-rename-wins; the loser gets
//!   a loud [`RepoError::Locked`] naming the pid the holder recorded in
//!   the file (0 until it has). The OS releases the lock when the
//!   handle drops or its process exits, so a crash leaves no held lock
//!   behind; the file itself stays on disk. On a filesystem without
//!   file locks, opening fails with [`RepoError::Io`].
//! * **Write-ahead journal** — every mutation appends one checksummed
//!   record to a sibling `<snapshot>.journal` file
//!   ([`journal::Journal`], DESIGN.md §10); an fsynced append
//!   ([`Repository::sync_journal`]) is a durability point orders of
//!   magnitude cheaper than a snapshot rewrite. Opening replays the
//!   journal tail on top of the snapshot, and saves (explicit or
//!   threshold-triggered compaction) fold it back into a fresh
//!   snapshot. A crash loses at most the un-synced suffix — never an
//!   fsync-acknowledged mutation — which the fault-injection suite in
//!   `tests/crash_recovery.rs` proves by killing live daemons.
//!
//! ```
//! use cupid_core::{Cupid, CupidConfig};
//! use cupid_lexical::Thesaurus;
//! use cupid_model::{DataType, ElementKind, SchemaBuilder};
//! use cupid_repo::Repository;
//!
//! let schema = |name: &str, field: &str| {
//!     let mut b = SchemaBuilder::new(name);
//!     let item = b.structured(b.root(), "Item", ElementKind::XmlElement);
//!     b.atomic(item, field, ElementKind::XmlElement, DataType::Int);
//!     b.build().unwrap()
//! };
//!
//! let dir = std::env::temp_dir().join(format!("cupid-repo-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let config = CupidConfig::default();
//! let thesaurus = Thesaurus::with_default_stopwords();
//!
//! // First run: build, match, save. The handle holds the snapshot's
//! // single-writer lock, so it must drop before the warm reopen.
//! let summaries = {
//!     let mut repo = Repository::open_or_create(&dir, &config, &thesaurus).unwrap();
//!     repo.add(&schema("A", "Quantity")).unwrap();
//!     repo.add(&schema("B", "Quantity")).unwrap();
//!     let summaries = repo.match_all_pairs();
//!     assert_eq!(repo.pairs_executed(), 1);
//!     repo.save().unwrap();
//!     summaries
//! };
//!
//! // Second run: everything — including the pair result — comes back
//! // from disk; nothing is re-executed.
//! let warm = Repository::open_or_create(&dir, &config, &thesaurus).unwrap();
//! assert_eq!(warm.match_all_pairs(), summaries);
//! assert_eq!(warm.pairs_executed(), 0);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

use cupid_core::{
    Cupid, CupidConfig, LsimTable, MatchSession, MatchSummary, PairExplanation, SchemaId,
    SessionStats,
};
use cupid_lexical::{SimStore, Thesaurus};
use cupid_model::{ModelError, Schema};

pub mod fault;
mod index;
pub mod journal;
mod lock;
mod snapshot;

pub use index::{Candidate, DiscoveryIndex};
pub use journal::{Journal, JournalHeader, JournalRecord, JOURNAL_VERSION};
pub use lock::RepoLock;

/// Default file name used when a repository path points at a directory.
pub const SNAPSHOT_FILE: &str = "cupid.repo";

/// `path` with `suffix` appended to its file name (`cupid.repo` +
/// `.journal` → `cupid.repo.journal`). Every file that belongs to a
/// snapshot — journal, lock, save temp — is named this way, so two
/// snapshots in one directory never share one, whatever their
/// extensions.
pub(crate) fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(suffix);
    path.with_file_name(name)
}

/// Errors of the repository subsystem.
#[derive(Debug)]
pub enum RepoError {
    /// Reading or writing the snapshot file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error.
        message: String,
    },
    /// The snapshot bytes are damaged (bad magic, checksum mismatch,
    /// malformed structure). The repository refuses to guess; delete
    /// the file to start over.
    Corrupt {
        /// What failed to decode.
        message: String,
    },
    /// The snapshot is well-formed but was produced by a different
    /// matcher configuration, thesaurus, or container version, so its
    /// persisted similarities are not valid here.
    /// [`Repository::open_or_create`] recovers by starting fresh.
    Stale {
        /// Which fingerprint differed.
        reason: String,
    },
    /// Another live repository handle holds the snapshot's
    /// single-writer lock. Two handles saving the same snapshot would
    /// clobber each other last-rename-wins, so opening is refused
    /// loudly instead (DESIGN.md §9.4).
    Locked {
        /// The lock file that is held.
        path: PathBuf,
        /// The holder's pid, as recorded in the lock file (0 if the
        /// holder has not written it yet).
        pid: u32,
    },
    /// A schema with this name is already in the repository.
    DuplicateName(String),
    /// No schema with this name is in the repository.
    UnknownName(String),
    /// Preparing a schema failed (e.g. recursive type definitions).
    Model(ModelError),
    /// Exporting a schema to SDL failed (construct not representable).
    Export {
        /// The schema being exported.
        name: String,
        /// Why it is not representable.
        message: String,
    },
    /// Importing an SDL document failed.
    Import(cupid_io::ParseError),
}

impl fmt::Display for RepoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepoError::Io { path, message } => write!(f, "{}: {message}", path.display()),
            RepoError::Corrupt { message } => write!(f, "corrupt snapshot: {message}"),
            RepoError::Stale { reason } => write!(f, "stale snapshot: {reason}"),
            RepoError::Locked { path, pid } => write!(
                f,
                "repository is locked by pid {pid} ({}); a snapshot has exactly one \
                 writer at a time",
                path.display()
            ),
            RepoError::DuplicateName(n) => write!(f, "schema `{n}` already in repository"),
            RepoError::UnknownName(n) => write!(f, "no schema `{n}` in repository"),
            RepoError::Model(e) => write!(f, "schema preparation failed: {e}"),
            RepoError::Export { name, message } => {
                write!(f, "cannot export `{name}` as SDL: {message}")
            }
            RepoError::Import(e) => write!(f, "SDL import failed: {e}"),
        }
    }
}

impl std::error::Error for RepoError {}

impl From<ModelError> for RepoError {
    fn from(e: ModelError) -> Self {
        RepoError::Model(e)
    }
}

/// Aggregate repository counters, for reports and the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepositoryStats {
    /// Schemas in the repository.
    pub schemas: usize,
    /// Pair summaries currently cached. Every key names two hashes that
    /// schemas in the repository hold, because a mutation evicts the
    /// pairs it strands: at most N(N−1)/2 when pairs are read in
    /// `(i < j)` order, as [`Repository::match_all_pairs`] and
    /// [`Repository::top_k_pairs`] read them.
    pub cached_pairs: usize,
    /// Full pair executions since this handle was opened — the number
    /// the incremental machinery exists to minimize.
    pub pairs_executed: usize,
    /// The underlying session's counters (vocabulary, memo, memory).
    pub session: SessionStats,
}

/// Counters of the durability layer (DESIGN.md §10.6): how much of the
/// repository's state currently rides on the write-ahead journal, what
/// recovery did at open, and whether persistence has degraded. Served
/// through the daemon's `Stats` frame and the eval `daemon` experiment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DurabilityStats {
    /// Mutation records currently in the journal (folded to 0 by every
    /// save/compaction).
    pub journal_records: u64,
    /// Bytes in the journal file, header frame included.
    pub journal_bytes: u64,
    /// Records replayed on top of the snapshot when this handle opened.
    pub replayed_records: u64,
    /// Times this handle folded a non-empty journal into a snapshot
    /// (explicit saves and threshold-triggered compactions alike).
    pub compactions: u64,
    /// The most recent journal/snapshot persistence failure, if any —
    /// mutations keep succeeding in memory when the disk degrades, but
    /// the degradation is surfaced here instead of being swallowed.
    pub last_fsync_error: Option<String>,
    /// Why recovery discarded journal bytes at open (damaged tail past
    /// the last valid record, or a journal left behind by a crash
    /// between snapshot publish and journal reset). `None` for a clean
    /// open.
    pub replay_discarded: Option<String>,
}

/// Pairs executed by [`Repository::resolve`], ready for
/// [`Repository::answer`] to serve and cache: one summary per
/// content-hash key, each from one execution. The similarity memo they
/// warmed was filled in place.
///
/// A batch borrows the repository that resolved it, so no mutation runs
/// between `resolve` and `answer`, and every key it caches names live
/// schemas. Answering before a `replace` compiles:
///
/// ```
/// # use cupid_model::Schema;
/// # use cupid_repo::Repository;
/// fn read_then_edit(repo: &mut Repository<'_>, edited: &Schema) {
///     let batch = repo.resolve(&[(0, 1)]);
///     repo.answer(batch, &[(0, 1)]);
///     repo.replace(edited).unwrap();
/// }
/// ```
///
/// Keeping the batch across the `replace` does not:
///
/// ```compile_fail,E0502
/// # use cupid_model::Schema;
/// # use cupid_repo::Repository;
/// fn edit_between(repo: &mut Repository<'_>, edited: &Schema) {
///     let batch = repo.resolve(&[(0, 1)]);
///     repo.replace(edited).unwrap();
///     repo.answer(batch, &[(0, 1)]);
/// }
/// ```
#[derive(Debug, Default)]
pub struct SharedBatch<'r> {
    summaries: PairCache,
    repo: PhantomData<&'r ()>,
}

impl SharedBatch<'_> {
    /// Number of pairs executed in this batch.
    pub fn len(&self) -> usize {
        self.summaries.len()
    }

    /// True if the batch executed nothing.
    pub fn is_empty(&self) -> bool {
        self.summaries.is_empty()
    }
}

/// (source hash, target hash) → summary, as executed.
type PairCache = BTreeMap<(u64, u64), MatchSummary>;

/// A persistent schema repository: a [`MatchSession`] plus source
/// schemas, content hashes, a per-pair summary cache, and an on-disk
/// snapshot location (DESIGN.md §8).
///
/// Schemas are keyed by their schema name ([`Schema::name`]); content
/// hashes track edits, so [`Repository::replace`] with an unchanged
/// schema is free and a real edit evicts exactly that schema's cached
/// pairs. Nothing touches disk until [`Repository::save`].
#[derive(Debug)]
pub struct Repository<'a> {
    path: PathBuf,
    config: &'a CupidConfig,
    thesaurus: &'a Thesaurus,
    session: MatchSession<'a>,
    names: Vec<String>,
    sources: Vec<Schema>,
    hashes: Vec<u64>,
    /// Filled in place by [`Repository::answer`]; `&mut` methods reach
    /// it through `get_mut`. Taken after any lock around the
    /// repository, and never held across a call that takes it again.
    /// Every key names hashes in `hashes`: mutations evict the rest.
    pair_cache: RwLock<PairCache>,
    /// Set through `&self` by reads that cache pairs.
    dirty: AtomicBool,
    loaded: bool,
    recovered_stale: Option<String>,
    journal: Journal,
    /// Fold the journal into a fresh snapshot once it holds this many
    /// records (`None`: only explicit saves compact).
    compact_after: Option<u64>,
    replayed_records: u64,
    compactions: u64,
    last_fsync_error: Option<String>,
    replay_discarded: Option<String>,
    /// Set when a snapshot published but both the journal reset *and*
    /// the from-scratch recreate failed: the journal header still names
    /// the old generation, so anything appended would be discarded
    /// wholesale at the next open. While set, appends are held in
    /// memory only and [`Repository::sync_journal`] fails loudly; a
    /// later successful [`Repository::save`] clears it.
    journal_broken: bool,
    /// Held for the whole handle lifetime; released on drop.
    #[allow(dead_code)]
    lock: RepoLock,
}

impl<'a> Repository<'a> {
    /// Open the repository persisted at `path` (a snapshot file, or a
    /// directory in which [`SNAPSHOT_FILE`] is used), or start an empty
    /// one if nothing is persisted yet.
    ///
    /// A snapshot whose config/thesaurus fingerprints (or container
    /// version) do not match is *discarded* and a fresh repository is
    /// returned — the stale reason is kept in
    /// [`Repository::recovered_stale`] for diagnostics. A snapshot that
    /// is damaged (checksum mismatch, malformed bytes) is an error:
    /// silent data loss is worse than a loud one.
    ///
    /// Opening takes the snapshot's single-writer lock, an OS file
    /// lock on `<snapshot>.lock`, for the lifetime of the handle; a
    /// second open of the same path — from this process or another —
    /// fails with [`RepoError::Locked`] instead of letting two `save`s
    /// clobber each other last-rename-wins. The OS releases the lock
    /// when the handle drops or its process exits, so a crash never
    /// wedges the repository. The lock file stays on disk with the last
    /// holder's pid (0 until the holder has written it). On a
    /// filesystem without file locks the open fails with
    /// [`RepoError::Io`].
    ///
    /// After the snapshot loads, the write-ahead journal tail is
    /// replayed on top of it (DESIGN.md §10.3): a journal whose header
    /// names this snapshot generation contributes every record up to
    /// the first damage (the damaged suffix is truncated off the file);
    /// a journal from another generation — the trace of a crash between
    /// snapshot publish and journal reset — is discarded, because its
    /// records are already folded into the snapshot that was published.
    /// What recovery did is reported by [`Repository::durability`].
    pub fn open_or_create(
        path: impl AsRef<Path>,
        config: &'a CupidConfig,
        thesaurus: &'a Thesaurus,
    ) -> Result<Self, RepoError> {
        let path = resolve_path(path.as_ref());
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| RepoError::Io {
                    path: parent.to_path_buf(),
                    message: e.to_string(),
                })?;
            }
        }
        let lock = RepoLock::acquire(&path)?;
        let bytes = if path.exists() {
            Some(
                std::fs::read(&path)
                    .map_err(|e| RepoError::Io { path: path.clone(), message: e.to_string() })?,
            )
        } else {
            None
        };
        let mut state = None;
        let mut recovered_stale = None;
        let mut snapshot_id = 0;
        if let Some(b) = &bytes {
            match snapshot::decode(b, config.fingerprint(), thesaurus.fingerprint()) {
                Ok(s) => state = Some(s),
                Err(RepoError::Stale { reason }) => recovered_stale = Some(reason),
                Err(e) => return Err(e),
            }
            snapshot_id = snapshot::id(b);
        }
        let header = JournalHeader {
            version: JOURNAL_VERSION,
            config_fp: config.fingerprint(),
            thesaurus_fp: thesaurus.fingerprint(),
            snapshot_id,
        };
        let journal_file = journal::journal_path(&path);
        let (journal, mut recovery) = Journal::open(&journal_file, header)
            .map_err(|e| RepoError::Io { path: journal_file, message: e.to_string() })?;
        let mut repo = Repository {
            path,
            config,
            thesaurus,
            session: MatchSession::new(config, thesaurus),
            names: Vec::new(),
            sources: Vec::new(),
            hashes: Vec::new(),
            pair_cache: RwLock::default(),
            dirty: AtomicBool::new(false),
            loaded: state.is_some(),
            recovered_stale,
            journal,
            compact_after: None,
            replayed_records: 0,
            compactions: 0,
            last_fsync_error: None,
            replay_discarded: recovery.discarded.take(),
            journal_broken: false,
            lock,
        };
        if let Some(state) = state {
            repo.session = MatchSession::from_parts(config, thesaurus, state.table, state.prepared);
            repo.names = state.names;
            repo.sources = state.sources;
            repo.hashes = state.hashes;
            repo.pair_cache = RwLock::new(state.cache);
        }
        for record in &recovery.records {
            match repo.apply_record(record) {
                Ok(()) => repo.replayed_records += 1,
                Err(e) => {
                    // A record that passed its frame checksum but does
                    // not apply (e.g. adding a name the state already
                    // holds) means the journal does not actually extend
                    // this state; keep the valid prefix, report the
                    // rest — and cut the file back to that prefix, or
                    // every later append would sit behind a record that
                    // can never replay and be unreachable at every
                    // subsequent open.
                    let note =
                        format!("replay stopped after {} records: {e}", repo.replayed_records);
                    repo.replay_discarded = Some(match repo.replay_discarded.take() {
                        Some(prev) => format!("{prev}; {note}"),
                        None => note,
                    });
                    let keep = recovery.keep_len(repo.replayed_records as usize);
                    if let Err(te) = repo.journal.truncate_to(keep, repo.replayed_records) {
                        repo.last_fsync_error = Some(format!("journal truncate: {te}"));
                    }
                    break;
                }
            }
        }
        if repo.replayed_records > 0 {
            // Replayed mutations are durable in the journal but not yet
            // in the snapshot; a save folds them in.
            *repo.dirty.get_mut() = true;
        }
        Ok(repo)
    }

    /// Set the worker-thread count used for pair execution.
    pub fn threads(mut self, n: usize) -> Self {
        self.session.set_threads(n);
        self
    }

    /// The snapshot file this repository persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True if this handle was populated from an on-disk snapshot.
    pub fn was_loaded(&self) -> bool {
        self.loaded
    }

    /// The reason a stale snapshot was discarded at open, if one was.
    pub fn recovered_stale(&self) -> Option<&str> {
        self.recovered_stale.as_deref()
    }

    /// True if in-memory state has diverged from the snapshot file.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Relaxed)
    }

    /// Number of schemas in the repository.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the repository holds no schemas.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Schema names, in repository order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// True if a schema with this name is present.
    pub fn contains(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
    }

    /// The source schema graph stored under `name`.
    pub fn schema(&self, name: &str) -> Option<&Schema> {
        self.index_of(name).ok().map(|i| &self.sources[i])
    }

    /// Full pair executions since this handle was opened, counted when
    /// they run ([`Repository::resolve`]), not when they are cached.
    pub fn pairs_executed(&self) -> usize {
        self.session.pairs_matched()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> RepositoryStats {
        RepositoryStats {
            schemas: self.names.len(),
            cached_pairs: self.cache().len(),
            pairs_executed: self.session.pairs_matched(),
            session: self.session.stats(),
        }
    }

    /// Durability-layer counters: journal size, what recovery replayed
    /// or discarded at open, compactions, and the last persistence
    /// failure (DESIGN.md §10.6).
    pub fn durability(&self) -> DurabilityStats {
        DurabilityStats {
            journal_records: self.journal.records(),
            journal_bytes: self.journal.bytes_len(),
            replayed_records: self.replayed_records,
            compactions: self.compactions,
            last_fsync_error: self.last_fsync_error.clone(),
            replay_discarded: self.replay_discarded.clone(),
        }
    }

    /// Set the compaction threshold: once the journal holds this many
    /// records, the next mutation folds it into a fresh snapshot via
    /// [`Repository::save`]. `None` (the default) compacts only on
    /// explicit saves.
    pub fn set_compact_after(&mut self, limit: Option<u64>) {
        self.compact_after = limit;
    }

    /// Fsync the write-ahead journal: every mutation made through this
    /// handle is durable once this returns — the cheap per-mutation
    /// durability point the daemon's autosave uses in place of a full
    /// snapshot rewrite. On failure the error is also recorded in
    /// [`Repository::durability`]'s `last_fsync_error`. Fails without
    /// syncing while the journal generation is broken (a snapshot
    /// published but the journal could not be re-headed): an fsync of a
    /// file the next open will discard wholesale must not be
    /// acknowledged as durability.
    pub fn sync_journal(&mut self) -> Result<(), RepoError> {
        if self.journal_broken {
            return Err(RepoError::Io {
                path: self.journal.path().to_path_buf(),
                message: "journal generation broken (reset failed after snapshot publish); \
                          mutations are not journal-durable until a save succeeds"
                    .to_string(),
            });
        }
        self.journal.sync().map_err(|e| {
            let message = e.to_string();
            self.last_fsync_error = Some(format!("journal fsync: {message}"));
            RepoError::Io { path: self.journal.path().to_path_buf(), message }
        })
    }

    /// The repository index of the schema stored under `name` — the
    /// index [`Repository::resolve`], [`Repository::answer`] and
    /// [`Repository::execute_pairs_shared`] take.
    pub fn index_of(&self, name: &str) -> Result<usize, RepoError> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| RepoError::UnknownName(name.to_string()))
    }

    /// Apply one mutation without journaling it — the replay path of
    /// [`Repository::open_or_create`], and the shared core of the
    /// public mutators.
    fn apply_record(&mut self, record: &JournalRecord) -> Result<(), RepoError> {
        match record {
            JournalRecord::Add(s) => self.apply_add(s),
            JournalRecord::Replace(s) => self.apply_replace(s).map(|_| ()),
            JournalRecord::Remove(name) => self.apply_remove(name).map(|_| ()),
        }
    }

    /// Append a record for a mutation that just succeeded in memory,
    /// then compact if the journal crossed its threshold. Journal I/O
    /// failure does not roll the mutation back — the in-memory state is
    /// already committed and still saveable — but the degradation is
    /// recorded for [`Repository::durability`].
    fn journal_append(&mut self, record: JournalRecord) {
        self.journal_append_raw(record);
        self.maybe_compact();
    }

    /// The append half of [`Repository::journal_append`], without the
    /// compaction check. Batch mutators journal **all** their records
    /// first and run the threshold check once: a compaction firing
    /// mid-batch would fold the whole batch (already in memory) into
    /// the snapshot and then append the remaining records to the new
    /// journal generation, where they describe mutations the snapshot
    /// already holds — at replay the first of them fails to apply and
    /// everything after it is unreachable.
    fn journal_append_raw(&mut self, record: JournalRecord) {
        if self.journal_broken {
            self.last_fsync_error = Some(
                "journal generation broken (reset failed); mutation held in memory \
                 only until the next save"
                    .to_string(),
            );
            return;
        }
        if let Err(e) = self.journal.append(&record) {
            self.last_fsync_error = Some(format!("journal append: {e}"));
        }
    }

    /// Fold the journal into a fresh snapshot if it crossed the
    /// compaction threshold.
    fn maybe_compact(&mut self) {
        if let Some(limit) = self.compact_after {
            if self.journal.records() >= limit {
                if let Err(e) = self.save() {
                    self.last_fsync_error = Some(format!("compaction save: {e}"));
                }
            }
        }
    }

    fn apply_add(&mut self, schema: &Schema) -> Result<(), RepoError> {
        if self.contains(schema.name()) {
            return Err(RepoError::DuplicateName(schema.name().to_string()));
        }
        self.session.add(schema)?;
        self.names.push(schema.name().to_string());
        self.sources.push(schema.clone());
        self.hashes.push(schema.content_hash());
        *self.dirty.get_mut() = true;
        Ok(())
    }

    /// Add a schema, keyed by its schema name.
    pub fn add(&mut self, schema: &Schema) -> Result<(), RepoError> {
        self.apply_add(schema)?;
        self.journal_append(JournalRecord::Add(schema.clone()));
        Ok(())
    }

    /// Add a whole corpus. All-or-nothing like
    /// [`MatchSession::add_corpus`]: name collisions (against the
    /// repository or within the batch) and preparation errors are
    /// reported before anything is added. Journals one record per
    /// schema.
    pub fn add_corpus(&mut self, schemas: &[Schema]) -> Result<(), RepoError> {
        let mut batch: BTreeSet<&str> = BTreeSet::new();
        for s in schemas {
            if self.contains(s.name()) || !batch.insert(s.name()) {
                return Err(RepoError::DuplicateName(s.name().to_string()));
            }
        }
        self.session.add_corpus(schemas)?;
        for s in schemas {
            self.names.push(s.name().to_string());
            self.sources.push(s.clone());
            self.hashes.push(s.content_hash());
        }
        *self.dirty.get_mut() = true;
        for s in schemas {
            self.journal_append_raw(JournalRecord::Add(s.clone()));
        }
        self.maybe_compact();
        Ok(())
    }

    /// Replace, returning whether the content actually changed.
    fn apply_replace(&mut self, schema: &Schema) -> Result<bool, RepoError> {
        let i = self.index_of(schema.name())?;
        let hash = schema.content_hash();
        if hash == self.hashes[i] {
            return Ok(false);
        }
        self.session.replace(SchemaId::from_index(i), schema)?;
        self.sources[i] = schema.clone();
        let old = std::mem::replace(&mut self.hashes[i], hash);
        self.evict(old);
        *self.dirty.get_mut() = true;
        Ok(true)
    }

    /// Drop every cached pair that names `hash` once no schema holds it:
    /// O(cached pairs), under the `&mut` the mutation already holds.
    fn evict(&mut self, hash: u64) {
        if !self.hashes.contains(&hash) {
            let cache = self.pair_cache.get_mut().unwrap_or_else(PoisonError::into_inner);
            cache.retain(|&(a, b), _| a != hash && b != hash);
        }
    }

    /// Replace the stored schema with the same name. A no-op when the
    /// content hash is unchanged (the pair cache stays fully valid, and
    /// nothing is journaled); otherwise the schema is re-prepared and
    /// its cached pairs are evicted, so the next match re-executes
    /// exactly this schema's pairs. Replacing a schema with content it
    /// had earlier executes its pairs again too.
    pub fn replace(&mut self, schema: &Schema) -> Result<(), RepoError> {
        if self.apply_replace(schema)? {
            self.journal_append(JournalRecord::Replace(schema.clone()));
        }
        Ok(())
    }

    fn apply_remove(&mut self, name: &str) -> Result<Schema, RepoError> {
        let i = self.index_of(name)?;
        self.session.remove(SchemaId::from_index(i));
        self.names.remove(i);
        let old = self.hashes.remove(i);
        self.evict(old);
        *self.dirty.get_mut() = true;
        Ok(self.sources.remove(i))
    }

    /// Remove (and return) the schema stored under `name`, evicting its
    /// cached pairs.
    pub fn remove(&mut self, name: &str) -> Result<Schema, RepoError> {
        let schema = self.apply_remove(name)?;
        self.journal_append(JournalRecord::Remove(name.to_string()));
        Ok(schema)
    }

    /// Resolve, then answer in worklist order, caching what `resolve`
    /// executed.
    fn serve_pairs(&self, pairs: &[(usize, usize)]) -> Vec<MatchSummary> {
        self.answer(self.resolve(pairs), pairs)
    }

    /// The pair cache's key for repository indices `(i, j)`.
    fn key(&self, i: usize, j: usize) -> (u64, u64) {
        (self.hashes[i], self.hashes[j])
    }

    /// The pair cache, read-locked.
    fn cache(&self) -> RwLockReadGuard<'_, PairCache> {
        self.pair_cache.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Match every unordered schema pair, serving cached pairs from the
    /// persisted summary cache and executing only the rest. Summaries
    /// come back in lexicographic `(i, j)` order, `i < j`, exactly like
    /// [`MatchSession::match_all_pairs`] — and bit-identical to it.
    pub fn match_all_pairs(&self) -> Vec<MatchSummary> {
        let n = self.names.len();
        let pairs: Vec<_> = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))).collect();
        self.serve_pairs(&pairs)
    }

    /// Match one named pair (cached or executed).
    pub fn match_pair(&self, source: &str, target: &str) -> Result<MatchSummary, RepoError> {
        let i = self.index_of(source)?;
        let j = self.index_of(target)?;
        Ok(self.serve_pairs(&[(i, j)]).remove(0))
    }

    /// The read resolver (DESIGN.md §9.3): execute each pair of a
    /// worklist (by repository indices) that the cache cannot answer,
    /// once per content-hash key, through
    /// [`Repository::execute_pairs_shared`]. When every pair is cached
    /// the batch is empty and nothing executes. The batch borrows the
    /// repository until [`Repository::answer`] takes it, so no mutation
    /// can strand its keys. Panics if an index is out of bounds.
    pub fn resolve(&self, pairs: &[(usize, usize)]) -> SharedBatch<'_> {
        let uncached: Vec<(usize, usize)> = {
            let cache = self.cache();
            pairs.iter().copied().filter(|&(i, j)| !cache.contains_key(&self.key(i, j))).collect()
        };
        if uncached.is_empty() {
            return SharedBatch::default();
        }
        self.execute_pairs_shared(&uncached)
    }

    /// Serve a worklist that [`Repository::resolve`] turned into
    /// `batch`: each pair from the cache, or else from the batch, in
    /// worklist order, re-anchored to `(i, j)` and sharing the cached
    /// paths. Then cache the batch and mark the handle dirty. Panics
    /// unless `batch` came from `resolve` on these pairs. The batch's
    /// borrow keeps [`Repository::replace`] and [`Repository::remove`]
    /// out until this call, so every key it caches names live schemas.
    pub fn answer(&self, batch: SharedBatch<'_>, pairs: &[(usize, usize)]) -> Vec<MatchSummary> {
        let answers = {
            let cache = self.cache();
            let serve = |&(i, j): &(usize, usize)| {
                let key = self.key(i, j);
                let summary = cache.get(&key).or_else(|| batch.summaries.get(&key));
                anchored(summary.expect("pair resolved"), i, j)
            };
            pairs.iter().map(serve).collect()
        };
        // Answer from the batch, then move it into the cache: inserting
        // first and cloning from the cache raised `corpus_cold`'s peak
        // RSS 13.5 % through glibc arena placement (DESIGN.md §9.3).
        if !batch.is_empty() {
            self.pair_cache.write().unwrap_or_else(PoisonError::into_inner).extend(batch.summaries);
            self.dirty.store(true, Relaxed);
        }
        answers
    }

    /// Explain one named pair: per-mapping score provenance (lsim/ssim/
    /// wsim breakdown, top token pairs, structural context, threshold
    /// decisions; DESIGN.md §14). Always re-executes the pair — an
    /// explanation carries strictly more than the cached summary — but
    /// the scores are bit-identical to what the summary reports, and
    /// every explanation recomposes to its `wsim` bit-exactly. It fills
    /// the memo in place, caches no summary, and counts no execution.
    pub fn explain(&self, source: &str, target: &str) -> Result<PairExplanation, RepoError> {
        let i = self.index_of(source)?;
        let j = self.index_of(target)?;
        Ok(self.session.explain_pair(SchemaId::from_index(i), SchemaId::from_index(j)))
    }

    /// [`Repository::explain`] with an empty store beside it. Only the
    /// performance ledger's memo probe calls this, with
    /// [`Repository::absorb_store`].
    pub fn explain_shared(
        &self,
        source: &str,
        target: &str,
    ) -> Result<(PairExplanation, SimStore), RepoError> {
        Ok((self.explain(source, target)?, SimStore::new()))
    }

    /// Drop a store from [`Repository::explain_shared`]. Only the
    /// performance ledger's memo probe calls this.
    pub fn absorb_store(&self, _store: SimStore) {}

    /// Execute a worklist of pairs (by repository indices), cached or
    /// not, once per content-hash key, through `&self`
    /// ([`MatchSession::match_pairs`], which fills the session memo in
    /// place and counts the executions). The batch borrows the
    /// repository like [`Repository::resolve`]'s. Panics if an index is
    /// out of bounds.
    pub fn execute_pairs_shared(&self, pairs: &[(usize, usize)]) -> SharedBatch<'_> {
        let mut seen = BTreeSet::new();
        let (keys, worklist): (Vec<_>, Vec<_>) = pairs
            .iter()
            .map(|&(i, j)| (self.key(i, j), (SchemaId::from_index(i), SchemaId::from_index(j))))
            .filter(|&(key, _)| seen.insert(key))
            .unzip();
        let summaries = self.session.match_pairs(&worklist);
        SharedBatch { summaries: keys.into_iter().zip(summaries).collect(), repo: PhantomData }
    }

    /// Index-assisted discovery (DESIGN.md §8.4): build the
    /// [`DiscoveryIndex`], take each schema's top-`k` candidates by
    /// leaf-token overlap, and execute only that pruned worklist.
    /// Returns the executed pairs' summaries in `(i, j)` order; rank
    /// them by [`MatchSummary::best_wsim`] for a discovery listing.
    /// The recall/pruning trade-off is measured by the eval harness's
    /// `retrieval` experiment.
    pub fn top_k_pairs(&self, k: usize) -> Vec<MatchSummary> {
        self.serve_pairs(&self.discovery_index().top_k_pairs(k))
    }

    /// Build the discovery index over the current corpus. Positions
    /// match [`Repository::names`] order.
    pub fn discovery_index(&self) -> DiscoveryIndex {
        DiscoveryIndex::build(self.session.prepared())
    }

    /// The linguistic similarity table of a named pair, computed
    /// through the session memo (diagnostics and the bit-identity test
    /// suite).
    pub fn lsim_of(&self, source: &str, target: &str) -> Result<LsimTable, RepoError> {
        let i = self.index_of(source)?;
        let j = self.index_of(target)?;
        Ok(self.session.lsim_of(SchemaId::from_index(i), SchemaId::from_index(j)))
    }

    /// Persist the repository to its snapshot file and fold the journal
    /// into the new snapshot generation. The pair cache is written as
    /// it stands: [`Repository::replace`] and [`Repository::remove`]
    /// already evicted every entry keyed by a hash no schema holds.
    ///
    /// The crash-safe sequence (DESIGN.md §10.2): write the snapshot to
    /// `<snapshot>.tmp`, `fsync` it, rename it over the snapshot, `fsync`
    /// the parent directory — only then truncate the journal and write
    /// a fresh fsynced header naming the new snapshot's content id. A
    /// crash before the rename leaves the old snapshot + journal pair
    /// intact; a crash after the rename but before the journal reset
    /// leaves a journal whose header names the *old* generation, which
    /// the next open detects and discards (its records are in the
    /// snapshot that was published). At no point can a record be lost
    /// or replayed twice.
    pub fn save(&mut self) -> Result<(), RepoError> {
        let refs = snapshot::SnapshotRefs {
            names: &self.names,
            hashes: &self.hashes,
            sources: &self.sources,
            prepared: self.session.prepared(),
            table: self.session.table(),
            cache: self.pair_cache.get_mut().unwrap_or_else(PoisonError::into_inner),
        };
        let bytes =
            snapshot::encode(&refs, self.config.fingerprint(), self.thesaurus.fingerprint());
        let tmp = sibling(&self.path, ".tmp");
        let io_err = |path: &Path, e: std::io::Error| RepoError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        };
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err(parent, e))?;
            }
        }
        {
            let mut file = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
            fault::write_all(fault::FaultPoint::SnapshotWrite, &tmp, &mut file, &bytes)
                .map_err(|e| io_err(&tmp, e))?;
            // fsync before the rename: without it, the rename can
            // become durable ahead of the data it points at, and a
            // crash surfaces an empty or torn "successfully saved"
            // snapshot.
            fault::sync(fault::FaultPoint::SnapshotSync, &tmp, &file)
                .map_err(|e| io_err(&tmp, e))?;
        }
        fault::rename(&tmp, &self.path).map_err(|e| io_err(&self.path, e))?;
        fault::sync_parent_dir(&self.path).map_err(|e| io_err(&self.path, e))?;
        let had_records = self.journal.records() > 0;
        let header = JournalHeader {
            version: JOURNAL_VERSION,
            config_fp: self.config.fingerprint(),
            thesaurus_fp: self.thesaurus.fingerprint(),
            snapshot_id: snapshot::id(&bytes),
        };
        match self.journal.reset(header) {
            Ok(()) => {
                self.journal_broken = false;
                if had_records {
                    self.compactions += 1;
                }
            }
            Err(e) => {
                // The snapshot is already durable and the un-reset
                // journal names the old generation, so a reopen
                // discards it rather than double-replaying; record the
                // degradation and try once to restart the file cleanly.
                self.last_fsync_error = Some(format!("journal reset: {e}"));
                let journal_file = self.journal.path().to_path_buf();
                match Journal::create(&journal_file, header) {
                    Ok(j) => {
                        self.journal = j;
                        self.journal_broken = false;
                        if had_records {
                            self.compactions += 1;
                        }
                    }
                    Err(e2) => {
                        // Both the reset and the recreate failed: the
                        // file's header still names the old generation,
                        // so every record appended now would be
                        // discarded wholesale at the next open. Stop
                        // appending and fail sync_journal until a later
                        // save restores a valid header — acknowledging
                        // doomed appends as durable would be silent
                        // data loss.
                        self.journal_broken = true;
                        self.last_fsync_error = Some(format!("journal reset: {e}; recreate: {e2}"));
                    }
                }
            }
        }
        *self.dirty.get_mut() = false;
        Ok(())
    }

    /// Export the schema stored under `name` as an SDL document — the
    /// reproduction's native text format — for review, diffing, or
    /// re-import into another repository.
    pub fn export_sdl(&self, name: &str) -> Result<String, RepoError> {
        let i = self.index_of(name)?;
        cupid_io::sdl::write_sdl(&self.sources[i])
            .map_err(|e| RepoError::Export { name: name.to_string(), message: e.to_string() })
    }

    /// Parse an SDL document and add it, returning the schema's name.
    pub fn import_sdl(&mut self, text: &str) -> Result<String, RepoError> {
        let schema = cupid_io::parse_sdl(text).map_err(RepoError::Import)?;
        let name = schema.name().to_string();
        self.add(&schema)?;
        Ok(name)
    }
}

/// A summary re-anchored to repository indices `(i, j)` (the rest is a
/// pure function of schema content), sharing its paths: three `Vec`
/// copies and reference-count bumps, no path bytes.
fn anchored(summary: &MatchSummary, i: usize, j: usize) -> MatchSummary {
    MatchSummary {
        source: SchemaId::from_index(i),
        target: SchemaId::from_index(j),
        ..summary.clone()
    }
}

/// Resolve a user-supplied path: directories get the default snapshot
/// file name appended.
fn resolve_path(path: &Path) -> PathBuf {
    if path.is_dir() {
        path.join(SNAPSHOT_FILE)
    } else {
        path.to_path_buf()
    }
}

/// Extension trait putting `repository()` on the [`Cupid`] facade —
/// the open-or-create entry point of the persistence subsystem.
///
/// A separate trait (rather than an inherent method) because `Cupid`
/// lives in `cupid-core`, which this crate builds on top of.
pub trait CupidRepositoryExt {
    /// Open (or create) the repository persisted at `path`, bound to
    /// this matcher's configuration and thesaurus.
    fn repository<P: AsRef<Path>>(&self, path: P) -> Result<Repository<'_>, RepoError>;
}

impl CupidRepositoryExt for Cupid {
    fn repository<P: AsRef<Path>>(&self, path: P) -> Result<Repository<'_>, RepoError> {
        Repository::open_or_create(path, self.config(), self.thesaurus())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupid_model::{fnv1a, DataType, ElementKind, SchemaBuilder};
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A unique, self-cleaning snapshot location per test.
    struct TempRepo(PathBuf);

    impl TempRepo {
        fn new() -> Self {
            static SEQ: AtomicU32 = AtomicU32::new(0);
            let dir = std::env::temp_dir().join(format!(
                "cupid-repo-test-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempRepo(dir.join(SNAPSHOT_FILE))
        }
    }

    impl Drop for TempRepo {
        fn drop(&mut self) {
            if let Some(dir) = self.0.parent() {
                std::fs::remove_dir_all(dir).ok();
            }
        }
    }

    fn schema(name: &str, container: &str, fields: &[(&str, DataType)]) -> Schema {
        let mut b = SchemaBuilder::new(name);
        let c = b.structured(b.root(), container, ElementKind::XmlElement);
        for (f, dt) in fields {
            b.atomic(c, *f, ElementKind::XmlElement, *dt);
        }
        b.build().unwrap()
    }

    fn corpus() -> Vec<Schema> {
        vec![
            schema("S0", "Item", &[("Qty", DataType::Int), ("Invoice", DataType::String)]),
            schema("S1", "Item", &[("Quantity", DataType::Int), ("Bill", DataType::String)]),
            schema("S2", "Order", &[("Quantity", DataType::Int)]),
            schema("S3", "Thing", &[("Unrelated", DataType::Date)]),
        ]
    }

    #[test]
    fn save_load_serves_everything_from_cache() {
        let tmp = TempRepo::new();
        let config = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        let want;
        {
            let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
            assert!(!repo.was_loaded());
            repo.add_corpus(&corpus()).unwrap();
            want = repo.match_all_pairs();
            assert_eq!(repo.pairs_executed(), 6);
            repo.save().unwrap();
            assert!(!repo.is_dirty());
        }
        let warm = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        assert!(warm.was_loaded());
        assert_eq!(warm.names(), ["S0", "S1", "S2", "S3"]);
        let got = warm.match_all_pairs();
        assert_eq!(got, want, "loaded repository must serve bit-identical summaries");
        assert_eq!(warm.pairs_executed(), 0, "everything served from the persisted cache");
    }

    #[test]
    fn replace_reexecutes_only_that_schemas_pairs() {
        let tmp = TempRepo::new();
        let config = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        repo.add_corpus(&corpus()).unwrap();
        repo.match_all_pairs();
        assert_eq!(repo.pairs_executed(), 6);
        // Unchanged replace: free.
        repo.replace(&corpus()[1]).unwrap();
        repo.match_all_pairs();
        assert_eq!(repo.pairs_executed(), 6);
        // Real edit: exactly S1's 3 pairs re-execute.
        let edited =
            schema("S1", "Item", &[("Quantity", DataType::Int), ("Total", DataType::Money)]);
        repo.replace(&edited).unwrap();
        let summaries = repo.match_all_pairs();
        assert_eq!(repo.pairs_executed(), 9, "only the edited schema's 3 pairs run again");
        // And the result equals a cold rebuild, bit for bit.
        let tmp2 = TempRepo::new();
        let mut cold = Repository::open_or_create(&tmp2.0, &config, &th).unwrap();
        let mut fresh = corpus();
        fresh[1] = edited;
        cold.add_corpus(&fresh).unwrap();
        assert_eq!(cold.match_all_pairs(), summaries);
    }

    #[test]
    fn remove_and_reindex() {
        let tmp = TempRepo::new();
        let config = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        repo.add_corpus(&corpus()).unwrap();
        repo.match_all_pairs();
        let removed = repo.remove("S1").unwrap();
        assert_eq!(removed.name(), "S1");
        assert!(!repo.contains("S1"));
        assert_eq!(repo.len(), 3);
        let executed = repo.pairs_executed();
        let summaries = repo.match_all_pairs();
        assert_eq!(summaries.len(), 3);
        assert_eq!(repo.pairs_executed(), executed, "surviving pairs come from cache");
        assert_eq!(summaries[0].source.index(), 0);
        assert_eq!(summaries[0].target.index(), 1, "ids re-anchored after the shift");
        assert!(repo.remove("S1").is_err());
    }

    #[test]
    fn stale_config_discards_snapshot() {
        let tmp = TempRepo::new();
        let th = Thesaurus::with_default_stopwords();
        let config = CupidConfig::default();
        {
            let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
            repo.add_corpus(&corpus()).unwrap();
            repo.match_all_pairs();
            repo.save().unwrap();
        }
        let mut other = CupidConfig::default();
        other.th_accept = 0.45;
        let repo = Repository::open_or_create(&tmp.0, &other, &th).unwrap();
        assert!(!repo.was_loaded());
        assert!(repo.recovered_stale().unwrap().contains("config fingerprint"));
        assert!(repo.is_empty());
        drop(repo); // release the single-writer lock before reopening
                    // Different thesaurus: also stale.
        let th2 = Thesaurus::empty();
        let repo = Repository::open_or_create(&tmp.0, &config, &th2).unwrap();
        assert!(repo.recovered_stale().unwrap().contains("thesaurus fingerprint"));
    }

    /// The id a journal names its snapshot by is `fnv1a` of the file,
    /// computed from the checksum `encode` wrote or `decode` verified: at
    /// a save, at a reopen, and at an open that finds the snapshot stale.
    #[test]
    fn snapshot_id_is_fnv1a_of_the_file() {
        let tmp = TempRepo::new();
        let th = Thesaurus::with_default_stopwords();
        let config = CupidConfig::default();
        let journal = |what: &str| {
            let bytes = std::fs::read(journal::journal_path(&tmp.0)).unwrap();
            let header = journal::scan(&bytes).header.unwrap();
            let file = std::fs::read(&tmp.0).unwrap();
            assert_eq!(snapshot::id(&file), fnv1a(&file), "{what}");
            assert_eq!(header.snapshot_id, fnv1a(&file), "{what}");
            header
        };
        {
            let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
            repo.add_corpus(&corpus()).unwrap();
            repo.match_all_pairs();
            repo.save().unwrap();
            journal("saved");
            repo.remove("S1").unwrap();
            repo.sync_journal().unwrap();
        }
        {
            // An id other than the saved one would discard the record as
            // another generation's.
            let repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
            assert!(repo.was_loaded());
            assert_eq!(repo.durability().replayed_records, 1);
            assert_eq!(repo.durability().replay_discarded, None);
        }
        let mut other = CupidConfig::default();
        other.th_accept = 0.45;
        let mut repo = Repository::open_or_create(&tmp.0, &other, &th).unwrap();
        assert!(repo.recovered_stale().is_some());
        // The first append writes this open's header.
        repo.add(&corpus()[0]).unwrap();
        repo.sync_journal().unwrap();
        assert_eq!(journal("stale").config_fp, other.fingerprint());
    }

    #[test]
    fn corrupt_snapshot_is_a_loud_error() {
        let tmp = TempRepo::new();
        let th = Thesaurus::with_default_stopwords();
        let config = CupidConfig::default();
        {
            let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
            repo.add(&corpus()[0]).unwrap();
            repo.save().unwrap();
        }
        let mut bytes = std::fs::read(&tmp.0).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&tmp.0, &bytes).unwrap();
        match Repository::open_or_create(&tmp.0, &config, &th) {
            Err(RepoError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_and_unknown_names() {
        let tmp = TempRepo::new();
        let th = Thesaurus::with_default_stopwords();
        let config = CupidConfig::default();
        let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        repo.add(&corpus()[0]).unwrap();
        assert!(matches!(repo.add(&corpus()[0]), Err(RepoError::DuplicateName(_))));
        assert!(matches!(repo.match_pair("S0", "Nope"), Err(RepoError::UnknownName(_))));
        assert!(repo.schema("S0").is_some());
        assert!(repo.schema("Nope").is_none());
        // batch-internal duplicate
        let batch = vec![corpus()[1].clone(), corpus()[1].clone()];
        assert!(matches!(repo.add_corpus(&batch), Err(RepoError::DuplicateName(_))));
        assert_eq!(repo.len(), 1, "failed batch adds nothing");
    }

    #[test]
    fn facade_extension_opens_repositories() {
        let tmp = TempRepo::new();
        let cupid = Cupid::new(Thesaurus::with_default_stopwords());
        let mut repo = cupid.repository(&tmp.0).unwrap();
        repo.add(&corpus()[0]).unwrap();
        repo.add(&corpus()[1]).unwrap();
        let s = repo.match_pair("S0", "S1").unwrap();
        assert!(s.has_leaf_mapping("S0.Item.Qty", "S1.Item.Quantity") || s.total_pairs > 0);
        repo.save().unwrap();
        assert!(tmp.0.exists());
    }

    #[test]
    fn concurrent_open_is_refused_until_drop() {
        let tmp = TempRepo::new();
        let config = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        let repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        match Repository::open_or_create(&tmp.0, &config, &th) {
            Err(RepoError::Locked { pid, .. }) => assert_eq!(pid, std::process::id()),
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(repo);
        // Lock released with the handle: the reopen succeeds.
        let again = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        assert!(!again.was_loaded());
    }

    #[test]
    fn resolve_and_answer_agree_with_exclusive_path() {
        let tmp = TempRepo::new();
        let config = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        repo.add_corpus(&corpus()).unwrap();
        repo.save().unwrap();
        let pair = (repo.index_of("S0").unwrap(), repo.index_of("S1").unwrap());
        // A worklist naming the pair twice executes it once, and the
        // execution counts when it runs...
        let batch = repo.resolve(&[pair, pair]);
        assert_eq!(batch.len(), 1, "one execution per content-hash key");
        assert_eq!(repo.pairs_executed(), 1, "an execution counts when it runs");
        // ...answering serves both entries and caches the batch...
        let served = repo.answer(batch, &[pair, pair]);
        assert_eq!(served[0], served[1]);
        assert_eq!(repo.stats().cached_pairs, 1, "answer caches the batch");
        assert!(repo.is_dirty(), "caching a pair dirties the handle");
        // ...after which the cache answers: resolving a cached pair
        // executes nothing and returns an empty batch...
        let cached = repo.resolve(&[pair]);
        assert!(cached.is_empty(), "a cached pair resolves to an empty batch");
        assert_eq!(repo.answer(cached, &[pair]), [served[0].clone()]);
        // ...and match_pair serves the identical summary.
        assert_eq!(repo.match_pair("S0", "S1").unwrap(), served[0]);
        assert_eq!(repo.pairs_executed(), 1);
        // A replace evicts exactly the pairs it strands. (A batch cannot
        // be kept across it: `SharedBatch`'s `compile_fail` doctest.)
        let (s2, s3) = (repo.index_of("S2").unwrap(), repo.index_of("S3").unwrap());
        assert!(repo.answer(repo.resolve(&[(s2, s3), (1, s2)]), &[]).is_empty());
        assert_eq!(repo.stats().cached_pairs, 3);
        repo.replace(&schema("S2", "Order", &[("Qty", DataType::Int)])).unwrap();
        assert_eq!(repo.stats().cached_pairs, 1, "S2's two cached pairs are evicted");
        assert_eq!(
            repo.resolve(&[(s2, s3)]).len(),
            1,
            "stale execution must not serve for the replaced schema"
        );
    }

    #[test]
    fn top_k_executes_fewer_pairs_than_all_pairs() {
        let tmp = TempRepo::new();
        let th = Thesaurus::with_default_stopwords();
        let config = CupidConfig::default();
        let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        // Two clear domains with zero cross-domain token overlap.
        repo.add_corpus(&[
            schema("C1", "Customer", &[("CustomerName", DataType::String)]),
            schema("C2", "Customer", &[("CustomerName", DataType::String)]),
            schema("O1", "Order", &[("OrderDate", DataType::Date)]),
            schema("O2", "Order", &[("OrderDate", DataType::Date)]),
        ])
        .unwrap();
        let pruned = repo.top_k_pairs(1);
        assert!(repo.pairs_executed() < 6, "pruned discovery beats the 6-pair full worklist");
        let best: Vec<(usize, usize)> = pruned
            .iter()
            .filter(|s| s.best_wsim() > 0.5)
            .map(|s| (s.source.index(), s.target.index()))
            .collect();
        assert!(best.contains(&(0, 1)), "C1~C2 retrieved");
        assert!(best.contains(&(2, 3)), "O1~O2 retrieved");
    }

    #[test]
    fn journal_replays_unsaved_mutations_bit_identically() {
        let tmp = TempRepo::new();
        let config = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        let edited =
            schema("S1", "Item", &[("Quantity", DataType::Int), ("Total", DataType::Money)]);
        let extra = schema("S4", "Extra", &[("Qty", DataType::Int)]);
        {
            let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
            repo.add_corpus(&corpus()).unwrap();
            repo.save().unwrap();
            // Mutations after the save are durable through the journal
            // alone — no second save.
            repo.add(&extra).unwrap();
            repo.replace(&edited).unwrap();
            repo.remove("S3").unwrap();
            repo.sync_journal().unwrap();
            let d = repo.durability();
            assert_eq!(d.journal_records, 3);
            assert!(d.journal_bytes > 0);
            assert!(d.last_fsync_error.is_none());
        }
        let warm = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        assert!(warm.was_loaded());
        assert_eq!(warm.names(), ["S0", "S1", "S2", "S4"]);
        let d = warm.durability();
        assert_eq!(d.replayed_records, 3);
        assert!(d.replay_discarded.is_none(), "clean replay: {:?}", d.replay_discarded);
        assert!(warm.is_dirty(), "replayed records await folding into the snapshot");
        // The replayed repository matches bit-identically to a cold
        // rebuild of the same corpus in the same order.
        let got = warm.match_all_pairs();
        let tmp2 = TempRepo::new();
        let mut cold = Repository::open_or_create(&tmp2.0, &config, &th).unwrap();
        let c = corpus();
        cold.add_corpus(&[c[0].clone(), edited, c[2].clone(), extra]).unwrap();
        assert_eq!(cold.match_all_pairs(), got);
    }

    #[test]
    fn save_folds_journal_and_counts_compactions() {
        let tmp = TempRepo::new();
        let config = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        repo.add(&corpus()[0]).unwrap();
        assert_eq!(repo.durability().journal_records, 1);
        repo.save().unwrap();
        let d = repo.durability();
        assert_eq!(d.journal_records, 0, "save folds the journal into the snapshot");
        assert_eq!(d.compactions, 1);
        // An empty-journal save is not a compaction.
        repo.save().unwrap();
        assert_eq!(repo.durability().compactions, 1);
        assert!(journal::journal_path(&tmp.0).exists());
    }

    #[test]
    fn threshold_compaction_triggers_mid_mutation_stream() {
        let tmp = TempRepo::new();
        let config = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        repo.set_compact_after(Some(3));
        for s in &corpus() {
            repo.add(s).unwrap();
        }
        let d = repo.durability();
        assert_eq!(d.compactions, 1, "the third record crossed the threshold");
        assert_eq!(d.journal_records, 1, "the fourth add landed in the fresh journal");
        assert!(tmp.0.exists(), "compaction produced a snapshot");
        drop(repo);
        let warm = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        assert_eq!(warm.len(), 4);
        assert_eq!(warm.durability().replayed_records, 1);
    }

    #[test]
    fn journal_from_previous_generation_is_discarded_not_replayed_twice() {
        let tmp = TempRepo::new();
        let config = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        let journal_file = journal::journal_path(&tmp.0);
        {
            let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
            repo.add(&corpus()[0]).unwrap();
            repo.sync_journal().unwrap();
            // Crash between snapshot publish and journal reset,
            // simulated by restoring the pre-save journal afterwards.
            let pre_save = std::fs::read(&journal_file).unwrap();
            repo.save().unwrap();
            std::fs::write(&journal_file, &pre_save).unwrap();
        }
        let warm = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        assert_eq!(warm.len(), 1, "the record is in the snapshot exactly once");
        let d = warm.durability();
        assert_eq!(d.replayed_records, 0);
        assert!(
            d.replay_discarded.unwrap().contains("extends snapshot"),
            "the stale journal is discarded with its reason surfaced"
        );
    }

    #[test]
    fn injected_snapshot_faults_never_lose_synced_mutations() {
        let config = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        // Each scenario arms one fault on the save path; a synced
        // journal record must survive every one of them. A snapshot
        // named `*.tmp` must not be its own temp file.
        let scenarios = [
            (fault::FaultPoint::SnapshotWrite, fault::FaultAction::Error),
            (fault::FaultPoint::SnapshotWrite, fault::FaultAction::ShortWrite(5)),
            (fault::FaultPoint::SnapshotSync, fault::FaultAction::Error),
            (fault::FaultPoint::SnapshotRename, fault::FaultAction::Error),
        ];
        for (file, (point, action)) in
            [SNAPSHOT_FILE, "snap.tmp"].into_iter().flat_map(|f| scenarios.map(|s| (f, s)))
        {
            let tmp = TempRepo::new();
            let path = tmp.0.with_file_name(file);
            let marker = tmp.0.parent().unwrap().file_name().unwrap().to_str().unwrap();
            {
                let mut repo = Repository::open_or_create(&path, &config, &th).unwrap();
                repo.add(&corpus()[0]).unwrap();
                repo.save().unwrap();
                repo.add(&corpus()[1]).unwrap();
                repo.sync_journal().unwrap();
                fault::arm(fault::Fault {
                    point,
                    path_contains: marker.to_string(),
                    skip: 0,
                    action,
                });
                let err = repo.save();
                assert!(err.is_err(), "{point:?}/{action:?} must fail the save");
                assert!(repo.is_dirty(), "a failed save leaves the handle dirty");
            }
            fault::disarm(marker);
            let warm = Repository::open_or_create(&path, &config, &th).unwrap();
            assert_eq!(
                warm.names(),
                ["S0", "S1"],
                "{file} {point:?}/{action:?}: snapshot + journal replay must recover both schemas"
            );
            assert_eq!(warm.durability().replayed_records, 1);
        }
        // Sibling snapshots save through temp files of their own.
        let dir = Path::new("dir");
        assert_eq!(sibling(&dir.join("a.repo"), ".tmp"), dir.join("a.repo.tmp"));
        assert_eq!(sibling(&dir.join("a.snap"), ".tmp"), dir.join("a.snap.tmp"));
    }

    #[test]
    fn failed_dir_sync_after_rename_still_recovers_completely() {
        // DirSync fails *after* the rename: save reports an error, but
        // the published snapshot already contains every record, and the
        // old-generation journal is discarded — nothing lost and
        // nothing doubled.
        let config = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        let tmp = TempRepo::new();
        let marker = tmp.0.parent().unwrap().file_name().unwrap().to_str().unwrap();
        {
            let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
            repo.add(&corpus()[0]).unwrap();
            repo.add(&corpus()[1]).unwrap();
            repo.sync_journal().unwrap();
            fault::arm(fault::Fault {
                point: fault::FaultPoint::DirSync,
                path_contains: marker.to_string(),
                skip: 0,
                action: fault::FaultAction::Error,
            });
            assert!(repo.save().is_err());
        }
        fault::disarm(marker);
        let warm = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        assert_eq!(warm.names(), ["S0", "S1"]);
        assert_eq!(warm.durability().replayed_records, 0, "records came from the snapshot");
    }

    #[test]
    fn journal_append_failure_degrades_loudly_without_losing_memory_state() {
        let config = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        let tmp = TempRepo::new();
        let marker = tmp.0.parent().unwrap().file_name().unwrap().to_str().unwrap();
        let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        fault::arm(fault::Fault {
            point: fault::FaultPoint::JournalAppend,
            path_contains: marker.to_string(),
            skip: 0,
            action: fault::FaultAction::Error,
        });
        repo.add(&corpus()[0]).unwrap();
        assert!(repo.contains("S0"), "the in-memory mutation still commits");
        let d = repo.durability();
        assert!(d.last_fsync_error.unwrap().contains("journal append"));
        // A save re-establishes full durability.
        repo.save().unwrap();
        drop(repo);
        fault::disarm(marker);
        let warm = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        assert_eq!(warm.names(), ["S0"]);
    }

    #[test]
    fn torn_journal_append_is_truncated_at_reopen() {
        let config = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        let tmp = TempRepo::new();
        let marker = tmp.0.parent().unwrap().file_name().unwrap().to_str().unwrap();
        {
            let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
            repo.add(&corpus()[0]).unwrap();
            // The second record tears mid-frame — the classic crash
            // between write and fsync.
            fault::arm(fault::Fault {
                point: fault::FaultPoint::JournalAppend,
                path_contains: marker.to_string(),
                skip: 0,
                action: fault::FaultAction::TornWrite(7),
            });
            repo.add(&corpus()[1]).unwrap();
            assert!(repo.durability().last_fsync_error.is_none(), "a torn write reports success");
        }
        fault::disarm(marker);
        let warm = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        assert_eq!(warm.names(), ["S0"], "replay stops at the last whole record");
        let d = warm.durability();
        assert_eq!(d.replayed_records, 1);
        assert!(d.replay_discarded.unwrap().contains("truncated after 1 records"));
    }

    #[test]
    fn add_corpus_with_threshold_compaction_survives_reopen() {
        // A compaction threshold small enough to fire mid-batch: the
        // batch must journal all its records before the threshold check
        // runs, or the records after the compaction point would
        // describe mutations already folded into the snapshot and turn
        // every later reopen into silent data loss.
        let tmp = TempRepo::new();
        let config = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        let extra = schema("S4", "Extra", &[("Qty", DataType::Int)]);
        {
            let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
            repo.set_compact_after(Some(2));
            repo.add_corpus(&corpus()).unwrap();
            let d = repo.durability();
            assert_eq!(d.compactions, 1, "the batch compacts once, after all appends");
            assert_eq!(d.journal_records, 0, "every batch record folded into the snapshot");
            // Mutations after the batch land in the fresh journal and
            // must stay replayable.
            repo.add(&extra).unwrap();
            repo.sync_journal().unwrap();
        }
        let warm = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        assert_eq!(warm.names(), ["S0", "S1", "S2", "S3", "S4"]);
        let d = warm.durability();
        assert!(d.replay_discarded.is_none(), "clean replay: {:?}", d.replay_discarded);
        assert_eq!(d.replayed_records, 1);
    }

    #[test]
    fn wrong_config_open_preserves_journal_tail() {
        let tmp = TempRepo::new();
        let config = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        {
            let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
            repo.add(&corpus()[0]).unwrap();
            repo.save().unwrap();
            repo.add(&corpus()[1]).unwrap();
            repo.sync_journal().unwrap();
        }
        // An accidental open with a different matcher configuration
        // reports the snapshot stale and replays nothing — and, as long
        // as it never mutates, destroys nothing either.
        let mut other = CupidConfig::default();
        other.th_accept = 0.45;
        {
            let repo = Repository::open_or_create(&tmp.0, &other, &th).unwrap();
            assert!(repo.recovered_stale().is_some());
            assert!(repo.is_empty());
            assert!(repo.durability().replay_discarded.unwrap().contains("fingerprints differ"));
        }
        // The rightful configuration recovers the fsynced tail intact.
        let warm = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        assert_eq!(warm.names(), ["S0", "S1"]);
        assert_eq!(warm.durability().replayed_records, 1);
    }

    #[test]
    fn non_applying_replay_suffix_is_cut_so_later_appends_replay() {
        let tmp = TempRepo::new();
        let config = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        {
            let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
            repo.add(&corpus()[0]).unwrap();
            repo.save().unwrap();
        }
        // Forge a journal whose first record cannot apply (S0 is
        // already in the snapshot) followed by one that could have: the
        // double-journal shape a buggy writer or a partial restore
        // leaves behind.
        let journal_file = journal::journal_path(&tmp.0);
        let header = JournalHeader {
            version: JOURNAL_VERSION,
            config_fp: config.fingerprint(),
            thesaurus_fp: th.fingerprint(),
            snapshot_id: fnv1a(&std::fs::read(&tmp.0).unwrap()),
        };
        {
            let (mut j, _) = Journal::open(&journal_file, header).unwrap();
            j.append(&JournalRecord::Add(corpus()[0].clone())).unwrap();
            j.append(&JournalRecord::Add(corpus()[1].clone())).unwrap();
            j.sync().unwrap();
        }
        let extra = schema("S4", "Extra", &[("Qty", DataType::Int)]);
        {
            let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
            assert_eq!(repo.names(), ["S0"], "replay stops at the non-applying record");
            let d = repo.durability();
            assert!(d.replay_discarded.unwrap().contains("replay stopped after 0 records"));
            assert_eq!(d.journal_records, 0, "the dead suffix is cut from the file");
            // Appends after the cut form a replayable sequence instead
            // of sitting forever behind the non-applying record.
            repo.add(&extra).unwrap();
            repo.sync_journal().unwrap();
        }
        let warm = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        assert_eq!(warm.names(), ["S0", "S4"]);
        let d = warm.durability();
        assert_eq!(d.replayed_records, 1);
        assert!(d.replay_discarded.is_none(), "clean replay: {:?}", d.replay_discarded);
    }

    #[test]
    fn broken_journal_generation_fails_sync_until_save_heals_it() {
        let config = CupidConfig::default();
        let th = Thesaurus::with_default_stopwords();
        let tmp = TempRepo::new();
        let marker = tmp.0.parent().unwrap().file_name().unwrap().to_str().unwrap();
        let mut repo = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        repo.add(&corpus()[0]).unwrap();
        // Fail both the in-place reset and the from-scratch recreate
        // that save() attempts after publishing the snapshot.
        for _ in 0..2 {
            fault::arm(fault::Fault {
                point: fault::FaultPoint::JournalReset,
                path_contains: marker.to_string(),
                skip: 0,
                action: fault::FaultAction::Error,
            });
        }
        repo.save().unwrap();
        assert!(repo.durability().last_fsync_error.unwrap().contains("recreate"));
        // The journal header still names the old generation: a sync
        // acknowledgment now would be a durability lie, because the
        // next open discards the whole file as a generation mismatch.
        repo.add(&corpus()[1]).unwrap();
        assert!(repo.sync_journal().is_err(), "broken generation must fail sync loudly");
        assert!(repo.durability().last_fsync_error.unwrap().contains("journal generation broken"));
        // A later successful save restores a valid header and full
        // journal durability.
        repo.save().unwrap();
        repo.add(&corpus()[2]).unwrap();
        repo.sync_journal().unwrap();
        drop(repo);
        fault::disarm(marker);
        let warm = Repository::open_or_create(&tmp.0, &config, &th).unwrap();
        assert_eq!(warm.names(), ["S0", "S1", "S2"]);
        assert_eq!(warm.durability().replayed_records, 1, "S2 replays from the healed journal");
    }
}
