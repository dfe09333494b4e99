//! The single-writer advisory lock (DESIGN.md §9.4).
//!
//! Two processes holding handles to the same snapshot path used to race
//! at [`crate::Repository::save`]: both write-temp-then-rename, last
//! rename wins, and one process's matches silently vanish from disk.
//! The fix is a lock *file* next to the snapshot (`<snapshot>.lock`)
//! acquired for the whole lifetime of a [`crate::Repository`] handle:
//! the holder's pid is written to a private temp file and published by
//! an atomic `hard_link` (create-if-absent on every platform the
//! workspace targets), so the lock exists with its pid inside from the
//! first observable instant, and the file is removed when the handle
//! drops.
//!
//! The lock is advisory — nothing stops a process from ignoring it and
//! opening the file directly — but every path through this crate goes
//! through [`RepoLock::acquire`], which is what "single-writer
//! protocol" means here. A lock left behind by a crashed process (its
//! pid no longer runs) is reclaimed automatically rather than wedging
//! the repository forever.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::{sibling, RepoError};

/// A held advisory lock: the sibling `<snapshot>.lock` file, removed on
/// drop. Owned by [`crate::Repository`]; exposed so a daemon can report
/// the lock path it is holding.
#[derive(Debug)]
pub struct RepoLock {
    path: PathBuf,
}

impl RepoLock {
    /// The lock file guarding a snapshot path.
    pub fn lock_path(snapshot: &Path) -> PathBuf {
        sibling(snapshot, ".lock")
    }

    /// Acquire the single-writer lock for `snapshot`, writing this
    /// process's pid into the lock file. Fails with
    /// [`RepoError::Locked`] — naming the holder's pid — if another
    /// live process (or another handle in this one) already holds it; a
    /// lock whose recorded pid is no longer running is reclaimed.
    ///
    /// Two properties keep concurrent acquires sound:
    ///
    /// 1. **Locks are born with their pid inside.** The pid is written
    ///    to a private temp file first and published with an atomic
    ///    `hard_link` (create-if-absent), so no contender can ever
    ///    observe an empty lock file and misread a live acquire as a
    ///    crash artifact.
    /// 2. **Reclaims are serialized.** Removing a dead lock happens
    ///    only while holding a sibling reclaim mutex (acquired the
    ///    same atomic way), and the lock is re-read *under* that mutex
    ///    before removal — so a reclaim can never delete a fresh live
    ///    lock that another contender installed in between.
    pub fn acquire(snapshot: &Path) -> Result<RepoLock, RepoError> {
        let path = Self::lock_path(snapshot);
        let io_err =
            |e: std::io::Error| RepoError::Io { path: path.clone(), message: e.to_string() };
        loop {
            if try_create_with_pid(&path).map_err(io_err)? {
                return Ok(RepoLock { path });
            }
            match read_pid(&path) {
                // Raced with the holder's drop between create and read:
                // just try again.
                None => continue,
                Some(holder) => {
                    if holder.pid == std::process::id() || pid_alive(holder.pid) {
                        return Err(RepoError::Locked { path, pid: holder.pid });
                    }
                    // Dead holder: reclaim under the reclaim mutex,
                    // then retry the create. Losing a reclaim race just
                    // means another contender is doing the same work.
                    reclaim_dead_lock(&path, holder.pid).map_err(io_err)?;
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        }
    }

    /// The held lock file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RepoLock {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// A pid read from a lock file. Garbled content (manual tampering, or
/// an artifact of a pre-atomic-create era) maps to pid 0, which is
/// never alive — i.e. a dead holder.
struct Holder {
    pid: u32,
}

/// Read the holder recorded in a lock file. `None` if the file is gone
/// (or unreadable); garbled content maps to pid 0, which is never
/// alive.
fn read_pid(path: &Path) -> Option<Holder> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(Holder { pid: text.trim().parse::<u32>().unwrap_or(0) })
}

/// Atomically create `path` with this process's pid as content: write a
/// private temp file, publish it with `hard_link` (fails if `path`
/// exists), remove the temp. Returns whether we created it. The temp
/// name carries a process-wide sequence number on top of the pid —
/// threads of one process acquiring concurrently must not share (and
/// delete) each other's temp file.
fn try_create_with_pid(path: &Path) -> std::io::Result<bool> {
    static TEMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = TEMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let temp = sibling(path, &format!(".tmp.{}.{seq}", std::process::id()));
    {
        let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&temp)?;
        f.write_all(std::process::id().to_string().as_bytes())?;
        f.sync_all().ok();
    }
    let linked = match std::fs::hard_link(&temp, path) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    };
    std::fs::remove_file(&temp).ok();
    linked
}

/// Remove a lock file whose recorded holder `dead_pid` is no longer
/// running. Serialized through a sibling reclaim mutex so that no
/// contender can remove a *fresh, live* lock installed between our
/// staleness check and our removal: the lock is re-read while the
/// mutex is held, and new locks only ever appear while the path is
/// absent. Returns without reclaiming if another contender holds the
/// mutex (they are doing the same job); a reclaim mutex whose own
/// holder died is discarded the same way.
fn reclaim_dead_lock(path: &Path, dead_pid: u32) -> std::io::Result<()> {
    let mutex = sibling(path, ".reclaim");
    if !try_create_with_pid(&mutex)? {
        match read_pid(&mutex) {
            Some(h) if h.pid != std::process::id() && !pid_alive(h.pid) => {
                // The previous reclaimer died inside this (tiny)
                // critical section; clear its mutex and let the caller
                // retry the whole acquire loop.
                std::fs::remove_file(&mutex).ok();
            }
            _ => {}
        }
        return Ok(());
    }
    // Critical section: only we may remove the lock file. Re-verify it
    // still names the dead holder — a fresh live lock may have been
    // created since the caller's check.
    if let Some(h) = read_pid(path) {
        if h.pid == dead_pid && !pid_alive(h.pid) {
            std::fs::remove_file(path).ok();
        }
    }
    std::fs::remove_file(&mutex).ok();
    Ok(())
}

/// Best-effort liveness check for a recorded pid. On Linux, a pid runs
/// iff `/proc/<pid>` exists; elsewhere we cannot tell without platform
/// calls, so a recorded pid is conservatively treated as alive (the
/// lock must then be removed by hand after a crash). Pid 0 (garbled
/// lock content) is never alive.
fn pid_alive(pid: u32) -> bool {
    if pid == 0 {
        return false;
    }
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_snapshot(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cupid-lock-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("cupid.repo")
    }

    #[test]
    fn second_acquire_names_the_holder() {
        let snap = temp_snapshot("second");
        let lock = RepoLock::acquire(&snap).unwrap();
        match RepoLock::acquire(&snap) {
            Err(RepoError::Locked { pid, path }) => {
                assert_eq!(pid, std::process::id());
                assert_eq!(path, lock.path());
            }
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(lock);
        // Released on drop: a fresh acquire succeeds.
        let again = RepoLock::acquire(&snap).unwrap();
        drop(again);
        std::fs::remove_dir_all(snap.parent().unwrap()).ok();
    }

    #[test]
    fn stale_and_garbled_locks_are_reclaimed() {
        let snap = temp_snapshot("stale");
        let lock_path = RepoLock::lock_path(&snap);
        // A pid that cannot be running (pid_max is < 2^22 by default on
        // Linux, and 4_000_000_000 exceeds any configurable maximum).
        std::fs::write(&lock_path, "4000000000").unwrap();
        if cfg!(target_os = "linux") {
            let lock = RepoLock::acquire(&snap).expect("stale lock reclaimed");
            drop(lock);
        }
        // A garbled lock file (crash mid-write) is reclaimed everywhere.
        std::fs::write(&lock_path, "not a pid").unwrap();
        let lock = RepoLock::acquire(&snap).expect("garbled lock reclaimed");
        drop(lock);
        assert!(!lock_path.exists(), "drop removes the lock file");
        std::fs::remove_dir_all(snap.parent().unwrap()).ok();
    }
}
