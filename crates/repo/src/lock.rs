//! The single-writer lock (DESIGN.md §9.4).
//!
//! Two processes holding handles to the same snapshot path used to race
//! at [`crate::Repository::save`]: both write-temp-then-rename, last
//! rename wins, and one process's matches silently vanish from disk.
//! The fix is an OS file lock ([`File::try_lock`]) on a file next to
//! the snapshot (`<snapshot>.lock`), held for the whole lifetime of a
//! [`crate::Repository`] handle.
//!
//! The OS releases the lock when the handle drops or its process exits,
//! however it exits, so a crash leaves no held lock behind. The lock
//! belongs to the open file, not to the process, so a second handle in
//! the same process is refused as well. The holder writes its pid into
//! the file only so that a refused opener can name it: the file stays
//! on disk between holders with the last holder's pid, and pid 0 means
//! the holder has not written it yet. On a filesystem without file
//! locks, acquiring fails with [`RepoError::Io`].
//!
//! The lock is advisory — nothing stops a process from ignoring it and
//! opening the snapshot directly — but every path through this crate
//! goes through [`RepoLock::acquire`], which is what "single-writer
//! protocol" means here.

use std::fs::{File, OpenOptions, TryLockError};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use crate::{sibling, RepoError};

/// A held lock on the sibling `<snapshot>.lock` file, released when
/// it drops. Owned by [`crate::Repository`]; exposed so a daemon can
/// report the lock path it is holding.
#[derive(Debug)]
pub struct RepoLock {
    path: PathBuf,
    /// The locked file; closing it releases the lock.
    _file: File,
}

impl RepoLock {
    /// The lock file guarding a snapshot path.
    pub fn lock_path(snapshot: &Path) -> PathBuf {
        sibling(snapshot, ".lock")
    }

    /// Acquire the single-writer lock for `snapshot` and record this
    /// process's pid in the lock file. Fails with [`RepoError::Locked`],
    /// naming the pid the holder recorded, if another handle (in this
    /// process or another) already holds it.
    pub fn acquire(snapshot: &Path) -> Result<RepoLock, RepoError> {
        let path = Self::lock_path(snapshot);
        let io_err =
            |e: std::io::Error| RepoError::Io { path: path.clone(), message: e.to_string() };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(io_err)?;
        match file.try_lock() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => {
                let mut text = String::new();
                file.read_to_string(&mut text).ok();
                return Err(RepoError::Locked { path, pid: text.trim().parse().unwrap_or(0) });
            }
            Err(TryLockError::Error(e)) => return Err(io_err(e)),
        }
        file.set_len(0).map_err(io_err)?;
        file.write_all(std::process::id().to_string().as_bytes()).map_err(io_err)?;
        Ok(RepoLock { path, _file: file })
    }

    /// The held lock file.
    pub fn path(&self) -> &Path {
        &self.path
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
    fn unheld_locks_are_acquired_whatever_pid_they_name() {
        let snap = temp_snapshot("stale");
        let lock_path = RepoLock::lock_path(&snap);
        let own = std::process::id().to_string();
        // Whatever an unheld lock file names — this process (a restart
        // that got its dead predecessor's pid back), a live process that
        // holds nothing, a pid that cannot run, or garbage — it is free.
        for content in [own.as_str(), "1", "4000000000", "not a pid"] {
            std::fs::write(&lock_path, content).unwrap();
            let lock = RepoLock::acquire(&snap)
                .unwrap_or_else(|e| panic!("unheld lock naming {content:?}: {e}"));
            assert_eq!(std::fs::read_to_string(&lock_path).unwrap(), own, "after {content:?}");
            drop(lock);
        }
        std::fs::remove_dir_all(snap.parent().unwrap()).ok();
    }
}
