//! The file-system interface workloads are written against, so the same
//! benchmark drives both Kosha and the unmodified-NFS baseline.

use kosha::KoshaMount;
use kosha_nfs::NfsResult;
use kosha_rpc::Bytes;
use kosha_vfs::{Attr, FileType};

/// Minimal file-system surface the Modified Andrew Benchmark needs.
pub trait Workbench {
    /// Create a directory chain.
    fn mkdir_p(&self, path: &str) -> NfsResult<()>;
    /// Write a whole file (creating it).
    fn write_file(&self, path: &str, data: &[u8]) -> NfsResult<()>;
    /// Read a whole file.
    fn read_file(&self, path: &str) -> NfsResult<Bytes>;
    /// Stat a path.
    fn stat(&self, path: &str) -> NfsResult<Attr>;
    /// List a directory: names and types.
    fn readdir(&self, path: &str) -> NfsResult<Vec<(String, FileType)>>;
    /// Remove a file or symlink.
    fn remove(&self, path: &str) -> NfsResult<()>;
    /// Remove an empty directory.
    fn rmdir(&self, path: &str) -> NfsResult<()>;
    /// Rename within the tree.
    fn rename(&self, from: &str, to: &str) -> NfsResult<()>;
}

impl Workbench for KoshaMount {
    fn mkdir_p(&self, path: &str) -> NfsResult<()> {
        KoshaMount::mkdir_p(self, path).map(|_| ())
    }

    fn write_file(&self, path: &str, data: &[u8]) -> NfsResult<()> {
        KoshaMount::write_file(self, path, data).map(|_| ())
    }

    fn read_file(&self, path: &str) -> NfsResult<Bytes> {
        KoshaMount::read_file(self, path)
    }

    fn stat(&self, path: &str) -> NfsResult<Attr> {
        KoshaMount::stat(self, path).map(|(_, a)| a)
    }

    fn readdir(&self, path: &str) -> NfsResult<Vec<(String, FileType)>> {
        Ok(KoshaMount::readdir(self, path)?
            .into_iter()
            .map(|e| (e.name, e.ftype))
            .collect())
    }

    fn remove(&self, path: &str) -> NfsResult<()> {
        KoshaMount::remove(self, path)
    }

    fn rmdir(&self, path: &str) -> NfsResult<()> {
        KoshaMount::rmdir(self, path)
    }

    fn rename(&self, from: &str, to: &str) -> NfsResult<()> {
        KoshaMount::rename(self, from, to)
    }
}
