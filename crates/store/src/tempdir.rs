//! Unique scratch directories for tests, benches and examples.

use std::ffi::OsStr;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty directory under the system temp dir, removed with its
/// contents on drop.
///
/// The name joins a caller tag, the process id and a process-wide
/// counter, so tests running in parallel inside one test binary never
/// share a directory, whatever tags they pass.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `<temp>/fasea-<tag>-<pid>-<n>`.
    ///
    /// # Panics
    /// If the directory cannot be created.
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("fasea-{tag}-{}-{n}", std::process::id()));
        // A crashed run whose pid was recycled may have left it behind.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
        TempDir { path }
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

/// Lets `&TempDir` convert into a `PathBuf` (`PathBuf: From<&T>` for
/// any `T: AsRef<OsStr>`) wherever an API takes `impl Into<PathBuf>`.
impl AsRef<OsStr> for TempDir {
    fn as_ref(&self) -> &OsStr {
        self.path.as_os_str()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::TempDir;

    #[test]
    fn same_tag_gives_distinct_dirs_removed_on_drop() {
        let a = TempDir::new("tempdir");
        let b = TempDir::new("tempdir");
        assert_ne!(&*a, &*b);
        assert!(a.is_dir() && b.is_dir());
        std::fs::write(a.join("file"), b"x").unwrap();
        let kept = a.to_path_buf();
        drop(a);
        assert!(!kept.exists());
    }
}
