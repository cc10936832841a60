//! A corpus over an existing directory tree: every matching file is a
//! data unit.
//!
//! FREE's data-unit abstraction deliberately covers "general textual data
//! from any source" (§2). This store indexes files in place — the
//! natural shape for the code-search and log-hunting use cases the
//! multigram idea later became famous for — without copying them into a
//! dedicated corpus file.

use crate::{Corpus, DocId, Error, Result};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// A read-only corpus over files discovered under a root directory.
///
/// The file list is captured at construction (sorted by path, so doc ids
/// are stable for an unchanged tree); file contents are read on demand.
pub struct FsCorpus {
    root: PathBuf,
    files: Vec<PathBuf>,
    total_bytes: u64,
}

impl FsCorpus {
    /// Walks `root` and captures every file whose extension is in
    /// `extensions` (e.g. `&["rs", "toml"]`); an empty list accepts all
    /// files. Directories named in `skip_dirs` (e.g. `target`, `.git`)
    /// are not descended into.
    pub fn open(
        root: impl AsRef<Path>,
        extensions: &[&str],
        skip_dirs: &[&str],
    ) -> Result<FsCorpus> {
        let root = root.as_ref().to_path_buf();
        let mut files = Vec::new();
        walk(&root, extensions, skip_dirs, &mut files)?;
        files.sort();
        let mut total_bytes = 0;
        for f in &files {
            total_bytes += std::fs::metadata(f)
                .map_err(|e| Error::io(format!("stat {}", f.display()), e))?
                .len();
        }
        Ok(FsCorpus {
            root,
            files,
            total_bytes,
        })
    }

    /// Builds a corpus over an explicit file list (paths must exist).
    /// Used to reopen a corpus with exactly the files an index was built
    /// over, immune to tree changes since.
    pub fn from_paths(root: impl AsRef<Path>, files: Vec<PathBuf>) -> Result<FsCorpus> {
        let mut total_bytes = 0;
        for f in &files {
            total_bytes += std::fs::metadata(f)
                .map_err(|e| Error::io(format!("stat {}", f.display()), e))?
                .len();
        }
        Ok(FsCorpus {
            root: root.as_ref().to_path_buf(),
            files,
            total_bytes,
        })
    }

    /// The root the corpus was opened at.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path backing a data unit.
    pub fn path(&self, id: DocId) -> Option<&Path> {
        self.files.get(id as usize).map(PathBuf::as_path)
    }

    /// All file paths in id order.
    pub fn paths(&self) -> &[PathBuf] {
        &self.files
    }
}

fn walk(dir: &Path, extensions: &[&str], skip_dirs: &[&str], out: &mut Vec<PathBuf>) -> Result<()> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| Error::io(format!("read dir {}", dir.display()), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| Error::io("read dir entry", e))?;
        let path = entry.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if skip_dirs.contains(&name) {
                continue;
            }
            walk(&path, extensions, skip_dirs, out)?;
        } else {
            let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
            if extensions.is_empty() || extensions.contains(&ext) {
                out.push(path);
            }
        }
    }
    Ok(())
}

impl Corpus for FsCorpus {
    fn len(&self) -> usize {
        self.files.len()
    }

    fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    fn get(&self, id: DocId) -> Result<Vec<u8>> {
        let path = self.files.get(id as usize).ok_or(Error::DocOutOfRange {
            id,
            len: self.files.len(),
        })?;
        std::fs::read(path).map_err(|e| Error::io(format!("read {}", path.display()), e))
    }

    fn scan_range(
        &self,
        positions: Range<usize>,
        f: &mut dyn FnMut(DocId, &[u8]) -> bool,
    ) -> Result<()> {
        let end = positions.end.min(self.files.len());
        for i in positions.start.min(end)..end {
            let path = &self.files[i];
            let bytes = std::fs::read(path)
                .map_err(|e| Error::io(format!("scan {}", path.display()), e))?;
            if !f(i as DocId, &bytes) {
                break;
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for FsCorpus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FsCorpus({}, {} files, {} bytes)",
            self.root.display(),
            self.files.len(),
            self.total_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("free-fs-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sub/deep")).unwrap();
        std::fs::create_dir_all(dir.join("target")).unwrap();
        std::fs::write(dir.join("a.rs"), b"fn a() {}").unwrap();
        std::fs::write(dir.join("b.txt"), b"notes").unwrap();
        std::fs::write(dir.join("sub/c.rs"), b"fn c() {}").unwrap();
        std::fs::write(dir.join("sub/deep/d.rs"), b"fn d() {}").unwrap();
        std::fs::write(dir.join("target/ignored.rs"), b"fn x() {}").unwrap();
        dir
    }

    #[test]
    fn filters_by_extension_and_skips_dirs() {
        let dir = setup("filter");
        let c = FsCorpus::open(&dir, &["rs"], &["target"]).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.total_bytes(), 27);
        // Sorted by path: a.rs, sub/c.rs, sub/deep/d.rs
        assert!(c.path(0).unwrap().ends_with("a.rs"));
        assert!(c.path(2).unwrap().ends_with("d.rs"));
        assert_eq!(c.get(0).unwrap(), b"fn a() {}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_extension_list_accepts_all() {
        let dir = setup("all");
        let c = FsCorpus::open(&dir, &[], &["target"]).unwrap();
        assert_eq!(c.len(), 4); // includes b.txt
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_matches_get_and_stops() {
        let dir = setup("scan");
        let c = FsCorpus::open(&dir, &["rs"], &["target"]).unwrap();
        let mut n = 0;
        c.scan(&mut |id, bytes| {
            assert_eq!(bytes, c.get(id).unwrap());
            n += 1;
            n < 2
        })
        .unwrap();
        assert_eq!(n, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_and_missing_root() {
        let dir = setup("oor");
        let c = FsCorpus::open(&dir, &["rs"], &[]).unwrap();
        assert!(matches!(c.get(99), Err(Error::DocOutOfRange { .. })));
        assert!(FsCorpus::open(dir.join("nonexistent"), &[], &[]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn from_paths_preserves_order() {
        let dir = setup("frompaths");
        let walked = FsCorpus::open(&dir, &["rs"], &["target"]).unwrap();
        let paths = walked.paths().to_vec();
        let rebuilt = FsCorpus::from_paths(&dir, paths.clone()).unwrap();
        assert_eq!(rebuilt.len(), walked.len());
        assert_eq!(rebuilt.total_bytes(), walked.total_bytes());
        for i in 0..paths.len() as u32 {
            assert_eq!(rebuilt.get(i).unwrap(), walked.get(i).unwrap());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
