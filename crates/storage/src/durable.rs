//! Durable directory entries, and the height-named files they hold.
//!
//! A file's `fsync` makes its bytes durable, not its name: until the
//! directory holding it is synced too, a crash may forget a file just
//! created or a rename just made. Every new segment and every snapshot
//! file of this crate enters its directory through these two helpers,
//! which sync the directory after the entry changes (DESIGN.md §8).
//! Each makes one directory sync, which its caller counts in
//! `storage.fsyncs`.

use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};

/// `<prefix><height, zero-padded><suffix>`: a log segment or snapshot
/// file name whose lexicographic order is its height order.
pub(crate) fn height_name(prefix: &str, height: u64, suffix: &str) -> String {
    format!("{prefix}{height:020}{suffix}")
}

/// The files in `dir` named `<prefix><height><suffix>`, as `(height,
/// path)` in height order. Any other file, a `.tmp` sibling included,
/// is not listed.
pub(crate) fn height_files(
    dir: &Path,
    prefix: &str,
    suffix: &str,
) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let height = name
            .to_str()
            .and_then(|name| name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok());
        files.extend(height.map(|h| (h, entry.path())));
    }
    files.sort_unstable();
    Ok(files)
}

/// Syncs the directory holding `path`.
fn sync_parent(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Renames `from` onto `to` and syncs their directory, so a crash
/// leaves either the old `to` or the new one, and a rename that
/// returned stays made.
pub(crate) fn rename_into_place(from: &Path, to: &Path) -> io::Result<()> {
    fs::rename(from, to)?;
    sync_parent(to)
}

/// Opens the log segment at `path` for appending, creating it, and
/// syncs its directory, so a record appended and synced to it survives
/// a crash with the file that holds it.
pub(crate) fn create_segment(path: &Path) -> io::Result<File> {
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    sync_parent(path)?;
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_dir;
    use std::io::Write;

    #[test]
    fn rename_into_place_replaces_the_target_and_leaves_no_source() {
        let dir = test_dir("durable-rename");
        fs::create_dir_all(&dir).unwrap();
        let (tmp, target) = (dir.join("a.bin.tmp"), dir.join("a.bin"));
        fs::write(&target, b"old").unwrap();
        fs::write(&tmp, b"new").unwrap();
        rename_into_place(&tmp, &target).unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"new");
        assert!(!tmp.exists());
        // A missing source fails and leaves the target alone.
        assert!(rename_into_place(&tmp, &target).is_err());
        assert_eq!(fs::read(&target).unwrap(), b"new");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_segment_appends_to_a_new_or_existing_file() {
        let dir = test_dir("durable-segment");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-1.wal");
        let mut file = create_segment(&path).unwrap();
        file.write_all(b"one").unwrap();
        drop(file);
        let mut file = create_segment(&path).unwrap();
        file.write_all(b"two").unwrap();
        drop(file);
        assert_eq!(fs::read(&path).unwrap(), b"onetwo");
        // A segment in a directory that does not exist is an error.
        assert!(create_segment(&dir.join("missing").join("seg-2.wal")).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
