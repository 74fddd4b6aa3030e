//! The one filesystem seam of this crate, and the rules that make a
//! file durable.
//!
//! Every file operation of the log, the snapshot store and the page
//! store goes through a [`Disk`]: create a directory, list one, read a
//! file, open or create one, append, write or read at an offset, set a
//! length, rename into place, sync a file or a directory, remove. Its
//! OS implementation is the only one the product uses; tests swap in a
//! crash model (`model` below) that logs each operation, so every
//! crash point of a run can be replayed offline.
//!
//! A file's `fsync` makes its bytes durable, not its name: until the
//! directory holding it is synced too, a crash may forget a file just
//! created, a directory just made or a rename just made. The handle
//! keeps the rules (DESIGN.md §8): [`Disk::create_dir`] syncs the
//! parent of each directory it creates, [`Disk::create_segment`] syncs
//! the directory of a new log segment before the first record goes in,
//! and [`Disk::rename_into_place`] syncs the directory after the
//! rename. Each sync, of a file or a directory, counts once in
//! `storage.fsyncs`, here and nowhere else.

use medchain_runtime::metrics::Metrics;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How [`Disk::open`] opens a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// An existing file, to read.
    Read,
    /// A file to append to, created if missing.
    Append,
    /// A file emptied or created, to read and write at offsets.
    Create,
}

/// One open file. Reads and writes transfer every byte or fail.
pub(crate) trait FileOps: Send + fmt::Debug {
    /// Writes `bytes` at the end of the file: the file was opened to
    /// append, or nothing but appends has written to it.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Writes `bytes` at `offset`, growing the file as needed.
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()>;
    /// Fills `buf` from `offset`; `UnexpectedEof` if the file ends first.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()>;
    /// The file's length in bytes.
    fn len(&mut self) -> io::Result<u64>;
    /// Cuts or zero-extends the file to `len` bytes.
    fn resize(&mut self, len: u64) -> io::Result<()>;
    /// Makes the file's bytes durable.
    fn sync(&mut self) -> io::Result<()>;
}

/// The file system under a [`Disk`]: the operations, without the rules.
pub(crate) trait Fs: Send + Sync + fmt::Debug {
    /// Makes one directory; `AlreadyExists` if it is there, `NotFound`
    /// if its parent is not.
    fn create_dir(&self, dir: &Path) -> io::Result<()>;
    /// The names of the entries of `dir`.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// The whole file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Opens the file at `path`.
    fn open(&self, path: &Path, mode: Mode) -> io::Result<Box<dyn FileOps>>;
    /// Renames `from` onto `to`, replacing it; [`Disk::rename_into_place`]
    /// adds the directory sync.
    fn rename_into_place(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Makes the entries of `dir` durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// The directory handle every file operation of this crate goes
/// through: a file system, the durability rules, and the count of
/// every sync it makes.
#[derive(Clone, Debug)]
pub(crate) struct Disk {
    fs: Arc<dyn Fs>,
    metrics: Metrics,
}

/// An open file of a [`Disk`], whose syncs count in `storage.fsyncs`.
#[derive(Debug)]
pub(crate) struct DurableFile {
    file: Box<dyn FileOps>,
    metrics: Metrics,
}

/// The directory holding `path`: `.` for a bare name.
fn parent_of(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// `<prefix><height, zero-padded><suffix>`: a log segment or snapshot
/// file name whose lexicographic order is its height order.
pub(crate) fn height_name(prefix: &str, height: u64, suffix: &str) -> String {
    format!("{prefix}{height:020}{suffix}")
}

impl Disk {
    /// The operating system's file system, its syncs counted on `metrics`.
    pub(crate) fn os(metrics: Metrics) -> Disk {
        Disk::new(Arc::new(Os), metrics)
    }

    /// A handle over `fs`, its syncs counted on `metrics`.
    pub(crate) fn new(fs: Arc<dyn Fs>, metrics: Metrics) -> Disk {
        Disk { fs, metrics }
    }

    /// The metrics this handle counts its syncs on.
    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Makes `dir` and any missing ancestor, syncing the parent of each
    /// one made, so a crash cannot forget a directory a durable file
    /// lives in. A directory already there is left alone.
    pub(crate) fn create_dir(&self, dir: &Path) -> io::Result<()> {
        if dir.as_os_str().is_empty() {
            return Ok(());
        }
        let made = match self.fs.create_dir(dir) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => match dir.parent() {
                Some(parent) if !parent.as_os_str().is_empty() => {
                    self.create_dir(parent)?;
                    self.fs.create_dir(dir)
                }
                _ => Err(e),
            },
            made => made,
        };
        match made {
            Ok(()) => self.sync_dir(parent_of(dir)),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// The files in `dir` named `<prefix><height><suffix>`, as `(height,
    /// path)` in height order. Any other file, a `.tmp` sibling included,
    /// is not listed.
    pub(crate) fn height_files(
        &self,
        dir: &Path,
        prefix: &str,
        suffix: &str,
    ) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut files: Vec<(u64, PathBuf)> = self
            .fs
            .list(dir)?
            .into_iter()
            .filter_map(|name| {
                let height = name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()?;
                Some((height, dir.join(name)))
            })
            .collect();
        files.sort_unstable();
        Ok(files)
    }

    /// The whole file at `path`.
    pub(crate) fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.fs.read(path)
    }

    /// Opens the file at `path`. A file this creates has no durable name
    /// until its directory is synced.
    pub(crate) fn open(&self, path: &Path, mode: Mode) -> io::Result<DurableFile> {
        let file = self.fs.open(path, mode)?;
        Ok(DurableFile { file, metrics: self.metrics.clone() })
    }

    /// Opens the log segment at `path` for appending, creating it, and
    /// syncs its directory, so a record appended and synced to it
    /// survives a crash with the file that holds it.
    pub(crate) fn create_segment(&self, path: &Path) -> io::Result<DurableFile> {
        let file = self.open(path, Mode::Append)?;
        self.sync_dir(parent_of(path))?;
        Ok(file)
    }

    /// Renames `from` onto `to` and syncs their directory, so a crash
    /// leaves either the old `to` or the new one, and a rename that
    /// returned stays made.
    pub(crate) fn rename_into_place(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.fs.rename_into_place(from, to)?;
        self.sync_dir(parent_of(to))
    }

    /// Makes the entries of `dir` durable.
    pub(crate) fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.fs.sync_dir(dir)?;
        self.metrics.counter("storage.fsyncs", 1);
        Ok(())
    }

    /// Removes the file at `path`. The removal is durable once its
    /// directory is next synced; until then a crash may bring it back.
    pub(crate) fn remove(&self, path: &Path) -> io::Result<()> {
        self.fs.remove(path)
    }
}

impl DurableFile {
    /// Writes `bytes` at the end of the file, in one write.
    pub(crate) fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.append(bytes)
    }

    /// Writes `bytes` at `offset`.
    pub(crate) fn write_at(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        self.file.write_at(offset, bytes)
    }

    /// A reader from `offset` on, for `record::read_record`.
    pub(crate) fn reader_at(&mut self, offset: u64) -> ReadAt<'_> {
        ReadAt { file: &mut *self.file, offset }
    }

    /// The file's length in bytes.
    pub(crate) fn len(&mut self) -> io::Result<u64> {
        self.file.len()
    }

    /// Cuts or zero-extends the file to `len` bytes.
    pub(crate) fn resize(&mut self, len: u64) -> io::Result<()> {
        self.file.resize(len)
    }

    /// Makes the file's bytes durable (its name is its directory's).
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.file.sync()?;
        self.metrics.counter("storage.fsyncs", 1);
        Ok(())
    }
}

/// Each `write` is one [`DurableFile::append`] of the whole buffer, so
/// `record::write_record` streams a record into a file.
impl Write for DurableFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.append(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Reads at a moving offset; each `read` fills its whole buffer or
/// fails, which `read_exact` passes through.
pub(crate) struct ReadAt<'a> {
    file: &'a mut dyn FileOps,
    offset: u64,
}

impl Read for ReadAt<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.file.read_at(self.offset, buf)?;
        self.offset += buf.len() as u64;
        Ok(buf.len())
    }
}

/// The operating system's file system.
#[derive(Debug)]
struct Os;

/// An OS file and the offset its cursor is known to be at, so reading
/// or writing where the last access ended costs no seek.
#[derive(Debug)]
struct OsFile {
    file: File,
    at: Option<u64>,
}

impl Fs for Os {
    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            names.extend(entry?.file_name().into_string().ok());
        }
        Ok(names)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn open(&self, path: &Path, mode: Mode) -> io::Result<Box<dyn FileOps>> {
        let file = match mode {
            Mode::Read => File::open(path)?,
            Mode::Append => OpenOptions::new().create(true).append(true).open(path)?,
            Mode::Create => {
                OpenOptions::new().create(true).truncate(true).read(true).write(true).open(path)?
            }
        };
        Ok(Box::new(OsFile { file, at: (mode != Mode::Append).then_some(0) }))
    }

    fn rename_into_place(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
}

impl OsFile {
    /// Moves the cursor to `offset` unless it is there, and forgets it
    /// until the caller's access succeeds.
    fn seek_to(&mut self, offset: u64) -> io::Result<()> {
        if self.at.take() != Some(offset) {
            self.file.seek(SeekFrom::Start(offset))?;
        }
        Ok(())
    }
}

impl FileOps for OsFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let end = self.at.take();
        self.file.write_all(bytes)?;
        self.at = end.map(|end| end + bytes.len() as u64);
        Ok(())
    }

    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        self.seek_to(offset)?;
        self.file.write_all(bytes)?;
        self.at = Some(offset + bytes.len() as u64);
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.seek_to(offset)?;
        self.file.read_exact(buf)?;
        self.at = Some(offset + buf.len() as u64);
        Ok(())
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn resize(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

#[cfg(test)]
pub(crate) mod model {
    //! The crash model: an in-memory [`Fs`] that keeps each file's and
    //! each directory's synced state apart from its live state and logs
    //! every operation, after ALICE (Pillai et al., OSDI 2014). Replaying
    //! the first `k` operations of the log gives the [`Image`] a crash
    //! after them finds. What was synced survives; each unsynced effect
    //! may or may not: an unsynced append survives as any prefix, an
    //! unsynced rewrite whole or not at all, and an unsynced create,
    //! mkdir, rename or remove of a name may vanish until its directory
    //! is synced.

    use super::{FileOps, Fs, Mode};
    use medchain_runtime::check::Gen;
    use std::collections::{BTreeMap, BTreeSet};
    use std::io;
    use std::path::{Component, Path};
    use std::sync::{Arc, Mutex, MutexGuard};

    /// One operation as the model logs it. Node 0 is the root directory;
    /// every other node is numbered in the order it was made.
    #[derive(Clone, Debug)]
    pub(crate) enum Op {
        /// `name` in directory `dir` names a new, empty directory.
        Mkdir { dir: usize, name: String },
        /// `name` in directory `dir` names a new, empty file.
        Create { dir: usize, name: String },
        /// `bytes` written at `offset` of file `node`.
        Write { node: usize, offset: u64, bytes: Vec<u8> },
        /// File `node` cut or zero-extended to `len` bytes.
        Resize { node: usize, len: u64 },
        /// The node `from` names moves to `to`, replacing what `to` named.
        Rename { from: (usize, String), to: (usize, String) },
        /// `name` removed from directory `dir`.
        Unlink { dir: usize, name: String },
        /// File `node`'s bytes made durable.
        SyncFile { node: usize },
        /// Directory `node`'s entries made durable.
        SyncDir { node: usize },
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum Node {
        Dir { live: BTreeMap<String, usize>, synced: BTreeMap<String, usize> },
        File { live: Vec<u8>, synced: Vec<u8> },
    }

    /// Everything a disk holds: each node's live and synced state.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    pub(crate) struct Image {
        nodes: Vec<Node>,
    }

    /// One unsynced effect a crash may keep or lose, and how.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub(crate) enum Effect {
        /// An entry of directory `dir` whose live and synced targets
        /// differ: a pick of 1 keeps the live one, 0 the synced one.
        Entry { dir: usize, name: String },
        /// File `node`'s live bytes extend its synced bytes: the pick is
        /// the length kept, from `synced` to `live`.
        Tail { node: usize, synced: u64, live: u64 },
        /// File `node`'s live bytes rewrite synced ones: a pick of 1
        /// keeps them all, 0 none.
        Rewrite { node: usize },
    }

    impl Effect {
        /// The picks an exhaustive search tries: both ways of an entry or
        /// a rewrite; none, half and all of a tail.
        pub(crate) fn picks(&self) -> Vec<u64> {
            match *self {
                Effect::Tail { synced, live, .. } => {
                    let mut picks = vec![synced, synced + (live - synced) / 2, live];
                    picks.dedup();
                    picks
                }
                _ => vec![0, 1],
            }
        }

        /// A pick drawn from every way the effect may land.
        pub(crate) fn draw(&self, g: &mut Gen) -> u64 {
            match *self {
                Effect::Tail { synced, live, .. } => {
                    g.usize_in(synced as usize, live as usize + 1) as u64
                }
                _ => u64::from(g.bool()),
            }
        }
    }

    fn not_found(what: &str) -> io::Error {
        io::Error::new(io::ErrorKind::NotFound, what.to_string())
    }

    /// The names along `path`, from the root.
    fn names(path: &Path) -> io::Result<Vec<&str>> {
        let mut names = Vec::new();
        for component in path.components() {
            match component {
                Component::RootDir | Component::CurDir => {}
                Component::Normal(name) => {
                    names.push(name.to_str().ok_or_else(|| not_found("a name"))?);
                }
                _ => return Err(io::Error::new(io::ErrorKind::InvalidInput, "outside the model")),
            }
        }
        Ok(names)
    }

    impl Default for Image {
        fn default() -> Image {
            let root = Node::Dir { live: BTreeMap::new(), synced: BTreeMap::new() };
            Image { nodes: vec![root] }
        }
    }

    impl Image {
        fn entries(&mut self, dir: usize) -> &mut BTreeMap<String, usize> {
            match &mut self.nodes[dir] {
                Node::Dir { live, .. } => live,
                Node::File { .. } => panic!("node {dir} is a file"),
            }
        }

        fn data(&mut self, node: usize) -> &mut Vec<u8> {
            match &mut self.nodes[node] {
                Node::File { live, .. } => live,
                Node::Dir { .. } => panic!("node {node} is a directory"),
            }
        }

        fn link(&mut self, dir: usize, name: &str, node: Node) {
            self.nodes.push(node);
            let made = self.nodes.len() - 1;
            self.entries(dir).insert(name.to_string(), made);
        }

        /// Applies one logged operation to the live state, or the sync it
        /// names to the synced state.
        pub(crate) fn apply(&mut self, op: &Op) {
            match op {
                Op::Mkdir { dir, name } => {
                    let empty = Node::Dir { live: BTreeMap::new(), synced: BTreeMap::new() };
                    self.link(*dir, name, empty);
                }
                Op::Create { dir, name } => {
                    self.link(*dir, name, Node::File { live: Vec::new(), synced: Vec::new() });
                }
                Op::Write { node, offset, bytes } => {
                    let (data, at) = (self.data(*node), *offset as usize);
                    if data.len() < at + bytes.len() {
                        data.resize(at + bytes.len(), 0);
                    }
                    data[at..at + bytes.len()].copy_from_slice(bytes);
                }
                Op::Resize { node, len } => self.data(*node).resize(*len as usize, 0),
                Op::Rename { from, to } => {
                    let node = self.entries(from.0).remove(&from.1).expect("renamed name exists");
                    self.entries(to.0).insert(to.1.clone(), node);
                }
                Op::Unlink { dir, name } => drop(self.entries(*dir).remove(name)),
                Op::SyncFile { node } | Op::SyncDir { node } => match &mut self.nodes[*node] {
                    Node::Dir { live, synced } => *synced = live.clone(),
                    Node::File { live, synced } => *synced = live.clone(),
                },
            }
        }

        /// The node at `path`, through live entries.
        fn lookup(&self, path: &Path) -> io::Result<usize> {
            let mut node = 0;
            for name in names(path)? {
                node = match &self.nodes[node] {
                    Node::Dir { live, .. } => *live.get(name).ok_or_else(|| not_found(name))?,
                    Node::File { .. } => return Err(not_found(name)),
                };
            }
            Ok(node)
        }

        /// The file at `path`.
        fn lookup_file(&self, path: &Path) -> io::Result<usize> {
            let node = self.lookup(path)?;
            match self.nodes[node] {
                Node::File { .. } => Ok(node),
                Node::Dir { .. } => Err(io::Error::new(io::ErrorKind::InvalidInput, "a directory")),
            }
        }

        /// The directory `path` is in, and its last name.
        fn parent(&self, path: &Path) -> io::Result<(usize, String)> {
            let names = names(path)?;
            let (last, ancestors) = names.split_last().ok_or_else(|| not_found("root"))?;
            let mut dir = 0;
            for name in ancestors {
                dir = match &self.nodes[dir] {
                    Node::Dir { live, .. } => *live.get(*name).ok_or_else(|| not_found(name))?,
                    Node::File { .. } => return Err(not_found(name)),
                };
            }
            match self.nodes[dir] {
                Node::Dir { .. } => Ok((dir, last.to_string())),
                Node::File { .. } => Err(not_found(last)),
            }
        }

        /// Every unsynced effect of a node a crash could reach (through
        /// live or synced entries from the root), in a fixed order.
        pub(crate) fn unsynced(&self) -> Vec<Effect> {
            let (mut effects, mut seen, mut stack) = (Vec::new(), BTreeSet::new(), vec![0]);
            while let Some(i) = stack.pop() {
                if !seen.insert(i) {
                    continue;
                }
                match &self.nodes[i] {
                    Node::Dir { live, synced } => {
                        let names: BTreeSet<&String> = live.keys().chain(synced.keys()).collect();
                        for name in names {
                            let (now, kept) = (live.get(name), synced.get(name));
                            if now != kept {
                                effects.push(Effect::Entry { dir: i, name: name.clone() });
                            }
                            stack.extend(now.into_iter().chain(kept));
                        }
                    }
                    Node::File { live, synced } if live.starts_with(synced) && live != synced => {
                        let (synced, live) = (synced.len() as u64, live.len() as u64);
                        effects.push(Effect::Tail { node: i, synced, live });
                    }
                    Node::File { live, synced } if live != synced => {
                        effects.push(Effect::Rewrite { node: i });
                    }
                    Node::File { .. } => {}
                }
            }
            effects
        }

        /// What a crash leaves: the synced state, with each effect landed
        /// as its pick says. Nothing in it is unsynced.
        pub(crate) fn crash(&self, effects: &[Effect], picks: &[u64]) -> Image {
            let mut crashed = self.clone();
            for node in &mut crashed.nodes {
                match node {
                    Node::Dir { live, synced } => *live = synced.clone(),
                    Node::File { live, synced } => *live = synced.clone(),
                }
            }
            for (effect, &pick) in effects.iter().zip(picks) {
                match effect {
                    Effect::Entry { dir, name } if pick == 1 => {
                        let Node::Dir { live, .. } = &self.nodes[*dir] else { continue };
                        let entries = crashed.entries(*dir);
                        match live.get(name) {
                            Some(node) => entries.insert(name.clone(), *node),
                            None => entries.remove(name),
                        };
                    }
                    Effect::Tail { node, .. } | Effect::Rewrite { node } => {
                        let Node::File { live, synced } = &self.nodes[*node] else { continue };
                        let kept = match effect {
                            Effect::Tail { .. } => &live[..pick as usize],
                            _ if pick == 1 => live,
                            _ => synced,
                        };
                        *crashed.data(*node) = kept.to_vec();
                    }
                    Effect::Entry { .. } => {}
                }
            }
            for node in &mut crashed.nodes {
                match node {
                    Node::Dir { live, synced } => *synced = live.clone(),
                    Node::File { live, synced } => *synced = live.clone(),
                }
            }
            crashed
        }
    }

    #[derive(Debug, Default)]
    struct Log {
        image: Image,
        ops: Vec<Op>,
    }

    /// The model file system: its image and the log of every operation
    /// made on it. Clones share both.
    #[derive(Clone, Debug, Default)]
    pub(crate) struct Model(Arc<Mutex<Log>>);

    /// An open file of a [`Model`].
    #[derive(Debug)]
    struct ModelFile {
        model: Model,
        node: usize,
    }

    impl Model {
        /// A disk holding `image`, with an empty log.
        pub(crate) fn holding(image: Image) -> Model {
            Model(Arc::new(Mutex::new(Log { image, ops: Vec::new() })))
        }

        /// Every operation made so far, in order.
        pub(crate) fn ops(&self) -> Vec<Op> {
            self.lock().ops.clone()
        }

        /// How many operations have been made.
        pub(crate) fn len(&self) -> usize {
            self.lock().ops.len()
        }

        /// How many of them synced a file or a directory.
        pub(crate) fn syncs(&self) -> usize {
            let log = self.lock();
            let sync = |op: &&Op| matches!(op, Op::SyncFile { .. } | Op::SyncDir { .. });
            log.ops.iter().filter(sync).count()
        }

        fn lock(&self) -> MutexGuard<'_, Log> {
            self.0.lock().expect("model poisoned")
        }

        fn file(&self, node: usize) -> Box<dyn FileOps> {
            Box::new(ModelFile { model: self.clone(), node })
        }
    }

    impl Log {
        fn make(&mut self, op: Op) {
            self.image.apply(&op);
            self.ops.push(op);
        }
    }

    impl Fs for Model {
        fn create_dir(&self, dir: &Path) -> io::Result<()> {
            let mut log = self.lock();
            if log.image.lookup(dir).is_ok() {
                return Err(io::Error::new(io::ErrorKind::AlreadyExists, "directory exists"));
            }
            let (dir, name) = log.image.parent(dir)?;
            log.make(Op::Mkdir { dir, name });
            Ok(())
        }

        fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
            let log = self.lock();
            match &log.image.nodes[log.image.lookup(dir)?] {
                Node::Dir { live, .. } => Ok(live.keys().cloned().collect()),
                Node::File { .. } => Err(not_found("a file is no directory")),
            }
        }

        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            let mut log = self.lock();
            let node = log.image.lookup_file(path)?;
            Ok(log.image.data(node).clone())
        }

        fn open(&self, path: &Path, mode: Mode) -> io::Result<Box<dyn FileOps>> {
            let mut log = self.lock();
            let node = match log.image.lookup_file(path) {
                Ok(node) => {
                    if mode == Mode::Create {
                        log.make(Op::Resize { node, len: 0 });
                    }
                    node
                }
                Err(e) if mode == Mode::Read || e.kind() != io::ErrorKind::NotFound => {
                    return Err(e);
                }
                Err(_) => {
                    let (dir, name) = log.image.parent(path)?;
                    log.make(Op::Create { dir, name });
                    log.image.nodes.len() - 1
                }
            };
            Ok(self.file(node))
        }

        fn rename_into_place(&self, from: &Path, to: &Path) -> io::Result<()> {
            let mut log = self.lock();
            log.image.lookup(from)?;
            let (from, to) = (log.image.parent(from)?, log.image.parent(to)?);
            log.make(Op::Rename { from, to });
            Ok(())
        }

        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            let mut log = self.lock();
            let node = log.image.lookup(dir)?;
            log.make(Op::SyncDir { node });
            Ok(())
        }

        fn remove(&self, path: &Path) -> io::Result<()> {
            let mut log = self.lock();
            log.image.lookup(path)?;
            let (dir, name) = log.image.parent(path)?;
            log.make(Op::Unlink { dir, name });
            Ok(())
        }
    }

    impl FileOps for ModelFile {
        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            let mut log = self.model.lock();
            let offset = log.image.data(self.node).len() as u64;
            log.make(Op::Write { node: self.node, offset, bytes: bytes.to_vec() });
            Ok(())
        }

        fn write_at(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
            self.model.lock().make(Op::Write { node: self.node, offset, bytes: bytes.to_vec() });
            Ok(())
        }

        fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
            let mut log = self.model.lock();
            let data = log.image.data(self.node);
            let at = offset as usize;
            let bytes = data.get(at..at + buf.len()).ok_or(io::ErrorKind::UnexpectedEof)?;
            buf.copy_from_slice(bytes);
            Ok(())
        }

        fn len(&mut self) -> io::Result<u64> {
            Ok(self.model.lock().image.data(self.node).len() as u64)
        }

        fn resize(&mut self, len: u64) -> io::Result<()> {
            self.model.lock().make(Op::Resize { node: self.node, len });
            Ok(())
        }

        fn sync(&mut self) -> io::Result<()> {
            self.model.lock().make(Op::SyncFile { node: self.node });
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::model::{Effect, Image, Model};
    use super::*;
    use crate::testutil::test_dir;
    use medchain_runtime::metrics::Registry;

    #[test]
    fn rename_into_place_replaces_the_target_and_leaves_no_source() {
        let dir = test_dir("durable-rename");
        let disk = Disk::os(Metrics::noop());
        disk.create_dir(&dir).unwrap();
        let (tmp, target) = (dir.join("a.bin.tmp"), dir.join("a.bin"));
        fs::write(&target, b"old").unwrap();
        fs::write(&tmp, b"new").unwrap();
        disk.rename_into_place(&tmp, &target).unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"new");
        assert!(!tmp.exists());
        // A missing source fails and leaves the target alone.
        assert!(disk.rename_into_place(&tmp, &target).is_err());
        assert_eq!(fs::read(&target).unwrap(), b"new");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_segment_appends_to_a_new_or_existing_file() {
        let dir = test_dir("durable-segment");
        let disk = Disk::os(Metrics::noop());
        disk.create_dir(&dir).unwrap();
        let path = dir.join("seg-1.wal");
        disk.create_segment(&path).unwrap().append(b"one").unwrap();
        disk.create_segment(&path).unwrap().append(b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"onetwo");
        // A segment in a directory that does not exist is an error.
        assert!(disk.create_segment(&dir.join("missing").join("seg-2.wal")).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Reads and writes at offsets cost a seek only where the cursor is
    /// not already, and see what appends and writes left.
    #[test]
    fn an_os_file_reads_and_writes_at_offsets() {
        let dir = test_dir("durable-offsets");
        let disk = Disk::os(Metrics::noop());
        disk.create_dir(&dir).unwrap();
        let mut file = disk.open(&dir.join("f.bin"), Mode::Create).unwrap();
        file.append(b"head").unwrap();
        file.write_at(8, b"tail").unwrap();
        let mut buf = [0u8; 12];
        file.reader_at(0).read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"head\0\0\0\0tail");
        assert_eq!(file.len().unwrap(), 12);
        file.resize(6).unwrap();
        let err = file.reader_at(4).read_exact(&mut [0u8; 4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A new directory's parent is synced, so no crash can lose it; a
    /// file created and written but not synced may lose its name and
    /// any suffix of its bytes; syncing the file keeps the bytes, and
    /// syncing its directory the name. Every sync counts once.
    #[test]
    fn a_crash_keeps_what_was_synced_and_any_unsynced_effect() {
        let model = Model::default();
        let registry = Registry::new();
        let disk = Disk::new(Arc::new(model.clone()), registry.handle());
        let (dir, path) = (Path::new("/data/site"), Path::new("/data/site/f.bin"));
        disk.create_dir(dir).unwrap();
        let mut file = disk.open(path, Mode::Append).unwrap();
        file.append(b"abcd").unwrap();

        let mut image = Image::default();
        let mut crash_points = Vec::new();
        for op in model.ops() {
            crash_points.push(image.unsynced());
            image.apply(&op);
        }
        crash_points.push(image.unsynced());
        // mkdir /data, sync /, mkdir /data/site, sync /data, create, write.
        assert_eq!(crash_points.len(), 7);
        assert!(matches!(crash_points[1][..], [Effect::Entry { dir: 0, .. }]));
        assert!(crash_points[2].is_empty() && crash_points[4].is_empty());
        let tail = Effect::Tail { node: 3, synced: 0, live: 4 };
        assert_eq!(crash_points[6].len(), 2);
        assert_eq!(crash_points[6][1], tail);
        assert_eq!(tail.picks(), [0, 2, 4]);

        // The name kept, two of four bytes kept.
        let effects = &crash_points[6];
        let crashed = Model::holding(image.crash(effects, &[1, 2]));
        assert_eq!(crashed.read(path).unwrap(), b"ab");
        // The name lost.
        let crashed = Model::holding(image.crash(effects, &[0, 4]));
        assert_eq!(crashed.read(path).unwrap_err().kind(), io::ErrorKind::NotFound);
        assert!(crashed.list(dir).unwrap().is_empty());

        file.sync().unwrap();
        disk.sync_dir(dir).unwrap();
        let mut image = Image::default();
        model.ops().iter().for_each(|op| image.apply(op));
        assert!(image.unsynced().is_empty());
        assert_eq!(Model::holding(image.crash(&[], &[])).read(path).unwrap(), b"abcd");
        assert_eq!(model.syncs(), 4);
        assert_eq!(registry.counter_value("storage.fsyncs"), 4);
    }
}
