//! The sharded, crash-safe persistent run store.
//!
//! This replaces the flat one-directory `.runcache` layout with a
//! content-addressed store designed for *concurrent* writers — multiple
//! worker threads in one sweep, multiple `h2` processes sharing a warm
//! cache, and repeated CI runs — without corruption:
//!
//! - **256 key-prefix shards.** An entry for job key `k` lives at
//!   `<root>/<hh>/<032x-k>.h2r` where `hh` is the top byte of the key in
//!   hex. FNV-1a keys are uniformly distributed, so shards stay balanced
//!   and directory listings stay short.
//! - **Atomic publishes.** Writers encode into a uniquely named temp file
//!   (`.<key>.<pid>.<seq>.tmp` — pid *and* a process-wide sequence number,
//!   so two threads of one process can never collide) and `rename` it into
//!   place. Readers therefore only ever observe complete entries or no
//!   entry; a writer dying mid-commit leaves a temp file that is swept by
//!   [`ShardedStore::gc`], never a torn entry.
//! - **Quarantine on decode failure.** An entry that fails validation
//!   (truncated rename target, bit rot, foreign bytes) is renamed to
//!   `*.bad` instead of being served or silently deleted: the caller sees
//!   a miss and re-executes, and the damaged bytes stick around for
//!   post-mortem until the next `gc`.
//! - **Lock files** (`<shard>/.lock` and `<root>/.store.lock`, created
//!   with `O_EXCL`, stale-broken by age) serialise what rename alone
//!   cannot make safe: `gc`'s temp sweep against in-flight publishes, and
//!   the open-time wipe. Entry reads never take a lock.
//! - **Entry mtimes are the last-used stamps**, so the LRU evictor does
//!   not depend on filesystem atime (usually mounted `relatime`) and the
//!   store keeps no second record of what its directories hold. A publish
//!   stamps its entry by writing it. A load refreshes the stamp, through
//!   the handle it read the entry with, only once the stamp is
//!   [`TOUCH_INTERVAL`] old or lies in the future, so a hit on a recently
//!   used entry opens no file but its entry and writes nothing.
//! - **LRU size-based eviction.** [`ShardedStore::gc`] (CLI:
//!   `h2 cache gc --max-bytes N`) evicts least-recently-used entries
//!   until the store fits the budget, and sweeps quarantine and stale
//!   temp files.
//!
//! The binary entry codec and the `VERSION` invalidation rule are
//! unchanged from [`crate::persist`]; this module owns the on-disk
//! *layout* and its concurrency story, and the memo of decoded metric
//! layouts that a store's loads share (`LayoutMemo`).
//! [`crate::persist::DiskTier`] wraps this store so every existing
//! `RunCache` user gets the sharded layout transparently.

use crate::persist::{cache_tag, encode_report, read_report, LoadMode};
use h2_sim_core::MetricLayout;
use h2_system::RunReport;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Number of key-prefix shards (top byte of the u128 key).
pub const SHARDS: usize = 256;

/// How old a `.tmp` file must be before `gc` treats it as an abandoned
/// commit from a dead writer rather than an in-flight publish.
pub const STALE_TMP: Duration = Duration::from_secs(60);

/// How old a lock file must be before a contender may break it. Critical
/// sections under these locks are an entry's temp write and rename, and
/// directory scans — milliseconds — so a lock this old can only belong to
/// a dead process.
const STALE_LOCK: Duration = Duration::from_secs(10);

/// How long to keep retrying a contended lock before giving up.
const LOCK_TIMEOUT: Duration = Duration::from_secs(10);

/// How old an entry's mtime, its last-used stamp, must be before a load
/// refreshes it. The stamp only orders `gc`'s evictions, for which an
/// hour's resolution does as well as a second's; refreshing it on every
/// load would make every hit write the entry's inode, so that a hit's
/// time would depend on the disk.
pub const TOUCH_INTERVAL: Duration = Duration::from_secs(3600);

/// Fault-injection points for the crash-consistency tests: what a writer
/// does *instead of* a clean commit. Never set outside tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitFault {
    /// Commit normally.
    #[default]
    None,
    /// Write the temp file, then "die" before the rename (the entry is
    /// never published; the temp file is abandoned).
    DieBeforeRename,
    /// Publish, then truncate the published entry to this many bytes
    /// (models a torn write reaching the rename target).
    TruncateTarget(u64),
}

/// Counters for `h2 cache stats` and test assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Intact entries on disk.
    pub entries: usize,
    /// Bytes across intact entries.
    pub bytes: u64,
    /// Quarantined (`*.bad`) files awaiting `gc`.
    pub quarantined: usize,
    /// Temp files currently on disk (in-flight or abandoned commits).
    pub tmp_files: usize,
}

/// What one [`ShardedStore::gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Intact entries examined.
    pub examined: usize,
    /// Entries evicted (LRU) to meet the byte budget.
    pub evicted: usize,
    /// Entry bytes before eviction.
    pub bytes_before: u64,
    /// Entry bytes after eviction.
    pub bytes_after: u64,
    /// Quarantined files removed.
    pub bad_removed: usize,
    /// Abandoned temp files removed.
    pub tmp_removed: usize,
}

/// A held lock file; dropping releases it.
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Acquire `path` as an exclusive lock file. Locks are advisory files
/// created with `create_new` (O_EXCL); a contender breaks locks older
/// than [`STALE_LOCK`] (the owner died) and errors out after
/// [`LOCK_TIMEOUT`] so a wedged filesystem cannot hang the process.
fn acquire_lock(path: &Path) -> io::Result<LockGuard> {
    let deadline = SystemTime::now() + LOCK_TIMEOUT;
    loop {
        match fs::OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(mut f) => {
                use std::io::Write as _;
                let _ = write!(f, "{}", std::process::id());
                return Ok(LockGuard { path: path.to_path_buf() });
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let stale = fs::metadata(path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age > STALE_LOCK);
                if stale {
                    let _ = fs::remove_file(path);
                    continue;
                }
                if SystemTime::now() > deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("lock {} held for over {LOCK_TIMEOUT:?}", path.display()),
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Process-wide temp-file sequence. Combined with the pid this makes temp
/// names unique across *threads* as well as processes — the flat layout
/// used the pid alone, so two worker threads publishing the same key
/// could interleave writes into one temp file and rename a torn entry.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// How many name blocks a [`LayoutMemo`] keeps.
const LAYOUT_SLOTS: usize = 16;

/// A name block's bytes and the layout parsed from them.
type LayoutSlot = (Box<[u8]>, Arc<MetricLayout>);

/// A bounded memo from a metric-name block's exact bytes to its parsed
/// layout, most recently used first (see [`crate::persist`] for the
/// blocks). The entries of one configuration and policy carry the same
/// blocks, so a load whose block equals one this memo holds shares that
/// layout after one comparison, instead of parsing the names and
/// building their name map again. A block joins only after it parsed
/// and passed the duplicate-name check, and only equal bytes hit: equal
/// lengths or hashes never share a layout.
#[derive(Default)]
pub(crate) struct LayoutMemo {
    slots: Mutex<Vec<LayoutSlot>>,
}

impl LayoutMemo {
    /// The layout `block` holds: shared when the memo holds the same
    /// bytes, else `parse`d and, if that succeeds, admitted in place of
    /// the least recently used block once [`LAYOUT_SLOTS`] are taken.
    /// `None`, admitting nothing, when `parse` rejects the block.
    pub(crate) fn layout(
        &self,
        block: &[u8],
        parse: impl FnOnce(&[u8]) -> Option<MetricLayout>,
    ) -> Option<Arc<MetricLayout>> {
        if let Some(hit) = Self::hit(&mut self.slots(), block) {
            return Some(hit);
        }
        // Parsed unlocked, so a worker's new block does not hold up the
        // others' hits.
        let layout = Arc::new(parse(block)?);
        let mut slots = self.slots();
        // Another worker may have admitted the same block meanwhile.
        if let Some(hit) = Self::hit(&mut slots, block) {
            return Some(hit);
        }
        slots.insert(0, (block.into(), Arc::clone(&layout)));
        slots.truncate(LAYOUT_SLOTS);
        Some(layout)
    }

    fn slots(&self) -> MutexGuard<'_, Vec<LayoutSlot>> {
        self.slots.lock().expect("no thread panics holding the layout memo")
    }

    /// The layout of the slot holding exactly `block`, moved to the front.
    fn hit(slots: &mut [LayoutSlot], block: &[u8]) -> Option<Arc<MetricLayout>> {
        let i = slots.iter().position(|(b, _)| **b == *block)?;
        slots[..=i].rotate_right(1);
        Some(Arc::clone(&slots[0].1))
    }
}

impl fmt::Debug for LayoutMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let blocks = self.slots.try_lock().map(|s| s.len()).ok();
        f.debug_struct("LayoutMemo").field("blocks", &blocks).finish()
    }
}

/// The sharded store rooted at one directory.
#[derive(Debug)]
pub struct ShardedStore {
    root: PathBuf,
    tag: String,
    fault: Mutex<CommitFault>,
    quarantined: AtomicU64,
    /// The metric layouts of the name blocks this handle has loaded.
    layouts: LayoutMemo,
}

impl ShardedStore {
    /// Open (creating if needed) the store at `root`. When the
    /// directory's `VERSION` does not match the running binary's
    /// [`cache_tag`], wipes every entry under the store lock, which
    /// serialises concurrent opens. That includes `<root>/<key>.h2r`
    /// files of the flat layout older revisions wrote: they all carry an
    /// older `VERSION`. A store that already has the binary's `VERSION`
    /// has nothing to change, so opening it takes no lock and writes
    /// nothing.
    pub fn open(root: &Path) -> io::Result<Self> {
        fs::create_dir_all(root)?;
        let tag = cache_tag();
        let store = Self {
            root: root.to_path_buf(),
            tag,
            fault: Mutex::new(CommitFault::None),
            quarantined: AtomicU64::new(0),
            layouts: LayoutMemo::default(),
        };
        let version_file = root.join("VERSION");
        if !fs::read_to_string(&version_file).is_ok_and(|v| v == store.tag) {
            let _lock = acquire_lock(&root.join(".store.lock"))?;
            let on_disk = fs::read_to_string(&version_file).unwrap_or_default();
            if on_disk != store.tag {
                store.wipe_entries();
                fs::write(&version_file, &store.tag)?;
            }
        }
        Ok(store)
    }

    /// The root directory.
    pub fn dir(&self) -> &Path {
        &self.root
    }

    /// Inject a commit fault for the next `store` calls (tests only).
    pub fn set_commit_fault(&self, fault: CommitFault) {
        *self.fault.lock().unwrap() = fault;
    }

    /// Entries quarantined by this handle since open.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    fn shard_dir(&self, key: u128) -> PathBuf {
        self.root.join(format!("{:02x}", (key >> 120) as u8))
    }

    fn entry_path(&self, key: u128) -> PathBuf {
        self.shard_dir(key).join(format!("{key:032x}.h2r"))
    }

    /// Every existing shard directory (sorted for deterministic walks).
    fn shard_dirs(&self) -> Vec<PathBuf> {
        let mut dirs: Vec<PathBuf> = (0..SHARDS)
            .map(|s| self.root.join(format!("{s:02x}")))
            .filter(|d| d.is_dir())
            .collect();
        dirs.sort();
        dirs
    }

    /// Remove every entry (all shards plus any flat-layout leftovers),
    /// and the per-shard `index` files that stores kept before entry
    /// mtimes became the last-used stamps. Caller holds the store lock.
    fn wipe_entries(&self) {
        let mut dirs = self.shard_dirs();
        dirs.push(self.root.clone());
        for dir in dirs {
            let Ok(rd) = fs::read_dir(&dir) else { continue };
            for entry in rd.flatten() {
                let p = entry.path();
                let ext = p.extension();
                if ext.is_some_and(|e| e == "h2r" || e == "bad" || e == "tmp")
                    || p.file_name().is_some_and(|n| n == "index")
                {
                    let _ = fs::remove_file(p);
                }
            }
        }
    }

    /// Load an entry, if present and intact. A damaged entry is
    /// quarantined (renamed to `*.bad`) and reads as a miss, so the
    /// caller re-executes and re-publishes a good entry over it.
    pub fn load(&self, key: u128) -> Option<RunReport> {
        self.load_with(key, LoadMode::Full)
    }

    /// [`ShardedStore::load`], reading only the sections of the entry that
    /// `mode` serves (see [`crate::persist`]). A section the load skips is
    /// checked by its length only: damage inside it, which serves nothing
    /// here, is left for the next load that reads it to find and
    /// quarantine. Telemetry shares the layouts of name blocks this handle
    /// has loaded before (the store's `LayoutMemo`). A hit whose entry's
    /// mtime is [`TOUCH_INTERVAL`] old or lies in the future sets it to
    /// now through the open handle, best-effort: a failed touch leaves the
    /// stamp as it was and the hit stands.
    pub fn load_with(&self, key: u128, mode: LoadMode) -> Option<RunReport> {
        let path = self.entry_path(key);
        let mut file = fs::File::open(&path).ok()?;
        match read_report(&mut file, &self.tag, mode, &self.layouts).ok()? {
            Some((report, meta)) => {
                // `None` for a stamp in the future, which `elapsed` rejects.
                let age = meta.modified().ok().and_then(|t| t.elapsed().ok());
                if age.is_none_or(|age| age >= TOUCH_INTERVAL) {
                    let _ = file.set_modified(SystemTime::now());
                }
                Some(report)
            }
            None => {
                let _ = fs::rename(&path, path.with_extension("bad"));
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publish an entry atomically: encode into a uniquely named temp
    /// file in the target shard, then rename into place. Concurrent
    /// writers of the same key race benignly — both publish complete,
    /// identical entries and the last rename wins. The shard lock is held
    /// across write+rename so a concurrent `gc` (which sweeps temp files
    /// under the same lock) can never delete an in-flight temp between
    /// the write and the rename. The write stamps the entry's mtime, its
    /// first last-used stamp.
    pub fn store(&self, key: u128, report: &RunReport) -> io::Result<()> {
        let bytes = encode_report(report, &self.tag);
        let shard = self.shard_dir(key);
        fs::create_dir_all(&shard)?;
        let _lock = acquire_lock(&shard.join(".lock"))?;
        let tmp = shard.join(format!(
            ".{key:032x}.{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, &bytes)?;
        let fault = *self.fault.lock().unwrap();
        if fault == CommitFault::DieBeforeRename {
            return Ok(()); // writer "died": temp abandoned, nothing published
        }
        fs::rename(&tmp, self.entry_path(key))?;
        if let CommitFault::TruncateTarget(n) = fault {
            let f = fs::OpenOptions::new().write(true).open(self.entry_path(key))?;
            f.set_len(n)?;
        }
        Ok(())
    }

    /// Number of intact-looking entries on disk (all shards).
    pub fn entries(&self) -> usize {
        self.shard_dirs()
            .iter()
            .filter_map(|d| fs::read_dir(d).ok())
            .flat_map(|rd| rd.flatten())
            .filter(|e| e.path().extension().is_some_and(|x| x == "h2r"))
            .count()
    }

    /// Store-wide counters for `h2 cache stats`.
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats::default();
        for dir in self.shard_dirs() {
            let Ok(rd) = fs::read_dir(&dir) else { continue };
            for entry in rd.flatten() {
                let p = entry.path();
                match p.extension().and_then(|e| e.to_str()) {
                    Some("h2r") => {
                        s.entries += 1;
                        s.bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
                    }
                    Some("bad") => s.quarantined += 1,
                    Some("tmp") => s.tmp_files += 1,
                    _ => {}
                }
            }
        }
        s
    }

    // --- eviction ---------------------------------------------------------

    /// Evict least-recently-used entries until the store holds at most
    /// `max_bytes` of entries, and sweep quarantined files plus temp
    /// files older than `tmp_ttl`. Recency is each entry's mtime, read
    /// from the shard listings.
    pub fn gc(&self, max_bytes: u64, tmp_ttl: Duration) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        // (mtime seconds, key, size): sortable LRU order, oldest first,
        // with the key as a deterministic tiebreak.
        let mut all: Vec<(u64, u128, u64)> = Vec::new();

        for shard in self.shard_dirs() {
            let _lock = acquire_lock(&shard.join(".lock"))?;
            for entry in fs::read_dir(&shard)?.flatten() {
                let p = entry.path();
                match p.extension().and_then(|e| e.to_str()) {
                    Some("h2r") => {
                        let Some(key) = p
                            .file_stem()
                            .and_then(|s| s.to_str())
                            .and_then(|s| u128::from_str_radix(s, 16).ok())
                        else {
                            continue;
                        };
                        let meta = entry.metadata()?;
                        let used = meta
                            .modified()
                            .ok()
                            .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                            .map_or(0, |d| d.as_secs());
                        all.push((used, key, meta.len()));
                    }
                    Some("bad") => {
                        let _ = fs::remove_file(&p);
                        report.bad_removed += 1;
                    }
                    Some("tmp") => {
                        let old = entry
                            .metadata()
                            .and_then(|m| m.modified())
                            .ok()
                            .and_then(|t| t.elapsed().ok())
                            .is_none_or(|age| age >= tmp_ttl);
                        if old {
                            let _ = fs::remove_file(&p);
                            report.tmp_removed += 1;
                        }
                    }
                    _ => {}
                }
            }
        }

        report.examined = all.len();
        report.bytes_before = all.iter().map(|&(_, _, s)| s).sum();
        report.bytes_after = report.bytes_before;
        if report.bytes_after <= max_bytes {
            return Ok(report);
        }

        all.sort_unstable();
        for &(_, key, size) in &all {
            if report.bytes_after <= max_bytes {
                break;
            }
            let _ = fs::remove_file(self.entry_path(key));
            report.evicted += 1;
            report.bytes_after -= size;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{Job, RunCache};
    use crate::persist::sections;
    use h2_system::{run_sim, PolicyKind, SystemConfig};
    use h2_trace::Mix;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("h2-shardstore-{}-{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample_report() -> RunReport {
        let mut cfg = SystemConfig::tiny();
        cfg.warmup_cycles = 50_000;
        cfg.measure_cycles = 100_000;
        run_sim(&cfg, &Mix::by_name("C1").unwrap(), PolicyKind::NoPart)
    }

    #[test]
    fn entries_land_in_key_prefix_shards() {
        let dir = tmp_dir("shards");
        let store = ShardedStore::open(&dir).unwrap();
        let r = sample_report();
        for key in [7u128, 0xabu128 << 120 | 7, u128::MAX] {
            store.store(key, &r).unwrap();
        }
        assert!(dir.join("00").join(format!("{:032x}.h2r", 7u128)).exists());
        assert!(dir.join("ab").join(format!("{:032x}.h2r", 0xabu128 << 120 | 7)).exists());
        assert!(dir.join("ff").join(format!("{:032x}.h2r", u128::MAX)).exists());
        assert_eq!(store.entries(), 3);
        assert!(store.load(0xabu128 << 120 | 7).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_entry_is_quarantined_not_served() {
        let dir = tmp_dir("quarantine");
        let store = ShardedStore::open(&dir).unwrap();
        store.store(9, &sample_report()).unwrap();
        let path = store.entry_path(9);
        fs::write(&path, b"garbage").unwrap();
        assert!(store.load(9).is_none());
        assert_eq!(store.quarantined(), 1);
        assert!(!path.exists(), "damaged entry moved out of the way");
        assert!(path.with_extension("bad").exists(), "damaged bytes kept for post-mortem");
        assert_eq!(store.stats().quarantined, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_sweeps_bad_and_stale_tmp_files() {
        let dir = tmp_dir("gc-sweep");
        let store = ShardedStore::open(&dir).unwrap();
        store.store(1, &sample_report()).unwrap();
        fs::write(store.shard_dir(1).join("junk.bad"), b"x").unwrap();
        fs::write(store.shard_dir(1).join(".orphan.1.2.tmp"), b"y").unwrap();
        let rep = store.gc(u64::MAX, Duration::ZERO).unwrap();
        assert_eq!((rep.bad_removed, rep.tmp_removed, rep.evicted), (1, 1, 0));
        assert_eq!(store.entries(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The mtime of `key`'s entry: its last-used stamp.
    fn stamp(store: &ShardedStore, key: u128) -> SystemTime {
        fs::metadata(store.entry_path(key)).and_then(|m| m.modified()).unwrap()
    }

    /// Set `key`'s last-used stamp to `age` ago through a read-only handle,
    /// as a load does, and return it as the file records it.
    fn backdate(store: &ShardedStore, key: u128, age: Duration) -> SystemTime {
        let file = fs::File::open(store.entry_path(key)).unwrap();
        file.set_modified(SystemTime::now() - age).unwrap();
        stamp(store, key)
    }

    #[test]
    fn gc_evicts_lru_until_under_budget() {
        let dir = tmp_dir("gc-lru");
        let store = ShardedStore::open(&dir).unwrap();
        let r = sample_report();
        store.store(1, &r).unwrap();
        store.store(2, &r).unwrap();
        store.store(3, &r).unwrap();
        // Backdate entries 1 and 2 so 3 is the most recent.
        backdate(&store, 1, Duration::from_secs(300));
        backdate(&store, 2, Duration::from_secs(200));
        let one = encode_len(&store, &r);
        let rep = store.gc(one + one / 2, Duration::from_secs(3600)).unwrap();
        assert_eq!(rep.examined, 3);
        assert_eq!(rep.evicted, 2, "two oldest entries evicted");
        assert!(rep.bytes_after <= one + one / 2);
        assert!(store.load(3).is_some(), "most recent entry survives");
        assert!(store.load(1).is_none());
        assert!(store.load(2).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_refreshed_entry_outlives_fresher_untouched_ones() {
        let dir = tmp_dir("gc-touch");
        let store = ShardedStore::open(&dir).unwrap();
        let r = sample_report();
        for key in 1..=3 {
            store.store(key, &r).unwrap();
        }
        // Entry 1 is the least recently used until a load refreshes it;
        // nothing touches 2 and 3 after they were written.
        let old = backdate(&store, 1, 2 * TOUCH_INTERVAL);
        backdate(&store, 2, Duration::from_secs(60));
        backdate(&store, 3, Duration::from_secs(60));
        assert!(store.load_with(1, LoadMode::Core).is_some());
        assert!(stamp(&store, 1) > old, "a load refreshes a stamp TOUCH_INTERVAL old");
        let one = encode_len(&store, &r);
        let rep = store.gc(one, Duration::from_secs(3600)).unwrap();
        assert_eq!(rep.evicted, 2, "the two untouched entries go");
        assert!(store.load(1).is_some(), "the refreshed entry survives");
        assert!(store.load(2).is_none() && store.load(3).is_none());
        // A stamp in the future would outlive every other: a load pulls it
        // back to now.
        let file = fs::File::open(store.entry_path(1)).unwrap();
        file.set_modified(SystemTime::now() + TOUCH_INTERVAL).unwrap();
        assert!(store.load_with(1, LoadMode::Core).is_some());
        assert!(stamp(&store, 1) <= SystemTime::now(), "a future stamp is refreshed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_reads_write_nothing() {
        let dir = tmp_dir("warm-read");
        let store = ShardedStore::open(&dir).unwrap();
        let r = sample_report();
        store.store(1, &r).unwrap();
        store.store(2, &r).unwrap();
        let recent = backdate(&store, 1, Duration::from_secs(60));
        backdate(&store, 2, TOUCH_INTERVAL);
        // A current store opens without its lock, which is held elsewhere
        // (taking it would wait until it counts as stale and break it).
        let warm = {
            let _held = acquire_lock(&dir.join(".store.lock")).unwrap();
            let warm = ShardedStore::open(&dir).unwrap();
            assert!(dir.join(".store.lock").exists(), "open left the held lock alone");
            warm
        };
        for mode in [LoadMode::Core, LoadMode::Spanless] {
            assert!(warm.load_with(1, mode).is_some(), "{mode:?}");
        }
        assert!(warm.load_with(2, LoadMode::Core).is_some());
        assert!(warm.load(1).is_some() && warm.load(2).is_some());
        assert_eq!(stamp(&store, 1), recent, "a recent stamp is left alone");
        let age = stamp(&store, 2).elapsed().expect("a stamp in the past");
        assert!(age < Duration::from_secs(60), "a stamp TOUCH_INTERVAL old is refreshed");
        let names: Vec<_> = fs::read_dir(store.shard_dir(1))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names.len(), 2, "the shard holds only its entries: {names:?}");
        assert!(names.iter().all(|n| n.ends_with(".h2r")), "{names:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_core_load_never_reads_the_sections_it_skips() {
        let dir = tmp_dir("skipped");
        let mut cfg = SystemConfig::tiny();
        cfg.warmup_cycles = 50_000;
        cfg.measure_cycles = 100_000;
        cfg.trace_sample = Some(8);
        let job = Job::new(&cfg, &Mix::by_name("C1").unwrap(), PolicyKind::HydrogenFull);
        let (key, report) = (job.key(), job.execute());
        assert!(report.telemetry.is_some());
        assert!(report.trace.as_ref().is_some_and(|t| !t.spans.is_empty()));
        let store = ShardedStore::open(&dir).unwrap();
        store.store(key, &report).unwrap();
        let path = store.entry_path(key);
        let mut bytes = fs::read(&path).unwrap();
        let [_, telemetry, spans] = sections(&bytes, &store.tag);
        bytes[telemetry.start..spans.end].fill(0xA5);
        fs::write(&path, &bytes).unwrap();

        // The core alone serves the same scalars, trace header and tenants.
        let core = store.load_with(key, LoadMode::Core).expect("a core load serves it");
        let mut want = RunReport { telemetry: None, ..report.clone() };
        want.trace.as_mut().unwrap().spans.clear();
        assert!(encode_report(&core, &store.tag) == encode_report(&want, &store.tag));
        assert_eq!(store.quarantined(), 0);
        assert!(path.exists(), "the entry stays in place");

        // `RunCache` reads the telemetry too: it quarantines the entry and
        // runs the job again.
        let mut cache = RunCache::with_disk_dir(&dir).unwrap();
        cache.run(&job);
        assert_eq!((cache.executed, cache.disk_hits), (1, 0));
        assert_eq!(cache.disk_store().unwrap().quarantined(), 1);
        assert!(path.with_extension("bad").exists());
        let republished = store.load(key).expect("the run is published again");
        assert_eq!(h2_check::diff_reports(&republished, &report), None);
        let _ = fs::remove_dir_all(&dir);
    }

    fn encode_len(store: &ShardedStore, r: &RunReport) -> u64 {
        encode_report(r, &store.tag).len() as u64
    }

    #[test]
    fn lock_files_are_exclusive_and_break_when_stale() {
        let dir = tmp_dir("locks");
        fs::create_dir_all(&dir).unwrap();
        let lock_path = dir.join(".lock");
        {
            let _g = acquire_lock(&lock_path).unwrap();
            assert!(lock_path.exists());
        }
        assert!(!lock_path.exists(), "guard drop releases the lock");
        // A fresh foreign lock blocks contenders until its owner drops it.
        fs::write(&lock_path, b"999999").unwrap();
        let contender = std::thread::spawn({
            let lock_path = lock_path.clone();
            move || acquire_lock(&lock_path)
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!contender.is_finished(), "fresh foreign lock blocks contenders");
        fs::remove_file(&lock_path).unwrap();
        drop(contender.join().unwrap().unwrap());
        // A foreign lock older than STALE_LOCK belongs to a dead owner: it
        // is broken at once, not waited out until LOCK_TIMEOUT.
        fs::write(&lock_path, b"999999").unwrap();
        let planted = fs::File::open(&lock_path).unwrap();
        planted.set_modified(SystemTime::now() - STALE_LOCK - Duration::from_secs(5)).unwrap();
        let t0 = std::time::Instant::now();
        let guard = acquire_lock(&lock_path).expect("a stale lock is broken");
        assert!(t0.elapsed() < Duration::from_secs(1), "took {:?}", t0.elapsed());
        let owner = fs::read_to_string(&lock_path).unwrap();
        assert_eq!(owner, std::process::id().to_string(), "the lock is ours now");
        drop(guard);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn layout_memo_keeps_the_most_recently_used_blocks() {
        let memo = LayoutMemo::default();
        let parse = |b: &[u8]| MetricLayout::from_names(&[std::str::from_utf8(b).ok()?], &[], &[]);
        let layout = |name: &str| memo.layout(name.as_bytes(), parse).unwrap();
        let (first, second) = (layout("m0"), layout("m1"));
        assert!(Arc::ptr_eq(&first, &layout("m0")), "a hit shares the layout");
        for i in 2..=LAYOUT_SLOTS {
            layout(&format!("m{i}"));
        }
        assert_eq!(memo.slots().len(), LAYOUT_SLOTS);
        assert!(Arc::ptr_eq(&first, &layout("m0")), "used since m1, so kept");
        assert!(!Arc::ptr_eq(&second, &layout("m1")), "the least recently used went");
    }

    #[test]
    fn die_before_rename_publishes_nothing() {
        let dir = tmp_dir("die");
        let store = ShardedStore::open(&dir).unwrap();
        store.set_commit_fault(CommitFault::DieBeforeRename);
        store.store(5, &sample_report()).unwrap();
        assert!(store.load(5).is_none(), "no entry published");
        assert_eq!(store.stats().tmp_files, 1, "abandoned temp left behind");
        store.set_commit_fault(CommitFault::None);
        store.store(5, &sample_report()).unwrap();
        assert!(store.load(5).is_some());
        let rep = store.gc(u64::MAX, Duration::ZERO).unwrap();
        assert_eq!(rep.tmp_removed, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
