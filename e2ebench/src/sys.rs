//! Process-level measurements and the run's scratch directory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicIsize, Ordering};

/// The global allocator: `System`, plus a count of the heap held in
/// allocations of at least [`COUNTED_MIN`] bytes.
///
/// Peak RSS was tried first and proved too noisy for a regression bound:
/// what earlier threads and runs left in the allocator's arenas moves a
/// run's resident peak by up to a tenth from seed to seed. Counting the
/// bytes a run allocates and frees measures the footprint itself.
pub struct CountingAlloc;

/// Smaller allocations are not counted: they are most of the calls but
/// little of the footprint, and skipping them keeps the shared counters
/// off the pool threads' hot path.
const COUNTED_MIN: usize = 4096;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grew(size: usize) {
    if size >= COUNTED_MIN {
        let size = size as isize;
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        if live > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

fn shrank(size: usize) {
    if size >= COUNTED_MIN {
        LIVE.fetch_sub(size as isize, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees about `layout` carry over.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees about `layout` carry over.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator,
        // which is `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`
        // is valid for `layout`'s alignment.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        moved
    }
}

/// Runs `f` and returns its result and the most counted heap, in MiB,
/// that it held at once beyond what was live when it started (threads it
/// spawned included).
pub fn peak_heap_growth<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed);
    (out, (peak - base) as f64 / (1024.0 * 1024.0))
}

/// A directory for the sinks and checkpoints of one run, next to the
/// benchmark executable (inside the build directory), removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates a fresh, empty scratch directory named after `tag` and
    /// this process.
    pub fn new(tag: &str) -> io::Result<Scratch> {
        let exe = std::env::current_exe()?;
        let parent = exe
            .parent()
            .ok_or_else(|| io::Error::other("executable has no parent directory"))?;
        let dir = parent.join(format!("e2ebench-scratch-{}-{tag}", std::process::id()));
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Size of the file at `path` in bytes (0 when it does not exist).
pub fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map_or(0, |m| m.len())
}
