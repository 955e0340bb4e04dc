//! Live heap bytes per record of a loaded log, counted by a global
//! allocator.
//!
//! The binary holds one test, so nothing else allocates while it measures.
//! It loads a 10k-record blocked log (eight features a record) three ways:
//! pushed record by record, parsed from JSON, and reopened from a snapshot.
//! After each load it counts the bytes still allocated for the log: its
//! records, their features, the id index and the catalogs.

use perfxplain::snapshot;
use perfxplain::ExecutionLog;
use perfxplain_bench::synthetic::blocked_log_with_group_metrics;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes currently allocated.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method passes its arguments unchanged to `System` and
// returns what `System` returned, so `System`'s guarantees hold; the count
// is a statistic that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: usize = 10_000;

/// The most live heap a loaded record may take, in bytes.
const MAX_BYTES_PER_RECORD: f64 = 600.0;

/// Live heap bytes per record of the log `load` returns.
fn bytes_per_record(load: impl FnOnce() -> ExecutionLog) -> f64 {
    let before = LIVE.load(Ordering::Relaxed);
    let log = load();
    let after = LIVE.load(Ordering::Relaxed);
    assert_eq!(log.len(), ROWS);
    (after - before) as f64 / ROWS as f64
}

#[test]
fn a_loaded_record_takes_at_most_600_heap_bytes() {
    let dir = std::env::temp_dir().join(format!("px_record_memory_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let source = blocked_log_with_group_metrics(ROWS, 10, 1, 3);
    snapshot::persist(&source, &dir, 2).unwrap();
    let json = source.to_json().unwrap();
    drop(source);
    // The first open starts the shared worker pool; its threads stay.
    drop(snapshot::open(&dir).unwrap());

    let pushed = bytes_per_record(|| blocked_log_with_group_metrics(ROWS, 10, 1, 3));
    let parsed = bytes_per_record(|| ExecutionLog::from_json(&json).unwrap());
    let reopened = bytes_per_record(|| snapshot::open(&dir).unwrap().to_log());
    std::fs::remove_dir_all(&dir).unwrap();

    println!("B/record: pushed {pushed:.0}, parsed {parsed:.0}, reopened {reopened:.0}");
    for (path, bytes) in [
        ("push", pushed),
        ("from_json", parsed),
        ("snapshot open", reopened),
    ] {
        assert!(
            bytes <= MAX_BYTES_PER_RECORD,
            "{path}: {bytes:.0} B/record, at most {MAX_BYTES_PER_RECORD} allowed"
        );
    }
}
