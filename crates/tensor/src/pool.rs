//! Size-bucketed, thread-local buffer recycling for [`Matrix`] storage.
//!
//! The define-by-run autograd graph is rebuilt every iteration, so every
//! forward/backward pass used to pay one heap allocation per op — and the
//! allocator's page-zeroing on fresh pages dominated the elementwise hot
//! path once the matmul kernels were parallelized. This module recycles
//! those buffers instead:
//!
//! - Allocation requests round **up** to a power-of-two bucket
//!   (≥ [`MIN_BUCKET`] elements) and are served from a per-thread free list
//!   for that bucket when possible.
//! - Dropping a [`PoolVec`] returns the buffer to its bucket's free list
//!   (bounded per bucket; overflow buffers are freed normally).
//! - Results are **bitwise identical** with the pool on or off: a recycled
//!   buffer is either explicitly zero/value-filled or handed out as scratch
//!   that every kernel fully overwrites before reading.
//!
//! Control surface:
//!
//! - `AUTOAC_POOL=0` (also `false` / `off`) disables recycling process-wide
//!   and restores plain exact-size allocation — the escape hatch for memory
//!   debugging and for A/B benchmarks across processes.
//! - [`with_pool`] scopes an override on the current thread (used by parity
//!   tests and the in-process allocation benchmark).
//! - [`stats_snapshot`] / [`stats_reset`] expose hit/miss/bytes-recycled
//!   counters (relaxed atomics — negligible cost next to an allocation);
//!   `stats_reset` swaps each counter to zero and returns what it cleared,
//!   so phase-delimited measurements ([`crate::pool`] benchmarks, the obs
//!   layer's per-epoch hit-rate series) never lose events to a
//!   read-then-zero window.
//!
//! In debug builds, buffers are poisoned with a NaN pattern when they enter
//! the free list, so any aliasing bug (a buffer handed to two live
//! matrices, or a read of recycled memory that was never overwritten)
//! surfaces as loud NaNs instead of silent corruption.
//!
//! Under `AUTOAC_CHECK` (see [`crate::chk`]) the poisoning upgrades to a
//! **provenance sanitizer**: every pooled buffer carries a generation
//! counter and a record of the op that allocated and released it, free-listed
//! buffers get [`CANARY`] words at both ends, and a write through a stale
//! pointer (use-after-release) or a second release of the same buffer
//! (double-release) produces a deterministic [`PoolViolation`] report naming
//! both ops — a panic outside tests, a captured value inside
//! [`capture_pool_violations`].
//!
//! The free lists are thread-local on purpose: the autograd tape is
//! single-threaded, kernels only parallelize *inside* an op (worker threads
//! never allocate matrices), and a thread-local `RefCell` costs no atomics
//! on the alloc/free fast path.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::chk;

/// Smallest bucket, in `f32` elements. Requests below this still get a
/// `MIN_BUCKET`-element buffer (256 bytes — small enough not to matter,
/// large enough to keep the bucket table compact).
pub const MIN_BUCKET: usize = 64;

const MIN_BUCKET_LOG2: u32 = MIN_BUCKET.trailing_zeros();

/// Largest pooled bucket: 2^27 elements = 512 MiB. Larger requests fall
/// through to plain allocation — they are rare, and holding them alive in a
/// free list would pin too much memory.
const MAX_BUCKET_LOG2: u32 = 27;

/// At most this many free buffers are retained per bucket per thread;
/// further returns are freed normally.
const MAX_FREE_PER_BUCKET: usize = 128;

/// Byte budget that shrinks the per-bucket retention cap for large buckets
/// (a 64 MiB bucket keeps at most 16 buffers, not 128). Together with
/// [`MAX_FREE_PER_BUCKET`] this bounds worst-case held memory per bucket.
const MAX_FREE_BYTES_PER_BUCKET: usize = 1024 * 1024 * 1024;

/// Retention cap for one bucket: count-limited for small buckets,
/// byte-limited for large ones, but never below 16 — a GNN layer's
/// forward+backward keeps a dozen-odd edge-sized buffers in flight, and
/// missing on one of those costs precisely the mmap/fault churn the pool
/// exists to avoid.
fn free_cap(bucket: usize) -> usize {
    (MAX_FREE_BYTES_PER_BUCKET / (bucket * std::mem::size_of::<f32>()))
        .clamp(16, MAX_FREE_PER_BUCKET)
}

/// Debug-build poison written over buffers entering the free list: a quiet
/// NaN with a recognizable payload. Any kernel that reads pooled memory it
/// never wrote propagates NaNs and fails the numeric tests immediately.
pub const POISON: f32 = f32::from_bits(0x7FC0_DEAD);

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static BYTES_RECYCLED: AtomicU64 = AtomicU64::new(0);

/// Counts one pool event in `global`. Test builds also count it in this
/// thread's [`tests::thread_stats`], which tests read: the global counters
/// move with every test allocating in parallel.
fn count(global: &AtomicU64, n: u64, field: fn(&mut PoolStats) -> &mut u64) {
    global.fetch_add(n, Ordering::Relaxed);
    #[cfg(test)]
    tests::THREAD_STATS.with(|c| {
        let mut s = c.get();
        *field(&mut s) += n;
        c.set(s);
    });
    #[cfg(not(test))]
    let _ = field;
}

/// Snapshot of the pool's global counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from a free list.
    pub hits: u64,
    /// Allocations that had to go to the system allocator (pool enabled but
    /// the bucket's free list was empty).
    pub misses: u64,
    /// Total bytes returned to free lists over the process lifetime.
    pub bytes_recycled: u64,
}

impl PoolStats {
    /// Fraction of allocations served from the pool (0 when none recorded).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Reads the global counters without disturbing them. The three loads are
/// individually relaxed, so a snapshot taken while other threads allocate
/// is approximate across fields — callers that need read-and-zero
/// coherence use [`stats_reset`].
pub fn stats_snapshot() -> PoolStats {
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        bytes_recycled: BYTES_RECYCLED.load(Ordering::Relaxed),
    }
}

/// Zeroes the global counters and returns exactly the values that were
/// cleared. Each counter is taken with an atomic `swap`, so an increment
/// can never land in the window between "read" and "zero" and vanish —
/// every event is attributed to exactly one measurement interval. This is
/// what `bench_alloc` and the obs layer use to delimit phases.
pub fn stats_reset() -> PoolStats {
    PoolStats {
        hits: HITS.swap(0, Ordering::Relaxed),
        misses: MISSES.swap(0, Ordering::Relaxed),
        bytes_recycled: BYTES_RECYCLED.swap(0, Ordering::Relaxed),
    }
}

/// Reads the global counters. Alias for [`stats_snapshot`], kept for
/// existing callers.
pub fn stats() -> PoolStats {
    stats_snapshot()
}

/// Zeroes the global counters, discarding their values. Prefer
/// [`stats_reset`] when the cleared values matter.
pub fn reset_stats() {
    let _ = stats_reset();
}

fn env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("AUTOAC_POOL") {
        // Strict: a typo like AUTOAC_POOL=offf must abort, not silently
        // leave the pool on (it used to — any unrecognized value enabled).
        Ok(raw) => chk::parse_bool_env("AUTOAC_POOL", &raw)
            .unwrap_or_else(|e| panic!("autoac-tensor: {e}")),
        Err(_) => true,
    })
}

thread_local! {
    /// Scoped override installed by [`with_pool`]; `None` defers to the env.
    static OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };

    static FREE_LISTS: RefCell<Vec<Vec<Vec<f32>>>> = RefCell::new(Vec::new());
}

/// Whether buffer recycling is active on this thread right now.
pub fn enabled() -> bool {
    OVERRIDE.with(Cell::get).unwrap_or_else(env_enabled)
}

/// Runs `f` with recycling forced on/off on this thread, restoring the
/// previous setting afterwards (also on panic). Matrices allocated in one
/// mode may be dropped in the other; both directions are safe (a pooled
/// buffer dropped with the pool off is simply freed, a plain buffer dropped
/// with the pool on is not bucket-shaped and is freed too).
pub fn with_pool<T>(on: bool, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<bool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(on))));
    f()
}

/// Frees every buffer held by this thread's free lists (e.g. between
/// benchmark phases, or after a memory-heavy stage). Also forgets all
/// sanitizer provenance records: the freed addresses may be reused by the
/// system allocator, and a stale record would misattribute a fresh buffer.
pub fn trim() {
    FREE_LISTS.with(|p| p.borrow_mut().clear());
    SANITIZER.with(|s| s.borrow_mut().bufs.clear());
}

/// Bucket size (in elements) for a request of `len` elements.
#[inline]
fn bucket_for(len: usize) -> usize {
    len.next_power_of_two().max(MIN_BUCKET)
}

/// Free-list slot for a bucket size, or `None` when the size is not a
/// bucket the pool manages (not a power of two, below [`MIN_BUCKET`], or
/// above the `MAX_BUCKET_LOG2` cap). The power-of-two and lower-bound
/// checks matter: `trailing_zeros` of e.g. `96` is 5, and `5 -
/// MIN_BUCKET_LOG2` would wrap to a huge index that quietly bypasses the
/// free lists (`pop_free`'s `get_mut` hides it) or, worse, makes
/// `push_free` resize the list vector to that index.
#[inline]
fn bucket_index(bucket: usize) -> Option<usize> {
    if !bucket.is_power_of_two() {
        return None;
    }
    let log2 = bucket.trailing_zeros();
    (MIN_BUCKET_LOG2..=MAX_BUCKET_LOG2).contains(&log2).then(|| (log2 - MIN_BUCKET_LOG2) as usize)
}

/// Pops a recycled buffer for `bucket`, if any.
fn pop_free(bucket: usize) -> Option<Vec<f32>> {
    let idx = bucket_index(bucket)?;
    FREE_LISTS.with(|p| p.borrow_mut().get_mut(idx)?.pop())
}

/// Pushes a fully-initialized buffer (len == capacity == bucket) onto its
/// free list; drops it if the list is full or the bucket is out of range.
/// Returns whether the buffer was retained (kept alive in the free list).
fn push_free(buf: Vec<f32>) -> bool {
    debug_assert_eq!(buf.len(), buf.capacity());
    let Some(idx) = bucket_index(buf.capacity()) else { return false };
    let bytes = (buf.capacity() * std::mem::size_of::<f32>()) as u64;
    let kept = FREE_LISTS.with(|p| {
        let mut lists = p.borrow_mut();
        if lists.len() <= idx {
            lists.resize_with(idx + 1, Vec::new);
        }
        if lists[idx].len() < free_cap(buf.capacity()) {
            lists[idx].push(buf);
            true
        } else {
            false
        }
    });
    if kept {
        count(&BYTES_RECYCLED, bytes, |s| &mut s.bytes_recycled);
    }
    kept
}

// ---------------------------------------------------------------------------
// Provenance sanitizer (armed by AUTOAC_CHECK; see crate::chk).
// ---------------------------------------------------------------------------

/// Canary word written at both ends of a free-listed buffer in check mode.
/// A quiet NaN, like [`POISON`], but with a distinct payload so a report can
/// tell "stale read of poison" from "canary intact".
pub const CANARY: f32 = f32::from_bits(0x7FC0_CA4A);

/// What the pool sanitizer caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolViolationKind {
    /// A buffer sitting in the free list was written through a stale
    /// pointer (its canary words were smashed between release and reuse).
    UseAfterRelease,
    /// A buffer already in the free list was released a second time via an
    /// aliasing owner. The aliased copy is quarantined (leaked), never freed.
    DoubleRelease,
}

/// A deterministic report from the pool provenance sanitizer.
#[derive(Debug, Clone)]
pub struct PoolViolation {
    /// Which hazard was detected.
    pub kind: PoolViolationKind,
    /// Bucket size of the buffer, in `f32` elements.
    pub bucket: usize,
    /// How many times this buffer had been recycled when the hazard fired.
    pub generation: u64,
    /// Op context that (re)allocated the buffer / observed the hazard,
    /// e.g. `matmul` or `matmul [backward]`.
    pub alloc_op: String,
    /// Op context that released the buffer into the free list.
    pub release_op: String,
}

impl std::fmt::Display for PoolViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.kind {
            PoolViolationKind::UseAfterRelease => "use-after-release",
            PoolViolationKind::DoubleRelease => "double-release",
        };
        write!(
            f,
            "pool sanitizer: {what} on a {}-element buffer (generation {}): \
             released by `{}`, detected at `{}`",
            self.bucket, self.generation, self.release_op, self.alloc_op
        )
    }
}

/// Per-buffer provenance, keyed by the heap base address.
struct BufRecord {
    generation: u64,
    /// True while the buffer sits in the free list (canaries written).
    freed: bool,
    alloc_op: String,
    release_op: String,
}

struct SanState {
    bufs: HashMap<usize, BufRecord>,
    /// `Some` while a [`capture_pool_violations`] scope is active.
    capture: Option<Vec<PoolViolation>>,
}

thread_local! {
    static SANITIZER: RefCell<SanState> =
        RefCell::new(SanState { bufs: HashMap::new(), capture: None });
}

/// Routes a violation: captured when a test scope is active, fatal otherwise
/// (so an `AUTOAC_CHECK=1` run fails loudly on the first real hazard).
fn san_report(v: PoolViolation) {
    let fatal = SANITIZER.with(|s| {
        let mut st = s.borrow_mut();
        match st.capture.as_mut() {
            Some(out) => {
                out.push(v.clone());
                false
            }
            None => true,
        }
    });
    if fatal {
        // analyze:allow(panic, a detected pool violation outside a capture scope must abort; continuing would serve freed memory)
        panic!("autoac-check: {v}");
    }
}

/// Runs `f` with pool-sanitizer violations captured instead of fatal, and
/// returns them alongside `f`'s result. Nests: the inner scope's violations
/// do not leak into the outer one.
pub fn capture_pool_violations<T>(f: impl FnOnce() -> T) -> (T, Vec<PoolViolation>) {
    let prev = SANITIZER.with(|s| s.borrow_mut().capture.replace(Vec::new()));
    struct Restore(Option<Vec<PoolViolation>>);
    // Restores on panic too, so a poisoned capture scope cannot leak into
    // later tests on the same thread.
    impl Drop for Restore {
        fn drop(&mut self) {
            SANITIZER.with(|s| s.borrow_mut().capture = self.0.take());
        }
    }
    let mut restore = Restore(prev);
    let out = f();
    let captured = SANITIZER
        .with(|s| std::mem::replace(&mut s.borrow_mut().capture, restore.0.take()))
        .unwrap_or_default();
    std::mem::forget(restore);
    (out, captured)
}

/// Records a buffer freshly obtained from the system allocator (or adopted
/// via `from_vec`). Overwrites any stale record at the same address — the
/// allocator may legitimately reuse addresses once buffers leave the pool.
fn san_on_fresh(ptr: usize) {
    SANITIZER.with(|s| {
        let mut st = s.borrow_mut();
        let gen = st.bufs.get(&ptr).map_or(0, |r| r.generation);
        st.bufs.insert(
            ptr,
            BufRecord {
                generation: gen,
                freed: false,
                alloc_op: chk::op_context(),
                release_op: String::new(),
            },
        );
    });
}

/// Verifies canaries on a buffer popped from the free list and flips its
/// record to live. `v` still has `len == capacity` here — the canaries sit
/// at the first and last element of the full bucket.
fn san_on_reuse(v: &[f32]) {
    let ptr = v.as_ptr() as usize;
    let cap = v.len();
    let violation = SANITIZER.with(|s| {
        let mut st = s.borrow_mut();
        match st.bufs.get_mut(&ptr) {
            Some(rec) if rec.freed => {
                let intact = v[0].to_bits() == CANARY.to_bits()
                    && v[cap - 1].to_bits() == CANARY.to_bits();
                rec.freed = false;
                rec.generation += 1;
                rec.alloc_op = chk::op_context();
                (!intact).then(|| PoolViolation {
                    kind: PoolViolationKind::UseAfterRelease,
                    bucket: cap,
                    generation: rec.generation,
                    alloc_op: rec.alloc_op.clone(),
                    release_op: rec.release_op.clone(),
                })
            }
            // Released before checks were armed (no canaries written):
            // adopt it as live without judging its contents.
            _ => {
                st.bufs.insert(
                    ptr,
                    BufRecord {
                        generation: 1,
                        freed: false,
                        alloc_op: chk::op_context(),
                        release_op: String::new(),
                    },
                );
                None
            }
        }
    });
    if let Some(v) = violation {
        san_report(v);
    }
}

/// True when the sanitizer believes this address is currently in the free
/// list — releasing it again would alias.
fn san_is_freed(ptr: usize) -> bool {
    SANITIZER.with(|s| s.borrow().bufs.get(&ptr).is_some_and(|r| r.freed))
}

/// Marks a buffer as released into the free list (`kept`) or evicted back
/// to the system allocator (record dropped — the address may be reused).
fn san_on_release(ptr: usize, kept: bool) {
    SANITIZER.with(|s| {
        let mut st = s.borrow_mut();
        if !kept {
            st.bufs.remove(&ptr);
            return;
        }
        let ctx = chk::op_context();
        match st.bufs.get_mut(&ptr) {
            Some(rec) => {
                rec.freed = true;
                rec.release_op = ctx;
            }
            None => {
                st.bufs.insert(
                    ptr,
                    BufRecord {
                        generation: 0,
                        freed: true,
                        alloc_op: String::new(),
                        release_op: ctx,
                    },
                );
            }
        }
    });
}

/// Drops the provenance record for a buffer escaping the pool (`into_vec`).
fn san_untrack(ptr: usize) {
    SANITIZER.with(|s| {
        s.borrow_mut().bufs.remove(&ptr);
    });
}

/// Test hook: simulates a use-after-release — a stale pointer writes into a
/// buffer that already went back to the free list, and the next allocation
/// from that bucket detects the smashed canary. Must run with the pool and
/// `AUTOAC_CHECK` armed, inside [`capture_pool_violations`].
#[doc(hidden)]
pub fn seed_use_after_release_for_tests() {
    assert!(enabled() && chk::enabled(), "seed requires pool + checks armed");
    let _op = chk::op_scope("uar_fixture");
    let mut a = PoolVec::zeroed(MIN_BUCKET);
    let ptr = a.vec.as_mut_ptr();
    drop(a); // buffer enters the free list, canaried at both ends
    // SAFETY: the allocation is still alive (owned by the thread-local free
    // list), so the write is to valid memory; it deliberately models the bug
    // class this fixture exists to trigger: a stale alias writing after free.
    unsafe { ptr.write(0.0) };
    let _b = PoolVec::zeroed(MIN_BUCKET); // pops the same buffer → detected
}

/// Test hook: simulates a double-release — an aliasing `Vec` over a buffer
/// already in the free list is dropped as if it owned the memory. The
/// sanitizer flags it and quarantines (leaks) the alias instead of letting
/// the free list hold the same address twice. Must run with the pool and
/// `AUTOAC_CHECK` armed, inside [`capture_pool_violations`].
#[doc(hidden)]
pub fn seed_double_release_for_tests() {
    assert!(enabled() && chk::enabled(), "seed requires pool + checks armed");
    let _op = chk::op_scope("dr_fixture");
    let a = PoolVec::zeroed(MIN_BUCKET);
    let ptr = a.vec.as_ptr() as *mut f32;
    drop(a); // first (legitimate) release
    // SAFETY for the test's purposes only: this deliberately constructs an
    // aliasing owner over free-listed memory; the sanitizer must quarantine
    // it before any real double-free can happen.
    let alias = unsafe { Vec::from_raw_parts(ptr, MIN_BUCKET, MIN_BUCKET) };
    drop(PoolVec { vec: alias, recyclable: true }); // second release → flagged
}

/// Heap buffer behind [`Matrix`]: a `Vec<f32>` that returns itself to the
/// thread-local pool on drop when it is bucket-shaped.
///
/// Invariant for recyclable buffers: the entire capacity was initialized at
/// least once (bucket allocations are created with `vec![0.0; bucket]`), so
/// growing `len` back up to `capacity` with `set_len` is sound — the bytes
/// are always valid `f32`s, merely stale.
pub(crate) struct PoolVec {
    vec: Vec<f32>,
    /// Whether the full capacity is known-initialized and bucket-shaped.
    recyclable: bool,
}

impl PoolVec {
    /// A buffer of `len` elements with **unspecified contents** (stale data
    /// from a previous matrix, or poison in debug builds). Every element is
    /// a valid `f32`; callers must fully overwrite before exposing the
    /// matrix, both for determinism and to keep pool-on/off bitwise equal.
    pub(crate) fn scratch(len: usize) -> Self {
        if len == 0 {
            return Self { vec: Vec::new(), recyclable: false };
        }
        if !enabled() {
            return Self { vec: vec![0.0; len], recyclable: false };
        }
        let bucket = bucket_for(len);
        if let Some(mut v) = pop_free(bucket) {
            count(&HITS, 1, |s| &mut s.hits);
            if chk::enabled() {
                san_on_reuse(&v); // canaries are at the full-bucket ends
            }
            // SAFETY: recycled buffers are fully initialized up to capacity
            // (see the type invariant) and `len <= bucket == capacity`.
            unsafe { v.set_len(len) };
            return Self { vec: v, recyclable: true };
        }
        count(&MISSES, 1, |s| &mut s.misses);
        let mut v = vec![0.0f32; bucket]; // initialize the whole bucket once
        v.truncate(len);
        let recyclable = bucket_index(bucket).is_some();
        if recyclable && chk::enabled() {
            san_on_fresh(v.as_ptr() as usize);
        }
        Self { vec: v, recyclable }
    }

    /// A zero-filled buffer of `len` elements.
    pub(crate) fn zeroed(len: usize) -> Self {
        Self::filled(len, 0.0)
    }

    /// A `value`-filled buffer of `len` elements.
    pub(crate) fn filled(len: usize, value: f32) -> Self {
        if len != 0 && !enabled() {
            // Bypass `scratch` so the disabled path pays exactly one
            // allocation-time fill (for zeros, `vec!` lowers to the
            // allocator's zeroed path), not a fill over a fresh buffer.
            return Self { vec: vec![value; len], recyclable: false };
        }
        let mut out = Self::scratch(len);
        out.vec.fill(value);
        out
    }

    /// A buffer for *accumulating* kernels. Returns the buffer plus `true`
    /// when its contents are already all-zero (fresh allocations come from
    /// the allocator's zeroed path); `false` means the caller must clear
    /// each output row before accumulating into it. Recycled buffers take
    /// the second form so the clear merges into the kernel's first pass
    /// over each row — where the lines are cache-warm — instead of a
    /// separate sweep over the whole buffer.
    pub(crate) fn accum_scratch(len: usize) -> (Self, bool) {
        if len == 0 || !enabled() {
            return (Self::zeroed(len), true);
        }
        let bucket = bucket_for(len);
        if let Some(mut v) = pop_free(bucket) {
            count(&HITS, 1, |s| &mut s.hits);
            if chk::enabled() {
                san_on_reuse(&v);
            }
            // SAFETY: recycled buffers are fully initialized up to capacity
            // (see the type invariant) and `len <= bucket == capacity`.
            unsafe { v.set_len(len) };
            return (Self { vec: v, recyclable: true }, false);
        }
        count(&MISSES, 1, |s| &mut s.misses);
        let mut v = vec![0.0f32; bucket];
        v.truncate(len);
        let recyclable = bucket_index(bucket).is_some();
        if recyclable && chk::enabled() {
            san_on_fresh(v.as_ptr() as usize);
        }
        (Self { vec: v, recyclable }, true)
    }

    /// Adopts a caller-provided vector without copying. The buffer is
    /// recyclable only if it happens to be exactly bucket-shaped and fully
    /// initialized (`len == capacity`, a power of two ≥ [`MIN_BUCKET`]).
    pub(crate) fn from_vec(vec: Vec<f32>) -> Self {
        let cap = vec.capacity();
        let recyclable = vec.len() == cap
            && cap >= MIN_BUCKET
            && cap.is_power_of_two()
            && bucket_index(cap).is_some();
        if recyclable && enabled() && chk::enabled() {
            san_on_fresh(vec.as_ptr() as usize);
        }
        Self { vec, recyclable }
    }

    /// Extracts the underlying vector; the buffer escapes the pool.
    pub(crate) fn into_vec(mut self) -> Vec<f32> {
        if self.recyclable && chk::enabled() && self.vec.capacity() != 0 {
            san_untrack(self.vec.as_ptr() as usize);
        }
        std::mem::take(&mut self.vec) // the drained self drops as a no-op
    }
}

impl Drop for PoolVec {
    fn drop(&mut self) {
        if !self.recyclable || self.vec.capacity() == 0 || !enabled() {
            // Plain free. Forget any provenance record: the system allocator
            // may hand this address out again for an unrelated buffer.
            if self.recyclable && self.vec.capacity() != 0 && chk::enabled() {
                san_untrack(self.vec.as_ptr() as usize);
            }
            return;
        }
        let mut v = std::mem::take(&mut self.vec);
        // SAFETY: recyclable ⇒ the full capacity was initialized (type
        // invariant), so restoring len == capacity is sound.
        unsafe { v.set_len(v.capacity()) };
        if chk::enabled() {
            let ptr = v.as_ptr() as usize;
            if san_is_freed(ptr) {
                // An aliasing owner is releasing a buffer that is already in
                // the free list. Quarantine the alias (leak it) — pushing it
                // would make the pool hand the same memory out twice.
                let release_op = SANITIZER.with(|s| {
                    s.borrow()
                        .bufs
                        .get(&ptr)
                        .map_or_else(String::new, |r| r.release_op.clone())
                });
                let bucket = v.capacity();
                std::mem::forget(v);
                san_report(PoolViolation {
                    kind: PoolViolationKind::DoubleRelease,
                    bucket,
                    generation: 0,
                    alloc_op: chk::op_context(),
                    release_op,
                });
                return;
            }
            let len = v.len();
            v.fill(POISON);
            v[0] = CANARY;
            v[len - 1] = CANARY;
            let kept = push_free(v);
            san_on_release(ptr, kept);
            return;
        }
        #[cfg(debug_assertions)]
        v.fill(POISON);
        push_free(v);
    }
}

impl std::ops::Deref for PoolVec {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        &self.vec
    }
}

impl std::ops::DerefMut for PoolVec {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.vec
    }
}

impl Clone for PoolVec {
    fn clone(&self) -> Self {
        let mut out = Self::scratch(self.vec.len());
        out.vec.copy_from_slice(&self.vec);
        out
    }
}

impl PartialEq for PoolVec {
    fn eq(&self, other: &Self) -> bool {
        self.vec == other.vec
    }
}

impl std::fmt::Debug for PoolVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.vec.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// [`HITS`]/[`MISSES`]/[`BYTES_RECYCLED`], for this thread's events.
        pub(super) static THREAD_STATS: Cell<PoolStats> =
            const { Cell::new(PoolStats { hits: 0, misses: 0, bytes_recycled: 0 }) };
    }

    /// This thread's pool events since it started.
    fn thread_stats() -> PoolStats {
        THREAD_STATS.with(Cell::get)
    }

    #[test]
    fn buckets_round_up_to_powers_of_two() {
        assert_eq!(bucket_for(1), MIN_BUCKET);
        assert_eq!(bucket_for(64), 64);
        assert_eq!(bucket_for(65), 128);
        assert_eq!(bucket_for(1000), 1024);
    }

    #[test]
    fn bucket_index_pins_both_range_edges() {
        assert_eq!(bucket_index(MIN_BUCKET), Some(0));
        assert_eq!(bucket_index(1 << MAX_BUCKET_LOG2), Some((MAX_BUCKET_LOG2 - MIN_BUCKET_LOG2) as usize));
        // One past either edge is out of range, not a wrapped index.
        assert_eq!(bucket_index(MIN_BUCKET / 2), None);
        assert_eq!(bucket_index(1 << (MAX_BUCKET_LOG2 + 1)), None);
    }

    #[test]
    fn bucket_index_rejects_non_bucket_sizes() {
        // `trailing_zeros` alone would map 96 (tz = 5) below
        // MIN_BUCKET_LOG2 and wrap the subtraction; such sizes must be
        // reported as unmanaged instead.
        assert_eq!(bucket_index(96), None);
        assert_eq!(bucket_index(3), None);
        assert_eq!(bucket_index(0), None);
        assert_eq!(bucket_index((1 << MAX_BUCKET_LOG2) + (1 << 5)), None);
    }

    #[test]
    fn recycled_buffer_is_reused() {
        with_pool(true, || {
            trim();
            let a = PoolVec::zeroed(100);
            let ptr = a.as_ptr();
            drop(a);
            let b = PoolVec::zeroed(80); // same 128-bucket
            assert_eq!(b.as_ptr(), ptr, "bucket must be recycled");
            assert!(b.iter().all(|&v| v == 0.0), "zeroed must re-zero recycled memory");
        });
    }

    #[test]
    fn disabled_pool_never_recycles() {
        with_pool(false, || {
            trim();
            let before = thread_stats();
            let a = PoolVec::zeroed(100);
            drop(a);
            let _b = PoolVec::zeroed(100);
            let after = thread_stats();
            assert_eq!(before, after, "disabled pool must not touch counters");
        });
    }

    #[test]
    fn stats_count_hits_and_misses() {
        with_pool(true, || {
            trim();
            let before = thread_stats();
            let a = PoolVec::scratch(256);
            drop(a);
            let b = PoolVec::scratch(256);
            let after = thread_stats();
            assert_eq!(after.misses - before.misses, 1);
            assert_eq!(after.hits - before.hits, 1);
            assert!(after.bytes_recycled > before.bytes_recycled);
            drop(b);
        });
    }

    #[test]
    fn stats_reset_attributes_every_event_to_one_interval() {
        with_pool(true, || {
            trim();
            // At least three misses on this thread (distinct buckets, all
            // free lists empty after trim).
            let bufs: Vec<_> = (0..3).map(|i| PoolVec::scratch(64 << i)).collect();
            drop(bufs);
            // Swap-based reset: across consecutive resets, the cleared
            // values must account for all events — none lost to a window
            // between read and zero. (>= because sibling tests may add.)
            let r1 = stats_reset();
            let r2 = stats_reset();
            assert!(
                r1.misses + r2.misses >= 3,
                "events lost across reset: {} + {}",
                r1.misses,
                r2.misses
            );
            // snapshot/stats are non-destructive aliases of each other.
            let s1 = stats_snapshot();
            let s2 = stats();
            assert!(s2.hits >= s1.hits && s2.misses >= s1.misses);
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    fn freed_buffers_are_poisoned() {
        with_pool(true, || {
            trim();
            let a = PoolVec::filled(64, 1.5);
            drop(a);
            let b = PoolVec::scratch(64);
            assert!(
                b.iter().all(|v| v.to_bits() == POISON.to_bits()),
                "scratch from the free list must carry the poison pattern"
            );
        });
    }

    #[test]
    fn sanitizer_is_silent_on_clean_recycling() {
        with_pool(true, || {
            crate::chk::with_check(true, || {
                trim();
                let ((), violations) = capture_pool_violations(|| {
                    for _ in 0..4 {
                        let a = PoolVec::zeroed(100);
                        drop(a);
                        let b = PoolVec::scratch(100);
                        drop(b);
                    }
                });
                assert!(violations.is_empty(), "clean recycling flagged: {violations:?}");
            });
        });
    }

    #[test]
    fn sanitizer_catches_seeded_use_after_release() {
        with_pool(true, || {
            crate::chk::with_check(true, || {
                trim();
                let ((), violations) = capture_pool_violations(|| {
                    let _op = crate::chk::op_scope("uar_fixture");
                    seed_use_after_release_for_tests();
                });
                assert_eq!(violations.len(), 1, "{violations:?}");
                let v = &violations[0];
                assert_eq!(v.kind, PoolViolationKind::UseAfterRelease);
                assert_eq!(v.bucket, MIN_BUCKET);
                assert_eq!(v.release_op, "uar_fixture", "must name the releasing op");
                assert_eq!(v.alloc_op, "uar_fixture", "must name the reallocating op");
                trim();
            });
        });
    }

    #[test]
    fn sanitizer_catches_seeded_double_release() {
        with_pool(true, || {
            crate::chk::with_check(true, || {
                trim();
                let ((), violations) = capture_pool_violations(|| {
                    let _op = crate::chk::op_scope("dr_fixture");
                    seed_double_release_for_tests();
                });
                assert_eq!(violations.len(), 1, "{violations:?}");
                let v = &violations[0];
                assert_eq!(v.kind, PoolViolationKind::DoubleRelease);
                assert_eq!(v.release_op, "dr_fixture");
                trim();
            });
        });
    }

    #[test]
    fn adopted_vec_roundtrips() {
        let v: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let p = PoolVec::from_vec(v.clone());
        assert_eq!(&*p, &v[..]);
        assert_eq!(p.into_vec(), v);
    }

    #[test]
    fn oversized_requests_fall_through() {
        // One element past the largest bucket: plain allocation, no pooling.
        let len = (1usize << MAX_BUCKET_LOG2) + 1;
        let b = PoolVec { vec: Vec::with_capacity(0), recyclable: false };
        drop(b);
        assert!(bucket_index(bucket_for(len)).is_none());
    }
}
