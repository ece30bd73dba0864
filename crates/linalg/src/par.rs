//! Deterministic fork-join parallel substrate.
//!
//! Every parallel kernel in the workspace is built from the helpers in
//! this module, and all of them obey one contract: **results are
//! bit-identical at any thread count**. The trick is never "parallel
//! reduction with whatever order the scheduler picks"; it is
//!
//! 1. **fixed-chunk partitioning** — the iteration space is split into
//!    contiguous, ascending ranges, each owned by exactly one worker, so
//!    every output element is written by exactly one thread;
//! 2. **unchanged per-element arithmetic** — each output element's own
//!    accumulation loop (ascending `k`, ascending panel, …) is the same
//!    instruction sequence the sequential code runs, so partitioning
//!    cannot reassociate floating point;
//! 3. **fixed-order reduction** — when a single winner must be picked
//!    from per-chunk results (multi-start optimization, argmax), the
//!    fold walks chunks in ascending index order with the same strict
//!    comparison the sequential loop uses.
//!
//! `threads == 1` short-circuits to the plain sequential loop in every
//! helper, so single-threaded runs execute the exact pre-existing code
//! paths.
//!
//! # Thread-count resolution
//!
//! The effective worker count flows from (highest to lowest precedence):
//! [`set_global_threads`] (the `cets --threads <n>` flag), the
//! `CETS_THREADS` environment variable, then
//! [`std::thread::available_parallelism`] (fail-soft to 1). Structured
//! configs ([`ParConfig`]) either pin a fixed count or defer to that
//! global resolution.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Thread-count policy carried by configuration structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// Defer to the process-wide resolution (`--threads`, `CETS_THREADS`,
    /// then detected parallelism).
    Auto,
    /// Use exactly this many workers (clamped to at least 1).
    Fixed(usize),
}

/// Parallelism configuration embedded in `GpConfig` / `MethodologyConfig`
/// and handed down to the linalg kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    /// Worker-count policy.
    pub threads: Threads,
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig {
            threads: Threads::Auto,
        }
    }
}

impl ParConfig {
    /// A config pinned to exactly `n` workers.
    pub fn fixed(n: usize) -> Self {
        ParConfig {
            threads: Threads::Fixed(n.max(1)),
        }
    }

    /// Resolve to a concrete worker count (always ≥ 1).
    pub fn resolve(&self) -> usize {
        match self.threads {
            Threads::Auto => global_threads(),
            Threads::Fixed(n) => n.max(1),
        }
    }
}

/// 0 = not yet resolved; any other value is the cached/overridden count.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Detected hardware parallelism, failing soft to 1.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn detect_threads() -> usize {
    match std::env::var("CETS_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => available_threads(),
        },
        Err(_) => available_threads(),
    }
}

/// The process-wide worker count: an explicit [`set_global_threads`]
/// override if one was made, else `CETS_THREADS`, else detected hardware
/// parallelism (fail-soft 1). The environment is read once and cached.
pub fn global_threads() -> usize {
    let cur = GLOBAL_THREADS.load(Ordering::Relaxed);
    if cur != 0 {
        return cur;
    }
    let n = detect_threads();
    // A racing first call computes the same value; last store wins.
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
    n
}

/// Override the process-wide worker count (the `cets --threads <n>`
/// flag). Clamped to at least 1.
pub fn set_global_threads(n: usize) {
    GLOBAL_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Split `0..n` into at most `workers` contiguous ascending ranges of
/// `ceil(n / workers)` elements (the last may be short). Empty when
/// `n == 0`.
pub fn chunk_ranges(n: usize, workers: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let chunk = n.div_ceil(workers.max(1));
    let mut out = Vec::with_capacity(n.div_ceil(chunk));
    let mut lo = 0;
    while lo < n {
        let hi = (lo + chunk).min(n);
        out.push(lo..hi);
        lo = hi;
    }
    out
}

/// Split `0..n` into at most `workers` contiguous ascending ranges whose
/// *triangular* weights (row `i` costs `i + 1`) are approximately equal —
/// the right partition for lower-triangle sweeps (SYRK trailing updates,
/// Gram-matrix rows), where equal-length chunks would leave the last
/// worker with ~2× the flops. Empty when `n == 0`.
pub fn triangular_ranges(n: usize, workers: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let w = workers.max(1).min(n);
    let mut out = Vec::with_capacity(w);
    let mut lo = 0;
    for k in 1..=w {
        // Boundary at n·√(k/w): the prefix 0..b holds ~b²/2 of the n²/2
        // total weight.
        let hi = if k == w {
            n
        } else {
            ((n as f64) * (k as f64 / w as f64).sqrt()).round() as usize
        }
        .clamp(lo, n);
        if hi > lo {
            out.push(lo..hi);
            lo = hi;
        }
    }
    out
}

/// Run `body` once per range, on scoped threads when there are two or
/// more ranges and inline otherwise.
///
/// The caller guarantees that `body` touches disjoint state for disjoint
/// ranges; under that contract the result is bit-identical to the
/// sequential sweep whenever `body` performs per-element independent
/// arithmetic.
pub fn for_each_range<F>(ranges: Vec<Range<usize>>, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if ranges.len() <= 1 {
        if let Some(r) = ranges.into_iter().next() {
            body(r);
        }
        return;
    }
    std::thread::scope(|scope| {
        for r in ranges {
            let body = &body;
            scope.spawn(move || body(r));
        }
    });
}

/// Run `body(range)` over fixed equal-length chunks of `0..n`, on scoped
/// threads when `workers > 1` and inline otherwise (see
/// [`for_each_range`] for the disjointness contract).
pub fn for_each_chunk<F>(workers: usize, n: usize, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    if workers <= 1 || n == 1 {
        body(0..n);
        return;
    }
    for_each_range(chunk_ranges(n, workers), body);
}

/// Map `task` over `0..n` and collect results in index order, running
/// fixed chunks on scoped threads when `workers > 1`.
///
/// `workers <= 1` is a plain sequential loop. Because each index owns its
/// slot and the output is assembled in ascending order, any fold the
/// caller performs over the returned `Vec` is a fixed-order reduction.
pub fn map_indexed<T, F>(workers: usize, n: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || n <= 1 {
        return (0..n).map(task).collect();
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(workers.min(n));
    std::thread::scope(|scope| {
        for (ci, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
            let task = &task;
            scope.spawn(move || {
                for (k, slot) in slot_chunk.iter_mut().enumerate() {
                    *slot = Some(task(ci * chunk + k));
                }
            });
        }
    });
    // Every slot is filled by construction (the chunks cover 0..n).
    slots.into_iter().flatten().collect()
}

/// A raw `*mut f64` that may cross thread boundaries.
///
/// Used by kernels whose natural partition does not map onto disjoint
/// slices (trailing Cholesky rows overlap the panel they read; solve
/// columns interleave in row-major storage) but whose *writes* are
/// provably disjoint across workers.
///
/// # Safety contract (on the user, not the constructor)
///
/// Callers must guarantee that for the duration of the scoped-thread
/// region (a) every element is written by at most one worker, and
/// (b) no worker reads an element another worker writes. All reads of
/// shared (never-written) regions are fine.
#[derive(Clone, Copy)]
pub struct SendPtr(*mut f64);

unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Wrap a pointer for use inside a scoped-thread region.
    pub fn new(p: *mut f64) -> Self {
        SendPtr(p)
    }

    /// The wrapped pointer. All dereferences must respect the type-level
    /// safety contract above.
    pub fn get(&self) -> *mut f64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangular_ranges_cover_and_balance() {
        for n in [0usize, 1, 5, 48, 500] {
            for w in [1usize, 2, 4, 7] {
                let rs = triangular_ranges(n, w);
                let mut next = 0;
                for r in &rs {
                    assert_eq!(r.start, next, "n={n} w={w}");
                    assert!(r.end > r.start);
                    next = r.end;
                }
                assert_eq!(next, n);
                assert!(rs.len() <= w);
            }
        }
        // Triangular weights are roughly equal: for n=500, w=4 the first
        // chunk must be much longer than the last.
        let rs = triangular_ranges(500, 4);
        assert_eq!(rs.len(), 4);
        assert!(rs[0].len() > rs[3].len());
    }

    #[test]
    fn chunk_ranges_cover_and_ascend() {
        for n in [0usize, 1, 2, 7, 48, 100] {
            for w in [1usize, 2, 3, 4, 9] {
                let rs = chunk_ranges(n, w);
                assert!(rs.len() <= w.max(1));
                let mut next = 0;
                for r in &rs {
                    assert_eq!(r.start, next, "n={n} w={w}");
                    assert!(r.end > r.start);
                    next = r.end;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn map_indexed_preserves_order() {
        for w in [1usize, 2, 3, 8] {
            let got = map_indexed(w, 10, |i| i * i);
            assert_eq!(got, (0..10).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(map_indexed(4, 0, |i| i).is_empty());
    }

    #[test]
    fn for_each_chunk_writes_every_element_once() {
        for w in [1usize, 2, 5] {
            let n = 37;
            let mut hits = vec![0u8; n];
            let ptr = SendPtr::new(hits.as_mut_ptr() as *mut f64);
            // Reuse SendPtr machinery with a u8 buffer by going through
            // the raw address; each worker owns a disjoint range.
            let addr = ptr.get() as *mut u8;
            let shared = SendPtr::new(addr as *mut f64);
            for_each_chunk(w, n, |r| {
                let base = shared.get() as *mut u8;
                for i in r {
                    // SAFETY: ranges are disjoint, so element i is
                    // written by exactly one worker.
                    unsafe { *base.add(i) += 1 };
                }
            });
            assert!(hits.iter().all(|&h| h == 1), "w={w}");
        }
    }

    #[test]
    fn par_config_resolution() {
        assert_eq!(ParConfig::fixed(0).resolve(), 1);
        assert_eq!(ParConfig::fixed(3).resolve(), 3);
        let auto = ParConfig::default();
        assert!(auto.resolve() >= 1);
    }

    #[test]
    fn set_global_threads_overrides() {
        // Serialized against other tests touching the global by the
        // uniqueness of the value used.
        let before = global_threads();
        set_global_threads(5);
        assert_eq!(global_threads(), 5);
        assert_eq!(ParConfig::default().resolve(), 5);
        set_global_threads(before);
    }
}
