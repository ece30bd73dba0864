//! Working memory of GP training.
//!
//! A counting global allocator records the peak live heap while
//! [`Gp::train`] runs at one worker. Each L-BFGS restart needs the kernel
//! matrix, its inverse, the Cholesky factor and the packed pair slopes,
//! about 3.5·n² doubles; the bound allows 4.5·n² doubles plus `O(n·d)` for
//! the inputs, so any working buffer of `O(n²)` doubles per input
//! dimension fails it. [`SparseGp::train`] at n = 300, d = 20 gets a fixed
//! byte bound for the same reason.
//!
//! The allocator counts every thread of this test binary, so this file
//! holds a single test.

use cets_gp::{Gp, GpConfig, ParConfig, SparseGp};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// [`System`] with a live-byte count and its high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live bytes `f` adds on top of what was live when it started.
fn peak_bytes(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    f();
    PEAK.load(Relaxed) - base
}

fn dataset(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.random::<f64>()).collect())
        .collect();
    let y = x
        .iter()
        .map(|v| (3.0 * v[0]).sin() + v[d - 1] * v[d / 2] + 0.05 * rng.random::<f64>())
        .collect();
    (x, y)
}

/// Most bytes [`SparseGp::train`] may hold at n = 300, d = 20 with the
/// default 48 inducing points (the m × n cross block alone is 115 KB).
const SPARSE_N300_D20_BOUND: usize = 480 * 1024;

#[test]
fn training_working_memory_is_bounded() {
    const F64: usize = std::mem::size_of::<f64>();
    let mut report = Vec::new();
    let mut over = false;
    for (n, d) in [(50, 5), (95, 10), (125, 20)] {
        let (x, y) = dataset(n, d, n as u64);
        let cfg = GpConfig {
            seed: n as u64,
            par: ParConfig::fixed(1),
            ..GpConfig::default()
        };
        let peak = peak_bytes(|| {
            Gp::train(&x, &y, &cfg).unwrap();
        });
        let bound = (9 * n * n / 2 + 8 * n * d) * F64;
        over |= peak >= bound;
        report.push(format!(
            "Gp::train n = {n}, d = {d}: {peak} B = {:.2}·n² doubles (bound {bound} B)",
            peak as f64 / (n * n * F64) as f64
        ));
    }
    let (x, y) = dataset(300, 20, 300);
    let cfg = GpConfig {
        seed: 300,
        par: ParConfig::fixed(1),
        ..GpConfig::default()
    };
    let peak = peak_bytes(|| {
        SparseGp::train(&x, &y, &cfg).unwrap();
    });
    over |= peak >= SPARSE_N300_D20_BOUND;
    report.push(format!(
        "SparseGp::train n = 300, d = 20: {peak} B (bound {SPARSE_N300_D20_BOUND} B)"
    ));
    let report = report.join("\n");
    println!("{report}");
    assert!(!over, "peak live heap over its bound:\n{report}");
}
