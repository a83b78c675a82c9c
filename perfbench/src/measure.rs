//! Measurement plumbing shared by the workloads: the kernel timing adapter,
//! order statistics, process memory, the stream-copy calibration and the
//! machine stamp.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use aiac_core::kernel::{BlockUpdate, DependencyView, InPlaceUpdate, IterativeKernel};

// ---------------------------------------------------------------------------
// Kernel timing adapter
// ---------------------------------------------------------------------------

/// Number of counter slots; threads spread over them so concurrent workers
/// do not bounce one cache line.
const SLOTS: usize = 16;

#[derive(Default)]
#[repr(align(128))]
struct Slot {
    calls: AtomicU64,
    nanos: AtomicU64,
    bytes: AtomicU64,
}

thread_local! {
    static SLOT_INDEX: usize = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) as usize % SLOTS
    };
}

/// Accumulates kernel calls, busy time and computed bytes across threads.
#[derive(Default)]
pub struct KernelProbe {
    slots: [Slot; SLOTS],
}

/// What a [`KernelProbe`] accumulated.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTotals {
    /// Block updates executed.
    pub calls: u64,
    /// Wall time spent inside block updates, summed over threads.
    pub busy_secs: f64,
    /// Bytes the updates must touch, computed from array sizes.
    pub computed_bytes: f64,
}

impl KernelTotals {
    /// Component-wise sum.
    pub fn plus(self, other: KernelTotals) -> KernelTotals {
        KernelTotals {
            calls: self.calls + other.calls,
            busy_secs: self.busy_secs + other.busy_secs,
            computed_bytes: self.computed_bytes + other.computed_bytes,
        }
    }
}

impl KernelProbe {
    /// A probe with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    fn record(&self, nanos: u64, bytes: u64) {
        let slot = &self.slots[SLOT_INDEX.with(|i| *i)];
        slot.calls.fetch_add(1, Ordering::Relaxed);
        slot.nanos.fetch_add(nanos, Ordering::Relaxed);
        slot.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// The totals so far.
    pub fn totals(&self) -> KernelTotals {
        let mut t = KernelTotals::default();
        for slot in &self.slots {
            t.calls += slot.calls.load(Ordering::Relaxed);
            t.busy_secs += slot.nanos.load(Ordering::Relaxed) as f64 * 1e-9;
            t.computed_bytes += slot.bytes.load(Ordering::Relaxed) as f64;
        }
        t
    }
}

/// An [`IterativeKernel`] that forwards every call to `inner` and times the
/// block updates into a [`KernelProbe`]. `bytes_per_update[b]` is the
/// number of bytes one update of block `b` must read or write, computed from
/// the sizes of the arrays it touches.
pub struct TimedKernel<'a> {
    inner: &'a dyn IterativeKernel,
    probe: &'a KernelProbe,
    bytes_per_update: Vec<u64>,
}

impl<'a> TimedKernel<'a> {
    /// Wraps `inner`.
    pub fn new(
        inner: &'a dyn IterativeKernel,
        probe: &'a KernelProbe,
        bytes_per_update: Vec<u64>,
    ) -> Self {
        assert_eq!(bytes_per_update.len(), inner.num_blocks());
        Self {
            inner,
            probe,
            bytes_per_update,
        }
    }
}

impl IterativeKernel for TimedKernel<'_> {
    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn block_len(&self, block: usize) -> usize {
        self.inner.block_len(block)
    }

    fn initial_block(&self, block: usize) -> Vec<f64> {
        self.inner.initial_block(block)
    }

    fn dependencies(&self, block: usize) -> Vec<usize> {
        self.inner.dependencies(block)
    }

    fn update_block(&self, block: usize, local: &[f64], others: &DependencyView) -> BlockUpdate {
        let start = Instant::now();
        let update = self.inner.update_block(block, local, others);
        self.probe.record(
            start.elapsed().as_nanos() as u64,
            self.bytes_per_update[block],
        );
        update
    }

    fn update_block_into(
        &self,
        block: usize,
        local: &[f64],
        others: &DependencyView,
        out: &mut [f64],
    ) -> InPlaceUpdate {
        let start = Instant::now();
        let update = self.inner.update_block_into(block, local, others, out);
        self.probe.record(
            start.elapsed().as_nanos() as u64,
            self.bytes_per_update[block],
        );
        update
    }

    fn iteration_cost(&self, block: usize) -> f64 {
        self.inner.iteration_cost(block)
    }

    fn message_bytes(&self, from: usize, to: usize) -> u64 {
        self.inner.message_bytes(from, to)
    }

    fn residual_between(&self, block: usize, a: &[f64], b: &[f64]) -> f64 {
        self.inner.residual_between(block, a, b)
    }

    fn sync_collectives_per_iteration(&self) -> usize {
        self.inner.sync_collectives_per_iteration()
    }

    fn total_len(&self) -> usize {
        self.inner.total_len()
    }

    fn assemble(&self, blocks: &[Vec<f64>]) -> Vec<f64> {
        self.inner.assemble(blocks)
    }
}

/// Bytes one update must touch when it reads its own block and every
/// dependency block once and writes its own block once: the floor for any
/// kernel, used where no finer array accounting applies.
pub fn block_io_bytes(kernel: &dyn IterativeKernel) -> Vec<u64> {
    (0..kernel.num_blocks())
        .map(|b| {
            let deps: usize = kernel
                .dependencies(b)
                .iter()
                .map(|&d| kernel.block_len(d))
                .sum();
            (8 * (2 * kernel.block_len(b) + deps)) as u64
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, interpolating linearly between
/// order statistics. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Runs `round` until `budget` is spent: at least `min_rounds` times, and
/// no further round once the elapsed time plus the median round so far
/// would overshoot the budget.
pub fn run_rounds(budget: Duration, min_rounds: usize, mut round: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        let done = walls.len();
        if done >= min_rounds {
            let projected = start.elapsed().as_secs_f64() + median(&walls);
            if projected > budget.as_secs_f64() {
                return done;
            }
        }
        let t = Instant::now();
        round(done);
        walls.push(t.elapsed().as_secs_f64());
    }
}

/// Times `setup` `reps` times in batches of `batch` calls and returns the
/// median per-call time of the batches together with the last product.
pub fn time_setup<T>(reps: usize, batch: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    assert!(reps > 0 && batch > 0);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..batch {
            last = Some(std::hint::black_box(setup()));
        }
        times.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    (median(&times), last.expect("at least one setup ran"))
}

// ---------------------------------------------------------------------------
// Process memory
// ---------------------------------------------------------------------------

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim()
            .trim_end_matches("kB")
            .trim()
            .parse::<f64>()
            .ok()
    })
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM").unwrap_or(f64::NAN) / 1024.0
}

/// CPU time (user + system, every thread) this process has used, in
/// seconds, at the kernel's 10 ms accounting granularity (USER_HZ = 100).
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, the 12th and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<f64> = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    if fields.len() == 2 {
        (fields[0] + fields[1]) / 100.0
    } else {
        f64::NAN
    }
}

/// Current resident set size of this process (VmRSS), in MiB.
pub fn rss_mb() -> f64 {
    status_kib("VmRSS").unwrap_or(f64::NAN) / 1024.0
}

// ---------------------------------------------------------------------------
// Machine facts and the stream-copy calibration
// ---------------------------------------------------------------------------

/// One CPU cache as sysfs describes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Cache {
    /// 1, 2, 3, ...
    pub level: u32,
    /// `Data`, `Instruction` or `Unified`.
    pub kind: String,
    /// Size in bytes.
    pub bytes: u64,
}

fn parse_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, scale) = match t.chars().last()? {
        'K' => (&t[..t.len() - 1], 1024),
        'M' => (&t[..t.len() - 1], 1024 * 1024),
        'G' => (&t[..t.len() - 1], 1024 * 1024 * 1024),
        _ => (t, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

/// The caches of CPU 0, from sysfs (empty where sysfs is unavailable).
pub fn caches() -> Vec<Cache> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        if let (Ok(level), Some(bytes)) = (level.trim().parse(), parse_size(&size)) {
            out.push(Cache {
                level,
                kind: kind.trim().to_string(),
                bytes,
            });
        }
    }
    out
}

/// Size of the last-level cache in bytes (32 MiB when sysfs does not say).
pub fn llc_bytes() -> u64 {
    caches()
        .iter()
        .filter(|c| c.kind != "Instruction")
        .max_by_key(|c| (c.level, c.bytes))
        .map_or(32 << 20, |c| c.bytes)
}

/// The CPU model name from /proc/cpuinfo.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Result of the stream-copy calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamCopy {
    /// Copy bandwidth in GB/s, counting the bytes read plus the bytes
    /// written (the STREAM convention), median of the repetitions.
    pub gbps: f64,
    /// Size of each of the two arrays, in bytes.
    pub array_bytes: u64,
}

/// Measures copy bandwidth between two arrays whose combined size is
/// `total_bytes`, `reps` times, and returns the median.
pub fn stream_copy(total_bytes: u64, reps: usize) -> StreamCopy {
    let len = (total_bytes / 2 / 8) as usize;
    let src: Vec<f64> = (0..len).map(|i| i as f64).collect();
    let mut dst = vec![1.0f64; len];
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        times.push(t.elapsed().as_secs_f64());
        std::hint::black_box(&mut dst);
    }
    assert_eq!(dst[len - 1], (len - 1) as f64, "stream copy lost data");
    let bytes = 2.0 * (len * 8) as f64;
    StreamCopy {
        gbps: bytes / median(&times) / 1e9,
        array_bytes: (len * 8) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn cache_sizes_parse_with_suffixes() {
        assert_eq!(parse_size("300M\n"), Some(300 << 20));
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn run_rounds_honours_the_minimum_and_the_budget() {
        let n = run_rounds(Duration::from_millis(0), 3, |_| {});
        assert_eq!(n, 3);
        let n = run_rounds(Duration::from_millis(30), 1, |_| {
            std::thread::sleep(Duration::from_millis(5))
        });
        assert!((1..=7).contains(&n), "{n} rounds");
    }
}
