//! CPU time, the clock the compute-bound metrics are read from, and the
//! reference kernel that measures how fast the host runs right now.
//!
//! On a shared host the wall time of a compute-bound call also counts the
//! time its threads waited for a CPU (the hypervisor's steal, other
//! tenants). CPU time counts only the time they ran. It still depends on
//! how fast the host runs the code it is given, which drifts by a third
//! over minutes as other guests come and go; [`reference_s`] measures
//! that speed so the figures can be scaled to a fixed one.

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call; both
    // clock ids used here are constants every Linux kernel supports.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds this process has used so far, every thread included (live
/// ones and those that have exited).
pub fn process_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Side of the reference kernel's matrices, and the words of the table it
/// gathers from (16 MiB, larger than the caches, as the program's feature
/// and adjacency arrays are).
const REF_N: usize = 96;
const REF_TABLE: usize = 1 << 22;
/// Reference passes per probe: about 58 ms of CPU on the host the bounds
/// were set on.
const REF_PASSES: usize = 16;

/// The host's speed, measured by probes of a fixed reference kernel that
/// the benchmark takes between its stages.
pub struct Reference {
    table: Vec<u32>,
    probes_ms: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Allocates the gather table; takes no probe.
    pub fn new() -> Self {
        Self {
            table: (0..REF_TABLE as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
            probes_ms: Vec::new(),
        }
    }

    /// Takes one probe: the calling thread's CPU milliseconds for
    /// `REF_PASSES` passes of the reference kernel.
    pub fn probe(&mut self) {
        let t = clock_s(CLOCK_THREAD_CPUTIME_ID);
        for _ in 0..REF_PASSES {
            reference_pass(&self.table);
        }
        self.probes_ms
            .push((clock_s(CLOCK_THREAD_CPUTIME_ID) - t) * 1e3);
    }

    /// Mean CPU milliseconds of a probe so far; NaN before the first.
    pub fn mean_ms(&self) -> f64 {
        self.probes_ms.iter().sum::<f64>() / self.probes_ms.len() as f64
    }

    /// Every probe taken so far, CPU milliseconds, in order.
    pub fn probes_ms(&self) -> &[f64] {
        &self.probes_ms
    }
}

/// One pass of the reference kernel: dense f32 products, random gathers
/// from a large table, and a fresh 4 MiB buffer written once, the kinds of
/// work the program does (its kernels allocate their outputs, and a buffer
/// this large comes straight from the kernel, page fault by page fault).
/// It lives in the benchmark, so no change to the program can change it.
fn reference_pass(table: &[u32]) {
    let mut fresh = vec![0u8; 1 << 22];
    for page in fresh.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&fresh);
    drop(fresh);
    let a: Vec<f32> = (0..REF_N * REF_N)
        .map(|i| (i % 17) as f32 * 0.125)
        .collect();
    let mut c = vec![0f32; REF_N * REF_N];
    for _ in 0..4 {
        for i in 0..REF_N {
            for k in 0..REF_N {
                let aik = std::hint::black_box(a[i * REF_N + k]);
                for j in 0..REF_N {
                    c[i * REF_N + j] += aik * a[k * REF_N + j];
                }
            }
        }
    }
    let mut at = 0usize;
    let mut acc = 0u32;
    for _ in 0..(1 << 18) {
        at = (at
            .wrapping_mul(1_103_515_245)
            .wrapping_add(table[at] as usize + 12_345))
            % table.len();
        acc = acc.wrapping_add(table[at]);
    }
    std::hint::black_box((c[REF_N + 1], acc));
}

/// CPU seconds of `/proc/<pid>/stat` (user + system, in clock ticks of
/// 1/100 s): another process's CPU time.
pub fn other_process_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
    Some(ticks / 100.0)
}

/// Runs `f` and returns its result with the process CPU seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = process_s();
    let out = f();
    (out, process_s() - t)
}

/// `(steal, total)` CPU ticks from `/proc/stat`: the share of CPU time the
/// hypervisor gave to other guests.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let v: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (v.get(7).copied().unwrap_or(0), v.iter().sum())
}
