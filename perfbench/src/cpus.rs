//! Placing a stage's two busy threads on a CPU each, so neither waits for
//! the other's time slice. Unpinned on a 2-vCPU host, wire p50 was bimodal
//! across runs (13 vs 25 µs), and the update stage's apply + publish time
//! and read rate moved 2-fold between runs.

/// A thread's CPU affinity mask (`cpu_set_t`, 1024 CPUs).
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable `cpu_set_t`-sized buffer and the size
    // passed is its size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set.0[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Restrict the calling thread to `cpus`; threads it spawns inherit it.
fn pin(cpus: &[usize]) {
    let mut set = CpuSet([0; 16]);
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        set.0[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a valid `cpu_set_t`-sized buffer that the call only
    // reads; pid 0 names the calling thread. A failure leaves the
    // affinity unchanged, which only costs measurement steadiness.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set);
    }
}

/// Two CPUs of their own for two busy threads, when there are two.
pub struct Placement {
    all: Vec<usize>,
    first: Option<usize>,
    second: Option<usize>,
}

impl Placement {
    pub fn new() -> Self {
        let all = allowed_cpus();
        let (first, second) = match all[..] {
            [a, b, ..] => (Some(a), Some(b)),
            _ => (None, None),
        };
        Placement { all, first, second }
    }

    /// Run `f` on the first CPU; threads it spawns stay there.
    pub fn on_first<T>(&self, f: impl FnOnce() -> T) -> T {
        self.on(self.first, f)
    }

    /// Run `f` on the second CPU; threads it spawns stay there.
    pub fn on_second<T>(&self, f: impl FnOnce() -> T) -> T {
        self.on(self.second, f)
    }

    fn on<T>(&self, cpu: Option<usize>, f: impl FnOnce() -> T) -> T {
        let Some(cpu) = cpu else { return f() };
        pin(&[cpu]);
        let out = f();
        pin(&self.all);
        out
    }
}
