//! Process and host readings from `/proc`: CPU time split into user and
//! system, peak resident memory, kernel release and the filesystem a
//! path lives on; and confinement of the process to one CPU.

use std::path::Path;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, 100 on every Linux architecture the repository targets).
const USER_HZ: f64 = 100.0;

/// Cumulative CPU time of the whole process, dead threads included.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

impl Cpu {
    /// Time spent between `earlier` and `self`.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    /// The sum of two spans of CPU time.
    pub fn plus(self, other: Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s + other.user_s,
            sys_s: self.sys_s + other.sys_s,
        }
    }

    /// User plus system seconds.
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Parse the `utime` and `stime` fields (14 and 15) of a
/// `/proc/<pid>/stat` line. The command name (field 2) sits in
/// parentheses and may itself hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat(line: &str) -> Option<Cpu> {
    let rest = &line[line.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Cpu {
        user_s: utime as f64 / USER_HZ,
        sys_s: stime as f64 / USER_HZ,
    })
}

/// This process's CPU time so far.
pub fn cpu() -> Cpu {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .expect("/proc/self/stat must hold utime and stime")
}

/// The `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in MiB.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident memory of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_peak_rss_mb(&s))
        .expect("/proc/self/status must hold VmHWM")
}

/// The kernel release (`uname -r`).
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The filesystem type of the mount holding `path`: the longest mount
/// point of `/proc/mounts` that prefixes its canonical form.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, kind)| kind)
        .unwrap_or_else(|| "unknown".into())
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A `cpu_set_t` of glibc: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The highest-numbered CPU set in `mask`.
fn last_cpu(mask: &CpuSet) -> Option<usize> {
    (0..mask.len() * 64)
        .rev()
        .find(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
}

/// Confine the calling thread, and every thread it starts from now on,
/// to the highest-numbered CPU it may run on. Returns that CPU, or
/// `None` when the affinity could not be read or set.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and `size`
    // is its length in bytes.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return None;
    }
    let cpu = last_cpu(&mask)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads `one`.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    (set == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "4242 (a b) c)) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    250 75 0 0 20 0 9 0 12345 1000000 500 18446744073709551615";
        let cpu = parse_stat(line).expect("well-formed line");
        assert_eq!(cpu.user_s, 2.5);
        assert_eq!(cpu.sys_s, 0.75);
        assert_eq!(cpu.total_s(), 3.25);
        assert!(parse_stat("4242 (truncated) S 1 2").is_none());
        assert!(parse_stat("no parenthesis").is_none());
    }

    #[test]
    fn cpu_since_subtracts_both_modes() {
        let a = Cpu {
            user_s: 1.0,
            sys_s: 0.5,
        };
        let b = Cpu {
            user_s: 3.0,
            sys_s: 0.75,
        };
        assert_eq!(
            b.since(a),
            Cpu {
                user_s: 2.0,
                sys_s: 0.25
            }
        );
    }

    #[test]
    fn live_readers_see_this_process() {
        let before = cpu();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = cpu().since(before);
        assert!(
            spent.total_s() >= 0.02,
            "60 ms of spinning read as {spent:?}"
        );
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn last_cpu_of_a_mask() {
        let mut mask: CpuSet = [0; 16];
        assert_eq!(last_cpu(&mask), None);
        mask[0] = 0b101;
        assert_eq!(last_cpu(&mask), Some(2));
        mask[1] = 1 << 3;
        assert_eq!(last_cpu(&mask), Some(67));
    }

    #[test]
    fn pinned_thread_sees_one_cpu() {
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("a thread may narrow its own affinity");
            assert_eq!(nproc(), 1, "pinned to cpu {cpu}");
            let child = std::thread::spawn(nproc).join().unwrap();
            assert_eq!(child, 1, "threads started after the pin inherit it");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn status_peak_rss() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(2.0));
        assert_eq!(parse_peak_rss_mb("Name:\tx\n"), None);
    }
}
