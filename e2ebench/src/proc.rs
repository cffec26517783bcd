//! Running the `decisive` binary the way a user does: spawned, timed from
//! spawn to exit, and accounted for memory.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// The `decisive` binary built next to this harness (`run.sh` builds both
/// into one target directory).
pub fn decisive_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let exe = me.with_file_name(format!("decisive{}", std::env::consts::EXE_SUFFIX));
    if exe.is_file() {
        // Canonical, because every spawn runs in its workload's directory.
        exe.canonicalize().map_err(|e| format!("{}: {e}", exe.display()))
    } else {
        Err(format!("{} not found: build it first (e2ebench/run.sh does)", exe.display()))
    }
}

/// One finished CLI invocation.
#[derive(Debug)]
pub struct Timed {
    /// Milliseconds from spawn to exit, output collection included.
    pub ms: f64,
    /// The process's standard output.
    pub stdout: Vec<u8>,
    /// `None` on exit code 0, otherwise what went wrong.
    pub error: Option<String>,
}

/// Spawns `exe args…` in `dir`, waits for it and times it.
pub fn run(exe: &Path, dir: &Path, args: &[&str]) -> Timed {
    let started = Instant::now();
    let output = Command::new(exe).args(args).current_dir(dir).stdin(Stdio::null()).output();
    let ms = started.elapsed().as_secs_f64() * 1e3;
    match output {
        Ok(Output { status, stdout, stderr }) if status.success() => {
            drop(stderr);
            Timed { ms, stdout, error: None }
        }
        Ok(Output { status, stdout, stderr }) => Timed {
            ms,
            stdout,
            error: Some(format!(
                "`decisive {}` exited with {status}: {}",
                args.join(" "),
                String::from_utf8_lossy(&stderr).trim()
            )),
        },
        Err(e) => Timed { ms, stdout: Vec::new(), error: Some(format!("spawn: {e}")) },
    }
}

/// A child process that is killed and reaped when dropped, so no exit
/// path of the harness leaves a daemon behind.
#[derive(Debug)]
pub struct Reaped(pub Child);

impl Reaped {
    /// Waits up to `timeout` for a voluntary exit, then kills. Returns
    /// whether the child exited on its own with status 0.
    pub fn finish(mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            match self.0.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(_) => break,
            }
        }
        false
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// What this harness's reaped children used so far, from
/// `getrusage(RUSAGE_CHILDREN)`: fleet workers and other grandchildren
/// count once their parent reaps them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChildUsage {
    /// User plus system CPU time, milliseconds, summed over children.
    pub cpu_ms: f64,
    /// Peak resident set of the largest child, MiB.
    pub peak_rss_mb: f64,
}

/// Reads [`ChildUsage`]; all zero where `getrusage` is unavailable.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_usage() -> ChildUsage {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage { utime: [0; 2], stime: [0; 2], maxrss_kib: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout of this target, and getrusage writes only within it.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        return ChildUsage::default();
    }
    let ms = |tv: [i64; 2]| tv[0] as f64 * 1e3 + tv[1] as f64 / 1e3;
    ChildUsage {
        cpu_ms: ms(usage.utime) + ms(usage.stime),
        peak_rss_mb: usage.maxrss_kib as f64 / 1024.0,
    }
}

/// Reads [`ChildUsage`]; all zero where `getrusage` is unavailable.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_usage() -> ChildUsage {
    ChildUsage::default()
}

/// CPU milliseconds (user plus system) a live process has used, from
/// `/proc/<pid>/stat`; `None` where that is unavailable.
pub fn process_cpu_ms(pid: u32) -> Option<f64> {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name: state is the 3rd
    // field of the line, utime the 14th and stime the 15th.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    // SAFETY: sysconf only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    (hz > 0).then(|| ticks * 1e3 / hz as f64)
}

/// Blocks until one of `fds` is readable or `timeout` passes, so a
/// harness thread driving several sockets sleeps instead of spinning on
/// the cores the program under test needs (`ppoll`, nanosecond timeout).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn wait_readable(fds: &[std::os::fd::RawFd], timeout: Duration) -> std::io::Result<()> {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct TimeSpec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const TimeSpec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut polled: Vec<PollFd> =
        fds.iter().map(|&fd| PollFd { fd, events: POLLIN, revents: 0 }).collect();
    let timeout = TimeSpec {
        sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `polled` is a live array of `polled.len()` pollfd structs
    // with the C layout, `timeout` a live timespec, and a null sigmask
    // leaves the signal mask unchanged; ppoll writes only `revents`.
    let rc = unsafe { ppoll(polled.as_mut_ptr(), polled.len() as u64, &timeout, std::ptr::null()) };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Without `ppoll`, wait by sleeping a short slice.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn wait_readable(_fds: &[std::os::fd::RawFd], timeout: Duration) -> std::io::Result<()> {
    std::thread::sleep(timeout.min(Duration::from_micros(200)));
    Ok(())
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&entry.path()),
            Ok(t) if t.is_file() => entry.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
