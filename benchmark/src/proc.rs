//! Child processes as the benchmark sees them: spawn, stream stdout through
//! a fingerprint, reap with `wait4` for the child's own CPU time and peak
//! RSS, and read a live child's counters from `/proc`.

use crate::affinity;
use crate::hash::Fingerprint;
use std::io::Read;
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` of Linux on LP64: two timevals, then fourteen longs of
/// which only the first (`ru_maxrss`, KiB) is read here.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct Reaped {
    pub exit_ok: bool,
    pub cpu_ms: f64,
    pub max_rss_kb: u64,
}

/// Block until child `pid` exits and return its resource usage. The caller
/// must not wait on the `Child` again: the process is reaped here.
fn reap(pid: u32) -> std::io::Result<Reaped> {
    let mut status: c_int = 0;
    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `status` and `usage` are valid for writes for the duration of
    // the call; `Rusage` matches the kernel's LP64 layout (144 bytes), and
    // zeroed memory is a valid `Rusage`.
    let rc = unsafe { wait4(pid as c_int, &mut status, 0, usage.as_mut_ptr()) };
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // SAFETY: zero-initialised above and filled by a successful wait4.
    let usage = unsafe { usage.assume_init() };
    let ms = |t: &Timeval| t.tv_sec as f64 * 1e3 + t.tv_usec as f64 / 1e3;
    Ok(Reaped {
        // Exited normally (low 7 bits clear) with code 0 (next 8 bits).
        exit_ok: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        cpu_ms: ms(&usage.ru_utime) + ms(&usage.ru_stime),
        max_rss_kb: usage.ru_maxrss.max(0) as u64,
    })
}

/// One `foxq` invocation, start to reaped.
#[derive(Debug, Clone, Copy)]
pub struct CliOp {
    pub wall_ns: u64,
    /// Spawn → first stdout byte (= `wall_ns` if the child printed nothing).
    pub first_byte_ns: u64,
    pub stdout: Fingerprint,
    pub reaped: Reaped,
}

/// Run `program args…` with stdout on a pipe, folding the output into a
/// fingerprint as it arrives: the harness never holds an output whole, so
/// its own RSS stays below that of the smallest child (see README,
/// "the ru_maxrss floor").
pub fn run_cli(program: &Path, args: &[&std::ffi::OsStr]) -> Result<CliOp, String> {
    let start = Instant::now();
    let mut command = Command::new(program);
    command
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = affinity::spawn(&mut command)
        .map_err(|e| format!("cannot spawn {}: {e}", program.display()))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let mut fingerprint = Fingerprint::default();
    let mut first_byte_ns = None;
    let mut buf = [0u8; 1 << 16];
    loop {
        match stdout.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                first_byte_ns.get_or_insert_with(|| start.elapsed().as_nanos() as u64);
                fingerprint.update(&buf[..n]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("reading child stdout: {e}")),
        }
    }
    let reaped = reap(child.id()).map_err(|e| format!("wait4: {e}"))?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    Ok(CliOp {
        wall_ns,
        first_byte_ns: first_byte_ns.unwrap_or(wall_ns),
        stdout: fingerprint,
        reaped,
    })
}

/// Clock ticks per second of `/proc/<pid>/stat` times.
pub fn clock_ticks_per_s() -> f64 {
    const SC_CLK_TCK: c_int = 2;
    // SAFETY: sysconf takes no pointers and has no preconditions.
    let n = unsafe { sysconf(SC_CLK_TCK) };
    if n > 0 {
        n as f64
    } else {
        100.0
    }
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // After the command name come state (field 3) … utime (14), stime (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set, KiB) from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// CPU milliseconds a live process has used so far.
pub fn cpu_ms_of(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let ticks = parse_stat_cpu_ticks(&stat).ok_or_else(|| format!("{path}: unexpected format"))?;
    Ok(ticks as f64 * 1e3 / clock_ticks_per_s())
}

/// Peak RSS of a live process in KiB.
pub fn vm_hwm_kb_of(pid: u32) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_vm_hwm_kb(&status).ok_or_else(|| format!("{path}: no VmHWM line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let stat = "4242 (foxq (serve) x) S 1 4242 4242 0 -1 4194304 917 0 0 0 \
                    131 17 0 0 20 0 4 0 123456 1000000 600 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(148));
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_line() {
        let status = "Name:\tfoxq\nVmPeak:\t  250000 kB\nVmHWM:\t    3120 kB\nVmRSS:\t 3000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(3120));
        assert_eq!(parse_vm_hwm_kb("Name:\tfoxq\n"), None);
    }

    #[test]
    fn own_proc_entries_parse() {
        let pid = std::process::id();
        assert!(cpu_ms_of(pid).unwrap() >= 0.0);
        assert!(vm_hwm_kb_of(pid).unwrap() > 0);
    }

    #[test]
    fn reaping_reports_exit_and_output() {
        let op = run_cli(
            Path::new("/bin/sh"),
            &["-c".as_ref(), "printf abc".as_ref()],
        )
        .unwrap();
        assert!(op.reaped.exit_ok);
        assert_eq!(op.stdout, Fingerprint::of(b"abc"));
        assert!(op.first_byte_ns <= op.wall_ns);
        assert!(op.reaped.max_rss_kb > 0);
        let op = run_cli(Path::new("/bin/sh"), &["-c".as_ref(), "exit 3".as_ref()]).unwrap();
        assert!(!op.reaped.exit_ok);
    }
}
