//! Host facts and process accounting: the fingerprint printed with every
//! result, CPU time of this process and of a child, and peak RSS.

use std::fs;
use std::time::Duration;

use seculator_core::secure_memory::CryptoDatapath;
use seculator_core::telemetry;
use seculator_crypto::keys::DeviceSecret;

/// Worker threads the benchmark and the daemon may use.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One JSON object describing the host and the build under test.
#[must_use]
pub fn fingerprint() -> String {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_string();
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .and_then(|l| l.split(':').nth(1))
        .map(|f| f.split_whitespace().collect())
        .unwrap_or_default();
    let backend = CryptoDatapath::new(DeviceSecret::from_seed(1), 1)
        .backend()
        .kind()
        .name();
    format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"aes\": {}, \"sha_ni\": {}, \
         \"crypto_backend\": {}, \"telemetry\": {}}}",
        nproc(),
        crate::json_str(&model),
        flags.contains(&"aes"),
        flags.contains(&"sha_ni"),
        crate::json_str(backend),
        telemetry::enabled()
    )
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of this process, every thread included.
#[must_use]
pub fn self_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on x86_64 and aarch64 Linux), and the clock id is a valid
    // constant, so the call writes only inside `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).unwrap_or(0),
        u32::try_from(ts.tv_nsec).unwrap_or(0),
    )
}

/// Linux reports `/proc/<pid>/stat` times in clock ticks of 1/100 s on
/// every architecture the kernel builds `USER_HZ` for.
const USER_HZ: f64 = 100.0;

/// User + system CPU time of another process, all its threads (live and
/// exited) included, from `/proc/<pid>/stat`.
pub fn proc_cpu(pid: u32) -> Result<Duration, String> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': field 0 is state (stat field 3); utime/stime are stat
    // fields 14 and 15.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("malformed stat field {i}"))
    };
    Ok(Duration::from_secs_f64((tick(11)? + tick(12)?) / USER_HZ))
}

/// `(all, steal)` clock ticks of every CPU since boot, from the first
/// line of `/proc/stat`: their change over a run is the share of CPU
/// time the hypervisor gave to other guests.
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// A `/proc/<pid>/status` size field (`VmHWM`, `VmRSS`) in kB.
pub fn status_kb(pid: &str, field: &str) -> Result<f64, String> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or_else(|| format!("no {field} in /proc/{pid}/status"))
}
