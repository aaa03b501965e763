//! Process and host readings: the environment stamp, resident memory
//! and CPU time.

use std::path::Path;

/// Linux clock ticks per second for `/proc/<pid>/stat` CPU fields.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Hands the allocator's free pages back to the kernel, so that the
/// resident set holds live data only: memory an earlier pass or check
/// freed but the allocator kept would otherwise count in the next
/// high-water mark. A no-op where the allocator is not glibc's.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only
        // returns free heap pages to the kernel; it is thread-safe.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The process high-water resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the process high-water resident set to the current resident
/// set, so the next [`peak_rss_mb`] covers only what runs after this
/// call (and what the process already holds).
///
/// # Errors
///
/// The kernel refused the reset (`/proc/self/clear_refs`, Linux 4.0+).
pub fn reset_peak_rss() -> Result<(), String> {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset the resident high-water mark: {e}"))
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// User plus system CPU time of the whole process, seconds (10 ms
/// resolution).
pub fn cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S
}

/// The type of the file system holding `path` (`ext4`, `overlay`,
/// `tmpfs`, …), from the longest matching mount point.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // id parent dev root MOUNT_POINT options… - FSTYPE source …
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(mount) = fields.get(4) else { continue };
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let Some(fstype) = fields.get(dash + 1) else {
            continue;
        };
        let mount = mount.replace("\\040", " ");
        if path.starts_with(&mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// File systems on which `fsync` does not reach a device.
pub fn fsync_is_noop(fstype: &str) -> bool {
    matches!(fstype, "tmpfs" | "ramfs")
}
