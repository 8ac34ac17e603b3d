//! Process accounting from `/proc`, order statistics, and the run record.

use crate::workload::Workload;
use mdj_server::json::Json;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process user+system CPU seconds so far, all threads, exited ones
/// included. Read from the scheduler's nanosecond run-time clock: the
/// `utime`/`stime` fields of `/proc/self/stat` are sampled on the timer tick,
/// and this benchmark's ops start in step with that tick (see README, "the
/// 40 ms floor"), which biases tick sampling by tens of percent.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit fields on
    // 64-bit Linux, matching `Timespec`) through the valid pointer it is
    // given and keeps no reference to it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Percentile `p` (0..=1) of unsorted samples, estimated as the mean of the
/// order statistics within `half_band` of `p`.
///
/// Every response of this server waits out the kernel's delayed-ACK timer
/// (see README, "the 40 ms floor"), which quantizes client-observed latency
/// to the 4 ms timer tick. A single order statistic therefore moves in 5 %
/// steps between runs; averaging a band of them moves smoothly with the
/// share of samples on either side of a tick.
pub fn percentile(samples: &mut [f64], p: f64, half_band: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len() as f64;
    let lo = (((p - half_band) * n).floor() as usize).min(samples.len() - 1);
    let hi = (((p + half_band) * n).ceil() as usize).clamp(lo + 1, samples.len());
    samples[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Everything needed to reproduce or compare a run, as one JSON line. The
/// benchmark defines names and claims nothing, so the record ends with
/// `"claim":null`.
pub fn run_record(
    w: &Workload,
    seed: u64,
    connections: usize,
    seconds: f64,
    extra: Vec<(&str, Json)>,
) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("workload", Json::Str(w.name.into())),
        ("why", Json::Str(w.why.into())),
        ("seed", Json::Int(seed as i64)),
        ("git_commit", Json::Str(git_commit())),
        ("nproc", Json::Int(nproc as i64)),
        ("available_parallelism", Json::Int(parallelism as i64)),
        ("rustc", Json::Str(env!("MDJBENCH_RUSTC").into())),
        ("simd", Json::Bool(cfg!(feature = "simd"))),
        ("sales_rows", Json::Int(w.sales_rows as i64)),
        ("payments_rows", Json::Int((w.sales_rows / 2) as i64)),
        ("cache_mib", Json::Int(w.cache_mib as i64)),
        (
            "page_bytes",
            Json::Int(w.paged.map_or(0, |p| p.page_bytes as i64)),
        ),
        (
            "buffer_bytes",
            Json::Int(w.paged.map_or(0, |p| p.buffer_bytes as i64)),
        ),
        ("connections", Json::Int(connections as i64)),
        ("window_s", Json::Float(seconds)),
    ];
    fields.extend(extra);
    // Objects encode with sorted keys; `claim` is appended by hand so that
    // it closes the record.
    let mut line = Json::obj(fields).encode();
    line.pop();
    line.push_str(",\"claim\":null}");
    line
}
