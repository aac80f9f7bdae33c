//! The machine and provenance record every result carries: baselines
//! record the machine they ran on.

use dqc_types::Json;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// CPUs this process may run on (what `nproc` prints): the size of the
/// scheduler affinity mask, read from `/proc/self/status`. Falls back to
/// [`available_parallelism`] where that file is missing.
pub fn nproc() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
                .map(|list| count_cpu_list(list.trim()))
        })
        .filter(|&n| n > 0)
        .unwrap_or_else(available_parallelism)
}

/// Counts the CPUs in a kernel cpu-list such as `0-3,6,8-9`.
fn count_cpu_list(list: &str) -> usize {
    list.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('-') {
            Some((lo, hi)) => match (lo.parse::<usize>(), hi.parse::<usize>()) {
                (Ok(lo), Ok(hi)) if hi >= lo => hi - lo + 1,
                _ => 0,
            },
            None => usize::from(part.parse::<usize>().is_ok()),
        })
        .sum()
}

/// `std::thread::available_parallelism` (which also honours cgroup CPU
/// quotas), or 1 when it cannot be determined.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The rustc that built this binary.
pub fn rustc_version() -> &'static str {
    env!("DQCBENCH_RUSTC_VERSION")
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(commit) = read(&format!(".git/{reference}")) {
        return commit.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (commit, name) = line.split_once(' ')?;
                (name == reference).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `/proc/stat` counts CPU time in these ticks per second (`USER_HZ`).
const USER_HZ: f64 = 100.0;

/// The `steal` column of a `/proc/stat` text's first line, in seconds:
/// CPU time the hypervisor gave to others while this machine's virtual
/// CPUs were ready to run, summed over CPUs.
fn parse_steal_s(stat: &str) -> Option<f64> {
    let line = stat.lines().next()?;
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let ticks: u64 = fields.nth(7)?.parse().ok()?;
    Some(ticks as f64 / USER_HZ)
}

/// Host steal time so far, in seconds; `None` where the kernel does not
/// report it.
pub fn host_steal_s() -> Option<f64> {
    parse_steal_s(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// How often [`StealLog::record`] samples host steal time.
const STEAL_EVERY: Duration = Duration::from_millis(50);

/// Host steal time sampled while a phase ran: a measure of host
/// contention taken apart from the program under test, used to mark the
/// windows in which the host, not the program, held the CPUs back.
#[derive(Debug, Clone, Default)]
pub struct StealLog {
    points: Vec<(Instant, f64)>,
}

impl StealLog {
    /// Runs `f` while a scoped thread samples host steal time every
    /// [`STEAL_EVERY`]. The log is empty where steal is not reported.
    pub fn record<T>(f: impl FnOnce() -> T) -> (T, StealLog) {
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut points = Vec::new();
                while let Some(steal) = host_steal_s() {
                    points.push((Instant::now(), steal));
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(STEAL_EVERY);
                }
                points
            });
            let value = f();
            done.store(true, Ordering::Relaxed);
            let points = sampler.join().expect("the steal sampler does not panic");
            (value, StealLog { points })
        })
    }

    /// Whether anything was sampled.
    pub fn is_empty(&self) -> bool {
        self.points.len() < 2
    }

    /// Steal seconds from `from` to `to`, between the samples just
    /// outside that interval.
    pub fn between(&self, from: Instant, to: Instant) -> f64 {
        let first = self.points.iter().rev().find(|(at, _)| *at <= from);
        let last = self.points.iter().find(|(at, _)| *at >= to);
        match (first.or(self.points.first()), last.or(self.points.last())) {
            (Some((_, a)), Some((_, b))) => (b - a).max(0.0),
            _ => 0.0,
        }
    }
}

/// The provenance block: machine, toolchain, commit, and the run's own
/// parameters (`extra` carries workload-specific entries such as the
/// daemon worker count and offered rate).
pub fn provenance(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    extra: &[(&str, Json)],
) -> Json {
    let mut members = vec![
        ("workload".to_string(), Json::from(workload)),
        ("seed".to_string(), Json::uint(seed)),
        ("seconds".to_string(), Json::uint(seconds)),
        ("trace".to_string(), Json::Bool(trace)),
        ("nproc".to_string(), Json::from(nproc())),
        (
            "available_parallelism".to_string(),
            Json::from(available_parallelism()),
        ),
        ("rustc".to_string(), Json::from(rustc_version())),
        ("git_commit".to_string(), Json::from(git_commit().as_str())),
    ];
    members.extend(extra.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
    Json::Object(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_count_ranges_and_singletons() {
        assert_eq!(count_cpu_list("0-1"), 2);
        assert_eq!(count_cpu_list("0-3,6,8-9"), 7);
        assert_eq!(count_cpu_list("5"), 1);
        assert_eq!(count_cpu_list(""), 0);
    }

    #[test]
    fn steal_is_the_eighth_counter_of_the_cpu_line() {
        let stat = "cpu  1410548 0 122308 3703219 1662 0 17055 11580 0 0\ncpu0 1 2 3\n";
        assert_eq!(parse_steal_s(stat), Some(115.8));
        assert_eq!(parse_steal_s("cpu  1 2 3\n"), None);
        assert_eq!(parse_steal_s("intr 1 2 3 4 5 6 7 8 9\n"), None);
    }

    #[test]
    fn steal_between_spans_the_samples_around_the_interval() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let log = StealLog {
            points: vec![(at(0), 1.0), (at(50), 1.5), (at(100), 1.5), (at(150), 2.0)],
        };
        assert_eq!(log.between(at(60), at(90)), 0.0);
        assert_eq!(log.between(at(40), at(110)), 1.0);
        assert_eq!(log.between(at(200), at(300)), 0.0);
        assert_eq!(StealLog::default().between(at(0), at(10)), 0.0);
    }
}
