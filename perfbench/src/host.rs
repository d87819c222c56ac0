//! The host side of a run: environment hygiene, the build stamp, peak
//! memory and the scheduler's record of a thread's time.

use std::time::Instant;

/// Environment variables whose prefix marks a simulator knob. The
/// simulator's configuration constructors read `WISYNC_MAC`,
/// `WISYNC_EXEC`, `WISYNC_SHARDS`, `WISYNC_SHARD_THREADS` and the
/// figure bins `WISYNC_QUICK` silently, so a stray one would change
/// what is measured.
pub const KNOB_PREFIX: &str = "WISYNC_";

/// The first simulator knob set in `vars`, if any.
pub fn stray_knob(vars: impl IntoIterator<Item = (String, String)>) -> Option<String> {
    let mut knobs: Vec<String> = vars
        .into_iter()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with(KNOB_PREFIX))
        .collect();
    knobs.sort();
    knobs.into_iter().next()
}

/// Compiler, host parallelism and seed, printed with every report.
pub fn stamp(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "stamp: rustc=\"{}\" nproc={nproc} seed={seed}",
        env!("PERFBENCH_RUSTC_VERSION")
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One reading of `/proc/thread-self/schedstat`: nanoseconds the
/// calling thread spent on a CPU and waiting on a run queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct SchedStat {
    on_cpu_ns: u64,
    runq_wait_ns: u64,
}

impl SchedStat {
    /// Reads the calling thread's counters (zeros where unavailable).
    fn read() -> SchedStat {
        std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|text| {
                let mut it = text.split_whitespace().map(|f| f.parse::<u64>().ok());
                Some(SchedStat {
                    on_cpu_ns: it.next()??,
                    runq_wait_ns: it.next()??,
                })
            })
            .unwrap_or_default()
    }

    fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            on_cpu_ns: self.on_cpu_ns.saturating_sub(earlier.on_cpu_ns),
            runq_wait_ns: self.runq_wait_ns.saturating_sub(earlier.runq_wait_ns),
        }
    }
}

/// Wall time and scheduler record of a measured window, so a run the
/// scheduler disturbed can be told apart from one the host slowed.
pub struct HostWindow {
    started: Instant,
    sched: SchedStat,
}

impl HostWindow {
    pub fn start() -> HostWindow {
        HostWindow {
            started: Instant::now(),
            sched: SchedStat::read(),
        }
    }

    /// Closes the window on the calling thread, the one that measures.
    pub fn finish(self) -> String {
        let wall = self.started.elapsed().as_secs_f64();
        let s = SchedStat::read().since(self.sched);
        let pct = |ns: u64| 100.0 * ns as f64 / 1e9 / wall.max(1e-9);
        format!(
            "host: wall={wall:.3} s on_cpu={:.3} s ({:.1}% of wall) runq_wait={:.4} s ({:.2}% of wall)",
            s.on_cpu_ns as f64 / 1e9,
            pct(s.on_cpu_ns),
            s.runq_wait_ns as f64 / 1e9,
            pct(s.runq_wait_ns)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stray_knob_names_the_first_wisync_variable() {
        let vars = |pairs: &[(&str, &str)]| {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(stray_knob(vars(&[("PATH", "/bin")])), None);
        assert_eq!(
            stray_knob(vars(&[("WISYNC_SHARDS", "4"), ("WISYNC_MAC", "token")])),
            Some("WISYNC_MAC".to_string())
        );
        assert_eq!(
            stray_knob(vars(&[("WISYNC_QUICK", "")])),
            Some("WISYNC_QUICK".to_string())
        );
    }

    #[test]
    fn schedstat_moves_forward() {
        let a = SchedStat::read();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let b = SchedStat::read();
        assert!(b.on_cpu_ns >= a.on_cpu_ns);
    }
}
