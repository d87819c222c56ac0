//! Engine-throughput measurement: the tracked simulator performance
//! baseline.
//!
//! Where `benches/engine.rs` times individual substrates (queue, memory
//! system, data channel), this module times the *whole engine* on one
//! representative workload per class — barrier-bound, CAS-bound, and
//! application-mix — and reports events/second and simulated
//! cycles/second alongside raw wall time. The numbers land in
//! `results/perf_baseline.json` (rendered with the deterministic
//! `wisync-testkit` JSON writer) so CI can catch engine regressions:
//! the `--check` mode of the `perf` binary compares the fresh suite's
//! geomean `events_per_sec` against the geomean of the committed
//! baseline's `history` series and fails on a drop of more than
//! [`TREND_DROP_PCT`] percent — trend-aware (the floor rises as the
//! engine gets faster and the history re-centers) where the old
//! fixed-factor wall-time gate was not.
//!
//! Simulated-cycle and event counts are deterministic (the same per-rep
//! invariant the determinism regression test checks); only wall time
//! varies between runs.

use std::time::Instant;

use wisync_core::{Machine, MachineConfig};
use wisync_testkit::Json;
use wisync_workloads::{AppProfile, AppWorkload, CasKernel, CasKind, Livermore, TightLoop};

use crate::BUDGET;

/// Maximum tolerated drop of a fresh suite geomean below the committed
/// history geomean, percent. `perf --check` fails beyond this: wide
/// enough to absorb host and scheduler noise on a shared runner, narrow
/// enough to catch a real engine regression before it compounds.
pub const TREND_DROP_PCT: f64 = 30.0;

/// Throughput measurement for one workload class.
#[derive(Clone, Debug)]
pub struct PerfCase {
    /// Case name, `<class>/<workload>_<arch>_<cores>c` by convention.
    pub name: String,
    /// Fastest wall time over the measured repetitions, ns.
    pub wall_ns: u64,
    /// Simulated cycles covered by one repetition (deterministic).
    pub sim_cycles: u64,
    /// Engine events dispatched by one repetition (deterministic).
    pub sim_events: u64,
    /// Repetitions measured.
    pub reps: u32,
}

impl PerfCase {
    /// Events dispatched per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.sim_events as f64 * 1e9 / self.wall_ns as f64
    }

    /// Simulated megacycles per wall-clock second.
    pub fn sim_mcycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 * 1e3 / self.wall_ns as f64
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            ("wall_ns", Json::U64(self.wall_ns)),
            ("sim_cycles", Json::U64(self.sim_cycles)),
            ("sim_events", Json::U64(self.sim_events)),
            ("events_per_sec", Json::F64(self.events_per_sec())),
            ("sim_mcycles_per_sec", Json::F64(self.sim_mcycles_per_sec())),
            ("reps", Json::U64(self.reps as u64)),
        ])
    }
}

/// Times `run` (which must build a fresh machine, drive a workload, and
/// return the finished machine) `reps` times, keeping the fastest wall
/// time. Panics if the simulated cycle/event counts differ between
/// repetitions — they are deterministic by construction.
fn measure(name: &str, reps: u32, run: impl Fn() -> Machine) -> PerfCase {
    let mut best_ns = u64::MAX;
    let mut counts: Option<(u64, u64)> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let m = run();
        let ns = start.elapsed().as_nanos() as u64;
        best_ns = best_ns.min(ns.max(1));
        let rep = (m.now().as_u64(), m.stats().sim_events);
        match counts {
            None => counts = Some(rep),
            Some(prev) => assert_eq!(
                prev, rep,
                "{name}: cycle/event counts must not vary between reps"
            ),
        }
    }
    let (sim_cycles, sim_events) = counts.expect("at least one rep");
    PerfCase {
        name: name.to_string(),
        wall_ns: best_ns,
        sim_cycles,
        sim_events,
        reps,
    }
}

/// Runs the perf suite: one case per workload class, on the
/// architectures where that class is interesting. `reps` repetitions
/// per case (CI smoke uses 1, the tracked baseline 3).
pub fn run_perf_suite(reps: u32) -> Vec<PerfCase> {
    let mut cases = Vec::new();

    // Barrier-bound: TightLoop is pure synchronization, so it stresses
    // the event queue and (on Baseline) the memory system hot paths.
    cases.push(measure("barrier/tightloop_wisync_64c", reps, || {
        let mut m = Machine::new(MachineConfig::wisync(64));
        TightLoop::new(50).run_cycles_per_iter(&mut m, BUDGET);
        m
    }));
    cases.push(measure("barrier/tightloop_baseline_64c", reps, || {
        let mut m = Machine::new(MachineConfig::baseline(64));
        TightLoop::new(20).run_cycles_per_iter(&mut m, BUDGET);
        m
    }));

    // CAS-bound: contended read-modify-write traffic through the BM
    // (WiSync) and the coherence directory (Baseline).
    let fifo = CasKernel {
        kind: CasKind::Fifo,
        critical_section: 64,
        ops_per_thread: 64,
    };
    cases.push(measure("cas/fifo_wisync_32c", reps, || {
        let mut m = Machine::new(MachineConfig::wisync(32));
        fifo.run_throughput(&mut m, BUDGET);
        m
    }));
    cases.push(measure("cas/fifo_baseline_32c", reps, || {
        let mut m = Machine::new(MachineConfig::baseline(32));
        fifo.run_throughput(&mut m, BUDGET);
        m
    }));

    // Compute-heavy: Livermore loop 3 (inner product) spends most of
    // its simulated time in straight-line ALU/load runs between
    // reductions — the profile the decode-once micro-op interpreter
    // accelerates most, tracked on both architectures.
    cases.push(measure("compute/livermore3_wisync_16c", reps, || {
        let mut m = Machine::new(MachineConfig::wisync(16));
        Livermore::loop3(4096, 8).load(&mut m);
        m.run(BUDGET);
        m
    }));
    cases.push(measure("compute/livermore3_baseline_16c", reps, || {
        let mut m = Machine::new(MachineConfig::baseline(16));
        Livermore::loop3(4096, 8).load(&mut m);
        m.run(BUDGET);
        m
    }));

    // Application mix: streamcluster is the fine-grain-barrier outlier,
    // raytrace the lock-convoy one — together they exercise compute
    // phases, lock handoffs, and barrier episodes.
    let streamcluster = AppProfile::by_name("streamcluster").expect("profile exists");
    cases.push(measure("app/streamcluster_wisync_16c", reps, move || {
        let mut m = Machine::new(MachineConfig::wisync(16));
        AppWorkload::new(streamcluster).run_cycles(&mut m, BUDGET);
        m
    }));
    let raytrace = AppProfile::by_name("raytrace").expect("profile exists");
    cases.push(measure("app/raytrace_baseline_16c", reps, move || {
        let mut m = Machine::new(MachineConfig::baseline(16));
        AppWorkload::new(raytrace).run_cycles(&mut m, BUDGET);
        m
    }));

    cases
}

/// Geometric mean of `events_per_sec` across a suite — the single
/// scalar tracked in the baseline's `history` array.
pub fn geomean_events_per_sec(cases: &[PerfCase]) -> f64 {
    if cases.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = cases.iter().map(|c| c.events_per_sec().ln()).sum();
    (log_sum / cases.len() as f64).exp()
}

/// One retained throughput measurement in the baseline's history.
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryEntry {
    /// Sequential label (`run-1`, `run-2`, ...).
    pub label: String,
    /// Suite geomean throughput at that run.
    pub geomean_events_per_sec: f64,
    /// Instrumented-over-plain wall-clock overhead measured alongside
    /// this run, percent (see `report::obs_overhead_ns`). `None` on
    /// entries recorded before the series existed or by `--check`-only
    /// invocations.
    pub obs_overhead_pct: Option<f64>,
}

/// History entries retained in the baseline document (oldest dropped).
pub const HISTORY_CAP: usize = 32;

/// Appends a fresh measurement to the history parsed from the previous
/// baseline document (`None` when there was no file yet), enforcing
/// [`HISTORY_CAP`]. `obs_overhead_pct` carries the instrumentation
/// overhead measured alongside the suite, so the ratio is tracked as a
/// series instead of only thresholded by the CI gate.
pub fn extend_history(
    prior_text: Option<&str>,
    cases: &[PerfCase],
    obs_overhead_pct: Option<f64>,
) -> Vec<HistoryEntry> {
    let mut history = prior_text.map(parse_history).unwrap_or_default();
    // Number from the last label, not the length, so numbering keeps
    // counting after the cap starts dropping old entries.
    let next = history
        .last()
        .and_then(|h| h.label.strip_prefix("run-"))
        .and_then(|s| s.parse::<u64>().ok())
        .map_or(history.len() as u64 + 1, |n| n + 1);
    history.push(HistoryEntry {
        label: format!("run-{next}"),
        geomean_events_per_sec: geomean_events_per_sec(cases),
        obs_overhead_pct,
    });
    if history.len() > HISTORY_CAP {
        let excess = history.len() - HISTORY_CAP;
        history.drain(..excess);
    }
    history
}

/// Renders a perf suite as the `results/perf_baseline.json` document.
/// `history` carries the per-run geomean throughput trail (see
/// [`extend_history`]); its keys are distinct from the per-case ones so
/// [`parse_baseline_wall_ns`] is unaffected by its presence.
pub fn perf_report_json(cases: &[PerfCase], history: &[HistoryEntry]) -> Json {
    let mut fields = vec![("schema", Json::from("wisync-perf-baseline/v1"))];
    // Stamp non-default MAC policies: their wall times and simulated
    // counts are not comparable to the committed backoff baseline, and
    // the stamp keeps such a document from ever being mistaken for it.
    // The default policy emits no stamp, preserving the committed shape.
    let mac = wisync_wireless::MacPolicy::from_env();
    if mac != wisync_wireless::MacPolicy::Exponential {
        fields.push(("mac", Json::Str(mac.to_string())));
    }
    fields.extend([
        (
            "cases",
            Json::Arr(cases.iter().map(PerfCase::to_json).collect()),
        ),
        (
            "history",
            Json::Arr(
                history
                    .iter()
                    .map(|h| {
                        Json::obj([
                            ("label", Json::from(h.label.as_str())),
                            (
                                "geomean_events_per_sec",
                                Json::F64(h.geomean_events_per_sec),
                            ),
                            (
                                "obs_overhead_pct",
                                h.obs_overhead_pct.map_or(Json::Null, Json::F64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Json::obj(fields)
}

/// Extracts the history entries from a rendered baseline document (same
/// exact line-scan contract as [`parse_baseline_wall_ns`]). Documents
/// written before the history existed parse as empty.
pub fn parse_history(text: &str) -> Vec<HistoryEntry> {
    let mut out = Vec::new();
    let mut label: Option<String> = None;
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some(rest) = line.strip_prefix("\"label\": \"") {
            label = rest.strip_suffix('"').map(str::to_string);
        } else if let Some(rest) = line.strip_prefix("\"geomean_events_per_sec\": ") {
            if let (Some(l), Ok(v)) = (label.take(), rest.parse::<f64>()) {
                out.push(HistoryEntry {
                    label: l,
                    geomean_events_per_sec: v,
                    obs_overhead_pct: None,
                });
            }
        } else if let Some(rest) = line.strip_prefix("\"obs_overhead_pct\": ") {
            // Attaches to the entry the preceding two lines opened;
            // `null` (pre-series or check-only entries) stays `None`.
            if let (Some(last), Ok(v)) = (out.last_mut(), rest.parse::<f64>()) {
                last.obs_overhead_pct = Some(v);
            }
        }
    }
    out
}

/// Extracts `(name, wall_ns)` pairs from a rendered baseline document.
///
/// The document is produced by [`perf_report_json`] via the testkit
/// renderer (one `"key": value` pair per line), so a line scan is
/// exact — no general JSON parser needed, keeping the tree hermetic.
pub fn parse_baseline_wall_ns(text: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut name: Option<String> = None;
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some(rest) = line.strip_prefix("\"name\": \"") {
            name = rest.strip_suffix('"').map(str::to_string);
        } else if let Some(rest) = line.strip_prefix("\"wall_ns\": ") {
            if let (Some(n), Ok(ns)) = (name.take(), rest.parse::<u64>()) {
                out.push((n, ns));
            }
        }
    }
    out
}

/// Trend-aware regression gate: compares the fresh suite's geomean
/// `events_per_sec` against the geomean of the committed baseline's
/// history series. Returns a one-line verdict on success; an error line
/// when the fresh geomean drops more than [`TREND_DROP_PCT`] percent
/// below the history geomean (or the baseline has no history to gate
/// against).
///
/// Gating on the whole-suite geomean rather than per-case wall times
/// makes the check robust to the suite growing between PRs and to
/// single-case noise, while still catching an engine-wide slip.
pub fn check_against_history(cases: &[PerfCase], baseline_text: &str) -> Result<String, String> {
    let history = parse_history(baseline_text);
    if history.is_empty() {
        return Err(
            "committed baseline has no history; run `perf` (no --check) to record one".to_string(),
        );
    }
    let log_sum: f64 = history.iter().map(|h| h.geomean_events_per_sec.ln()).sum();
    let hist_geo = (log_sum / history.len() as f64).exp();
    let fresh = geomean_events_per_sec(cases);
    let floor = hist_geo * (1.0 - TREND_DROP_PCT / 100.0);
    let line = format!(
        "suite geomean {fresh:.0} events/s vs history geomean {hist_geo:.0} over {} runs \
         (floor {floor:.0}, {TREND_DROP_PCT}% drop tolerated)",
        history.len()
    );
    if fresh < floor {
        // Name the case dragging the geomean down hardest so the
        // failure points at a workload class, not just a scalar.
        let offender = cases
            .iter()
            .min_by(|a, b| a.events_per_sec().total_cmp(&b.events_per_sec()));
        match offender {
            Some(c) => Err(format!(
                "{line}; slowest case {} at {:.0} events/s ({:.1}% of the history geomean)",
                c.name,
                c.events_per_sec(),
                c.events_per_sec() / hist_geo * 100.0
            )),
            None => Err(line),
        }
    } else {
        Ok(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_case(name: &str, wall_ns: u64) -> PerfCase {
        PerfCase {
            name: name.to_string(),
            wall_ns,
            sim_cycles: 1_000,
            sim_events: 2_000,
            reps: 1,
        }
    }

    #[test]
    fn baseline_roundtrips_through_renderer() {
        let cases = vec![fake_case("a/b", 123), fake_case("c/d", 456)];
        let history = extend_history(None, &cases, Some(4.25));
        let text = perf_report_json(&cases, &history).render();
        assert_eq!(
            parse_baseline_wall_ns(&text),
            vec![("a/b".to_string(), 123), ("c/d".to_string(), 456)]
        );
        // The history round-trips too, without confusing the name scan,
        // and the overhead series comes back attached.
        assert_eq!(parse_history(&text), history);
        assert_eq!(history[0].obs_overhead_pct, Some(4.25));
    }

    #[test]
    fn missing_overhead_renders_null_and_parses_none() {
        let cases = vec![fake_case("a/b", 100)];
        let with = extend_history(None, &cases, Some(1.5));
        let first = perf_report_json(&cases, &with).render();
        let text = perf_report_json(&cases, &extend_history(Some(&first), &cases, None)).render();
        let history = parse_history(&text);
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].obs_overhead_pct, Some(1.5));
        assert_eq!(history[1].obs_overhead_pct, None);
        assert!(text.contains("\"obs_overhead_pct\": null"));
    }

    #[test]
    fn history_accumulates_and_caps() {
        let cases = vec![fake_case("a/b", 100)];
        let mut text = perf_report_json(&cases, &extend_history(None, &cases, None)).render();
        for _ in 0..HISTORY_CAP + 10 {
            let history = extend_history(Some(&text), &cases, None);
            text = perf_report_json(&cases, &history).render();
        }
        let history = parse_history(&text);
        assert_eq!(history.len(), HISTORY_CAP);
        // Labels keep counting even after the oldest entries drop.
        assert_eq!(
            history.last().unwrap().label,
            format!("run-{}", 11 + HISTORY_CAP)
        );
        let g = geomean_events_per_sec(&cases);
        assert!(history
            .iter()
            .all(|h| (h.geomean_events_per_sec - g).abs() < 1e-9));
    }

    #[test]
    fn geomean_of_identical_cases_is_their_rate() {
        let cases = vec![
            fake_case("a/b", 1_000_000_000),
            fake_case("c/d", 1_000_000_000),
        ];
        assert!((geomean_events_per_sec(&cases) - 2_000.0).abs() < 1e-6);
        assert_eq!(geomean_events_per_sec(&[]), 0.0);
    }

    #[test]
    fn trend_check_tolerates_noise_but_flags_real_drops() {
        // History: one run at 2_000 events/s geomean (the fake cases).
        let cases = vec![fake_case("a/b", 1_000_000_000)];
        let history = extend_history(None, &cases, None);
        let baseline = perf_report_json(&cases, &history).render();
        // Same speed: passes. 25% slower: within tolerance. 50% slower:
        // fails. A grown suite still gates on its own geomean.
        assert!(check_against_history(&cases, &baseline).is_ok());
        let slower_25 = vec![fake_case("a/b", 1_333_000_000)];
        assert!(check_against_history(&slower_25, &baseline).is_ok());
        let slower_50 = vec![fake_case("a/b", 2_000_000_000)];
        assert!(check_against_history(&slower_50, &baseline).is_err());
        let grown = vec![
            fake_case("a/b", 1_000_000_000),
            fake_case("new/case", 1_000_000_000),
        ];
        assert!(check_against_history(&grown, &baseline).is_ok());
    }

    #[test]
    fn trend_failure_names_the_slowest_case() {
        let cases = vec![fake_case("a/b", 1_000_000_000)];
        let baseline = perf_report_json(&cases, &extend_history(None, &cases, None)).render();
        // One case 5x slower drags the two-case geomean below the 30%
        // floor; the error must name it and give its rate.
        let slow = vec![
            fake_case("fast/one", 1_000_000_000),
            fake_case("slow/one", 10_000_000_000),
        ];
        let err = check_against_history(&slow, &baseline).unwrap_err();
        assert!(err.contains("slowest case slow/one"), "{err}");
        assert!(err.contains("events/s"), "{err}");
        assert!(err.contains("% of the history geomean"), "{err}");
    }

    #[test]
    fn trend_check_requires_history() {
        let cases = vec![fake_case("a/b", 100)];
        let no_history = perf_report_json(&cases, &[]).render();
        assert!(check_against_history(&cases, &no_history).is_err());
    }

    #[test]
    fn derived_rates_are_consistent() {
        let c = fake_case("a/b", 1_000_000_000);
        assert!((c.events_per_sec() - 2_000.0).abs() < 1e-9);
        assert!((c.sim_mcycles_per_sec() - 0.001).abs() < 1e-9);
    }

    #[test]
    fn tiny_suite_measures_deterministic_counts() {
        // One cheap real case, two reps: exercises the rep-consistency
        // assertion inside `measure`.
        let case = measure("test/tightloop_wisync_4c", 2, || {
            let mut m = Machine::new(MachineConfig::wisync(4));
            TightLoop::new(3).run_cycles_per_iter(&mut m, BUDGET);
            m
        });
        assert!(case.sim_cycles > 0);
        assert!(case.sim_events > 0);
        assert!(case.wall_ns > 0);
    }
}
