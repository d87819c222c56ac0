//! Run profiling: turns one instrumented run into a deterministic
//! observability report — cycle attribution, contention timeline,
//! latency histograms, and a Perfetto-loadable Chrome trace.
//!
//! Everything in the profile document derives from simulated state
//! (cycles, counters), never from wall clocks, so `results/obs_profile.json`
//! is byte-reproducible across hosts and invocations. Wall time appears
//! only in [`obs_overhead_ns`], which gates the instrumentation-overhead
//! budget and is never committed.

use std::fmt::Write as _;
use std::time::Instant;

use wisync_core::{Machine, MachineConfig, MachineStats, RunOutcome};
use wisync_obs::{
    histogram_json, validate_chrome, Bucket, ChromeTrace, ObsConfig, ObsState, NUM_BUCKETS,
};
use wisync_testkit::Json;
use wisync_workloads::{AppProfile, AppWorkload, CasKernel, CasKind, Livermore, TightLoop};

/// Chrome rows retained by the overhead-gate sink (the profile path uses
/// an unbounded sink plus segment streaming, so nothing is dropped there
/// regardless of run length).
pub const CHROME_CAPACITY: usize = 1 << 16;

/// Addresses shown on the contended-line leaderboard (JSON export).
pub const LEADERBOARD_TOP: usize = 16;

/// One fully instrumented run: outcome, counters, observability state,
/// and the two deterministic export documents.
#[derive(Clone, Debug)]
pub struct ProfiledRun {
    /// Workload label (e.g. `"tightloop"`).
    pub workload: String,
    /// Machine variant label (e.g. `"WiSync"`).
    pub machine: String,
    /// Medium-access policy label the Data channel ran under (e.g.
    /// `"backoff"`).
    pub mac: String,
    /// Core count.
    pub cores: usize,
    /// Termination cause.
    pub outcome: RunOutcome,
    /// Total run cycles.
    pub cycles: u64,
    /// End-of-run machine statistics.
    pub stats: MachineStats,
    /// Attribution + timeline + histograms, finalized and checked.
    pub obs: ObsState,
    /// The deterministic profile document (`wisync-obs-profile/v2`).
    pub profile: Json,
    /// The Chrome trace-event document (validated, Perfetto-loadable).
    pub chrome: Json,
}

/// Runs `load`'s workload on `m` with observability and Chrome tracing
/// enabled, checks the attribution invariant, and assembles the export
/// documents.
///
/// # Panics
///
/// Panics if the run exceeds `max_cycles`, the attribution buckets do
/// not tile the run exactly, or the Chrome document fails schema
/// validation — all are instrumentation bugs, not workload outcomes.
pub fn profile_run(
    workload: &str,
    mut m: Machine,
    max_cycles: u64,
    load: impl FnOnce(&mut Machine),
) -> ProfiledRun {
    m.enable_observability(ObsConfig::default());
    m.set_trace_sink(Box::new(ChromeTrace::unbounded()));
    load(&mut m);
    let r = m.run(max_cycles);
    assert_eq!(
        r.outcome,
        RunOutcome::Completed,
        "{workload} did not complete within {max_cycles} cycles"
    );

    // Attribution runs through the last core's retirement, which can
    // trail the last *event* (`r.cycles`) by the tail of a final ALU
    // batch; `attrib.end()` is the tiling bound for the invariant.
    let obs = m.observability().expect("observability enabled").clone();
    obs.attrib
        .check(obs.attrib.end())
        .expect("attribution buckets tile the run");
    // Spans streamed into the unbounded sink as they closed, so no run
    // is long enough to drop anything.
    assert_eq!(obs.attrib.dropped_segments(), 0, "streaming dropped spans");
    obs.episodes
        .check()
        .expect("episode lag decompositions tile their windows");

    let mut sink = m.take_trace_sink().expect("trace sink installed");
    let chrome_sink = sink.as_chrome_mut().expect("sink is a ChromeTrace");
    chrome_sink.push_counters(&obs.timeline);
    chrome_sink.push_episodes(&obs.episodes);
    let chrome = chrome_sink.to_json();
    validate_chrome(&chrome).expect("chrome trace validates");

    let stats = m.stats().clone();
    let cycles = r.cycles.as_u64();
    let machine = m.config().kind.to_string();
    let mac = m.config().wireless.mac_policy.to_string();
    let cores = m.config().cores;
    let profile = profile_json(
        workload,
        &machine,
        cores,
        &r,
        &stats,
        &obs,
        chrome_sink.len(),
    );
    ProfiledRun {
        workload: workload.to_string(),
        machine,
        mac,
        cores,
        outcome: r.outcome,
        cycles,
        stats,
        obs,
        profile,
        chrome,
    }
}

/// Profiles the pinned report workload: TightLoop on a WiSync machine.
pub fn profile_tightloop(cores: usize, iters: u64) -> ProfiledRun {
    let m = Machine::new(MachineConfig::wisync(cores));
    let wl = TightLoop::new(iters);
    let mut run = profile_run("tightloop", m, crate::BUDGET, |m| wl.load(m));
    run.workload = format!("tightloop/{iters}");
    run
}

/// Profiles a named workload on a WiSync machine — the `report` binary's
/// `--workload` flag. `iters` scales the workload: TightLoop iterations,
/// CAS operations per thread, or the Livermore vector length; app
/// profiles (by Figure 10 name) ignore it.
///
/// # Errors
///
/// Describes the accepted names if `workload` is not one of them.
pub fn profile_named(workload: &str, cores: usize, iters: u64) -> Result<ProfiledRun, String> {
    let wisync = || Machine::new(MachineConfig::wisync(cores));
    let run = match workload {
        "tightloop" => profile_tightloop(cores, iters),
        "fifo" | "lifo" | "add" => {
            let kernel = CasKernel {
                kind: match workload {
                    "fifo" => CasKind::Fifo,
                    "lifo" => CasKind::Lifo,
                    _ => CasKind::Add,
                },
                critical_section: 64,
                ops_per_thread: iters,
            };
            let mut run = profile_run(workload, wisync(), crate::BUDGET, |m| {
                let _ = kernel.load(m);
            });
            run.workload = format!("{workload}/{iters}");
            run
        }
        "livermore2" | "livermore3" | "livermore6" => {
            let n = iters.next_power_of_two().max(2);
            let wl = match workload {
                "livermore2" => Livermore::loop2(n),
                "livermore3" => Livermore::loop3(n, 10),
                _ => Livermore::loop6(n),
            };
            let mut run = profile_run(workload, wisync(), crate::BUDGET, |m| {
                let _ = wl.load(m);
            });
            run.workload = format!("{workload}/{n}");
            run
        }
        app => {
            let Some(profile) = AppProfile::by_name(app) else {
                return Err(format!(
                    "unknown workload {app:?}: expected tightloop, fifo, lifo, add, \
                     livermore2/3/6, or a Figure 10 application name"
                ));
            };
            profile_run(app, wisync(), crate::BUDGET, |m| {
                AppWorkload::new(profile).load(m);
            })
        }
    };
    Ok(run)
}

/// Attaches the profiler to one sweep grid job (`sweep --profile`): the
/// same workload shape and core count the grid builds for that row, on
/// the WiSync arm.
///
/// # Errors
///
/// Describes the expected `<figure>/<row>` shapes on unknown or
/// unprofilable (analytic/derived) job names.
pub fn profile_grid_job(job: &str, quick: bool) -> Result<ProfiledRun, String> {
    let cores = crate::grid::grid_cores(quick);
    let wisync = || Machine::new(MachineConfig::wisync(cores));
    let Some((figure, row)) = job.split_once('/') else {
        return Err(format!("job {job:?} is not of the form <figure>/<row>"));
    };
    let mut run = match figure {
        "fig7" => {
            let c: usize = row
                .strip_suffix("cores")
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("fig7 rows look like \"16cores\", got {row:?}"))?;
            profile_tightloop(c, if quick { 4 } else { 20 })
        }
        "fig8" => {
            let parsed = row
                .split_once("_n")
                .and_then(|(which, n)| Some((which, n.parse::<u64>().ok()?)));
            let Some((which, n)) = parsed else {
                return Err(format!("fig8 rows look like \"Loop2_n256\", got {row:?}"));
            };
            let wl = match which {
                "Loop2" => Livermore::loop2(n),
                "Loop3" => Livermore::loop3(n, 10),
                "Loop6" => Livermore::loop6(n),
                other => return Err(format!("unknown Livermore loop {other:?}")),
            };
            profile_run(row, wisync(), crate::BUDGET, |m| {
                let _ = wl.load(m);
            })
        }
        "fig9" => {
            let parsed = row
                .split_once("_w")
                .and_then(|(kind, w)| Some((kind, w.parse::<u64>().ok()?)));
            let Some((kind, w)) = parsed else {
                return Err(format!("fig9 rows look like \"FIFO_w64\", got {row:?}"));
            };
            let kernel = CasKernel {
                kind: match kind {
                    "FIFO" => CasKind::Fifo,
                    "LIFO" => CasKind::Lifo,
                    "ADD" => CasKind::Add,
                    other => return Err(format!("unknown CAS kind {other:?}")),
                },
                critical_section: w,
                ops_per_thread: crate::fig9_ops_for(w),
            };
            profile_run(row, wisync(), crate::BUDGET, |m| {
                let _ = kernel.load(m);
            })
        }
        "fig10" => {
            let Some(profile) = AppProfile::by_name(row) else {
                return Err(format!("unknown fig10 application {row:?}"));
            };
            profile_run(row, wisync(), crate::BUDGET, |m| {
                AppWorkload::new(profile).load(m);
            })
        }
        "fig11" => {
            // Profile the variant's most Data-channel-demanding app.
            let Some((_, variant)) = crate::fig11_variants().into_iter().find(|(n, _)| *n == row)
            else {
                return Err(format!("unknown fig11 variant {row:?}"));
            };
            let profile = AppProfile::by_name("streamcluster").expect("known app");
            let m = Machine::new(variant(MachineConfig::wisync(cores)));
            profile_run(row, m, crate::BUDGET, |m| {
                AppWorkload::new(profile).load(m);
            })
        }
        "table4" | "table5" => {
            return Err(format!(
                "{figure} rows are analytic/derived; there is no run to profile"
            ));
        }
        other => return Err(format!("unknown figure {other:?}")),
    };
    run.workload = job.to_string();
    Ok(run)
}

/// Digest of a rendered Chrome trace: the row count plus an FNV-1a 64
/// fingerprint of the full text, one per line. Committed in place of the
/// trace itself (`results/obs_trace.digest`); CI regenerates the trace,
/// re-derives the digest, and byte-compares.
pub fn trace_digest(text: &str) -> String {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for b in text.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    // Every trace event renders exactly one `"ph"` key, so counting them
    // counts rows without parsing.
    let rows = text.matches("\"ph\": ").count();
    format!("rows {rows}\nfnv1a64 {hash:016x}\n")
}

fn profile_json(
    workload: &str,
    machine: &str,
    cores: usize,
    r: &wisync_core::RunReport,
    stats: &MachineStats,
    obs: &ObsState,
    chrome_rows: usize,
) -> Json {
    Json::obj([
        ("schema", Json::Str("wisync-obs-profile/v2".to_string())),
        ("workload", Json::Str(workload.to_string())),
        ("machine", Json::Str(machine.to_string())),
        ("cores", Json::U64(cores as u64)),
        (
            "run",
            Json::obj([
                ("outcome", Json::Str(format!("{:?}", r.outcome))),
                ("cycles", Json::U64(r.cycles.as_u64())),
                ("sim_events", Json::U64(stats.sim_events)),
                ("instructions", Json::U64(stats.instructions)),
            ]),
        ),
        ("attribution", obs.attribution_json()),
        ("timeline", obs.timeline.to_json()),
        ("contention", obs.addr.to_json(LEADERBOARD_TOP)),
        (
            "histograms",
            Json::obj([
                ("broadcast_latency", histogram_json(&stats.data.latency)),
                ("mac_retries", histogram_json(&stats.data.retries)),
                ("barrier_spread", histogram_json(&obs.barrier_spread)),
            ]),
        ),
        (
            "counters",
            Json::obj([
                ("bm_stores", Json::U64(stats.bm_stores)),
                ("bm_loads", Json::U64(stats.bm_loads)),
                ("rmw_attempts", Json::U64(stats.rmw_attempts)),
                ("rmw_successes", Json::U64(stats.rmw_successes)),
                ("tone_barriers", Json::U64(stats.tone_barriers)),
                ("data_transfers", Json::U64(stats.data.transfers)),
                ("data_collisions", Json::U64(stats.data.collisions)),
                (
                    "dropped_trace_events",
                    Json::U64(stats.dropped_trace_events),
                ),
                ("chrome_rows", Json::U64(chrome_rows as u64)),
            ]),
        ),
    ])
}

/// The deterministic sync-episode profile document
/// (`wisync-sync-profile/v1`): every committed field derives from
/// simulated state, so the pinned run's export
/// (`results/sync_profile.json`) is byte-reproducible across hosts
/// and invocations.
pub fn sync_profile_json(p: &ProfiledRun) -> Json {
    Json::obj([
        ("schema", Json::Str("wisync-sync-profile/v1".to_string())),
        ("workload", Json::Str(p.workload.clone())),
        ("machine", Json::Str(p.machine.clone())),
        ("cores", Json::U64(p.cores as u64)),
        (
            "run",
            Json::obj([
                ("outcome", Json::Str(format!("{:?}", p.outcome))),
                ("cycles", Json::U64(p.cycles)),
                ("tone_barriers", Json::U64(p.stats.tone_barriers)),
                ("rmw_successes", Json::U64(p.stats.rmw_successes)),
            ]),
        ),
        ("episodes", p.obs.episodes.to_json(LEADERBOARD_TOP)),
    ])
}

impl ProfiledRun {
    /// Human-readable sync-episode report (the `report` binary's
    /// `--syncs` stdout): barrier-episode and lock-handoff leaderboards
    /// with the straggler-lag bucket decomposition. Derived entirely
    /// from simulated state, so byte-reproducible like
    /// [`ProfiledRun::render_text`].
    pub fn render_syncs_text(&self) -> String {
        const TOP: usize = 8;
        let mut out = String::new();
        let w = &mut out;
        let eps = &self.obs.episodes;
        let _ = writeln!(
            w,
            "sync episodes: {} barrier episodes ({} recorded, {} dropped), \
             {} lock holds recorded ({} dropped)",
            eps.completed_barriers(),
            eps.barriers().len(),
            eps.dropped_barriers(),
            eps.handoffs().len(),
            eps.dropped_handoffs()
        );
        let _ = writeln!(w);

        let _ = writeln!(w, "straggler lag by bucket (all episodes)");
        let lag = eps.lag_totals();
        let grand: u64 = lag.iter().sum();
        for (b, &n) in Bucket::ALL.iter().zip(lag.iter()) {
            let pct = if grand == 0 {
                0.0
            } else {
                n as f64 * 100.0 / grand as f64
            };
            let _ = writeln!(w, "  {:<14} {pct:>6.2}%  {n}", b.label());
        }
        let _ = writeln!(w);

        let stragglers = eps.straggler_leaderboard(TOP);
        let _ = writeln!(w, "stragglers (top {})", stragglers.len());
        if !stragglers.is_empty() {
            let _ = writeln!(w, "  {:>6} {:>9} {:>12}", "core", "episodes", "lag_cycles");
            for (core, count, lag) in stragglers {
                let _ = writeln!(w, "  {core:>6} {count:>9} {lag:>12}");
            }
        }
        let _ = writeln!(w);

        let slowest = eps.slowest_episodes(TOP);
        let _ = writeln!(w, "slowest episodes (top {})", slowest.len());
        if !slowest.is_empty() {
            let _ = writeln!(
                w,
                "  {:>6} {:>10} {:>10} {:>9} {:>6} {:>12}",
                "phys", "opened", "released", "arrivals", "core", "lag_cycles"
            );
            for e in slowest {
                let _ = writeln!(
                    w,
                    "  {:>6} {:>10} {:>10} {:>9} {:>6} {:>12}",
                    e.phys,
                    e.opened.as_u64(),
                    e.released.as_u64(),
                    e.arrivals,
                    e.straggler,
                    e.lag_cycles()
                );
            }
        }
        let _ = writeln!(w);

        let locks = eps.lock_leaderboard(TOP);
        let _ = writeln!(w, "contended locks (top {})", locks.len());
        if !locks.is_empty() {
            let _ = writeln!(
                w,
                "  {:>6} {:>9} {:>7} {:>12} {:>9} {:>14}",
                "phys", "acquires", "fails", "hold_cycles", "handoffs", "handoff_cycles"
            );
            for (phys, agg) in locks {
                let _ = writeln!(
                    w,
                    "  {phys:>6} {:>9} {:>7} {:>12} {:>9} {:>14}",
                    agg.acquires,
                    agg.failed_attempts,
                    agg.hold_cycles,
                    agg.handoffs,
                    agg.handoff_cycles
                );
            }
        }
        out
    }

    /// Human-readable run profile (the `report` binary's stdout).
    /// Derived entirely from simulated state, so it is as deterministic
    /// as the JSON documents.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let w = &mut out;
        let _ = writeln!(
            w,
            "run profile: {} on {} x{}",
            self.workload, self.machine, self.cores
        );
        let _ = writeln!(
            w,
            "  {:?} after {} cycles, {} events, {} instructions",
            self.outcome, self.cycles, self.stats.sim_events, self.stats.instructions
        );
        // The MAC header pairs with the contended-lines leaderboard
        // below: together they say which policy arbitrated the Data
        // channel and which broadcast lines made it sweat.
        let d = &self.stats.data;
        let _ = writeln!(
            w,
            "  mac {}: {} transfers, {} collisions, {} grants, {} exhaustions, \
             {} token-pass cycles, {} mode switches",
            self.mac,
            d.transfers,
            d.collisions,
            d.mac_grants,
            d.mac_exhaustions,
            d.token_pass_cycles,
            d.mac_mode_switches
        );
        let _ = writeln!(w);

        let _ = writeln!(w, "cycle attribution ({} cores)", self.cores);
        let totals = self.obs.attrib.totals();
        let grand: u64 = totals.iter().sum();
        for (b, &n) in Bucket::ALL.iter().zip(totals.iter()) {
            let pct = if grand == 0 {
                0.0
            } else {
                n as f64 * 100.0 / grand as f64
            };
            let _ = writeln!(w, "  {:<14} {pct:>6.2}%  {n}", b.label());
        }
        let _ = writeln!(w);

        let tl = &self.obs.timeline;
        let epochs = tl.epochs();
        let nonempty = epochs.iter().filter(|e| **e != Default::default()).count();
        let _ = writeln!(
            w,
            "timeline: {} epochs of {} cycles ({nonempty} active)",
            epochs.len(),
            tl.epoch_len()
        );
        if let Some((peak_idx, peak)) = epochs
            .iter()
            .enumerate()
            .max_by_key(|(_, e)| e.busy_cycles)
            .filter(|(_, e)| e.busy_cycles > 0)
        {
            let busy: u64 = epochs.iter().map(|e| e.busy_cycles).sum();
            let mean = busy as f64 / (epochs.len() as f64 * tl.epoch_len() as f64);
            let _ = writeln!(
                w,
                "  channel utilization: mean {mean:.4}, peak {:.4} at epoch {peak_idx}",
                peak.busy_cycles as f64 / tl.epoch_len() as f64
            );
        }
        let sum = |f: fn(&wisync_obs::Epoch) -> u64| epochs.iter().map(f).sum::<u64>();
        let _ = writeln!(
            w,
            "  transfers {}, collisions {}, retransmits {}, rmw failures {}",
            sum(|e| e.transfers),
            sum(|e| e.collisions),
            sum(|e| e.retransmits),
            sum(|e| e.rmw_failures)
        );
        let _ = writeln!(w);

        let active = self.obs.addr.active();
        let shown = self.obs.addr.leaderboard(8);
        let _ = writeln!(
            w,
            "contended lines (top {} of {active} active)",
            shown.len()
        );
        if !shown.is_empty() {
            let busy_total = self.obs.addr.totals().busy_cycles.max(1);
            let _ = writeln!(
                w,
                "  {:>6} {:>7} {:>12} {:>10} {:>11} {:>12}",
                "phys", "busy%", "busy_cycles", "transfers", "collisions", "retransmits"
            );
            for (phys, s) in shown {
                let _ = writeln!(
                    w,
                    "  {phys:>6} {:>6.2}% {:>12} {:>10} {:>11} {:>12}",
                    s.busy_cycles as f64 * 100.0 / busy_total as f64,
                    s.busy_cycles,
                    s.transfers,
                    s.collisions,
                    s.retransmits
                );
            }
        }
        let _ = writeln!(w);

        let _ = writeln!(w, "histograms (cycles)");
        let _ = writeln!(w, "  broadcast latency  {}", self.stats.data.latency);
        let _ = writeln!(w, "  mac retries        {}", self.stats.data.retries);
        let _ = writeln!(w, "  barrier spread     {}", self.obs.barrier_spread);
        out
    }
}

/// Measures the wall-clock overhead of full instrumentation
/// (attribution, timeline, per-address contention, and a streaming
/// Chrome sink together) on the perf suite's TightLoop case, scaled
/// 3x: best-of-`reps` nanoseconds for the plain run and the
/// instrumented run. The run is long enough that the sink's one-time
/// fill cost (building rows until the bounded capacity saturates and
/// streaming shuts off) amortizes — the gate measures steady-state
/// overhead, which is what long experiment runs pay. The instrumented
/// run must stay within the CI-gated budget (see
/// [`OVERHEAD_BUDGET_PCT`]).
pub fn obs_overhead_ns(reps: u32) -> (u64, u64) {
    let one = |instrument: bool| {
        let mut m = Machine::new(MachineConfig::wisync(64));
        if instrument {
            m.enable_observability(ObsConfig::default());
            m.set_trace_sink(Box::new(ChromeTrace::new(CHROME_CAPACITY)));
        }
        TightLoop::new(150).load(&mut m);
        let t0 = Instant::now();
        let r = m.run(crate::BUDGET);
        let ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(r.outcome, RunOutcome::Completed);
        ns.max(1)
    };
    // Warm up caches/frequency, then interleave the two variants so
    // host-load swings (which dwarf the effect being measured) hit both
    // distributions equally; best-of keeps the cleanest window of each.
    one(false);
    let (mut off, mut on) = (u64::MAX, u64::MAX);
    for _ in 0..reps.max(1) {
        off = off.min(one(false));
        on = on.min(one(true));
    }
    (off, on)
}

/// Maximum tolerated instrumentation overhead, in percent of the
/// uninstrumented wall time. This is a tripwire for gross regressions
/// (an accidental allocation or dispatch on the per-op hot path blows
/// straight through it), not a precision measurement: single-digit
/// percentage ratios of ~100ms wall-clock runs swing by several points
/// with host load, even best-of-N interleaved. Fine-grained drift is
/// visible instead as the benchmark's traced `obs.overhead_pct` on its
/// `lossy_mac_obs` workload (`perfbench/README.md`).
pub const OVERHEAD_BUDGET_PCT: f64 = 25.0;

/// Overhead of `on_ns` over `off_ns` in percent (negative when the
/// instrumented run was faster — noise on tiny runs).
pub fn overhead_pct(off_ns: u64, on_ns: u64) -> f64 {
    (on_ns as f64 - off_ns as f64) * 100.0 / off_ns as f64
}

/// Asserts the attribution invariant on an already-finished machine:
/// every core's buckets sum exactly to the run length.
///
/// # Panics
///
/// Panics with the failing core's tally if the invariant is violated,
/// or if observability was never enabled.
pub fn assert_attribution_exact(m: &Machine) {
    let obs = m
        .observability()
        .expect("observability must be enabled to check attribution");
    let end = obs.attrib.end();
    assert!(
        end >= m.now(),
        "attribution stopped at {end} before the last event at {}",
        m.now()
    );
    obs.attrib
        .check(end)
        .unwrap_or_else(|e| panic!("attribution invariant violated on {}: {e}", m.config().kind));
    // Belt and braces: the public invariant restated from raw totals.
    let per_run = end.saturating_since(obs.attrib.start());
    for c in 0..obs.attrib.num_cores() {
        let buckets: [u64; NUM_BUCKETS] = obs.attrib.core_buckets(c);
        let total: u64 = buckets.iter().sum();
        assert_eq!(total, per_run, "core {c} buckets do not tile the run");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_profile() -> ProfiledRun {
        profile_tightloop(8, 3)
    }

    #[test]
    fn tightloop_profile_is_complete_and_valid() {
        let p = quick_profile();
        assert_eq!(p.outcome, RunOutcome::Completed);
        let text = p.profile.render();
        assert!(text.contains("\"schema\": \"wisync-obs-profile/v2\""));
        assert!(text.contains("\"barrier_spread\""));
        assert!(text.contains("\"leaderboard\""));
        // Three tone barriers on WiSync: one per iteration.
        assert_eq!(p.stats.tone_barriers, 3);
        assert!(p.obs.barrier_spread.count() >= 3);
        // The chrome doc validated inside profile_run; spot-check shape:
        // spans were streamed and counter tracks appended.
        assert!(validate_chrome(&p.chrome).unwrap() > 0);
        let chrome = p.chrome.render();
        assert!(chrome.contains("\"ph\": \"X\""));
        assert!(chrome.contains("\"ph\": \"C\""));
        assert!(p.obs.attrib.drained_segments() > 0);
        assert!(p.obs.attrib.segments().is_empty());
    }

    #[test]
    fn named_workloads_profile_and_unknown_names_error() {
        let p = profile_named("fifo", 4, 2).unwrap();
        assert_eq!(p.workload, "fifo/2");
        assert_eq!(p.outcome, RunOutcome::Completed);
        assert!(p.obs.addr.active() > 0);
        let err = profile_named("no-such-workload", 4, 2).unwrap_err();
        assert!(err.contains("tightloop"), "{err}");
    }

    #[test]
    fn grid_jobs_profile_with_the_grid_shapes() {
        let p = profile_grid_job("fig9/FIFO_w64", true).unwrap();
        assert_eq!(p.workload, "fig9/FIFO_w64");
        assert_eq!(p.cores, 16);
        assert_eq!(p.outcome, RunOutcome::Completed);
        for bad in [
            "nope",
            "table4/overheads",
            "fig7/xcores",
            "fig8/Loop9_n4",
            "fig42/row",
        ] {
            assert!(profile_grid_job(bad, true).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn sync_profile_is_complete_and_reproducible() {
        let p = quick_profile();
        let text = sync_profile_json(&p).render();
        assert!(text.contains("\"schema\": \"wisync-sync-profile/v1\""));
        assert!(text.contains("\"stragglers\""));
        assert!(text.contains("\"slowest_episodes\""));
        // One barrier episode per TightLoop iteration, all recorded.
        assert_eq!(p.obs.episodes.completed_barriers(), 3);
        assert_eq!(p.obs.episodes.dropped_barriers(), 0);
        assert_eq!(text, sync_profile_json(&quick_profile()).render());
        let syncs = p.render_syncs_text();
        assert!(syncs.contains("sync episodes: 3 barrier episodes"));
        for b in Bucket::ALL {
            assert!(syncs.contains(b.label()), "missing {}", b.label());
        }
        assert_eq!(syncs, quick_profile().render_syncs_text());
        // The chrome export carries the episode track.
        assert!(p.chrome.render().contains("\"sync episodes\""));
    }

    #[test]
    fn lock_handoffs_surface_for_cas_workloads() {
        let p = profile_named("fifo", 4, 2).unwrap();
        let eps = &p.obs.episodes;
        assert!(!eps.handoffs().is_empty(), "fifo should record lock holds");
        assert!(!eps.lock_leaderboard(4).is_empty());
        let syncs = p.render_syncs_text();
        assert!(syncs.contains("contended locks"));
        assert!(p.chrome.render().contains("\"lock holds\""));
    }

    #[test]
    fn trace_digest_counts_rows_and_fingerprints() {
        let p = quick_profile();
        let text = p.chrome.render();
        let digest = trace_digest(&text);
        let rows = validate_chrome(&p.chrome).unwrap();
        assert!(digest.starts_with(&format!("rows {rows}\n")), "{digest}");
        assert!(digest.contains("fnv1a64 "), "{digest}");
        assert_eq!(digest, trace_digest(&text));
        assert_ne!(digest, trace_digest(&format!("{text} ")));
    }

    #[test]
    fn profile_documents_are_byte_reproducible() {
        let a = quick_profile();
        let b = quick_profile();
        assert_eq!(a.profile.render(), b.profile.render());
        assert_eq!(a.chrome.render(), b.chrome.render());
        assert_eq!(a.render_text(), b.render_text());
    }

    #[test]
    fn render_text_names_every_bucket() {
        let text = quick_profile().render_text();
        for b in Bucket::ALL {
            assert!(text.contains(b.label()), "missing {}", b.label());
        }
        assert!(text.contains("timeline:"));
        assert!(text.contains("contended lines"));
        assert!(text.contains("broadcast latency"));
        // The MAC header cites the policy next to the leaderboard it
        // explains. (The pinned profile runs under the ambient policy,
        // so only the prefix is asserted here.)
        assert!(text.contains("  mac "), "{text}");
    }

    #[test]
    fn overhead_pct_math() {
        assert!((overhead_pct(100, 105) - 5.0).abs() < 1e-9);
        assert!(overhead_pct(100, 90) < 0.0);
    }
}
