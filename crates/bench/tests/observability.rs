//! Observability contract tests.
//!
//! Four guarantees, mirroring the fault-injection contract in reverse:
//!
//! 1. **Zero perturbation.** Enabling cycle attribution, the metrics
//!    timeline, and a streaming trace sink changes *nothing* about the
//!    simulation — the results document renders byte-identically with
//!    instrumentation on and off, per workload class and per seed.
//! 2. **Exact attribution.** With observability on, every core's bucket
//!    totals tile the run exactly — compute + stalls + waits + idle sum
//!    to the core's full execution extent, cycle for cycle, across the
//!    whole workload/architecture matrix (and under random workload
//!    shapes, via the property test).
//! 3. **Streaming completeness.** Draining spans into the trace sink as
//!    they close renders the same bytes as an end-of-run drain, and
//!    keeps the bounded span store from ever dropping a span, however
//!    long the run.
//! 4. **Exact address attribution.** The per-BM-address contention
//!    ledger tiles the Data channel exactly: its busy-cycle total
//!    equals the channel's busy counter and the timeline's, per
//!    workload class and per seed.

use wisync_bench::report::assert_attribution_exact;
use wisync_bench::BUDGET;
use wisync_core::{Machine, MachineConfig, MachineKind, ObsConfig, RunOutcome};
use wisync_obs::{validate_chrome, ChromeTrace};
use wisync_testkit::{check_with, gen, prop_assert_eq, Config, Json};
use wisync_workloads::{AluPhases, CasKernel, CasKind, Livermore, TightLoop};

/// Builds a machine of `kind` with the given master seed, optionally
/// fully instrumented (attribution + timeline + Chrome sink).
fn machine(kind: MachineKind, cores: usize, seed: u64, instrumented: bool) -> Machine {
    let mut cfg = MachineConfig::for_kind(kind, cores);
    cfg.seed = seed;
    let mut m = Machine::new(cfg);
    if instrumented {
        m.enable_observability(ObsConfig::default());
        // Generous capacity: a dropped-event counter difference is a
        // real difference, not one this test should mask.
        m.set_trace_sink(Box::new(ChromeTrace::new(1 << 20)));
    }
    m
}

/// The "results JSON" for one run: outcome plus every counter a paper
/// figure reads. Rendered with the deterministic writer, so comparing
/// strings compares bytes.
fn results_json(m: &Machine, outcome: RunOutcome) -> String {
    let s = m.stats();
    Json::obj([
        ("outcome", Json::Str(format!("{outcome:?}"))),
        ("cycles", Json::U64(m.now().as_u64())),
        ("sim_events", Json::U64(s.sim_events)),
        ("instructions", Json::U64(s.instructions)),
        ("bm_stores", Json::U64(s.bm_stores)),
        ("bm_loads", Json::U64(s.bm_loads)),
        ("rmw_attempts", Json::U64(s.rmw_attempts)),
        ("rmw_successes", Json::U64(s.rmw_successes)),
        ("cas_successes", Json::U64(s.cas_successes)),
        ("tone_barriers", Json::U64(s.tone_barriers)),
        ("data_transfers", Json::U64(s.data.transfers)),
        ("data_collisions", Json::U64(s.data.collisions)),
        ("data_busy_cycles", Json::U64(s.data.busy_cycles)),
        ("mem_loads", Json::U64(s.mem.loads)),
        ("mem_stores", Json::U64(s.mem.stores)),
        ("l1_hits", Json::U64(s.mem.l1_hits)),
        ("faults", Json::U64(s.faults.len() as u64)),
    ])
    .render()
}

/// ISSUE satellite: one barrier kernel and one CAS kernel, two seeds
/// each — the instrumented and plain runs must produce byte-identical
/// results JSON.
#[test]
fn instrumentation_is_invisible_in_results_json() {
    for seed in [0xA11CE, 0xB0B] {
        // Barrier kernel on the full WiSync machine.
        let barrier = |instrumented: bool| {
            let mut m = machine(MachineKind::WiSync, 8, seed, instrumented);
            TightLoop::new(4).load(&mut m);
            let r = m.run(BUDGET);
            results_json(&m, r.outcome)
        };
        assert_eq!(
            barrier(false),
            barrier(true),
            "tracing perturbed TightLoop, seed {seed:#x}"
        );

        // CAS kernel: contended BM RMWs exercise the MAC/backoff paths.
        let cas = |instrumented: bool| {
            let mut m = machine(MachineKind::WiSync, 8, seed, instrumented);
            let k = CasKernel {
                kind: CasKind::Fifo,
                critical_section: 16,
                ops_per_thread: 8,
            };
            k.load(&mut m);
            let r = m.run(BUDGET);
            results_json(&m, r.outcome)
        };
        assert_eq!(
            cas(false),
            cas(true),
            "tracing perturbed the FIFO kernel, seed {seed:#x}"
        );
    }
}

/// The attribution invariant across the workload/architecture matrix:
/// every core's buckets tile its execution exactly, on every machine
/// kind and workload class.
#[test]
fn attribution_tiles_exactly_across_matrix() {
    // TightLoop on all four architectures (barrier paths differ on each).
    for kind in MachineKind::all() {
        let mut m = machine(kind, 8, 0xC0DE, true);
        TightLoop::new(3).load(&mut m);
        let r = m.run(BUDGET);
        assert_eq!(r.outcome, RunOutcome::Completed, "{kind:?}");
        assert_attribution_exact(&m);
    }

    // Contended CAS on WiSync (BM RMW + backoff) and Baseline (directory).
    for kind in [MachineKind::WiSync, MachineKind::Baseline] {
        let mut m = machine(kind, 8, 0xC0DE, true);
        CasKernel {
            kind: CasKind::Fifo,
            critical_section: 16,
            ops_per_thread: 8,
        }
        .load(&mut m);
        let r = m.run(BUDGET);
        assert_eq!(r.outcome, RunOutcome::Completed, "{kind:?}");
        assert_attribution_exact(&m);
    }

    // A data-parallel Livermore loop (bulk BM traffic) on WiSync.
    let mut m = machine(MachineKind::WiSync, 8, 0xC0DE, true);
    let chk = Livermore::loop2(64).load(&mut m);
    let r = m.run(BUDGET);
    assert_eq!(r.outcome, RunOutcome::Completed);
    chk.check(&m).expect("livermore result correct");
    assert_attribution_exact(&m);

    // A compute-heavy phased loop: long inline runs end at the batch
    // cap, so every core yields on the same cycle many times over.
    let mut m = machine(MachineKind::WiSync, 8, 0xC0DE, true);
    let alu = AluPhases {
        phases: 2,
        work: 512,
    };
    alu.load(&mut m);
    let r = m.run(BUDGET);
    assert_eq!(r.outcome, RunOutcome::Completed);
    alu.assert_correct(&m);
    assert_attribution_exact(&m);
}

/// Runs a contended FIFO kernel with tracing and renders the full
/// Chrome document, either streaming spans into the sink as they close
/// (`stream = true`) or retaining them all and draining at the end.
fn traced_fifo_render(seed: u64, stream: bool) -> String {
    let mut cfg = MachineConfig::wisync(8);
    cfg.seed = seed;
    let mut m = Machine::new(cfg);
    m.enable_observability(ObsConfig {
        stream_segments: stream,
        // The drained variant must retain every span to be a fair
        // reference; capacity far above what the run produces.
        segment_capacity: 1 << 20,
        ..ObsConfig::default()
    });
    m.set_trace_sink(Box::new(ChromeTrace::unbounded()));
    CasKernel {
        kind: CasKind::Fifo,
        critical_section: 16,
        ops_per_thread: 8,
    }
    .load(&mut m);
    let r = m.run(BUDGET);
    assert_eq!(r.outcome, RunOutcome::Completed);

    let obs = m.observability().expect("observability enabled").clone();
    assert_eq!(
        obs.attrib.dropped_segments(),
        0,
        "reference run dropped spans"
    );
    let mut sink = m.take_trace_sink().expect("sink installed");
    let chrome = sink.as_chrome_mut().expect("sink is a ChromeTrace");
    if !stream {
        chrome.push_segments(obs.attrib.segments());
    }
    chrome.push_counters(&obs.timeline);
    let doc = chrome.to_json();
    validate_chrome(&doc).expect("trace validates");
    doc.render()
}

/// ISSUE tentpole: streaming spans into the sink as they close renders
/// the exact same bytes as the old end-of-run drain, per seed.
#[test]
fn streamed_trace_is_byte_identical_to_drained() {
    for seed in [0xA11CE, 0xB0B, 0xC0DE] {
        assert_eq!(
            traced_fifo_render(seed, true),
            traced_fifo_render(seed, false),
            "streamed and drained traces diverged, seed {seed:#x}"
        );
    }
}

/// ISSUE acceptance: a run whose span count exceeds the configured
/// `segment_capacity` several times over still exports a complete
/// trace — streaming drains the store before it can overflow.
#[test]
fn streaming_defeats_the_segment_capacity_bound() {
    const CAPACITY: usize = 64;
    let mut m = Machine::new(MachineConfig::wisync(8));
    m.enable_observability(ObsConfig {
        segment_capacity: CAPACITY,
        ..ObsConfig::default()
    });
    m.set_trace_sink(Box::new(ChromeTrace::unbounded()));
    TightLoop::new(24).load(&mut m);
    let r = m.run(BUDGET);
    assert_eq!(r.outcome, RunOutcome::Completed);

    let obs = m.observability().expect("observability enabled").clone();
    assert!(
        obs.attrib.drained_segments() >= 4 * CAPACITY as u64,
        "run too short to stress the bound: {} spans drained",
        obs.attrib.drained_segments()
    );
    assert_eq!(obs.attrib.dropped_segments(), 0, "streaming dropped spans");

    let mut sink = m.take_trace_sink().expect("sink installed");
    let chrome = sink.as_chrome_mut().expect("sink is a ChromeTrace");
    chrome.push_counters(&obs.timeline);
    let doc = chrome.to_json();
    let rows = validate_chrome(&doc).expect("trace validates");
    assert!(
        rows as u64 >= obs.attrib.drained_segments(),
        "sink holds fewer rows ({rows}) than spans streamed"
    );
}

/// ISSUE satellite: the per-address ledger tiles the Data channel
/// exactly, for random workload shapes and seeds across all three
/// workload classes.
#[test]
fn address_ledger_tiles_data_channel_for_random_workloads() {
    let shapes = (
        gen::range_incl(0u64, 2),
        gen::range_incl(1u64, 16),
        gen::range_incl(0u64, 0xFFFF),
    );
    check_with(
        Config::with_cases(24),
        "addr_busy_matches_channel",
        shapes,
        |(class, size, seed)| {
            let mut cfg = MachineConfig::wisync(8);
            cfg.seed = seed;
            let mut m = Machine::new(cfg);
            m.enable_observability(ObsConfig::default());
            match class {
                0 => TightLoop::new(size).load(&mut m),
                1 => {
                    CasKernel {
                        kind: CasKind::Fifo,
                        critical_section: 16,
                        ops_per_thread: size,
                    }
                    .load(&mut m);
                }
                _ => {
                    Livermore::loop2(size.next_power_of_two().max(2)).load(&mut m);
                }
            }
            let r = m.run(BUDGET);
            prop_assert_eq!(r.outcome, RunOutcome::Completed);

            let obs = m.observability().expect("observability enabled");
            let totals = obs.addr.totals();
            let s = m.stats();
            // Busy cycles are booked three ways — per address, per
            // channel, per timeline epoch — and must agree exactly.
            prop_assert_eq!(totals.busy_cycles, s.data.busy_cycles);
            let epoch_busy: u64 = obs.timeline.epochs().iter().map(|e| e.busy_cycles).sum();
            prop_assert_eq!(totals.busy_cycles, epoch_busy);
            prop_assert_eq!(totals.transfers, s.data.transfers);
            let epoch_retx: u64 = obs.timeline.epochs().iter().map(|e| e.retransmits).sum();
            prop_assert_eq!(totals.retransmits, epoch_retx);
            // The leaderboard is a ranked view of the same ledger: an
            // untruncated one must sum back to the totals.
            let lb = obs.addr.leaderboard(usize::MAX);
            let lb_busy: u64 = lb.iter().map(|(_, st)| st.busy_cycles).sum();
            prop_assert_eq!(lb_busy, totals.busy_cycles);
            Ok(())
        },
    );
}

/// ISSUE satellite: per-episode straggler lag decompositions tile their
/// windows exactly — `sum(lag buckets) == released - ready` for every
/// completed barrier episode, with each bucket's lag bounded by the
/// straggler's whole-run bucket total — across random TightLoop/FIFO
/// shapes on the micro-op engine and the reference interpreter. The
/// obs-off arm of the same shape must stay byte-identical to the obs-on
/// arm's results JSON.
#[test]
fn episode_lag_decomposition_tiles_for_random_workloads() {
    let shapes = (
        gen::range_incl(0u64, 1),
        gen::range_incl(0u64, 1),
        gen::range_incl(1u64, 10),
        gen::range_incl(0u64, 0xFFFF),
    );
    check_with(
        Config::with_cases(18),
        "episode_lag_tiles",
        shapes,
        |(class, engine, size, seed)| {
            let build = |instrumented: bool| {
                let mut cfg = MachineConfig::wisync(8);
                cfg = match engine {
                    0 => cfg.with_exec(wisync_core::ExecMode::Uop),
                    _ => cfg.with_exec(wisync_core::ExecMode::Reference),
                };
                cfg.seed = seed;
                let mut m = Machine::new(cfg);
                if instrumented {
                    m.enable_observability(ObsConfig::default());
                }
                match class {
                    0 => TightLoop::new(size).load(&mut m),
                    _ => {
                        CasKernel {
                            kind: CasKind::Fifo,
                            critical_section: 16,
                            ops_per_thread: size,
                        }
                        .load(&mut m);
                    }
                }
                m
            };

            let mut m = build(true);
            let r = m.run(BUDGET);
            prop_assert_eq!(r.outcome, RunOutcome::Completed);
            let obs = m.observability().expect("observability enabled");
            obs.episodes.check().map_err(|e| {
                wisync_testkit::Failed::new(format!("episode tiling violated: {e}"))
            })?;
            // Every recorded episode was checked above; restate the
            // invariant from raw fields and bound each bucket by the
            // straggler's whole-run attribution totals.
            for e in obs.episodes.barriers() {
                let lag_sum: u64 = e.lag.iter().sum();
                prop_assert_eq!(lag_sum, e.released.saturating_since(e.ready));
                let totals = obs.attrib.core_buckets(e.straggler);
                for (b, (&lag, &total)) in e.lag.iter().zip(totals.iter()).enumerate() {
                    if lag > total {
                        return Err(wisync_testkit::Failed::new(format!(
                            "episode phys {} bucket {b}: lag {lag} exceeds the \
                             straggler's run total {total}",
                            e.phys
                        )));
                    }
                }
            }
            // TightLoop completes one barrier episode per iteration.
            if class == 0 {
                prop_assert_eq!(obs.episodes.completed_barriers(), size);
            }

            // The obs-off arm of the identical shape is unperturbed.
            let instrumented = results_json(&m, r.outcome);
            let mut plain = build(false);
            let rp = plain.run(BUDGET);
            prop_assert_eq!(results_json(&plain, rp.outcome), instrumented);
            Ok(())
        },
    );
}

/// Property test: the invariant holds for random workload shapes, not
/// just the hand-picked matrix points.
#[test]
fn attribution_invariant_holds_for_random_workloads() {
    let shapes = (
        gen::range_incl(0u64, 3),
        gen::range_incl(1u64, 4),
        gen::range_incl(1u64, 30),
    );
    check_with(
        Config::with_cases(24),
        "attribution_random_tightloop",
        shapes,
        |(kind_idx, iters, array_len)| {
            let kind = MachineKind::all()[kind_idx as usize];
            let mut m = machine(kind, 4, 0x5EED ^ iters, true);
            TightLoop { iters, array_len }.load(&mut m);
            let r = m.run(BUDGET);
            wisync_testkit::prop_assert_eq!(r.outcome, RunOutcome::Completed);
            assert_attribution_exact(&m);
            Ok(())
        },
    );
}
