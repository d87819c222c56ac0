//! The four simulated workloads: seeded job lists, one job run with
//! spans around each layer call, and the simulated-count digest.

use std::time::Instant;

use wisync_bench::chaos::CHAOS_BUDGET;
use wisync_bench::mac_lab::lab_channel;
use wisync_bench::{fig7_core_counts, BUDGET};
use wisync_core::{Machine, MachineConfig, MachineKind, RunOutcome};
use wisync_obs::ObsConfig;
use wisync_sim::DetRng;
use wisync_wireless::MacPolicy;
use wisync_workloads::{
    AppProfile, AppWorkload, CasKernel, CasKind, Livermore, LivermoreLoop, TightLoop,
};

use crate::host::HostWindow;
use crate::report::Report;
use crate::stats::{median, units_needed, Ratio, Unit};
use crate::trace::{summarize, Tracer};

/// The simulated workloads (see README.md for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimWorkload {
    WisyncSync,
    BaselineSync,
    ComputeApps,
    LossyMacObs,
}

/// TightLoop barrier episodes per job.
const TIGHT_ITERS: u64 = 40;
/// The small critical sections of Figure 9 the CAS kernels run at.
const SMALL_CS: [u64; 4] = [4, 8, 16, 64];
/// CAS operations per thread.
const CAS_OPS: u64 = 24;
/// Core count of the CAS and compute jobs (the paper's default).
const CORES: usize = 64;
/// Livermore loop 3 vector lengths: per core it touches `2n/64` lines,
/// so 4096 stays inside the 512-line L1 and 65536 is four times it.
const LOOP3: [(u64, u64); 2] = [(4096, 4), (65_536, 1)];
/// Livermore loop 6 vector lengths (its one vector stays inside L1).
const LOOP6: [u64; 2] = [128, 256];
/// Figure 10 application profiles of the compute workload.
const APPS: [&str; 3] = ["streamcluster", "raytrace", "water-ns"];
/// Lossy-channel bad-state bit-error rates (two of the MAC lab's
/// points).
const LOSSY_BERS: [f64; 2] = [1e-4, 1e-3];
/// Fault-plan seeds per lossy cell and pass. Whether a lossy run ends
/// correct, or wrong and detected (and so how long it runs), depends on
/// its fault pattern; several patterns per cell keep the cost of a pass
/// nearly the same for every seed.
const LOSSY_PLANS: usize = 4;
/// Lossy-cell sizes, larger than the MAC lab's CI constants.
const LOSSY_CORES: usize = 16;
const LOSSY_TIGHT_ITERS: u64 = 24;
const LOSSY_CAS_OPS: u64 = 24;
const LOSSY_CAS_CS: u64 = 16;

/// What one job runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Kernel {
    Tight {
        iters: u64,
    },
    Cas {
        kind: CasKind,
        cs: u64,
        ops: u64,
    },
    Livermore {
        which: LivermoreLoop,
        n: u64,
        reps: u64,
    },
    App {
        name: &'static str,
        jitter_seed: u64,
    },
}

/// One simulated job: a kernel on a machine, with its channel.
#[derive(Clone, Debug, PartialEq)]
pub struct Job {
    pub kernel: Kernel,
    pub kind: MachineKind,
    pub cores: usize,
    pub mac: MacPolicy,
    pub machine_seed: u64,
    /// Bad-state BER of the lab channel (0 = clean, no fault plan).
    pub ber: f64,
    pub plan_seed: u64,
    pub obs: bool,
}

impl Job {
    fn new(kernel: Kernel, kind: MachineKind, cores: usize) -> Job {
        Job {
            kernel,
            kind,
            cores,
            mac: MacPolicy::Exponential,
            machine_seed: 0,
            ber: 0.0,
            plan_seed: 0,
            obs: false,
        }
    }

    pub fn name(&self) -> String {
        let k = match &self.kernel {
            Kernel::Tight { iters } => format!("tightloop_i{iters}"),
            Kernel::Cas { kind, cs, ops } => format!("{kind}_w{cs}_o{ops}"),
            Kernel::Livermore { which, n, reps } => format!("{which}_n{n}_r{reps}"),
            Kernel::App { name, .. } => name.to_string(),
        };
        format!(
            "{k}/{}/{}c/{}/ber{:e}",
            self.kind, self.cores, self.mac, self.ber
        )
    }

    fn config(&self) -> MachineConfig {
        MachineConfig::for_kind(self.kind, self.cores)
            .with_seed(self.machine_seed)
            .with_mac(self.mac)
    }
}

/// The job list of `w` for `seed`. The seed picks machine seeds,
/// application jitter seeds, fault-plan seeds and the job order; the
/// set of kernels and sizes is fixed, so every seed costs about the
/// same.
pub fn jobs(w: SimWorkload, seed: u64) -> Vec<Job> {
    let mut out = Vec::new();
    match w {
        SimWorkload::WisyncSync | SimWorkload::BaselineSync => {
            let kind = if w == SimWorkload::WisyncSync {
                MachineKind::WiSync
            } else {
                MachineKind::Baseline
            };
            for cores in fig7_core_counts() {
                out.push(Job::new(Kernel::Tight { iters: TIGHT_ITERS }, kind, cores));
            }
            for cas in [CasKind::Fifo, CasKind::Add] {
                for cs in SMALL_CS {
                    let kernel = Kernel::Cas {
                        kind: cas,
                        cs,
                        ops: CAS_OPS,
                    };
                    out.push(Job::new(kernel, kind, CORES));
                }
            }
        }
        SimWorkload::ComputeApps => {
            for (n, reps) in LOOP3 {
                let which = LivermoreLoop::Loop3;
                out.push(Job::new(
                    Kernel::Livermore { which, n, reps },
                    MachineKind::WiSync,
                    CORES,
                ));
            }
            for n in LOOP6 {
                let which = LivermoreLoop::Loop6;
                out.push(Job::new(
                    Kernel::Livermore { which, n, reps: 1 },
                    MachineKind::WiSync,
                    CORES,
                ));
            }
            for name in APPS {
                let kernel = Kernel::App {
                    name,
                    jitter_seed: 0,
                };
                out.push(Job::new(kernel, MachineKind::WiSync, CORES));
            }
        }
        SimWorkload::LossyMacObs => {
            for mac in [
                MacPolicy::Exponential,
                MacPolicy::TokenRing,
                MacPolicy::AdaptiveHybrid,
            ] {
                let tight = Kernel::Tight {
                    iters: LOSSY_TIGHT_ITERS,
                };
                let fifo = Kernel::Cas {
                    kind: CasKind::Fifo,
                    cs: LOSSY_CAS_CS,
                    ops: LOSSY_CAS_OPS,
                };
                let cells = [(tight, MachineKind::WiSyncNoT), (fifo, MachineKind::WiSync)];
                for (kernel, kind) in cells {
                    for ber in LOSSY_BERS {
                        let mut job = Job::new(kernel.clone(), kind, LOSSY_CORES);
                        job.mac = mac;
                        job.ber = ber;
                        job.obs = true;
                        out.extend(std::iter::repeat_n(job, LOSSY_PLANS));
                    }
                }
            }
        }
    }
    let mut rng = DetRng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    for job in &mut out {
        job.machine_seed = rng.next_u64();
        job.plan_seed = rng.next_u64();
        if let Kernel::App { jitter_seed, .. } = &mut job.kernel {
            *jitter_seed = rng.next_u64();
        }
    }
    shuffle(&mut out, &mut rng);
    out
}

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut DetRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Simulated counts of a run (all simulated, none host-timed).
pub const DIGEST_FIELDS: [&str; 24] = [
    "jobs",
    "cycles",
    "instructions",
    "events",
    "mem_accesses",
    "l1_hits",
    "dir_transactions",
    "invalidations",
    "data_transfers",
    "data_collisions",
    "data_busy_cycles",
    "mac_exhaustions",
    "tone_barriers",
    "rmw_attempts",
    "rmw_successes",
    "cas_attempts",
    "cas_successes",
    "fault_injected",
    "fault_detected",
    "fault_retransmits",
    "fault_resyncs",
    "fault_undetected",
    "dropped_trace_events",
    "bm_stores",
];

/// Simulated counts, summed over jobs; equal digests mean the
/// simulation did the same work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest([u64; DIGEST_FIELDS.len()]);

impl Digest {
    pub fn of(m: &Machine) -> Digest {
        let s = m.stats();
        let f = &s.fault_stats;
        Digest([
            1,
            m.now().as_u64(),
            s.instructions,
            s.sim_events,
            s.mem.loads + s.mem.stores + s.mem.rmws,
            s.mem.l1_hits,
            s.mem.dir_transactions,
            s.mem.invalidations,
            s.data.transfers,
            s.data.collisions,
            s.data.busy_cycles,
            s.data.mac_exhaustions,
            s.tone_barriers,
            s.rmw_attempts,
            s.rmw_successes,
            s.cas_attempts,
            s.cas_successes,
            f.injected(),
            f.detected(),
            f.retransmits,
            f.resyncs,
            f.undetected_corruptions,
            s.dropped_trace_events,
            s.bm_stores,
        ])
    }

    pub fn add(&mut self, other: &Digest) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    /// One count by its [`DIGEST_FIELDS`] name.
    pub fn get(&self, field: &str) -> u64 {
        let i = DIGEST_FIELDS
            .iter()
            .position(|f| *f == field)
            .expect("digest field names are fixed");
        self.0[i]
    }

    /// FNV-1a over the counts, folded into `acc`.
    pub fn fold_hash(&self, mut acc: u64) -> u64 {
        for v in self.0 {
            for byte in v.to_le_bytes() {
                acc ^= u64::from(byte);
                acc = acc.wrapping_mul(0x0100_0000_01b3);
            }
        }
        acc
    }

    pub fn render(&self) -> String {
        DIGEST_FIELDS
            .iter()
            .zip(self.0)
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// FNV-1a offset basis for [`Digest::fold_hash`] chains.
pub const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// A workload's correctness oracle over the finished machine.
type Oracle = Box<dyn Fn(&Machine) -> Result<(), String>>;

fn load(kernel: &Kernel, m: &mut Machine) -> Oracle {
    match kernel {
        Kernel::Tight { iters } => {
            let wl = TightLoop::new(*iters);
            wl.load(m);
            Box::new(move |m| wl.check(m))
        }
        Kernel::Cas { kind, cs, ops } => {
            let chk = CasKernel {
                kind: *kind,
                critical_section: *cs,
                ops_per_thread: *ops,
            }
            .load(m);
            Box::new(move |m| chk.check(m))
        }
        Kernel::Livermore { which, n, reps } => {
            let wl = match which {
                LivermoreLoop::Loop2 => Livermore::loop2(*n),
                LivermoreLoop::Loop3 => Livermore::loop3(*n, *reps),
                LivermoreLoop::Loop6 => Livermore::loop6(*n),
            };
            let chk = wl.load(m);
            Box::new(move |m| chk.check(m))
        }
        Kernel::App { name, jitter_seed } => {
            let profile = AppProfile::by_name(name).expect("application profile exists");
            AppWorkload {
                profile,
                seed: *jitter_seed,
            }
            .load(m);
            // Application profiles have no result oracle: completing
            // every phase is their check.
            Box::new(|_| Ok(()))
        }
    }
}

/// Host times and outcome of one job.
pub struct JobRun {
    pub digest: Digest,
    /// `Machine::new` plus workload load: the job's set-up.
    pub setup_ns: u64,
    /// Set-up, `Machine::run` and the oracle: the job as one operation.
    pub op_ns: u64,
    pub run_ns: u64,
    pub error: Option<String>,
    /// Why a lossy-channel run ended wrong with its fault detected.
    pub detected_wrong: Option<String>,
}

/// Runs one job, recording a `job` span with one child per layer call,
/// and returns the finished machine.
pub fn run_job(job: &Job, tracer: &mut Tracer, id: u64) -> (JobRun, Machine) {
    let root = tracer.open("job", None, id);
    let t0 = Instant::now();
    let span = tracer.open("core.new", root, id);
    let mut m = Machine::new(job.config());
    if job.obs {
        m.enable_observability(ObsConfig::default());
    }
    if job.ber > 0.0 {
        m.set_fault_plan(lab_channel(job.ber, job.plan_seed));
    }
    tracer.close(span);
    let span = tracer.open("workloads.load", root, id);
    let oracle = load(&job.kernel, &mut m);
    tracer.close(span);
    let t1 = Instant::now();
    let span = tracer.open("core.run", root, id);
    let budget = if job.ber > 0.0 { CHAOS_BUDGET } else { BUDGET };
    let report = m.run(budget);
    tracer.close(span);
    let t2 = Instant::now();
    let span = tracer.open("workloads.check", root, id);
    let digest = Digest::of(&m);
    let wrong = if report.outcome != RunOutcome::Completed {
        Some(format!("run ended in {:?}", report.outcome))
    } else {
        oracle(&m).err()
    };
    let undetected = digest.get("fault_undetected");
    let (error, detected_wrong) = match wrong {
        _ if undetected > 0 => (
            Some(format!("{undetected} corruptions escaped detection")),
            None,
        ),
        // The fault-injection contract: on a lossy channel a run must end
        // correct, or wrong with the fault detected. Only silent
        // divergence is a failure.
        Some(why) if job.ber > 0.0 && digest.get("fault_detected") > 0 => (None, Some(why)),
        other => (other, None),
    };
    tracer.close(span);
    let t3 = Instant::now();
    tracer.close(root);
    let run = JobRun {
        digest,
        setup_ns: (t1 - t0).as_nanos() as u64,
        op_ns: (t3 - t0).as_nanos() as u64,
        run_ns: (t2 - t1).as_nanos() as u64,
        error: error.map(|e| format!("{}: {e}", job.name())),
        detected_wrong,
    };
    (run, m)
}

/// Reports the per-layer counts of a digest (all simulated), each ratio
/// with its base.
pub fn report_counts(report: &mut Report, d: &Digest) {
    for (name, field) in [
        ("sim.events", "events"),
        ("core.instructions", "instructions"),
        ("mem.accesses", "mem_accesses"),
        ("mem.dir_transactions", "dir_transactions"),
        ("mem.invalidations", "invalidations"),
        ("wireless.data_transfers", "data_transfers"),
        ("wireless.mac_exhaustions", "mac_exhaustions"),
        ("wireless.tone_barriers", "tone_barriers"),
        ("fault.injected", "fault_injected"),
        ("fault.detected", "fault_detected"),
        ("fault.retransmits", "fault_retransmits"),
        ("fault.resyncs", "fault_resyncs"),
        ("fault.undetected", "fault_undetected"),
        ("obs.dropped_trace_events", "dropped_trace_events"),
    ] {
        report.set(name, d.get(field) as f64);
    }
    let transfers = d.get("data_transfers");
    for (name, ratio) in [
        (
            "sim.events_per_kcycle",
            Ratio::new(d.get("events") as f64 * 1e3, d.get("cycles") as f64),
        ),
        (
            "mem.l1_hit_ratio",
            Ratio::new(d.get("l1_hits") as f64, d.get("mem_accesses") as f64),
        ),
        (
            "wireless.data_success_ratio",
            Ratio::new(
                transfers as f64,
                (transfers + d.get("data_collisions")) as f64,
            ),
        ),
        (
            "wireless.data_busy_frac",
            Ratio::new(d.get("data_busy_cycles") as f64, d.get("cycles") as f64),
        ),
        (
            "core.rmw_success_ratio",
            Ratio::new(d.get("rmw_successes") as f64, d.get("rmw_attempts") as f64),
        ),
        (
            "core.cas_success_ratio",
            Ratio::new(d.get("cas_successes") as f64, d.get("cas_attempts") as f64),
        ),
    ] {
        report.line(format!("{name} = {}", ratio.show()));
        report.set(name, ratio.value());
    }
}

/// One pass over the job list.
#[derive(Default)]
struct Pass {
    traced: bool,
    /// Host time of the pass's operations (set-up, run and check).
    op_ns: u64,
    setup_ns: u64,
    digest: Digest,
    /// Per-job digests chained in job order.
    hash: u64,
}

/// Runs passes over the job list of `w` until `seconds` have passed
/// and the slowest tenth of the passes holds enough jobs for the 90th
/// percentile. A traced run alternates traced and untraced passes (at
/// least three); the difference between them is the tracing overhead.
pub fn run(
    w: SimWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let list = jobs(w, seed);
    let mut passes: Vec<Pass> = Vec::new();
    // One unit per untraced pass, for the end-to-end timings.
    let mut units: Vec<Unit> = Vec::new();
    let mut snapshots: [Vec<f64>; 3] = Default::default();
    let mut obs_ns = (0u64, 0u64);
    // (count, first example) of lossy jobs that ended wrong, detected.
    let mut detected_wrong: (u64, Option<String>) = (0, None);
    let window = HostWindow::start();
    let started = Instant::now();
    let min_units = if traced { 3 } else { units_needed(list.len()) };
    while started.elapsed().as_secs_f64() < seconds || units.len() < min_units {
        let mut pass = Pass {
            traced: traced && passes.len() % 2 == 1,
            hash: HASH_SEED,
            ..Pass::default()
        };
        let mut ops_ms = Vec::new();
        tracer.set_enabled(pass.traced);
        for (i, job) in list.iter().enumerate() {
            let id = (passes.len() * list.len() + i) as u64;
            let (run, m) = run_job(job, tracer, id);
            report.attempted += 1;
            if let Some(e) = run.error {
                report.failures.push(e);
            }
            if let Some(why) = run.detected_wrong {
                detected_wrong.0 += 1;
                detected_wrong
                    .1
                    .get_or_insert(format!("{}: {why}", job.name()));
            }
            pass.op_ns += run.op_ns;
            pass.setup_ns += run.setup_ns;
            pass.digest.add(&run.digest);
            pass.hash = run.digest.fold_hash(pass.hash);
            if !pass.traced {
                ops_ms.push(run.op_ns as f64 / 1e6);
                continue;
            }
            snapshot_restore(&m, tracer, id, &mut snapshots, report);
            if job.obs {
                let twin = Job {
                    obs: false,
                    ..job.clone()
                };
                tracer.set_enabled(false);
                let (off, _) = run_job(&twin, tracer, id);
                tracer.set_enabled(true);
                obs_ns.0 += run.run_ns;
                obs_ns.1 += off.run_ns;
                if off.digest != run.digest {
                    report
                        .failures
                        .push(format!("{}: obs-on and obs-off digests differ", job.name()));
                }
            }
        }
        if !pass.traced {
            units.push(Unit {
                secs: pass.op_ns as f64 / 1e9,
                ops_ms,
                setup_s: pass.setup_ns as f64 / 1e9,
                instructions: pass.digest.get("instructions") as f64,
                events: pass.digest.get("events") as f64,
            });
        }
        passes.push(pass);
    }
    tracer.set_enabled(traced);
    report.line(window.finish());
    for (k, p) in passes.iter().enumerate() {
        if p.hash != passes[0].hash {
            report.failures.push(format!(
                "pass {k} simulated different counts than pass 0 (hash 0x{:016x} vs 0x{:016x})",
                p.hash, passes[0].hash
            ));
        }
    }

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let digest = passes[0].digest;
    report.line(format!(
        "{} jobs per pass, {} passes ({} untraced)",
        list.len(),
        passes.len(),
        untraced.len()
    ));
    if list.iter().any(|j| j.ber > 0.0) {
        report.line(format!(
            "lossy jobs that ended wrong with the fault detected (allowed): {} of {}{}",
            detected_wrong.0,
            report.attempted,
            detected_wrong
                .1
                .map_or(String::new(), |why| format!(", first: {why}"))
        ));
    }
    report.line(format!("digest (one pass, simulated): {}", digest.render()));
    report.line(format!("digest: pass_hash=0x{:016x}", passes[0].hash));
    crate::report::end_to_end(report, &units);

    if traced {
        report_counts(report, &digest);
        let ms = |v: &[f64]| median(v).map(|ns| ns / 1e6);
        let summary = summarize(tracer.spans());
        for (metric, span) in [
            ("core.new_ms", "core.new"),
            ("core.run_ms", "core.run"),
            ("workloads.load_ms", "workloads.load"),
        ] {
            if let Some(v) = summary.get(span).and_then(|s| ms(&s.3)) {
                report.set(metric, v);
            }
        }
        for (metric, values) in ["core.snapshot_ms", "core.restore_ms", "core.snapshot_kb"]
            .into_iter()
            .zip(&snapshots)
        {
            if let Some(v) = median(values) {
                report.set(metric, v);
            }
        }
        let op = |p: &&Pass| p.op_ns as f64 / 1e9;
        let t: Vec<f64> = passes.iter().filter(|p| p.traced).map(|p| op(&p)).collect();
        let u: Vec<f64> = untraced.iter().map(op).collect();
        crate::report_overhead(report, &t, &u);
        if obs_ns.1 > 0 {
            let r = Ratio::new(obs_ns.0 as f64, obs_ns.1 as f64);
            report.line(format!(
                "obs.overhead_pct = {:.3} % (obs-on/obs-off Machine::run ns {})",
                (r.value() - 1.0) * 100.0,
                r.show()
            ));
            report.set("obs.overhead_pct", (r.value() - 1.0) * 100.0);
        }
    }
}

/// Times the snapshot codec on a finished machine and checks that the
/// restored machine carries the same simulated state.
fn snapshot_restore(
    m: &Machine,
    tracer: &mut Tracer,
    id: u64,
    out: &mut [Vec<f64>; 3],
    report: &mut Report,
) {
    let t = Instant::now();
    let span = tracer.open("core.snapshot", None, id);
    let bytes = m.snapshot();
    tracer.close(span);
    let t1 = Instant::now();
    let span = tracer.open("core.restore", None, id);
    let restored = Machine::restore(&bytes);
    tracer.close(span);
    let t2 = Instant::now();
    out[0].push((t1 - t).as_secs_f64() * 1e3);
    out[1].push((t2 - t1).as_secs_f64() * 1e3);
    out[2].push(bytes.len() as f64 / 1024.0);
    match restored {
        Ok(r) if Digest::of(&r) == Digest::of(m) => {}
        Ok(_) => report.failures.push(format!(
            "job {id}: restored machine differs from the snapshot"
        )),
        Err(e) => report
            .failures
            .push(format!("job {id}: snapshot does not restore: {e:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [SimWorkload; 4] = [
        SimWorkload::WisyncSync,
        SimWorkload::BaselineSync,
        SimWorkload::ComputeApps,
        SimWorkload::LossyMacObs,
    ];

    #[test]
    fn job_lists_are_deterministic_per_seed_and_differ_across_seeds() {
        for w in ALL {
            assert_eq!(jobs(w, 7), jobs(w, 7), "{w:?}");
            assert_ne!(jobs(w, 7), jobs(w, 8), "{w:?}");
        }
    }

    #[test]
    fn seeds_change_seeds_and_order_but_not_the_kernel_set() {
        for w in ALL {
            let names = |seed| {
                let mut v: Vec<String> = jobs(w, seed).iter().map(Job::name).collect();
                v.sort();
                v
            };
            assert_eq!(names(1), names(2), "{w:?}");
        }
    }

    #[test]
    fn obs_twins_have_identical_digests() {
        let mut tracer = Tracer::new(false);
        for mut job in jobs(SimWorkload::LossyMacObs, 3).into_iter().take(4) {
            job.obs = true;
            let (on, _) = run_job(&job, &mut tracer, 0);
            job.obs = false;
            let (off, _) = run_job(&job, &mut tracer, 0);
            assert_eq!(on.error, None);
            assert_eq!(on.digest, off.digest, "{}", job.name());
        }
    }

    #[test]
    fn digest_hash_sees_every_count() {
        let mut a = Digest::default();
        let b = a.fold_hash(HASH_SEED);
        a.0[DIGEST_FIELDS.len() - 1] = 1;
        assert_ne!(a.fold_hash(HASH_SEED), b);
    }
}
