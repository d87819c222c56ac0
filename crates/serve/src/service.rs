//! The in-process job service: submit a spec, get figure-report bytes.
//!
//! [`JobService`] is the whole service minus the network: it parses and
//! validates a spec, computes its content address, and either serves
//! the answer from `cache/<key>.json` or schedules the figure's slice
//! of the grid on the sweep pool, groups the rows exactly as the
//! `sweep` binary would, and caches the rendered report. The HTTP layer
//! in [`crate::http`] is a thin shell over this, so tests (and the CI
//! smoke job) exercise the same path a remote client does.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wisync_bench::grid;
use wisync_bench::serve_metrics::ServiceMetrics;
use wisync_testkit::{run_sweep_indexed, Json, SweepJob};

use crate::registry::JobRegistry;
use crate::spec::{cache_key, key_hex, ExecKnobs, JobSpec};

/// Why a submission failed, split by who got it wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The spec document is malformed (client error).
    BadSpec(String),
    /// The spec names a figure the grid cannot produce (client error).
    UnknownFigure(String),
    /// The cache directory is unusable (server error).
    Io(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadSpec(m) => write!(f, "bad spec: {m}"),
            ServeError::UnknownFigure(m) => write!(f, "unknown figure: {m}"),
            ServeError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A served result: the figure-report bytes plus how they were
/// produced.
#[derive(Clone, Debug)]
pub struct JobResponse {
    /// The rendered figure report — for a committed-defaults spec,
    /// byte-identical to the matching `results/<figure>.json`.
    pub body: String,
    /// Whether the result came from the cache without simulating.
    pub cache_hit: bool,
    /// The content address, as the 32-hex-digit cache file stem.
    pub key: String,
    /// Grid jobs simulated for this request (0 on a hit).
    pub jobs_run: u64,
    /// The submission's id in the live [`JobRegistry`] (the
    /// `X-Wisync-Job` response header; poll
    /// `GET /jobs/<id>/progress` with it).
    pub job_id: u64,
}

/// Per-job progress callback: called from pool worker threads as each
/// grid job finishes.
pub type Progress = Arc<dyn Fn(&str) + Send + Sync>;

/// A long-running sweep-job service with a content-addressed result
/// cache rooted at one directory.
pub struct JobService {
    cache_dir: PathBuf,
    threads: usize,
    // Shared handles (not service-private state) so the HTTP shell can
    // answer `GET /metrics` and `GET /jobs/<id>/progress` while a
    // submission holds the service itself.
    metrics: Arc<Mutex<ServiceMetrics>>,
    registry: Arc<JobRegistry>,
    progress: Option<Progress>,
}

impl JobService {
    /// Opens (creating if needed) a service over `cache_dir` with a
    /// sweep pool of `threads` workers. Cumulative request counters are
    /// carried forward from a previous service's `metrics.json` in the
    /// same directory; the wall-time histogram restarts per process.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the cache directory cannot be created.
    pub fn new(cache_dir: impl Into<PathBuf>, threads: usize) -> Result<JobService, ServeError> {
        let cache_dir = cache_dir.into();
        std::fs::create_dir_all(&cache_dir)
            .map_err(|e| ServeError::Io(format!("create {}: {e}", cache_dir.display())))?;
        let mut metrics = ServiceMetrics::default();
        if let Ok(text) = std::fs::read_to_string(cache_dir.join("metrics.json")) {
            if let Ok(doc) = Json::parse(&text) {
                let int = |key: &str| match doc.get(key) {
                    Some(Json::U64(n)) => *n,
                    _ => 0,
                };
                metrics.jobs_run = int("jobs_run");
                metrics.cache_hits = int("cache_hits");
                metrics.cache_misses = int("cache_misses");
                metrics.cache_bytes = int("cache_bytes");
            }
        }
        Ok(JobService {
            cache_dir,
            threads: threads.max(1),
            metrics: Arc::new(Mutex::new(metrics)),
            registry: Arc::new(JobRegistry::new()),
            progress: None,
        })
    }

    /// Installs a per-job progress callback, invoked from worker
    /// threads as grid jobs finish.
    pub fn with_progress(mut self, progress: Progress) -> JobService {
        self.progress = Some(progress);
        self
    }

    /// A point-in-time copy of the service's cumulative utilization
    /// counters.
    pub fn metrics(&self) -> ServiceMetrics {
        self.metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The shared metrics handle — lets `GET /metrics` answer without
    /// taking the service lock a running submission holds.
    pub fn metrics_handle(&self) -> Arc<Mutex<ServiceMetrics>> {
        Arc::clone(&self.metrics)
    }

    /// The live job registry (shared with the HTTP shell for
    /// `GET /jobs/<id>/progress`).
    pub fn registry(&self) -> Arc<JobRegistry> {
        Arc::clone(&self.registry)
    }

    /// Where [`ServiceMetrics`] is persisted after every request.
    pub fn metrics_path(&self) -> PathBuf {
        self.cache_dir.join("metrics.json")
    }

    /// The cache file a key maps to.
    pub fn cache_path(&self, key: &str) -> PathBuf {
        self.cache_dir.join(format!("{key}.json"))
    }

    /// Serves one spec: cache hit if this exact (spec, code version) has
    /// been answered before, otherwise runs the figure's
    /// grid slice and caches the report.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadSpec`] / [`ServeError::UnknownFigure`] for
    /// client mistakes, [`ServeError::Io`] when the cache misbehaves.
    pub fn submit(&mut self, spec_text: &str) -> Result<JobResponse, ServeError> {
        let started = Instant::now();
        let spec = JobSpec::parse(spec_text).map_err(ServeError::BadSpec)?;
        if !grid::figure_names(spec.quick).contains(&spec.figure) {
            return Err(ServeError::UnknownFigure(format!(
                "{:?} (known: {})",
                spec.figure,
                grid::figure_names(spec.quick).join(", ")
            )));
        }
        let key = key_hex(cache_key(&spec, &ExecKnobs));
        let path = self.cache_path(&key);
        let job_id = self.registry.begin(&spec.figure);

        if let Ok(body) = std::fs::read_to_string(&path) {
            let wall = started.elapsed().as_micros() as u64;
            self.lock_metrics().record_hit(wall);
            self.persist_metrics();
            self.registry.finish(job_id, true);
            return Ok(JobResponse {
                body,
                cache_hit: true,
                key,
                jobs_run: 0,
                job_id,
            });
        }

        let jobs_run = grid::figure_jobs(spec.quick, &spec.figure).len() as u64;
        self.registry.set_total(job_id, jobs_run);
        let body = self.run_figure(&spec, job_id);
        write_atomic(&path, body.as_bytes(), true)
            .map_err(|e| ServeError::Io(format!("write {}: {e}", path.display())))?;
        {
            let mut metrics = self.lock_metrics();
            metrics.cache_bytes = dir_bytes(&self.cache_dir);
            let wall = started.elapsed().as_micros() as u64;
            metrics.record_miss(jobs_run, wall);
        }
        self.persist_metrics();
        self.registry.finish(job_id, false);
        Ok(JobResponse {
            body,
            cache_hit: false,
            key,
            jobs_run,
            job_id,
        })
    }

    /// Runs the figure's slice of the grid and renders the report,
    /// byte-identical to what a full `sweep` run writes for the same
    /// seed and scale (job seeds derive from global grid indices).
    fn run_figure(&self, spec: &JobSpec, job_id: u64) -> String {
        let jobs = grid::figure_jobs(spec.quick, &spec.figure);
        let indices: Vec<u64> = jobs.iter().map(|(i, _)| *i).collect();
        let total = jobs.len();
        // Every job reports to the live registry as it finishes (and to
        // the installed progress callback, if any).
        let jobs: Vec<_> = jobs
            .into_iter()
            .map(|(i, job)| {
                let progress = self.progress.clone();
                let registry = Arc::clone(&self.registry);
                let name = job.name.clone();
                let run = job.run;
                (
                    i,
                    SweepJob::new(name.clone(), move |rng| {
                        let t = Instant::now();
                        let out = run(rng);
                        registry.job_done(job_id);
                        if let Some(progress) = &progress {
                            progress(&format!(
                                "job {name} done in {:.1} ms",
                                t.elapsed().as_secs_f64() * 1e3
                            ));
                        }
                        out
                    }),
                )
            })
            .collect();
        if let Some(progress) = &self.progress {
            progress(&format!(
                "figure {} -> {total} grid jobs on {} threads",
                spec.figure, self.threads
            ));
        }
        let results = run_sweep_indexed(jobs, self.threads, spec.seed);
        let mut reports = grid::figure_reports(
            indices
                .into_iter()
                .zip(results)
                .map(|(index, (name, value, _))| (index, name, value)),
            spec.seed,
            spec.quick,
        );
        reports
            .remove(&spec.figure)
            .unwrap_or_else(|| grid::figure_report(&spec.figure, spec.seed, spec.quick, Vec::new()))
            .render()
    }

    fn lock_metrics(&self) -> std::sync::MutexGuard<'_, ServiceMetrics> {
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn persist_metrics(&self) {
        let doc = self.lock_metrics().to_json().render();
        // Metrics are advisory; a failed write must not fail the request.
        let _ = write_atomic(&self.metrics_path(), (doc + "\n").as_bytes(), false);
    }
}

/// Writes `bytes` to `path` through a temp file in the same directory
/// and a rename, so readers see the old file or the whole new one,
/// never a prefix. A crash leaves at most a stray `.*.tmp` file, which
/// is never read as a cache entry. `durable` syncs the temp file before
/// the rename, so that after a machine crash the file is whole or
/// absent; cache entries need that, while `metrics.json` is advisory,
/// rewritten on every request, and read leniently.
fn write_atomic(path: &Path, bytes: &[u8], durable: bool) -> std::io::Result<()> {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = path.with_file_name(format!(".{name}.{}.tmp", std::process::id()));
    let written = std::fs::File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            if durable {
                file.sync_all()?;
            }
            Ok(())
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Total bytes of cached results (`<key>.json`) in `dir`: `metrics.json`
/// is service state, and temp files are not results.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.ends_with(".json") && name != "metrics.json"
        })
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}
