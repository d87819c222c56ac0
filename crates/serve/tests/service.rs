//! End-to-end tests for the job service and its HTTP shell.
//!
//! The cheap `table4` figure (one analytic job, no simulation) keeps
//! these fast while still exercising the full submit path: spec
//! parsing, content addressing, grid scheduling, caching, metrics, and
//! byte-identity against the committed `results/table4.json`.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wisync_serve::http::run_server;
use wisync_serve::{submit_http, ExecKnobs, JobService, ServeError};

/// A fresh per-test cache directory under the target dir (no tempfile
/// dependency; the workspace is hermetic).
fn cache_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("serve-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Pinned knobs so tests are independent of the ambient environment.
fn pinned_knobs() -> ExecKnobs {
    ExecKnobs {
        exec: "default".to_string(),
        mac: "default".to_string(),
    }
}

fn service(test: &str) -> JobService {
    JobService::new(cache_dir(test), 2)
        .unwrap()
        .with_knobs(pinned_knobs())
}

fn committed(figure: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{figure}.json"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn serving_a_slice_reproduces_committed_sweep_bytes() {
    let mut service = service("committed");
    let response = service.submit(r#"{"figure": "table4"}"#).unwrap();
    assert!(!response.cache_hit);
    assert_eq!(response.jobs_run, 1);
    // The defaults (seed 0xC0DE, full grid) are the committed-results
    // configuration, so a single-figure submission must reproduce the
    // full sweep's output byte for byte.
    assert_eq!(response.body, committed("table4"));
}

#[test]
fn resubmission_is_a_cache_hit_with_no_simulation() {
    let mut service = service("cache-hit");
    let spec = r#"{"figure": "table4", "seed": 49374, "quick": false}"#;
    let first = service.submit(spec).unwrap();
    assert!(!first.cache_hit);
    assert_eq!(service.metrics().cache_misses, 1);
    assert_eq!(service.metrics().jobs_run, 1);

    // Different spelling, same canonical spec: must hit.
    let second = service
        .submit(r#"{  "seed": 49374, "figure":"table4"  }"#)
        .unwrap();
    assert!(second.cache_hit);
    assert_eq!(second.jobs_run, 0);
    assert_eq!(second.key, first.key);
    assert_eq!(second.body, first.body);
    // No new simulation work was recorded.
    assert_eq!(service.metrics().jobs_run, 1);
    assert_eq!(service.metrics().cache_hits, 1);
    assert!(service.metrics().cache_bytes > 0);
    // Metrics were persisted where `report --service` reads them.
    assert!(service.metrics_path().is_file());
}

#[test]
fn knob_differing_submissions_get_distinct_keys() {
    let dir = cache_dir("knobs");
    let spec = r#"{"figure": "table4"}"#;
    let mut base = JobService::new(&dir, 1).unwrap().with_knobs(pinned_knobs());
    let first = base.submit(spec).unwrap();

    // Same directory, different exec/MAC knobs: every knob change
    // must produce a fresh key (a miss), never a false cache hit.
    for mutate in [
        |k: &mut ExecKnobs| k.exec = "reference".to_string(),
        |k: &mut ExecKnobs| k.mac = "token".to_string(),
    ] {
        let mut knobs = pinned_knobs();
        mutate(&mut knobs);
        let mut service = JobService::new(&dir, 1).unwrap().with_knobs(knobs);
        let response = service.submit(spec).unwrap();
        assert!(!response.cache_hit);
        assert_ne!(response.key, first.key);
    }

    // Identical knobs in a fresh service instance: same key, cache hit.
    let mut again = JobService::new(&dir, 1).unwrap().with_knobs(pinned_knobs());
    let replay = again.submit(spec).unwrap();
    assert!(replay.cache_hit);
    assert_eq!(replay.key, first.key);
}

#[test]
fn counters_carry_over_across_service_restarts() {
    let dir = cache_dir("restart");
    let mut first = JobService::new(&dir, 1).unwrap().with_knobs(pinned_knobs());
    first.submit(r#"{"figure": "table4"}"#).unwrap();
    let jobs_before = first.metrics().jobs_run;
    drop(first);

    let mut second = JobService::new(&dir, 1).unwrap().with_knobs(pinned_knobs());
    assert_eq!(second.metrics().jobs_run, jobs_before);
    second.submit(r#"{"figure": "table4"}"#).unwrap();
    assert_eq!(second.metrics().cache_hits, 1);
    assert_eq!(second.metrics().jobs_run, jobs_before);
}

#[test]
fn bad_specs_and_unknown_figures_are_rejected() {
    let mut service = service("errors");
    assert!(matches!(
        service.submit("not json"),
        Err(ServeError::BadSpec(_))
    ));
    assert!(matches!(
        service.submit(r#"{"figure": "table4", "frobnicate": 1}"#),
        Err(ServeError::BadSpec(_))
    ));
    assert!(matches!(
        service.submit(r#"{"figure": "fig99"}"#),
        Err(ServeError::UnknownFigure(_))
    ));
    // Failed submissions never touch the cache or counters.
    assert_eq!(
        service.metrics().cache_hits + service.metrics().cache_misses,
        0
    );
}

#[test]
fn progress_callback_streams_per_job_lines() {
    let lines = Arc::new(AtomicU64::new(0));
    let counted = Arc::clone(&lines);
    let mut service = JobService::new(cache_dir("progress"), 2)
        .unwrap()
        .with_knobs(pinned_knobs())
        .with_progress(Arc::new(move |_line| {
            counted.fetch_add(1, Ordering::Relaxed);
        }));
    service.submit(r#"{"figure": "table4"}"#).unwrap();
    // One header line plus one line per grid job.
    assert_eq!(lines.load(Ordering::Relaxed), 2);
}

#[test]
fn http_round_trip_serves_and_caches() {
    let dir = cache_dir("http");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let mut service = JobService::new(&dir, 2).unwrap().with_knobs(pinned_knobs());
        run_server(listener, &mut service, Some(4));
    });

    let figures = wisync_serve::http_request(&addr, "GET", "/figures", "").unwrap();
    assert_eq!(figures.status, 200);
    assert!(figures.body.contains("\"fig7\""));

    let miss = submit_http(&addr, r#"{"figure": "table4"}"#).unwrap();
    assert_eq!(miss.status, 200);
    assert_eq!(miss.headers.get("x-wisync-cache").unwrap(), "miss");
    assert_eq!(miss.body, committed("table4"));

    let hit = submit_http(&addr, r#"{"figure": "table4"}"#).unwrap();
    assert_eq!(hit.status, 200);
    assert_eq!(hit.headers.get("x-wisync-cache").unwrap(), "hit");
    assert_eq!(hit.headers.get("x-wisync-jobs-run").unwrap(), "0");
    assert_eq!(hit.body, miss.body);
    assert_eq!(
        hit.headers.get("x-wisync-key"),
        miss.headers.get("x-wisync-key")
    );

    let bad = submit_http(&addr, "{oops").unwrap();
    assert_eq!(bad.status, 400);

    server.join().unwrap();
}

#[test]
fn content_types_metrics_and_progress_routes() {
    let dir = cache_dir("routes");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let mut service = JobService::new(&dir, 2).unwrap().with_knobs(pinned_knobs());
        run_server(listener, &mut service, Some(5));
    });

    // JSON bodies carry application/json; the Prometheus exposition
    // carries the text format's versioned content type.
    let post = submit_http(&addr, r#"{"figure": "table4"}"#).unwrap();
    assert_eq!(post.status, 200);
    assert_eq!(
        post.headers.get("content-type").unwrap(),
        "application/json"
    );
    let job_id = post.headers.get("x-wisync-job").unwrap().clone();
    assert_eq!(job_id, "1");

    let metrics = wisync_serve::http_request(&addr, "GET", "/metrics", "").unwrap();
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.headers.get("content-type").unwrap(),
        "text/plain; version=0.0.4"
    );
    assert!(metrics.body.starts_with("# HELP "));
    assert!(metrics.body.contains("wisync_serve_cache_misses_total 1\n"));
    assert!(metrics
        .body
        .contains("wisync_serve_request_wall_us_bucket{le=\"+Inf\"} 1\n"));
    assert!(metrics.body.contains("wisync_serve_jobs_in_flight 0\n"));
    assert!(metrics
        .body
        .contains("# TYPE wisync_sim_tone_barriers_total counter\n"));
    assert!(metrics
        .body
        .contains("# TYPE wisync_sim_mac_exhaustions_total counter\n"));

    let json = wisync_serve::http_request(&addr, "GET", "/metrics.json", "").unwrap();
    assert_eq!(json.status, 200);
    assert_eq!(
        json.headers.get("content-type").unwrap(),
        "application/json"
    );
    assert!(json.body.contains("\"cache_misses\": 1"));

    let progress =
        wisync_serve::http_request(&addr, "GET", &format!("/jobs/{job_id}/progress"), "").unwrap();
    assert_eq!(progress.status, 200);
    assert_eq!(
        progress.headers.get("content-type").unwrap(),
        "application/json"
    );
    assert!(progress.body.contains("\"state\": \"done\""));
    assert!(progress.body.contains("\"figure\": \"table4\""));
    assert!(progress.body.contains("\"cache_hit\": false"));
    assert!(progress.body.contains("\"jobs_total\": 1"));
    assert!(progress.body.contains("\"jobs_done\": 1"));
    assert!(progress.body.contains("\"tone_barriers\""));

    let unknown = wisync_serve::http_request(&addr, "GET", "/jobs/999/progress", "").unwrap();
    assert_eq!(unknown.status, 404);

    server.join().unwrap();
}

#[test]
fn metrics_and_progress_answer_during_a_running_job() {
    let dir = cache_dir("live");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // Polled from inside the progress callback, which fires while the
    // POST handler still holds the service lock — the reads must be
    // served concurrently, not after the POST.
    let live: Arc<std::sync::Mutex<Vec<(u16, String, String)>>> = Arc::default();
    let polled = Arc::clone(&live);
    let poll_addr = addr.clone();
    let server = std::thread::spawn(move || {
        let mut service = JobService::new(&dir, 2)
            .unwrap()
            .with_knobs(pinned_knobs())
            .with_progress(Arc::new(move |line: &str| {
                if !line.starts_with("figure ") {
                    return; // poll once, on the header line
                }
                for path in ["/metrics", "/jobs/1/progress"] {
                    let r = wisync_serve::http_request(&poll_addr, "GET", path, "").unwrap();
                    polled
                        .lock()
                        .unwrap()
                        .push((r.status, path.to_string(), r.body));
                }
            }));
        run_server(listener, &mut service, Some(3));
    });

    let post = submit_http(&addr, r#"{"figure": "table4"}"#).unwrap();
    assert_eq!(post.status, 200);
    server.join().unwrap();

    let live = live.lock().unwrap();
    assert_eq!(live.len(), 2, "both mid-run polls were answered");
    let (status, _, body) = &live[0];
    assert_eq!(*status, 200);
    assert!(body.contains("wisync_serve_jobs_in_flight 1\n"), "{body}");
    let (status, _, body) = &live[1];
    assert_eq!(*status, 200);
    assert!(body.contains("\"state\": \"running\""), "{body}");
}
