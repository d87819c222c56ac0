//! Simulation-as-a-service for the WiSync experiment grid.
//!
//! `wisync-serve` turns the paper's sweep grid into a long-running job
//! service: a client POSTs a spec (`{"figure": "fig7", "seed": 49374,
//! "quick": false}`), the service schedules that figure's slice of the
//! grid on the sweep pool and answers with the exact bytes a full
//! `sweep` run would have written to `results/<figure>.json` — job RNG
//! seeds derive from each job's *global* index in the grid, so a slice
//! reproduces the full run's rows verbatim.
//!
//! Every result is content-addressed by a digest over the canonical
//! spec, the execution knobs (`WISYNC_EXEC` / `WISYNC_MAC`), and the
//! code version (see [`spec::cache_key`]). Resubmitting an
//! already-answered spec is a cache hit served from
//! `cache/<key>.json` with zero simulation work; changing any
//! result-relevant knob changes the key. Utilization counters
//! ([`wisync_bench::serve_metrics::ServiceMetrics`]) persist next to
//! the cache and render via `report --service`.
//!
//! Layering: [`spec`] (requests and keys) → [`registry`] (live
//! per-job progress + sync telemetry deltas) → [`service`] (cache +
//! scheduling, fully usable in-process) → [`http`] (a minimal
//! dependency-free HTTP/1.1 shell: `POST /jobs`, `GET /metrics`
//! Prometheus exposition, `GET /jobs/<id>/progress`,
//! `GET /metrics.json`, `GET /figures`) → the `serve` binary.

#![warn(missing_docs)]

pub mod http;
pub mod registry;
pub mod service;
pub mod spec;

pub use http::{http_request, submit_http, HttpResponse};
pub use registry::JobRegistry;
pub use service::{JobResponse, JobService, ServeError};
pub use spec::{cache_key, key_hex, ExecKnobs, JobSpec, DEFAULT_SEED};
