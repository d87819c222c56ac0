//! The `serve_mix` workload: one closed-loop client over loopback HTTP
//! to an in-process `wisync-serve` job service that starts on an empty
//! cache directory.
//!
//! Client and server share one thread: the client connects and sends
//! its request, the server accepts and handles the connection
//! (`wisync_serve::http::handle_connection`, the shell's own handler),
//! then the client reads the reply. A miss adds the service's one-worker
//! sweep pool, so at most two threads run. Handing each request between
//! threads would add a cross-CPU wake-up to every round trip, which
//! measures the host rather than the service.

use std::collections::{BTreeMap, HashSet};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use wisync_bench::BUDGET;
use wisync_core::{Machine, MachineConfig, MachineKind, RunOutcome};
use wisync_serve::http::handle_connection;
use wisync_serve::{cache_key, ExecKnobs, JobService, JobSpec};
use wisync_sim::DetRng;
use wisync_testkit::Json;
use wisync_workloads::{AppProfile, AppWorkload};

use crate::host::HostWindow;
use crate::jobs::{self, Digest};
use crate::report::Report;
use crate::stats::{median, percentile, samples_needed, units_needed, Ratio, Unit};
use crate::trace::{SpanId, Tracer};

/// Applications of the quick grid's `fig10` slice at its core count.
/// They mirror `wisync_bench::grid`; if the grid changes, the row check
/// of every `fig10` miss fails and says so.
const QUICK_APPS: [&str; 5] = ["streamcluster", "raytrace", "ocean-c", "water-ns", "dedup"];
const QUICK_CORES: usize = 16;
/// The figures a block's one miss is drawn from. Both run the same quick
/// `fig10` jobs, so every miss carries the same simulation.
const MISS_FIGURES: [&str; 2] = ["fig10", "table5"];
/// Hits of one block: with one miss, 6 of 7 requests are hits, so the
/// 50th percentile of all requests is a hit and the 90th a miss.
const HITS_PER_BLOCK: usize = 6;
/// The committed-defaults spec; its body must equal
/// `results/table4.json` byte for byte.
const COMMITTED_SPEC: &str = "{\"figure\": \"table4\"}";
const COMMITTED_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/table4.json");
/// Direct in-process submissions timed for the hit and miss layers.
const DIRECT_HITS: usize = 200;
const DIRECT_MISSES: usize = 3;

/// Per-app simulated cycles on each architecture, as a `fig10` row holds.
type AppCycles = Vec<(String, Vec<u64>)>;

/// Simulated work of one miss, recomputed in-process, and the per-app
/// cycles a `fig10` body must report.
fn quick_fig10_work() -> Result<(Digest, AppCycles), String> {
    let mut digest = Digest::default();
    let mut rows = Vec::new();
    for app in QUICK_APPS {
        let profile = AppProfile::by_name(app).ok_or(format!("no profile {app}"))?;
        let mut cycles = Vec::new();
        for kind in MachineKind::all() {
            let mut m = Machine::new(MachineConfig::for_kind(kind, QUICK_CORES));
            AppWorkload::new(profile).load(&mut m);
            let r = m.run(BUDGET);
            if r.outcome != RunOutcome::Completed {
                return Err(format!("{app} on {kind} ended in {:?}", r.outcome));
            }
            cycles.push(r.cycles.as_u64());
            digest.add(&Digest::of(&m));
        }
        rows.push((app.to_string(), cycles));
    }
    Ok((digest, rows))
}

/// The per-app cycles of a `fig10` report body.
fn fig10_rows(body: &str) -> Option<AppCycles> {
    let doc = Json::parse(body).ok()?;
    let Some(Json::Arr(rows)) = doc.get("rows") else {
        return None;
    };
    rows.iter()
        .map(|row| {
            let data = row.get("data")?;
            let Some(Json::Str(app)) = data.get("app") else {
                return None;
            };
            let Some(Json::Arr(cycles)) = data.get("cycles") else {
                return None;
            };
            let cycles = cycles
                .iter()
                .map(|c| match c {
                    Json::U64(n) => Some(*n),
                    _ => None,
                })
                .collect::<Option<Vec<u64>>>()?;
            Some((app.clone(), cycles))
        })
        .collect()
}

/// The client's view of the service: what it has asked and been told.
struct Client {
    rng: DetRng,
    used_seeds: HashSet<u64>,
    /// Specs answered so far, the pool hits are drawn from.
    known: Vec<String>,
    bodies: BTreeMap<String, String>,
    committed: String,
    /// One `fig10` body, checked against the in-process recomputation.
    fig10_body: Option<String>,
    failures: Vec<String>,
    attempted: u64,
    hits: u64,
}

impl Client {
    fn new(seed: u64, committed: String) -> Client {
        Client {
            rng: DetRng::new(seed ^ 0x5E7E_5E7E_5E7E_5E7E),
            used_seeds: HashSet::new(),
            known: Vec::new(),
            bodies: BTreeMap::new(),
            committed,
            fig10_body: None,
            failures: Vec::new(),
            attempted: 0,
            hits: 0,
        }
    }

    fn fresh_spec(&mut self, figure: &str) -> String {
        loop {
            // Below 2^53, so every JSON reader takes it as an exact integer.
            let seed = self.rng.next_u64() >> 11;
            if self.used_seeds.insert(seed) {
                return format!("{{\"figure\": \"{figure}\", \"seed\": {seed}, \"quick\": true}}");
            }
        }
    }

    /// Sends one request through `server` and checks the answer; returns
    /// the round trip. Records a `serve.request` span with the server's
    /// `serve.handle` span inside it.
    fn send(
        &mut self,
        server: &mut Server,
        spec: &str,
        expect_hit: bool,
        tracer: &mut Tracer,
    ) -> Duration {
        self.attempted += 1;
        let span = tracer.open("serve.request", None, self.attempted);
        let t = Instant::now();
        let reply = server.exchange(spec, tracer, span, self.attempted);
        let elapsed = t.elapsed();
        tracer.close(span);
        if let Err(e) = reply.and_then(|r| self.check(spec, expect_hit, r)) {
            self.failures.push(format!("request {spec}: {e}"));
        }
        elapsed
    }

    fn check(&mut self, spec: &str, expect_hit: bool, resp: Reply) -> Result<(), String> {
        if resp.status != 200 {
            return Err(format!("status {}: {}", resp.status, resp.body));
        }
        let cache = resp.cache.as_deref();
        let want = if expect_hit { "hit" } else { "miss" };
        if cache != Some(want) {
            return Err(format!("expected a cache {want}, got {cache:?}"));
        }
        if spec == COMMITTED_SPEC && resp.body != self.committed {
            return Err("body differs from results/table4.json".to_string());
        }
        if expect_hit {
            self.hits += 1;
            if self.bodies.get(spec) != Some(&resp.body) {
                return Err("hit body differs from the body first served".to_string());
            }
        } else {
            if spec.contains("\"fig10\"") && self.fig10_body.is_none() {
                self.fig10_body = Some(resp.body.clone());
            }
            self.known.push(spec.to_string());
            self.bodies.insert(spec.to_string(), resp.body);
        }
        Ok(())
    }

    /// One block: a miss on a fresh seed of a miss figure, plus hits
    /// drawn from the answered specs, in seeded order.
    fn block(&mut self) -> Vec<(String, bool)> {
        let figure = MISS_FIGURES[self.rng.gen_range(MISS_FIGURES.len() as u64) as usize];
        let mut reqs = vec![(self.fresh_spec(figure), false)];
        for _ in 0..HITS_PER_BLOCK {
            let i = self.rng.gen_range(self.known.len() as u64) as usize;
            reqs.push((self.known[i].clone(), true));
        }
        jobs::shuffle(&mut reqs, &mut self.rng);
        reqs
    }
}

/// A reply as the client reads it.
#[derive(Debug, PartialEq)]
struct Reply {
    status: u16,
    /// The `X-Wisync-Cache` header (`hit` or `miss`).
    cache: Option<String>,
    body: String,
}

impl Reply {
    fn parse(raw: &str) -> Result<Reply, String> {
        let (head, body) = raw
            .split_once("\r\n\r\n")
            .ok_or("reply has no header/body separator")?;
        let mut lines = head.lines();
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("malformed status line in {head:?}"))?;
        let cache = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("x-wisync-cache"))
            .map(|(_, value)| value.trim().to_string());
        Ok(Reply {
            status,
            cache,
            body: body.to_string(),
        })
    }
}

/// The job service behind a loopback listener.
struct Server {
    service: JobService,
    listener: TcpListener,
    addr: String,
}

impl Server {
    /// The service's set-up: an empty cache directory at `dir`, the
    /// service over it and a bound listener. Returns the server with
    /// the host seconds the set-up took.
    fn set_up(dir: &Path) -> Result<(Server, f64), String> {
        let _ = std::fs::remove_dir_all(dir);
        let t = Instant::now();
        let service = JobService::new(dir, 1).map_err(|e| format!("service set-up: {e}"))?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        let addr = listener
            .local_addr()
            .map_err(|e| format!("listener address: {e}"))?
            .to_string();
        Ok((
            Server {
                service,
                listener,
                addr,
            },
            secs,
        ))
    }

    /// One `POST /jobs` over loopback TCP. The request and the reply (a
    /// few KiB) fit in the loopback socket buffers, so the client can
    /// send before the server accepts and the server can answer before
    /// the client reads.
    fn exchange(
        &mut self,
        spec: &str,
        tracer: &mut Tracer,
        parent: SpanId,
        id: u64,
    ) -> Result<Reply, String> {
        let mut client =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        let request = format!(
            "POST /jobs HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{spec}",
            self.addr,
            spec.len()
        );
        client
            .write_all(request.as_bytes())
            .map_err(|e| format!("send request: {e}"))?;
        let (mut conn, _) = self.listener.accept().map_err(|e| format!("accept: {e}"))?;
        let span = tracer.open("serve.handle", parent, id);
        handle_connection(&mut self.service, &mut conn);
        tracer.close(span);
        drop(conn);
        let mut raw = String::new();
        client
            .read_to_string(&mut raw)
            .map_err(|e| format!("read reply: {e}"))?;
        Reply::parse(&raw)
    }
}

/// Runs `serve_mix` for at least `seconds` and, untraced, until the
/// slowest tenth of its blocks holds enough requests for the 90th
/// percentile.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    tracer: &mut Tracer,
    work: &Path,
    report: &mut Report,
) {
    let committed = match std::fs::read_to_string(COMMITTED_FILE) {
        Ok(text) => text,
        Err(e) => {
            report.failures.push(format!("read {COMMITTED_FILE}: {e}"));
            return;
        }
    };
    let root = work.join(format!("serve-{}", std::process::id()));
    let cache_dir = root.join("cache");
    let mut server = match Server::set_up(&cache_dir) {
        Ok((server, _)) => server,
        Err(e) => {
            report.failures.push(e);
            let _ = std::fs::remove_dir_all(&root);
            return;
        }
    };
    let mut client = Client::new(seed, committed);
    // One unit per untraced block, then (host time, traced) per block
    // and (round trip, hit) per block request.
    let mut units: Vec<Unit> = Vec::new();
    let mut blocks: Vec<(f64, bool)> = Vec::new();
    let mut samples: Vec<(f64, bool)> = Vec::new();
    let window = HostWindow::start();
    // Warm-up: the committed spec, then one miss per figure, so the
    // first block has hits to draw from. Not sampled.
    tracer.set_enabled(false);
    for spec in [COMMITTED_SPEC.to_string()]
        .into_iter()
        .chain(MISS_FIGURES.map(|f| client.fresh_spec(f)))
    {
        client.send(&mut server, &spec, false, tracer);
    }
    let started = Instant::now();
    let min_units = if traced {
        3
    } else {
        units_needed(1 + HITS_PER_BLOCK)
    };
    let mut n = 0u64;
    while started.elapsed().as_secs_f64() < seconds || units.len() < min_units {
        // A set-up beside every block, so set-up time is sampled across
        // the run like everything else.
        let setup_s = match Server::set_up(&root.join("setup")) {
            Ok((_, secs)) => secs,
            Err(e) => {
                client.failures.push(e);
                0.0
            }
        };
        let trace_block = traced && n % 2 == 1;
        tracer.set_enabled(trace_block);
        let mut unit = Unit {
            setup_s,
            ..Unit::default()
        };
        for (spec, hit) in client.block() {
            let rt = client.send(&mut server, &spec, hit, tracer);
            unit.secs += rt.as_secs_f64();
            unit.ops_ms.push(rt.as_secs_f64() * 1e3);
            samples.push((rt.as_secs_f64() * 1e3, hit));
        }
        blocks.push((unit.secs, trace_block));
        if !trace_block {
            units.push(unit);
        }
        n += 1;
    }
    tracer.set_enabled(traced);
    report.line(window.finish());

    let work = match quick_fig10_work() {
        Ok(w) => w,
        Err(e) => {
            client
                .failures
                .push(format!("recomputing the fig10 slice: {e}"));
            (Digest::default(), Vec::new())
        }
    };
    match client.fig10_body.as_deref().map(fig10_rows) {
        Some(Some(rows)) if rows == work.1 => {}
        Some(rows) => client.failures.push(format!(
            "fig10 rows {rows:?} differ from the in-process recomputation {:?}",
            work.1
        )),
        None => client.failures.push("no fig10 miss was served".to_string()),
    }
    let per_miss = work.0;

    let hit_ms: Vec<f64> = samples.iter().filter(|s| s.1).map(|s| s.0).collect();
    let miss_ms: Vec<f64> = samples.iter().filter(|s| !s.1).map(|s| s.0).collect();
    let block_requests = 1 + HITS_PER_BLOCK;
    report.line(format!(
        "serve_mix: {} blocks of {block_requests} requests ({HITS_PER_BLOCK} hits + 1 miss), closed loop, 1 client",
        blocks.len(),
    ));
    for (name, values, q) in [
        ("hit_ms_p50", &hit_ms, 50.0),
        ("hit_ms_p99", &hit_ms, 99.0),
        ("miss_ms_p50", &miss_ms, 50.0),
        ("miss_ms_p90", &miss_ms, 90.0),
    ] {
        report.line(match percentile(values, q) {
            Some(v) => format!("{name} = {v:.4} ms (n={}, every block)", values.len()),
            None => format!(
                "{name} = n/a ms (n={}, needs {} samples)",
                values.len(),
                samples_needed(q)
            ),
        });
    }
    let per_block: Vec<f64> = blocks
        .iter()
        .filter(|b| !b.1)
        .map(|b| block_requests as f64 / b.0)
        .collect();
    if let Some(v) = median(&per_block) {
        report.line(format!(
            "serve_req_per_s = {v:.2} 1/s (median over untraced blocks)"
        ));
    }
    report.line(format!(
        "simulated work per miss (quick fig10 slice, recomputed in-process): {}",
        per_miss.render()
    ));
    report.line(format!(
        "digest: per_miss_hash=0x{:016x}",
        per_miss.fold_hash(jobs::HASH_SEED)
    ));
    for u in &mut units {
        u.instructions = per_miss.get("instructions") as f64;
        u.events = per_miss.get("events") as f64;
    }
    crate::report::end_to_end(report, &units);

    if traced {
        jobs::report_counts(report, &per_miss);
        let secs = |traced: bool| -> Vec<f64> {
            blocks
                .iter()
                .filter(|b| b.1 == traced)
                .map(|b| b.0)
                .collect()
        };
        crate::report_overhead(report, &secs(true), &secs(false));
        let hit_ratio = Ratio::new(client.hits as f64, client.attempted as f64);
        report.line(format!(
            "serve.hit_ratio = {} over HTTP requests",
            hit_ratio.show()
        ));
        report.set("serve.hit_ratio", hit_ratio.value());
        direct_submits(&mut server.service, &mut client, &hit_ms, report);
        let files = std::fs::read_dir(&cache_dir)
            .map(|d| {
                d.flatten()
                    .filter(|e| e.file_name() != "metrics.json")
                    .count()
            })
            .unwrap_or(0);
        report.set("serve.cache_files", files as f64);
    }
    report.attempted += client.attempted;
    report.failures.append(&mut client.failures);
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}

/// The service layer without HTTP: hits and misses submitted directly,
/// and the client round trip of a hit minus the direct hit.
fn direct_submits(
    service: &mut JobService,
    client: &mut Client,
    hit_ms: &[f64],
    report: &mut Report,
) {
    let spec = client.known[0].clone();
    let mut hit_us = Vec::new();
    for _ in 0..DIRECT_HITS {
        let t = Instant::now();
        let r = service.submit(&spec);
        hit_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !matches!(r, Ok(ref r) if r.cache_hit) {
            client
                .failures
                .push(format!("direct submit of {spec} was not a hit"));
        }
    }
    let mut miss_ms = Vec::new();
    for _ in 0..DIRECT_MISSES {
        let spec = client.fresh_spec(MISS_FIGURES[0]);
        let t = Instant::now();
        let r = service.submit(&spec);
        miss_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !matches!(r, Ok(ref r) if !r.cache_hit) {
            client
                .failures
                .push(format!("direct submit of {spec} was not a miss"));
        }
    }
    client.attempted += (DIRECT_HITS + DIRECT_MISSES) as u64;
    let hit = median(&hit_us).expect("DIRECT_HITS > 0");
    report.set("serve.submit_hit_us", hit);
    report.set(
        "serve.submit_miss_ms",
        median(&miss_ms).expect("DIRECT_MISSES > 0"),
    );
    if let Some(rt) = median(hit_ms) {
        report.set("serve.http_overhead_us", rt * 1e3 - hit);
    }
}

/// Host microseconds per `JobSpec::parse` and per `cache_key`.
pub fn parse_and_key_us() -> (f64, f64) {
    const N: u32 = 20_000;
    let text = "{\"figure\": \"fig10\", \"seed\": 123456789, \"quick\": true}";
    let knobs = ExecKnobs::from_env();
    let t = Instant::now();
    for _ in 0..N {
        std::hint::black_box(JobSpec::parse(std::hint::black_box(text)).ok());
    }
    let parse = t.elapsed().as_secs_f64() * 1e6 / f64::from(N);
    let spec = JobSpec::parse(text).expect("the spec is valid");
    let t = Instant::now();
    for _ in 0..N {
        std::hint::black_box(cache_key(std::hint::black_box(&spec), &knobs));
    }
    let key = t.elapsed().as_secs_f64() * 1e6 / f64::from(N);
    (parse, key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_rows_reads_app_cycles() {
        let body = r#"{"figure": "fig10", "rows": [{"row": "x", "seed": "0x1", "data": {"app": "dedup", "cycles": [4, 3, 2, 1]}}]}"#;
        assert_eq!(
            fig10_rows(body),
            Some(vec![("dedup".to_string(), vec![4, 3, 2, 1])])
        );
        assert_eq!(fig10_rows("{}"), None);
    }

    #[test]
    fn reply_parse_reads_status_cache_header_and_body() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Wisync-Cache: hit\r\n\r\n{}";
        assert_eq!(
            Reply::parse(raw),
            Ok(Reply {
                status: 200,
                cache: Some("hit".to_string()),
                body: "{}".to_string()
            })
        );
        assert!(Reply::parse("HTTP/1.1 200 OK").is_err());
        assert!(Reply::parse("garbage\r\n\r\n").is_err());
    }

    #[test]
    fn request_stream_is_deterministic_per_seed_and_differs_across_seeds() {
        let stream = |seed| {
            let mut c = Client::new(seed, String::new());
            c.known.push(COMMITTED_SPEC.to_string());
            (0..3).flat_map(|_| c.block()).collect::<Vec<_>>()
        };
        assert_eq!(stream(1), stream(1));
        assert_ne!(stream(1), stream(2));
        let blocks = stream(5);
        assert_eq!(blocks.iter().filter(|(_, hit)| !hit).count(), 3);
        assert_eq!(blocks.iter().filter(|(_, hit)| *hit).count(), 18);
    }
}
