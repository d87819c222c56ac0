//! The wisync-serve entry point: HTTP server and submit client.
//!
//! ```text
//! cargo run --release -p wisync-serve --bin serve                  # listen on 127.0.0.1:7911
//! cargo run --release -p wisync-serve --bin serve -- --addr 0.0.0.0:80 --threads 8
//! cargo run --release -p wisync-serve --bin serve -- --requests 2  # exit after two requests (CI)
//! cargo run --release -p wisync-serve --bin serve -- \
//!     --submit '{"figure": "fig7"}'                                # client: submit and print the report
//! cargo run --release -p wisync-serve --bin serve -- \
//!     --submit @spec.json --out fig7.json                         # spec from file, body to file
//! ```
//!
//! The server keeps its result cache and `metrics.json` under
//! `results/cache/` by default (`--cache DIR` to relocate). The client
//! prints the report body to stdout (or `--out FILE`) and the cache
//! disposition (`hit`/`miss`) to stderr, exiting nonzero on any
//! non-200 answer.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use wisync_serve::http::run_server;
use wisync_serve::{submit_http, JobService};
use wisync_testkit::write_doc;

const DEFAULT_ADDR: &str = "127.0.0.1:7911";

struct Options {
    addr: String,
    cache: PathBuf,
    threads: usize,
    requests: Option<u64>,
    submit: Option<String>,
    out: Option<PathBuf>,
    quiet: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        addr: DEFAULT_ADDR.to_string(),
        cache: PathBuf::from("results/cache"),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        requests: None,
        submit: None,
        out: None,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--addr" => opts.addr = value("--addr"),
            "--cache" => opts.cache = PathBuf::from(value("--cache")),
            "--threads" => opts.threads = value("--threads").parse().expect("--threads: integer"),
            "--requests" => {
                opts.requests = Some(value("--requests").parse().expect("--requests: integer"))
            }
            "--submit" => opts.submit = Some(value("--submit")),
            "--out" => opts.out = Some(PathBuf::from(value("--out"))),
            "--quiet" => opts.quiet = true,
            other => panic!(
                "unknown argument {other:?} (try --addr/--cache/--threads/--requests/\
                 --submit SPEC/--out FILE/--quiet)"
            ),
        }
    }
    opts
}

/// `--submit`: act as a client against a running server. `@path` loads
/// the spec from a file; anything else is the spec text itself.
fn run_client(opts: &Options, spec_arg: &str) -> ExitCode {
    let spec = match spec_arg.strip_prefix('@') {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("read spec {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => spec_arg.to_string(),
    };
    let response = match submit_http(&opts.addr, &spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("submit to {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    let cache = response
        .headers
        .get("x-wisync-cache")
        .map(String::as_str)
        .unwrap_or("?");
    eprintln!(
        "{} {} (cache {cache}, key {})",
        response.status,
        opts.addr,
        response
            .headers
            .get("x-wisync-key")
            .map(String::as_str)
            .unwrap_or("?")
    );
    if response.status != 200 {
        eprintln!("{}", response.body);
        return ExitCode::FAILURE;
    }
    match &opts.out {
        Some(path) => write_doc(path, &response.body),
        None => println!("{}", response.body),
    }
    ExitCode::SUCCESS
}

fn run_server_mode(opts: &Options) -> ExitCode {
    let service = match JobService::new(&opts.cache, opts.threads) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("open cache {}: {e}", opts.cache.display());
            return ExitCode::FAILURE;
        }
    };
    let mut service = if opts.quiet {
        service
    } else {
        service.with_progress(Arc::new(|line: &str| eprintln!("  {line}")))
    };
    let listener = match TcpListener::bind(&opts.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "wisync-serve listening on {} (cache {}, {} sweep threads)",
        opts.addr,
        opts.cache.display(),
        opts.threads
    );
    run_server(listener, &mut service, opts.requests);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    wisync_bench::exit_on_stray_knob();
    let opts = parse_args();
    match &opts.submit {
        Some(spec) => run_client(&opts, spec),
        None => run_server_mode(&opts),
    }
}
