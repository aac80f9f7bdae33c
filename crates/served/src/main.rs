//! `dqc-served` — launch the serve daemon from the command line.
//!
//! ```text
//! dqc-served [--addr HOST:PORT] [--port-file PATH]
//!            [--config FILE.json]
//!            [--workers N] [--queue N] [--cache N]
//!            [--max-in-flight N] [--rate PER_SEC] [--burst N]
//!            [--point LABEL=paper32|paper64]...
//! ```
//!
//! Binds (default `127.0.0.1:7878`; port `0` lets the OS pick), prints
//! `dqc-served listening on ADDR` once ready, and serves until killed.
//! `--port-file` additionally writes the resolved address to a file, so
//! scripts that launched with port `0` can find the daemon.
//!
//! Configuration layers, later wins: built-in defaults, then
//! `--config FILE.json` (a [`ServeConfig`] document — the same shape the
//! `welcome` frame echoes back), then individual flags. Every flag is
//! sugar over the same `ServeConfig`, so `--workers 4` and a config file
//! with `"workers_per_shard": 4` are indistinguishable to the daemon. A
//! configuration that could do no useful work (`--queue 0`,
//! `--max-in-flight 0`, a non-positive `--rate`) is refused at start-up
//! with its diagnostic codes.
//!
//! Without `--point`, two shards are registered: `paper` (the paper's
//! two-node 32-qubit point) and `paper64` (its 64-qubit sibling). Every
//! point runs on the default (`analytic`) simulation engine: the engine
//! never changes a reply, so there is no flag to pick one.

use dqc_core::SystemConfig;
use dqc_serve::{RateLimit, ServeConfig};
use dqc_served::{Served, ServedBuilder};
use dqc_types::Json;
use std::process::ExitCode;

struct Options {
    addr: String,
    port_file: Option<String>,
    config_file: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    cache: Option<usize>,
    max_in_flight: Option<usize>,
    rate: Option<f64>,
    burst: Option<f64>,
    points: Vec<(String, String)>,
}

impl Options {
    fn defaults() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            port_file: None,
            config_file: None,
            workers: None,
            queue: None,
            cache: None,
            max_in_flight: None,
            rate: None,
            burst: None,
            points: Vec::new(),
        }
    }

    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut options = Self::defaults();
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--addr" => options.addr = value("--addr")?,
                "--port-file" => options.port_file = Some(value("--port-file")?),
                "--config" => options.config_file = Some(value("--config")?),
                "--workers" => {
                    options.workers = Some(parse_num(&value("--workers")?, "--workers")?);
                }
                "--queue" => options.queue = Some(parse_num(&value("--queue")?, "--queue")?),
                "--cache" => options.cache = Some(parse_num(&value("--cache")?, "--cache")?),
                "--max-in-flight" => {
                    options.max_in_flight =
                        Some(parse_num(&value("--max-in-flight")?, "--max-in-flight")?);
                }
                "--rate" => options.rate = Some(parse_float(&value("--rate")?, "--rate")?),
                "--burst" => options.burst = Some(parse_float(&value("--burst")?, "--burst")?),
                "--point" => {
                    let spec = value("--point")?;
                    let (label, config) = spec
                        .split_once('=')
                        .ok_or_else(|| format!("--point wants LABEL=CONFIG, got `{spec}`"))?;
                    options.points.push((label.to_string(), config.to_string()));
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
            }
        }
        Ok(options)
    }

    /// Folds the option layers into one [`ServeConfig`]: defaults, then
    /// the `--config` file, then individual flags.
    fn serve_config(&self) -> Result<ServeConfig, String> {
        let mut config = match &self.config_file {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("failed to read {path}: {e}"))?;
                let json =
                    Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
                ServeConfig::from_json(&json).map_err(|e| format!("{path}: {e}"))?
            }
            None => ServeConfig::default(),
        };
        if let Some(workers) = self.workers {
            config.workers_per_shard = workers;
        }
        if let Some(queue) = self.queue {
            config.queue_capacity = queue;
        }
        if let Some(cache) = self.cache {
            config.cache_capacity = cache;
        }
        if let Some(max) = self.max_in_flight {
            config.quota.max_in_flight = Some(max);
        }
        if let Some(rate) = self.rate {
            let burst = self.burst.unwrap_or(rate.max(1.0));
            config.quota.rate = Some(RateLimit {
                per_sec: rate,
                burst,
            });
        }
        Ok(config)
    }
}

const USAGE: &str = "usage: dqc-served [--addr HOST:PORT] [--port-file PATH] \
[--config FILE.json] \
[--workers N] [--queue N] [--cache N] \
[--max-in-flight N] [--rate PER_SEC] [--burst N] \
[--point LABEL=paper32|paper64]...";

fn parse_num(text: &str, flag: &str) -> Result<usize, String> {
    text.parse()
        .map_err(|_| format!("{flag} wants a non-negative integer, got `{text}`"))
}

fn parse_float(text: &str, flag: &str) -> Result<f64, String> {
    text.parse()
        .map_err(|_| format!("{flag} wants a number, got `{text}`"))
}

fn point_config(name: &str) -> Result<SystemConfig, String> {
    match name {
        "paper32" => Ok(SystemConfig::paper_two_node_32()),
        "paper64" => Ok(SystemConfig::paper_two_node_64()),
        other => Err(format!(
            "unknown point config `{other}` (expected paper32 or paper64)"
        )),
    }
}

fn run(options: Options) -> Result<Served, String> {
    let mut builder = ServedBuilder::new().config(options.serve_config()?);
    let points = if options.points.is_empty() {
        vec![
            ("paper".to_string(), "paper32".to_string()),
            ("paper64".to_string(), "paper64".to_string()),
        ]
    } else {
        options.points
    };
    for (label, config) in points {
        builder = builder.hardware_point(label, point_config(&config)?);
    }
    builder
        .bind(&options.addr)
        .map_err(|e| format!("failed to start on {}: {e}", options.addr))
}

fn main() -> ExitCode {
    let options = match Options::parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let port_file = options.port_file.clone();
    let daemon = match run(options) {
        Ok(daemon) => daemon,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let addr = daemon.local_addr();
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, addr.to_string()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    // The readiness line scripts wait for before connecting.
    println!("dqc-served listening on {addr}");
    // Serve until the process is killed; the daemon's own threads carry
    // all the work from here.
    loop {
        std::thread::park();
    }
}
