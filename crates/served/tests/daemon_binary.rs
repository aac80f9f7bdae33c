//! The `dqc-served` binary end to end: command-line parsing,
//! `--port-file`, `--config`, process start-up, the readiness line and
//! the thread budget, then real traffic over TCP. The other wire tests
//! bind the daemon in-process; this one runs the executable a deployment
//! runs, once configured by flags and once by the shipped
//! `configs/served.json`, and checks that a removed flag stops it at
//! start-up.

use dqc_core::{Design, ExecutionReport, Experiment, SystemConfig};
use dqc_serve::ServeConfig;
use dqc_served::{ServedClient, Submission};
use dqc_types::Json;
use dqc_workloads::{ghz_chain, ghz_tree, qft};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

/// Owns the daemon process: killed and reaped on drop, so a failed
/// assertion never leaks it.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Reports as compact JSON: the bytes the wire contract pins.
fn report_json(reports: &[ExecutionReport]) -> Vec<String> {
    reports
        .iter()
        .map(|report| report.to_json().to_compact_string())
        .collect()
}

#[test]
fn daemon_binary_serves_json_and_qasm_identically_to_direct_evaluation() {
    let shipped = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs/served.json");
    let text = std::fs::read_to_string(shipped).expect("configs/served.json is committed");
    let shipped_config = ServeConfig::from_json(&Json::parse(&text).expect("valid JSON"))
        .expect("valid serving configuration");
    // Each launch's `welcome` echoes the configuration it resolved.
    let launches = [
        (
            ["--workers", "2"],
            ServeConfig {
                workers_per_shard: 2,
                ..ServeConfig::default()
            },
        ),
        (["--config", shipped], shipped_config),
    ];
    for (launch, (flags, resolved)) in launches.into_iter().enumerate() {
        let port_file = format!(
            "{}/dqc-served-{}-{launch}.addr",
            env!("CARGO_TARGET_TMPDIR"),
            std::process::id()
        );
        let _ = std::fs::remove_file(&port_file);
        let mut daemon = Daemon(
            Command::new(env!("CARGO_BIN_EXE_dqc-served"))
                .args(["--addr", "127.0.0.1:0", "--port-file", &port_file])
                .args(flags)
                .stdout(Stdio::piped())
                .spawn()
                .expect("dqc-served starts"),
        );

        // The port file is written before the readiness line is printed,
        // so once the line is read both must name the same bound address.
        let mut ready = String::new();
        let stdout = daemon.0.stdout.take().expect("stdout is piped");
        BufReader::new(stdout)
            .read_line(&mut ready)
            .expect("readiness line arrives");
        let addr = ready
            .trim_end()
            .strip_prefix("dqc-served listening on ")
            .unwrap_or_else(|| panic!("unexpected readiness line {ready:?}"))
            .to_string();
        let written = std::fs::read_to_string(&port_file).expect("port file written");
        assert_eq!(written, addr, "--port-file holds the announced address");
        let _ = std::fs::remove_file(&port_file);

        // Before any connection: the main and accept threads plus the
        // workers of the two shards, and nothing else.
        if cfg!(target_os = "linux") {
            let threads = std::fs::read_dir(format!("/proc/{}/task", daemon.0.id()))
                .expect("the daemon's threads are listed")
                .count();
            assert_eq!(threads, 2 + 2 * resolved.workers_per_shard, "{flags:?}");
        }

        let config = SystemConfig::paper_two_node_32();
        let circuits = [
            ("QFT-16", qft(16), Design::AdaptBuf),
            ("GHZ-chain-32", ghz_chain(32), Design::AsyncBuf),
            ("GHZ-tree-32", ghz_tree(32), Design::SyncBuf),
        ];
        let mut client = ServedClient::connect(addr.as_str(), "daemon-binary").expect("connects");
        assert_eq!(client.welcome().points, ["paper", "paper64"]);
        assert_eq!(client.welcome().config, resolved, "{flags:?}");

        // Every circuit travels twice, as structured JSON and as QASM text,
        // pipelined on one connection; each tag maps to direct evaluation.
        let mut expected = BTreeMap::new();
        for (seed, (label, circuit, design)) in (0u64..).zip(circuits) {
            let direct = report_json(
                &Experiment::new(&circuit, &config)
                    .expect("circuit compiles")
                    .design(design)
                    .runs(2)
                    .base_seed(seed)
                    .reports()
                    .expect("direct evaluation succeeds"),
            );
            let qasm = dqc_circuit::to_qasm(&circuit);
            let submissions = [
                Submission::structured(label, Arc::new(circuit), "paper", design),
                Submission::qasm(label, qasm, "paper", design),
            ];
            for submission in submissions {
                let tag = client
                    .submit(&submission.runs(2).base_seed(seed))
                    .expect("submit");
                expected.insert(tag, (label, direct.clone()));
            }
        }

        let submitted = expected.len();
        for _ in 0..submitted {
            let reply = client.recv_reply().expect("reply arrives");
            let (label, direct) = expected
                .remove(&reply.tag)
                .expect("every tag is answered exactly once");
            let output = reply
                .outcome
                .unwrap_or_else(|e| panic!("{label} (tag {}) refused: {e}", reply.tag));
            assert_eq!(output.label, label);
            assert_eq!(output.point, "paper");
            assert_eq!(report_json(&output.reports), direct, "{label} differs");
        }

        let metrics = client.metrics().expect("metrics round trip");
        let total = |name: &str| metrics.counter_sum(&format!("{name}{{"));
        assert_eq!(total("serve.served"), submitted as u64);
        assert_eq!(total("serve.rejected") + total("serve.errors"), 0);
        let counter = |name: &str| metrics.counter(name).unwrap_or_else(|| panic!("{name}"));
        assert_eq!(
            counter("served.quota_rejected") + counter("served.bad_requests"),
            0
        );
        assert_eq!(counter("served.protocol_errors"), 0);
        client.bye().expect("clean goodbye");
    }
}

#[test]
fn removed_autoscale_flag_is_refused_at_start_up() {
    // The flags' knobs are gone (`--backend` with the engine choice);
    // an old launch script naming one must fail loudly instead of
    // starting a daemon that ignores it. The address is already taken,
    // so a binary that still accepted the flag would exit on a bind
    // error rather than serve until the test is killed.
    let taken = TcpListener::bind("127.0.0.1:0").expect("a free loopback port");
    let addr = taken.local_addr().expect("bound address").to_string();
    for (removed, value) in [("--autoscale", None), ("--backend", Some("auto"))] {
        let output = Command::new(env!("CARGO_BIN_EXE_dqc-served"))
            .args(["--addr", &addr, removed])
            .args(value)
            .output()
            .expect("dqc-served runs");
        assert!(!output.status.success(), "{removed}: {:?}", output.status);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{removed}`")),
            "{stderr}"
        );
        assert!(output.stdout.is_empty(), "no readiness line: {output:?}");
    }
}
