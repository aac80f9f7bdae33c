//! The benchmark's own contract: its seeded generators are pure, and the
//! names it prints are exactly the names `BENCHMARK.json` declares.

use dqc_types::Json;
use dqcbench::inputs::{self, Kind, WireRequest};
use dqcbench::metrics::{result_line, MetricDef, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use dqcbench::Args;
use std::collections::BTreeSet;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn printed_names(line: &Json) -> Vec<String> {
    match line.field("metrics").expect("the result line has metrics") {
        Json::Object(members) => members.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics must be an object, got {}", other.type_name()),
    }
}

#[test]
fn printed_names_match_benchmark_json() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = doc
        .array_field("workloads")
        .unwrap()
        .iter()
        .map(|w| w.str_field("name").unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let lists: [(&str, &[MetricDef]); 2] = [("end_to_end", &END_TO_END), ("per_layer", &PER_LAYER)];
    for (key, defs) in lists {
        let entries = doc.array_field(key).unwrap();
        assert_eq!(entries.len(), defs.len(), "{key}: metric count");
        for (entry, def) in entries.iter().zip(defs) {
            assert_eq!(entry.str_field("name").unwrap(), def.name, "{key}");
            assert_eq!(entry.str_field("unit").unwrap(), def.unit, "{}", def.name);
            assert_eq!(
                entry.str_field("better").unwrap(),
                def.better.name(),
                "{}",
                def.name
            );
        }
        // A run that measured everything prints exactly these names.
        let mut out = Outcome::default();
        out.attempt(true);
        for def in defs {
            out.set(def.name, 1.5);
        }
        let (line, problems) = result_line(&out, defs);
        assert!(problems.is_empty(), "{problems:?}");
        let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(printed_names(&line), expected);
        assert_eq!(line.field("correct").unwrap(), &Json::Bool(true));
    }
}

#[test]
fn a_missing_metric_makes_the_run_incorrect() {
    let mut out = Outcome::default();
    out.attempt(true);
    let (line, problems) = result_line(&out, &END_TO_END);
    assert_eq!(problems.len(), END_TO_END.len());
    assert_eq!(line.field("correct").unwrap(), &Json::Bool(false));
    assert_eq!(printed_names(&line).len(), END_TO_END.len());
}

type RequestKey = (Kind, String, u64, String, u64);

fn request_keys(requests: &[WireRequest]) -> Vec<RequestKey> {
    requests
        .iter()
        .map(|r| {
            (
                r.kind,
                r.label.clone(),
                r.circuit.fingerprint(),
                r.design.to_string(),
                r.base_seed,
            )
        })
        .collect()
}

#[test]
fn generators_are_pure_functions_of_the_seed() {
    let stream = request_keys(&inputs::serve_requests(7, 400));
    assert_eq!(stream, request_keys(&inputs::serve_requests(7, 400)));
    assert_eq!(
        request_keys(&inputs::serve_requests(7, 100)),
        stream[..100],
        "the request stream is prefix-stable"
    );
    let jobs = |seed| -> Vec<(String, u64, u64, usize)> {
        inputs::codesign_jobs(seed)
            .iter()
            .map(|j| {
                (
                    j.label.clone(),
                    j.circuit.fingerprint(),
                    j.base_seed,
                    j.space.len(),
                )
            })
            .collect()
    };
    assert_eq!(jobs(7), jobs(7));
}

#[test]
fn different_seeds_give_different_novel_circuits() {
    let novel = |seed| -> BTreeSet<u64> {
        inputs::serve_requests(seed, 400)
            .iter()
            .filter(|r| r.kind == Kind::Novel)
            .map(|r| r.circuit.fingerprint())
            .collect()
    };
    let (a, b) = (novel(7), novel(8));
    assert_eq!(
        a.len(),
        400 / inputs::COLD_EVERY,
        "every novel circuit is distinct"
    );
    assert!(a.is_disjoint(&b));
    let codesign = |seed| -> BTreeSet<u64> {
        inputs::codesign_circuits(seed)
            .iter()
            .map(|(_, c)| c.fingerprint())
            .collect()
    };
    // The paper benchmarks are shared; the seeded QAOA circuits are not.
    assert_eq!(codesign(7).intersection(&codesign(8)).count(), 3);
}

#[test]
fn the_request_mix_matches_what_the_serving_counters_are_checked_against() {
    let requests = inputs::serve_requests(11, 2000);
    let portfolio: BTreeSet<u64> = inputs::portfolio()
        .iter()
        .map(|(_, c)| c.fingerprint())
        .collect();
    for r in &requests {
        assert_eq!(
            portfolio.contains(&r.circuit.fingerprint()),
            r.kind != Kind::Novel,
            "{}: warm and duplicate requests hit the cached portfolio, novel ones miss",
            r.label
        );
        assert_eq!(r.qasm.is_some(), r.kind == Kind::Novel, "{}", r.label);
    }
    assert!(requests.iter().any(|r| r.kind == Kind::Duplicate));
    for pair in requests.windows(2) {
        if pair[1].kind == Kind::Duplicate {
            assert_eq!(pair[0].kind, Kind::Warm);
            assert_eq!(
                (pair[0].design, pair[0].base_seed),
                (pair[1].design, pair[1].base_seed)
            );
        }
    }
}

#[test]
fn arguments_parse_and_reject() {
    let parse = |args: &[&str]| Args::parse(args.iter().map(|a| (*a).to_string()));
    let args = parse(&[
        "--workload",
        "serve_wire",
        "--seed",
        "9",
        "--seconds",
        "3",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!(
        args,
        Args {
            workload: "serve_wire".to_string(),
            seed: 9,
            seconds: 3,
            trace: true,
        }
    );
    assert!(parse(&["--workload", "nope"]).is_err());
    assert!(parse(&["--workload", "codesign", "--trace", "2"]).is_err());
    assert!(parse(&["--workload", "codesign", "--seconds", "0"]).is_err());
    assert!(parse(&["--workload", "codesign", "--bogus"]).is_err());
    assert!(parse(&["--workload"]).is_err());
}
