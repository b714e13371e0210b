//! The benchmark's own checks: metric names, the `BENCHMARK.json`
//! catalogue, and tiny runs of every workload.

use cable_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use cable_perfbench::spans::LAYERS;
use cable_perfbench::{run, RunConfig, Size, WORKLOADS};
use std::collections::BTreeMap;

/// A parsed JSON value (just enough of JSON for `BENCHMARK.json`).
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key `{key}`")),
            other => panic!("`{key}` looked up in non-object {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, found {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("expected an array, found {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&b),
            "expected `{}` at byte {}",
            b as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    assert!(
                        m.insert(k.clone(), self.value()).is_none(),
                        "duplicate key `{k}`"
                    );
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            out.push(self.s[self.i] as char);
                            self.i += 1;
                        }
                        _ => out.push(c as char),
                    }
                }
            }
            b't' | b'f' | b'n' => {
                let word: String = self.s[self.i..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphabetic())
                    .map(|&c| c as char)
                    .collect();
                self.i += word.len();
                match word.as_str() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    w => panic!("bad literal `{w}`"),
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|e| panic!("bad number `{text}`: {e}")),
                )
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes after the JSON value");
    v
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
    for d in &all {
        assert!(well_formed_name(d.name), "bad metric name `{}`", d.name);
        assert!(
            !d.unit.is_empty()
                && d.unit.len() <= 16
                && d.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
            "bad unit `{}` of `{}`",
            d.unit,
            d.name
        );
    }
    let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "metric names must be unique");
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    for layer in LAYERS {
        for what in ["self_s", "share"] {
            let name = format!("{layer}.{what}");
            assert!(
                PER_LAYER.iter().any(|d| d.name == name),
                "no `{name}` metric"
            );
        }
    }
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let b = benchmark_json();
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: BTreeMap<&str, (&str, &str)> = b
            .get(key)
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").str(),
                    (m.get("unit").str(), m.get("better").str()),
                )
            })
            .collect();
        assert_eq!(
            listed.len(),
            b.get(key).arr().len(),
            "{key}: duplicate names"
        );
        let emitted: BTreeMap<&str, (&str, &str)> = defs
            .iter()
            .map(|d| (d.name, (d.unit, d.better.as_str())))
            .collect();
        assert_eq!(
            listed, emitted,
            "{key} in BENCHMARK.json differs from the runner"
        );
    }
    let workloads: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for m in b.get("end_to_end").arr() {
        let Json::Num(bound) = m.get("bound") else {
            panic!("bound must be a number")
        };
        assert!(
            *bound > 0.0 && *bound <= 0.25,
            "bound {bound} outside (0, 0.25]"
        );
    }
}

#[test]
fn tiny_runs_pass_their_checks() {
    for workload in WORKLOADS {
        let mut digests = Vec::new();
        for trace in [false, true] {
            let cfg = RunConfig {
                seed: 7,
                size: Size::Tiny,
                trace,
            };
            let out = run(workload, &cfg).expect("known workload");
            assert!(out.failures.is_empty(), "{workload}: {:?}", out.failures);
            assert!(out.attempted > 0, "{workload}: nothing attempted");
            let defs = if trace { PER_LAYER } else { END_TO_END };
            out.metrics
                .to_json(defs, trace)
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
            if trace {
                let tr = out.spans.as_ref().expect("traced runs keep their spans");
                let (wall, layers) = tr.attribute();
                assert!(wall > 0);
                assert_eq!(
                    layers.iter().sum::<u64>(),
                    wall,
                    "{workload}: shares must sum"
                );
            } else {
                for d in END_TO_END {
                    let v = out.metrics.get(d.name).unwrap_or(0.0);
                    assert!(v > 0.0, "{workload}: {} must never be 0", d.name);
                }
            }
            digests.push(out.sim_outputs);
        }
        assert_eq!(
            digests[0], digests[1],
            "{workload}: tracing changed simulated outputs"
        );
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let cfg = RunConfig {
        seed: 0,
        size: Size::Tiny,
        trace: false,
    };
    assert!(run("nope", &cfg).is_err());
}
