//! Hostile-input fuzzing of the report readers: whatever bytes a JSONL
//! file holds, `Report::from_jsonl` returns a report or an error, and
//! never panics; and whatever numbers a `cable_report` artifact carries,
//! `Report::from_report_json` → `diff_reports` → `breaches` /
//! `render_text` never panics.

use cable_telemetry::{diff_reports, Event, Report, Telemetry};
use proptest::prelude::*;

/// Schema fragments that, strung together, form near-valid trace lines:
/// right keys, wrong shapes, extreme numbers.
const FRAGMENTS: [&str; 36] = [
    "{\"type\":\"event\"",
    "{\"type\":\"histogram\"",
    "{\"type\":\"counter\"",
    "{\"type\":\"gauge\"",
    "{\"type\":\"meta\"",
    "{\"type\":\"summary\"",
    ",\"name\":\"link_busy\"",
    ",\"name\":\"dram_busy\"",
    ",\"name\":\"mesh_hop\"",
    ",\"name\":\"phase\"",
    ",\"name\":\"encode\"",
    ",\"name\":\"nack\"",
    ",\"now_ps\":",
    ",\"start_ps\":",
    ",\"dur_ps\":",
    ",\"hop\":",
    ",\"depth\":",
    ",\"id\":\"lat.cable.measure.total\"",
    ",\"id\":\"lat.cable.measure.queue\"",
    ",\"id\":\"mesh.hop.3.busy_ps\"",
    ",\"id\":\"mesh.hop.3.depth\"",
    ",\"edges\":[",
    ",\"buckets\":[",
    "]",
    ",\"count\":",
    ",\"sum\":",
    ",\"dropped_events\":",
    ",\"phase\":\"measure\"",
    ",\"kind\":\"diff\"",
    "0",
    "1,",
    "18446744073709551615",
    "-1",
    "1e300",
    "}",
    "\n",
];

/// Extreme and ill-typed numbers for schema fields.
const NUMBERS: [&str; 9] = [
    "0",
    "1",
    "7",
    "4096",
    "9223372036854775808",
    "18446744073709551615",
    "-1",
    "2.5",
    "1e300",
];

/// String-valued schema keys and the values they take.
const STRINGS: [(&str, &[&str]); 4] = [
    (
        "name",
        &[
            "link_busy",
            "dram_busy",
            "mesh_hop",
            "phase",
            "encode",
            "nack",
            "marker",
        ],
    ),
    (
        "id",
        &[
            "lat.cable.measure.total",
            "lat.cable.measure.queue",
            "mesh.hop.3.busy_ps",
            "mesh.hop.3.depth",
            "mesh.hop.0.bits",
        ],
    ),
    ("phase", &["measure", "warm", ""]),
    ("kind", &["diff", "raw", "remote_hit"]),
];

/// Integer-valued schema keys.
const INTS: [&str; 9] = [
    "now_ps",
    "start_ps",
    "dur_ps",
    "hop",
    "depth",
    "count",
    "sum",
    "value",
    "dropped_events",
];

/// Member `key` (indexing `STRINGS`, then `INTS`, then `edges` and
/// `buckets`) with value pick `num` and array length `len`.
fn member(key: usize, num: usize, len: usize) -> String {
    let n = NUMBERS[num % NUMBERS.len()];
    match key % (STRINGS.len() + INTS.len() + 2) {
        k if k < STRINGS.len() => {
            let (name, values) = STRINGS[k];
            format!("\"{name}\":\"{}\"", values[(num + len) % values.len()])
        }
        k if k < STRINGS.len() + INTS.len() => format!("\"{}\":{n}", INTS[k - STRINGS.len()]),
        k => {
            let name = if k % 2 == 1 { "edges" } else { "buckets" };
            format!("\"{name}\":[{}]", vec![n; len].join(","))
        }
    }
}

/// One generated line: a type pick and `(key, number, array length)`
/// member picks.
type LinePicks = (usize, Vec<(usize, usize, usize)>);

/// Well-formed JSONL whose lines carry the schema's keys with hostile
/// values. The type's required members come first (so most lines
/// are well-formed and the trace reaches aggregation), then the rest.
fn schema_lines(lines: &[LinePicks]) -> String {
    const TYPES: [(&str, &[usize]); 6] = [
        ("event", &[0, 4]),
        ("histogram", &[1, 13, 14]),
        ("counter", &[1]),
        ("gauge", &[1]),
        ("meta", &[]),
        ("summary", &[]),
    ];
    let mut out = String::new();
    for (ty, picks) in lines {
        let (name, required) = TYPES[ty % TYPES.len()];
        out.push_str(&format!("{{\"type\":\"{name}\""));
        let (num, len) = picks.first().map_or((0, 0), |&(_, n, l)| (n, l));
        let members = required
            .iter()
            .map(|&key| member(key, num, len))
            .chain(picks.iter().map(|&(key, num, len)| member(key, num, len)));
        for m in members {
            out.push(',');
            out.push_str(&m);
        }
        out.push_str("}\n");
    }
    out
}

/// A small valid trace to mutate.
fn sample_trace() -> String {
    let tel = Telemetry::enabled();
    tel.counter("link.encode.diff").add(2);
    tel.histogram("lat.cable.measure.total", &[16, 32, 64])
        .record(40);
    tel.record_at(0, Event::Phase { name: "measure" });
    tel.record_at(
        5,
        Event::LinkBusy {
            start_ps: 5,
            dur_ps: 10,
        },
    );
    tel.record_at(
        9,
        Event::MeshHop {
            hop: 3,
            depth: 1,
            start_ps: 9,
            dur_ps: 4,
        },
    );
    tel.export_jsonl()
}

/// Reads `text` and, when it yields a report, renders it every way.
/// Returns whether it did.
fn read_all_the_way(text: &str) -> bool {
    let Ok(report) = Report::from_jsonl(text) else {
        return false;
    };
    {
        let _ = report.render_text();
        let _ = report.render_latency();
        let _ = report.render_hops(3);
        let json = report.to_json();
        Report::from_report_json(&json).expect("a report's own JSON reads back");
    }
    true
}

/// Extreme values for the integer fields of a `cable_report` artifact.
const EXTREMES: [u64; 9] = [
    0,
    1,
    999,
    1 << 32,
    (1 << 63) - 1,
    1 << 63,
    u64::MAX / 1000 + 1,
    u64::MAX - 1,
    u64::MAX,
];

/// Histogram ids a report carries: plain and hop-keyed latency metrics
/// (which `render_latency` groups) and a non-latency one.
const HIST_IDS: [&str; 4] = [
    "lat.cable.measure.total",
    "lat.cable.measure.queue",
    "lat.cable.measure.h3.wire",
    "link.payload_bits",
];

/// Shape of one generated artifact: value picks (indices into
/// `EXTREMES`, consumed cyclically) and how many phases, hops,
/// histograms and counter/gauge pairs it holds.
type ReportPicks = (Vec<usize>, usize, usize, usize, usize);

/// A well-formed `cable_report` artifact whose every integer field is an
/// extreme value, so all of it reaches the diff and the renderers.
fn hostile_report((picks, phases, hops, hists, metrics): &ReportPicks) -> String {
    let mut values = picks.iter().cycle().map(|&i| EXTREMES[i % EXTREMES.len()]);
    let mut v = move || values.next().unwrap_or(u64::MAX);
    let mut out = format!(
        "{{\"type\":\"cable_report\",\"version\":1,\"span_start_ps\":{},\"span_end_ps\":{},\"events\":{},\"dropped_events\":{},\"malformed_lines\":{},\"phases\":[",
        v(), v(), v(), v(), v()
    );
    for i in 0..*phases {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"p{i}\",\"start_ps\":{},\"end_ps\":{},\"encodes\":{{\"raw\":{},\"unseeded\":{},\"diff\":{},\"remote_hit\":{}}},\"nacks\":{},\"retransmits\":{},\"fallback_raw\":{},\"escalations\":{}",
            v(), v(), v(), v(), v(), v(), v(), v(), v(), v()
        ));
        for lane in ["link", "dram", "mesh"] {
            out.push_str(&format!(
                ",\"{lane}_busy_ps\":{},\"{lane}_util_permille\":[{},{}]",
                v(),
                v(),
                v()
            ));
        }
        out.push('}');
    }
    out.push_str("],\"hops\":[");
    for i in 0..*hops {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"hop\":{},\"busy_ps\":{},\"busy_permille\":{},\"transfers\":{},\"bits\":{},\"depth_p50\":{},\"depth_p99\":{},\"nacks\":{},\"faults\":{},\"retransmitted_bits\":{},\"util_permille\":[{}]}}",
            v(), v(), v(), v(), v(), v(), v(), v(), v(), v(), v()
        ));
    }
    out.push_str("],\"histograms\":[");
    for i in 0..*hists {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":\"{}\",\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
            HIST_IDS[i % HIST_IDS.len()],
            v(), v(), v(), v(), v(), v()
        ));
    }
    out.push(']');
    for (key, prefix) in [("counters", "c"), ("gauges", "g")] {
        out.push_str(&format!(",\"{key}\":{{"));
        for i in 0..*metrics {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{prefix}{i}\":{}", v()));
        }
        out.push('}');
    }
    out.push('}');
    out
}

fn report_picks() -> impl Strategy<Value = ReportPicks> {
    (
        proptest::collection::vec(0usize..EXTREMES.len(), 1..48),
        (0usize..4, 0usize..4),
        (0usize..5, 0usize..3),
    )
        .prop_map(|(values, (phases, hops), (hists, metrics))| {
            (values, phases, hops, hists, metrics)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn extreme_report_artifacts_diff_and_render(
        a in report_picks(),
        b in report_picks(),
        threshold in prop_oneof![Just(0u64), Just(50), Just(u64::MAX)],
    ) {
        let ra = Report::from_report_json(&hostile_report(&a)).expect("artifact a parses");
        let rb = Report::from_report_json(&hostile_report(&b)).expect("artifact b parses");
        for r in [&ra, &rb] {
            let _ = r.render_text();
            let _ = r.render_latency();
            let _ = r.render_hops(3);
            let _ = r.to_json();
        }
        let diff = diff_reports(&ra, &rb, threshold);
        let _ = diff.breaches();
        let _ = diff.render_text();
        // A report never drifts from itself, however large its numbers.
        prop_assert!(diff_reports(&ra, &ra, 0).breaches().is_empty());
    }

    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = read_all_the_way(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn fragment_soup_never_panics(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..96),
    ) {
        let text: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let _ = read_all_the_way(&text);
    }

    #[test]
    fn schema_shaped_lines_never_panic(
        lines in proptest::collection::vec(
            (0usize..6, proptest::collection::vec((0usize..15, 0usize..9, 0usize..6), 0..6)),
            0..24,
        ),
    ) {
        // Every line parses, so these reach aggregation and rendering.
        let _ = read_all_the_way(&schema_lines(&lines));
    }

    #[test]
    fn mutated_traces_never_panic(
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..8),
        cut in any::<u16>(),
    ) {
        // Byte flips and a truncation of a real trace.
        let mut bytes = sample_trace().into_bytes();
        for (at, byte) in edits {
            let at = usize::from(at) % bytes.len();
            bytes[at] = byte;
        }
        bytes.truncate(usize::from(cut) % (bytes.len() + 1));
        let _ = read_all_the_way(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn the_sample_trace_reads_back() {
    let report = Report::from_jsonl(&sample_trace()).expect("sample parses");
    assert_eq!(report.malformed_lines, 0);
    assert!(read_all_the_way(&sample_trace()));
}

#[test]
fn most_schema_shaped_traces_reach_aggregation() {
    // Guards the generator above: without required members first, almost
    // every trace would fail the malformed-line tolerance and the fuzz
    // would never reach aggregation. (Negative required values still sink
    // a line, so not every trace parses.)
    let mut reached = 0;
    for seed in 0..200usize {
        let lines: Vec<LinePicks> = (0..12)
            .map(|i| {
                let x = seed * 31 + i * 7;
                (
                    x % 6,
                    vec![(x % 15, x % 9, x % 6), ((x / 3) % 15, (x / 5) % 9, 2)],
                )
            })
            .collect();
        reached += usize::from(read_all_the_way(&schema_lines(&lines)));
    }
    assert!(reached >= 50, "only {reached} of 200 traces parsed");
}

#[test]
fn phase_totals_saturate_instead_of_wrapping() {
    // Two phases each busy for u64::MAX ps: the summed total must read
    // u64::MAX, not wrap to u64::MAX - 1 and print a false drift.
    let picks: ReportPicks = (vec![EXTREMES.len() - 1], 2, 0, 0, 0);
    let report = Report::from_report_json(&hostile_report(&picks)).expect("artifact parses");
    let diff = diff_reports(&report, &report, 0);
    let row = diff
        .rows
        .iter()
        .find(|r| r.field == "link_busy_ps")
        .expect("link_busy_ps row");
    assert_eq!((row.a, row.b), (u64::MAX, u64::MAX));
    assert!(diff.breaches().is_empty());
}
