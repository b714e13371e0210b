//! Hostile-input fuzzing of the trace reader: whatever bytes a JSONL
//! file holds, `Report::from_jsonl` returns a report or an error, and
//! never panics.

use cable_telemetry::{Event, Report, Telemetry};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

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
