//! Structured trace events.
//!
//! Events are plain data — no references into the emitting subsystem — so
//! the tracer can buffer them without lifetimes and the exporters can
//! serialize them without callbacks. Category strings are `&'static str`
//! to keep event construction allocation-free.

/// One structured occurrence inside the CABLE stack.
///
/// Variants mirror the things the paper's evaluation reasons about:
/// per-line encode outcomes, search pipeline depth, recovery-protocol
/// actions, resync sweeps, scheduler activity, and shared-resource busy
/// intervals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// One line crossed the link (or hit remotely).
    Encode {
        /// Outcome: `"remote_hit"`, `"raw"`, `"unseeded"`, or `"diff"`.
        kind: &'static str,
        /// `"fill"` or `"writeback"`.
        direction: &'static str,
        /// Exact framed payload bits.
        payload_bits: u32,
        /// Flit-quantized wire bits.
        wire_bits: u32,
        /// References named in the payload.
        refs: u8,
    },
    /// One signature search ran (§III-C pipeline depth).
    Search {
        /// Hash-table candidates before pre-ranking.
        candidates: u32,
        /// Data-array reads performed (post-pre-rank).
        data_reads: u32,
        /// References selected.
        selected: u8,
    },
    /// A DIFF payload was built against references.
    DiffSize {
        /// The DIFF body size in bits (before framing).
        bits: u32,
    },
    /// The receiver NACKed a delivery.
    Nack {
        /// Failure class: `"transient"` or `"reference"`.
        class: &'static str,
    },
    /// A delivery degraded to a raw retransmission.
    FallbackRaw,
    /// A delivery exhausted the raw budget and escalated to the reliable
    /// path.
    Escalation,
    /// One retransmission crossed the wire.
    Retransmit {
        /// Flit-quantized wire bits of the retransmitted frame.
        wire_bits: u64,
    },
    /// The channel corrupted a frame in flight.
    FaultInjected {
        /// Bits flipped in this frame.
        bit_flips: u32,
        /// Whether the frame was truncated.
        truncated: bool,
    },
    /// The channel dropped a synchronization notice.
    NoticeDropped,
    /// The channel delayed a synchronization notice.
    NoticeDelayed,
    /// `audit_and_resync()` completed.
    Resync {
        /// Total repairs performed.
        repairs: u64,
    },
    /// A stale fill reference resolved from the §IV-A eviction buffer.
    EvictBufferHit,
    /// The event-driven scheduler woke an actor.
    SchedWake {
        /// Actor index within its group.
        actor: u32,
    },
    /// The shared off-chip link was occupied.
    LinkBusy {
        /// Interval start, picoseconds.
        start_ps: u64,
        /// Interval duration, picoseconds.
        dur_ps: u64,
    },
    /// A DRAM access occupied bank + bus.
    DramBusy {
        /// Interval start, picoseconds.
        start_ps: u64,
        /// Interval duration, picoseconds.
        dur_ps: u64,
    },
    /// A transfer occupied one mesh-hop PTP wire (per-hop contention).
    MeshHop {
        /// Hop (unordered chip-pair wire) index within the fabric.
        hop: u32,
        /// Transfers still queued ahead when this one arrived.
        depth: u32,
        /// Interval start, picoseconds.
        start_ps: u64,
        /// Interval duration, picoseconds.
        dur_ps: u64,
    },
    /// A named phase boundary (`cable report` groups its timelines
    /// between consecutive phase events).
    Phase {
        /// Phase name, e.g. `"measure"` or `"compression_off"`.
        name: &'static str,
    },
    /// A free-form named marker.
    Marker {
        /// Marker name.
        name: &'static str,
        /// Attached value.
        value: u64,
    },
}

/// Exporter tracks (Chrome-trace thread names), one per [`Event::track`]
/// value. Ring capacities in [`crate::TracerConfig`] are indexed by
/// position in this table.
pub const TRACKS: [&str; 7] = ["encode", "fault", "sched", "link", "dram", "mesh", "marker"];

/// The three occupancy lanes a busy interval can land on. This is the
/// single source of truth tying each lane to its event name
/// ([`LaneKind::event_name`]) and report label ([`LaneKind::label`]) —
/// the report parser dispatches through [`LaneKind::from_event_name`]
/// instead of matching lane strings ad hoc.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneKind {
    /// The shared off-chip link ([`Event::LinkBusy`]).
    Link,
    /// A DRAM bank + bus ([`Event::DramBusy`]).
    Dram,
    /// A mesh-hop PTP wire ([`Event::MeshHop`]).
    Mesh,
}

impl LaneKind {
    /// Every lane, in report/rendering order.
    pub const ALL: [LaneKind; 3] = [LaneKind::Link, LaneKind::Dram, LaneKind::Mesh];

    /// Stable lowercase label used in report tables and artifact keys
    /// (`{label}_busy_ps`, `{label}_util_permille`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LaneKind::Link => "link",
            LaneKind::Dram => "dram",
            LaneKind::Mesh => "mesh",
        }
    }

    /// The [`Event::name`] of this lane's busy-interval event.
    #[must_use]
    pub fn event_name(self) -> &'static str {
        match self {
            LaneKind::Link => "link_busy",
            LaneKind::Dram => "dram_busy",
            LaneKind::Mesh => "mesh_hop",
        }
    }

    /// Inverse of [`LaneKind::event_name`]: the lane whose busy event is
    /// named `name`, if any.
    #[must_use]
    pub fn from_event_name(name: &str) -> Option<LaneKind> {
        LaneKind::ALL.into_iter().find(|l| l.event_name() == name)
    }

    /// The lane a live [`Event`] occupies (`None` for non-busy events).
    #[must_use]
    pub fn of_event(event: &Event) -> Option<LaneKind> {
        match event {
            Event::LinkBusy { .. } => Some(LaneKind::Link),
            Event::DramBusy { .. } => Some(LaneKind::Dram),
            Event::MeshHop { .. } => Some(LaneKind::Mesh),
            _ => None,
        }
    }
}

impl Event {
    /// Stable name used by the exporters.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Event::Encode { .. } => "encode",
            Event::Search { .. } => "search",
            Event::DiffSize { .. } => "diff_size",
            Event::Nack { .. } => "nack",
            Event::FallbackRaw => "fallback_raw",
            Event::Escalation => "escalation",
            Event::Retransmit { .. } => "retransmit",
            Event::FaultInjected { .. } => "fault_injected",
            Event::NoticeDropped => "notice_dropped",
            Event::NoticeDelayed => "notice_delayed",
            Event::Resync { .. } => "resync",
            Event::EvictBufferHit => "evict_buffer_hit",
            Event::SchedWake { .. } => "sched_wake",
            Event::LinkBusy { .. } => "link_busy",
            Event::DramBusy { .. } => "dram_busy",
            Event::MeshHop { .. } => "mesh_hop",
            Event::Phase { .. } => "phase",
            Event::Marker { .. } => "marker",
        }
    }

    /// The Chrome-trace track (thread name) this event renders on.
    #[must_use]
    pub fn track(&self) -> &'static str {
        match self {
            Event::Encode { .. } | Event::Search { .. } | Event::DiffSize { .. } => "encode",
            Event::Nack { .. }
            | Event::FallbackRaw
            | Event::Escalation
            | Event::Retransmit { .. }
            | Event::FaultInjected { .. }
            | Event::NoticeDropped
            | Event::NoticeDelayed
            | Event::Resync { .. }
            | Event::EvictBufferHit => "fault",
            Event::SchedWake { .. } => "sched",
            Event::LinkBusy { .. } => "link",
            Event::DramBusy { .. } => "dram",
            Event::MeshHop { .. } => "mesh",
            Event::Phase { .. } | Event::Marker { .. } => "marker",
        }
    }

    /// The event's position in [`TRACKS`] (per-track ring selection),
    /// resolved by a `match` so a push never searches the track table.
    #[must_use]
    pub fn track_index(&self) -> usize {
        match self {
            Event::Encode { .. } | Event::Search { .. } | Event::DiffSize { .. } => 0,
            Event::Nack { .. }
            | Event::FallbackRaw
            | Event::Escalation
            | Event::Retransmit { .. }
            | Event::FaultInjected { .. }
            | Event::NoticeDropped
            | Event::NoticeDelayed
            | Event::Resync { .. }
            | Event::EvictBufferHit => 1,
            Event::SchedWake { .. } => 2,
            Event::LinkBusy { .. } => 3,
            Event::DramBusy { .. } => 4,
            Event::MeshHop { .. } => 5,
            Event::Phase { .. } | Event::Marker { .. } => 6,
        }
    }

    /// Appends the event's arguments to `out` as JSON object members,
    /// each preceded by a comma (`,"key":value`), so the caller can
    /// follow any earlier member with them and close the object. Keys
    /// and string values are static identifiers that need no escaping;
    /// integers are written by [`push_u64`] rather than `fmt`. This is
    /// the one args writer behind both exporters.
    pub fn write_args(&self, out: &mut Vec<u8>) {
        match *self {
            Event::Encode {
                kind,
                direction,
                payload_bits,
                wire_bits,
                refs,
            } => {
                push_str_member(out, "kind", kind);
                push_str_member(out, "direction", direction);
                push_int_member(out, "payload_bits", u64::from(payload_bits));
                push_int_member(out, "wire_bits", u64::from(wire_bits));
                push_int_member(out, "refs", u64::from(refs));
            }
            Event::Search {
                candidates,
                data_reads,
                selected,
            } => {
                push_int_member(out, "candidates", u64::from(candidates));
                push_int_member(out, "data_reads", u64::from(data_reads));
                push_int_member(out, "selected", u64::from(selected));
            }
            Event::DiffSize { bits } => push_int_member(out, "bits", u64::from(bits)),
            Event::Nack { class } => push_str_member(out, "class", class),
            Event::FallbackRaw
            | Event::Escalation
            | Event::NoticeDropped
            | Event::NoticeDelayed
            | Event::EvictBufferHit => {}
            Event::Retransmit { wire_bits } => push_int_member(out, "wire_bits", wire_bits),
            Event::FaultInjected {
                bit_flips,
                truncated,
            } => {
                push_int_member(out, "bit_flips", u64::from(bit_flips));
                push_key(out, "truncated");
                out.extend_from_slice(if truncated { b"true" } else { b"false" });
            }
            Event::Resync { repairs } => push_int_member(out, "repairs", repairs),
            Event::SchedWake { actor } => push_int_member(out, "actor", u64::from(actor)),
            Event::LinkBusy { start_ps, dur_ps } | Event::DramBusy { start_ps, dur_ps } => {
                push_int_member(out, "start_ps", start_ps);
                push_int_member(out, "dur_ps", dur_ps);
            }
            Event::MeshHop {
                hop,
                depth,
                start_ps,
                dur_ps,
            } => {
                push_int_member(out, "hop", u64::from(hop));
                push_int_member(out, "depth", u64::from(depth));
                push_int_member(out, "start_ps", start_ps);
                push_int_member(out, "dur_ps", dur_ps);
            }
            Event::Phase { name } => push_str_member(out, "phase", name),
            Event::Marker { name, value } => {
                push_str_member(out, "name", name);
                push_int_member(out, "value", value);
            }
        }
    }
}

/// The decimal digit pairs `00` to `99`, back to back.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `v` in decimal, two digits at a time, without going through
/// `fmt`.
pub(crate) fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        digits[i] = b'0' + v as u8;
    }
    out.extend_from_slice(&digits[i..]);
}

/// Appends `,"key":`.
fn push_key(out: &mut Vec<u8>, key: &str) {
    out.extend_from_slice(b",\"");
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(b"\":");
}

/// Appends `,"key":"value"` (both static identifiers, never escaped).
fn push_str_member(out: &mut Vec<u8>, key: &str, value: &str) {
    push_key(out, key);
    out.push(b'"');
    out.extend_from_slice(value.as_bytes());
    out.push(b'"');
}

/// Appends `,"key":value`.
fn push_int_member(out: &mut Vec<u8>, key: &str, value: u64) {
    push_key(out, key);
    push_u64(out, value);
}

/// An [`Event`] stamped with simulated time and a dense sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated timestamp in picoseconds (never wallclock).
    pub now_ps: u64,
    /// Dense per-tracer sequence number (survives ring-buffer drops: the
    /// first retained event's `seq` equals the drop count).
    pub seq: u64,
    /// The event payload.
    pub event: Event,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn names_and_tracks_are_stable() {
        assert_eq!(Event::FallbackRaw.name(), "fallback_raw");
        assert_eq!(Event::FallbackRaw.track(), "fault");
        assert_eq!(
            Event::LinkBusy {
                start_ps: 0,
                dur_ps: 1
            }
            .track(),
            "link"
        );
        assert_eq!(Event::SchedWake { actor: 3 }.name(), "sched_wake");
        assert_eq!(
            Event::MeshHop {
                hop: 2,
                depth: 1,
                start_ps: 0,
                dur_ps: 5
            }
            .track(),
            "mesh"
        );
        assert_eq!(Event::Phase { name: "measure" }.track(), "marker");
    }

    #[test]
    fn lane_kinds_round_trip_event_names() {
        for lane in LaneKind::ALL {
            assert_eq!(LaneKind::from_event_name(lane.event_name()), Some(lane));
        }
        assert_eq!(LaneKind::from_event_name("encode"), None);
        let busy = Event::LinkBusy {
            start_ps: 0,
            dur_ps: 1,
        };
        assert_eq!(LaneKind::of_event(&busy), Some(LaneKind::Link));
        assert_eq!(busy.name(), LaneKind::Link.event_name());
        let mesh = Event::MeshHop {
            hop: 1,
            depth: 0,
            start_ps: 0,
            dur_ps: 1,
        };
        assert_eq!(LaneKind::of_event(&mesh), Some(LaneKind::Mesh));
        assert_eq!(mesh.name(), LaneKind::Mesh.event_name());
        let dram = Event::DramBusy {
            start_ps: 0,
            dur_ps: 1,
        };
        assert_eq!(LaneKind::of_event(&dram), Some(LaneKind::Dram));
        assert_eq!(dram.name(), LaneKind::Dram.event_name());
        assert_eq!(LaneKind::of_event(&Event::FallbackRaw), None);
        assert_eq!(LaneKind::Mesh.label(), "mesh");
    }

    /// One instance of every variant, each integer at `v` (truncated to
    /// the field's width).
    pub(crate) fn every_variant(v: u64) -> Vec<Event> {
        vec![
            Event::Encode {
                kind: "diff",
                direction: "fill",
                payload_bits: v as u32,
                wire_bits: v as u32,
                refs: v as u8,
            },
            Event::Search {
                candidates: v as u32,
                data_reads: v as u32,
                selected: v as u8,
            },
            Event::DiffSize { bits: v as u32 },
            Event::Nack { class: "transient" },
            Event::FallbackRaw,
            Event::Escalation,
            Event::Retransmit { wire_bits: v },
            Event::FaultInjected {
                bit_flips: v as u32,
                truncated: v % 2 == 1,
            },
            Event::NoticeDropped,
            Event::NoticeDelayed,
            Event::Resync { repairs: v },
            Event::EvictBufferHit,
            Event::SchedWake { actor: v as u32 },
            Event::LinkBusy {
                start_ps: v,
                dur_ps: v,
            },
            Event::DramBusy {
                start_ps: v,
                dur_ps: v,
            },
            Event::MeshHop {
                hop: v as u32,
                depth: v as u32,
                start_ps: v,
                dur_ps: v,
            },
            Event::Phase { name: "measure" },
            Event::Marker {
                name: "m",
                value: v,
            },
        ]
    }

    #[test]
    fn track_index_matches_the_track_table_for_every_variant() {
        let events = every_variant(1);
        assert_eq!(events.len(), 18, "one instance per variant");
        for e in &events {
            assert_eq!(TRACKS[e.track_index()], e.track(), "{e:?}");
        }
    }

    fn args(e: &Event) -> String {
        let mut out = Vec::new();
        e.write_args(&mut out);
        String::from_utf8(out).expect("args are UTF-8")
    }

    #[test]
    fn phase_args_avoid_the_name_key() {
        // The exporter's event lines already carry a "name" key (the event
        // name), so phase labels ride under "phase" to stay unambiguous.
        assert_eq!(
            args(&Event::Phase { name: "measure" }),
            ",\"phase\":\"measure\""
        );
    }

    #[test]
    fn args_are_comma_led_object_members() {
        let body = args(&Event::Encode {
            kind: "diff",
            direction: "fill",
            payload_bits: 100,
            wire_bits: 112,
            refs: 2,
        });
        assert!(body.starts_with(",\"kind\":\"diff\""), "{body}");
        assert!(body.contains("\"refs\":2"));
        assert_eq!(args(&Event::Escalation), "");
        for e in every_variant(u64::MAX) {
            let wrapped = format!("{{\"seq\":0{}}}", args(&e));
            crate::json::validate_json(&wrapped).expect("args extend a valid object");
        }
    }

    #[test]
    fn push_u64_matches_display() {
        // Every power of ten and its neighbours, where digit counts change.
        let mut values = vec![0, u64::MAX - 1, u64::MAX];
        let mut p = 1u64;
        while let Some(next) = p.checked_mul(10) {
            values.extend([p - 1, p, p + 1, p * 5]);
            p = next;
        }
        for v in values {
            let mut out = b"x".to_vec();
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}").into_bytes());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        #[test]
        fn push_u64_matches_display_for_any_value(
            v in proptest::prelude::any::<u64>(),
            shift in 0u32..64,
        ) {
            let v = v >> shift;
            let mut out = Vec::new();
            push_u64(&mut out, v);
            proptest::prop_assert_eq!(out, v.to_string().into_bytes());
        }
    }
}
