//! Chrome trace-event JSON: deterministic export and in-repo validation.
//!
//! [`to_chrome_json`] renders a [`TraceSnapshot`] in the Chrome trace-event
//! format — open the file in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`. Layers map to processes (`pid`), tracks to threads
//! (`tid`), so the UI shows one timeline per runtime worker, netsim host
//! and service tenant. The output is *deterministic*: tracks are sorted,
//! events keep ring order, and timestamps are formatted with integer
//! arithmetic only — a virtual-clock run exports bit-identical JSON every
//! time, which the golden-file test pins.
//!
//! [`validate_chrome_trace`] is the schema checker CI's `trace-smoke` job
//! runs over exported files: structural JSON checks (required fields per
//! phase, non-negative timestamps, balanced B/E nesting per track) with no
//! dependency beyond the vendored `serde_json` shim.
//!
//! # Cost model
//!
//! Both directions are linear: the 55 MB trace of a 4096-block, 8-worker
//! `scale_pool` run validates in ~1.5 s on a 2-vCPU Xeon VM. Export
//! appends every record to one `String` sized up front from the event
//! count; per event it writes a handful of integers through `fmt::Write`
//! and allocates nothing. Validation is one linear parse into a `Value`
//! tree (one allocation per key and string value), then one pass over the
//! events that allocates only when it meets a new (pid, tid) track or
//! layer, or grows a track's stack of open spans. The `trace-check`
//! benchmark workload reports both costs, as `obs.export_ns_per_event` and
//! `obs.validate_ns_per_byte`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use serde::Value;

use crate::event::EventKind;
use crate::tracer::{Layer, TraceSnapshot};

/// Upper estimate of one exported record's length: event lines run ~110
/// bytes with this workspace's names, so the output buffer is sized once.
const BYTES_PER_RECORD: usize = 128;

/// Writes `time_ns` as a Chrome `ts`/`dur` value (microseconds) using only
/// integer arithmetic, so the text never depends on float formatting.
fn push_us(out: &mut String, time_ns: u64) {
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{}.{:03}", time_ns / 1000, time_ns % 1000);
}

/// Minimal JSON string escape for names (all names in this workspace are
/// plain identifiers, but the exporter must not emit invalid JSON even if
/// one ever is not), appended to `out`.
fn push_escaped(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders a snapshot as Chrome trace-event JSON (object form).
pub fn to_chrome_json(snapshot: &TraceSnapshot) -> String {
    let layers: Vec<Layer> = snapshot.layers();
    let records = layers.len() + snapshot.tracks.len() + snapshot.total_events() as usize;
    let mut out = String::with_capacity(64 + records * BYTES_PER_RECORD);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    // Every record after the first is preceded by ",\n".
    let mut first = true;
    let mut next_record = |out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
    };

    // Process metadata: one per layer present, in layer order.
    for layer in &layers {
        next_record(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            layer.pid(),
            layer.cat()
        );
    }

    for track in &snapshot.tracks {
        let pid = track.layer.pid();
        let tid = track.tid;
        let cat = track.layer.cat();
        next_record(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\""
        );
        push_escaped(&mut out, &track.name);
        out.push_str("\"}}");
        for ev in track.ring.iter_in_order() {
            next_record(&mut out);
            let ph = match ev.kind {
                EventKind::Begin => 'B',
                EventKind::End => 'E',
                EventKind::Complete => 'X',
                EventKind::Instant => 'i',
                EventKind::Counter => 'C',
            };
            out.push_str("{\"name\":\"");
            push_escaped(&mut out, ev.name);
            let _ = write!(out, "\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"ts\":");
            push_us(&mut out, ev.time_ns);
            if ev.kind == EventKind::Complete {
                out.push_str(",\"dur\":");
                push_us(&mut out, ev.duration_ns());
            }
            let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid}");
            match ev.kind {
                EventKind::End => out.push('}'),
                EventKind::Instant => {
                    let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"arg\":{}}}}}", ev.arg);
                }
                EventKind::Counter => {
                    out.push_str(",\"args\":{\"");
                    push_escaped(&mut out, ev.name);
                    let _ = write!(out, "\":{}}}}}", ev.extra);
                }
                EventKind::Begin | EventKind::Complete => {
                    let _ = write!(out, ",\"args\":{{\"arg\":{}}}}}", ev.arg);
                }
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// What the schema checker learned about a valid trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Non-metadata events in the file.
    pub events: u64,
    /// Distinct (pid, tid) tracks that carry at least one event.
    pub tracks: u64,
    /// Category strings seen on events — the layers the trace covers.
    pub layers: BTreeSet<String>,
}

fn field<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Validates Chrome trace-event JSON against the subset of the format this
/// workspace exports (and Perfetto requires): every event carries `ph`,
/// `pid`, `tid` and a name; timed phases carry a non-negative `ts` (`X`
/// also a non-negative `dur`, `i` a scope, `C` a numeric sample); and
/// B/E span markers nest properly per track.
///
/// # Errors
/// A description of the first malformed event.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceStats, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let Value::Map(top) = &root else {
        return Err("top level must be an object".into());
    };
    let Some(Value::Seq(events)) = field(top, "traceEvents") else {
        return Err("missing traceEvents array".into());
    };
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }

    let mut stats = ChromeTraceStats {
        events: 0,
        tracks: 0,
        layers: BTreeSet::new(),
    };
    let mut tracks: BTreeSet<(u64, u64)> = BTreeSet::new();
    // Open B spans per (pid, tid), by name, for nesting checks. The names
    // borrow from the parsed tree.
    let mut open: BTreeMap<(u64, u64), Vec<&str>> = BTreeMap::new();

    for (i, ev) in events.iter().enumerate() {
        let Value::Map(ev) = ev else {
            return Err(format!("event {i}: not an object"));
        };
        let ph = field(ev, "ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let pid = field(ev, "pid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing integer pid"))?;
        let tid = field(ev, "tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing integer tid"))?;
        let name = field(ev, "name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;

        if ph == "M" {
            if !matches!(name, "process_name" | "thread_name") {
                return Err(format!("event {i}: unknown metadata record {name:?}"));
            }
            let ok = field(ev, "args")
                .and_then(|a| match a {
                    Value::Map(m) => field(m, "name").and_then(Value::as_str),
                    _ => None,
                })
                .is_some();
            if !ok {
                return Err(format!("event {i}: metadata without args.name"));
            }
            continue;
        }

        let ts = field(ev, "ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric ts"))?;
        if ts < 0.0 {
            return Err(format!("event {i}: negative ts {ts}"));
        }
        match ph {
            "B" => open.entry((pid, tid)).or_default().push(name),
            "E" => {
                let stack = open.entry((pid, tid)).or_default();
                match stack.pop() {
                    Some(opened) if opened == name => {}
                    Some(opened) => {
                        return Err(format!(
                            "event {i}: E {name:?} closes B {opened:?} on pid {pid} tid {tid}"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "event {i}: E {name:?} with no open span on pid {pid} tid {tid}"
                        ))
                    }
                }
            }
            "X" => {
                let dur = field(ev, "dur")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: X without numeric dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur {dur}"));
                }
            }
            "i" => {
                if field(ev, "s").and_then(Value::as_str).is_none() {
                    return Err(format!("event {i}: instant without scope s"));
                }
            }
            "C" => {
                let numeric = field(ev, "args")
                    .map(|a| match a {
                        Value::Map(m) => m.iter().any(|(_, v)| v.as_f64().is_some()),
                        _ => false,
                    })
                    .unwrap_or(false);
                if !numeric {
                    return Err(format!("event {i}: counter without a numeric sample"));
                }
            }
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }

        if let Some(cat) = field(ev, "cat").and_then(Value::as_str) {
            if !stats.layers.contains(cat) {
                stats.layers.insert(cat.to_owned());
            }
        }
        tracks.insert((pid, tid));
        stats.events += 1;
    }

    for ((pid, tid), stack) in &open {
        if let Some(name) = stack.last() {
            return Err(format!(
                "unclosed span {name:?} on pid {pid} tid {tid} at end of trace"
            ));
        }
    }
    stats.tracks = tracks.len() as u64;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{TraceConfig, Tracer};

    fn sample_snapshot() -> TraceSnapshot {
        let tracer = Tracer::new(TraceConfig::on());
        let mut w = tracer.recorder(Layer::Runtime, "worker-0", 0);
        w.span_begin_at("drain", 100, 1);
        w.span_complete("iterate", 1_000, 2_500, 7);
        w.instant_at("publish", 2_500, 3);
        w.counter_at("steals", 3_000, 2);
        w.span_end_at("drain", 4_000, 1);
        w.finish();
        let mut t = tracer.recorder(Layer::Service, "tenant-0", 0);
        t.instant_at("admit", 10, 0);
        t.finish();
        tracer.snapshot()
    }

    #[test]
    fn exported_json_passes_the_schema_checker() {
        let json = to_chrome_json(&sample_snapshot());
        let stats = validate_chrome_trace(&json).expect("exported trace must validate");
        assert_eq!(stats.events, 6);
        assert_eq!(stats.tracks, 2);
        let layers: Vec<&str> = stats.layers.iter().map(String::as_str).collect();
        assert_eq!(layers, vec!["runtime", "service"]);
    }

    #[test]
    fn export_is_bit_identical_across_calls() {
        let snap = sample_snapshot();
        assert_eq!(to_chrome_json(&snap), to_chrome_json(&snap));
    }

    #[test]
    fn timestamps_render_as_integer_microseconds_with_ns_fraction() {
        let mut s = String::new();
        push_us(&mut s, 1_234_567);
        assert_eq!(s, "1234.567");
        let mut s = String::new();
        push_us(&mut s, 42);
        assert_eq!(s, "0.042");
    }

    #[test]
    fn the_checker_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        // Missing ts on a timed phase.
        let bad = "{\"traceEvents\":[{\"ph\":\"B\",\"pid\":1,\"tid\":0,\"name\":\"x\"}]}";
        assert!(validate_chrome_trace(bad).unwrap_err().contains("ts"));
        // Unbalanced spans.
        let bad = "{\"traceEvents\":[\
            {\"ph\":\"B\",\"pid\":1,\"tid\":0,\"name\":\"a\",\"ts\":1}]}";
        assert!(validate_chrome_trace(bad).unwrap_err().contains("unclosed"));
        let bad = "{\"traceEvents\":[\
            {\"ph\":\"E\",\"pid\":1,\"tid\":0,\"name\":\"a\",\"ts\":1}]}";
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("no open span"));
        // Mismatched nesting.
        let bad = "{\"traceEvents\":[\
            {\"ph\":\"B\",\"pid\":1,\"tid\":0,\"name\":\"a\",\"ts\":1},\
            {\"ph\":\"E\",\"pid\":1,\"tid\":0,\"name\":\"b\",\"ts\":2}]}";
        assert!(validate_chrome_trace(bad).unwrap_err().contains("closes"));
        // A raw control character inside a string (Perfetto refuses these).
        let bad = "{\"traceEvents\":[\
            {\"ph\":\"i\",\"pid\":1,\"tid\":0,\"name\":\"a\tb\",\"ts\":1,\"s\":\"t\"}]}";
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("control character"));
    }

    #[test]
    fn names_are_escaped() {
        let escape = |s: &str| {
            let mut out = String::new();
            push_escaped(&mut out, s);
            out
        };
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }

    /// Every event kind, all three layers and an escaped track name, pinned
    /// byte for byte (the golden file only carries `X`, `i` and `M`).
    #[test]
    fn export_text_is_pinned_for_every_event_kind() {
        let tracer = Tracer::new(TraceConfig::on());
        let mut w = tracer.recorder(Layer::Runtime, "worker \"0\"\t", 3);
        w.span_begin_at("drain", 100, 1);
        w.span_complete("iterate", 1_000, 2_500, 7);
        w.instant_at("publish", 2_500, 3);
        w.counter_at("steals", 3_000, 2);
        w.span_end_at("drain", 4_000, 1);
        w.finish();
        let mut h = tracer.recorder(Layer::Netsim, "host-1", 1);
        h.span_complete("compute", 5, 1_234_567, 0);
        h.finish();
        let mut t = tracer.recorder(Layer::Service, "tenant-0", 0);
        t.instant_at("admit", 10, 0);
        t.finish();
        let expected = r#"{"displayTimeUnit":"ms","traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"runtime"}},
{"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"netsim"}},
{"ph":"M","pid":3,"tid":0,"name":"process_name","args":{"name":"service"}},
{"ph":"M","pid":1,"tid":3,"name":"thread_name","args":{"name":"worker \"0\"\u0009"}},
{"name":"drain","cat":"runtime","ph":"B","ts":0.100,"pid":1,"tid":3,"args":{"arg":1}},
{"name":"iterate","cat":"runtime","ph":"X","ts":1.000,"dur":1.500,"pid":1,"tid":3,"args":{"arg":7}},
{"name":"publish","cat":"runtime","ph":"i","ts":2.500,"pid":1,"tid":3,"s":"t","args":{"arg":3}},
{"name":"steals","cat":"runtime","ph":"C","ts":3.000,"pid":1,"tid":3,"args":{"steals":2}},
{"name":"drain","cat":"runtime","ph":"E","ts":4.000,"pid":1,"tid":3},
{"ph":"M","pid":2,"tid":1,"name":"thread_name","args":{"name":"host-1"}},
{"name":"compute","cat":"netsim","ph":"X","ts":0.005,"dur":1234.562,"pid":2,"tid":1,"args":{"arg":0}},
{"ph":"M","pid":3,"tid":0,"name":"thread_name","args":{"name":"tenant-0"}},
{"name":"admit","cat":"service","ph":"i","ts":0.010,"pid":3,"tid":0,"s":"t","args":{"arg":0}}
]}
"#;
        assert_eq!(to_chrome_json(&tracer.snapshot()), expected);
        assert_eq!(validate_chrome_trace(expected).unwrap().events, 7);
    }
}
