//! Recorded spans as Chrome `trace_event` JSON (load in Perfetto).

use cdna_trace::json::JsonWriter;

use crate::probe::Span;
use crate::rack::RackSpan;

fn event(w: &mut JsonWriter, name: &str, tid: u64, start: u64, end: u64, parent: Option<u64>) {
    w.begin_object();
    w.key("name");
    w.string(name);
    w.key("ph");
    w.string("X");
    w.key("pid");
    w.number_u64(1);
    w.key("tid");
    w.number_u64(tid);
    w.key("ts");
    w.number_f64(start as f64 / 1e3);
    w.key("dur");
    w.number_f64(end.saturating_sub(start) as f64 / 1e3);
    if let Some(p) = parent {
        w.key("args");
        w.begin_object();
        w.key("parent");
        w.number_u64(p);
        w.end_object();
    }
    w.end_object();
}

fn document(body: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    body(&mut w);
    w.end_array();
    w.end_object();
    w.finish()
}

/// Single-host spans; `args.parent` is the enclosing span's index.
pub fn host_chrome_json(spans: &[Span]) -> String {
    document(|w| {
        for s in spans {
            event(w, s.name, 0, s.start, s.end, s.parent.map(u64::from));
        }
    })
}

/// Rack host-epoch spans, one track per host; `args.parent` is the
/// epoch round.
pub fn rack_chrome_json(spans: &[RackSpan]) -> String {
    document(|w| {
        for s in spans {
            event(
                w,
                "rack.host_step",
                s.host as u64,
                s.start,
                s.end,
                Some(s.round),
            );
        }
    })
}
