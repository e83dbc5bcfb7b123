//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is (name, start, end, parent, op id). Spans are appended to a
//! preallocated vector and written out once, when the run ends. A
//! layer's self time is its spans' duration minus the duration of their
//! direct children. Spans inside the program are a later change; these
//! are recorded from outside, at public entry points.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    name: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

pub struct Tracer {
    origin: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
}

/// Per-name totals over a trace.
pub struct SelfTime {
    pub spans: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer { origin, names: Vec::new(), spans: Vec::with_capacity(1 << 16) }
    }

    pub fn name(&mut self, name: &str) -> u16 {
        if let Some(k) = self.names.iter().position(|n| n == name) {
            return k as u16;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as u16
    }

    /// Records a finished span and returns its id (for children).
    pub fn record(&mut self, name: u16, start: Instant, end: Instant, parent: u32, op: u64) -> u32 {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent, op });
        (self.spans.len() - 1) as u32
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Ids and op ids of the spans called `name`, in recording order.
    pub fn named(&self, name: &str) -> Vec<(u32, u64)> {
        let Some(k) = self.names.iter().position(|n| n == name) else { return Vec::new() };
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name as usize == k)
            .map(|(id, s)| (id as u32, s.op))
            .collect()
    }

    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let remap: Vec<u16> = other.names.iter().map(|n| self.name(n)).collect();
        for mut s in other.spans {
            s.name = remap[s.name as usize];
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            self.spans.push(s);
        }
    }

    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for (k, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(self.names[s.name as usize].clone()).or_insert(SelfTime {
                spans: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            e.spans += 1;
            e.total_ms += dur as f64 / 1e6;
            e.self_ms += dur.saturating_sub(child_ns[k]) as f64 / 1e6;
        }
        out
    }

    /// `{"names": [...], "spans": [[name, start_ns, end_ns, parent, op], ...]}`
    /// with `parent` = -1 for a root.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 40 + 256);
        s.push_str("{\"names\":[");
        for (k, n) in self.names.iter().enumerate() {
            let _ = write!(s, "{}\"{n}\"", if k > 0 { "," } else { "" });
        }
        s.push_str("],\n\"spans\":[\n");
        for (k, sp) in self.spans.iter().enumerate() {
            let parent = if sp.parent == NO_PARENT { -1 } else { i64::from(sp.parent) };
            let _ = writeln!(
                s,
                "[{},{},{},{},{}]{}",
                sp.name,
                sp.start_ns,
                sp.end_ns,
                parent,
                sp.op,
                if k + 1 < self.spans.len() { "," } else { "" }
            );
        }
        s.push_str("]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0);
        let (op, leaf) = (tr.name("op"), tr.name("leaf"));
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = tr.record(op, at(0), at(10), NO_PARENT, 1);
        tr.record(leaf, at(1), at(4), root, 1);
        tr.record(leaf, at(5), at(9), root, 1);
        let st = tr.self_times();
        assert!((st["op"].self_ms - 3.0).abs() < 1e-9);
        assert!((st["leaf"].self_ms - 7.0).abs() < 1e-9);
        assert_eq!(st["leaf"].spans, 2);
        assert!(tr.to_json().contains("[1,1000000,4000000,0,1]"));
    }
}
