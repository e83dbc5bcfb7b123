//! A minimal Prometheus text-exposition writer.
//!
//! Emits version 0.0.4 text format: `# HELP` / `# TYPE` headers
//! followed by samples. Determinism is the point — every value written
//! through this module is an integer, label values are escaped per the
//! spec, families come out in sorted name order whatever order the
//! caller wrote them in, and the samples of one family stay in write
//! order — so two scrapes of an idle process produce byte-identical
//! documents.

use std::collections::BTreeMap;

use crate::Snapshot;

/// An exposition family's declaration — or, [`Metric::with`] a label,
/// one labelled series of it. `const`-constructible so a stats field
/// can name its family in the same table that declares the field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    /// The family name (`systec_…`).
    pub name: &'static str,
    /// `counter`, `gauge`, or `histogram`.
    pub kind: &'static str,
    /// The `# HELP` text.
    pub help: &'static str,
    /// The fixed label of this series, if the family has several.
    pub label: Option<(&'static str, &'static str)>,
}

/// A counter family.
pub const fn counter(name: &'static str, help: &'static str) -> Metric {
    Metric { name, kind: "counter", help, label: None }
}

/// A gauge family.
pub const fn gauge(name: &'static str, help: &'static str) -> Metric {
    Metric { name, kind: "gauge", help, label: None }
}

/// A histogram family.
pub const fn histogram(name: &'static str, help: &'static str) -> Metric {
    Metric { name, kind: "histogram", help, label: None }
}

impl Metric {
    /// The series of this family labelled `key="value"`.
    pub const fn with(self, key: &'static str, value: &'static str) -> Metric {
        Metric { label: Some((key, value)), ..self }
    }
}

/// Accumulates an exposition document, one text block per family.
#[derive(Debug, Default)]
pub struct PromWriter {
    families: BTreeMap<&'static str, String>,
}

impl PromWriter {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// The family's block, starting it with its `# HELP` and `# TYPE`
    /// headers on first use. Sample writers call this themselves; call
    /// it directly only for a family that may have no samples.
    pub fn family(&mut self, metric: &Metric) -> &mut String {
        self.families.entry(metric.name).or_insert_with(|| {
            format!(
                "# HELP {name} {}\n# TYPE {name} {}\n",
                metric.help,
                metric.kind,
                name = metric.name
            )
        })
    }

    /// Writes one sample line, `name{labels} value`: the metric's own
    /// label first, then `labels`.
    pub fn sample(&mut self, metric: &Metric, labels: &[(&str, &str)], value: u64) {
        self.line(metric, "", labels, None, value);
    }

    /// Writes a full histogram body for one label set: the cumulative
    /// `_bucket` ladder (rungs from [`crate::export_ladder`] plus
    /// `+Inf`), `_sum`, and `_count`. The `le` label comes last on
    /// bucket lines.
    pub fn histogram(&mut self, metric: &Metric, labels: &[(&str, &str)], snapshot: &Snapshot) {
        for rung in crate::export_ladder() {
            let le = rung.to_string();
            self.line(metric, "_bucket", labels, Some(&le), snapshot.cumulative_le(rung));
        }
        self.line(metric, "_bucket", labels, Some("+Inf"), snapshot.count);
        self.line(metric, "_sum", labels, None, snapshot.sum);
        self.line(metric, "_count", labels, None, snapshot.count);
    }

    fn line(
        &mut self,
        metric: &Metric,
        suffix: &str,
        labels: &[(&str, &str)],
        le: Option<&str>,
        value: u64,
    ) {
        let out = self.family(metric);
        out.push_str(metric.name);
        out.push_str(suffix);
        let le = le.map(|le| ("le", le));
        let mut labels = metric.label.iter().chain(labels).chain(&le).peekable();
        if labels.peek().is_some() {
            out.push('{');
            for (i, (key, value)) in labels.enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(key);
                out.push_str("=\"");
                out.push_str(&escape_label(value));
                out.push('"');
            }
            out.push('}');
        }
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }

    /// The finished document: every family block, in name order.
    pub fn finish(self) -> String {
        self.families.into_values().collect()
    }
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    #[test]
    fn renders_families_sorted_and_samples_in_write_order() {
        const X: Metric = counter("systec_x_total", "Test counter.");
        const A: Metric = gauge("systec_a", "Test gauge.");
        let mut w = PromWriter::new();
        w.sample(&X.with("verb", "run"), &[], 3);
        w.sample(&X.with("verb", "ping"), &[("shard", "0")], 1);
        w.family(&A);
        assert_eq!(
            w.finish(),
            "# HELP systec_a Test gauge.\n# TYPE systec_a gauge\n\
             # HELP systec_x_total Test counter.\n# TYPE systec_x_total counter\n\
             systec_x_total{verb=\"run\"} 3\nsystec_x_total{verb=\"ping\",shard=\"0\"} 1\n"
        );
    }

    #[test]
    fn escapes_label_values() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        const LAT: Metric = histogram("systec_lat_ns", "Test histogram.");
        let h = Histogram::new();
        h.record(100); // below the first 255ns rung
        h.record(300); // in (255, 511]
        h.record(u64::MAX); // only counted by +Inf
        let mut w = PromWriter::new();
        w.histogram(&LAT, &[("kernel", "0")], &h.snapshot());
        let text = w.finish();
        assert!(text.contains("systec_lat_ns_bucket{kernel=\"0\",le=\"255\"} 1\n"));
        assert!(text.contains("systec_lat_ns_bucket{kernel=\"0\",le=\"511\"} 2\n"));
        assert!(text.contains("systec_lat_ns_bucket{kernel=\"0\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("systec_lat_ns_count{kernel=\"0\"} 3\n"));
        // Two renders of the same data are byte-identical.
        let mut w2 = PromWriter::new();
        w2.histogram(&LAT, &[("kernel", "0")], &h.snapshot());
        assert_eq!(text, w2.finish());
    }
}
