//! Prometheus-style text metrics exposition.
//!
//! [`MetricsPage`] renders the simulator's `wavesim-sim` instruments —
//! counters, gauges, and the power-of-two [`Histogram`] — in the
//! Prometheus text exposition format (`# HELP` / `# TYPE` headers,
//! cumulative `le` buckets, `_sum` / `_count` series). The page is a plain
//! builder: callers append metrics in the order they should appear and the
//! output is exactly that order — deterministic, diffable, scrape-able.
//!
//! Histograms are exported from [`Histogram::nonzero_buckets`], so the
//! bucket boundaries are the instrument's own power-of-two bounds; `_sum`
//! is reconstructed as `mean × count` (exact for the integral cycle
//! samples the simulator records, up to f64 precision).

use wavesim_json::{push_u64, MAX_EXACT_INT};
use wavesim_sim::stats::Histogram;

fn sanitize(name: &str) -> String {
    // Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label *value* per the exposition format: `\`, `"`, and
/// newline become `\\`, `\"`, and `\n`.
fn escape_label(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

/// Escapes `# HELP` / comment text: `\` and newline only — quotes are
/// legal in help text, but a raw newline would terminate the line and
/// leave the remainder as garbage the scraper rejects.
fn escape_help(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

fn fmt_f64(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x.is_infinite() {
        (if x > 0.0 { "+Inf" } else { "-Inf" }).to_string()
    } else if x.fract() == 0.0 && x.abs() < MAX_EXACT_INT {
        // `-0.0` is not below zero, so it prints as `0`.
        let mut s = String::from(if x < 0.0 { "-" } else { "" });
        push_u64(&mut s, x.abs() as u64);
        s
    } else {
        format!("{x}")
    }
}

/// Builder for one Prometheus text exposition page.
#[derive(Debug, Clone, Default)]
pub struct MetricsPage {
    out: String,
}

impl MetricsPage {
    /// An empty page.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        escape_help(&mut self.out, help);
        self.out.push_str("\n# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    /// Appends a free-form `# <text>` comment line (page-level headers).
    /// Backslashes and newlines are escaped so the comment stays one line.
    pub fn comment(&mut self, text: &str) {
        self.out.push_str("# ");
        escape_help(&mut self.out, text);
        self.out.push('\n');
    }

    /// Appends a gauge with string labels, e.g. the `wavesim_run_info`
    /// identity gauge that makes an exported page self-describing. Label
    /// values have `\` and `"` escaped per the exposition format.
    pub fn gauge_labeled(&mut self, name: &str, help: &str, labels: &[(&str, String)], value: f64) {
        let name = sanitize(name);
        self.header(&name, help, "gauge");
        self.out.push_str(&name);
        self.out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push_str(&sanitize(k));
            self.out.push_str("=\"");
            escape_label(&mut self.out, v);
            self.out.push('"');
        }
        self.out.push_str(&format!("}} {}\n", fmt_f64(value)));
    }

    /// Appends a monotonic counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        let name = sanitize(name);
        self.header(&name, help, "counter");
        self.out.push_str(&format!("{name} {value}\n"));
    }

    /// Appends a gauge with a floating-point value.
    pub fn gauge_f64(&mut self, name: &str, help: &str, value: f64) {
        let name = sanitize(name);
        self.header(&name, help, "gauge");
        self.out.push_str(&format!("{name} {}\n", fmt_f64(value)));
    }

    /// Appends a histogram: cumulative `le` buckets from the instrument's
    /// own power-of-two bounds, a `+Inf` bucket, `_sum` (mean × count) and
    /// `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, h: &Histogram) {
        let name = sanitize(name);
        self.header(&name, help, "histogram");
        let mut cumulative = 0u64;
        for (_, hi, count) in h.nonzero_buckets() {
            cumulative += count;
            if hi == u64::MAX {
                continue; // folded into +Inf below
            }
            self.out
                .push_str(&format!("{name}_bucket{{le=\"{hi}\"}} {cumulative}\n"));
        }
        self.out
            .push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
        // Samples are integral cycles, so the true sum is an integer; snap
        // away the Welford-mean rounding noise.
        let sum = h.mean() * h.count() as f64;
        let sum = if (sum - sum.round()).abs() < 1e-6 {
            sum.round()
        } else {
            sum
        };
        self.out.push_str(&format!("{name}_sum {}\n", fmt_f64(sum)));
        self.out.push_str(&format!("{name}_count {}\n", h.count()));
        // Bucket-interpolated percentiles, so readers get the headline
        // quantiles without re-deriving them from the bucket dump.
        self.gauge_f64(
            &format!("{name}_p50"),
            "Bucket-interpolated 50th percentile.",
            h.p50().unwrap_or(0.0),
        );
        self.gauge_f64(
            &format!("{name}_p95"),
            "Bucket-interpolated 95th percentile.",
            h.p95().unwrap_or(0.0),
        );
        self.gauge_f64(
            &format!("{name}_p99"),
            "Bucket-interpolated 99th percentile.",
            h.p99().unwrap_or(0.0),
        );
    }

    /// The rendered exposition text.
    #[must_use]
    pub fn render(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_format() {
        let mut page = MetricsPage::new();
        page.counter("wavesim_messages_sent_total", "Messages injected.", 42);
        page.gauge_f64("wavesim_avg_latency_cycles", "Mean latency.", 17.5);
        for (name, x) in [
            ("neg", -1234.0),
            ("neg_zero", -0.0),
            ("big", 9007199254740991.0),
        ] {
            page.gauge_f64(name, "An integral value.", x);
        }
        let text = page.render();
        for line in ["neg -1234\n", "neg_zero 0\n", "big 9007199254740991\n"] {
            assert!(text.contains(line), "{line}");
        }
        assert!(text.contains("# HELP wavesim_messages_sent_total Messages injected.\n"));
        assert!(text.contains("# TYPE wavesim_messages_sent_total counter\n"));
        assert!(text.contains("\nwavesim_messages_sent_total 42\n") || text.starts_with("# HELP"));
        assert!(text.contains("wavesim_messages_sent_total 42\n"));
        assert!(text.contains("# TYPE wavesim_avg_latency_cycles gauge\n"));
        assert!(text.contains("wavesim_avg_latency_cycles 17.5\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = Histogram::new();
        for x in [1u64, 1, 2, 3, 10, 100] {
            h.record(x);
        }
        let mut page = MetricsPage::new();
        page.histogram("wavesim_latency_cycles", "Latency histogram.", &h);
        let text = page.render();
        // Bucket {0,1} holds 2 samples; {2,3} two more (cumulative 4);
        // {8..15} one more (5); {64..127} the last (6).
        assert!(text.contains("wavesim_latency_cycles_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("wavesim_latency_cycles_bucket{le=\"3\"} 4\n"));
        assert!(text.contains("wavesim_latency_cycles_bucket{le=\"15\"} 5\n"));
        assert!(text.contains("wavesim_latency_cycles_bucket{le=\"127\"} 6\n"));
        assert!(text.contains("wavesim_latency_cycles_bucket{le=\"+Inf\"} 6\n"));
        assert!(text.contains("wavesim_latency_cycles_count 6\n"));
        assert!(text.contains("wavesim_latency_cycles_sum 117\n"));
        assert!(text.contains("# TYPE wavesim_latency_cycles_p50 gauge\n"));
        assert!(text.contains("wavesim_latency_cycles_p99 "));
    }

    #[test]
    fn labeled_gauge_and_comment() {
        let mut page = MetricsPage::new();
        page.comment("wavesim run export");
        page.gauge_labeled(
            "wavesim_run_info",
            "Run identity.",
            &[
                ("protocol", "clrp".to_string()),
                ("topology", "16x16 \"mesh\"".to_string()),
            ],
            1.0,
        );
        let text = page.render();
        assert!(text.starts_with("# wavesim run export\n"));
        assert!(text.contains("# TYPE wavesim_run_info gauge\n"));
        assert!(text
            .contains("wavesim_run_info{protocol=\"clrp\",topology=\"16x16 \\\"mesh\\\"\"} 1\n"));
    }

    /// Inverse of [`escape_label`], for the round-trip test below.
    fn unescape_label(v: &str) -> String {
        let mut out = String::with_capacity(v.len());
        let mut chars = v.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        }
        out
    }

    #[test]
    fn label_escaping_round_trips() {
        let nasty = "a\\b \"quoted\"\nnext \\n literal";
        let mut page = MetricsPage::new();
        page.gauge_labeled(
            "wavesim_run_info",
            "Run identity.",
            &[("label", nasty.to_string())],
            1.0,
        );
        let text = page.render();
        // Every line must stay a single line: no raw newline may survive
        // inside the label value.
        let data_line = text
            .lines()
            .find(|l| l.starts_with("wavesim_run_info{"))
            .expect("gauge line present");
        let start = data_line.find("label=\"").expect("label present") + "label=\"".len();
        let end = data_line.rfind('"').expect("closing quote");
        assert_eq!(unescape_label(&data_line[start..end]), nasty);
    }

    #[test]
    fn help_and_comment_text_is_escaped() {
        let mut page = MetricsPage::new();
        page.comment("line one\nline two \\ slash");
        page.counter("wavesim_total", "multi\nline help", 3);
        let text = page.render();
        assert!(text.contains("# line one\\nline two \\\\ slash\n"));
        assert!(text.contains("# HELP wavesim_total multi\\nline help\n"));
        // Page parses line-by-line: each line is either a comment or
        // `name value` — the embedded newlines must not create orphans.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "orphan line: {line:?}"
            );
        }
    }

    #[test]
    fn empty_histogram_still_well_formed() {
        let mut page = MetricsPage::new();
        page.histogram("wavesim_empty", "Nothing recorded.", &Histogram::new());
        let text = page.render();
        assert!(text.contains("wavesim_empty_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("wavesim_empty_sum 0\n"));
        assert!(text.contains("wavesim_empty_count 0\n"));
    }

    #[test]
    fn bad_names_are_sanitized() {
        let mut page = MetricsPage::new();
        page.counter("2fast×furious", "Sanitized.", 1);
        let text = page.render();
        assert!(text.contains("_fast_furious 1\n"));
    }
}
