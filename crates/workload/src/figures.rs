//! Serializable figure data: what `repro` prints and EXPERIMENTS.md
//! quotes. Kept in `workload` so benches, tests and the harness share
//! one representation.

use netsim::LatencySummary;
use serde::{Deserialize, Serialize};

/// One bar of a latency figure (Figure 2 style): a trimmed mean with
/// min/max whiskers.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Bar {
    /// Bar label (e.g. "cellular-mobile" or a deployment name).
    pub label: String,
    /// Bar height: mean over the 8th–92nd percentile band, ms.
    pub mean_ms: f64,
    /// Lower whisker, ms.
    pub min_ms: f64,
    /// Upper whisker, ms.
    pub max_ms: f64,
    /// Number of samples behind the bar.
    pub samples: usize,
}

impl Bar {
    /// Builds a bar from a summary.
    pub fn from_summary(label: impl Into<String>, s: &LatencySummary) -> Self {
        Bar {
            label: label.into(),
            mean_ms: s.trimmed_mean_ms,
            min_ms: s.min_ms,
            max_ms: s.max_ms,
            samples: s.samples,
        }
    }
}

/// One bar of Figure 5: total latency decomposed into the wireless
/// component and everything behind the P-GW.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct StackedBar {
    /// Deployment label, as in Figure 5.
    pub label: String,
    /// Mean total lookup latency, ms.
    pub total_ms: f64,
    /// Mean wireless (UE ↔ P-GW) component, ms.
    pub wireless_ms: f64,
    /// Mean resolver-side component, ms.
    pub resolver_ms: f64,
    /// Lower whisker of the total, ms.
    pub min_ms: f64,
    /// Upper whisker of the total, ms.
    pub max_ms: f64,
    /// Number of samples.
    pub samples: usize,
}

/// A whole figure: a name plus its bars, with free-form annotations
/// (e.g. the "9x" headline ratio) for the harness to print.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct Figure {
    /// Figure identifier ("fig2", "fig5", …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Simple bars (Figure 2 style); empty for stacked figures.
    #[serde(default)]
    pub bars: Vec<Bar>,
    /// Stacked bars (Figure 5 style); empty for simple figures.
    #[serde(default)]
    pub stacked: Vec<StackedBar>,
    /// (key, value) annotations such as headline ratios.
    #[serde(default)]
    pub notes: Vec<(String, f64)>,
}

impl Figure {
    /// A new empty figure.
    pub fn new(id: &str, title: &str) -> Self {
        Figure {
            id: id.to_string(),
            title: title.to_string(),
            ..Figure::default()
        }
    }

    /// Renders an ASCII table of the figure, one row per bar.
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        if !self.bars.is_empty() {
            out.push_str(&format!(
                "{:<42} {:>10} {:>10} {:>10} {:>8}\n",
                "bar", "mean(ms)", "min(ms)", "max(ms)", "n"
            ));
            for b in &self.bars {
                out.push_str(&format!(
                    "{:<42} {:>10.1} {:>10.1} {:>10.1} {:>8}\n",
                    b.label, b.mean_ms, b.min_ms, b.max_ms, b.samples
                ));
            }
        }
        if !self.stacked.is_empty() {
            out.push_str(&format!(
                "{:<34} {:>10} {:>12} {:>12} {:>9} {:>9} {:>6}\n",
                "deployment",
                "total(ms)",
                "wireless(ms)",
                "resolver(ms)",
                "min(ms)",
                "max(ms)",
                "n"
            ));
            for b in &self.stacked {
                out.push_str(&format!(
                    "{:<34} {:>10.1} {:>12.1} {:>12.1} {:>9.1} {:>9.1} {:>6}\n",
                    b.label,
                    b.total_ms,
                    b.wireless_ms,
                    b.resolver_ms,
                    b.min_ms,
                    b.max_ms,
                    b.samples
                ));
            }
        }
        for (k, v) in &self.notes {
            out.push_str(&format!("note: {k} = {v:.2}\n"));
        }
        out
    }
}

/// A categorical-distribution figure (Figure 3 style): per bar, the
/// percentage of answers that fell in each provider pool.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct DistributionFigure {
    /// Figure identifier.
    pub id: String,
    /// Human title.
    pub title: String,
    /// (bar label, Vec<(pool label, percent)>).
    pub bars: Vec<(String, Vec<(String, f64)>)>,
}

impl DistributionFigure {
    /// Renders an ASCII view, one line per bar.
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        for (label, dist) in &self.bars {
            out.push_str(&format!("{label:<18}"));
            for (pool, pct) in dist {
                out.push_str(&format!(" {pool}={pct:.0}%"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Samples;

    #[test]
    fn bar_from_summary() {
        let mut s = Samples::new();
        for v in [10.0, 11.0, 12.0, 100.0] {
            s.record_ms(v);
        }
        let b = Bar::from_summary("wired-campus", &s.summarize().unwrap());
        assert_eq!(b.samples, 4);
        assert_eq!(b.max_ms, 100.0);
        assert!(b.mean_ms < 50.0, "trimming should drop the outlier");
    }

    #[test]
    fn figure_serializes_to_json_and_back() {
        let mut f = Figure::new("fig5", "DNS lookup latency on the LTE testbed");
        f.stacked.push(StackedBar {
            label: "MEC L-DNS w/ MEC C-DNS".into(),
            total_ms: 29.4,
            wireless_ms: 20.0,
            resolver_ms: 9.4,
            min_ms: 25.0,
            max_ms: 35.0,
            samples: 25,
        });
        f.notes.push(("speedup_vs_cloudflare".into(), 9.7));
        let json = serde_json::to_string(&f).unwrap();
        let back: Figure = serde_json::from_str(&json).unwrap();
        assert_eq!(back.stacked[0].total_ms, 29.4);
        assert_eq!(back.notes[0].1, 9.7);
    }

    #[test]
    fn render_contains_rows_and_notes() {
        let mut f = Figure::new("fig2", "lookup latency");
        f.bars.push(Bar {
            label: "cellular-mobile".into(),
            mean_ms: 62.0,
            min_ms: 30.0,
            max_ms: 140.0,
            samples: 25,
        });
        f.notes.push(("spread".into(), 110.0));
        let r = f.render();
        assert!(r.contains("cellular-mobile"));
        assert!(r.contains("62.0"));
        assert!(r.contains("spread"));
    }

    #[test]
    fn distribution_renders_percentages() {
        let d = DistributionFigure {
            id: "fig3a".into(),
            title: "Airbnb".into(),
            bars: vec![(
                "cellular-mobile".into(),
                vec![("Fastly 199.232.0.0/16".into(), 65.0)],
            )],
        };
        let r = d.render();
        assert!(r.contains("65%"));
    }
}
