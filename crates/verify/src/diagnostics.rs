//! Diagnostic types shared by every lint pass: a finding's code, severity,
//! source location, and human-readable message, plus text and JSON renderers
//! so both the CLI and CI can consume lint output.

use qaprox_linalg::json::Json;
use std::fmt;

/// How serious a finding is. Derived from the configured [`LintLevel`] of the
/// finding's code at emission time.
///
/// [`LintLevel`]: crate::config::LintLevel
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: suspicious but not necessarily wrong.
    Warning,
    /// A violated invariant; deny-level findings fail the build.
    Error,
}

impl Severity {
    /// Lowercase name used by both renderers.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the analyzed object a finding points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Location {
    /// The whole object (circuit, channel, model) rather than one element.
    Global,
    /// Instruction at this index in program order.
    Instruction(usize),
    /// A specific qubit.
    Qubit(usize),
    /// A specific classical bit.
    Clbit(usize),
    /// A coupling-map edge.
    Edge(usize, usize),
    /// Kraus operator at this index within a channel.
    Kraus(usize),
    /// A row of a stochastic (confusion) matrix.
    Row(usize),
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Global => write!(f, "global"),
            Location::Instruction(i) => write!(f, "instruction {i}"),
            Location::Qubit(q) => write!(f, "qubit {q}"),
            Location::Clbit(c) => write!(f, "clbit {c}"),
            Location::Edge(a, b) => write!(f, "edge ({a}, {b})"),
            Location::Kraus(k) => write!(f, "kraus operator {k}"),
            Location::Row(r) => write!(f, "row {r}"),
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable lint code, e.g. `"QA101"`.
    pub code: &'static str,
    /// Error or warning, per the active [`LintConfig`].
    ///
    /// [`LintConfig`]: crate::config::LintConfig
    pub severity: Severity,
    /// What the finding points at.
    pub location: Location,
    /// Human-readable explanation with the offending values inlined.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} ({})",
            self.severity, self.code, self.message, self.location
        )
    }
}

/// Version stamped into every JSON report so CI consumers can pin the
/// format. Bump when the JSON shape changes incompatibly.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// An ordered collection of findings from one or more lint passes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// The findings, in emission order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Wraps a list of findings.
    pub fn from_diagnostics(diagnostics: Vec<Diagnostic>) -> Self {
        Report { diagnostics }
    }

    /// Appends another pass's findings.
    pub fn extend(&mut self, more: Report) {
        self.diagnostics.extend(more.diagnostics);
    }

    /// True when no findings were emitted at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one finding is deny-level.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Renders one line per finding plus a trailing summary line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.error_count(),
            self.warning_count()
        ));
        out
    }

    /// The report as a JSON object: `{"schema_version": V, "errors": N,
    /// "warnings": N, "diagnostics": [{"code", "severity", "location",
    /// "message"}, ...]}`.
    pub fn to_json_value(&self) -> Json {
        let diagnostics = self
            .diagnostics
            .iter()
            .map(|d| {
                Json::obj(vec![
                    ("code", Json::Str(d.code.to_string())),
                    ("severity", Json::Str(d.severity.as_str().to_string())),
                    ("location", Json::Str(d.location.to_string())),
                    ("message", Json::Str(d.message.clone())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema_version", Json::Num(REPORT_SCHEMA_VERSION.into())),
            ("errors", Json::Num(self.error_count() as f64)),
            ("warnings", Json::Num(self.warning_count() as f64)),
            ("diagnostics", Json::Arr(diagnostics)),
        ])
    }

    /// [`Report::to_json_value`] as one line of JSON text.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report::from_diagnostics(vec![
            Diagnostic {
                code: "QA101",
                severity: Severity::Error,
                location: Location::Instruction(3),
                message: "qubit 9 out of range for 2-qubit circuit".into(),
            },
            Diagnostic {
                code: "QA107",
                severity: Severity::Warning,
                location: Location::Instruction(5),
                message: "gate cancels with instruction 6".into(),
            },
        ])
    }

    #[test]
    fn counts_and_flags() {
        let r = sample();
        assert!(!r.is_clean());
        assert!(r.has_errors());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
    }

    #[test]
    fn text_rendering_mentions_code_and_location() {
        let text = sample().to_text();
        assert!(text.contains("error[QA101]"));
        assert!(text.contains("instruction 3"));
        assert!(text.contains("1 error(s), 1 warning(s)"));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"schema_version\":1"));
        assert!(json.contains("\"errors\":1"));
        assert!(json.contains("\"code\":\"QA101\""));
        // no raw newlines or unescaped quotes inside
        assert!(!json.contains('\n'));
    }

    #[test]
    fn empty_report_is_clean() {
        let r = Report::new();
        assert!(r.is_clean());
        assert!(!r.has_errors());
        assert!(r.to_json().contains("\"diagnostics\":[]"));
    }
}
