//! Result assembly and the minimal JSON the benchmark prints.

use std::fmt::Write as _;

/// A JSON value (just what the result and report lines need).
#[derive(Debug, Clone)]
pub enum Json {
    /// A number; non-finite values print as `null`.
    Num(f64),
    /// An integer.
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An object with keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Str(s) => {
                out.push('"');
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
                out.push('"');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Space-separated figures for the report line.
pub fn list(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// An ordered set of named, unit-carrying figures.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Adds one figure.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// Value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| *n == name).map(|m| m.1)
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|&(name, value, unit)| {
                    (
                        name.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(value)),
                            ("unit".into(), Json::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Free-form facts printed on the report line: work counts, host facts,
/// percentile labels.
#[derive(Debug, Default, Clone)]
pub struct Facts(pub Vec<(String, Json)>);

impl Facts {
    /// Adds a number.
    pub fn num(&mut self, key: &str, v: f64) {
        self.0.push((key.into(), Json::Num(v)));
    }

    /// Adds an integer.
    pub fn int(&mut self, key: &str, v: u64) {
        self.0.push((key.into(), Json::Int(v)));
    }

    /// Adds a string.
    pub fn text(&mut self, key: &str, v: impl Into<String>) {
        self.0.push((key.into(), Json::Str(v.into())));
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Rounds the run attempted.
    pub attempted: u64,
    /// Rounds that failed, were refused or timed out; every round when an
    /// output check failed.
    pub failed: u64,
    /// Output and steady-work check failures, in words.
    pub check_failures: Vec<String>,
    /// End-to-end figures (untraced runs).
    pub end_to_end: Metrics,
    /// Per-layer figures (traced runs).
    pub per_layer: Metrics,
    /// Work counts and other facts for the report line.
    pub facts: Facts,
}

impl Outcome {
    /// Records an output-check result.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// `true` when every check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_result_shape() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.put("nan", f64::NAN, "ms");
        let j = Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            ("attempted".into(), Json::Int(3)),
            ("metrics".into(), m.to_json()),
            ("why".into(), Json::Str("a \"q\"\n".into())),
        ]);
        assert_eq!(
            j.render(),
            r#"{"correct":true,"attempted":3,"metrics":{"latency_ms":{"value":1.25,"unit":"ms"},"nan":{"value":null,"unit":"ms"}},"why":"a \"q\"\u000a"}"#
        );
    }
}
