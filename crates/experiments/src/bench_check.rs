//! `fasea-exp check-bench` — schema gate for the committed
//! `BENCH_*.json` files.
//!
//! Every bench in `crates/bench/benches/` can emit a machine-readable
//! result table via `FASEA_BENCH_JSON`; the repository commits those
//! tables (`BENCH_scoring.json`, `BENCH_wal.json`, `BENCH_serve.json`,
//! …) as the record of the measured numbers. This module validates
//! that each file still parses and keeps the shared shape, so a bench
//! edit that drifts the output format fails `scripts/check.sh` instead
//! of silently producing an unreadable artefact:
//!
//! * the top level is a JSON object with a string `"bench"`, a string
//!   `"units"`, and a non-empty `"cells"` array;
//! * every cell is an object whose values are strings, finite numbers,
//!   booleans, or `null` — no nested containers, so any CSV/tooling
//!   consumer can flatten a cell without recursion.
//!
//! The parser is a ~100-line recursive-descent reader over `str` —
//! deliberately std-only, matching the workspace's no-new-dependencies
//! rule, and strict enough for the gate (it rejects trailing input,
//! unknown escapes it cannot decode, and non-finite numbers).

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// A parsed JSON value. Only what the bench files need.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (the bench writers never emit NaN/inf).
    Number(f64),
    /// A string with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, key-ordered for deterministic error messages.
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Number(_) => "number",
            Json::String(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }
}

/// A parse failure with the byte offset where it happened.
#[derive(Debug)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, what: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            at: self.pos,
            what: what.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => self.err(format!("unexpected byte 0x{other:02x}")),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected '{word}'"))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Number(n)),
            Ok(_) => self.err(format!("non-finite number '{text}'")),
            Err(_) => self.err(format!("invalid number '{text}'")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'u') => {
                            // \uXXXX — enough for the bench writers,
                            // which never emit surrogate pairs.
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    self.pos += 4;
                                    c
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("unknown escape"),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole UTF-8 scalar, not just one byte.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| JsonError {
                            at: self.pos,
                            what: "invalid UTF-8 in string".into(),
                        })?;
                    let c = rest.chars().next().expect("non-empty checked above");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses a complete JSON document; trailing non-whitespace is an
/// error.
///
/// # Errors
/// [`JsonError`] with the byte offset of the first problem.
pub fn parse_json(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing data after document");
    }
    Ok(value)
}

/// Validates one bench-result document against the shared schema.
///
/// # Errors
/// A human-readable description of the first violation.
pub fn check_bench_doc(doc: &Json) -> Result<(), String> {
    let Json::Object(top) = doc else {
        return Err(format!(
            "top level must be an object, got {}",
            doc.type_name()
        ));
    };
    for key in ["bench", "units"] {
        match top.get(key) {
            Some(Json::String(s)) if !s.is_empty() => {}
            Some(other) => {
                return Err(format!(
                    "\"{key}\" must be a non-empty string, got {}",
                    other.type_name()
                ))
            }
            None => return Err(format!("missing required key \"{key}\"")),
        }
    }
    let cells = match top.get("cells") {
        Some(Json::Array(cells)) => cells,
        Some(other) => {
            return Err(format!(
                "\"cells\" must be an array, got {}",
                other.type_name()
            ))
        }
        None => return Err("missing required key \"cells\"".into()),
    };
    if cells.is_empty() {
        return Err("\"cells\" must not be empty".into());
    }
    // Optional metadata: benches whose numbers depend on available
    // parallelism (e.g. shard_scaling) record the host's core count so
    // the committed table is interpretable — when present it must be a
    // positive number.
    if let Some(host_cores) = top.get("host_cores") {
        match host_cores {
            Json::Number(n) if *n > 0.0 => {}
            other => {
                return Err(format!(
                    "\"host_cores\" must be a positive number when present, got {}",
                    match other {
                        Json::Number(n) => format!("{n}"),
                        other => other.type_name().to_string(),
                    }
                ))
            }
        }
    }
    for (i, cell) in cells.iter().enumerate() {
        let Json::Object(fields) = cell else {
            return Err(format!(
                "cells[{i}] must be an object, got {}",
                cell.type_name()
            ));
        };
        if fields.is_empty() {
            return Err(format!("cells[{i}] must not be empty"));
        }
        for (key, value) in fields {
            match value {
                Json::Null | Json::Bool(_) | Json::Number(_) | Json::String(_) => {}
                nested => {
                    return Err(format!(
                        "cells[{i}].{key} must be a scalar or null, got {}",
                        nested.type_name()
                    ))
                }
            }
        }
    }
    check_single_core_speedups(top, cells)?;
    check_required_keys(top, cells)
}

/// A speedup above 1× measured on a single-core host cannot come from
/// parallel execution — it is timer noise, queueing-artefact, or a
/// config error — so a table claiming one on `host_cores: 1` must also
/// carry a top-level `"caveat"` string explaining the number, or the
/// gate rejects it. Applies to `parallel_speedup` and every
/// `speedup_vs_*` cell field.
fn check_single_core_speedups(top: &BTreeMap<String, Json>, cells: &[Json]) -> Result<(), String> {
    if !matches!(top.get("host_cores"), Some(Json::Number(n)) if *n == 1.0) {
        return Ok(());
    }
    let has_caveat = matches!(top.get("caveat"), Some(Json::String(s)) if !s.is_empty());
    for (i, cell) in cells.iter().enumerate() {
        let Json::Object(fields) = cell else {
            unreachable!("cell shape checked by the shared schema");
        };
        for (key, value) in fields {
            let is_speedup = key == "parallel_speedup" || key.starts_with("speedup_vs_");
            if !is_speedup {
                continue;
            }
            if let Json::Number(n) = value {
                if *n > 1.0 && !has_caveat {
                    return Err(format!(
                        "cells[{i}].{key} claims a {n}x speedup on a single-core host \
                         (host_cores: 1); add a top-level \"caveat\" string explaining \
                         the number or re-measure on a multi-core host"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// What a bench-specific required cell key must hold.
#[derive(Clone, Copy)]
enum Required {
    NonEmptyString,
    Positive,
    NonNegative,
}

/// Bench-specific schema: `(bench, cell key, what it must hold)`. Every
/// cell of a listed bench must carry each of its keys, and the file
/// must record `host_cores`.
///
/// * `oracle_compare` — latency numbers comparing oracles are only
///   interpretable when each row names the oracle and the instance
///   size and carries a throughput.
/// * `models_residency` — residency numbers are only interpretable when
///   each cell says which tiering mode produced them: the cohort count
///   (`0` = flat), the per-user state representation, the sketch rank,
///   and how many selections the cohort tier actually served.
const REQUIRED_CELL_KEYS: &[(&str, &str, Required)] = &[
    ("oracle_compare", "oracle", Required::NonEmptyString),
    ("oracle_compare", "num_events", Required::Positive),
    ("oracle_compare", "rounds_per_sec", Required::Positive),
    ("models_residency", "state", Required::NonEmptyString),
    ("models_residency", "cohorts", Required::NonNegative),
    ("models_residency", "sketch_rank", Required::NonNegative),
    ("models_residency", "cohort_hits", Required::NonNegative),
];

fn check_required_keys(top: &BTreeMap<String, Json>, cells: &[Json]) -> Result<(), String> {
    let Some(Json::String(bench)) = top.get("bench") else {
        unreachable!("bench name checked by the shared schema");
    };
    let rules: Vec<_> = REQUIRED_CELL_KEYS
        .iter()
        .filter(|(b, _, _)| b == bench)
        .collect();
    if rules.is_empty() {
        return Ok(());
    }
    if top.get("host_cores").is_none() {
        return Err(format!("{bench}: missing required key \"host_cores\""));
    }
    for (i, cell) in cells.iter().enumerate() {
        let Json::Object(fields) = cell else {
            unreachable!("cell shape checked by the shared schema");
        };
        for &&(_, key, required) in &rules {
            let value = fields
                .get(key)
                .ok_or_else(|| format!("{bench}: cells[{i}] is missing \"{key}\""))?;
            let holds = match (required, value) {
                (Required::NonEmptyString, Json::String(s)) => !s.is_empty(),
                (Required::Positive, Json::Number(n)) => *n > 0.0,
                (Required::NonNegative, Json::Number(n)) => *n >= 0.0,
                _ => false,
            };
            if !holds {
                let got = match value {
                    Json::Number(n) => format!("{n}"),
                    other => other.type_name().to_string(),
                };
                let want = match required {
                    Required::NonEmptyString => "a non-empty string",
                    Required::Positive => "a positive number",
                    Required::NonNegative => "a non-negative number",
                };
                return Err(format!(
                    "{bench}: cells[{i}].{key} must be {want}, got {got}"
                ));
            }
        }
    }
    Ok(())
}

/// Reads and validates one `BENCH_*.json` file.
///
/// # Errors
/// I/O, parse, or schema failures, prefixed with the file name.
pub fn check_bench_file(path: &Path) -> Result<(), String> {
    let name = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{name}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{name}: {e}"))?;
    check_bench_doc(&doc).map_err(|e| format!("{name}: {e}"))
}

/// `fasea-exp check-bench [FILE...]`: validates the given files, or —
/// with no arguments — every `BENCH_*.json` in the current directory.
///
/// # Errors
/// The first failing file's diagnostic, or a note that no files were
/// found (an empty gate would pass vacuously forever).
pub fn check_bench_main(args: &[String]) -> Result<(), String> {
    let files: Vec<std::path::PathBuf> = if args.is_empty() {
        let mut found: Vec<_> = std::fs::read_dir(".")
            .map_err(|e| format!("read current directory: {e}"))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name().is_some_and(|n| {
                    let n = n.to_string_lossy();
                    n.starts_with("BENCH_") && n.ends_with(".json")
                })
            })
            .collect();
        found.sort();
        found
    } else {
        args.iter().map(std::path::PathBuf::from).collect()
    };
    if files.is_empty() {
        return Err("no BENCH_*.json files found — nothing to check".into());
    }
    for file in &files {
        check_bench_file(file)?;
        println!("check-bench OK: {}", file.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(text: &str) -> Json {
        parse_json(text).unwrap()
    }

    #[test]
    fn parses_scalars_arrays_and_objects() {
        assert_eq!(obj("null"), Json::Null);
        assert_eq!(obj(" true "), Json::Bool(true));
        assert_eq!(obj("-12.5e1"), Json::Number(-125.0));
        assert_eq!(obj(r#""a\nbé""#), Json::String("a\nbé".into()));
        assert_eq!(
            obj(r#"[1, "x", null]"#),
            Json::Array(vec![
                Json::Number(1.0),
                Json::String("x".into()),
                Json::Null
            ])
        );
        let Json::Object(map) = obj(r#"{"a": 1, "b": [true]}"#) else {
            panic!("not an object");
        };
        assert_eq!(map.get("a"), Some(&Json::Number(1.0)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "1 2",
            "nul",
            "\"open",
            "1e999",
        ] {
            assert!(parse_json(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn accepts_the_bench_writers_shape() {
        let doc = obj(r#"{
              "bench": "wal_append", "units": "ns_per_round", "host_cores": 1,
              "caveat": "single-core host: speedups reflect fewer fsyncs, not parallelism",
              "cells": [
                {"mode": "direct", "policy": "always", "batch": null, "round_ns": 450921.4,
                 "speedup_vs_direct_always": null},
                {"mode": "group", "policy": "always", "batch": 8, "round_ns": 125000.0,
                 "speedup_vs_direct_always": 3.60}
              ]
            }"#);
        check_bench_doc(&doc).unwrap();
    }

    #[test]
    fn oracle_compare_schema_is_enforced() {
        let good = obj(r#"{
              "bench": "oracle_compare", "units": "rounds_per_sec", "host_cores": 4,
              "cells": [
                {"oracle": "greedy", "num_events": 500, "rounds_per_sec": 400000.0,
                 "attendance": 4.998, "arranged": 5},
                {"oracle": "tabu-max", "num_events": 500, "rounds_per_sec": 35000.0,
                 "attendance": 4.998, "arranged": 5}
              ]
            }"#);
        check_bench_doc(&good).unwrap();

        let cases = [
            // host_cores is required for this bench, not just optional.
            (
                r#"{"bench": "oracle_compare", "units": "rounds_per_sec",
                    "cells": [{"oracle": "greedy", "num_events": 500, "rounds_per_sec": 1.0}]}"#,
                "host_cores",
            ),
            // Every cell must name its oracle.
            (
                r#"{"bench": "oracle_compare", "units": "rounds_per_sec", "host_cores": 1,
                    "cells": [{"num_events": 500, "rounds_per_sec": 1.0}]}"#,
                "oracle",
            ),
            // Throughput must be a positive number.
            (
                r#"{"bench": "oracle_compare", "units": "rounds_per_sec", "host_cores": 1,
                    "cells": [{"oracle": "greedy", "num_events": 500, "rounds_per_sec": 0}]}"#,
                "rounds_per_sec",
            ),
            // The instance size must be present.
            (
                r#"{"bench": "oracle_compare", "units": "rounds_per_sec", "host_cores": 1,
                    "cells": [{"oracle": "greedy", "rounds_per_sec": 1.0}]}"#,
                "num_events",
            ),
        ];
        for (text, needle) in cases {
            let err = check_bench_doc(&obj(text)).unwrap_err();
            assert!(err.contains(needle), "{err} should mention {needle}");
        }
    }

    #[test]
    fn models_residency_schema_is_enforced() {
        let good = obj(r#"{
              "bench": "models_residency", "units": "rounds_per_sec", "host_cores": 4,
              "cells": [
                {"users": 100000, "budget_mb": 0, "cohorts": 0, "state": "exact",
                 "sketch_rank": 0, "cohort_hits": 0, "rounds_per_sec": 50000.0},
                {"users": 100000, "budget_mb": 64, "cohorts": 256, "state": "sketched",
                 "sketch_rank": 4, "cohort_hits": 81234, "rounds_per_sec": 61000.0}
              ]
            }"#);
        check_bench_doc(&good).unwrap();

        let cases = [
            // host_cores is required for this bench, not just optional.
            (
                r#"{"bench": "models_residency", "units": "rounds_per_sec",
                    "cells": [{"cohorts": 0, "state": "exact", "sketch_rank": 0,
                               "cohort_hits": 0}]}"#,
                "host_cores",
            ),
            // Every cell must say which state representation produced it.
            (
                r#"{"bench": "models_residency", "units": "rounds_per_sec", "host_cores": 1,
                    "cells": [{"cohorts": 0, "sketch_rank": 0, "cohort_hits": 0}]}"#,
                "state",
            ),
            // state must be a non-empty string.
            (
                r#"{"bench": "models_residency", "units": "rounds_per_sec", "host_cores": 1,
                    "cells": [{"cohorts": 0, "state": "", "sketch_rank": 0,
                               "cohort_hits": 0}]}"#,
                "state",
            ),
            // The cohort count must be present (0 is the flat chain).
            (
                r#"{"bench": "models_residency", "units": "rounds_per_sec", "host_cores": 1,
                    "cells": [{"state": "exact", "sketch_rank": 0, "cohort_hits": 0}]}"#,
                "cohorts",
            ),
            // Numbers must be non-negative.
            (
                r#"{"bench": "models_residency", "units": "rounds_per_sec", "host_cores": 1,
                    "cells": [{"cohorts": -1, "state": "exact", "sketch_rank": 0,
                               "cohort_hits": 0}]}"#,
                "cohorts",
            ),
            (
                r#"{"bench": "models_residency", "units": "rounds_per_sec", "host_cores": 1,
                    "cells": [{"cohorts": 0, "state": "exact", "cohort_hits": 0}]}"#,
                "sketch_rank",
            ),
            (
                r#"{"bench": "models_residency", "units": "rounds_per_sec", "host_cores": 1,
                    "cells": [{"cohorts": 0, "state": "exact", "sketch_rank": 0}]}"#,
                "cohort_hits",
            ),
        ];
        for (text, needle) in cases {
            let err = check_bench_doc(&obj(text)).unwrap_err();
            assert!(err.contains(needle), "{err} should mention {needle}");
        }
    }

    #[test]
    fn the_committed_models_table_passes() {
        // The repo commits BENCH_models.json at the workspace root; the
        // gate must accept it (new tier fields included) when present.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_models.json");
        if path.exists() {
            check_bench_file(&path).unwrap();
        }
    }

    #[test]
    fn single_core_speedup_claims_require_a_caveat() {
        // A >1x parallel speedup measured where no parallelism exists
        // must be explained or rejected.
        let bare = r#"{"bench": "x", "units": "y", "host_cores": 1,
            "cells": [{"mode": "group", "speedup_vs_direct_always": 2.19}]}"#;
        let err = check_bench_doc(&obj(bare)).unwrap_err();
        assert!(err.contains("caveat"), "{err}");
        assert!(err.contains("speedup_vs_direct_always"), "{err}");

        let parallel = r#"{"bench": "x", "units": "y", "host_cores": 1,
            "cells": [{"threads": 4, "parallel_speedup": 1.5}]}"#;
        assert!(check_bench_doc(&obj(parallel))
            .unwrap_err()
            .contains("parallel_speedup"));

        // The same table passes once the caveat explains the number.
        let explained = r#"{"bench": "x", "units": "y", "host_cores": 1,
            "caveat": "speedup reflects fewer fsyncs per round, not parallel execution",
            "cells": [{"mode": "group", "speedup_vs_direct_always": 2.19}]}"#;
        check_bench_doc(&obj(explained)).unwrap();

        // An empty caveat is no caveat.
        let empty = r#"{"bench": "x", "units": "y", "host_cores": 1, "caveat": "",
            "cells": [{"mode": "group", "speedup_vs_direct_always": 2.19}]}"#;
        assert!(check_bench_doc(&obj(empty)).is_err());

        // Sub-1x ratios, null entries, and multi-core hosts are all fine
        // without a caveat.
        for ok in [
            r#"{"bench": "x", "units": "y", "host_cores": 1,
                "cells": [{"parallel_speedup": 0.97}, {"speedup_vs_serial": null}]}"#,
            r#"{"bench": "x", "units": "y", "host_cores": 8,
                "cells": [{"parallel_speedup": 6.4}]}"#,
            r#"{"bench": "x", "units": "y",
                "cells": [{"parallel_speedup": 3.0}]}"#,
        ] {
            check_bench_doc(&obj(ok)).unwrap();
        }
    }

    #[test]
    fn the_committed_oracle_table_passes() {
        // The repo commits BENCH_oracle.json at the workspace root; the
        // gate must accept it as long as it is present.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_oracle.json");
        if path.exists() {
            check_bench_file(&path).unwrap();
        }
    }

    #[test]
    fn rejects_schema_violations() {
        let cases = [
            (r#"[1]"#, "top level"),
            (r#"{"units": "x", "cells": [{"a": 1}]}"#, "\"bench\""),
            (r#"{"bench": "x", "cells": [{"a": 1}]}"#, "\"units\""),
            (r#"{"bench": "x", "units": "y"}"#, "\"cells\""),
            (r#"{"bench": "x", "units": "y", "cells": []}"#, "empty"),
            (r#"{"bench": "x", "units": "y", "cells": [7]}"#, "cells[0]"),
            (
                r#"{"bench": "x", "units": "y", "cells": [{"a": [1]}]}"#,
                "scalar",
            ),
            (
                r#"{"bench": "x", "units": "y", "host_cores": 0, "cells": [{"a": 1}]}"#,
                "\"host_cores\"",
            ),
            (
                r#"{"bench": "x", "units": "y", "host_cores": "8", "cells": [{"a": 1}]}"#,
                "\"host_cores\"",
            ),
        ];
        for (text, needle) in cases {
            let err = check_bench_doc(&obj(text)).unwrap_err();
            assert!(err.contains(needle), "error {err:?} missing {needle:?}");
        }
    }
}
