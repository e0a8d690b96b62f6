//! Hand-rolled JSON (de)serialization for assessment provenance.
//!
//! The workspace vendors no serde, so the CLI's `--provenance-json`
//! output and the oracle's round-trip tests share this module: a
//! minimal JSON value type, a recursive-descent parser for it, and a
//! faithful mapping for [`Provenance`] including every structured
//! [`Error`] variant a degradation trip can carry.

use andi_core::{Error, Provenance, Rung};

use crate::error::OracleError;
use crate::instance::json_string;

/// A parsed JSON value. Numbers keep their literal text so integer
/// widths (`u128` spent-times) survive the round trip exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document; trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, OracleError> {
        let bytes: Vec<char> = text.chars().collect();
        let mut pos = 0usize;
        let v = parse_value(&bytes, &mut pos)?;
        skip_ws(&bytes, &mut pos);
        if pos != bytes.len() {
            return Err(OracleError::Parse(format!(
                "trailing characters at offset {pos}"
            )));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The literal text of a number.
    pub fn as_num(&self) -> Option<&str> {
        match self {
            Json::Num(n) => Some(n),
            _ => None,
        }
    }
}

fn skip_ws(b: &[char], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn expect_char(b: &[char], pos: &mut usize, c: char) -> Result<(), OracleError> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(OracleError::Parse(format!(
            "expected '{c}' at offset {}",
            *pos
        )))
    }
}

fn parse_value(b: &[char], pos: &mut usize) -> Result<Json, OracleError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some('{') => parse_object(b, pos),
        Some('[') => parse_array(b, pos),
        Some('"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some('t') => parse_keyword(b, pos, "true", Json::Bool(true)),
        Some('f') => parse_keyword(b, pos, "false", Json::Bool(false)),
        Some('n') => parse_keyword(b, pos, "null", Json::Null),
        Some(c) if *c == '-' || c.is_ascii_digit() => parse_number(b, pos),
        other => Err(OracleError::Parse(format!(
            "unexpected {:?} at offset {}",
            other, *pos
        ))),
    }
}

fn parse_keyword(
    b: &[char],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, OracleError> {
    for expected in word.chars() {
        if b.get(*pos) != Some(&expected) {
            return Err(OracleError::Parse(format!(
                "bad literal at offset {}",
                *pos
            )));
        }
        *pos += 1;
    }
    Ok(value)
}

fn parse_number(b: &[char], pos: &mut usize) -> Result<Json, OracleError> {
    let start = *pos;
    if b.get(*pos) == Some(&'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], '.' | 'e' | 'E' | '+' | '-'))
    {
        *pos += 1;
    }
    let text: String = b[start..*pos].iter().collect();
    if text.parse::<f64>().is_err() {
        return Err(OracleError::Parse(format!("bad number literal {text:?}")));
    }
    Ok(Json::Num(text))
}

fn parse_string(b: &[char], pos: &mut usize) -> Result<String, OracleError> {
    expect_char(b, pos, '"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            '"' => return Ok(out),
            '\\' => {
                let esc = b
                    .get(*pos)
                    .copied()
                    .ok_or_else(|| OracleError::Parse("unterminated escape".into()))?;
                *pos += 1;
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'u' => {
                        if *pos + 4 > b.len() {
                            return Err(OracleError::Parse("short \\u escape".into()));
                        }
                        let hex: String = b[*pos..*pos + 4].iter().collect();
                        *pos += 4;
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| OracleError::Parse(format!("bad \\u escape {hex:?}")))?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(OracleError::Parse(format!("unknown escape \\{other}"))),
                }
            }
            other => out.push(other),
        }
    }
    Err(OracleError::Parse("unterminated string".into()))
}

fn parse_array(b: &[char], pos: &mut usize) -> Result<Json, OracleError> {
    expect_char(b, pos, '[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(',') => *pos += 1,
            Some(']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(OracleError::Parse(format!("bad array at offset {}", *pos))),
        }
    }
}

fn parse_object(b: &[char], pos: &mut usize) -> Result<Json, OracleError> {
    expect_char(b, pos, '{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect_char(b, pos, ':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(',') => *pos += 1,
            Some('}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(OracleError::Parse(format!("bad object at offset {}", *pos))),
        }
    }
}

// ---------------------------------------------------------------------------
// Provenance mapping
// ---------------------------------------------------------------------------

fn rung_name(r: Rung) -> &'static str {
    match r {
        Rung::Exact => "exact-permanent",
        Rung::Sampler => "matching-sampler",
        Rung::OEstimate => "o-estimate",
    }
}

fn rung_from_name(name: &str) -> Result<Rung, OracleError> {
    match name {
        "exact-permanent" => Ok(Rung::Exact),
        "matching-sampler" => Ok(Rung::Sampler),
        "o-estimate" => Ok(Rung::OEstimate),
        other => Err(OracleError::Parse(format!("unknown rung {other:?}"))),
    }
}

/// Serializes a core error as a `{"kind": ...}`-tagged JSON object.
pub fn error_to_json(e: &Error) -> String {
    match e {
        Error::DomainMismatch { expected, got } => {
            format!("{{\"kind\":\"domain-mismatch\",\"expected\":{expected},\"got\":{got}}}")
        }
        Error::InvalidInterval { item, low, high } => format!(
            "{{\"kind\":\"invalid-interval\",\"item\":{item},\"low\":{low},\"high\":{high}}}"
        ),
        Error::InvalidParameter(msg) => format!(
            "{{\"kind\":\"invalid-parameter\",\"message\":{}}}",
            json_string(msg)
        ),
        Error::EmptyMappingSpace => "{\"kind\":\"empty-mapping-space\"}".to_string(),
        Error::TooCostly { price, cap } => {
            format!("{{\"kind\":\"too-costly\",\"price\":{price},\"cap\":{cap}}}")
        }
        Error::Sampler(msg) => {
            format!("{{\"kind\":\"sampler\",\"message\":{}}}", json_string(msg))
        }
        Error::Data(msg) => {
            format!("{{\"kind\":\"data\",\"message\":{}}}", json_string(msg))
        }
        Error::WorkerPanic { task, payload } => format!(
            "{{\"kind\":\"worker-panic\",\"task\":{task},\"payload\":{}}}",
            json_string(payload)
        ),
        Error::BudgetExceeded { budget_ms } => {
            format!("{{\"kind\":\"budget-exceeded\",\"budget_ms\":{budget_ms}}}")
        }
        Error::Cancelled => "{\"kind\":\"cancelled\"}".to_string(),
    }
}

fn num_field<T: std::str::FromStr>(v: &Json, key: &str) -> Result<T, OracleError> {
    v.get(key)
        .and_then(Json::as_num)
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| OracleError::Parse(format!("missing or bad field {key:?}")))
}

fn str_field(v: &Json, key: &str) -> Result<String, OracleError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| OracleError::Parse(format!("missing or bad field {key:?}")))
}

/// Parses an error object produced by [`error_to_json`].
pub fn error_from_json(v: &Json) -> Result<Error, OracleError> {
    let kind = str_field(v, "kind")?;
    match kind.as_str() {
        "domain-mismatch" => Ok(Error::DomainMismatch {
            expected: num_field(v, "expected")?,
            got: num_field(v, "got")?,
        }),
        "invalid-interval" => Ok(Error::InvalidInterval {
            item: num_field(v, "item")?,
            low: num_field(v, "low")?,
            high: num_field(v, "high")?,
        }),
        "invalid-parameter" => Ok(Error::InvalidParameter(str_field(v, "message")?)),
        "empty-mapping-space" => Ok(Error::EmptyMappingSpace),
        "too-costly" => Ok(Error::TooCostly {
            price: num_field(v, "price")?,
            cap: num_field(v, "cap")?,
        }),
        "sampler" => Ok(Error::Sampler(str_field(v, "message")?)),
        "data" => Ok(Error::Data(str_field(v, "message")?)),
        "worker-panic" => Ok(Error::WorkerPanic {
            task: num_field(v, "task")?,
            payload: str_field(v, "payload")?,
        }),
        "budget-exceeded" => Ok(Error::BudgetExceeded {
            budget_ms: num_field(v, "budget_ms")?,
        }),
        "cancelled" => Ok(Error::Cancelled),
        other => Err(OracleError::Parse(format!("unknown error kind {other:?}"))),
    }
}

/// Serializes a provenance record to a single-line JSON document.
pub fn provenance_to_json(p: &Provenance) -> String {
    let trips: Vec<String> = p
        .trips
        .iter()
        .map(|(rung, err)| {
            format!(
                "{{\"rung\":\"{}\",\"error\":{}}}",
                rung_name(*rung),
                error_to_json(err)
            )
        })
        .collect();
    let budget = match p.budget_ms {
        Some(ms) => ms.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"rung\":\"{}\",\"degraded\":{},\"trips\":[{}],\"budget_ms\":{},\"spent_ms\":{}}}",
        rung_name(p.rung),
        p.degraded,
        trips.join(","),
        budget,
        p.spent_ms
    )
}

/// Parses a provenance record produced by [`provenance_to_json`].
pub fn provenance_from_json(text: &str) -> Result<Provenance, OracleError> {
    let v = Json::parse(text)?;
    let rung = rung_from_name(&str_field(&v, "rung")?)?;
    let degraded = match v.get("degraded") {
        Some(Json::Bool(b)) => *b,
        _ => {
            return Err(OracleError::Parse(
                "missing or bad field \"degraded\"".into(),
            ))
        }
    };
    let trips = match v.get("trips") {
        Some(Json::Arr(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                let trip_rung = rung_from_name(&str_field(item, "rung")?)?;
                let err = item
                    .get("error")
                    .ok_or_else(|| OracleError::Parse("trip without error".into()))?;
                out.push((trip_rung, error_from_json(err)?));
            }
            out
        }
        _ => return Err(OracleError::Parse("missing or bad field \"trips\"".into())),
    };
    let budget_ms = match v.get("budget_ms") {
        Some(Json::Null) => None,
        Some(Json::Num(n)) => Some(
            n.parse()
                .map_err(|_| OracleError::Parse(format!("bad budget_ms literal {n:?}")))?,
        ),
        _ => {
            return Err(OracleError::Parse(
                "missing or bad field \"budget_ms\"".into(),
            ))
        }
    };
    let spent_ms = num_field(&v, "spent_ms")?;
    Ok(Provenance {
        rung,
        degraded,
        trips,
        budget_ms,
        spent_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_errors() -> Vec<Error> {
        vec![
            Error::DomainMismatch {
                expected: 5,
                got: 3,
            },
            Error::InvalidInterval {
                item: 2,
                low: 0.25,
                high: 0.125,
            },
            Error::InvalidParameter("n > MAX_PERMANENT_N".into()),
            Error::EmptyMappingSpace,
            Error::TooCostly {
                price: u64::MAX,
                cap: 1_310_720,
            },
            Error::Sampler("cold chain".into()),
            Error::Data("bad \"fimi\" line".into()),
            Error::WorkerPanic {
                task: 7,
                payload: "boom\nwith newline".into(),
            },
            Error::BudgetExceeded { budget_ms: 250 },
            Error::Cancelled,
        ]
    }

    #[test]
    fn every_error_variant_round_trips() {
        for e in sample_errors() {
            let text = error_to_json(&e);
            let parsed = error_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(parsed, e, "{text}");
        }
    }

    #[test]
    fn provenance_round_trips_with_trips_and_budget() {
        let p = Provenance {
            rung: Rung::OEstimate,
            degraded: true,
            trips: sample_errors()
                .into_iter()
                .map(|e| (Rung::Exact, e))
                .collect(),
            budget_ms: Some(50),
            spent_ms: u128::from(u64::MAX) + 17,
        };
        let text = provenance_to_json(&p);
        assert_eq!(provenance_from_json(&text).unwrap(), p);
    }

    #[test]
    fn provenance_round_trips_without_budget() {
        let p = Provenance {
            rung: Rung::Exact,
            degraded: false,
            trips: Vec::new(),
            budget_ms: None,
            spent_ms: 3,
        };
        let text = provenance_to_json(&p);
        assert!(text.contains("\"budget_ms\":null"), "{text}");
        assert_eq!(provenance_from_json(&text).unwrap(), p);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{}x").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(provenance_from_json("{\"rung\":\"nope\"}").is_err());
        assert!(provenance_from_json("{}").is_err());
    }

    #[test]
    fn json_values_parse_structurally() {
        let v = Json::parse("{\"a\": [1, -2.5e3, true, null], \"b\": \"x\\ny \\u0041\"}").unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num("1".into()),
                Json::Num("-2.5e3".into()),
                Json::Bool(true),
                Json::Null,
            ]))
        );
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\ny A"));
    }
}
