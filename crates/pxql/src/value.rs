//! Feature values.
//!
//! PXQL predicates compare features against constants.  Features in the
//! PerfXplain data model can be numeric (durations, byte counts, loads),
//! nominal strings (hostnames, Pig script names), booleans (`isSame`
//! features), three-valued comparisons (`LT`/`SIM`/`GT` for `compare`
//! features) or *pairs* of raw values (`diff` features, e.g.
//! `(filter.pig, join.pig)`).  A feature can also be missing for a given pair
//! (e.g. a `compare` feature of a nominal raw feature).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A feature value (or constant) in PXQL.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Missing / not-applicable.
    Null,
    /// Boolean, used by `isSame` features.
    Bool(bool),
    /// Numeric value.
    Num(f64),
    /// Nominal string value, used by `compare` (LT/SIM/GT), base nominal
    /// features and free-form metadata.
    Str(String),
    /// Ordered pair of values, used by `diff` features.
    Pair(Box<Value>, Box<Value>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Builds a pair value.
    pub fn pair(a: Value, b: Value) -> Value {
        Value::Pair(Box::new(a), Box::new(b))
    }

    /// Whether the value is missing.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric payload, if the value is numeric.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String payload, if the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether two values are equal for the purpose of PXQL `=` / `!=`.
    ///
    /// Missing values are never equal to anything, including other missing
    /// values (SQL-like semantics).  Numbers compare with a small relative
    /// tolerance so that round-tripping through text does not break equality.
    pub fn pxql_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => false,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => {
                (a - b).abs() <= f64::EPSILON * a.abs().max(b.abs()).max(1.0)
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Pair(a1, a2), Value::Pair(b1, b2)) => a1.pxql_eq(b1) && a2.pxql_eq(b2),
            // Booleans written as T / F strings compare equal to booleans, so
            // that textual queries like `jobid_isSame = T` work naturally.
            (Value::Bool(a), Value::Str(s)) | (Value::Str(s), Value::Bool(a)) => {
                let (short, long) = if *a { ("T", "TRUE") } else { ("F", "FALSE") };
                s.eq_ignore_ascii_case(short) || s.eq_ignore_ascii_case(long)
            }
            _ => false,
        }
    }

    /// Ordering between two values for `<`, `<=`, `>`, `>=`.
    ///
    /// Only defined between two numbers; everything else (including any
    /// missing value) is incomparable and makes the containing atom evaluate
    /// to `false`.
    pub fn pxql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Num(a), Value::Num(b)) => a.partial_cmp(b),
            _ => None,
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Num(v as f64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// The PXQL keywords, which a string must not render bare (in any case).
const KEYWORDS: [&str; 9] = [
    "FOR", "WHERE", "DESPITE", "OBSERVED", "EXPECTED", "BECAUSE", "AND", "TRUE", "NULL",
];

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(true) => write!(f, "T"),
            Value::Bool(false) => write!(f, "F"),
            Value::Num(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{}", *v as i64)
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => {
                let is_keyword = KEYWORDS.iter().any(|k| s.eq_ignore_ascii_case(k));
                // Dots are excluded because bare identifiers cannot contain
                // them (they would collide with the `J1.JobID` syntax);
                // script names like `simple-filter.pig` are therefore
                // rendered quoted and re-parse losslessly.
                let bare_safe = !s.is_empty()
                    && !is_keyword
                    && s.chars()
                        .next()
                        .is_some_and(|c| c.is_alphabetic() || c == '_')
                    && s.chars()
                        .all(|c| c.is_alphanumeric() || c == '_' || c == '-');
                if bare_safe {
                    write!(f, "{s}")
                } else {
                    write!(f, "'{}'", s.replace('\'', "''"))
                }
            }
            Value::Pair(a, b) => write!(f, "({a}, {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_never_equal() {
        assert!(!Value::Null.pxql_eq(&Value::Null));
        assert!(!Value::Null.pxql_eq(&Value::Num(1.0)));
        assert!(!Value::Num(1.0).pxql_eq(&Value::Null));
    }

    #[test]
    fn numbers_compare_with_tolerance() {
        assert!(Value::Num(0.1 + 0.2).pxql_eq(&Value::Num(0.3)));
        assert!(!Value::Num(1.0).pxql_eq(&Value::Num(1.001)));
        assert_eq!(
            Value::Num(1.0).pxql_cmp(&Value::Num(2.0)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn bool_and_tf_strings_interoperate() {
        assert!(Value::Bool(true).pxql_eq(&Value::str("T")));
        assert!(Value::Bool(false).pxql_eq(&Value::str("F")));
        assert!(Value::Bool(true).pxql_eq(&Value::str("true")));
        assert!(!Value::Bool(true).pxql_eq(&Value::str("F")));
    }

    #[test]
    fn ordering_undefined_for_non_numbers() {
        assert_eq!(Value::str("a").pxql_cmp(&Value::str("b")), None);
        assert_eq!(Value::Null.pxql_cmp(&Value::Num(1.0)), None);
        assert_eq!(Value::Bool(true).pxql_cmp(&Value::Bool(false)), None);
    }

    #[test]
    fn pairs_compare_componentwise() {
        let a = Value::pair(Value::str("filter.pig"), Value::str("join.pig"));
        let b = Value::pair(Value::str("filter.pig"), Value::str("join.pig"));
        let c = Value::pair(Value::str("filter.pig"), Value::str("group.pig"));
        assert!(a.pxql_eq(&b));
        assert!(!a.pxql_eq(&c));
    }

    #[test]
    fn display_round_trip_friendly() {
        assert_eq!(Value::Num(128.0).to_string(), "128");
        assert_eq!(Value::Num(1.5).to_string(), "1.5");
        assert_eq!(Value::Bool(true).to_string(), "T");
        assert_eq!(Value::str("filter_pig").to_string(), "filter_pig");
        // Dots and whitespace force quoting so the text re-parses losslessly.
        assert_eq!(Value::str("filter.pig").to_string(), "'filter.pig'");
        assert_eq!(Value::str("has space").to_string(), "'has space'");
        assert_eq!(Value::str("AND").to_string(), "'AND'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(
            Value::pair(Value::str("a"), Value::str("b")).to_string(),
            "(a, b)"
        );
    }

    #[test]
    fn keywords_in_any_case_render_quoted_and_reparse_as_strings() {
        for word in ["Despite", "nuLL", "and", "TRUE", "wHeRe"] {
            let text = Value::str(word).to_string();
            assert_eq!(text, format!("'{word}'"));
            let predicate = crate::parse_predicate(&format!("f = {text}")).unwrap();
            assert_eq!(predicate.atoms()[0].constant, Value::str(word));
        }
        assert_eq!(Value::str("Despiteful").to_string(), "Despiteful");
        assert!(Value::Bool(true).pxql_eq(&Value::str("tRuE")));
        assert!(Value::str("fAlSe").pxql_eq(&Value::Bool(false)));
        assert!(Value::Bool(false).pxql_eq(&Value::str("f")));
        assert!(!Value::Bool(false).pxql_eq(&Value::str("tRuE")));
        assert!(!Value::Bool(true).pxql_eq(&Value::str("tr")));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Num(3.0));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::str("x"));
    }
}
