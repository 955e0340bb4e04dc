//! Natural-language narration of explanations.
//!
//! The paper motivates PerfXplain with sentences like *"even though the last
//! task processed the same amount of data as the other tasks, it was faster
//! most likely because the overall memory utilization on the machine was
//! lower"*.  This module renders a structured [`Explanation`] into that kind
//! of sentence so that non-expert users do not have to read predicate
//! syntax.  It is presentation only — nothing downstream depends on it.

use crate::explanation::Explanation;
use crate::pairs::{parse_pair_feature, PairFeatureGroup};
use crate::query::BoundQuery;
use pxql::{Atom, Op, Predicate, Value};

/// Turns a raw feature name into readable words
/// (`avg_load_five` → "average load five", `numinstances` → "number of
/// instances").
fn humanize_feature(raw: &str) -> String {
    match raw {
        "numinstances" => "number of instances".to_string(),
        "inputsize" => "input size".to_string(),
        "blocksize" => "DFS block size".to_string(),
        "iosortfactor" => "io.sort.factor".to_string(),
        "numreducetasks" => "number of reduce tasks".to_string(),
        "nummaptasks" => "number of map tasks".to_string(),
        "pigscript" => "Pig script".to_string(),
        "jobid" => "job".to_string(),
        "tracker_name" => "task tracker".to_string(),
        "hostname" => "host".to_string(),
        "duration" => "duration".to_string(),
        other => {
            let pretty = other.replace('_', " ");
            if let Some(rest) = pretty.strip_prefix("avg ") {
                format!("average {rest}")
            } else {
                pretty
            }
        }
    }
}

/// Renders a numeric constant compactly (bytes become MB/GB when large).
fn humanize_number(value: f64) -> String {
    const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    const MB: f64 = 1024.0 * 1024.0;
    if value.abs() >= GB {
        format!("{:.1} GB", value / GB)
    } else if value.abs() >= MB {
        format!("{:.0} MB", value / MB)
    } else if value.fract() == 0.0 {
        format!("{}", value as i64)
    } else {
        format!("{value:.2}")
    }
}

fn humanize_value(value: &Value) -> String {
    match value {
        Value::Num(v) => humanize_number(*v),
        Value::Bool(true) => "the same".to_string(),
        Value::Bool(false) => "different".to_string(),
        Value::Str(s) => s.clone(),
        Value::Pair(a, b) => format!("{} vs {}", humanize_value(a), humanize_value(b)),
        Value::Null => "unknown".to_string(),
    }
}

/// Renders one atomic predicate as a clause fragment.
pub fn narrate_atom(atom: &Atom) -> String {
    let (raw, group) = parse_pair_feature(&atom.feature);
    let feature = humanize_feature(raw);
    match group {
        PairFeatureGroup::IsSame => {
            let same = matches!(atom.constant, Value::Bool(true))
                || atom.constant.pxql_eq(&Value::str("T"));
            let negated = matches!(atom.op, Op::Ne);
            if same != negated {
                format!("the two executions have the same {feature}")
            } else {
                format!("the {feature} differs between the two executions")
            }
        }
        PairFeatureGroup::Compare => {
            let direction = match atom.constant.as_str() {
                Some("GT") => "much greater for the first execution than for the second",
                Some("LT") => "much smaller for the first execution than for the second",
                Some("SIM") => "similar for both executions",
                _ => "in an unusual relation between the two executions",
            };
            format!("the {feature} is {direction}")
        }
        PairFeatureGroup::Diff => {
            format!("the {feature} changed ({})", humanize_value(&atom.constant))
        }
        PairFeatureGroup::Base => {
            let op_words = match atom.op {
                Op::Eq => "is",
                Op::Ne => "is not",
                Op::Lt => "is below",
                Op::Le => "is at most",
                Op::Gt => "is above",
                Op::Ge => "is at least",
            };
            format!(
                "the shared {feature} {op_words} {}",
                humanize_value(&atom.constant)
            )
        }
    }
}

fn narrate_predicate(predicate: &Predicate) -> String {
    if predicate.is_trivial() {
        return "no particular condition holds".to_string();
    }
    let clauses: Vec<String> = predicate.atoms().iter().map(narrate_atom).collect();
    match clauses.len() {
        1 => clauses.into_iter().next().unwrap(),
        2 => format!("{} and {}", clauses[0], clauses[1]),
        _ => {
            let (last, rest) = clauses.split_last().unwrap();
            format!("{}, and {}", rest.join(", "), last)
        }
    }
}

/// What the user observed, phrased from the query's OBSERVED clause.
fn narrate_observation(query: &BoundQuery) -> String {
    let subject = match query.kind {
        crate::record::ExecutionKind::Job => "job",
        crate::record::ExecutionKind::Task => "task",
    };
    for atom in query.query.observed.atoms() {
        let (raw, group) = parse_pair_feature(&atom.feature);
        if group == PairFeatureGroup::Compare {
            let metric = humanize_feature(raw);
            let phrase = match atom.constant.as_str() {
                Some("GT") => format!(
                    "{subject} {} had a much larger {metric} than {subject} {}",
                    query.left_id, query.right_id
                ),
                Some("LT") => format!(
                    "{subject} {} had a much smaller {metric} than {subject} {}",
                    query.left_id, query.right_id
                ),
                Some("SIM") => format!(
                    "{subject}s {} and {} had a similar {metric}",
                    query.left_id, query.right_id
                ),
                _ => continue,
            };
            return phrase;
        }
    }
    format!(
        "{subject}s {} and {} behaved as described by: {}",
        query.left_id, query.right_id, query.query.observed
    )
}

/// Renders a full explanation in the style of the paper's introduction:
/// *"even though …, `<observation>` most likely because …"*.
pub fn narrate(query: &BoundQuery, explanation: &Explanation) -> String {
    let despite = query.query.despite.conjoin(&explanation.despite);
    let observation = narrate_observation(query);
    if explanation.because.is_trivial() {
        return format!("{observation}; no further condition was needed to explain this.");
    }
    if despite.is_trivial() {
        format!(
            "{observation}, most likely because {}.",
            narrate_predicate(&explanation.because)
        )
    } else {
        format!(
            "Even though {}, {}, most likely because {}.",
            narrate_predicate(&despite),
            observation,
            narrate_predicate(&explanation.because)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxql::parse_query;

    fn query() -> BoundQuery {
        BoundQuery::new(
            parse_query(
                "DESPITE inputsize_compare = GT\n\
                 OBSERVED duration_compare = SIM\n\
                 EXPECTED duration_compare = GT",
            )
            .unwrap(),
            "job_big",
            "job_small",
        )
    }

    #[test]
    fn narrates_the_motivating_explanation() {
        let explanation = Explanation::because_only(Predicate::from_atoms(vec![
            Atom::new("blocksize", Op::Ge, 128.0 * 1024.0 * 1024.0),
            Atom::new("numinstances", Op::Ge, 100i64),
        ]));
        let text = narrate(&query(), &explanation);
        assert!(text.starts_with("Even though the input size is much greater"));
        assert!(text.contains("similar duration"));
        assert!(text.contains("DFS block size is at least 128 MB"));
        assert!(text.contains("number of instances is at least 100"));
        assert!(text.ends_with('.'));
    }

    #[test]
    fn narrates_issame_and_compare_atoms() {
        assert_eq!(
            narrate_atom(&Atom::eq("avg_cpu_user_isSame", false)),
            "the average cpu user differs between the two executions"
        );
        assert_eq!(
            narrate_atom(&Atom::eq("hostname_isSame", true)),
            "the two executions have the same host"
        );
        assert_eq!(
            narrate_atom(&Atom::eq("avg_load_five_compare", "GT")),
            "the average load five is much greater for the first execution than for the second"
        );
        let diff = narrate_atom(&Atom::eq(
            "pigscript_diff",
            Value::pair(Value::str("a.pig"), Value::str("b.pig")),
        ));
        assert!(diff.contains("Pig script changed"));
        assert!(diff.contains("a.pig vs b.pig"));
    }

    #[test]
    fn trivial_because_clause_is_handled() {
        let text = narrate(&query(), &Explanation::default());
        assert!(text.contains("no further condition"));
    }

    #[test]
    fn numbers_are_humanized() {
        assert_eq!(humanize_number(64.0 * 1024.0 * 1024.0), "64 MB");
        assert_eq!(humanize_number(2.0 * 1024.0 * 1024.0 * 1024.0), "2.0 GB");
        assert_eq!(humanize_number(12.0), "12");
        assert_eq!(humanize_number(1.5), "1.50");
    }
}
