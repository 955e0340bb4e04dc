//! Parsing Hadoop 1.x job-history files.
//!
//! The parser is hand-rolled and tolerant: unknown event types and unknown
//! attributes are preserved in the generic event representation, and a job is
//! reconstructed by folding the events in order (submit → launch → task
//! starts → attempt finishes → job finish), exactly the way PerfXplain's
//! prototype consumed Hadoop's log files.

use crate::counters::parse_counters;
use std::collections::BTreeMap;
use std::fmt;

/// One parsed history record: an event type plus its attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEvent {
    /// Event type (`Job`, `Task`, `MapAttempt`, `ReduceAttempt`, `Meta`, …).
    pub event: String,
    /// Attribute key/value pairs in file order.
    pub attrs: BTreeMap<String, String>,
}

impl HistoryEvent {
    /// Convenience accessor.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.attrs.get(key).map(String::as_str)
    }

    /// Attribute parsed as a millisecond timestamp converted to seconds.
    pub fn get_time_secs(&self, key: &str) -> Option<f64> {
        self.get(key)?
            .parse::<u64>()
            .ok()
            .map(|ms| ms as f64 / 1000.0)
    }

    /// Attribute parsed as an unsigned integer.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.parse::<u64>().ok()
    }
}

/// Parse error for history files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryParseError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for HistoryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for HistoryParseError {}

/// Parses one history line into an event.
fn parse_line(line: &str, line_no: usize) -> Result<Option<HistoryEvent>, HistoryParseError> {
    let line = line.trim_end();
    let line = line.strip_suffix(" .").unwrap_or(line);
    if line.trim().is_empty() {
        return Ok(None);
    }
    let chars: Vec<char> = line.chars().collect();
    let mut i = 0usize;

    // Event type.
    let mut event = String::new();
    while i < chars.len() && !chars[i].is_whitespace() {
        event.push(chars[i]);
        i += 1;
    }
    if event.is_empty() {
        return Ok(None);
    }

    let mut attrs = BTreeMap::new();
    while i < chars.len() {
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        if i >= chars.len() {
            break;
        }
        // KEY
        let mut key = String::new();
        while i < chars.len() && chars[i] != '=' {
            key.push(chars[i]);
            i += 1;
        }
        if i >= chars.len() {
            return Err(HistoryParseError {
                line: line_no,
                message: format!("attribute '{key}' has no value"),
            });
        }
        i += 1; // '='
        if chars.get(i) != Some(&'"') {
            return Err(HistoryParseError {
                line: line_no,
                message: format!("attribute '{key}' value is not quoted"),
            });
        }
        i += 1; // opening quote
        let mut value = String::new();
        let mut closed = false;
        while i < chars.len() {
            match chars[i] {
                '\\' => {
                    if let Some(&next) = chars.get(i + 1) {
                        value.push(next);
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                '"' => {
                    closed = true;
                    i += 1;
                    break;
                }
                c => {
                    value.push(c);
                    i += 1;
                }
            }
        }
        if !closed {
            return Err(HistoryParseError {
                line: line_no,
                message: format!("attribute '{key}' value is not terminated"),
            });
        }
        attrs.insert(key.trim().to_string(), value);
    }
    Ok(Some(HistoryEvent { event, attrs }))
}

/// Parses a whole history file into its events.
pub fn parse_history_events(text: &str) -> Result<Vec<HistoryEvent>, HistoryParseError> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if let Some(event) = parse_line(line, idx + 1)? {
            events.push(event);
        }
    }
    Ok(events)
}

/// One reconstructed task attempt.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParsedTaskAttempt {
    /// Task identifier.
    pub task_id: String,
    /// Attempt identifier.
    pub attempt_id: String,
    /// `MAP` or `REDUCE`.
    pub task_type: String,
    /// Tracker the attempt ran on.
    pub tracker_name: String,
    /// Hostname extracted from the finish record.
    pub hostname: String,
    /// Start time in seconds.
    pub start_time: f64,
    /// Finish time in seconds.
    pub finish_time: f64,
    /// Shuffle-finished time (reduce attempts only).
    pub shuffle_finished: Option<f64>,
    /// Sort-finished time (reduce attempts only).
    pub sort_finished: Option<f64>,
    /// Task counters.
    pub counters: BTreeMap<String, u64>,
}

impl ParsedTaskAttempt {
    /// Attempt duration in seconds.
    pub fn duration(&self) -> f64 {
        self.finish_time - self.start_time
    }

    /// Whether this is a map attempt.
    pub fn is_map(&self) -> bool {
        self.task_type == "MAP"
    }
}

/// A reconstructed job.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParsedJob {
    /// Job identifier.
    pub job_id: String,
    /// Job name.
    pub job_name: String,
    /// Submit time in seconds.
    pub submit_time: f64,
    /// Launch time in seconds.
    pub launch_time: f64,
    /// Finish time in seconds.
    pub finish_time: f64,
    /// Total map tasks as reported in the launch record.
    pub total_maps: u64,
    /// Total reduce tasks as reported in the launch record.
    pub total_reduces: u64,
    /// Final job status.
    pub status: String,
    /// Job-level counters from the finish record.
    pub counters: BTreeMap<String, u64>,
    /// Successful task attempts.
    pub attempts: Vec<ParsedTaskAttempt>,
}

impl ParsedJob {
    /// Job duration (submit to finish) in seconds.
    pub fn duration(&self) -> f64 {
        self.finish_time - self.submit_time
    }
}

/// Parses a history file and folds its events into a [`ParsedJob`].
pub fn parse_job_history(text: &str) -> Result<ParsedJob, HistoryParseError> {
    let events = parse_history_events(text)?;
    let mut job = ParsedJob::default();
    // Attempt records come in (start, finish) pairs keyed by attempt id.
    let mut open_attempts: BTreeMap<String, ParsedTaskAttempt> = BTreeMap::new();

    for event in events {
        match event.event.as_str() {
            "Job" => {
                if let Some(id) = event.get("JOBID") {
                    job.job_id = id.to_string();
                }
                if let Some(name) = event.get("JOBNAME") {
                    job.job_name = name.to_string();
                }
                if let Some(t) = event.get_time_secs("SUBMIT_TIME") {
                    job.submit_time = t;
                }
                if let Some(t) = event.get_time_secs("LAUNCH_TIME") {
                    job.launch_time = t;
                }
                if let Some(t) = event.get_time_secs("FINISH_TIME") {
                    job.finish_time = t;
                    if let Some(status) = event.get("JOB_STATUS") {
                        job.status = status.to_string();
                    }
                    if let Some(counters) = event.get("COUNTERS") {
                        job.counters = parse_counters(counters);
                    }
                }
                if let Some(maps) = event.get_u64("TOTAL_MAPS") {
                    job.total_maps = maps;
                }
                if let Some(reduces) = event.get_u64("TOTAL_REDUCES") {
                    job.total_reduces = reduces;
                }
            }
            "MapAttempt" | "ReduceAttempt" => {
                let Some(attempt_id) = event.get("TASK_ATTEMPT_ID") else {
                    continue;
                };
                let entry = open_attempts
                    .entry(attempt_id.to_string())
                    .or_insert_with(|| ParsedTaskAttempt {
                        attempt_id: attempt_id.to_string(),
                        ..ParsedTaskAttempt::default()
                    });
                if let Some(task_id) = event.get("TASKID") {
                    entry.task_id = task_id.to_string();
                }
                if let Some(task_type) = event.get("TASK_TYPE") {
                    entry.task_type = task_type.to_string();
                }
                if let Some(tracker) = event.get("TRACKER_NAME") {
                    entry.tracker_name = tracker.to_string();
                }
                if let Some(hostname) = event.get("HOSTNAME") {
                    entry.hostname = hostname.to_string();
                }
                if let Some(t) = event.get_time_secs("START_TIME") {
                    entry.start_time = t;
                }
                if let Some(t) = event.get_time_secs("SHUFFLE_FINISHED") {
                    entry.shuffle_finished = Some(t);
                }
                if let Some(t) = event.get_time_secs("SORT_FINISHED") {
                    entry.sort_finished = Some(t);
                }
                if let Some(t) = event.get_time_secs("FINISH_TIME") {
                    entry.finish_time = t;
                }
                if let Some(counters) = event.get("COUNTERS") {
                    entry.counters = parse_counters(counters);
                }
            }
            // Task start/summary records carry no information the attempts
            // do not, and Meta records are versioning only.
            _ => {}
        }
    }

    job.attempts = open_attempts.into_values().collect();
    // Order attempts by start time, then id, for deterministic downstream
    // feature extraction.
    job.attempts.sort_by(|a, b| {
        a.start_time
            .partial_cmp(&b.start_time)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.attempt_id.cmp(&b.attempt_id))
    });
    Ok(job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::render_job_history;
    use mrsim::{Cluster, ClusterSpec, JobSpec};

    fn round_trip_job() -> (mrsim::JobTrace, ParsedJob) {
        let trace = Cluster::new(ClusterSpec::with_instances(2), 5).run_job(JobSpec::default());
        let history = render_job_history(&trace);
        let parsed = parse_job_history(&history).expect("parse");
        (trace, parsed)
    }

    #[test]
    fn round_trip_preserves_job_structure() {
        let (trace, parsed) = round_trip_job();
        assert_eq!(parsed.job_id, trace.job_id);
        assert_eq!(parsed.job_name, trace.job_name);
        assert_eq!(parsed.status, "SUCCESS");
        assert_eq!(parsed.attempts.len(), trace.tasks.len());
        assert_eq!(parsed.total_maps as usize, trace.map_tasks().count());
        assert_eq!(parsed.total_reduces as usize, trace.reduce_tasks().count());
        // Millisecond rounding keeps times within 1 ms.
        assert!((parsed.duration() - trace.duration()).abs() < 0.002);
        assert_eq!(parsed.counters, trace.counters);
    }

    #[test]
    fn round_trip_preserves_task_details() {
        let (trace, parsed) = round_trip_job();
        for task in &trace.tasks {
            let attempt = parsed
                .attempts
                .iter()
                .find(|a| a.attempt_id == task.attempt_id)
                .expect("attempt present");
            assert_eq!(attempt.task_id, task.task_id);
            assert_eq!(attempt.counters, task.counters);
            assert!((attempt.duration() - task.duration()).abs() < 0.002);
            assert_eq!(attempt.is_map(), task.kind == mrsim::TaskKind::Map);
            if !attempt.is_map() {
                assert!(attempt.shuffle_finished.is_some());
                assert!(attempt.sort_finished.is_some());
            }
            assert!(!attempt.hostname.is_empty());
        }
    }

    #[test]
    fn generic_event_parsing() {
        let events =
            parse_history_events("Meta VERSION=\"1\" .\nJob JOBID=\"job_1\" USER=\"alice\" .\n")
                .unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].event, "Meta");
        assert_eq!(events[1].get("USER"), Some("alice"));
        assert_eq!(events[1].get_u64("MISSING"), None);
    }

    #[test]
    fn escaped_quotes_in_values() {
        let events = parse_history_events("Job NAME=\"a \\\"quoted\\\" value\" .").unwrap();
        assert_eq!(events[0].get("NAME"), Some("a \"quoted\" value"));
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let err = parse_history_events("Job JOBID=\"ok\" .\nJob BROKEN .").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
        let err = parse_history_events("Job KEY=unquoted .").unwrap_err();
        assert!(err.message.contains("not quoted"));
        let err = parse_history_events("Job KEY=\"unterminated").unwrap_err();
        assert!(err.message.contains("not terminated"));
    }

    #[test]
    fn empty_input_gives_default_job() {
        let job = parse_job_history("").unwrap();
        assert!(job.job_id.is_empty());
        assert!(job.attempts.is_empty());
    }
}
