//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response per line, both UTF-8 JSON objects.
//! See the crate docs ([`crate`]) for the full field reference.  The wire
//! structs are deliberately flat — every field optional on the way in,
//! `null`-tolerant on the way out — so the vendored serde shim's derive
//! (named-field structs, `Option` for absent fields) covers them exactly.

use perfxplain_core::{pxql, CoreError, QueryOutcome};
use serde::{Deserialize, Serialize};

/// One client request: PXQL text plus the pair of interest and per-request
/// knobs.  Only `query` is semantically required; everything else has a
/// server-side default.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed verbatim on the response.
    /// Responses to pipelined requests on one connection can complete out
    /// of order; the id is how clients match them up.
    pub id: Option<u64>,
    /// What the request addresses.  Absent (the default) means a PXQL
    /// query; `"status"` asks for the server's health/counter probe and is
    /// answered immediately by the event loop (no admission, no worker);
    /// `"append"` ingests [`WireRequest::records`] into the served log —
    /// also answered inline by the event loop, since an append is O(batch)
    /// and the expensive view refresh happens lazily on the delta path.
    pub target: Option<String>,
    /// The PXQL query text (`DESPITE … OBSERVED … EXPECTED …`).
    pub query: Option<String>,
    /// Left execution id of the pair of interest.
    pub left: Option<String>,
    /// Right execution id of the pair of interest.
    pub right: Option<String>,
    /// Because-clause width override.
    pub width: Option<u64>,
    /// Training sample-size override.
    pub sample_size: Option<u64>,
    /// Extend an irrelevant despite clause automatically (Section 6.4).
    pub auto_despite: Option<bool>,
    /// Render a plain-English narration into the response.
    pub narrate: Option<bool>,
    /// Score the explanation (precision / generality / relevance).
    pub assess: Option<bool>,
    /// Per-request deadline in milliseconds (overrides the server default).
    pub timeout_ms: Option<u64>,
    /// For `target = "append"`: a JSON array of execution records (the
    /// [`ExecutionLog`](perfxplain_core::ExecutionLog) record format),
    /// carried as a string so the outer frame stays a flat object.
    pub records: Option<String>,
}

/// One server response: either an explanation (`status = "ok"`) or a typed
/// error (`status = "error"` with a machine-readable `error` kind).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WireResponse {
    /// The request's correlation id (absent when the frame was unparseable).
    pub id: Option<u64>,
    /// `"ok"` or `"error"`.
    pub status: String,
    /// HTTP-style status code (200, 400, 404, 408, 422, 429, 499, 500).
    pub code: u64,
    /// Machine-readable error kind (one of the `ERR_*` constants).
    pub error: Option<String>,
    /// Human-readable error detail.
    pub message: Option<String>,
    /// Because-clause atoms, rendered as `feature op constant` strings.
    pub because: Option<Vec<String>>,
    /// Despite-extension atoms (empty when the user's clause sufficed).
    pub despite: Option<Vec<String>>,
    /// Plain-English narration, when requested.
    pub narration: Option<String>,
    /// `Pr(E)` over the training pairs, when assessment was requested.
    pub precision: Option<f64>,
    /// `Gen(E)`, when requested.
    pub generality: Option<f64>,
    /// `Rel(E)`, when requested.
    pub relevance: Option<f64>,
    /// Log generation the answer was computed against.
    pub generation: Option<u64>,
    /// Whether the columnar view came from the service cache.
    pub view_reused: Option<bool>,
    /// Whether the training sample came from the cached view's memo, so
    /// the request ran no pair enumeration.
    pub sample_reused: Option<bool>,
    /// Admission-control cost ultimately charged for this request — the
    /// *refined* (post-enumeration) cost when it came in below the
    /// admission-time estimate.
    pub cost_units: Option<u64>,
    /// Related pairs the explanation actually trained on (the measured
    /// cost behind the refinement).
    pub related_pairs: Option<u64>,
    /// Records ingested (append responses only).
    pub appended: Option<u64>,
    /// Whether the appended batch was fsynced into the append journal
    /// before this acknowledgement (append responses only).  `false` means
    /// the record is in memory — and in the journal file when one is
    /// enabled — but a crash before the next fsync or checkpoint may drop
    /// it.
    pub durable: Option<bool>,
    /// Milliseconds since the event loop started (status probe only).
    pub uptime_ms: Option<u64>,
    /// Requests admitted by the scheduler so far (status probe only).
    pub admitted: Option<u64>,
    /// Admission rejections so far (status probe only).
    pub shed: Option<u64>,
    /// Queued-deadline expirations so far (status probe only).
    pub expired: Option<u64>,
    /// Requests cancelled mid-execution so far (status probe only).
    pub cancelled: Option<u64>,
    /// Requests currently waiting in the admission queue (status probe
    /// only).
    pub queue_depth: Option<u64>,
    /// Summed cost of currently executing requests (status probe only).
    pub budget_in_use: Option<u64>,
    /// The configured concurrent-cost budget (status probe only).
    pub budget_total: Option<u64>,
    /// Cost units refunded mid-flight by estimate/actual refinement
    /// (status probe only).
    pub refunded_units: Option<u64>,
    /// Rows in the cached views' immutable base segments (status probe
    /// only).
    pub base_rows: Option<u64>,
    /// Rows in the cached views' append tails (status probe only).
    pub tail_rows: Option<u64>,
    /// Views refreshed by tail splice, O(tail) each (status probe only).
    pub delta_refreshes: Option<u64>,
    /// Views rebuilt from scratch, O(log) each (status probe only).
    pub full_rebuilds: Option<u64>,
    /// Tail segments folded into their base (status probe only).
    pub compactions: Option<u64>,
    /// Unix timestamp (ms) of the last compaction; 0 if none (status probe
    /// only).
    pub last_compaction_unix_ms: Option<u64>,
    /// Entries (a sample with its encoded dataset) held in the cached
    /// views' memos (status probe only).
    pub memo_datasets: Option<u64>,
    /// Heap bytes of those entries, samples included (status probe only).
    pub memo_dataset_bytes: Option<u64>,
    /// Entries stored into the cached views' memos since those views were
    /// cached (status probe only).
    pub memo_dataset_stores: Option<u64>,
    /// Append-journal size in bytes, header included (status probe only;
    /// absent while no journal is enabled).
    pub journal_bytes: Option<u64>,
    /// Frames appended to the journal since the server started (status
    /// probe only).
    pub journal_frames_appended: Option<u64>,
    /// Frames replayed from the journal when the store was opened (status
    /// probe only).
    pub journal_frames_replayed: Option<u64>,
    /// Torn/corrupt tails truncated at open (status probe only).
    pub journal_frames_truncated: Option<u64>,
    /// Journal fsyncs performed so far (status probe only).
    pub journal_fsyncs: Option<u64>,
    /// Manifest generation of the last journal rotation; 0 before the
    /// first checkpoint (status probe only).
    pub journal_last_rotation_generation: Option<u64>,
}

/// The admission queue is full: retry later (load shedding).
pub const ERR_SHED_QUEUE_FULL: &str = "shed_queue_full";
/// The query's estimated cost exceeds the server's whole budget; it can
/// never be admitted at this configuration.
pub const ERR_COST_EXCEEDS_BUDGET: &str = "cost_exceeds_budget";
/// The connection has too many requests in flight or queued.
pub const ERR_SESSION_LIMIT: &str = "session_limit";
/// The request's deadline passed (in queue or mid-execution).
pub const ERR_DEADLINE: &str = "deadline";
/// The request was cancelled before completion.
pub const ERR_CANCELLED: &str = "cancelled";
/// The frame was not a valid protocol request (bad JSON, missing query,
/// oversized line).
pub const ERR_BAD_FRAME: &str = "bad_frame";
/// The peer is not allowed to use this admin target (e.g. `shutdown`
/// from a non-loopback connection without `allow_remote_shutdown`).
pub const ERR_FORBIDDEN: &str = "forbidden";
/// The PXQL text failed to parse or bind.
pub const ERR_PXQL: &str = "pxql";
/// An execution id is not in the served log.
pub const ERR_UNKNOWN_EXECUTION: &str = "unknown_execution";
/// The query's semantic preconditions do not hold for the pair, or the log
/// cannot produce a training set for it.
pub const ERR_PRECONDITION: &str = "precondition";
/// Unexpected server-side failure.
pub const ERR_INTERNAL: &str = "internal";

impl WireResponse {
    /// A success response carrying the outcome's explanation.
    pub fn ok(id: Option<u64>, outcome: &QueryOutcome, cost_units: u64) -> WireResponse {
        let atom_strings = |predicate: &pxql::Predicate| -> Vec<String> {
            predicate.atoms().iter().map(|a| a.to_string()).collect()
        };
        WireResponse {
            id,
            status: "ok".to_string(),
            code: 200,
            because: Some(atom_strings(&outcome.explanation.because)),
            despite: Some(atom_strings(&outcome.explanation.despite)),
            narration: outcome.narration.clone(),
            precision: outcome.quality.as_ref().and_then(|q| q.precision.value),
            generality: outcome.quality.as_ref().and_then(|q| q.generality.value),
            relevance: outcome.quality.as_ref().and_then(|q| q.relevance.value),
            generation: Some(outcome.generation),
            view_reused: Some(outcome.view_reused),
            sample_reused: Some(outcome.sample_reused),
            cost_units: Some(cost_units),
            related_pairs: Some(outcome.related_pairs),
            ..WireResponse::default()
        }
    }

    /// A typed error response.
    pub fn error(
        id: Option<u64>,
        code: u64,
        kind: &str,
        message: impl Into<String>,
    ) -> WireResponse {
        WireResponse {
            id,
            status: "error".to_string(),
            code,
            error: Some(kind.to_string()),
            message: Some(message.into()),
            ..WireResponse::default()
        }
    }

    /// Maps a pipeline error onto the wire: every [`CoreError`] variant has
    /// a fixed `(code, kind)` so clients can dispatch without parsing
    /// message text.
    pub fn from_core_error(id: Option<u64>, err: &CoreError) -> WireResponse {
        let (code, kind) = match err {
            CoreError::Pxql(_) | CoreError::KindMismatch { .. } => (400, ERR_PXQL),
            CoreError::UnknownExecution(_) => (404, ERR_UNKNOWN_EXECUTION),
            CoreError::QueryPreconditionViolated(_)
            | CoreError::NotEnoughTrainingPairs { .. }
            | CoreError::JournalNotAnchored { .. } => (422, ERR_PRECONDITION),
            CoreError::DeadlineExceeded => (408, ERR_DEADLINE),
            CoreError::Cancelled => (499, ERR_CANCELLED),
            CoreError::Serialization(_)
            | CoreError::SnapshotIo { .. }
            | CoreError::SnapshotCorrupt { .. }
            | CoreError::SnapshotVersionSkew { .. } => (500, ERR_INTERNAL),
        };
        WireResponse::error(id, code, kind, err.to_string())
    }

    /// Whether this is a success response.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    /// Whether this is an admission-control rejection (shed load).
    pub fn is_shed(&self) -> bool {
        self.code == 429
    }
}

/// Decodes one frame (a line with the terminator stripped).
pub fn decode_request(frame: &[u8]) -> Result<WireRequest, serde_json::Error> {
    serde_json::from_slice(frame)
}

/// Encodes a response as one protocol line, newline included.  Encoding a
/// response can only fail on a shim bug, and the connection must still get
/// a frame — degrade to a pre-rendered internal error.
pub fn encode_response_line(response: &WireResponse) -> String {
    let mut line = serde_json::to_string(response).unwrap_or_else(|_| {
        "{\"status\":\"error\",\"code\":500,\"error\":\"internal\",\
         \"message\":\"response encoding failed\"}"
            .to_string()
    });
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_and_tolerate_missing_fields() {
        let decoded: WireRequest =
            decode_request(br#"{"query": "OBSERVED duration_compare = SIM", "left": "a"}"#)
                .unwrap();
        assert_eq!(
            decoded.query.as_deref(),
            Some("OBSERVED duration_compare = SIM")
        );
        assert_eq!(decoded.left.as_deref(), Some("a"));
        assert_eq!(decoded.right, None);
        assert_eq!(decoded.timeout_ms, None);

        let full = WireRequest {
            id: Some(7),
            target: None,
            query: Some("q".to_string()),
            left: Some("l".to_string()),
            right: Some("r".to_string()),
            width: Some(2),
            sample_size: Some(100),
            auto_despite: Some(true),
            narrate: Some(true),
            assess: Some(true),
            timeout_ms: Some(250),
            records: Some("[]".to_string()),
        };
        let echoed: WireRequest =
            decode_request(serde_json::to_string(&full).unwrap().as_bytes()).unwrap();
        assert_eq!(echoed.id, Some(7));
        assert_eq!(echoed.timeout_ms, Some(250));
        assert_eq!(echoed.auto_despite, Some(true));
        assert_eq!(echoed.records.as_deref(), Some("[]"));
    }

    #[test]
    fn malformed_frames_are_errors_not_panics() {
        assert!(decode_request(b"not json").is_err());
        assert!(decode_request(b"[1, 2]").is_err());
        assert!(decode_request(b"{\"id\": \"string-not-number\"}").is_err());
        assert!(decode_request(&[0xff, 0xfe, b'{', b'}']).is_err());
        assert!(decode_request(b"").is_err());
    }

    #[test]
    fn core_errors_map_to_stable_codes() {
        let shed = WireResponse::error(Some(1), 429, ERR_SHED_QUEUE_FULL, "queue full");
        assert!(shed.is_shed());
        assert!(!shed.is_ok());

        let deadline = WireResponse::from_core_error(None, &CoreError::DeadlineExceeded);
        assert_eq!(deadline.code, 408);
        assert_eq!(deadline.error.as_deref(), Some(ERR_DEADLINE));

        let cancelled = WireResponse::from_core_error(None, &CoreError::Cancelled);
        assert_eq!(cancelled.code, 499);

        let unknown =
            WireResponse::from_core_error(Some(3), &CoreError::UnknownExecution("j".into()));
        assert_eq!(unknown.code, 404);
        assert_eq!(unknown.id, Some(3));

        let line = encode_response_line(&unknown);
        assert!(line.ends_with('\n'));
        let parsed: WireResponse = serde_json::from_str(line.trim_end()).unwrap();
        assert_eq!(parsed.code, 404);
        assert_eq!(parsed.error.as_deref(), Some(ERR_UNKNOWN_EXECUTION));
    }
}
