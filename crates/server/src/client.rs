//! A blocking protocol client and the many-client load driver.
//!
//! [`Client`] is the one-connection building block (connect, send a
//! [`WireRequest`], read a [`WireResponse`] per line).  [`run_load`] drives
//! a many-client workload, closed loop per connection: every connection
//! runs on its own thread and sends its next request once the previous
//! reply arrives, so with `c` connections the server sees `c` concurrent
//! request streams, and up to `c` requests queued, whose arrival rate
//! follows how fast it answers.  The driver records per-request latency
//! and tallies responses by kind, feeding the `smoke serve` scenario.

use crate::protocol::{WireRequest, WireResponse};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A blocking line-protocol client over one TCP connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Acknowledgement for a (possibly multi-frame) append drive.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppendAck {
    /// Records the server accepted into the served log.
    pub appended: u64,
    /// The log generation after the last accepted batch.
    pub generation: u64,
    /// True only when *every* batch was acknowledged durable — fsynced to
    /// the server's append journal before the ack was sent.  False when the
    /// server runs without a journal or under a deferred fsync policy.
    pub durable: bool,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sends one request frame without waiting for the response (pipelining).
    pub fn send(&mut self, request: &WireRequest) -> std::io::Result<()> {
        let mut line = serde_json::to_string(request)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        line.push('\n');
        self.stream.write_all(line.as_bytes())
    }

    /// Sends a raw line verbatim (for protocol tests: malformed frames).
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(line.as_bytes())
    }

    /// Reads the next response frame.
    pub fn recv(&mut self) -> std::io::Result<WireResponse> {
        let mut line = String::new();
        loop {
            line.clear();
            let read = self.reader.read_line(&mut line)?;
            if read == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            if !line.trim().is_empty() {
                break;
            }
        }
        serde_json::from_str(line.trim())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Sends one request and waits for its response.
    pub fn call(&mut self, request: &WireRequest) -> std::io::Result<WireResponse> {
        self.send(request)?;
        self.recv()
    }

    /// Appends a batch of execution records to the served log (the
    /// `"append"` target) and waits for the acknowledgement, which carries
    /// the log's new generation and the number of records accepted.
    pub fn append(
        &mut self,
        records: &[perfxplain_core::ExecutionRecord],
    ) -> std::io::Result<WireResponse> {
        let records = serde_json::to_string(records)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        self.call(&WireRequest {
            target: Some("append".to_string()),
            records: Some(records),
            ..WireRequest::default()
        })
    }

    /// [`Client::append`] for batches of any size: splits `records` into as
    /// many `append` requests as needed to keep every frame under
    /// `max_frame_bytes` (the server's line cap —
    /// [`ServerConfig::max_frame_bytes`](crate::ServerConfig), 1 MiB by
    /// default), sized by each record's actual serialized length.  Returns
    /// an [`AppendAck`] totalling the drive; a rejected batch surfaces the
    /// server's typed error as [`std::io::Error`].  A single record too
    /// large for one frame is sent anyway, so the server's own limit stays
    /// authoritative.
    pub fn append_batched(
        &mut self,
        records: &[perfxplain_core::ExecutionRecord],
        max_frame_bytes: usize,
    ) -> std::io::Result<AppendAck> {
        // Budget for the record array inside one frame: the line cap minus
        // generous headroom for the request envelope and JSON-string
        // escaping of the embedded array.
        let budget = max_frame_bytes.saturating_sub(1024) / 2;
        let mut total = AppendAck {
            durable: true,
            ..AppendAck::default()
        };
        let mut batches = 0u64;
        let mut batch_start = 0;
        let mut batch_bytes = 2; // "[]"
        for (i, record) in records.iter().enumerate() {
            let bytes = serde_json::to_string(record)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
                .len()
                + 1; // the separating comma
            if i > batch_start && batch_bytes + bytes > budget {
                let ack = self.append_checked(&records[batch_start..i])?;
                total.appended += ack.appended;
                total.generation = ack.generation;
                total.durable &= ack.durable;
                batches += 1;
                batch_start = i;
                batch_bytes = 2;
            }
            batch_bytes += bytes;
        }
        if batch_start < records.len() {
            let ack = self.append_checked(&records[batch_start..])?;
            total.appended += ack.appended;
            total.generation = ack.generation;
            total.durable &= ack.durable;
            batches += 1;
        }
        if batches == 0 {
            total.durable = false;
        }
        Ok(total)
    }

    /// One `append` call with a non-ok response turned into an error.
    fn append_checked(
        &mut self,
        records: &[perfxplain_core::ExecutionRecord],
    ) -> std::io::Result<AppendAck> {
        let response = self.append(records)?;
        if !response.is_ok() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "server rejected the append: {} ({})",
                    response.message.as_deref().unwrap_or("no message"),
                    response.error.as_deref().unwrap_or("unknown error"),
                ),
            ));
        }
        Ok(AppendAck {
            appended: response.appended.unwrap_or(0),
            generation: response.generation.unwrap_or(0),
            durable: response.durable.unwrap_or(false),
        })
    }

    /// Asks the server to drain and shut down (the `"shutdown"` admin
    /// frame): it stops accepting new connections, finishes queued and
    /// in-flight requests within its drain deadline, and exits.  Returns
    /// the acknowledgement; the connection is useless afterwards.  Servers
    /// honor the frame only from loopback peers unless they opted into
    /// `allow_remote_shutdown` — a remote client gets a 403 `forbidden`
    /// response and the server keeps serving.
    pub fn shutdown(&mut self) -> std::io::Result<WireResponse> {
        self.call(&WireRequest {
            target: Some("shutdown".to_string()),
            ..WireRequest::default()
        })
    }
}

/// Aggregate outcome of a [`run_load`] drive.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// Success responses.
    pub ok: u64,
    /// Admission rejections (429: queue full / cost / session limit).
    pub shed: u64,
    /// Deadline expirations (408).
    pub deadline: u64,
    /// Other typed errors.
    pub errors: u64,
    /// Transport failures (connection dropped mid-request).
    pub transport_errors: u64,
    /// Wall-clock time of the whole drive.
    pub elapsed: Duration,
    /// Sustained completed responses per second over the drive.
    pub qps: f64,
    /// Median latency of completed responses, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
}

/// Latency percentile over a sorted sample (nearest-rank).
fn percentile_ms(sorted: &[Duration], fraction: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * fraction).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}

/// Drives `connections` concurrent client connections, each issuing
/// `requests_per_connection` requests back to back; `make_request` builds
/// the request for `(connection, sequence)`.  Per-request latency is
/// measured call-to-response; shed and expired responses count toward
/// totals but not latency percentiles (they return in microseconds and
/// would flatter the tail).
pub fn run_load(
    addr: &str,
    connections: usize,
    requests_per_connection: usize,
    make_request: impl Fn(usize, usize) -> WireRequest + Sync,
) -> std::io::Result<LoadReport> {
    let started = Instant::now();
    let per_connection: Vec<(Vec<Duration>, LoadReport)> = std::thread::scope(|scope| {
        let make_request = &make_request;
        let handles: Vec<_> = (0..connections)
            .map(|connection| {
                scope.spawn(move || -> std::io::Result<(Vec<Duration>, LoadReport)> {
                    let mut client = Client::connect(addr)?;
                    let mut latencies = Vec::with_capacity(requests_per_connection);
                    let mut report = LoadReport::default();
                    for sequence in 0..requests_per_connection {
                        let request = make_request(connection, sequence);
                        report.sent += 1;
                        let sent_at = Instant::now();
                        match client.call(&request) {
                            Ok(response) if response.is_ok() => {
                                report.ok += 1;
                                latencies.push(sent_at.elapsed());
                            }
                            Ok(response) if response.is_shed() => report.shed += 1,
                            Ok(response) if response.code == 408 => report.deadline += 1,
                            Ok(_) => report.errors += 1,
                            Err(_) => {
                                report.transport_errors += 1;
                                break;
                            }
                        }
                    }
                    Ok((latencies, report))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join().expect("load thread panicked") {
                Ok(result) => result,
                Err(_) => {
                    // A connection that failed outright still counts as a
                    // transport error rather than sinking the whole drive.
                    let mut report = LoadReport::default();
                    report.transport_errors += 1;
                    (Vec::new(), report)
                }
            })
            .collect()
    });

    let mut total = LoadReport::default();
    let mut latencies: Vec<Duration> = Vec::new();
    for (connection_latencies, report) in per_connection {
        total.sent += report.sent;
        total.ok += report.ok;
        total.shed += report.shed;
        total.deadline += report.deadline;
        total.errors += report.errors;
        total.transport_errors += report.transport_errors;
        latencies.extend(connection_latencies);
    }
    total.elapsed = started.elapsed();
    let completed = total.ok + total.shed + total.deadline + total.errors;
    total.qps = completed as f64 / total.elapsed.as_secs_f64().max(1e-9);
    latencies.sort();
    total.p50_ms = percentile_ms(&latencies, 0.50);
    total.p99_ms = percentile_ms(&latencies, 0.99);
    Ok(total)
}

/// Builds the canonical benchmark request against a
/// [`blocked_log`-style](crate) synthetic workload: "why do these two jobs
/// take the same time despite different input sizes".
pub fn default_request(left: &str, right: &str) -> WireRequest {
    WireRequest {
        query: Some(
            "DESPITE inputsize_compare = GT\n\
             OBSERVED duration_compare = SIM\n\
             EXPECTED duration_compare = GT"
                .to_string(),
        ),
        left: Some(left.to_string()),
        right: Some(right.to_string()),
        ..WireRequest::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile_ms(&sorted, 0.50), 50.0);
        assert_eq!(percentile_ms(&sorted, 0.99), 99.0);
        assert_eq!(percentile_ms(&sorted, 1.0), 100.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
        assert_eq!(percentile_ms(&[Duration::from_millis(7)], 0.99), 7.0);
    }

    #[test]
    fn responses_without_protocol_access_are_transport_errors() {
        // Nothing is listening on this port: connect fails cleanly.
        let result = Client::connect("127.0.0.1:1");
        assert!(result.is_err());
    }

    #[test]
    fn default_request_is_well_formed() {
        let request = default_request("job_0", "job_2");
        let line = serde_json::to_string(&request).unwrap();
        let parsed = crate::protocol::decode_request(line.as_bytes()).unwrap();
        assert_eq!(parsed.left.as_deref(), Some("job_0"));
        assert!(parsed.query.unwrap().contains("DESPITE"));
    }
}
