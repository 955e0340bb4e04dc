//! The load generator: open-loop and closed-loop requests over real loopback
//! sockets.
//!
//! `perfxplain_server::run_load` is documented as open-loop but each of its
//! connections waits for a reply before sending the next request, so a slow
//! server slows its own arrival rate.  The open loop here pipelines instead:
//! every request has a due time, is written when due whether or not earlier
//! replies have arrived, and is timed from its due time — a stall is charged
//! to every request it delays.  How late the generator itself sent each
//! request is kept as its lag.  One thread per connection, so the generator
//! never uses more threads than connections.  [`closed_loop`] is one client
//! that waits for each reply before it asks again.

use crate::calibrate::Calibration;
use perfxplain_server::{Client, WireRequest, WireResponse};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One answered request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position of the request in its plan.
    pub index: usize,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub response: WireResponse,
}

impl Sample {
    /// Latency from the due time.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request.
    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

/// How long an open-loop drive may wait for its last reply.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

fn invalid(message: String) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, message)
}

/// Drives `plan` open loop: request `i` is due at `start + plan[i].0` and is
/// written on connection `i % connections` without waiting for earlier
/// replies.  Returns once every request is answered, samples in plan order.
pub fn open_loop(
    addr: &str,
    start: Instant,
    plan: &[(Duration, WireRequest)],
    connections: usize,
) -> std::io::Result<Vec<Sample>> {
    let per_connection: Vec<std::io::Result<Vec<Sample>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|connection| {
                let mine: Vec<(usize, Instant, &WireRequest)> = plan
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % connections == connection)
                    .map(|(i, (offset, request))| (i, start + *offset, request))
                    .collect();
                scope.spawn(move || drive_connection(addr, &mine))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    });
    let mut samples = Vec::with_capacity(plan.len());
    for result in per_connection {
        samples.extend(result?);
    }
    samples.sort_by_key(|s| s.index);
    Ok(samples)
}

fn drive_connection(
    addr: &str,
    mine: &[(usize, Instant, &WireRequest)],
) -> std::io::Result<Vec<Sample>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut pending: HashMap<u64, (usize, Instant, Instant)> = HashMap::new();
    let mut samples = Vec::with_capacity(mine.len());
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 0;
    let give_up = mine.last().map_or_else(Instant::now, |(_, due, _)| *due) + DRAIN_LIMIT;
    loop {
        let now = Instant::now();
        if let Some(&(index, due, request)) = mine.get(next) {
            if now >= due {
                let mut request = request.clone();
                request.id = Some(index as u64);
                let mut line =
                    serde_json::to_string(&request).map_err(|e| invalid(e.to_string()))?;
                line.push('\n');
                let sent = Instant::now();
                stream.write_all(line.as_bytes())?;
                pending.insert(index as u64, (index, due, sent));
                next += 1;
                continue;
            }
        } else if pending.is_empty() {
            return Ok(samples);
        }
        if now > give_up {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                format!(
                    "{} requests unanswered after the drain limit",
                    pending.len()
                ),
            ));
        }
        let wait = match mine.get(next) {
            Some(&(_, due, _)) => due.saturating_duration_since(now),
            None => Duration::from_millis(50),
        };
        stream.set_read_timeout(Some(wait.max(Duration::from_micros(200))))?;
        match stream.read(&mut chunk) {
            Ok(0) => return Err(invalid("server closed the connection".to_string())),
            Ok(n) => {
                let done = Instant::now();
                buf.extend_from_slice(&chunk[..n]);
                while let Some(newline) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=newline).collect();
                    let response: WireResponse = serde_json::from_slice(&line[..line.len() - 1])
                        .map_err(|e| invalid(e.to_string()))?;
                    let key = response
                        .id
                        .ok_or_else(|| invalid(format!("response without an id: {response:?}")))?;
                    let (index, due, sent) = pending
                        .remove(&key)
                        .ok_or_else(|| invalid(format!("unexpected response id {key}")))?;
                    samples.push(Sample {
                        index,
                        due,
                        sent,
                        done,
                        response,
                    });
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// One closed-loop call, timed from send.
pub fn call(client: &mut Client, index: usize, request: &WireRequest) -> std::io::Result<Sample> {
    let sent = Instant::now();
    let response = client.call(request)?;
    Ok(Sample {
        index,
        due: sent,
        sent,
        done: Instant::now(),
        response,
    })
}

/// One client on one connection, sending `requests` in turn (wrapping
/// around), each as soon as the previous reply is in, until `seconds` have
/// passed and at least `min` replies are in.  Sample `i` asked request
/// `i % requests.len()`; the first `warmup` samples are not counted towards
/// `seconds` or `min`.  After each reply, with the server idle, the
/// calibration kernel runs once: its `i`-th time is sample `i`'s.
pub fn closed_loop(
    addr: &str,
    requests: &[WireRequest],
    warmup: usize,
    seconds: f64,
    min: usize,
    calibration: &mut Calibration,
) -> std::io::Result<Vec<Sample>> {
    let mut client = Client::connect(addr)?;
    let mut samples = Vec::new();
    let mut started = Instant::now();
    while samples.len() < warmup + min || started.elapsed().as_secs_f64() < seconds {
        let index = samples.len();
        samples.push(call(&mut client, index, &requests[index % requests.len()])?);
        calibration.sample();
        if samples.len() == warmup {
            started = Instant::now();
        }
    }
    Ok(samples)
}

/// A status probe (answered inline by the event loop).
pub fn status(addr: &str) -> std::io::Result<WireResponse> {
    Client::connect(addr)?.call(&WireRequest {
        target: Some("status".to_string()),
        ..WireRequest::default()
    })
}

/// Evenly spaced due offsets for `rate` requests per second over `seconds`.
pub fn schedule(rate: f64, seconds: f64) -> Vec<Duration> {
    let count = (rate * seconds).round() as usize;
    (0..count)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}
