//! A tiny loopback HTTP client and a closed-loop load generator — the
//! measurement side of the serving benchmark, and the driver every
//! integration test uses. Zero-dependency like the server: one request
//! per connection, read-to-EOF responses.

use crr_data::Value;
use crr_obs::json;
use std::io::{self, Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Sends one request and returns `(status, body)`. The connection is
/// closed by the server (`Connection: close`), so the response is simply
/// read to EOF and split at the header terminator.
pub fn roundtrip(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    roundtrip_timeout(addr, method, path, body, Duration::from_secs(30))
}

/// [`roundtrip`] with an explicit per-socket timeout.
pub fn roundtrip_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nhost: crr-serve\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// Sends raw bytes and returns whatever comes back — the malformed-input
/// tests use this to speak broken HTTP on purpose.
pub fn raw_roundtrip(addr: SocketAddr, payload: &[u8], timeout: Duration) -> io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(payload)?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    Ok(raw)
}

/// Splits a raw response into `(status, body)`.
pub fn parse_response(raw: &[u8]) -> io::Result<(u16, String)> {
    let text = String::from_utf8_lossy(raw);
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Renders `rows` as a `/v1/*` request body, `{"rows": [[…], …]}`, each
/// cell written the way a JSON client sends it: `null`, an integer, a
/// float through [`json::num`], or an escaped string.
pub fn rows_body<R: AsRef<[Value]>>(rows: impl IntoIterator<Item = R>) -> String {
    let mut body = String::from("{\"rows\": [");
    for (i, row) in rows.into_iter().enumerate() {
        body.push_str(if i > 0 { ", [" } else { "[" });
        for (j, v) in row.as_ref().iter().enumerate() {
            if j > 0 {
                body.push_str(", ");
            }
            match v {
                Value::Null => body.push_str("null"),
                Value::Int(n) => body.push_str(&n.to_string()),
                Value::Float(x) => body.push_str(&json::num(*x)),
                Value::Str(s) => body.push_str(&format!("\"{}\"", json::esc(s))),
            }
        }
        body.push(']');
    }
    body.push_str("]}");
    body
}

/// The `"predictions": […]` field of a `/v1/predict` answer carrying
/// `values`, rendered by the server's own formatter — the text an offline
/// evaluation of the same rows must find in the served answer.
pub fn predictions_field(values: &[Option<f64>]) -> String {
    let mut out = String::from("\"predictions\": [");
    crate::handlers::render_opt_nums(&mut out, values);
    out.push(']');
    out
}

/// Closed-loop load-generator options: `clients` threads each issue
/// `requests_per_client` back-to-back requests (next request only after
/// the previous response), all with the same prebuilt body.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// Request path (e.g. `/v1/predict`).
    pub path: String,
    /// Request body, shared by every request.
    pub body: String,
    /// Per-socket timeout.
    pub timeout: Duration,
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Per-request wall latencies in milliseconds, sorted ascending.
    pub latencies_ms: Vec<f64>,
    /// Responses with a non-200 status, by status code.
    pub non_ok: Vec<(u16, usize)>,
    /// Transport errors (connect/read failures).
    pub errors: usize,
    /// Wall time of the whole run.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Completed (200) requests.
    pub fn completed(&self) -> usize {
        self.latencies_ms.len()
    }

    /// Latency percentile in milliseconds (`p` in `[0, 100]`); NaN when
    /// nothing completed.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return f64::NAN;
        }
        let rank = (p / 100.0 * (self.latencies_ms.len() - 1) as f64).round() as usize;
        self.latencies_ms[rank.min(self.latencies_ms.len() - 1)]
    }

    /// Completed requests per second over the run's wall time.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.completed() as f64 / secs
        } else {
            0.0
        }
    }

    /// Count of responses with the given status.
    pub fn status_count(&self, status: u16) -> usize {
        self.non_ok
            .iter()
            .find(|(s, _)| *s == status)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }
}

/// Runs the closed loop against `addr` and aggregates every client's
/// measurements.
pub fn run_load(addr: SocketAddr, opts: &LoadOptions) -> LoadReport {
    let started = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..opts.clients.max(1) {
        let opts = opts.clone();
        handles.push(std::thread::spawn(move || {
            let mut latencies = Vec::with_capacity(opts.requests_per_client);
            let mut non_ok: Vec<(u16, usize)> = Vec::new();
            let mut errors = 0usize;
            for _ in 0..opts.requests_per_client {
                let t = Instant::now();
                match roundtrip_timeout(addr, "POST", &opts.path, &opts.body, opts.timeout) {
                    Ok((200, _)) => latencies.push(t.elapsed().as_secs_f64() * 1e3),
                    Ok((status, _)) => match non_ok.iter_mut().find(|(s, _)| *s == status) {
                        Some((_, n)) => *n += 1,
                        None => non_ok.push((status, 1)),
                    },
                    Err(_) => errors += 1,
                }
            }
            (latencies, non_ok, errors)
        }));
    }
    let mut report = LoadReport {
        latencies_ms: Vec::new(),
        non_ok: Vec::new(),
        errors: 0,
        elapsed: Duration::ZERO,
    };
    for h in handles {
        if let Ok((lat, non_ok, errors)) = h.join() {
            report.latencies_ms.extend(lat);
            for (status, n) in non_ok {
                match report.non_ok.iter_mut().find(|(s, _)| *s == status) {
                    Some((_, total)) => *total += n,
                    None => report.non_ok.push((status, n)),
                }
            }
            report.errors += errors;
        } else {
            report.errors += 1;
        }
    }
    report.elapsed = started.elapsed();
    report
        .latencies_ms
        .sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_throughput() {
        let report = LoadReport {
            latencies_ms: (1..=100).map(f64::from).collect(),
            non_ok: vec![(503, 2)],
            errors: 0,
            elapsed: Duration::from_secs(2),
        };
        assert_eq!(report.completed(), 100);
        assert!((report.percentile_ms(50.0) - 51.0).abs() <= 1.0);
        assert_eq!(report.percentile_ms(0.0), 1.0);
        assert_eq!(report.percentile_ms(100.0), 100.0);
        assert_eq!(report.throughput_rps(), 50.0);
        assert_eq!(report.status_count(503), 2);
        assert_eq!(report.status_count(500), 0);
    }

    #[test]
    fn request_bodies_and_prediction_fields_render_like_a_json_client() {
        let rows = [
            vec![Value::Float(2.5), Value::Null],
            vec![Value::Int(-3), Value::str("a\"b")],
        ];
        assert_eq!(
            rows_body(&rows),
            "{\"rows\": [[2.5, null], [-3, \"a\\\"b\"]]}"
        );
        assert_eq!(rows_body(Vec::<Vec<Value>>::new()), "{\"rows\": []}");
        assert_eq!(
            predictions_field(&[Some(1.5), None, Some(-0.25)]),
            "\"predictions\": [1.5, null, -0.25]"
        );
    }

    #[test]
    fn parse_response_splits_status_and_body() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nretry-after: 1\r\n\r\n{\"error\": \"x\"}";
        let (status, body) = parse_response(raw).unwrap();
        assert_eq!(status, 503);
        assert_eq!(body, "{\"error\": \"x\"}");
        assert!(parse_response(b"garbage").is_err());
    }
}
