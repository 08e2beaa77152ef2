//! Minimal HTTP/1.1 framing over blocking sockets.
//!
//! The daemon's surface is four endpoints exchanging small JSON bodies, so
//! a full HTTP stack would be all liability: this module implements exactly
//! the subset the server speaks — request line, headers, `Content-Length`
//! bodies, and `Connection: close` responses — on `std::io` streams, with
//! hard caps on header and body sizes so a hostile peer cannot balloon
//! memory.

use std::io::{BufRead, BufReader, Read, Write};

/// Upper bound on the request line plus all headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body (generous for inline DFG/ADL text).
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed HTTP request: method, path, headers, and body.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`).
    pub method: String,
    /// Request target path, query string included verbatim.
    pub path: String,
    /// Header `(name, value)` pairs in arrival order, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Decoded request body (empty when no `Content-Length`).
    pub body: String,
}

impl Request {
    /// The first header named `name` (ASCII case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Parses one `Content-Length` value with request-smuggling hardening:
/// the value must be pure ASCII digits after trimming optional whitespace
/// — a sign, an empty/whitespace-only value, or any other decoration is
/// rejected rather than leniently accepted by `parse`.
fn parse_content_length(value: &str) -> Result<usize, String> {
    let digits = value.trim();
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("bad Content-Length `{}`", value.trim()));
    }
    digits
        .parse::<usize>()
        .map_err(|_| format!("bad Content-Length `{digits}`"))
}

/// Reads one HTTP/1.1 request from `stream`. Returns `Err` with a
/// human-readable reason on malformed input or when a size cap trips.
pub fn read_request<S: Read>(stream: S) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    // `read_line` buffers a whole line before anyone can measure it, so the
    // cap bounds the reader itself: one byte past the cap is enough to know
    // the head is too long, however slowly the peer trickles it in.
    let mut capped = (&mut reader).take(MAX_HEAD_BYTES as u64 + 1);
    loop {
        let line_start = head.len();
        let read = capped.read_line(&mut head);
        if capped.limit() == 0 {
            return Err("request head exceeds 16 KiB".to_string());
        }
        if read.map_err(|e| format!("read failed: {e}"))? == 0 {
            return Err("connection closed mid-request".to_string());
        }
        if matches!(&head[line_start..], "\r\n" | "\n") {
            head.truncate(line_start);
            break;
        }
    }
    let mut lines = head.lines();
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("missing method")?.to_string();
    let path = parts.next().ok_or("missing path")?.to_string();
    let version = parts.next().ok_or("missing HTTP version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported version `{version}`"));
    }
    let mut content_length: Option<usize> = None;
    let mut headers = Vec::new();
    for header in lines {
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            let parsed = parse_content_length(value)?;
            // Duplicate Content-Length headers that agree are tolerated
            // (some proxies emit them); conflicting duplicates are the
            // classic request-smuggling vector and are rejected outright
            // rather than resolved last-one-wins.
            if let Some(prev) = content_length {
                if prev != parsed {
                    return Err(format!(
                        "conflicting Content-Length headers ({prev} vs {parsed})"
                    ));
                }
            }
            content_length = Some(parsed);
        }
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err("request body exceeds 4 MiB".to_string());
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("short body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Writes one `Connection: close` response with a JSON body.
/// `extra_headers` lines must be complete (`"Retry-After: 1"`), without
/// trailing CRLF.
pub fn write_response<S: Write>(
    mut stream: S,
    status: u16,
    extra_headers: &[&str],
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for header in extra_headers {
        head.push_str(header);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_post_with_body() {
        let raw = "POST /compile HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(raw.as_bytes()).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/compile");
        assert_eq!(req.body, "hello");
    }

    #[test]
    fn parses_a_get_without_body() {
        let raw = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = read_request(raw.as_bytes()).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_bodies_without_allocating_them() {
        let raw = "POST /compile HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        let err = read_request(raw.as_bytes()).unwrap_err();
        assert!(err.contains("4 MiB"), "{err}");
    }

    #[test]
    fn refuses_an_endless_request_line_at_the_head_cap() {
        /// An endless stream of `a`s that counts what is pulled from it.
        struct Endless<'a>(&'a mut usize);
        impl Read for Endless<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                buf.fill(b'a');
                *self.0 += buf.len();
                Ok(buf.len())
            }
        }
        let mut consumed = 0;
        let err = read_request(Endless(&mut consumed).take(1 << 20)).unwrap_err();
        assert_eq!(err, "request head exceeds 16 KiB");
        let one_buffer = BufReader::new(std::io::empty()).capacity();
        assert!(
            consumed <= MAX_HEAD_BYTES + one_buffer,
            "read {consumed} bytes of a newline-free head"
        );
        // a head of exactly the cap still parses; one more byte does not
        let fits = |head_bytes: usize| {
            let line = "GET / HTTP/1.1\r\n";
            let pad = "a".repeat(head_bytes - line.len() - "X: \r\n\r\n".len());
            read_request(format!("{line}X: {pad}\r\n\r\n").as_bytes())
        };
        assert!(fits(MAX_HEAD_BYTES).is_ok());
        assert_eq!(
            fits(MAX_HEAD_BYTES + 1).unwrap_err(),
            "request head exceeds 16 KiB"
        );
    }

    #[test]
    fn rejects_short_bodies() {
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_request(raw.as_bytes()).is_err());
    }

    #[test]
    fn rejects_conflicting_duplicate_content_lengths() {
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\nhello";
        let err = read_request(raw.as_bytes()).unwrap_err();
        assert!(err.contains("conflicting Content-Length"), "{err}");
    }

    #[test]
    fn tolerates_agreeing_duplicate_content_lengths() {
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(raw.as_bytes()).unwrap();
        assert_eq!(req.body, "hello");
    }

    #[test]
    fn rejects_signed_or_decorated_content_lengths() {
        for bad in ["+5", "-1", " ", "", "0x10", "5 5", "5,5"] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {bad}\r\n\r\nhello");
            let err = read_request(raw.as_bytes()).unwrap_err();
            assert!(err.contains("Content-Length"), "`{bad}`: {err}");
        }
    }

    #[test]
    fn headers_are_captured_case_insensitively() {
        let raw = "POST /x HTTP/1.1\r\nX-Panorama-Tenant: alice\r\nContent-Length: 2\r\n\r\nhi";
        let req = read_request(raw.as_bytes()).unwrap();
        assert_eq!(req.header("x-panorama-tenant"), Some("alice"));
        assert_eq!(req.header("X-PANORAMA-TENANT"), Some("alice"));
        assert_eq!(req.header("missing"), None);
    }

    #[test]
    fn response_has_length_and_close() {
        let mut out = Vec::new();
        write_response(&mut out, 503, &["Retry-After: 1"], "{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
