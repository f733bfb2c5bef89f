//! Helpers shared by the serve integration tests: one raw HTTP exchange,
//! job and sweep polling, a `/metrics` scrape, and top-level JSON field
//! reads through the service's own parser. Each test binary uses a
//! subset, hence the `dead_code` allowance.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hidisc_serve::json::Json;

pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn request_id(&self) -> &str {
        self.header("x-request-id").expect("X-Request-Id header")
    }
}

/// One `Connection: close` request with optional extra header lines
/// (each "Name: value", no CRLF). Reads to EOF, so chunked streams come
/// back undecoded; the keep-alive path is covered by tests/keepalive.rs.
pub fn request_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &[&str],
    body: &str,
) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n");
    for h in extra_headers {
        req.push_str(h);
        req.push_str("\r\n");
    }
    req.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(req.as_bytes()).expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let raw = String::from_utf8(raw).expect("UTF-8 response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {status_line}"));
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Response {
        status,
        headers,
        body: body.to_string(),
    }
}

pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    request_with(addr, method, path, &[], body)
}

/// The top-level string field `key` of the JSON object `body`.
pub fn json_str(body: &str, key: &str) -> Option<String> {
    Some(Json::parse(body).ok()?.get(key)?.as_str()?.to_string())
}

/// The top-level integer field `key` of the JSON object `body`.
pub fn json_num(body: &str, key: &str) -> Option<u64> {
    Json::parse(body).ok()?.get(key)?.as_u64()
}

/// Polls `GET /v1/jobs/<id>` until the job is `done` or `error`.
pub fn poll_job(addr: SocketAddr, id: &str) -> Response {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(r.status, 200, "poll failed: {}", r.body);
        let status = json_str(&r.body, "status").expect("status field");
        if status == "done" || status == "error" {
            return r;
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Polls `GET /v1/sweeps/<id>` until the sweep reports `done`.
pub fn poll_sweep(addr: SocketAddr, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let r = request(addr, "GET", &format!("/v1/sweeps/{id}"), "");
        assert_eq!(r.status, 200, "poll failed: {}", r.body);
        if json_str(&r.body, "status").as_deref() == Some("done") {
            return r.body;
        }
        assert!(Instant::now() < deadline, "sweep {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The value of the unlabelled series `name` on the `/metrics` page.
pub fn metric(addr: SocketAddr, name: &str) -> u64 {
    let r = request(addr, "GET", "/metrics", "");
    assert_eq!(r.status, 200);
    r.body
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len() + 1..].parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{}", r.body))
}
