//! A keep-alive HTTP/1.1 client for the `serve-mix` load generator.
//!
//! `hidisc_serve::client` opens one connection per request; the mix
//! needs long-lived connections (the service's keep-alive path) and a
//! timestamp per streamed NDJSON line, so this client keeps one socket
//! open and decodes `Content-Length` and chunked bodies incrementally.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Bound on one response head or body line; a longer one is an error,
/// not an allocation.
const MAX_LINE: usize = 1 << 20;

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    host: String,
    buf: Vec<u8>,
}

/// A complete, non-streamed response.
pub struct Response {
    pub status: u16,
    pub body: String,
}

impl Conn {
    /// Connects with `timeout` bounding the connect and every read and
    /// write.
    pub fn open(addr: SocketAddr, timeout: Duration) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, timeout)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(timeout)))
            .and_then(|()| stream.set_write_timeout(Some(timeout)))
            .map_err(|e| format!("socket options on {addr}: {e}"))?;
        Ok(Conn {
            stream,
            host: addr.to_string(),
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads the whole response body.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Response, String> {
        let mut out = Vec::new();
        let status = self.exchange(method, path, body, &mut |line: &[u8], _| {
            out.extend_from_slice(line)
        })?;
        String::from_utf8(out)
            .map(|body| Response { status, body })
            .map_err(|_| "non-UTF-8 response body".to_string())
    }

    /// Sends one request and hands each body line (newline included) to
    /// `on_line` with the instant it was decoded. Returns the status.
    pub fn stream(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        on_line: &mut dyn FnMut(&str, Instant),
    ) -> Result<u16, String> {
        let mut bad = false;
        let status =
            self.exchange(
                method,
                path,
                body,
                &mut |line: &[u8], at| match std::str::from_utf8(line) {
                    Ok(s) => on_line(s, at),
                    Err(_) => bad = true,
                },
            )?;
        if bad {
            return Err("non-UTF-8 stream line".to_string());
        }
        Ok(status)
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        sink: &mut dyn FnMut(&[u8], Instant),
    ) -> Result<u16, String> {
        let mut req = format!("{method} {path} HTTP/1.1\r\nHost: {}\r\n", self.host);
        if !body.is_empty() {
            req.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        req.push_str("\r\n");
        req.push_str(body);
        self.stream
            .write_all(req.as_bytes())
            .map_err(|e| format!("send {method} {path}: {e}"))?;

        let head = self.read_until(b"\r\n\r\n")?;
        let head = String::from_utf8(head).map_err(|_| "non-UTF-8 response head".to_string())?;
        let mut lines = head.lines();
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line `{status_line}`"))?;
        let mut length = None;
        let mut chunked = false;
        for l in lines {
            if let Some((name, value)) = l.split_once(':') {
                let (name, value) = (name.trim(), value.trim());
                if name.eq_ignore_ascii_case("content-length") {
                    length = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| format!("bad Content-Length `{value}`"))?,
                    );
                } else if name.eq_ignore_ascii_case("transfer-encoding") {
                    chunked = value.eq_ignore_ascii_case("chunked");
                }
            }
        }
        if chunked {
            self.read_chunked(sink)?;
        } else {
            let n = length.ok_or("response has neither Content-Length nor chunked body")?;
            if n > MAX_LINE {
                return Err(format!("response body of {n} bytes is over the bound"));
            }
            let data = self.read_exact_buffered(n)?;
            let at = Instant::now();
            for line in data.split_inclusive(|&b| b == b'\n') {
                sink(line, at);
            }
        }
        Ok(status)
    }

    /// Decodes a chunked body, splitting the payload into lines as the
    /// chunks arrive.
    fn read_chunked(&mut self, sink: &mut dyn FnMut(&[u8], Instant)) -> Result<(), String> {
        let mut pending: Vec<u8> = Vec::new();
        loop {
            let size_line = self.read_until(b"\r\n")?;
            let size_txt = std::str::from_utf8(&size_line)
                .map_err(|_| "bad chunk size".to_string())?
                .trim();
            let size = usize::from_str_radix(size_txt, 16)
                .map_err(|_| format!("bad chunk size `{size_txt}`"))?;
            if size == 0 {
                // No trailers are sent: the terminator is one empty line.
                self.read_until(b"\r\n")?;
                if !pending.is_empty() {
                    sink(&pending, Instant::now());
                }
                return Ok(());
            }
            if size > MAX_LINE {
                return Err(format!("chunk of {size} bytes is over the bound"));
            }
            let data = self.read_exact_buffered(size + 2)?;
            let at = Instant::now();
            pending.extend_from_slice(&data[..size]);
            while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = pending.drain(..=nl).collect();
                sink(&line, at);
            }
            if pending.len() > MAX_LINE {
                return Err("stream line over the bound".to_string());
            }
        }
    }

    /// Reads through `delim`, returning the bytes before it.
    fn read_until(&mut self, delim: &[u8]) -> Result<Vec<u8>, String> {
        loop {
            if let Some(at) = self.buf.windows(delim.len()).position(|w| w == delim) {
                let out = self.buf[..at].to_vec();
                self.buf.drain(..at + delim.len());
                return Ok(out);
            }
            if self.buf.len() > MAX_LINE {
                return Err("response line over the bound".to_string());
            }
            self.fill()?;
        }
    }

    fn read_exact_buffered(&mut self, n: usize) -> Result<Vec<u8>, String> {
        while self.buf.len() < n {
            self.fill()?;
        }
        Ok(self.buf.drain(..n).collect())
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self
            .stream
            .read(&mut chunk)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-response".to_string());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}
