//! A minimal blocking HTTP/1.1 keep-alive client: just enough to drive
//! the server the way a caller that waits for every reply does.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Conn { writer: stream, reader })
    }

    /// Sends one request and reads its whole response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        self.read_response()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let status_line = self.read_line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line '{status_line}'")))?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let (k, v) = line.split_once(':').ok_or_else(|| bad(format!("bad header '{line}'")))?;
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
        let mut resp = Response { status, headers, body: Vec::new() };
        if resp.header("transfer-encoding").is_some_and(|te| te.contains("chunked")) {
            loop {
                let size_line = self.read_line()?;
                let size =
                    usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
                        .map_err(|_| bad(format!("bad chunk size '{size_line}'")))?;
                if size == 0 {
                    // Trailers, then the blank line.
                    while !self.read_line()?.is_empty() {}
                    break;
                }
                let start = resp.body.len();
                resp.body.resize(start + size, 0);
                self.reader.read_exact(&mut resp.body[start..])?;
                self.read_line()?;
            }
        } else {
            let len: usize = resp
                .header("content-length")
                .ok_or_else(|| bad("response without content-length"))?
                .parse()
                .map_err(|_| bad("bad content-length"))?;
            resp.body.resize(len, 0);
            self.reader.read_exact(&mut resp.body)?;
        }
        Ok(resp)
    }
}

/// Fetches `/metrics` over a fresh connection.
pub fn scrape(addr: SocketAddr) -> io::Result<String> {
    let resp = Conn::open(addr)?.request("GET", "/metrics", b"")?;
    if resp.status != 200 {
        return Err(bad(format!("/metrics answered {}", resp.status)));
    }
    String::from_utf8(resp.body).map_err(|_| bad("/metrics is not UTF-8"))
}

/// A Prometheus text exposition, reduced to `series → value`.
pub struct Exposition(Vec<(String, f64)>);

impl Exposition {
    pub fn parse(text: &str) -> Exposition {
        Exposition(
            text.lines()
                .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
                .filter_map(|l| {
                    let (series, value) = l.rsplit_once(' ')?;
                    Some((series.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    /// Sum over every series of `family` whose labels contain `filter`.
    pub fn sum(&self, family: &str, filter: &str) -> f64 {
        self.0
            .iter()
            .filter(|(s, _)| {
                let name = s.split('{').next().unwrap_or("");
                name == family && s.contains(filter)
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Cumulative `(le, count)` buckets of histogram `family` for the
    /// series whose labels contain `filter`, in ascending `le` order.
    pub fn buckets(&self, family: &str, filter: &str) -> Vec<(f64, f64)> {
        let prefix = format!("{family}_bucket{{");
        let mut out: Vec<(f64, f64)> = self
            .0
            .iter()
            .filter(|(s, _)| s.starts_with(&prefix) && s.contains(filter))
            .filter_map(|(s, v)| {
                let le = s.split("le=\"").nth(1)?.split('"').next()?;
                let le = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
                Some((le, *v))
            })
            .collect();
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("bucket bounds are not NaN"));
        out
    }
}

/// Nearest-rank quantile `p` of the samples between two cumulative
/// bucket snapshots of one histogram (`after − before`), as the upper
/// bound of the bucket holding it.
pub fn bucket_quantile(before: &[(f64, f64)], after: &[(f64, f64)], p: f64) -> f64 {
    let count_before = |le: f64| before.iter().find(|(b, _)| *b == le).map_or(0.0, |(_, c)| *c);
    let delta: Vec<(f64, f64)> = after.iter().map(|&(le, c)| (le, c - count_before(le))).collect();
    let total = delta.last().map_or(0.0, |(_, c)| *c);
    if total <= 0.0 {
        return 0.0;
    }
    let rank = (p * total).ceil().max(1.0);
    delta.iter().find(|(_, c)| *c >= rank).map_or(0.0, |(le, _)| *le)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_sums_and_buckets() {
        let text = "# TYPE h histogram\n\
                    h_bucket{route=\"/a\",le=\"10\"} 2\n\
                    h_bucket{route=\"/a\",le=\"+Inf\"} 4\n\
                    h_bucket{route=\"/a\",le=\"100\"} 3\n\
                    h_sum{route=\"/a\"} 170\n\
                    errs{route=\"/a\"} 1\nerrs{route=\"/b\"} 2\n";
        let e = Exposition::parse(text);
        assert_eq!(e.sum("errs", ""), 3.0);
        assert_eq!(e.sum("h_sum", "/a"), 170.0);
        let b = e.buckets("h", "route=\"/a\"");
        assert_eq!(b, vec![(10.0, 2.0), (100.0, 3.0), (f64::INFINITY, 4.0)]);
        assert_eq!(bucket_quantile(&[], &b, 0.5), 10.0);
        assert_eq!(bucket_quantile(&[], &b, 0.75), 100.0);
        // Only the samples after the first snapshot count.
        assert_eq!(
            bucket_quantile(&[(10.0, 2.0), (100.0, 2.0), (f64::INFINITY, 2.0)], &b, 0.5),
            100.0
        );
    }
}
