//! The benchmark's own network clients: a keep-alive HTTP/1.1 client
//! and a line-protocol client, each over one `TcpStream`. They know
//! transport framing only; paths and bodies come from `sut`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// No reply within this long is a failure, not a hang.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
    Ok((stream, reader))
}

fn bad(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.to_string())
}

pub struct HttpClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<HttpClient> {
        let (stream, reader) = connect(addr)?;
        Ok(HttpClient {
            stream,
            reader,
            line: String::new(),
        })
    }

    /// One request and its reply on the kept-alive connection: the
    /// status code, and the body read into `body` (cleared first).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        payload: &str,
        body: &mut Vec<u8>,
    ) -> std::io::Result<u16> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        );
        self.stream.write_all(request.as_bytes())?;
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        let status: u16 = self
            .line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed HTTP status line"))?;
        let mut length = 0usize;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(bad("connection closed inside the response head"));
            }
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad Content-Length"))?;
                }
            }
        }
        body.clear();
        body.resize(length, 0);
        self.reader.read_exact(body)?;
        Ok(status)
    }
}

pub struct LineClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LineClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<LineClient> {
        let (stream, reader) = connect(addr)?;
        Ok(LineClient { stream, reader })
    }

    /// Sends one request line (newline included) and reads one reply line.
    pub fn request(&mut self, line: &str, reply: &mut String) -> std::io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        reply.clear();
        if self.reader.read_line(reply)? == 0 {
            return Err(bad("connection closed before the reply"));
        }
        Ok(())
    }
}
