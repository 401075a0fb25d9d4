//! The load client: one keep-alive connection sending requests encoded
//! once at set-up. Its timed path writes bytes, reads the response, parses
//! the numbers and compares them with the in-process reference; it never
//! encodes JSON, so it takes as little CPU from the server as it can.

use sls_serve::http::{self, Response};
use sls_serve::{Client, ServeError};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// What a response must contain to verify.
pub enum Expect {
    /// Hidden features, row-major, as `f64` bit patterns.
    Features(Vec<u64>),
    /// One cluster label per row.
    Assign(Vec<usize>),
}

/// One inference request, encoded once.
pub struct Op {
    pub bytes: Vec<u8>,
    pub expect: Expect,
}

/// Encodes a complete HTTP/1.1 request (keep-alive is the default).
pub fn encode_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A keep-alive connection that reconnects after the server announces
/// `Connection: close` (by default every 1000 requests).
pub struct Conn {
    addr: SocketAddr,
    stream: Option<(TcpStream, BufReader<TcpStream>)>,
    /// Connections opened so far, the first included.
    pub opened: usize,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            opened: 0,
        }
    }

    fn connected(&mut self) -> io::Result<&mut (TcpStream, BufReader<TcpStream>)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
            self.stream = Some((stream, reader));
            self.opened += 1;
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Writes the pre-encoded `request` and reads the whole response.
    pub fn exchange(&mut self, request: &[u8]) -> Result<Response, ServeError> {
        let result = self
            .connected()
            .map_err(ServeError::from)
            .and_then(|(stream, reader)| {
                stream.write_all(request)?;
                http::read_response_meta(reader)
            });
        match result {
            Ok((response, close)) => {
                if close {
                    self.stream = None;
                }
                Ok(response)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// One-shot `GET` on a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> Result<Response, ServeError> {
    Client::new(addr).request("GET", path, "")
}

/// Calls `f` on each number inside the JSON array that follows `key`,
/// stopping at the array's closing bracket. Returns how many numbers were
/// seen, or `None` when the key is missing or `f` rejects a number.
fn each_number(body: &[u8], key: &str, mut f: impl FnMut(usize, &str) -> bool) -> Option<usize> {
    let start = find(body, key.as_bytes())? + key.len();
    let mut depth = 0usize;
    let mut count = 0usize;
    let mut i = start;
    while i < body.len() {
        match body[i] {
            b'[' => depth += 1,
            b']' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(count);
                }
            }
            b'-' | b'0'..=b'9' => {
                let from = i;
                while i < body.len()
                    && matches!(body[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                let token = std::str::from_utf8(&body[from..i]).ok()?;
                if !f(count, token) {
                    return None;
                }
                count += 1;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    None
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Checks a 200 inference body: the model name, the registry generation
/// and every value bitwise against the reference.
pub fn verify(body: &[u8], expect: &Expect, model: &str, generation: u64) -> Result<(), String> {
    if find(body, format!("\"model\":\"{model}\"").as_bytes()).is_none() {
        return Err(format!("response does not name model `{model}`"));
    }
    let key = b"\"generation\":";
    let served = find(body, key).and_then(|at| {
        let digits: Vec<u8> = body[at + key.len()..]
            .iter()
            .copied()
            .take_while(u8::is_ascii_digit)
            .collect();
        std::str::from_utf8(&digits).ok()?.parse::<u64>().ok()
    });
    if served != Some(generation) {
        return Err(format!(
            "response is from generation {served:?}, expected {generation}"
        ));
    }
    let (count, wanted) = match expect {
        Expect::Features(bits) => (
            each_number(body, "\"features\":", |i, token| {
                token
                    .parse::<f64>()
                    .is_ok_and(|x| bits.get(i) == Some(&x.to_bits()))
            }),
            bits.len(),
        ),
        Expect::Assign(labels) => (
            each_number(body, "\"assignments\":", |i, token| {
                token
                    .parse::<usize>()
                    .is_ok_and(|x| labels.get(i) == Some(&x))
            }),
            labels.len(),
        ),
    };
    match count {
        Some(n) if n == wanted => Ok(()),
        Some(n) => Err(format!("response has {n} values, expected {wanted}")),
        None => Err("response values differ from the in-process reference".to_string()),
    }
}
