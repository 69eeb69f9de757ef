//! Server-Sent Events framing: the encoder the daemon streams with and
//! the incremental parser clients (`campaign_report --follow`, the e2e
//! tests, the CI smoke job) reassemble frames with.
//!
//! Only the subset of the SSE wire format the daemon emits is
//! implemented: `event:` / `data:` fields, comment lines (`:`), and the
//! blank-line frame terminator. Multi-line `data:` fields concatenate
//! with `\n` per the spec. The parser is incremental — feed it bytes in
//! arbitrary fragments and it yields each frame exactly once, no matter
//! where the fragment boundaries fall (property-tested in
//! `tests/serve_proto.rs`).

/// One decoded SSE frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SseFrame {
    /// The `event:` field, if the frame carried one.
    pub event: Option<String>,
    /// The concatenated `data:` payload.
    pub data: String,
}

/// Encodes one payload as an SSE frame. Embedded newlines become
/// multiple `data:` lines so any spec-compliant client reassembles the
/// original payload byte for byte.
#[must_use]
pub fn encode_frame(event: Option<&str>, data: &str) -> String {
    let mut out = String::new();
    if let Some(name) = event {
        out.push_str("event: ");
        out.push_str(name);
        out.push('\n');
    }
    for line in data.split('\n') {
        out.push_str("data: ");
        out.push_str(line);
        out.push('\n');
    }
    out.push('\n');
    out
}

/// Incremental SSE frame reassembler.
///
/// # Examples
///
/// ```
/// use hfl_serve::sse::{encode_frame, SseParser};
///
/// let wire = encode_frame(None, "{\"type\":\"round_start\"}");
/// let mut parser = SseParser::new();
/// // Feed the wire bytes one at a time — frames still come out whole.
/// let mut frames = Vec::new();
/// for byte in wire.as_bytes() {
///     frames.extend(parser.push(std::slice::from_ref(byte)));
/// }
/// assert_eq!(frames.len(), 1);
/// assert_eq!(frames[0].data, "{\"type\":\"round_start\"}");
/// ```
#[derive(Debug, Default)]
pub struct SseParser {
    buf: String,
    pending_event: Option<String>,
    pending_data: Vec<String>,
}

impl SseParser {
    /// A parser with no buffered input.
    #[must_use]
    pub fn new() -> SseParser {
        SseParser::default()
    }

    /// Consumes a fragment of the byte stream, returning every frame it
    /// completed. Invalid UTF-8 bytes are replaced (the daemon only
    /// emits UTF-8, so this only fires on corrupt streams).
    pub fn push(&mut self, bytes: &[u8]) -> Vec<SseFrame> {
        self.buf.push_str(&String::from_utf8_lossy(bytes));
        let mut frames = Vec::new();
        // Consume complete lines; whatever trails the last newline stays
        // buffered until the next push.
        while let Some(pos) = self.buf.find('\n') {
            let mut line: String = self.buf.drain(..=pos).collect();
            line.pop();
            if line.ends_with('\r') {
                line.pop();
            }
            if let Some(frame) = self.take_line(&line) {
                frames.push(frame);
            }
        }
        frames
    }

    /// Processes one complete line; a blank line flushes the pending
    /// frame.
    fn take_line(&mut self, line: &str) -> Option<SseFrame> {
        if line.is_empty() {
            if self.pending_event.is_none() && self.pending_data.is_empty() {
                return None;
            }
            let frame = SseFrame {
                event: self.pending_event.take(),
                data: self.pending_data.join("\n"),
            };
            self.pending_data.clear();
            return Some(frame);
        }
        if line.starts_with(':') {
            return None; // comment / keep-alive
        }
        let (field, value) = match line.split_once(':') {
            Some((f, v)) => (f, v.strip_prefix(' ').unwrap_or(v)),
            None => (line, ""),
        };
        match field {
            "event" => self.pending_event = Some(value.to_owned()),
            "data" => self.pending_data.push(value.to_owned()),
            _ => {} // id/retry/unknown fields are ignored
        }
        None
    }
}

/// A blocking SSE client over a plain TCP stream: connects, issues the
/// GET, strips the HTTP head, and yields frames as they arrive. Used by
/// `campaign_report --follow` and the CI smoke tooling.
#[derive(Debug)]
pub struct SseClient {
    stream: std::net::TcpStream,
    parser: SseParser,
    queue: std::collections::VecDeque<SseFrame>,
    head: Vec<u8>,
    head_done: bool,
}

impl SseClient {
    /// Connects to `addr` (e.g. `127.0.0.1:7700`) and subscribes to
    /// `path` (e.g. `/jobs/3/events`).
    pub fn connect(addr: &str, path: &str) -> std::io::Result<SseClient> {
        use std::io::Write as _;
        let mut stream = std::net::TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(std::time::Duration::from_millis(250)))?;
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: {addr}\r\nAccept: text/event-stream\r\nConnection: close\r\n\r\n"
        )?;
        stream.flush()?;
        Ok(SseClient {
            stream,
            parser: SseParser::new(),
            queue: std::collections::VecDeque::new(),
            head: Vec::new(),
            head_done: false,
        })
    }

    /// The next frame: `Ok(Some(frame))` when one arrived, `Ok(None)`
    /// on a poll timeout (call again), `Err` when the server closed the
    /// stream or rejected the subscription.
    pub fn next_frame(&mut self) -> std::io::Result<Option<SseFrame>> {
        use std::io::Read as _;
        if let Some(frame) = self.queue.pop_front() {
            return Ok(Some(frame));
        }
        let mut buf = [0u8; 4096];
        let n = match self.stream.read(&mut buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the event stream",
                ))
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Ok(None)
            }
            Err(e) => return Err(e),
        };
        let chunk: Vec<u8> = if self.head_done {
            buf[..n].to_vec()
        } else {
            self.head.extend_from_slice(&buf[..n]);
            let Some(pos) = self.head.windows(4).position(|w| w == b"\r\n\r\n") else {
                return Ok(None);
            };
            let head_text = String::from_utf8_lossy(&self.head[..pos]);
            let status = head_text
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse::<u16>().ok())
                .unwrap_or(0);
            if status != 200 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    format!("subscription rejected: HTTP {status}"),
                ));
            }
            self.head_done = true;
            self.head.split_off(pos + 4)
        };
        self.queue.extend(self.parser.push(&chunk));
        Ok(self.queue.pop_front())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_multiline_payloads() {
        let payload = "line one\nline two\n\nline four";
        let wire = encode_frame(Some("end"), payload);
        let mut parser = SseParser::new();
        let frames = parser.push(wire.as_bytes());
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].event.as_deref(), Some("end"));
        assert_eq!(frames[0].data, payload);
    }

    #[test]
    fn comments_and_unknown_fields_are_skipped() {
        let wire = ": keep-alive\nid: 4\ndata: x\n\n";
        let frames = SseParser::new().push(wire.as_bytes());
        assert_eq!(
            frames,
            vec![SseFrame {
                event: None,
                data: String::from("x")
            }]
        );
    }

    #[test]
    fn frames_survive_any_split_point() {
        let wire = format!(
            "{}{}",
            encode_frame(None, "{\"a\":1}"),
            encode_frame(Some("lag"), "{\"missed\":3}")
        );
        let bytes = wire.as_bytes();
        for split in 0..=bytes.len() {
            let mut parser = SseParser::new();
            let mut frames = parser.push(&bytes[..split]);
            frames.extend(parser.push(&bytes[split..]));
            assert_eq!(frames.len(), 2, "split at {split}");
            assert_eq!(frames[0].data, "{\"a\":1}");
            assert_eq!(frames[1].event.as_deref(), Some("lag"));
        }
    }
}
