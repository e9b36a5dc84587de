//! The load generator's side of the line protocol: one TCP connection,
//! raw request bytes out, raw reply lines in, and byte-exact answer checks.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
}

impl Conn {
    /// Connects to `addr`.  `TCP_NODELAY` is set on this side so nothing
    /// the client does delays a request; the server's sockets are as the
    /// program leaves them.
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let reader = writer
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, reader),
            writer,
            line: Vec::new(),
        })
    }

    /// Writes `bytes` (one or more newline-terminated request lines) in one
    /// call.
    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one reply line, without its newline.
    pub fn recv(&mut self) -> Result<&[u8], String> {
        self.line.clear();
        match self.reader.read_until(b'\n', &mut self.line) {
            Ok(0) => Err("server closed the connection".to_owned()),
            Ok(_) if self.line.last() == Some(&b'\n') => Ok(&self.line[..self.line.len() - 1]),
            Ok(_) => Err("reply cut short before its newline".to_owned()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Sends one request line and reads its reply.
    pub fn roundtrip(&mut self, line: &[u8]) -> Result<&[u8], String> {
        self.send(line)?;
        self.recv()
    }
}

/// Splits an answer (or error) frame into the frame without its trace id
/// and the id: `…,"trace":"q-000042"}` → (`…`, `q-000042`).  The returned
/// prefix lacks the closing brace.  `None` if the frame does not end in a
/// well-formed trace field.
///
/// Only the tail is inspected: the server appends `trace` last, and inside
/// a JSON string a quote is always escaped, so the unescaped pattern cannot
/// occur in row data.
pub fn strip_trace(frame: &[u8]) -> Option<(&[u8], &str)> {
    const KEY: &[u8] = b",\"trace\":\"";
    let body = frame.strip_suffix(b"\"}")?;
    let at = body.windows(KEY.len()).rposition(|w| w == KEY)?;
    let id = std::str::from_utf8(&body[at + KEY.len()..]).ok()?;
    let digits = id.strip_prefix("q-")?;
    (!digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())).then_some((&body[..at], id))
}

/// True if `reply`, with its trace id stripped, is byte-for-byte the
/// `expected` frame.
pub fn is_expected(reply: &[u8], expected: &[u8]) -> bool {
    match (strip_trace(reply), expected.strip_suffix(b"}")) {
        (Some((prefix, _)), Some(expected_prefix)) => prefix == expected_prefix,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_a_trailing_trace_id() {
        let frame = br#"{"ok":true,"op":"answer","attrs":["A"],"tuples":1,"rows":[[1]],"trace":"q-000042"}"#;
        let (prefix, id) = strip_trace(frame).unwrap();
        assert_eq!(id, "q-000042");
        assert_eq!(
            prefix,
            br#"{"ok":true,"op":"answer","attrs":["A"],"tuples":1,"rows":[[1]]"#
        );
        assert!(is_expected(
            frame,
            br#"{"ok":true,"op":"answer","attrs":["A"],"tuples":1,"rows":[[1]]}"#
        ));
    }

    #[test]
    fn rejects_frames_without_a_well_formed_trace() {
        for frame in [
            &br#"{"ok":true,"op":"pong"}"#[..],
            br#"{"rows":[[1]],"trace":"x-1"}"#,
            br#"{"rows":[[1]],"trace":"q-"}"#,
            br#"{"rows":[[1]],"trace":"q-12"#,
            b"",
        ] {
            assert!(strip_trace(frame).is_none(), "{frame:?}");
        }
    }

    #[test]
    fn a_trace_lookalike_inside_row_data_is_not_the_trace() {
        // The quote inside a JSON string is escaped, so only the real,
        // final field matches.
        let frame = br#"{"rows":[[",\"trace\":\"q-1"]],"trace":"q-000007"}"#;
        let (prefix, id) = strip_trace(frame).unwrap();
        assert_eq!(id, "q-000007");
        assert!(prefix.ends_with(br#"q-1"]]"#));
    }

    #[test]
    fn any_differing_byte_fails_the_check() {
        let expected = br#"{"rows":[[1],[2]]}"#;
        assert!(is_expected(
            br#"{"rows":[[1],[2]],"trace":"q-000001"}"#,
            expected
        ));
        assert!(!is_expected(
            br#"{"rows":[[1],[3]],"trace":"q-000001"}"#,
            expected
        ));
        assert!(!is_expected(
            br#"{"rows":[[1]],"trace":"q-000001"}"#,
            expected
        ));
        assert!(!is_expected(expected, expected));
    }
}
