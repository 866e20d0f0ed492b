//! The JSON byte cursor and string escaper behind the workspace's
//! fixed-schema formats: span JSONL ([`crate::trace`]) and the bench
//! crate's `BENCH_*.json` reports.
//!
//! The workspace is offline (there is no serde_json), so each format
//! emits its fields in one fixed order and parses exactly that layout
//! with a [`Cursor`]. Every parse error names the byte offset of the first
//! deviation: `byte N: …`.

use std::fmt::Write as _;

/// Appends `s` to `out` with JSON string escaping (no surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A forward-only cursor over the bytes of one JSON document.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Cursor {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    /// An error naming the current byte offset.
    ///
    /// # Errors
    ///
    /// Always: `byte N: {what}`.
    pub fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("byte {}: {what}", self.pos))
    }

    /// The byte under the cursor, if any.
    pub fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Steps past the byte under the cursor.
    pub fn bump(&mut self) {
        self.pos += 1;
    }

    /// True once every byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Consumes the byte `c`.
    ///
    /// # Errors
    ///
    /// When the next byte is not `c`.
    pub fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected {:?}", c as char))
        }
    }

    /// Consumes the literal `s`.
    ///
    /// # Errors
    ///
    /// When the remaining input does not start with `s`.
    pub fn expect_str(&mut self, s: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Ok(())
        } else {
            self.fail(&format!("expected {s:?}"))
        }
    }

    /// Consumes one quoted string and returns it unescaped.
    ///
    /// # Errors
    ///
    /// On a missing quote, an unterminated string or a bad escape.
    pub fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return self.fail("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|e| e.to_string())?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|e| format!("\\u: {e}"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad codepoint {code:#x}"))?,
                            );
                            self.pos += 4;
                        }
                        other => return self.fail(&format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 character.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("empty string tail")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Consumes the longest run of number characters (digits, sign, `.`,
    /// exponent) and returns it unparsed.
    ///
    /// # Errors
    ///
    /// When no number character is under the cursor.
    pub fn number_text(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        if start == self.pos {
            return self.fail("expected a number");
        }
        std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaped_strings_parse_back() {
        let original = "quote\" slash\\ nl\n cr\r tab\t bell\u{7} ünï";
        let mut json = String::from("\"");
        escape_into(&mut json, original);
        json.push('"');
        let mut cursor = Cursor::new(&json);
        assert_eq!(cursor.parse_string().unwrap(), original);
        assert!(cursor.at_end());
    }

    #[test]
    fn errors_name_the_byte_offset() {
        let mut cursor = Cursor::new("{\"a\":x}");
        cursor.expect_str("{\"a\":").unwrap();
        assert_eq!(
            cursor.number_text().unwrap_err(),
            "byte 5: expected a number"
        );
        assert_eq!(
            Cursor::new("1").parse_string().unwrap_err(),
            "byte 0: expected '\"'"
        );
    }
}
