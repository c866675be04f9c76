//! A linear-time reader for the JSON `gsampler_obs` writes, producing the
//! same [`Json`] values. `gsampler_obs::json::Json::parse` re-validates
//! the rest of the document for every string character, which takes
//! seconds on a one-megabyte trace; a traced run's timeline is several
//! times that. Small documents (`BENCHMARK.json`, run records) still go
//! through the program's own parser.

use gsampler_obs::json::Json;

pub fn parse(text: &str) -> Result<Json, String> {
    let mut r = Reader {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = r.value()?;
    r.skip_ws();
    if r.pos == r.bytes.len() {
        Ok(value)
    } else {
        Err(format!("trailing data at byte {}", r.pos))
    }
}

struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    /// After an element: `,` continues, `close` ends.
    fn more(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(&c) if c == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(format!(
                "expected `,` or `{}` at byte {}",
                close as char, self.pos
            )),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if !self.more(b']')? {
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.literal(":", Json::Null)?;
                    fields.push((key, self.value()?));
                    if !self.more(b'}')? {
                        return Ok(Json::Obj(fields));
                    }
                }
            }
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                self.text[start..self.pos]
                    .parse()
                    .map(Json::Num)
                    .map_err(|_| format!("invalid number at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one piece;
            // both are ASCII, so the cut is on a character boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let escape = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            out.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .ok_or("truncated \\u escape")?;
                    self.pos += 4;
                    let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
            });
        }
    }
}
