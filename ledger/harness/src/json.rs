//! A linear-time JSON reader for reply lines.
//!
//! `pegwire::json::Json::parse` re-validates the UTF-8 of the whole rest
//! of its input for every string character, so its cost grows with the
//! square of the input: an 820 KB query reply takes seconds. The client
//! threads decode each reply between requests, so that cost would throttle
//! the closed loop. Replies are read here instead, the `matches` array
//! straight into [`WireMatch`]es and everything else into the same `Json`
//! tree. Numbers go through `str::parse::<f64>` exactly as in `pegwire`,
//! so the f64 bits agree.

use crate::client::WireMatch;
use pegwire::json::Json;

const MAX_DEPTH: usize = 128;

/// Reads a reply object; its `matches` array, when present, comes back
/// decoded and is left out of the tree.
pub fn parse_reply(text: &str) -> Result<(Json, Option<Vec<WireMatch>>), String> {
    let mut r = Reader { s: text.as_bytes(), pos: 0 };
    r.eat(b'{')?;
    let mut fields = Vec::new();
    let mut matches = None;
    if !r.close(b'}') {
        loop {
            r.ws();
            let key = r.string()?;
            r.eat(b':')?;
            if key == "matches" {
                matches = Some(r.matches()?);
            } else {
                fields.push((key, r.value(1)?));
            }
            if r.close(b'}') {
                break;
            }
            r.eat(b',')?;
        }
    }
    r.ws();
    if r.pos != r.s.len() {
        return r.err("trailing characters");
    }
    Ok((Json::Obj(fields), matches))
}

struct Reader<'a> {
    s: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn ws(&mut self) {
        while matches!(self.s.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.ws();
        let rest = &self.s[self.pos..];
        for (word, v) in
            [("null", Json::Null), ("true", Json::Bool(true)), ("false", Json::Bool(false))]
        {
            if rest.starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(v);
            }
        }
        match rest.first() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.close(b']') {
                    loop {
                        items.push(self.value(depth + 1)?);
                        if self.close(b']') {
                            break;
                        }
                        self.eat(b',')?;
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                if !self.close(b'}') {
                    loop {
                        self.ws();
                        let key = self.string()?;
                        self.eat(b':')?;
                        fields.push((key, self.value(depth + 1)?));
                        if self.close(b'}') {
                            break;
                        }
                        self.eat(b',')?;
                    }
                }
                Ok(Json::Obj(fields))
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            _ => self.err("expected a JSON value"),
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        self.ws();
        let start = self.pos;
        while matches!(self.s.get(self.pos), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.pos]).expect("ascii");
        text.parse::<f64>().map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    /// `[{"nodes":[..],"prle":x,"prn":y,...}, ...]`, other members skipped.
    fn matches(&mut self) -> Result<Vec<WireMatch>, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        if self.close(b']') {
            return Ok(out);
        }
        loop {
            self.eat(b'{')?;
            let (mut nodes, mut prle, mut prn) = (None, None, None);
            if !self.close(b'}') {
                loop {
                    self.ws();
                    match self.string()?.as_str() {
                        "nodes" => {
                            self.eat(b':')?;
                            nodes = Some(self.ids()?);
                        }
                        "prle" => {
                            self.eat(b':')?;
                            prle = Some(self.number()?.to_bits());
                        }
                        "prn" => {
                            self.eat(b':')?;
                            prn = Some(self.number()?.to_bits());
                        }
                        _ => {
                            self.eat(b':')?;
                            self.value(3)?;
                        }
                    }
                    if self.close(b'}') {
                        break;
                    }
                    self.eat(b',')?;
                }
            }
            match (nodes, prle, prn) {
                (Some(nodes), Some(prle), Some(prn)) => out.push(WireMatch { nodes, prle, prn }),
                _ => return self.err("match without nodes, prle and prn"),
            }
            if self.close(b']') {
                return Ok(out);
            }
            self.eat(b',')?;
        }
    }

    /// An array of entity ids.
    fn ids(&mut self) -> Result<Vec<u32>, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        if self.close(b']') {
            return Ok(out);
        }
        loop {
            let x = self.number()?;
            if !(x >= 0.0 && x <= u32::MAX as f64 && x.fract() == 0.0) {
                return self.err("entity id out of range");
            }
            out.push(x as u32);
            if self.close(b']') {
                return Ok(out);
            }
            self.eat(b',')?;
        }
    }

    /// Consumes `b` if it is the next non-blank byte.
    fn close(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.pos) == Some(&b);
        self.pos += usize::from(hit);
        hit
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.pos) != Some(&b'"') {
            return self.err("expected a string");
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.s.get(self.pos) else { return self.err("unterminated string") };
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let Some(&e) = self.s.get(self.pos) else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    let c = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok());
                            let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                            self.pos += 4;
                            // Replies carry no surrogate pairs; a lone one
                            // reads as U+FFFD.
                            code.map_or('\u{fffd}', |c| char::from_u32(c).unwrap_or('\u{fffd}'))
                        }
                        _ => return self.err("unknown escape"),
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                }
                _ => out.push(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agrees_with_pegwire() {
        for text in [
            r#"{"ok":true,"n":2,"s":"a\"é\u00e9","x":[null,false,[1,[2,{}]]],"f":-0.0,"g":1e-7}"#,
            "{}",
        ] {
            let (tree, matches) = parse_reply(text).unwrap();
            assert!(matches.is_none());
            assert_eq!(tree.to_string(), Json::parse(text).unwrap().to_string(), "{text}");
        }
        let (rest, matches) = parse_reply(
            r#"{"ok":true,"matches":[{"nodes":[3,1],"prle":0.25,"x":[{}],"prn":1e-300,"prob":0}],"id":7}"#,
        )
        .unwrap();
        assert_eq!(rest.to_string(), r#"{"ok":true,"id":7}"#);
        let m = &matches.unwrap()[0];
        assert_eq!(
            (m.nodes.as_slice(), m.prle, m.prn),
            (&[3u32, 1][..], 0.25f64.to_bits(), 1e-300f64.to_bits())
        );
        for bad in
            [r#"{"matches":[{"nodes":[-1],"prle":0,"prn":0}]}"#, "{", r#"{"a":[1,]}"#, "{} 2"]
        {
            assert!(parse_reply(bad).is_err(), "{bad}");
        }
    }
}
