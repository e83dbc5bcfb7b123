//! A minimal JSON value: parse and serialize, no external dependencies
//! (offline-shim policy — the container cannot fetch `serde`).
//!
//! Scope is exactly what the wire protocol needs:
//!
//! * Objects keep **insertion order** (a `Vec` of pairs), so a response
//!   built in a fixed field order serializes byte-identically run after
//!   run — the e2e tier asserts byte-determinism on whole response
//!   lines.
//! * Numbers are `f64`. Serialization uses the crate's own printer,
//!   byte-identical to Rust's shortest round-trip `Display`: it never
//!   produces exponents and re-parses to the identical bits, so tensor
//!   values survive a response/request cycle bit-for-bit. Non-finite
//!   numbers serialize as `null` (JSON has no representation for them;
//!   the protocol layer rejects them earlier).
//! * A line too large to build as a tree first — the `run` reply — is
//!   written straight into bytes by a `Writer`, through the same
//!   escaper and the same number printer as the tree.
//! * Parsing is hardened against adversarial input: truncated or
//!   malformed text returns [`JsonError`] (never panics), trailing
//!   garbage after the top-level value is an error, and nesting deeper
//!   than [`MAX_DEPTH`] is rejected instead of overflowing the stack.
//! * Bulk numbers skip the tree: [`Document::parse`] reads the named
//!   top-level fields of an object straight into flat [`Cells`] when
//!   they are numeric arrays (a `register_tensor`'s `coo` rows or
//!   `dense` values), with no `Json` node per number and no `Vec` per
//!   row. Anything else under those names parses into the tree exactly
//!   as [`Json::parse`] would, so its errors and their offsets are
//!   unchanged.

use std::fmt;

use crate::shortest;

/// Maximum nesting depth the parser accepts. Deep enough for any real
/// request; shallow enough that a hostile `[[[[…` line cannot blow the
/// parse stack.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON value spanning the whole input (surrounding
    /// whitespace allowed, trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for malformed, truncated, or
    /// too-deeply-nested input.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the value"));
        }
        Ok(v)
    }

    /// Field lookup on an object (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer (see
    /// [`exact_u64`]).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    /// [`Json::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The pair list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// `n` as an exact non-negative integer: `None` for fractions,
/// negatives, non-finite values and magnitudes above 2^53, where `f64`
/// stops being exact.
pub fn exact_u64(n: f64) -> Option<u64> {
    // In range, `as` truncates toward zero, so the round trip holds
    // exactly for the integers (and -0, which reads as 0).
    let int = n as u64;
    ((0.0..=9_007_199_254_740_992.0).contains(&n) && int as f64 == n).then_some(int)
}

/// A numeric array read without a tree: `width` numbers a row, row
/// after row, in one flat buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct Cells {
    /// `None` for a flat `[v, …]`; `Some(w)` for rows `[[c…, v], …]`
    /// of `w ≥ 1` numbers each.
    pub width: Option<usize>,
    /// The numbers, row-major. A `"inf"`, `"-inf"` or `"nan"` string —
    /// the spelling of a non-finite value on the wire and in journal
    /// records — reads as that `f64`.
    pub values: Vec<f64>,
}

/// A JSON value whose named top-level object fields were read as
/// [`Cells`] where they could be.
#[derive(Clone, Debug, PartialEq)]
pub struct Document {
    /// Everything that was not read as cells.
    pub tree: Json,
    /// The first field under each requested key whose value is a
    /// numeric array (flat, or rows of one width ≥ 1), in input order.
    /// Such a field is absent from `tree`; a later field with the same
    /// key, or one that is not cell-shaped, stays in `tree`.
    pub cells: Vec<(&'static str, Cells)>,
}

impl Document {
    /// Parses like [`Json::parse`] — same acceptance, same errors at
    /// the same offsets — but reads each top-level field named in
    /// `keys` into [`Cells`] when it is cell-shaped. A number cell goes
    /// through the same reader as a tree number, so it decodes to the
    /// same bits.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for malformed, truncated, or
    /// too-deeply-nested input.
    ///
    /// # Panics
    ///
    /// Panics if `keys` names more than 64 fields.
    pub fn parse(input: &str, keys: &[&'static str]) -> Result<Document, JsonError> {
        assert!(keys.len() <= 64, "at most 64 cell fields");
        let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0 };
        let mut cells = Vec::new();
        p.skip_ws();
        let tree =
            if p.peek() == Some(b'{') { p.object(0, keys, &mut cells)? } else { p.value(0)? };
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the value"));
        }
        Ok(Document { tree, cells })
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => shortest::write(f, *n),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (k, (key, value)) in pairs.iter().enumerate() {
                    if k > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{8}' => f.write_str("\\b")?,
            '\u{c}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_str("\"")
}

/// A JSON line written straight into bytes, piece by piece, for a
/// reply too large to build as a [`Json`] tree first. Strings go
/// through the tree's escaper and numbers through its printer, so the
/// same content gives the same bytes either way.
pub(crate) struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    /// An empty line with room for `capacity` bytes.
    pub(crate) fn with_capacity(capacity: usize) -> Writer {
        Writer { bytes: Vec::with_capacity(capacity) }
    }

    /// Appends JSON text as it is: punctuation and fixed keys.
    pub(crate) fn raw(&mut self, text: &str) -> &mut Writer {
        self.bytes.extend_from_slice(text.as_bytes());
        self
    }

    /// Appends `s` as a quoted, escaped JSON string.
    pub(crate) fn str(&mut self, s: &str) -> &mut Writer {
        write_escaped(self, s).expect("writing to a Vec cannot fail");
        self
    }

    /// Appends a number as [`Json::Num`] prints it.
    pub(crate) fn num(&mut self, n: f64) -> &mut Writer {
        if n.is_finite() {
            shortest::push(&mut self.bytes, n);
        } else {
            self.raw("null");
        }
        self
    }

    /// Appends `items` comma-separated, each written by `put`.
    pub(crate) fn list<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut put: impl FnMut(&mut Writer, T),
    ) -> &mut Writer {
        for (k, item) in items.into_iter().enumerate() {
            if k > 0 {
                self.raw(",");
            }
            put(self, item);
        }
        self
    }

    /// The finished line.
    pub(crate) fn finish(self) -> String {
        String::from_utf8(self.bytes).expect("every piece written is UTF-8")
    }
}

impl fmt::Write for Writer {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.raw(s);
        Ok(())
    }
}

/// A line that a [`Writer`] wrote, read back piece by piece with the
/// same calls and no tree: a piece that is not there reads as `None`.
/// Strings and numbers go through the tree parser's own readers.
pub(crate) struct Reader<'a> {
    p: Parser<'a>,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `line`.
    pub(crate) fn new(line: &'a str) -> Reader<'a> {
        Reader { p: Parser { text: line, bytes: line.as_bytes(), pos: 0 } }
    }

    /// The byte offset of the next piece.
    pub(crate) fn pos(&self) -> usize {
        self.p.pos
    }

    /// Consumes `text` exactly.
    pub(crate) fn raw(&mut self, text: &str) -> Option<()> {
        self.p.bytes[self.p.pos..].starts_with(text.as_bytes()).then(|| self.p.pos += text.len())
    }

    /// A quoted JSON string, unescaped.
    pub(crate) fn str(&mut self) -> Option<String> {
        self.p.string().ok()
    }

    /// A JSON number, as [`Json::parse`] reads it.
    pub(crate) fn num(&mut self) -> Option<f64> {
        match self.p.peek()? {
            b'-' | b'0'..=b'9' => self.p.number().ok(),
            _ => None,
        }
    }

    /// Comma-separated items, each read by `get`, up to (not past)
    /// `close`; none when `close` is next.
    pub(crate) fn list(
        &mut self,
        close: u8,
        mut get: impl FnMut(&mut Reader<'a>) -> Option<()>,
    ) -> Option<()> {
        if self.p.peek() == Some(close) {
            return Some(());
        }
        loop {
            get(self)?;
            if self.p.eat(b',').is_none() {
                return Some(());
            }
        }
    }

    /// One value exactly as the shortest printer writes it, or a
    /// non-finite value's spelling — `-?(0|[1-9][0-9]*)(\.[0-9]*[1-9])?`,
    /// `"inf"`, `"-inf"` or `"nan"` — whose number reads as a finite
    /// `f64`. A longer run of number characters (`01`, `1.50`, `1e5`)
    /// leaves the rest unread for the caller to refuse.
    pub(crate) fn printed(&mut self) -> Option<()> {
        let rest = &self.p.bytes[self.p.pos..];
        if *rest.first()? == b'"' {
            let text = NON_FINITE.iter().find(|text| rest.starts_with(text.as_bytes()))?;
            self.p.pos += text.len();
            return Some(());
        }
        let digits = |from: usize| rest[from..].iter().take_while(|c| c.is_ascii_digit()).count();
        let sign = usize::from(rest[0] == b'-');
        let int = match digits(sign) {
            0 => return None,
            n if n > 1 && rest[sign] == b'0' => return None,
            n => n,
        };
        let mut end = sign + int;
        if rest.get(end) == Some(&b'.') {
            let fraction = digits(end + 1);
            if fraction == 0 || rest[end + fraction] == b'0' {
                return None;
            }
            end += 1 + fraction;
        }
        // Below 10^308 every such number is finite; longer ones go
        // through the number reader to see whether they overflow.
        if int > 308 {
            Reader::new(&self.p.text[self.p.pos..self.p.pos + end]).num()?;
        }
        self.p.pos += end;
        Some(())
    }

    /// Whether the whole line was read.
    pub(crate) fn at_end(&self) -> bool {
        self.p.pos == self.p.bytes.len()
    }
}

/// The wire spellings of the non-finite values, as JSON strings.
const NON_FINITE: [&str; 3] = ["\"inf\"", "\"-inf\"", "\"nan\""];

/// The value of one token [`Reader::printed`] accepted.
///
/// # Panics
///
/// If `text` is not such a token.
pub(crate) fn printed_value(text: &str) -> f64 {
    match text {
        "\"inf\"" => f64::INFINITY,
        "\"-inf\"" => f64::NEG_INFINITY,
        "\"nan\"" => f64::NAN,
        number => Reader::new(number).num().expect("a printed token reads as a number"),
    }
}

struct Parser<'a> {
    /// The input, for slicing out number text without re-validating it.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { at: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn keyword(&mut self, kw: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{kw}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => self.object(depth, &[], &mut Vec::new()),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
        }
    }

    /// An object at `pos` (at `depth`); its fields named in `keys` are
    /// read into `cells` where they are cell-shaped (see
    /// [`Document::parse`]).
    fn object(
        &mut self,
        depth: usize,
        keys: &[&'static str],
        cells: &mut Vec<(&'static str, Cells)>,
    ) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        // Only a key's first occurrence is eligible: it is the one
        // `Json::get` would find.
        let mut seen = 0u64;
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let wanted = keys.iter().position(|k| *k == key).filter(|&at| {
                let first = seen & (1 << at) == 0;
                seen |= 1 << at;
                first
            });
            // Cells sit three levels below the object, far inside
            // MAX_DEPTH for a top-level one.
            match wanted.and_then(|at| Some((keys[at], self.cells()?))) {
                Some(read) => cells.push(read),
                None => {
                    let value = self.value(depth + 1)?;
                    pairs.push((key, value));
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// Reads a numeric array at `pos` into [`Cells`]. `None`, with
    /// `pos` left where it was, for anything else — a ragged or empty
    /// row, a non-number cell, a syntax error — which the caller then
    /// parses as a tree.
    fn cells(&mut self) -> Option<Cells> {
        let start = self.pos;
        let read = self.try_cells();
        if read.is_none() {
            self.pos = start;
        }
        read
    }

    fn try_cells(&mut self) -> Option<Cells> {
        self.skip_ws();
        self.eat(b'[')?;
        self.skip_ws();
        let mut values = Vec::new();
        if self.eat(b']').is_some() {
            return Some(Cells { width: None, values });
        }
        if self.peek() != Some(b'[') {
            self.row(&mut values)?;
            return Some(Cells { width: None, values });
        }
        let mut width = None;
        loop {
            self.skip_ws();
            self.eat(b'[')?;
            let w = self.row(&mut values)?;
            if *width.get_or_insert(w) != w {
                return None;
            }
            if self.list_end()? {
                return Some(Cells { width, values });
            }
        }
    }

    /// The cells of a non-empty list, up to and past its `]`, onto
    /// `values`; returns how many.
    fn row(&mut self, values: &mut Vec<f64>) -> Option<usize> {
        let start = values.len();
        loop {
            values.push(self.cell()?);
            if self.list_end()? {
                return Some(values.len() - start);
            }
        }
    }

    /// One cell: a number, or a non-finite value's string.
    fn cell(&mut self) -> Option<f64> {
        self.skip_ws();
        match self.peek()? {
            b'-' | b'0'..=b'9' => self.number().ok(),
            b'"' => {
                let spellings = [
                    (&b"\"inf\""[..], f64::INFINITY),
                    (&b"\"-inf\""[..], f64::NEG_INFINITY),
                    (&b"\"nan\""[..], f64::NAN),
                ];
                let rest = &self.bytes[self.pos..];
                let (text, v) = spellings.into_iter().find(|(text, _)| rest.starts_with(text))?;
                self.pos += text.len();
                Some(v)
            }
            _ => None,
        }
    }

    /// After an array element: `Some(false)` past a `,`, `Some(true)`
    /// past the closing `]`, `None` for anything else.
    fn list_end(&mut self) -> Option<bool> {
        self.skip_ws();
        let end = match self.peek()? {
            b',' => false,
            b']' => true,
            _ => return None,
        };
        self.pos += 1;
        Some(end)
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> Option<()> {
        (self.peek() == Some(b)).then(|| self.pos += 1)
    }

    /// A number at `pos`: the run of number characters, through
    /// `str::parse`. A run of at most 15 digits alone is an integer below
    /// 2^53, which `str::parse` returns exactly, so it is summed in the
    /// scan instead — the same bits, without the float parser.
    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        let (mut int, mut digits) = (0u64, 0usize);
        for &c in self.bytes[start..].iter().take_while(|c| c.is_ascii_digit()) {
            int = int.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
            digits += 1;
        }
        self.pos += digits;
        let more = |c: &u8| matches!(c, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9');
        if digits <= 15 && !self.peek().is_some_and(|c| more(&c)) {
            return Ok(int as f64);
        }
        self.pos += self.bytes[self.pos..].iter().take_while(|c| more(c)).count();
        // Number characters are ASCII, so both ends are char boundaries.
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(n),
            _ => Err(self.err(format!("invalid number `{text}`"))),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: expect \uDC00-\uDFFF.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xdc00..0xe000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy a whole UTF-8 character (the input is a &str,
                    // so boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads 4 hex digits (after `\u`), leaving `pos` past them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits after \\u")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }
}

/// Convenience constructors used by the protocol layer.
impl Json {
    /// A number from a `u64` (exact up to 2^53; the protocol's counters
    /// and handles stay far below that).
    pub fn num_u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// A number from a `usize`.
    pub fn num_usize(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// An object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        Json::parse(&v.to_string()).expect("serialized JSON reparses")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-0.0),
            Json::Num(1.5),
            Json::Num(-2.25e-3),
            Json::Num(9_007_199_254_740_992.0),
            Json::Str(String::new()),
            Json::Str("hello \"world\"\n\t\\ \u{1f600} \u{8}\u{c}\u{1}".into()),
        ] {
            assert_eq!(roundtrip(&v), v, "{v}");
        }
        // -0.0 keeps its sign bit through the round trip.
        let z = roundtrip(&Json::Num(-0.0)).as_f64().unwrap();
        assert!(z == 0.0 && z.is_sign_negative());
    }

    #[test]
    fn f64_display_is_bit_exact() {
        // The serving e2e tier depends on shortest-round-trip printing.
        for bits in
            [0x3ff0000000000001u64, 0x0000000000000001, 0x7fefffffffffffff, 0x4330000000000000]
        {
            let v = f64::from_bits(bits);
            let reparsed = roundtrip(&Json::Num(v)).as_f64().unwrap();
            assert_eq!(reparsed.to_bits(), bits, "{v}");
        }
    }

    #[test]
    fn containers_roundtrip_preserving_order() {
        let v = Json::obj([
            ("z", Json::Arr(vec![Json::Num(1.0), Json::Null, Json::Str("x".into())])),
            ("a", Json::obj([("nested", Json::Bool(false))])),
        ]);
        assert_eq!(roundtrip(&v), v);
        assert_eq!(v.to_string(), r#"{"z":[1,null,"x"],"a":{"nested":false}}"#);
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n": 3, "s": "hi", "b": true, "a": [1,2]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_usize), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None, "fractions are not integers");
        assert_eq!(Json::Num(-1.0).as_u64(), None, "negatives are not u64");
        let top = 9_007_199_254_740_992.0;
        for (n, want) in [(-0.0, Some(0)), (top, Some(1 << 53)), (top + 2.0, None), (0.5, None)] {
            assert_eq!(exact_u64(n), want, "{n}");
        }
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, 1e300] {
            assert_eq!(exact_u64(n), None, "{n}");
        }
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        for bad in [
            "",
            "{",
            "}",
            "[",
            "nul",
            "tru",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,]",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\u12",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "1e999",
            "-",
            "1 2",
            "{} extra",
            "\u{1}",
            "\"\u{1}\"",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn integer_runs_decode_to_the_bits_str_parse_gives() {
        let mut n = 1u64;
        let mut texts: Vec<String> = ["0", "007", "999999999999999", "1000000000000000"]
            .into_iter()
            .map(String::from)
            .collect();
        while n < 1 << 60 {
            texts.extend([n - 1, n, n + 1].map(|k| k.to_string()));
            n = n * 3 + 1;
        }
        for text in texts {
            let parsed = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), text.parse::<f64>().unwrap().to_bits(), "{text}");
        }
    }

    #[test]
    fn every_proper_prefix_of_an_object_is_invalid() {
        let line = r#"{"op":"run","kernel":3,"xs":[1.5,-2,true,"s\n"]}"#;
        assert!(Json::parse(line).is_ok());
        for cut in 0..line.len() {
            if line.is_char_boundary(cut) {
                assert!(Json::parse(&line[..cut]).is_err(), "prefix of length {cut} parsed");
            }
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting too deep"), "{err}");
        // Depth at the limit still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn printed_tokens_are_exactly_the_printer_grammar() {
        let reads = |text: &str| {
            let mut r = Reader::new(text);
            r.printed().is_some() && r.at_end()
        };
        for v in [0.0, -0.0, 1.5, -2.5e-8, 0.1, 1e21, 5e-324, f64::MAX, -f64::MAX] {
            let mut w = Writer::with_capacity(32);
            w.num(v);
            let text = w.finish();
            assert!(reads(&text), "`{text}` is the printer's own");
            assert_eq!(printed_value(&text).to_bits(), v.to_bits());
        }
        for (text, v) in NON_FINITE.into_iter().zip([f64::INFINITY, f64::NEG_INFINITY]) {
            assert!(reads(text));
            assert_eq!(printed_value(text), v);
        }
        assert!(printed_value("\"nan\"").is_nan());
        // 309 digits: below f64::MAX it reads, past it the number is
        // not finite and the token is refused.
        assert!(reads(&format!("1{}", "0".repeat(308))));
        let too_long = format!("2{}", "0".repeat(308));
        for text in ["", "01", "00", "-", "+1", ".5", "1.", "1.50", "-0.0", "1e5", "1E5"] {
            assert!(!reads(text), "`{text}` is not printed");
        }
        for text in ["\"Inf\"", "\"x\"", "null", "[1]", &too_long] {
            assert!(!reads(text), "`{text}` is not printed");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600}"));
    }
}
