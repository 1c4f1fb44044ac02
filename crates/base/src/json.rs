//! JSON for the workspace: one writer and one parser.
//!
//! [`ToJson`] writes a value as JSON text through [`JsonOut`];
//! [`FromJson`] reads it back from the [`Value`] tree the parser builds.
//! [`impl_json!`](crate::impl_json) implements both for a struct or enum
//! from a list of its field or variant names. Every JSON text the
//! workspace prints (checkpoints and their checksums, WAL lines, cache
//! fingerprints, serve bodies, `--json` output) streams from
//! [`ToJson::write_json`] through [`JsonOut`], with no tree in between;
//! [`Value`]'s `Display` writes through the same [`JsonOut`]. So the same
//! value always prints the same bytes:
//!
//! - object entries keep insertion order, so struct fields print in
//!   declaration order;
//! - `f32` values print in their shortest `f32` form (`0.1`, not
//!   `0.10000000149011612`), `f64` in their shortest `f64` form;
//! - NaN and infinities print as `null`;
//! - pretty output indents by two spaces.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Any JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer; `i128` holds the whole `u64` and `i64` ranges.
    Int(i128),
    /// Any other number.
    F64(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; entries keep insertion order.
    Object(Vec<(String, Value)>),
}

/// A parse error or a document that does not have the expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// An error with the given message.
    pub fn new(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// A value that can be written as JSON.
pub trait ToJson {
    /// Writes this value's JSON text to `out`.
    ///
    /// # Errors
    ///
    /// Fails when the sink does, or when [`JsonOut::flatten`] is handed
    /// a payload that does not write an object.
    fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result;
}

/// A value that can be read back from JSON.
pub trait FromJson: Sized {
    /// Rebuilds the value from its JSON tree.
    ///
    /// # Errors
    ///
    /// Fails when `value` does not have this type's shape.
    fn from_json(value: &Value) -> Result<Self>;

    /// The value of a struct field that is absent from its object. Only
    /// `Option` has one (`None`); every other type reports the field.
    ///
    /// # Errors
    ///
    /// Fails with ``missing field `name` `` for every non-`Option` type.
    fn missing(field: &str) -> Result<Self> {
        Err(Error::new(format_args!("missing field `{field}`")))
    }
}

/// Compact JSON of `value`.
///
/// # Panics
///
/// Panics when `value`'s [`ToJson::write_json`] fails, which only a
/// [`JsonOut::flatten`] over a payload that is not an object does.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    render(value, false)
}

/// Pretty JSON of `value`, indented by two spaces.
///
/// # Panics
///
/// As [`to_string`].
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    render(value, true)
}

/// Streams `value`'s pretty JSON, as [`to_string_pretty`] renders it,
/// into `writer`, without holding the text.
///
/// # Errors
///
/// Fails when `writer` does, or with [`std::io::ErrorKind::InvalidData`]
/// where [`to_string_pretty`] would panic.
pub fn to_writer_pretty<T: ToJson + ?Sized>(
    writer: &mut dyn std::io::Write,
    value: &T,
) -> std::io::Result<()> {
    /// A `fmt` sink over an `io` writer that keeps the writer's error.
    struct Io<'a> {
        writer: &'a mut dyn std::io::Write,
        error: Option<std::io::Error>,
    }
    impl fmt::Write for Io<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.writer.write_all(s.as_bytes()).map_err(|e| {
                self.error = Some(e);
                fmt::Error
            })
        }
    }
    let mut sink = Io {
        writer,
        error: None,
    };
    match value.write_json(&mut JsonOut::new(&mut sink, true)) {
        Ok(()) => Ok(()),
        Err(fmt::Error) => Err(sink.error.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "a flattened payload is not an object",
            )
        })),
    }
}

fn render<T: ToJson + ?Sized>(value: &T, pretty: bool) -> String {
    let mut text = String::new();
    // A `String` sink never fails, so an error is a malformed `flatten`.
    if value
        .write_json(&mut JsonOut::new(&mut text, pretty))
        .is_err()
    {
        panic!(
            "JSON of {}: a flattened payload is not an object",
            std::any::type_name::<T>()
        );
    }
    text
}

/// `value` as a [`Value`]: its streamed text, parsed. The leaf of
/// [`json!`](crate::json!) bodies and of `Value`'s comparisons with plain
/// values. Numbers read back as the parser reads them (`Int` or `F64`),
/// so the tree prints the text `value` streams.
///
/// # Panics
///
/// As [`to_string`], or when `value` nests deeper than the parser's
/// limit of 128.
pub fn to_value<T: ToJson + ?Sized>(value: &T) -> Value {
    Value::parse(&to_string(value))
        .unwrap_or_else(|e| panic!("JSON of {}: {e}", std::any::type_name::<T>()))
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Fails on malformed JSON, trailing characters, nesting deeper than 128,
/// or a document that does not have `T`'s shape.
pub fn from_str<T: FromJson>(text: &str) -> Result<T> {
    T::from_json(&Value::parse(text)?)
}

/// [`from_str`] over UTF-8 bytes.
///
/// # Errors
///
/// As [`from_str`], or on invalid UTF-8.
pub fn from_slice<T: FromJson>(bytes: &[u8]) -> Result<T> {
    from_str(std::str::from_utf8(bytes).map_err(Error::new)?)
}

/// `name` in snake case: `RunStart` becomes `run_start`.
pub fn snake_case(name: &str) -> String {
    SnakeCase(name).to_string()
}

/// Displays a name in snake case, as [`snake_case`] returns it, without
/// allocating.
pub struct SnakeCase<'a>(pub &'a str);

impl fmt::Display for SnakeCase<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ch) in self.0.chars().enumerate() {
            if ch.is_ascii_uppercase() {
                if i > 0 {
                    f.write_char('_')?;
                }
                f.write_char(ch.to_ascii_lowercase())?;
            } else {
                f.write_char(ch)?;
            }
        }
        Ok(())
    }
}

static NULL: Value = Value::Null;

impl Value {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, trailing characters or nesting deeper
    /// than 128.
    pub fn parse(text: &str) -> Result<Value> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(p.fail("trailing characters"));
        }
        Ok(value)
    }

    /// The entry `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Removes and returns the entry `key` of an object.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        match self {
            Value::Object(entries) => {
                let at = entries.iter().position(|(k, _)| k == key)?;
                Some(entries.remove(at).1)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is one that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Any number as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is an object.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// Whether this is an integer that fits a `u64`.
    pub fn is_u64(&self) -> bool {
        self.as_u64().is_some()
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Int(_) => "integer",
            Value::F64(_) => "floating point",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// The error for a value of the wrong kind.
    pub fn invalid(&self, expected: &str) -> Error {
        Error::new(format_args!(
            "invalid type: {}, expected {expected}",
            self.kind()
        ))
    }

    /// The entries of an object.
    ///
    /// # Errors
    ///
    /// Fails on any other kind of value.
    pub fn entries(&self, expected: &str) -> Result<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Ok(entries),
            other => Err(other.invalid(expected)),
        }
    }

    /// Reads the entry `key` of an object as a `T`, or `T::missing` when
    /// it is absent.
    ///
    /// # Errors
    ///
    /// Fails when this is not an object or the entry has the wrong shape.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T> {
        match self.get(key) {
            Some(v) => T::from_json(v).map_err(|e| Error::new(format_args!("{key}: {e}"))),
            None if self.is_object() => T::missing(key),
            None => Err(self.invalid("an object")),
        }
    }

    /// [`Value::field`], with `default` standing in for an absent entry.
    ///
    /// # Errors
    ///
    /// As [`Value::field`].
    pub fn field_or<T: FromJson>(&self, key: &str, default: impl FnOnce() -> T) -> Result<T> {
        match self.get(key) {
            Some(_) => self.field(key),
            None => Ok(default()),
        }
    }

    /// Fails on an object entry not named in `known`.
    ///
    /// # Errors
    ///
    /// Names the first unknown field.
    pub fn deny_unknown(&self, known: &[&str]) -> Result<()> {
        match self
            .entries("an object")?
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((key, _)) => Err(Error::new(format_args!(
                "unknown field `{key}`, expected one of {known:?}"
            ))),
            None => Ok(()),
        }
    }

    /// Splits an externally tagged enum value into its variant name and
    /// payload: `"name"` or `{"name": payload}`.
    ///
    /// # Errors
    ///
    /// Fails unless this is a string or a one-entry object.
    pub fn variant(&self) -> Result<(&str, Option<&Value>)> {
        match self {
            Value::String(name) => Ok((name, None)),
            Value::Object(entries) if entries.len() == 1 => {
                Ok((&entries[0].0, Some(&entries[0].1)))
            }
            other => Err(other.invalid("an enum variant")),
        }
    }
}

impl fmt::Display for Value {
    /// Compact JSON; `{:#}` is pretty.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pretty = f.alternate();
        self.write_json(&mut JsonOut::new(f, pretty))
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// The entry `key`, or `null` when absent or not an object.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::IndexMut<&str> for Value {
    /// The entry `key`, appended as `null` when absent.
    ///
    /// # Panics
    ///
    /// Panics when this is not an object.
    fn index_mut(&mut self, key: &str) -> &mut Value {
        let Value::Object(entries) = self else {
            panic!("cannot index a JSON {} by `{key}`", self.kind());
        };
        let at = match entries.iter().position(|(k, _)| k == key) {
            Some(at) => at,
            None => {
                entries.push((key.to_string(), Value::Null));
                entries.len() - 1
            }
        };
        &mut entries[at].1
    }
}

macro_rules! value_eq {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                *self == to_value(other)
            }
        }
    )*};
}

value_eq!(bool, i32, i64, u32, u64, usize, &str, String);

/// Writes JSON text into a `fmt::Write` sink, compact or pretty (one
/// entry per line, indented by two spaces): the one writer behind
/// [`ToJson::write_json`], [`to_string`], [`to_string_pretty`] and
/// [`Value`]'s `Display`.
///
/// A value is written by its own method (`null`, `bool`, `int`, ...).
/// An array is `begin_array`, then `element` before each item, then
/// `end_array`; an object is `begin_object`, then `key` (or `field`)
/// before each entry, then `end_object`. The writer supplies commas,
/// line breaks and indentation.
///
/// ```
/// use lcda_base::json::JsonOut;
/// let mut text = String::new();
/// let mut out = JsonOut::new(&mut text, false);
/// out.begin_object().unwrap();
/// out.field("ids", &[1, 2]).unwrap();
/// out.key("name").unwrap();
/// out.string("a\"b").unwrap();
/// out.end_object().unwrap();
/// assert_eq!(text, r#"{"ids":[1,2],"name":"a\"b"}"#);
/// ```
pub struct JsonOut<'a> {
    sink: &'a mut dyn fmt::Write,
    pretty: bool,
    /// Arrays and objects open around the next value.
    depth: usize,
    /// The innermost open array or object has no entry yet.
    empty: bool,
    /// The next object continues the one already open (see
    /// [`JsonOut::flatten`]).
    merge: bool,
}

impl<'a> JsonOut<'a> {
    /// A writer into `sink`: pretty when `pretty` holds, else compact.
    pub fn new(sink: &'a mut dyn fmt::Write, pretty: bool) -> Self {
        JsonOut {
            sink,
            pretty,
            depth: 0,
            empty: true,
            merge: false,
        }
    }

    /// Fails when a value other than an object is written where
    /// [`JsonOut::flatten`] expects its payload's object.
    fn not_flattening(&self) -> fmt::Result {
        if self.merge {
            Err(fmt::Error)
        } else {
            Ok(())
        }
    }

    /// `null`.
    pub fn null(&mut self) -> fmt::Result {
        self.not_flattening()?;
        self.sink.write_str("null")
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) -> fmt::Result {
        self.not_flattening()?;
        self.sink.write_str(if b { "true" } else { "false" })
    }

    /// An integer in decimal. Values in the 64-bit range take a `u64`
    /// digit loop; only the rest go through `i128` formatting, which is
    /// several times slower. The digits are the same either way.
    pub fn int(&mut self, i: i128) -> fmt::Result {
        self.not_flattening()?;
        if let Ok(n) = u64::try_from(i) {
            return write_u64(self.sink, false, n);
        }
        match i64::try_from(i) {
            Ok(n) => write_u64(self.sink, true, n.unsigned_abs()),
            Err(_) => write!(self.sink, "{i}"),
        }
    }

    /// An `f32` in its shortest `f32` form; NaN and infinities as `null`.
    pub fn f32(&mut self, x: f32) -> fmt::Result {
        self.not_flattening()?;
        if x.is_finite() {
            write!(self.sink, "{x:?}")
        } else {
            self.sink.write_str("null")
        }
    }

    /// An `f64` in its shortest form; NaN and infinities as `null`.
    pub fn f64(&mut self, x: f64) -> fmt::Result {
        self.not_flattening()?;
        if x.is_finite() {
            write!(self.sink, "{x:?}")
        } else {
            self.sink.write_str("null")
        }
    }

    /// A string, quoted and escaped.
    pub fn string(&mut self, s: &str) -> fmt::Result {
        self.not_flattening()?;
        self.sink.write_char('"')?;
        Escaped(&mut *self.sink).write_str(s)?;
        self.sink.write_char('"')
    }

    /// `s`'s display form as a string, escaped as it streams, so it is
    /// never held as a `String`.
    pub fn string_display(&mut self, s: &dyn fmt::Display) -> fmt::Result {
        self.not_flattening()?;
        self.sink.write_char('"')?;
        write!(Escaped(&mut *self.sink), "{s}")?;
        self.sink.write_char('"')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> fmt::Result {
        self.not_flattening()?;
        self.open('[')
    }

    /// Starts the next array element.
    pub fn element(&mut self) -> fmt::Result {
        self.separate()
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> fmt::Result {
        self.close(']')
    }

    /// Opens an object, or continues the one a [`JsonOut::flatten`]
    /// left open.
    pub fn begin_object(&mut self) -> fmt::Result {
        if self.merge {
            self.merge = false;
            return Ok(());
        }
        self.open('{')
    }

    /// Starts the next object entry: its key and the colon. The value
    /// written next is the entry's value.
    pub fn key(&mut self, key: &str) -> fmt::Result {
        self.separate()?;
        self.sink.write_char('"')?;
        Escaped(&mut *self.sink).write_str(key)?;
        self.colon()
    }

    /// [`JsonOut::key`] with `key`'s display form, streamed unallocated.
    pub fn key_display(&mut self, key: &dyn fmt::Display) -> fmt::Result {
        self.separate()?;
        self.sink.write_char('"')?;
        write!(Escaped(&mut *self.sink), "{key}")?;
        self.colon()
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> fmt::Result {
        self.close('}')
    }

    /// One object entry: `key`, then `value`.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) -> fmt::Result {
        self.key(key)?;
        value.write_json(self)
    }

    /// Writes `rest`, which must write one object, with the entry
    /// `key: value` before its own entries, on one level:
    /// `{"seq":3,"entry":"transition",..}` from `seq` and an entry whose
    /// object is tagged `entry`.
    ///
    /// # Errors
    ///
    /// Fails when `rest` writes anything other than an object, or when
    /// the sink does.
    pub fn flatten<V, R>(&mut self, key: &str, value: &V, rest: &R) -> fmt::Result
    where
        V: ToJson + ?Sized,
        R: ToJson + ?Sized,
    {
        self.begin_object()?;
        self.field(key, value)?;
        self.merge = true;
        rest.write_json(self)?;
        self.not_flattening()
    }

    fn open(&mut self, bracket: char) -> fmt::Result {
        self.depth += 1;
        self.empty = true;
        self.sink.write_char(bracket)
    }

    fn close(&mut self, bracket: char) -> fmt::Result {
        self.depth -= 1;
        if !self.empty {
            self.newline()?;
        }
        self.empty = false;
        self.sink.write_char(bracket)
    }

    /// The comma before every entry but the first, then the entry's line.
    fn separate(&mut self) -> fmt::Result {
        if !self.empty {
            self.sink.write_char(',')?;
        }
        self.empty = false;
        self.newline()
    }

    fn colon(&mut self) -> fmt::Result {
        self.sink
            .write_str(if self.pretty { "\": " } else { "\":" })
    }

    /// In pretty output, a line break and the current indentation, in
    /// one write up to 16 levels deep.
    fn newline(&mut self) -> fmt::Result {
        const PAD: &str = "\n                                ";
        if !self.pretty {
            return Ok(());
        }
        match PAD.get(..=2 * self.depth) {
            Some(line) => self.sink.write_str(line),
            None => {
                self.sink.write_char('\n')?;
                (0..self.depth).try_for_each(|_| self.sink.write_str("  "))
            }
        }
    }
}

/// Writes `n` in decimal, after a minus sign when `negative` holds, in
/// one `write_str`.
fn write_u64(sink: &mut dyn fmt::Write, negative: bool, mut n: u64) -> fmt::Result {
    // A sign and the 20 digits of `u64::MAX`.
    let mut buf = [0u8; 21];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if negative {
        at -= 1;
        buf[at] = b'-';
    }
    // ASCII digits and a minus sign are always UTF-8.
    sink.write_str(std::str::from_utf8(&buf[at..]).map_err(|_| fmt::Error)?)
}

/// A sink adapter that escapes what it is given as JSON string content.
struct Escaped<'a>(&'a mut dyn fmt::Write);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut run = 0;
        for (i, ch) in s.char_indices() {
            let escape = match ch {
                '"' => "\\\"",
                '\\' => "\\\\",
                '\n' => "\\n",
                '\r' => "\\r",
                '\t' => "\\t",
                '\u{8}' => "\\b",
                '\u{c}' => "\\f",
                c if (c as u32) < 0x20 => "",
                _ => continue,
            };
            self.0.write_str(&s[run..i])?;
            if escape.is_empty() {
                write!(self.0, "\\u{:04x}", ch as u32)?;
            } else {
                self.0.write_str(escape)?;
            }
            run = i + ch.len_utf8();
        }
        self.0.write_str(&s[run..])
    }
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn fail(&self, msg: &str) -> Error {
        let before = &self.bytes[..self.pos.min(self.bytes.len())];
        let line = before.iter().filter(|&&b| b == b'\n').count() + 1;
        let column = before.iter().rev().take_while(|&&b| b != b'\n').count();
        Error::new(format_args!("{msg} at line {line} column {column}"))
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\n' | b'\r' | b'\t') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.bytes.get(self.pos) == Some(&byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.fail("expected value"))
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.fail("EOF while parsing a value")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(
                b']',
                |p| Ok(Value::Array(vec![p.value()?])),
                |p, v| {
                    if let Value::Array(items) = v {
                        items.push(p.value()?);
                    }
                    Ok(())
                },
            ),
            Some(b'{') => self.nested(
                b'}',
                |p| Ok(Value::Object(vec![p.entry()?])),
                |p, v| {
                    let entry = p.entry()?;
                    if let Value::Object(entries) = v {
                        entries.push(entry);
                    }
                    Ok(())
                },
            ),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.fail("expected value")),
        }
    }

    fn entry(&mut self) -> Result<(String, Value)> {
        self.skip_ws();
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.fail("key must be a string"));
        }
        let key = self.string()?;
        if !self.eat(b':') {
            return Err(self.fail("expected `:`"));
        }
        Ok((key, self.value()?))
    }

    /// An array or object: `first` reads the first element, `more` each
    /// one after a comma.
    fn nested(
        &mut self,
        close: u8,
        first: impl FnOnce(&mut Self) -> Result<Value>,
        mut more: impl FnMut(&mut Self, &mut Value) -> Result<()>,
    ) -> Result<Value> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.fail("recursion limit exceeded"));
        }
        self.pos += 1;
        let empty = if close == b']' {
            Value::Array(Vec::new())
        } else {
            Value::Object(Vec::new())
        };
        let out = if self.eat(close) {
            Ok(empty)
        } else {
            (|| {
                let mut v = first(self)?;
                loop {
                    if self.eat(close) {
                        return Ok(v);
                    }
                    if !self.eat(b',') {
                        return Err(self.fail("expected `,` or a closing bracket"));
                    }
                    more(self, &mut v)?;
                }
            })()
        };
        self.depth -= 1;
        out
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (self.bytes[int_start] == b'0' && int_digits > 1) {
            return Err(self.fail("invalid number"));
        }
        let mut float = false;
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            float = true;
            if self.digits() == 0 {
                return Err(self.fail("invalid number"));
            }
        }
        if let Some(b'e' | b'E') = self.bytes.get(self.pos) {
            self.pos += 1;
            float = true;
            if let Some(b'+' | b'-') = self.bytes.get(self.pos) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.fail("invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(Error::new)?;
        if !float {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Value::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::F64(x)),
            _ => Err(self.fail("number out of range")),
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let code = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.fail("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(&self.bytes[run..self.pos]).map_err(Error::new)?);
            match self.bytes.get(self.pos) {
                None => return Err(self.fail("EOF while parsing a string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escaped = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    out.push(match escaped {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.fail("invalid escape")),
                    });
                }
                Some(_) => return Err(self.fail("control character in string")),
            }
        }
    }

    /// The character of a `\uXXXX` escape, joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(self.fail("unpaired surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.fail("unpaired surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.fail("invalid unicode escape"))
    }
}

impl ToJson for Value {
    fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result {
        match self {
            Value::Null => out.null(),
            Value::Bool(b) => out.bool(*b),
            Value::Int(i) => out.int(*i),
            Value::F64(x) => out.f64(*x),
            Value::String(s) => out.string(s),
            Value::Array(items) => items.write_json(out),
            Value::Object(entries) => {
                out.begin_object()?;
                for (key, value) in entries {
                    out.field(key, value)?;
                }
                out.end_object()
            }
        }
    }
}

impl FromJson for Value {
    fn from_json(value: &Value) -> Result<Self> {
        Ok(value.clone())
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result {
        out.bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Value) -> Result<Self> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(other.invalid("a boolean")),
        }
    }
}

macro_rules! int_json {
    ($($t:ty)*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result {
                out.int(*self as i128)
            }
        }

        impl FromJson for $t {
            fn from_json(value: &Value) -> Result<Self> {
                match value {
                    Value::Int(i) => <$t>::try_from(*i).map_err(|_| {
                        Error::new(concat!("integer out of range for ", stringify!($t)))
                    }),
                    other => Err(other.invalid(stringify!($t))),
                }
            }
        }
    )*};
}

int_json!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize);

impl ToJson for f32 {
    fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result {
        out.f32(*self)
    }
}

impl FromJson for f32 {
    fn from_json(value: &Value) -> Result<Self> {
        f64::from_json(value).map(|x| x as f32)
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result {
        out.f64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Value) -> Result<Self> {
        value.as_f64().ok_or_else(|| value.invalid("a number"))
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result {
        out.string(self)
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result {
        out.string(self)
    }
}

impl FromJson for String {
    fn from_json(value: &Value) -> Result<Self> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| value.invalid("a string"))
    }
}

/// A shared string reads and writes exactly like a `String`, so a
/// structure may hold one allocation in several places and still print
/// the bytes it printed with owned copies.
impl FromJson for Arc<str> {
    fn from_json(value: &Value) -> Result<Self> {
        value
            .as_str()
            .map(Arc::from)
            .ok_or_else(|| value.invalid("a string"))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result {
        (**self).write_json(out)
    }
}

impl<T: ToJson + ?Sized> ToJson for Box<T> {
    fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result {
        (**self).write_json(out)
    }
}

impl<T: ToJson + ?Sized> ToJson for Arc<T> {
    fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result {
        (**self).write_json(out)
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(value: &Value) -> Result<Self> {
        T::from_json(value).map(Box::new)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result {
        match self {
            Some(value) => value.write_json(out),
            None => out.null(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Value) -> Result<Self> {
        match value {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }

    fn missing(_: &str) -> Result<Self> {
        Ok(None)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result {
        out.begin_array()?;
        for item in self {
            out.element()?;
            item.write_json(out)?;
        }
        out.end_array()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result {
        self.as_slice().write_json(out)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result {
        self.as_slice().write_json(out)
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Value) -> Result<Self> {
        match value {
            Value::Array(items) => items.iter().map(T::from_json).collect(),
            other => Err(other.invalid("an array")),
        }
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(value: &Value) -> Result<Self> {
        let items = Vec::<T>::from_json(value)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::new(format_args!("expected an array of {N}, found {len}")))
    }
}

/// A map key: written as a JSON object key (its display form), read
/// back from one.
pub trait JsonKey: fmt::Display + Sized {
    /// Parses the key back; `None` when the text is not one.
    fn from_key(key: &str) -> Option<Self>;
}

impl JsonKey for String {
    fn from_key(key: &str) -> Option<Self> {
        Some(key.to_owned())
    }
}

impl JsonKey for Arc<str> {
    fn from_key(key: &str) -> Option<Self> {
        Some(Arc::from(key))
    }
}

impl JsonKey for u64 {
    fn from_key(key: &str) -> Option<Self> {
        key.parse().ok()
    }
}

impl<K: JsonKey, V: ToJson> ToJson for BTreeMap<K, V> {
    fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result {
        out.begin_object()?;
        for (key, value) in self {
            out.key_display(key)?;
            value.write_json(out)?;
        }
        out.end_object()
    }
}

impl<K: JsonKey + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(value: &Value) -> Result<Self> {
        value
            .entries("a map")?
            .iter()
            .map(|(k, v)| {
                let key =
                    K::from_key(k).ok_or_else(|| Error::new(format_args!("bad key `{k}`")))?;
                Ok((key, V::from_json(v)?))
            })
            .collect()
    }
}

macro_rules! tuple_json {
    ($($len:literal => ($($name:ident $idx:tt)+))*) => {$(
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn write_json(&self, out: &mut JsonOut<'_>) -> fmt::Result {
                out.begin_array()?;
                $(
                    out.element()?;
                    self.$idx.write_json(out)?;
                )+
                out.end_array()
            }
        }

        impl<$($name: FromJson),+> FromJson for ($($name,)+) {
            fn from_json(value: &Value) -> Result<Self> {
                match value {
                    Value::Array(items) if items.len() == $len => {
                        Ok(($($name::from_json(&items[$idx])?,)+))
                    }
                    other => Err(other.invalid(concat!("an array of ", $len))),
                }
            }
        }
    )*};
}

tuple_json! {
    2 => (A 0 B 1)
    3 => (A 0 B 1 C 2)
}

/// Builds a [`Value`] from JSON-like syntax whose values are any
/// [`ToJson`] expressions, each read in through [`to_value`]: tests use
/// it for request bodies and documents to tamper with. Object entries
/// keep the order written.
///
/// ```
/// use lcda_base::json;
/// let v = json!({ "k": 1 + 1, "arr": [true, null, "x"] });
/// assert_eq!(v.to_string(), r#"{"k":2,"arr":[true,null,"x"]}"#);
/// ```
#[macro_export]
macro_rules! json {
    (@array [$($done:expr,)*] ()) => {
        ::std::vec![$($done,)*]
    };
    (@array [$($done:expr,)*] ($($cur:tt)+)) => {
        ::std::vec![$($done,)* $crate::json!($($cur)+),]
    };
    (@array [$($done:expr,)*] ($($cur:tt)+) , $($rest:tt)*) => {
        $crate::json!(@array [$($done,)* $crate::json!($($cur)+),] () $($rest)*)
    };
    (@array [$($done:expr,)*] ($($cur:tt)*) $next:tt $($rest:tt)*) => {
        $crate::json!(@array [$($done,)*] ($($cur)* $next) $($rest)*)
    };
    (@object $map:ident) => {};
    (@object $map:ident $key:literal : $($rest:tt)+) => {
        $crate::json!(@entry $map $key () $($rest)+)
    };
    (@entry $map:ident $key:literal ($($cur:tt)+)) => {
        $map.push(($key.to_string(), $crate::json!($($cur)+)));
    };
    (@entry $map:ident $key:literal ($($cur:tt)+) , $($rest:tt)*) => {
        $map.push(($key.to_string(), $crate::json!($($cur)+)));
        $crate::json!(@object $map $($rest)*);
    };
    (@entry $map:ident $key:literal ($($cur:tt)*) $next:tt $($rest:tt)*) => {
        $crate::json!(@entry $map $key ($($cur)* $next) $($rest)*)
    };
    (null) => {
        $crate::json::Value::Null
    };
    ([ $($tt:tt)* ]) => {
        $crate::json::Value::Array($crate::json!(@array [] () $($tt)*))
    };
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut object = ::std::vec::Vec::new();
        $crate::json!(@object object $($tt)*);
        $crate::json::Value::Object(object)
    }};
    ($other:expr) => {
        $crate::json::to_value(&$other)
    };
}

/// Implements [`ToJson`] and [`FromJson`] for a struct or enum from the
/// names of its fields or variants.
///
/// A struct becomes an object whose entries follow the order the fields
/// are listed in. A field may carry one option:
///
/// - `#[default] f`: an absent `f` reads as `Default::default()`;
/// - `#[default = path] f`: an absent `f` reads as `path()`;
/// - `#[skip_if = path] f`: `f` is not written when `path(&f)` holds,
///   and an absent `f` reads as `Default::default()`.
///
/// An `Option` field reads as `None` when absent. Unknown entries are
/// ignored unless the struct is marked `#[deny_unknown_fields]`. A unit
/// struct is written as `null`.
///
/// Enum variants are unit or struct variants. By default they are
/// externally tagged (`"Unit"`, `{"Struct": {..}}`); `#[tag = "key"]`
/// writes each variant as one object whose `key` entry names it.
/// `snake_case` (alone, or after the tag) writes variant names in snake
/// case. Variant fields take the same options as struct fields.
///
/// ```
/// use lcda_base::{impl_json, json};
///
/// #[derive(Debug, PartialEq)]
/// struct Job { id: u64, note: Option<String>, retries: u32 }
/// impl_json!(#[deny_unknown_fields] struct Job { id, #[skip_if = Option::is_none] note, #[default] retries });
///
/// let job: Job = json::from_str(r#"{"id": 7}"#).unwrap();
/// assert_eq!(json::to_string(&job), r#"{"id":7,"retries":0}"#);
/// assert!(json::from_str::<Job>(r#"{"id": 7, "idd": 1}"#).is_err());
/// ```
#[macro_export]
macro_rules! impl_json {
    (
        $(#[$flag:ident])?
        struct $name:ident $(<$($gen:ident),+>)? {
            $( $(#[$opt:ident $(= $arg:path)?])? $field:ident ),* $(,)?
        }
    ) => {
        impl $(<$($gen: $crate::json::ToJson),+>)? $crate::json::ToJson for $name $(<$($gen),+>)? {
            fn write_json(&self, out: &mut $crate::json::JsonOut<'_>) -> ::std::fmt::Result {
                let $name { $($field),* } = self;
                out.begin_object()?;
                $( $crate::impl_json!(@write out, $field $(, $opt $($arg)?)?); )*
                out.end_object()
            }
        }

        impl $(<$($gen: $crate::json::FromJson),+>)? $crate::json::FromJson for $name $(<$($gen),+>)? {
            fn from_json(value: &$crate::json::Value) -> $crate::json::Result<Self> {
                $crate::impl_json!(@check value $(, $flag)?; $(stringify!($field)),*);
                ::std::result::Result::Ok($name {
                    $( $field: $crate::impl_json!(@get value, $field $(, $opt $($arg)?)?), )*
                })
            }
        }
    };

    (struct $name:ident;) => {
        impl $crate::json::ToJson for $name {
            fn write_json(&self, out: &mut $crate::json::JsonOut<'_>) -> ::std::fmt::Result {
                out.null()
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(value: &$crate::json::Value) -> $crate::json::Result<Self> {
                match value {
                    $crate::json::Value::Null => ::std::result::Result::Ok($name),
                    other => ::std::result::Result::Err(other.invalid("null")),
                }
            }
        }
    };

    (
        #$layout:tt
        enum $name:ident {
            $( $var:ident $({
                $( $(#[$opt:ident $(= $arg:path)?])? $field:ident ),* $(,)?
            })? ),* $(,)?
        }
    ) => {
        impl $crate::json::ToJson for $name {
            fn write_json(&self, out: &mut $crate::json::JsonOut<'_>) -> ::std::fmt::Result {
                match self {
                    $( $name::$var $({ $($field),* })? => {
                        let unit = $crate::impl_json!(@unit $({ $($field)* })?);
                        $crate::impl_json!(@open $layout $var, unit, out);
                        $($( $crate::impl_json!(@write out, $field $(, $opt $($arg)?)?); )*)?
                        $crate::impl_json!(@close $layout, unit, out)
                    } )*
                }
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(value: &$crate::json::Value) -> $crate::json::Result<Self> {
                let (tag, fields) = $crate::impl_json!(@unwrap $layout value);
                $( if tag == $crate::impl_json!(@name $layout $var) {
                    if $crate::impl_json!(@unit $({ $($field)* })?) {
                        if !matches!(fields, $crate::json::Value::Null | $crate::json::Value::Object(_)) {
                            return ::std::result::Result::Err(fields.invalid("a unit variant"));
                        }
                    } else {
                        fields.entries("an object")?;
                    }
                    return ::std::result::Result::Ok($name::$var $({
                        $( $field: $crate::impl_json!(@get fields, $field $(, $opt $($arg)?)?), )*
                    })?);
                } )*
                ::std::result::Result::Err($crate::json::Error::new(format_args!(
                    "unknown variant `{tag}` of {}", stringify!($name))))
            }
        }
    };

    (enum $($rest:tt)+) => {
        $crate::impl_json!(#[external] enum $($rest)+);
    };

    // How an enum names its variants: `external`, `snake_case`, or
    // `tag = "key"` with an optional `, snake_case`.
    (@name [$layout:ident] $var:ident) => {
        $crate::impl_json!(@case $layout $var)
    };
    (@name [tag = $tag:literal $(, $case:ident)?] $var:ident) => {
        $crate::impl_json!(@case $($case)? $var)
    };
    (@case snake_case $var:ident) => { $crate::json::snake_case(stringify!($var)) };
    // The same names as `@case`, written by a `JsonOut` as a string
    // (`@string`) or an object key (`@key`) without allocating.
    (@string snake_case $var:ident, $out:ident) => {
        $out.string_display(&$crate::json::SnakeCase(stringify!($var)))?
    };
    (@string external $var:ident, $out:ident) => { $crate::impl_json!(@string $var, $out) };
    (@string $var:ident, $out:ident) => { $out.string(stringify!($var))? };
    (@key snake_case $var:ident, $out:ident) => {
        $out.key_display(&$crate::json::SnakeCase(stringify!($var)))?
    };
    (@key external $var:ident, $out:ident) => { $crate::impl_json!(@key $var, $out) };
    (@key $var:ident, $out:ident) => { $out.key(stringify!($var))? };
    (@case external $var:ident) => { $crate::impl_json!(@case $var) };
    (@case $var:ident) => { ::std::string::String::from(stringify!($var)) };
    (@unit) => { true };
    (@unit { $($field:ident)* }) => { false };

    (@open [tag = $tag:literal $(, $case:ident)?] $var:ident, $unit:ident, $out:ident) => {
        $out.begin_object()?;
        $out.key($tag)?;
        $crate::impl_json!(@string $($case)? $var, $out);
    };
    (@open [$layout:ident] $var:ident, $unit:ident, $out:ident) => {
        if $unit {
            $crate::impl_json!(@string $layout $var, $out);
        } else {
            $out.begin_object()?;
            $crate::impl_json!(@key $layout $var, $out);
            $out.begin_object()?;
        }
    };
    (@close [tag = $tag:literal $(, $case:ident)?], $unit:ident, $out:ident) => {
        $out.end_object()
    };
    (@close [$layout:ident], $unit:ident, $out:ident) => {
        if $unit {
            ::std::result::Result::Ok(())
        } else {
            $out.end_object()?;
            $out.end_object()
        }
    };

    (@unwrap [tag = $tag:literal $(, $case:ident)?] $value:ident) => {
        ($value.field::<::std::string::String>($tag)?, $value)
    };
    (@unwrap [$layout:ident] $value:ident) => {{
        let (tag, payload) = $value.variant()?;
        (tag.to_string(), payload.unwrap_or(&$crate::json::Value::Null))
    }};

    (@write $out:ident, $v:ident) => {
        $out.field(stringify!($v), $v)?;
    };
    (@write $out:ident, $v:ident, default $($f:path)?) => {
        $crate::impl_json!(@write $out, $v);
    };
    (@write $out:ident, $v:ident, skip_if $skip:path) => {
        if !$skip($v) {
            $crate::impl_json!(@write $out, $v);
        }
    };

    (@get $value:ident, $key:ident) => { $value.field(stringify!($key))? };
    (@get $value:ident, $key:ident, default) => {
        $value.field_or(stringify!($key), ::std::default::Default::default)?
    };
    (@get $value:ident, $key:ident, default $f:path) => {
        $value.field_or(stringify!($key), $f)?
    };
    (@get $value:ident, $key:ident, skip_if $skip:path) => {
        $value.field_or(stringify!($key), ::std::default::Default::default)?
    };

    (@check $value:ident; $($key:expr),*) => {
        $value.entries("an object")?;
    };
    (@check $value:ident, deny_unknown_fields; $($key:expr),*) => {
        $value.deny_unknown(&[$($key),*])?;
    };
}
