//! Minimal to-string / from-string support for the server's text formats.
//!
//! The workspace builds offline with no serialization crate, so the
//! snapshot and manifest formats are built on this hand-rolled module:
//! a line-oriented
//! `[section]` / `key = value` syntax plus exact `f64` round-tripping
//! via IEEE-754 bit patterns. Repeated keys are allowed (that is how a
//! population of genomes serializes) and `#` starts a comment.

use std::fmt;
use std::num::ParseIntError;

/// A parse or format violation in a server text document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    message: String,
}

impl TextError {
    /// Creates an error with the given description.
    pub fn new(message: impl Into<String>) -> TextError {
        TextError { message: message.into() }
    }
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TextError {}

/// One `[name]` block of `key = value` entries, in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// The name between the brackets.
    pub name: String,
    /// Entries in document order; keys may repeat.
    pub entries: Vec<(String, String)>,
}

impl Section {
    /// Creates an empty section.
    pub fn new(name: impl Into<String>) -> Section {
        Section { name: name.into(), entries: Vec::new() }
    }

    /// Appends an entry.
    ///
    /// # Panics
    ///
    /// Panics if `value` contains a newline — values are single-line by
    /// construction in every server format.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let (key, value) = (key.into(), value.into());
        assert!(!value.contains('\n'), "values are single-line");
        self.entries.push((key, value));
    }

    /// The first value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Every value for `key`, in document order.
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        self.entries.iter().filter(|(k, _)| k == key).map(|(_, v)| v.as_str()).collect()
    }

    /// The first value for `key`, or an error naming the section.
    ///
    /// # Errors
    ///
    /// Returns [`TextError`] when the key is absent.
    pub fn require(&self, key: &str) -> Result<&str, TextError> {
        self.get(key).ok_or_else(|| TextError::new(format!("[{}] is missing `{key}`", self.name)))
    }

    /// Parses the first value for `key` as `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`TextError`] when the value is present but unparsable.
    pub fn get_parsed_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, TextError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| TextError::new(format!("[{}] has bad `{key}`: {raw:?}", self.name))),
        }
    }

    /// Renders the section back to text.
    pub fn render(&self) -> String {
        let mut out = format!("[{}]\n", self.name);
        for (k, v) in &self.entries {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(v);
            out.push('\n');
        }
        out
    }
}

/// Renders sections into one document.
pub fn render_sections(sections: &[Section]) -> String {
    let mut out = String::new();
    for (i, s) in sections.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&s.render());
    }
    out
}

/// Parses a document of `[section]` / `key = value` lines.
///
/// Blank lines and `#` comments are skipped; a `key = value` line before
/// the first section header is an error.
///
/// # Errors
///
/// Returns [`TextError`] with the offending line number on malformed
/// input.
pub fn parse_sections(text: &str) -> Result<Vec<Section>, TextError> {
    let mut sections: Vec<Section> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            sections.push(Section::new(name.trim()));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(TextError::new(format!("line {}: expected `key = value`", lineno + 1)));
        };
        let Some(section) = sections.last_mut() else {
            return Err(TextError::new(format!("line {}: entry before any [section]", lineno + 1)));
        };
        section.entries.push((key.trim().to_owned(), value.trim().to_owned()));
    }
    Ok(sections)
}

/// The 16 lowercase hex digits of a `u64`, as `{:016x}` renders them,
/// held on the stack.
pub(crate) struct Hex([u8; 16]);

impl Hex {
    /// The digits as text.
    pub(crate) fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("hex digits are ASCII")
    }
}

/// `v` as 16 lowercase hex digits, without allocating.
pub(crate) fn hex(v: u64) -> Hex {
    Hex(std::array::from_fn(|at| b"0123456789abcdef"[(v >> (60 - 4 * at)) as usize & 0xf]))
}

/// `s.trim()`, stripping ASCII whitespace bytes itself: only an end that
/// is not ASCII, which may be other Unicode whitespace, takes the
/// general path.
pub(crate) fn trim(s: &str) -> &str {
    let space = |b: &u8| matches!(b, b'\t'..=b'\r' | b' ');
    let bytes = s.as_bytes();
    let start = bytes.iter().position(|b| !space(b)).unwrap_or(bytes.len());
    let end = bytes.iter().rposition(|b| !space(b)).map_or(start, |last| last + 1);
    let kept = &bytes[start..end];
    if kept.first().is_some_and(|b| !b.is_ascii()) || kept.last().is_some_and(|b| !b.is_ascii()) {
        return s.trim();
    }
    &s[start..end]
}

/// Parses `s` as `s.trim().parse::<u128>()` does, reading up to 38
/// plain digits, which cannot overflow, in one pass.
pub(crate) fn u128_from_decimal(s: &str) -> Result<u128, ParseIntError> {
    let digits = s.as_bytes();
    if (1..=38).contains(&digits.len()) && digits.iter().all(u8::is_ascii_digit) {
        return Ok(digits.iter().fold(0, |v, &d| v * 10 + u128::from(d - b'0')));
    }
    trim(s).parse()
}

/// The value of each byte as a hex digit, or 16 for one that is not.
const HEX_DIGITS: [u8; 256] = {
    let mut digits = [16; 256];
    let mut at = 0;
    while at < 16 {
        digits[b"0123456789abcdef"[at] as usize] = at as u8;
        digits[b"0123456789ABCDEF"[at] as usize] = at as u8;
        at += 1;
    }
    digits
};

/// Parses hex digits as `u64::from_str_radix(s, 16)` does, with a fast
/// path for exactly 16 digits: the width of every hex field the server
/// writes.
pub(crate) fn u64_from_hex(s: &str) -> Result<u64, ParseIntError> {
    if s.len() == 16 {
        let mut v = 0u64;
        for &b in s.as_bytes() {
            let digit = HEX_DIGITS[usize::from(b)];
            if digit == 16 {
                return u64::from_str_radix(s, 16);
            }
            v = v << 4 | u64::from(digit);
        }
        return Ok(v);
    }
    u64::from_str_radix(s, 16)
}

/// Renders an `f64` exactly, as its 16-hex-digit IEEE-754 bit pattern.
pub fn f64_to_text(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Parses an `f64` rendered by [`f64_to_text`] — bit-exact, including
/// infinities and NaN payloads.
///
/// # Errors
///
/// Returns [`TextError`] when the input is not 16 hex digits.
pub fn f64_from_text(s: &str) -> Result<f64, TextError> {
    if s.len() != 16 {
        return Err(TextError::new(format!("bad f64 bits (need 16 hex digits): {s:?}")));
    }
    let bits = u64_from_hex(s).map_err(|_| TextError::new(format!("bad f64 bits: {s:?}")))?;
    Ok(f64::from_bits(bits))
}

/// Renders a slice of `f64`s as one comma-joined exact line.
pub fn f64s_to_text(values: &[f64]) -> String {
    let rendered: Vec<String> = values.iter().map(|&v| f64_to_text(v)).collect();
    rendered.join(",")
}

/// Parses a line rendered by [`f64s_to_text`]; empty input is an empty
/// slice.
///
/// # Errors
///
/// Returns [`TextError`] if any element fails to parse.
pub fn f64s_from_text(s: &str) -> Result<Vec<f64>, TextError> {
    let s = s.trim();
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',').map(f64_from_text).collect()
}

/// Renders a slice of `f64`s as bit-exact run-length-encoded text:
/// comma-joined `<16 hex digits>x<count>` segments (count omitted when
/// 1). Monotone step functions — the best-so-far history checkpoints
/// carry — compress to one segment per distinct value, so the rendered
/// size tracks *improvements*, not samples: a 100k-sample history with a
/// dozen improvements renders in a few hundred bytes instead of 1.6 MB.
pub fn f64s_to_rle_text(values: &[f64]) -> String {
    let mut segments: Vec<String> = Vec::new();
    let mut run: Option<(u64, u64)> = None; // (bits, count)
    for &v in values {
        let bits = v.to_bits();
        match &mut run {
            Some((b, count)) if *b == bits => *count += 1,
            _ => {
                if let Some((b, count)) = run.take() {
                    segments.push(render_run(b, count));
                }
                run = Some((bits, 1));
            }
        }
    }
    if let Some((b, count)) = run {
        segments.push(render_run(b, count));
    }
    segments.join(",")
}

fn render_run(bits: u64, count: u64) -> String {
    if count == 1 {
        format!("{bits:016x}")
    } else {
        format!("{bits:016x}x{count}")
    }
}

/// Parses a line rendered by [`f64s_to_rle_text`] — bit-exact, empty
/// input is an empty slice. `max_values` bounds the materialized
/// length: run lengths come from untrusted files (a corrupt snapshot
/// could otherwise declare a 10^18-element run and drive allocation
/// into a panic), so callers pass the count the surrounding document
/// declares.
///
/// # Errors
///
/// Returns [`TextError`] on malformed segments, a zero run length, or
/// a total exceeding `max_values`.
pub fn f64s_from_rle_text(s: &str, max_values: usize) -> Result<Vec<f64>, TextError> {
    let s = s.trim();
    let mut out = Vec::new();
    if s.is_empty() {
        return Ok(out);
    }
    for segment in s.split(',') {
        let (bits, count) = match segment.split_once('x') {
            Some((bits, count)) => {
                let count: u64 = count
                    .parse()
                    .map_err(|_| TextError::new(format!("bad run length: {segment:?}")))?;
                if count == 0 {
                    return Err(TextError::new(format!("zero run length: {segment:?}")));
                }
                (bits, count)
            }
            None => (segment, 1),
        };
        if (count as u128) + out.len() as u128 > max_values as u128 {
            return Err(TextError::new(format!(
                "run-length history exceeds the declared {max_values} values"
            )));
        }
        let value = f64_from_text(bits)?;
        out.extend(std::iter::repeat_n(value, count as usize));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_roundtrip() {
        let mut a = Section::new("job");
        a.push("model", "ncf");
        a.push("genome", "8,16");
        a.push("genome", "4,4");
        let mut b = Section::new("other");
        b.push("k", "v");
        let doc = render_sections(&[a.clone(), b.clone()]);
        let parsed = parse_sections(&doc).unwrap();
        assert_eq!(parsed, vec![a, b]);
    }

    #[test]
    fn repeated_keys_are_preserved_in_order() {
        let doc = "[s]\ng = first\ng = second\n";
        let sections = parse_sections(doc).unwrap();
        assert_eq!(sections[0].get("g"), Some("first"));
        assert_eq!(sections[0].get_all("g"), vec!["first", "second"]);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let doc = "# header\n\n[s]\n# note\nk = v\n\n";
        let sections = parse_sections(doc).unwrap();
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].get("k"), Some("v"));
    }

    #[test]
    fn malformed_lines_error_with_position() {
        let err = parse_sections("[s]\nnot a kv line\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = parse_sections("k = v\n").unwrap_err();
        assert!(err.to_string().contains("before any"), "{err}");
    }

    #[test]
    fn require_and_parsed_accessors() {
        let sections = parse_sections("[s]\nn = 42\n").unwrap();
        let s = &sections[0];
        assert_eq!(s.require("n").unwrap(), "42");
        assert!(s.require("missing").is_err());
        assert_eq!(s.get_parsed_or("n", 0u64).unwrap(), 42);
        assert_eq!(s.get_parsed_or("missing", 7u64).unwrap(), 7);
        let sections = parse_sections("[s]\nn = nope\n").unwrap();
        assert!(sections[0].get_parsed_or("n", 0u64).is_err());
    }

    #[test]
    fn f64_bits_roundtrip_exactly() {
        let pi = std::f64::consts::PI;
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, 1e300, pi, f64::MIN] {
            let text = f64_to_text(v);
            assert_eq!(f64_from_text(&text).unwrap().to_bits(), v.to_bits());
        }
        // NaN keeps its payload.
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        assert_eq!(f64_from_text(&f64_to_text(nan)).unwrap().to_bits(), nan.to_bits());
    }

    #[test]
    fn rle_roundtrips_bit_exactly_and_stays_flat() {
        // A 100k-sample best-so-far curve with 12 improvements: the
        // rendered form must stay a few hundred bytes and round-trip to
        // the bit.
        let mut history = Vec::with_capacity(100_000);
        let mut best = f64::INFINITY;
        for i in 0..100_000u64 {
            if i % 8_333 == 1 {
                best = 1e9 / (i + 1) as f64;
            }
            history.push(best);
        }
        let text = f64s_to_rle_text(&history);
        assert!(text.len() < 600, "rendered {} bytes", text.len());
        let back = f64s_from_rle_text(&text, history.len()).unwrap();
        assert_eq!(back.len(), history.len());
        for (a, b) in history.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rle_handles_singletons_and_rejects_junk() {
        let values = vec![1.0, 2.0, 2.0, f64::INFINITY];
        let text = f64s_to_rle_text(&values);
        let back = f64s_from_rle_text(&text, values.len()).unwrap();
        assert_eq!(values, back);
        assert!(f64s_from_rle_text("", 10).unwrap().is_empty());
        assert!(f64s_from_rle_text("zz", 10).is_err());
        assert!(f64s_from_rle_text("3ff0000000000000x0", 10).is_err(), "zero run");
        assert!(f64s_from_rle_text("3ff0000000000000xq", 10).is_err(), "bad count");
        // A corrupt run length cannot drive allocation past the bound —
        // it errors out before materializing anything.
        let bomb = "3ff0000000000000x9000000000000000000";
        assert!(f64s_from_rle_text(bomb, 1024).is_err(), "oversized run");
        assert!(f64s_from_rle_text("3ff0000000000000x5", 4).is_err(), "over declared count");
    }

    #[test]
    fn hex_digits_match_the_formatter() {
        for v in [0, 1, 9, 10, 0xdead_beef, u64::MAX >> 1, u64::MAX] {
            assert_eq!(hex(v).as_str(), format!("{v:016x}"));
        }
    }

    #[test]
    fn fast_paths_read_text_as_the_standard_parsers_do() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let pieces = [
            "0", "1", "7", "9", "a", "f", "A", "F", "g", "+", "-", " ", "\t", "\u{b}", "\u{a0}",
            "é",
        ];
        let mut rng = SmallRng::seed_from_u64(27);
        for _ in 0..20_000 {
            let len = rng.gen_range(0..42usize);
            let s: String = (0..len).map(|_| pieces[rng.gen_range(0..pieces.len())]).collect();
            assert_eq!(trim(&s), s.trim(), "{s:?}");
            assert_eq!(u64_from_hex(&s), u64::from_str_radix(&s, 16), "{s:?}");
            assert_eq!(u128_from_decimal(&s), s.trim().parse::<u128>(), "{s:?}");
        }
        // Every width of plain digits, up to and past the u128 range.
        for len in 1..=40 {
            let digits: String = (0..len).map(|i| ["9", "3", "0"][i % 3]).collect();
            assert_eq!(u128_from_decimal(&digits), digits.parse::<u128>(), "{digits}");
        }
        for v in [0, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(u64_from_hex(&format!("{v:016x}")), Ok(v));
            assert_eq!(u64_from_hex(&format!("{v:016X}")), Ok(v));
        }
    }

    #[test]
    fn f64_slices_roundtrip() {
        let values = vec![f64::INFINITY, 1.0, 0.1 + 0.2];
        let text = f64s_to_text(&values);
        let back = f64s_from_text(&text).unwrap();
        assert_eq!(back.len(), 3);
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(f64s_from_text("").unwrap().is_empty());
        assert!(f64s_from_text("zz").is_err());
    }
}
