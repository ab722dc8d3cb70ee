//! Escaping and unescaping of XML character data and attribute values.

use crate::error::{Quoted, XmlError};
use crate::scan;
use std::borrow::Cow;

/// Escapes text for use as element character data.
///
/// Replaces `&`, `<` and `>` with entity references. Returns a borrowed
/// `Cow` when no replacement is needed, avoiding allocation on the common
/// path.
///
/// ```
/// assert_eq!(wsrc_xml::escape::escape_text("a < b & c"), "a &lt; b &amp; c");
/// ```
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape_with(s, false)
}

/// Escapes text for use inside a double-quoted attribute value.
///
/// In addition to the character-data escapes this replaces `"` so the value
/// can always be emitted inside `"`-quoted attributes, and escapes tabs and
/// newlines so attribute values survive round-trips without whitespace
/// normalization loss.
pub fn escape_attribute(s: &str) -> Cow<'_, str> {
    escape_with(s, true)
}

/// Appends `s` to `out` escaped as element character data — the
/// allocation-free form of [`escape_text`] the writer uses.
pub fn escape_text_into(s: &str, out: &mut String) {
    escape_into(s, false, out);
}

/// Appends `s` to `out` escaped as a double-quoted attribute value — the
/// allocation-free form of [`escape_attribute`].
pub fn escape_attribute_into(s: &str, out: &mut String) {
    escape_into(s, true, out);
}

/// The entity reference `b` is written as, if it needs one. Every byte
/// that does is ASCII, so scanning bytes never splits a character.
fn replacement(b: u8, attr: bool) -> Option<&'static str> {
    match b {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'"' if attr => Some("&quot;"),
        b'\t' if attr => Some("&#9;"),
        b'\n' if attr => Some("&#10;"),
        b'\r' if attr => Some("&#13;"),
        _ => None,
    }
}

/// Bytes an attribute value escapes, by value.
const ATTRIBUTE_ESCAPES: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = matches!(b as u8, b'&' | b'<' | b'>' | b'"' | b'\t' | b'\n' | b'\r');
        b += 1;
    }
    table
};

/// Offset of the first byte of `bytes` that escapes. Character data has
/// three such bytes, found eight at a time; attribute values are short,
/// and a table settles each byte in one load.
fn next_escape(bytes: &[u8], attr: bool) -> Option<usize> {
    match attr {
        false => scan::memchr3(b'&', b'<', b'>', bytes),
        true => bytes.iter().position(|&b| ATTRIBUTE_ESCAPES[b as usize]),
    }
}

fn escape_into(s: &str, attr: bool, out: &mut String) {
    let bytes = s.as_bytes();
    let mut copied = 0;
    while let Some(offset) = next_escape(&bytes[copied..], attr) {
        let at = copied + offset;
        out.push_str(&s[copied..at]);
        out.push_str(replacement(bytes[at], attr).unwrap_or_default());
        copied = at + 1;
    }
    out.push_str(&s[copied..]);
}

fn escape_with(s: &str, attr: bool) -> Cow<'_, str> {
    if next_escape(s.as_bytes(), attr).is_none() {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    escape_into(s, attr, &mut out);
    Cow::Owned(out)
}

/// Expands entity and character references in raw XML text.
///
/// Supports the five predefined entities (`&amp;` `&lt;` `&gt;` `&quot;`
/// `&apos;`) and decimal/hexadecimal character references.
///
/// # Errors
///
/// Returns an error for unterminated references, unknown entity names and
/// character references that do not denote a valid Unicode scalar value.
pub fn unescape(s: &str) -> Result<Cow<'_, str>, XmlError> {
    if !s.contains('&') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    unescape_into(s, &mut out)?;
    Ok(Cow::Owned(out))
}

/// Expands entity and character references, appending the result to
/// `out` — the allocation-reusing form of [`unescape`] that backs the
/// reader's entity slow path (the scratch buffer is cleared by the
/// caller and reused across text runs).
///
/// # Errors
///
/// Same conditions as [`unescape`]. On error `out` may hold a partial
/// expansion; callers discard it.
pub(crate) fn unescape_into(s: &str, out: &mut String) -> Result<(), XmlError> {
    let mut rest = s;
    // `&` and `;` are ASCII, so the byte offsets found are character
    // boundaries.
    while let Some(amp) = scan::memchr(b'&', rest.as_bytes()) {
        out.push_str(&rest[..amp]);
        let after = &rest[amp + 1..];
        let semi = scan::memchr(b';', after.as_bytes())
            .ok_or_else(|| XmlError::new("unterminated entity reference"))?;
        let name = &after[..semi];
        let quoted = Quoted(name);
        match name {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if name.starts_with("#x") || name.starts_with("#X") => {
                let code = code_point(&name[2..], 16).ok_or_else(|| {
                    XmlError::new(format!("invalid hex character reference '&{quoted};'"))
                })?;
                out.push(char_for(code, name)?);
            }
            _ if name.starts_with('#') => {
                let code = code_point(&name[1..], 10).ok_or_else(|| {
                    XmlError::new(format!("invalid character reference '&{quoted};'"))
                })?;
                out.push(char_for(code, name)?);
            }
            _ => {
                return Err(XmlError::new(format!("unknown entity '&{quoted};'")));
            }
        }
        rest = &after[semi + 1..];
    }
    out.push_str(rest);
    Ok(())
}

/// The number a character reference spells. Digits only, as XML has
/// it: the integer parser alone would also take a leading `+`.
fn code_point(digits: &str, radix: u32) -> Option<u32> {
    if digits.starts_with('+') {
        return None;
    }
    u32::from_str_radix(digits, radix).ok()
}

fn char_for(code: u32, name: &str) -> Result<char, XmlError> {
    char::from_u32(code).ok_or_else(|| {
        XmlError::new(format!(
            "character reference '&{};' is not a valid char",
            Quoted(name)
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_text_is_borrowed() {
        assert!(matches!(escape_text("hello world"), Cow::Borrowed(_)));
        assert!(matches!(escape_attribute("hello"), Cow::Borrowed(_)));
        assert!(matches!(unescape("hello").unwrap(), Cow::Borrowed(_)));
    }

    #[test]
    fn text_escaping_covers_markup_characters() {
        assert_eq!(escape_text("<a&b>"), "&lt;a&amp;b&gt;");
    }

    #[test]
    fn attribute_escaping_covers_quote_and_whitespace() {
        assert_eq!(escape_attribute("a\"b"), "a&quot;b");
        assert_eq!(escape_attribute("a\nb\tc\rd"), "a&#10;b&#9;c&#13;d");
    }

    #[test]
    fn text_escaping_leaves_quotes_alone() {
        assert_eq!(escape_text("say \"hi\""), "say \"hi\"");
    }

    #[test]
    fn unescape_predefined_entities() {
        assert_eq!(unescape("&lt;&gt;&amp;&quot;&apos;").unwrap(), "<>&\"'");
    }

    #[test]
    fn unescape_character_references() {
        assert_eq!(unescape("&#65;&#x42;&#x63;").unwrap(), "ABc");
        assert_eq!(unescape("snowman &#x2603;!").unwrap(), "snowman \u{2603}!");
    }

    #[test]
    fn unescape_rejects_bad_references() {
        assert!(unescape("&bogus;").is_err());
        assert!(unescape("&#xZZ;").is_err());
        assert!(unescape("&#+65;").is_err()); // digits only, no sign
        assert!(unescape("&#x+41;").is_err());
        assert!(unescape("&#1114112;").is_err()); // above char::MAX
        assert!(unescape("&amp").is_err()); // unterminated
    }

    #[test]
    fn roundtrip_text() {
        let original = "mixed <tags> & \"quotes\" and 'apostrophes'";
        let escaped = escape_text(original);
        assert_eq!(unescape(&escaped).unwrap(), original);
    }

    #[test]
    fn roundtrip_attribute() {
        let original = "line1\nline2\ttabbed \"quoted\" <&>";
        let escaped = escape_attribute(original);
        assert_eq!(unescape(&escaped).unwrap(), original);
    }
}
