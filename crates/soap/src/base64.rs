//! Base64 (RFC 4648, standard alphabet) — used for `xsd:base64Binary`
//! payloads such as the `doGetCachedPage` response.

use crate::error::SoapError;

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// [`DECODE`] entry for ASCII whitespace (skipped anywhere).
const WS: u8 = 0x40;
/// [`DECODE`] entry for `=`.
const PAD: u8 = 0x41;
/// [`DECODE`] entry for every other byte outside the alphabet.
const BAD: u8 = 0xff;

/// Byte → sextet, or one of the markers above. Sextets are `< 0x40`, so
/// OR-ing four entries together tells in one compare whether a quantum
/// is all alphabet.
const DECODE: [u8; 256] = {
    let mut table = [BAD; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    // `char::is_ascii_whitespace`: space, tab, LF, FF, CR.
    table[b' ' as usize] = WS;
    table[b'\t' as usize] = WS;
    table[b'\n' as usize] = WS;
    table[0x0c] = WS;
    table[b'\r' as usize] = WS;
    table[b'=' as usize] = PAD;
    table
};

fn sextets(triple: u32) -> [u8; 4] {
    [
        ALPHABET[(triple >> 18) as usize & 0x3f],
        ALPHABET[(triple >> 12) as usize & 0x3f],
        ALPHABET[(triple >> 6) as usize & 0x3f],
        ALPHABET[triple as usize & 0x3f],
    ]
}

/// Encodes bytes to a padded base64 string.
///
/// ```
/// assert_eq!(wsrc_soap::base64::encode(b"Man"), "TWFu");
/// assert_eq!(wsrc_soap::base64::encode(b"Ma"), "TWE=");
/// ```
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    encode_into(data, &mut out);
    out
}

/// Two characters per 12 bits: the encoder turns six bytes into eight
/// characters with four loads.
const PAIRS: [[u8; 2]; 4096] = {
    let mut table = [[0u8; 2]; 4096];
    let mut i = 0;
    while i < 4096 {
        table[i] = [ALPHABET[i >> 6], ALPHABET[i & 0x3f]];
        i += 1;
    }
    table
};

/// Appends the padded base64 of `data` to `out` — [`encode`] with no
/// string of its own, how the serializer writes `xsd:base64Binary`. Six
/// bytes at a time become eight characters of a stack block, appended a
/// block at a time.
pub fn encode_into(data: &[u8], out: &mut String) {
    out.reserve(data.len().div_ceil(3) * 4);
    let mut block = [0u8; 256];
    let mut filled = 0;
    let mut sixes = data.chunks_exact(6);
    for six in &mut sixes {
        let mut word = [0u8; 8];
        word[..6].copy_from_slice(six);
        let bits = u64::from_be_bytes(word);
        let chars = &mut block[filled..filled + 8];
        for (k, pair) in chars.chunks_exact_mut(2).enumerate() {
            pair.copy_from_slice(&PAIRS[(bits >> (52 - 12 * k)) as usize & 0xfff]);
        }
        filled += 8;
        if filled == block.len() {
            push_ascii(out, &block);
            filled = 0;
        }
    }
    let mut threes = sixes.remainder().chunks_exact(3);
    for c in &mut threes {
        let triple = (u32::from(c[0]) << 16) | (u32::from(c[1]) << 8) | u32::from(c[2]);
        block[filled..filled + 4].copy_from_slice(&sextets(triple));
        filled += 4;
    }
    let last = match *threes.remainder() {
        [b0] => {
            let q = sextets(u32::from(b0) << 16);
            Some([q[0], q[1], b'=', b'='])
        }
        [b0, b1] => {
            let q = sextets((u32::from(b0) << 16) | (u32::from(b1) << 8));
            Some([q[0], q[1], q[2], b'='])
        }
        _ => None,
    };
    if let Some(quantum) = last {
        block[filled..filled + 4].copy_from_slice(&quantum);
        filled += 4;
    }
    push_ascii(out, &block[..filled]);
}

fn push_ascii(out: &mut String, ascii: &[u8]) {
    out.push_str(std::str::from_utf8(ascii).expect("the base64 alphabet is ASCII"));
}

/// Marks a [`PLACED`] entry of a byte outside the alphabet.
const NOT_ALPHABET: u32 = 1 << 31;

/// [`DECODE`] per position in a quantum: the sextet shifted to where it
/// goes in the quantum's 24 bits, or [`NOT_ALPHABET`]. Four loads and
/// three ORs decode a quantum, and one test tells whether it was all
/// alphabet.
const PLACED: [[u32; 256]; 4] = {
    let mut table = [[NOT_ALPHABET; 256]; 4];
    let mut b = 0;
    while b < 256 {
        let sextet = DECODE[b];
        if sextet < WS {
            let mut at = 0;
            while at < 4 {
                table[at][b] = (sextet as u32) << (18 - 6 * at);
                at += 1;
            }
        }
        b += 1;
    }
    table
};

/// Decoded bytes over this many are not kept for the thread's next
/// [`decode_with`].
const SCRATCH_CAP: usize = 4 << 10;

thread_local! {
    /// The buffer the last [`decode_with`] on this thread decoded into.
    static SCRATCH: std::cell::Cell<Option<Vec<u8>>> = const { std::cell::Cell::new(None) };
}

/// Decodes a base64 string, tolerating embedded ASCII whitespace (XML
/// canonical form allows line breaks inside base64 content).
///
/// # Errors
///
/// Returns an encoding error for illegal characters, bad padding or a
/// truncated final quantum.
pub fn decode(text: &str) -> Result<Vec<u8>, SoapError> {
    decode_with(text, <[u8]>::to_vec)
}

/// [`decode`] into the thread's scratch, handing the bytes to `make`,
/// which builds what outlives the call from them — a `byte[]` value's
/// shared block, say, in one allocation of its exact size.
///
/// Runs of whole alphabet-only quanta decode sixteen characters to
/// twelve bytes at a time through the `PLACED` tables, into output
/// sized once for the whole text; whitespace, padding and errors drop to the
/// byte-at-a-time state machine until the next quantum boundary.
///
/// # Errors
///
/// Same conditions as [`decode`].
pub fn decode_with<T>(text: &str, make: impl FnOnce(&[u8]) -> T) -> Result<T, SoapError> {
    let mut out = SCRATCH.with(std::cell::Cell::take).unwrap_or_default();
    let decoded = decode_into(text, &mut out).map(|len| make(&out[..len]));
    if out.capacity() <= SCRATCH_CAP {
        SCRATCH.with(|slot| slot.set(Some(out)));
    }
    decoded
}

/// Decodes `text` into `out`, which it sizes, and returns the decoded
/// length.
fn decode_into(text: &str, out: &mut Vec<u8>) -> Result<usize, SoapError> {
    let bytes = text.as_bytes();
    out.clear();
    out.resize(bytes.len() / 4 * 3, 0);
    let mut written = 0;
    let mut quad = [0u8; 4];
    let mut filled = 0;
    let mut pad = 0;
    let mut i = 0;
    while i < bytes.len() {
        if filled == 0 && pad == 0 {
            while let Some(sixteen) = bytes.get(i..i + 16) {
                let quads: [u32; 4] = std::array::from_fn(|k| {
                    let q = &sixteen[4 * k..4 * k + 4];
                    PLACED[0][q[0] as usize]
                        | PLACED[1][q[1] as usize]
                        | PLACED[2][q[2] as usize]
                        | PLACED[3][q[3] as usize]
                });
                if quads.iter().fold(0, |any, q| any | q) & NOT_ALPHABET != 0 {
                    break;
                }
                let Some(dst) = out.get_mut(written..written + 12) else {
                    break;
                };
                for (three, quad) in dst.chunks_exact_mut(3).zip(quads) {
                    three.copy_from_slice(&quad.to_be_bytes()[1..]);
                }
                written += 12;
                i += 16;
            }
            while let Some(q) = bytes.get(i..i + 4) {
                let quad = PLACED[0][q[0] as usize]
                    | PLACED[1][q[1] as usize]
                    | PLACED[2][q[2] as usize]
                    | PLACED[3][q[3] as usize];
                if quad & NOT_ALPHABET != 0 {
                    break;
                }
                out[written..written + 3].copy_from_slice(&quad.to_be_bytes()[1..]);
                written += 3;
                i += 4;
            }
            if i >= bytes.len() {
                break;
            }
        }
        let v = DECODE[bytes[i] as usize];
        i += 1;
        match v {
            WS => continue,
            PAD => {
                pad += 1;
                if pad > 2 {
                    return Err(SoapError::encoding("too much base64 padding"));
                }
                quad[filled] = 0;
            }
            BAD => {
                // Only ASCII bytes were stepped over, so `i - 1` starts
                // a character.
                let other = text[i - 1..].chars().next().unwrap_or('\u{fffd}');
                return Err(SoapError::encoding(format!(
                    "invalid base64 character '{other}'"
                )));
            }
            sextet => {
                if pad > 0 {
                    return Err(SoapError::encoding("base64 data after padding"));
                }
                quad[filled] = sextet;
            }
        }
        filled += 1;
        if filled == 4 {
            written += put_quantum(&quad, pad, &mut out[written..]);
            filled = 0;
        }
    }
    if filled != 0 {
        return Err(SoapError::encoding("truncated base64 quantum"));
    }
    Ok(written)
}

/// Writes the bytes of one quantum of four sextets, the last `pad` of
/// which are padding, at the start of `out`; returns how many.
fn put_quantum(quad: &[u8; 4], pad: usize, out: &mut [u8]) -> usize {
    let triple = (u32::from(quad[0]) << 18)
        | (u32::from(quad[1]) << 12)
        | (u32::from(quad[2]) << 6)
        | u32::from(quad[3]);
    let bytes = [(triple >> 16) as u8, (triple >> 8) as u8, triple as u8];
    out[..3 - pad].copy_from_slice(&bytes[..3 - pad]);
    3 - pad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_vectors() {
        let vectors: &[(&[u8], &str)] = &[
            (b"", ""),
            (b"f", "Zg=="),
            (b"fo", "Zm8="),
            (b"foo", "Zm9v"),
            (b"foob", "Zm9vYg=="),
            (b"fooba", "Zm9vYmE="),
            (b"foobar", "Zm9vYmFy"),
        ];
        for (raw, enc) in vectors {
            assert_eq!(encode(raw), *enc);
            assert_eq!(decode(enc).unwrap(), *raw);
        }
    }

    #[test]
    fn binary_roundtrip() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn whitespace_is_tolerated() {
        assert_eq!(decode("Zm9v\nYmFy").unwrap(), b"foobar");
        assert_eq!(decode("  Zg = = ".replace(' ', "").as_str()).unwrap(), b"f");
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        for bad in ["Zg=", "Z", "Zg===", "Zg==Zg==X", "!@#$", "Z===", "=Zg="] {
            assert!(decode(bad).is_err(), "expected error for {bad:?}");
        }
    }

    /// The character-at-a-time decoder the table-driven one replaced,
    /// kept as the oracle for acceptance rules and error messages.
    fn reference_decode(text: &str) -> Result<Vec<u8>, String> {
        let mut out = Vec::new();
        let mut quad = [0u32; 4];
        let mut filled = 0;
        let mut pad = 0;
        for c in text.chars() {
            if c.is_ascii_whitespace() {
                continue;
            }
            let v = match c {
                'A'..='Z' => c as u32 - 'A' as u32,
                'a'..='z' => c as u32 - 'a' as u32 + 26,
                '0'..='9' => c as u32 - '0' as u32 + 52,
                '+' => 62,
                '/' => 63,
                '=' => {
                    pad += 1;
                    if pad > 2 {
                        return Err("too much base64 padding".into());
                    }
                    0
                }
                other => return Err(format!("invalid base64 character '{other}'")),
            };
            if c != '=' && pad > 0 {
                return Err("base64 data after padding".into());
            }
            quad[filled] = v;
            filled += 1;
            if filled == 4 {
                let triple = (quad[0] << 18) | (quad[1] << 12) | (quad[2] << 6) | quad[3];
                let bytes = [(triple >> 16) as u8, (triple >> 8) as u8, triple as u8];
                out.extend_from_slice(&bytes[..3 - pad]);
                filled = 0;
            }
        }
        if filled != 0 {
            return Err("truncated base64 quantum".into());
        }
        Ok(out)
    }

    fn assert_same_as_reference(text: &str) {
        let got = decode(text).map_err(|e| e.to_string());
        let want = reference_decode(text).map_err(|m| SoapError::encoding(m).to_string());
        assert_eq!(got, want, "{text:?}");
    }

    #[test]
    fn decode_matches_the_reference_on_mutated_input() {
        // Valid encodings of every length class, then single-character
        // damage at every position: whitespace of each kind, padding,
        // punctuation, a multi-byte character, a truncation.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for len in 0..40usize {
            let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let enc = encode(&data);
            assert_eq!(decode(&enc).unwrap(), data);
            assert_same_as_reference(&enc);
            for at in 0..=enc.len() {
                for insert in [" ", "\n", "\t\r\u{c}", "=", "==", "-", "é", "\u{b}", "A"] {
                    let mut damaged = enc.clone();
                    damaged.insert_str(at, insert);
                    assert_same_as_reference(&damaged);
                }
                if at < enc.len() {
                    let mut cut = enc.clone();
                    cut.remove(at);
                    assert_same_as_reference(&cut);
                    assert_same_as_reference(&enc[..at]);
                }
            }
        }
        for odd in [
            "=",
            "====",
            "A===",
            "AA=A",
            "AA==AA==",
            "AA= =",
            " A A A A ",
            "Zh==",
        ] {
            assert_same_as_reference(odd);
        }
    }

    #[test]
    fn large_payload_roundtrip() {
        let data = vec![0xA5u8; 5000];
        let enc = encode(&data);
        assert_eq!(enc.len(), data.len().div_ceil(3) * 4);
        assert_eq!(decode(&enc).unwrap(), data);
    }
}
