//! Randomized tests for the HTTP substrate: message round-trips, date
//! round-trips, header handling, and parser robustness.
//!
//! The build environment is offline (no `proptest`), so these use a
//! hand-rolled deterministic xorshift generator with fixed seeds.

use std::io::BufReader;
use std::time::{Duration, UNIX_EPOCH};
use wsrc_http::date::{format_http_date, parse_http_date};
use wsrc_http::{Headers, Request, Response, Status};

const CASES: u64 = 192;

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, max: usize) -> Vec<u8> {
        let n = self.below(max);
        (0..n).map(|_| self.next() as u8).collect()
    }

    fn from_alphabet(&mut self, alphabet: &[u8], len: usize) -> String {
        (0..len)
            .map(|_| alphabet[self.below(alphabet.len())] as char)
            .collect()
    }
}

fn token(rng: &mut Rng) -> String {
    const FIRST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-";
    let mut s = rng.from_alphabet(FIRST, 1);
    let rest_len = rng.below(16);
    s.push_str(&rng.from_alphabet(REST, rest_len));
    s
}

fn header_value(rng: &mut Rng) -> String {
    // No CR/LF (those would be header injection), no leading/trailing
    // whitespace (trimmed by the parser).
    let n = rng.below(31);
    let s: String = (0..n)
        .map(|_| (b' ' + rng.below(95) as u8) as char)
        .collect();
    s.trim().to_string()
}

#[test]
fn request_wire_roundtrip() {
    const TARGET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/_.?=&-";
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let target_len = rng.below(41);
        let target = format!("/{}", rng.from_alphabet(TARGET, target_len));
        let body = rng.bytes(512);
        let names: Vec<String> = (0..rng.below(6)).map(|_| token(&mut rng)).collect();
        let values: Vec<String> = (0..names.len()).map(|_| header_value(&mut rng)).collect();

        let mut req = Request::post(&target, "application/octet-stream", body.clone());
        // Dedupe case-insensitively: `set` replaces across cases.
        let mut seen = std::collections::HashSet::new();
        let pairs: Vec<(String, String)> = names
            .iter()
            .zip(&values)
            .filter(|(n, _)| seen.insert(n.to_lowercase()))
            .map(|(n, v)| (n.clone(), v.clone()))
            .collect();
        for (n, v) in &pairs {
            // Skip names the serializer writes itself.
            if n.eq_ignore_ascii_case("content-length")
                || n.eq_ignore_ascii_case("host")
                || n.eq_ignore_ascii_case("content-type")
            {
                continue;
            }
            req.headers.set(n, v.clone());
        }
        let mut wire = Vec::new();
        req.write_to(&mut wire, "h.test:80").unwrap();
        let parsed = Request::read_from(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert_eq!(parsed.target, target, "seed {seed}");
        assert_eq!(parsed.body, body, "seed {seed}");
        for (n, v) in &pairs {
            if n.eq_ignore_ascii_case("content-length")
                || n.eq_ignore_ascii_case("host")
                || n.eq_ignore_ascii_case("content-type")
            {
                continue;
            }
            assert_eq!(parsed.headers.get(n), Some(v.as_str()), "seed {seed}");
        }
    }
}

#[test]
fn response_wire_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 1000);
        let code = 200 + rng.below(400) as u16;
        let body = rng.bytes(512);
        let resp = Response::new(Status(code), "application/octet-stream", body.clone());
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let parsed = Response::read_from(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(parsed.status.0, code, "seed {seed}");
        assert_eq!(parsed.body, body, "seed {seed}");
    }
}

#[test]
fn http_date_roundtrips() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 2000);
        let secs = rng.next() % 4_000_000_000;
        let t = UNIX_EPOCH + Duration::from_secs(secs);
        let s = format_http_date(t);
        assert_eq!(parse_http_date(&s).unwrap(), t, "seed {seed}");
        // Format is always the fixed 29-character IMF-fixdate.
        assert_eq!(s.len(), 29, "seed {seed}");
    }
}

#[test]
fn date_parser_never_panics() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 3000);
        let n = rng.below(40);
        let s: String = (0..n)
            .map(|_| char::from_u32(rng.next() as u32 % 0x300).unwrap_or('?'))
            .collect();
        let _ = parse_http_date(&s);
    }
}

#[test]
fn request_parser_never_panics() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 4000);
        let data = rng.bytes(256);
        let _ = Request::read_from(&mut BufReader::new(&data[..]));
        let _ = Response::read_from(&mut BufReader::new(&data[..]));
    }
}

#[test]
fn headers_are_case_insensitive() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 6000);
        let name = token(&mut rng);
        let value = header_value(&mut rng);
        let mut h = Headers::new();
        h.set(&name, value.clone());
        assert_eq!(h.get(&name.to_uppercase()), Some(value.as_str()));
        assert_eq!(h.get(&name.to_lowercase()), Some(value.as_str()));
        h.set(&name.to_uppercase(), "replaced");
        assert_eq!(h.get(&name), Some("replaced"));
        assert_eq!(h.len(), 1);
    }
}
