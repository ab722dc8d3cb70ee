//! HTTP-date (RFC 7231 IMF-fixdate) formatting and parsing, built on a
//! civil-calendar conversion so no external time crate is needed.

use crate::error::HttpError;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

const DAY_NAMES: [&str; 7] = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];
const MONTH_NAMES: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// Formats a time as an IMF-fixdate, e.g. `Sun, 06 Nov 1994 08:49:37 GMT`.
///
/// Times before the Unix epoch are clamped to the epoch.
pub fn format_http_date(t: SystemTime) -> String {
    let secs = t
        .duration_since(UNIX_EPOCH)
        .unwrap_or(Duration::ZERO)
        .as_secs() as i64;
    let days = secs.div_euclid(86_400);
    let secs_of_day = secs.rem_euclid(86_400);
    let (year, month, day) = civil_from_days(days);
    // 1970-01-01 was a Thursday (index 3 in Mon-based week).
    let weekday = (days + 3).rem_euclid(7) as usize;
    format!(
        "{}, {:02} {} {} {:02}:{:02}:{:02} GMT",
        DAY_NAMES[weekday],
        day,
        MONTH_NAMES[(month - 1) as usize],
        year,
        secs_of_day / 3600,
        (secs_of_day % 3600) / 60,
        secs_of_day % 60
    )
}

/// Parses an IMF-fixdate back to a `SystemTime`.
///
/// # Errors
///
/// Returns a protocol error for anything that is not a well-formed
/// IMF-fixdate (the obsolete RFC 850 and asctime forms are not accepted).
pub fn parse_http_date(s: &str) -> Result<SystemTime, HttpError> {
    let bad = || HttpError::protocol(format!("invalid http date '{s}'"));
    // "Sun, 06 Nov 1994 08:49:37 GMT"
    let rest = s.get(5..).ok_or_else(bad)?;
    let mut parts = rest.split_whitespace();
    let day: i64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let month_name = parts.next().ok_or_else(bad)?;
    let month = MONTH_NAMES
        .iter()
        .position(|m| *m == month_name)
        .ok_or_else(bad)? as i64
        + 1;
    // IMF-fixdate's year is exactly four digits, which also keeps the
    // calendar arithmetic below far from overflow.
    let year = parts.next().ok_or_else(bad)?;
    if year.len() != 4 || !year.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad());
    }
    let year: i64 = year.parse().map_err(|_| bad())?;
    let hms = parts.next().ok_or_else(bad)?;
    let zone = parts.next().ok_or_else(bad)?;
    if zone != "GMT" {
        return Err(bad());
    }
    let mut hms_it = hms.split(':');
    let h: i64 = hms_it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let m: i64 = hms_it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let sec: i64 = hms_it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    if !(1..=days_in_month(year, month)).contains(&day)
        || !(0..24).contains(&h)
        || !(0..60).contains(&m)
        || !(0..60).contains(&sec)
    {
        return Err(bad());
    }
    let days = days_from_civil(year, month, day);
    let total = days * 86_400 + h * 3600 + m * 60 + sec;
    if total < 0 {
        return Err(bad());
    }
    Ok(UNIX_EPOCH + Duration::from_secs(total as u64))
}

/// Days in `month` (1–12) of `year`, proleptic Gregorian.
fn days_in_month(year: i64, month: i64) -> i64 {
    match month {
        2 if year % 4 == 0 && (year % 100 != 0 || year % 400 == 0) => 29,
        2 => 28,
        4 | 6 | 9 | 11 => 30,
        _ => 31,
    }
}

/// Days-since-epoch → (year, month, day). Howard Hinnant's algorithm.
fn civil_from_days(z: i64) -> (i64, i64, i64) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// (year, month, day) → days since epoch. Inverse of [`civil_from_days`].
fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = y.div_euclid(400);
    let yoe = y.rem_euclid(400);
    let mp = if m > 2 { m - 3 } else { m + 9 };
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_the_rfc_example() {
        // 784111777 = Sun, 06 Nov 1994 08:49:37 GMT (the RFC 7231 example).
        let t = UNIX_EPOCH + Duration::from_secs(784_111_777);
        assert_eq!(format_http_date(t), "Sun, 06 Nov 1994 08:49:37 GMT");
    }

    #[test]
    fn epoch_formats_correctly() {
        assert_eq!(
            format_http_date(UNIX_EPOCH),
            "Thu, 01 Jan 1970 00:00:00 GMT"
        );
    }

    #[test]
    fn parse_inverts_format() {
        for secs in [
            0u64,
            1,
            86_399,
            86_400,
            784_111_777,
            1_700_000_000,
            4_102_444_800,
        ] {
            let t = UNIX_EPOCH + Duration::from_secs(secs);
            let s = format_http_date(t);
            assert_eq!(parse_http_date(&s).unwrap(), t, "roundtrip failed for {s}");
        }
    }

    #[test]
    fn leap_years_are_handled() {
        // 2000-02-29 00:00:00 UTC = 951782400
        let t = UNIX_EPOCH + Duration::from_secs(951_782_400);
        let s = format_http_date(t);
        assert!(s.contains("29 Feb 2000"), "{s}");
        assert_eq!(parse_http_date(&s).unwrap(), t);
    }

    #[test]
    fn rejects_malformed_dates() {
        for s in [
            "",
            "yesterday",
            "Sun, 06 Nov 1994 08:49:37 PST",
            "Sun, 06 XXX 1994 08:49:37 GMT",
            "Sun, 99 Nov 1994 08:49:37 GMT",
            "Sun, 06 Nov 1994 25:49:37 GMT",
            "Sun, 06 Nov 1994 08:49 GMT",
            "Sun, 06 Nov 99999999999999999 08:49:37 GMT",
            "Sun, 06 Nov 19940 08:49:37 GMT",
            "Sun, 06 Nov +994 08:49:37 GMT",
            "Sun, 31 Feb 1994 08:49:37 GMT",
            "Sun, 29 Feb 1900 08:49:37 GMT",
            "Sun, 31 Apr 1994 08:49:37 GMT",
        ] {
            assert!(parse_http_date(s).is_err(), "expected error for {s:?}");
        }
    }

    #[test]
    fn civil_conversion_is_self_inverse_across_range() {
        for days in (-1_000..200_000).step_by(321) {
            let (y, m, d) = civil_from_days(days);
            assert_eq!(days_from_civil(y, m, d), days);
            assert!((1..=12).contains(&m));
            assert!((1..=31).contains(&d));
        }
    }
}
