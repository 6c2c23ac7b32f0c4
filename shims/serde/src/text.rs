//! The JSON text of a string and of a float, written to any
//! [`fmt::Write`]: the `serde_json` printer renders through these, and a
//! hasher that streams JSON text (with no string built) feeds through the
//! same rules, so the two can never disagree on a byte.

use std::fmt::{self, Write};

/// `s` as a JSON string: quoted, with quotes, backslashes and control
/// characters escaped.
pub fn write_json_str(out: &mut impl Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// `f` as a JSON number: `null` when not finite; one fractional digit when
/// integral below 1e16, so the token stays a float ("5.0", "-0.0");
/// otherwise Rust's shortest round-trip digits, which a parser inverts
/// exactly.
pub fn write_json_f64(out: &mut impl Write, f: f64) -> fmt::Result {
    if !f.is_finite() {
        out.write_str("null")
    } else if f.fract() == 0.0 && f.abs() < 1e16 {
        // What `{f:.1}` writes, without its slow exact-decimal path.
        let sign = if f.is_sign_negative() { "-" } else { "" };
        write!(out, "{sign}{}.0", f.abs() as u64)
    } else {
        write!(out, "{f}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integral_floats_write_what_one_decimal_formatting_writes() {
        for f in [0.0, -0.0, 5.0, -3.0, 1e15, 9_999_999_999_999_998.0, -1e15] {
            let mut out = String::new();
            write_json_f64(&mut out, f).unwrap();
            assert_eq!(out, format!("{f:.1}"));
        }
    }
}
