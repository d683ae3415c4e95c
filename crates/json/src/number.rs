//! JSON numbers and the Oracle NUMBER–style decimal encoding.
//!
//! The paper's third OSON design criterion (§4.1) is that scalar values
//! are encoded "in the same binary format as our SQL scalar columns" so
//! values pass between the JSON and SQL worlds without conversion. The
//! SQL-native number format here is [`OraNum`], a faithful reimplementation
//! of the Oracle NUMBER wire layout: a variable-length base-100
//! sign/exponent/mantissa encoding whose *byte-wise* unsigned comparison
//! order equals numeric order.
//!
//! Layout (as in Oracle NUMBER):
//! * zero               → the single byte `0x80`
//! * positive value     → exponent byte `0xC1 + e`, then mantissa bytes
//!   `digit + 1` (digits in base 100, first digit non-zero, no trailing
//!   zero digit)
//! * negative value     → exponent byte `0x3E - e`, then mantissa bytes
//!   `101 - digit`, then a terminator byte `102` (which makes shorter
//!   negative mantissas compare *greater*, i.e. closer to zero)
//!
//! where the value is `±0.d1d2… × 100^(e+1)` with `d1 ≥ 1`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::error::JsonError;

/// Maximum number of base-100 mantissa digits retained (40 decimal digits,
/// mirroring Oracle's 38-significant-digit NUMBER with slack for rounding).
pub const MAX_MANTISSA: usize = 20;

const MAX_ENCODED: usize = MAX_MANTISSA + 2; // exponent byte + terminator

/// The base-100 digits of a decoded [`OraNum`].
struct Digits {
    buf: [u8; MAX_ENCODED],
    len: usize,
}

impl std::ops::Deref for Digits {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// Oracle NUMBER–style decimal. Stored directly in its encoded wire form;
/// ordering is a plain byte comparison.
#[derive(Clone, Copy)]
pub struct OraNum {
    bytes: [u8; MAX_ENCODED],
    len: u8,
}

impl OraNum {
    /// The canonical encoding of zero.
    pub fn zero() -> Self {
        let mut bytes = [0u8; MAX_ENCODED];
        bytes[0] = 0x80;
        OraNum { bytes, len: 1 }
    }

    /// Encoded byte representation (what OSON stores in its leaf segment).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Reconstruct from encoded bytes (e.g. read back out of an OSON
    /// leaf-scalar-value segment). Validates structural invariants.
    pub fn from_bytes(b: &[u8]) -> Result<Self, JsonError> {
        if b.is_empty() || b.len() > MAX_ENCODED {
            return Err(JsonError::new("OraNum: invalid length"));
        }
        if b[0] == 0x80 {
            if b.len() != 1 {
                return Err(JsonError::new("OraNum: zero must be a single byte"));
            }
            return Ok(Self::zero());
        }
        let positive = b[0] > 0x80;
        if positive {
            if b.len() < 2 {
                return Err(JsonError::new("OraNum: missing mantissa"));
            }
            // digit d (0..=99) encodes as d+1; interior zeros (byte 1) are
            // legal, a trailing zero digit is not (non-canonical).
            for &d in &b[1..] {
                if !(1..=100).contains(&d) {
                    return Err(JsonError::new("OraNum: bad positive mantissa byte"));
                }
            }
            if *b.last().unwrap() == 1 {
                return Err(JsonError::new("OraNum: trailing zero digit"));
            }
        } else {
            // digit d encodes as 101-d (2..=101); terminator byte 102.
            let mant = if *b.last().unwrap() == 102 { &b[1..b.len() - 1] } else { &b[1..] };
            if mant.is_empty() {
                return Err(JsonError::new("OraNum: missing mantissa"));
            }
            for &d in mant {
                if !(2..=101).contains(&d) {
                    return Err(JsonError::new("OraNum: bad negative mantissa byte"));
                }
            }
            if *mant.last().unwrap() == 101 {
                return Err(JsonError::new("OraNum: trailing zero digit"));
            }
        }
        let mut bytes = [0u8; MAX_ENCODED];
        bytes[..b.len()].copy_from_slice(b);
        Ok(OraNum { bytes, len: b.len() as u8 })
    }

    /// Build from sign, base-100 exponent `e` (value = ±0.d… × 100^(e+1))
    /// and base-100 digits (first non-zero, values 0..=99, no trailing zero).
    fn from_parts(negative: bool, exp: i32, digits: &[u8]) -> Result<Self, JsonError> {
        if digits.is_empty() {
            return Ok(Self::zero());
        }
        debug_assert!(digits[0] >= 1 && *digits.last().unwrap() >= 1);
        if !(-65..=62).contains(&exp) {
            return Err(JsonError::new(format!("OraNum: exponent {exp} out of range")));
        }
        let ndig = digits.len().min(MAX_MANTISSA);
        let mut bytes = [0u8; MAX_ENCODED];
        let mut len;
        if !negative {
            bytes[0] = (0xC1_i32 + exp) as u8;
            for (i, &d) in digits[..ndig].iter().enumerate() {
                bytes[1 + i] = d + 1;
            }
            len = 1 + ndig;
            // truncation may leave a trailing zero digit (encoded 1); strip it
            while len > 1 && bytes[len - 1] == 1 {
                len -= 1;
            }
        } else {
            bytes[0] = (0x3E_i32 - exp) as u8;
            for (i, &d) in digits[..ndig].iter().enumerate() {
                bytes[1 + i] = 101 - d;
            }
            len = 1 + ndig;
            // a zero digit encodes as 101 - 0 = 101 for negatives
            while len > 1 && bytes[len - 1] == 101 {
                len -= 1;
            }
            bytes[len] = 102;
            len += 1;
        }
        Ok(OraNum { bytes, len: len as u8 })
    }

    /// Decode into (negative, base-100 exponent, base-100 digits), the
    /// digits in a buffer on the stack. Returns `None` for zero.
    fn parts(&self) -> Option<(bool, i32, Digits)> {
        let b = self.as_bytes();
        if b[0] == 0x80 {
            return None;
        }
        let neg = b[0] < 0x80;
        let (exp, mant) = if neg {
            let mant = if *b.last().unwrap() == 102 { &b[1..b.len() - 1] } else { &b[1..] };
            (0x3E_i32 - b[0] as i32, mant)
        } else {
            (b[0] as i32 - 0xC1, &b[1..])
        };
        let mut digits = Digits { buf: [0; MAX_ENCODED], len: mant.len() };
        for (d, &m) in digits.buf.iter_mut().zip(mant) {
            *d = if neg { 101 - m } else { m - 1 };
        }
        Some((neg, exp, digits))
    }

    /// True iff this encodes zero.
    pub fn is_zero(&self) -> bool {
        self.len == 1 && self.bytes[0] == 0x80
    }

    /// True for negative values.
    pub fn is_negative(&self) -> bool {
        self.bytes[0] < 0x80
    }

    /// Encode an `i64` exactly.
    pub fn from_i64(v: i64) -> Self {
        if v == 0 {
            return Self::zero();
        }
        let negative = v < 0;
        // collect base-100 digits least-significant first using magnitude
        let mut mag = if negative { (v as i128).unsigned_abs() } else { v as u128 };
        let mut rev = [0u8; 10];
        let mut n = 0;
        while mag > 0 {
            rev[n] = (mag % 100) as u8;
            mag /= 100;
            n += 1;
        }
        // strip trailing zero base-100 digits (they only shift the exponent)
        let mut lead_zeros = 0;
        while rev[lead_zeros] == 0 {
            lead_zeros += 1;
        }
        let digits = &mut rev[lead_zeros..n];
        digits.reverse();
        let exp = n as i32 - 1;
        Self::from_parts(negative, exp, digits).expect("i64 always in range")
    }

    /// Encode an `f64`. Returns `None` for NaN or infinities.
    pub fn from_f64(v: f64) -> Option<Self> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(Self::zero());
        }
        // Rust's Display for f64 is the shortest decimal that round-trips,
        // so parsing it back preserves the value exactly.
        let s = format!("{v:e}");
        Self::from_decimal_str(&s).ok()
    }

    /// Parse from a JSON-style decimal literal (optionally in scientific
    /// notation). Mantissas longer than 40 decimal digits are truncated.
    pub fn from_decimal_str(s: &str) -> Result<Self, JsonError> {
        let b = s.as_bytes();
        let mut i = 0;
        let negative = if b.first() == Some(&b'-') {
            i += 1;
            true
        } else {
            if b.first() == Some(&b'+') {
                i += 1;
            }
            false
        };
        let mut digits10: Vec<u8> = Vec::with_capacity(b.len());
        let mut point_pos: Option<usize> = None;
        let mut saw_digit = false;
        while i < b.len() {
            match b[i] {
                b'0'..=b'9' => {
                    digits10.push(b[i] - b'0');
                    saw_digit = true;
                }
                b'.' if point_pos.is_none() => point_pos = Some(digits10.len()),
                b'e' | b'E' => break,
                _ => return Err(JsonError::new(format!("OraNum: bad decimal literal {s:?}"))),
            }
            i += 1;
        }
        if !saw_digit {
            return Err(JsonError::new(format!("OraNum: bad decimal literal {s:?}")));
        }
        let mut exp10: i64 = 0;
        if i < b.len() {
            // exponent part
            i += 1;
            let estr = std::str::from_utf8(&b[i..]).map_err(|_| JsonError::new("utf8"))?;
            exp10 = i64::from_str(estr)
                .map_err(|_| JsonError::new(format!("OraNum: bad exponent in {s:?}")))?;
        }
        // Position of decimal point within digits10 (digits before the point)
        let int_len = point_pos.unwrap_or(digits10.len()) as i64;
        // value = 0.digits10 × 10^(int_len + exp10)
        let mut e10 = int_len + exp10;
        // strip leading zeros (each reduces e10 by one... no: leading zero in
        // 0.d… form removes a digit but the weight of remaining digits is the
        // same only if we also decrement e10)
        let mut start = 0;
        while start < digits10.len() && digits10[start] == 0 {
            start += 1;
            e10 -= 1;
        }
        let mut end = digits10.len();
        while end > start && digits10[end - 1] == 0 {
            end -= 1;
        }
        let sig = &digits10[start..end];
        if sig.is_empty() {
            return Ok(Self::zero());
        }
        // Align to base 100: ensure e10 is even by left-padding with a zero.
        let mut padded: Vec<u8> = Vec::with_capacity(sig.len() + 2);
        if e10.rem_euclid(2) != 0 {
            padded.push(0);
            e10 += 1;
        }
        padded.extend_from_slice(sig);
        if !padded.len().is_multiple_of(2) {
            padded.push(0);
        }
        let digits100: Vec<u8> = padded.chunks_exact(2).map(|p| p[0] * 10 + p[1]).collect();
        let exp100: i64 = e10 / 2 - 1;
        if exp100 > 62 {
            return Err(JsonError::new(format!("OraNum: magnitude overflow in {s:?}")));
        }
        if exp100 < -65 {
            // underflow to zero, matching Oracle behaviour for sub-1e-130
            return Ok(Self::zero());
        }
        // strip any leading zero base-100 digit created by padding
        let first_nonzero = digits100.iter().position(|&d| d != 0).unwrap_or(0);
        let adj_digits = &digits100[first_nonzero..];
        let adj_exp = exp100 as i32 - first_nonzero as i32;
        let mut trimmed: Vec<u8> = adj_digits.to_vec();
        while trimmed.last() == Some(&0) {
            trimmed.pop();
        }
        Self::from_parts(negative, adj_exp, &trimmed)
    }

    /// Lossy conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        match self.parts() {
            None => 0.0,
            Some((neg, exp, digits)) => {
                let mut m = 0.0f64;
                for &d in digits.iter() {
                    m = m * 100.0 + d as f64;
                }
                // dividing by a positive power is exact where multiplying
                // by its reciprocal is not (e.g. 10182/100 vs 10182*0.01)
                let e = exp + 1 - digits.len() as i32;
                let v = if e >= 0 { m * 100f64.powi(e) } else { m / 100f64.powi(-e) };
                if neg {
                    -v
                } else {
                    v
                }
            }
        }
    }

    /// Exact conversion to `i64` when this is an integer that fits.
    pub fn to_i64(&self) -> Option<i64> {
        let (neg, exp, digits) = match self.parts() {
            None => return Some(0),
            Some(p) => p,
        };
        if exp < 0 || (digits.len() as i32) > exp + 1 || exp >= 10 {
            return None;
        }
        let mut acc: i128 = 0;
        for i in 0..=(exp as usize) {
            let d = digits.get(i).copied().unwrap_or(0);
            acc = acc * 100 + d as i128;
        }
        let acc = if neg { -acc } else { acc };
        i64::try_from(acc).ok()
    }

    /// Canonical decimal string (no exponent for |exp10| ≤ 40, scientific
    /// beyond that).
    pub fn to_decimal_string(&self) -> String {
        let (neg, exp, digits) = match self.parts() {
            None => return "0".to_string(),
            Some(p) => p,
        };
        let mut ds = String::with_capacity(digits.len() * 2);
        for (i, &d) in digits.iter().enumerate() {
            if i == 0 {
                // no leading zero on the first base-100 digit
                ds.push_str(&d.to_string());
            } else {
                ds.push((b'0' + d / 10) as char);
                ds.push((b'0' + d % 10) as char);
            }
        }
        // value = 0.?? with digit string ds where the decimal point sits
        // after `point` digits of ds:
        let first_len = if digits[0] >= 10 { 2i64 } else { 1i64 };
        let point = exp as i64 * 2 + first_len; // digits of ds left of the point
        let sign = if neg { "-" } else { "" };
        let n = ds.len() as i64;
        if point >= n && point <= 40 {
            let zeros = "0".repeat((point - n) as usize);
            format!("{sign}{ds}{zeros}")
        } else if point > 0 && point < n {
            let frac = ds[point as usize..].trim_end_matches('0');
            if frac.is_empty() {
                format!("{sign}{}", &ds[..point as usize])
            } else {
                format!("{sign}{}.{}", &ds[..point as usize], frac)
            }
        } else if point <= 0 && point > -38 {
            let zeros = "0".repeat((-point) as usize);
            let frac = ds.trim_end_matches('0');
            format!("{sign}0.{zeros}{frac}")
        } else {
            // scientific: d.ddd e (point-1)
            let mut mant = String::new();
            mant.push_str(&ds[..1]);
            if ds.len() > 1 {
                mant.push('.');
                mant.push_str(&ds[1..]);
            }
            format!("{sign}{mant}e{}", point - 1)
        }
    }
}

impl PartialEq for OraNum {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}
impl Eq for OraNum {}

impl PartialOrd for OraNum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OraNum {
    /// Numeric order == byte order: the property the encoding is built for.
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for OraNum {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for OraNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OraNum({})", self.to_decimal_string())
    }
}

impl fmt::Display for OraNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_decimal_string())
    }
}

/// A JSON number. Small integers and common decimals take fast paths; all
/// variants can surface as [`OraNum`] for SQL interchange.
#[derive(Clone, Copy, Debug)]
pub enum JsonNumber {
    /// Integer that fits in an `i64`.
    Int(i64),
    /// Exact decimal in Oracle NUMBER encoding.
    Dec(OraNum),
    /// IEEE double fallback (magnitude beyond NUMBER's exponent range).
    Dbl(f64),
}

impl JsonNumber {
    /// Parse from a JSON numeric literal.
    pub fn from_literal(s: &str) -> Result<Self, JsonError> {
        // fast path: plain integer
        if !s.contains(['.', 'e', 'E']) {
            if let Ok(v) = i64::from_str(s) {
                return Ok(JsonNumber::Int(v));
            }
        }
        match OraNum::from_decimal_str(s) {
            Ok(d) => {
                if let Some(i) = d.to_i64() {
                    Ok(JsonNumber::Int(i))
                } else {
                    Ok(JsonNumber::Dec(d))
                }
            }
            Err(_) => {
                let v = f64::from_str(s)
                    .map_err(|_| JsonError::new(format!("invalid number literal {s:?}")))?;
                Ok(JsonNumber::Dbl(v))
            }
        }
    }

    /// Lossy conversion to `f64` (used by arithmetic in the SQL engine).
    pub fn to_f64(&self) -> f64 {
        match self {
            JsonNumber::Int(v) => *v as f64,
            JsonNumber::Dec(d) => d.to_f64(),
            JsonNumber::Dbl(v) => *v,
        }
    }

    /// Exact `i64` value when integral and in range.
    pub fn to_i64(&self) -> Option<i64> {
        match self {
            JsonNumber::Int(v) => Some(*v),
            JsonNumber::Dec(d) => d.to_i64(),
            JsonNumber::Dbl(v) => {
                if v.fract() == 0.0 && v.abs() < 9.2e18 {
                    Some(*v as i64)
                } else {
                    None
                }
            }
        }
    }

    /// The Oracle NUMBER encoding of this value, when representable.
    pub fn to_oranum(&self) -> Option<OraNum> {
        match self {
            JsonNumber::Int(v) => Some(OraNum::from_i64(*v)),
            JsonNumber::Dec(d) => Some(*d),
            JsonNumber::Dbl(v) => OraNum::from_f64(*v),
        }
    }

    /// Canonical textual form (what the serializer emits).
    pub fn to_literal(&self) -> String {
        match self {
            JsonNumber::Int(v) => v.to_string(),
            JsonNumber::Dec(d) => d.to_decimal_string(),
            JsonNumber::Dbl(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{:.1}", v)
                } else {
                    format!("{v}")
                }
            }
        }
    }

    /// Total order across all variants (exact where both sides are exact).
    pub fn total_cmp(&self, other: &JsonNumber) -> Ordering {
        match (self, other) {
            (JsonNumber::Int(a), JsonNumber::Int(b)) => a.cmp(b),
            (JsonNumber::Dbl(a), JsonNumber::Dbl(b)) => a.total_cmp(b),
            (a, b) => match (a.to_oranum(), b.to_oranum()) {
                (Some(x), Some(y)) => x.cmp(&y),
                _ => a.to_f64().total_cmp(&b.to_f64()),
            },
        }
    }
}

impl PartialEq for JsonNumber {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}
impl Eq for JsonNumber {}

impl PartialOrd for JsonNumber {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for JsonNumber {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for JsonNumber {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Values equal under total_cmp must hash identically, so hash the
        // canonical OraNum encoding whenever one exists.
        match self.to_oranum() {
            Some(d) => d.hash(state),
            None => match self {
                JsonNumber::Dbl(v) => v.to_bits().hash(state),
                _ => unreachable!("Int/Dec always convert to OraNum"),
            },
        }
    }
}

impl From<i64> for JsonNumber {
    fn from(v: i64) -> Self {
        JsonNumber::Int(v)
    }
}
impl From<i32> for JsonNumber {
    fn from(v: i32) -> Self {
        JsonNumber::Int(v as i64)
    }
}
impl From<f64> for JsonNumber {
    fn from(v: f64) -> Self {
        if v.fract() == 0.0 && v.abs() < 9.2e18 {
            JsonNumber::Int(v as i64)
        } else {
            match OraNum::from_f64(v) {
                Some(d) => JsonNumber::Dec(d),
                None => JsonNumber::Dbl(v),
            }
        }
    }
}

impl fmt::Display for JsonNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_literal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_0x80() {
        assert_eq!(OraNum::zero().as_bytes(), &[0x80]);
        assert_eq!(OraNum::from_i64(0).as_bytes(), &[0x80]);
    }

    #[test]
    fn encodes_known_oracle_examples() {
        // 1 -> C1 02 ; 100 -> C2 02 ; -1 -> 3E 64 66 (Oracle dump values)
        assert_eq!(OraNum::from_i64(1).as_bytes(), &[0xC1, 0x02]);
        assert_eq!(OraNum::from_i64(100).as_bytes(), &[0xC2, 0x02]);
        assert_eq!(OraNum::from_i64(-1).as_bytes(), &[0x3E, 0x64, 0x66]);
    }

    #[test]
    fn i64_roundtrip() {
        for v in [0i64, 1, -1, 99, 100, 101, 12345, -12345, 9_999_999, i64::MAX, i64::MIN + 1] {
            let n = OraNum::from_i64(v);
            assert_eq!(n.to_i64(), Some(v), "roundtrip {v}");
        }
    }

    #[test]
    fn decimal_string_roundtrip() {
        for s in [
            "0",
            "1",
            "-1",
            "3.14",
            "-3.14",
            "0.5",
            "0.005",
            "100.25",
            "1234567.89",
            "350.86",
            "52.78",
            "35.24",
            "345.55",
            "546.78",
        ] {
            let n = OraNum::from_decimal_str(s).unwrap();
            assert_eq!(n.to_decimal_string(), s, "canonical form of {s}");
        }
    }

    #[test]
    fn scientific_input() {
        assert_eq!(OraNum::from_decimal_str("1e2").unwrap().to_i64(), Some(100));
        assert_eq!(OraNum::from_decimal_str("1.5e3").unwrap().to_i64(), Some(1500));
        assert_eq!(OraNum::from_decimal_str("25e-2").unwrap().to_decimal_string(), "0.25");
    }

    #[test]
    fn byte_order_matches_numeric_order() {
        let vals = [
            -1_000_000.5,
            -999.0,
            -1.5,
            -1.0,
            -0.01,
            0.0,
            0.25,
            1.0,
            1.5,
            2.0,
            99.0,
            100.0,
            101.0,
            12345.678,
            1e10,
        ];
        for a in vals {
            for b in vals {
                let na = OraNum::from_f64(a).unwrap();
                let nb = OraNum::from_f64(b).unwrap();
                assert_eq!(
                    na.cmp(&nb),
                    a.partial_cmp(&b).unwrap(),
                    "order mismatch for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn f64_roundtrip_through_decimal() {
        for v in [0.1, 2.5, 1234.5678, -0.25, 1e-10, 123456789.123] {
            let n = OraNum::from_f64(v).unwrap();
            assert!((n.to_f64() - v).abs() <= v.abs() * 1e-12, "{v} -> {}", n.to_f64());
        }
    }

    #[test]
    fn from_bytes_validates() {
        assert!(OraNum::from_bytes(&[]).is_err());
        assert!(OraNum::from_bytes(&[0x80, 0x01]).is_err());
        assert!(OraNum::from_bytes(&[0xC1, 0x01]).is_err()); // mantissa byte 1 invalid for positive
        let n = OraNum::from_i64(42);
        assert_eq!(OraNum::from_bytes(n.as_bytes()).unwrap(), n);
    }

    #[test]
    fn json_number_literal_classification() {
        assert!(matches!(JsonNumber::from_literal("42").unwrap(), JsonNumber::Int(42)));
        assert!(matches!(JsonNumber::from_literal("4e2").unwrap(), JsonNumber::Int(400)));
        assert!(matches!(JsonNumber::from_literal("3.14").unwrap(), JsonNumber::Dec(_)));
        assert!(matches!(JsonNumber::from_literal("1e300").unwrap(), JsonNumber::Dbl(_)));
        assert!(JsonNumber::from_literal("abc").is_err());
    }

    #[test]
    fn json_number_cross_variant_eq() {
        let a = JsonNumber::Int(100);
        let b = JsonNumber::from_literal("100.0").unwrap();
        assert_eq!(a, b);
        let c = JsonNumber::Dec(OraNum::from_decimal_str("100.5").unwrap());
        assert!(a < c);
    }

    #[test]
    fn underflow_to_zero() {
        let tiny = OraNum::from_decimal_str("1e-200").unwrap();
        assert!(tiny.is_zero());
    }

    #[test]
    fn overflow_is_error() {
        assert!(OraNum::from_decimal_str("1e200").is_err());
    }

    #[test]
    fn display_literals() {
        assert_eq!(JsonNumber::Int(7).to_literal(), "7");
        assert_eq!(JsonNumber::from_literal("2.50").unwrap().to_literal(), "2.5");
    }
}
