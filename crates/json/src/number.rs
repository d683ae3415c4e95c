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
//!
//! Every conversion here works on the stack: decoding an OSON leaf,
//! encoding an `f64` result of SQL arithmetic, parsing a literal.

// hot path over stored bytes no constraint checked: every number read out
// of an OSON instance is decoded here, so corrupted input returns `Err` or
// a total fallback, never a panic (DESIGN.md §8)
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::error::JsonError;

/// Maximum number of base-100 mantissa digits retained (40 decimal digits,
/// mirroring Oracle's 38-significant-digit NUMBER with slack for rounding).
pub const MAX_MANTISSA: usize = 20;

const MAX_ENCODED: usize = MAX_MANTISSA + 2; // exponent byte + terminator

/// Significant decimal digits a literal keeps: the mantissa holds 40
/// decimal places, the first of which may be the zero that pads the
/// exponent to an even one; no later digit can reach the encoding.
const SIG_DIGITS: usize = 42;

/// The error of a number literal whose magnitude is beyond the `f64`
/// range: no JSON number stands for it.
pub(crate) const OUT_OF_RANGE: &str = "number out of range";

/// The base-100 digits of a decoded [`OraNum`].
struct Digits {
    buf: [u8; MAX_ENCODED],
    len: usize,
}

impl std::ops::Deref for Digits {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.buf.get(..self.len).unwrap_or_default()
    }
}

/// A short text formatted on the stack: `{:e}` of an `f64` (at most 17
/// digits, a sign, a point and a signed three-digit exponent) or the
/// decimal digits of an [`OraNum`] (at most 42).
struct StackText {
    buf: [u8; 48],
    len: usize,
}

impl Default for StackText {
    fn default() -> Self {
        StackText { buf: [0; 48], len: 0 }
    }
}

impl fmt::Write for StackText {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        self.buf.get_mut(self.len..end).ok_or(fmt::Error)?.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

impl StackText {
    fn as_str(&self) -> &str {
        std::str::from_utf8(self.buf.get(..self.len).unwrap_or_default()).unwrap_or_default()
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
        self.bytes.get(..usize::from(self.len)).unwrap_or_default()
    }

    /// Reconstruct from encoded bytes (e.g. read back out of an OSON
    /// leaf-scalar-value segment). Validates structural invariants.
    pub fn from_bytes(b: &[u8]) -> Result<Self, JsonError> {
        let Some((&head, rest)) = b.split_first().filter(|_| b.len() <= MAX_ENCODED) else {
            return Err(JsonError::new("OraNum: invalid length"));
        };
        if head == 0x80 {
            if !rest.is_empty() {
                return Err(JsonError::new("OraNum: zero must be a single byte"));
            }
            return Ok(Self::zero());
        }
        if head > 0x80 {
            // digit d (0..=99) encodes as d+1; interior zeros (byte 1) are
            // legal, a trailing zero digit is not (non-canonical).
            let Some(&last) = rest.last() else {
                return Err(JsonError::new("OraNum: missing mantissa"));
            };
            if rest.iter().any(|d| !(1..=100).contains(d)) {
                return Err(JsonError::new("OraNum: bad positive mantissa byte"));
            }
            if last == 1 {
                return Err(JsonError::new("OraNum: trailing zero digit"));
            }
        } else {
            // digit d encodes as 101-d (2..=101); terminator byte 102.
            let mant = negative_mantissa(rest);
            let Some(&last) = mant.last() else {
                return Err(JsonError::new("OraNum: missing mantissa"));
            };
            if mant.iter().any(|d| !(2..=101).contains(d)) {
                return Err(JsonError::new("OraNum: bad negative mantissa byte"));
            }
            if last == 101 {
                return Err(JsonError::new("OraNum: trailing zero digit"));
            }
        }
        let mut bytes = [0u8; MAX_ENCODED];
        for (slot, &byte) in bytes.iter_mut().zip(b) {
            *slot = byte;
        }
        Ok(OraNum { bytes, len: b.len() as u8 })
    }

    /// Build from sign, base-100 exponent `e` (value = ±0.d… × 100^(e+1),
    /// `e` within -65..=62) and base-100 digits (first non-zero, values
    /// 0..=99, no trailing zero); digits past [`MAX_MANTISSA`] are cut.
    fn from_parts(negative: bool, exp: i32, digits: &[u8]) -> Self {
        if digits.is_empty() {
            return Self::zero();
        }
        debug_assert!(digits.first() >= Some(&1) && digits.last() >= Some(&1));
        debug_assert!((-65..=62).contains(&exp));
        let encode = |d: u8| if negative { 101 - d } else { d + 1 };
        let mut bytes = [0u8; MAX_ENCODED];
        bytes[0] = (if negative { 0x3E_i32 - exp } else { 0xC1_i32 + exp }) as u8;
        for (slot, &d) in bytes.iter_mut().skip(1).zip(digits.iter().take(MAX_MANTISSA)) {
            *slot = encode(d);
        }
        let mut len = 1 + digits.len().min(MAX_MANTISSA);
        // truncation may leave a trailing zero digit; strip it
        while len > 1 && bytes.get(len - 1) == Some(&encode(0)) {
            len -= 1;
        }
        if negative {
            if let Some(terminator) = bytes.get_mut(len) {
                *terminator = 102;
            }
            len += 1;
        }
        OraNum { bytes, len: len as u8 }
    }

    /// Decode into (negative, base-100 exponent, base-100 digits), the
    /// digits in a buffer on the stack. Returns `None` for zero.
    fn parts(&self) -> Option<(bool, i32, Digits)> {
        let (&head, rest) = self.as_bytes().split_first()?;
        if head == 0x80 {
            return None;
        }
        let neg = head < 0x80;
        let (exp, mant) = if neg {
            (0x3E_i32 - i32::from(head), negative_mantissa(rest))
        } else {
            (i32::from(head) - 0xC1, rest)
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
        Self::from_scaled(v, 0)
    }

    /// Encode `m × 100^-shift` exactly.
    fn from_scaled(m: i64, shift: i32) -> Self {
        // base-100 digits, most significant first, at the end of the
        // buffer (|i64| < 100^10)
        let mut buf = [0u8; 10];
        let mut mag = m.unsigned_abs();
        let mut start = buf.len();
        for slot in buf.iter_mut().rev() {
            if mag == 0 {
                break;
            }
            *slot = (mag % 100) as u8;
            mag /= 100;
            start -= 1;
        }
        let digits = buf.get(start..).unwrap_or_default();
        // trailing zero base-100 digits only shift the exponent
        let end = digits.iter().rposition(|&d| d != 0).map_or(0, |i| i + 1);
        let exp = digits.len() as i32 - 1 - shift;
        Self::from_parts(m < 0, exp, digits.get(..end).unwrap_or_default())
    }

    /// Encode an `f64`: the shortest decimal that reads back as `v`.
    /// Returns `None` for NaN or infinities.
    pub fn from_f64(v: f64) -> Option<Self> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(Self::zero());
        }
        if let Some((m, places)) = short_decimal(v) {
            // an even number of places is a whole base-100 shift
            return Some(match places % 2 {
                0 => Self::from_scaled(m, places as i32 / 2),
                _ => Self::from_scaled(m * 10, (places as i32 + 1) / 2),
            });
        }
        // Rust's `{:e}` for f64 is the shortest decimal that round-trips,
        // so parsing it back preserves the value exactly.
        let mut text = StackText::default();
        write!(text, "{v:e}").ok()?;
        Self::from_decimal_str(text.as_str()).ok()
    }

    /// Parse from a JSON-style decimal literal (optionally in scientific
    /// notation). Mantissas longer than 40 decimal digits are truncated.
    pub fn from_decimal_str(s: &str) -> Result<Self, JsonError> {
        let bad = || JsonError::new(format!("OraNum: bad decimal literal {s:?}"));
        let (negative, body) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        // the first significant digits, how many digits there are, how
        // many zeros lead them and how many stand left of the point
        let mut sig = [0u8; SIG_DIGITS];
        let (mut nsig, mut ndigits, mut lead_zeros) = (0usize, 0usize, 0usize);
        let mut point = None;
        let mut exponent = None;
        for (i, c) in body.bytes().enumerate() {
            match c {
                b'0'..=b'9' => {
                    let d = c - b'0';
                    if nsig == 0 && d == 0 {
                        lead_zeros += 1;
                    } else if let Some(slot) = sig.get_mut(nsig) {
                        *slot = d;
                        nsig += 1;
                    }
                    ndigits += 1;
                }
                b'.' if point.is_none() => point = Some(ndigits),
                b'e' | b'E' => {
                    exponent = Some(body.get(i + 1..).unwrap_or_default());
                    break;
                }
                _ => return Err(bad()),
            }
        }
        if ndigits == 0 {
            return Err(bad());
        }
        let exp10 = match exponent {
            None => 0,
            Some(e) => i64::from_str(e)
                .map_err(|_| JsonError::new(format!("OraNum: bad exponent in {s:?}")))?,
        };
        while nsig > 0 && sig.get(nsig - 1) == Some(&0) {
            nsig -= 1;
        }
        let digits10 = sig.get(..nsig).unwrap_or_default();
        if digits10.is_empty() {
            return Ok(Self::zero());
        }
        // value = 0.digits10 × 10^e10
        let int_len = point.unwrap_or(ndigits) as i64;
        let e10 = int_len.saturating_add(exp10).saturating_sub(lead_zeros as i64);
        // align to base 100: an odd e10 takes a zero digit on the left
        let pad = usize::from(e10.rem_euclid(2) != 0);
        let exp100 = e10.saturating_add(pad as i64) / 2 - 1;
        if exp100 > 62 {
            return Err(JsonError::new(format!("OraNum: magnitude overflow in {s:?}")));
        }
        if exp100 < -65 {
            // underflow to zero, matching Oracle behaviour for sub-1e-130
            return Ok(Self::zero());
        }
        let padded = |j: usize| j.checked_sub(pad).and_then(|j| digits10.get(j)).copied();
        let mut digits100 = [0u8; SIG_DIGITS.div_ceil(2) + 1];
        let n100 = (nsig + pad).div_ceil(2);
        for (k, d) in digits100.iter_mut().take(n100).enumerate() {
            *d = padded(2 * k).unwrap_or(0) * 10 + padded(2 * k + 1).unwrap_or(0);
        }
        Ok(Self::from_parts(negative, exp100 as i32, digits100.get(..n100).unwrap_or_default()))
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
        self.to_string()
    }

    /// Write [`OraNum::to_decimal_string`] to `w`, allocating nothing.
    fn write_decimal<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        let (neg, exp, digits) = match self.parts() {
            None => return w.write_str("0"),
            Some(p) => p,
        };
        let mut text = StackText::default();
        for (i, &d) in digits.iter().enumerate() {
            // no leading zero on the first base-100 digit
            if i > 0 || d >= 10 {
                text.write_char(char::from(b'0' + d / 10))?;
            }
            text.write_char(char::from(b'0' + d % 10))?;
        }
        let ds = text.as_str();
        let zeros = |w: &mut W, count: i64| (0..count).try_for_each(|_| w.write_char('0'));
        // value = 0.?? with digit string ds where the decimal point sits
        // after `point` digits of ds:
        let first_len = if digits.first().is_some_and(|&d| d >= 10) { 2i64 } else { 1i64 };
        let point = exp as i64 * 2 + first_len; // digits of ds left of the point
        if neg {
            w.write_str("-")?;
        }
        let n = ds.len() as i64;
        if point >= n && point <= 40 {
            w.write_str(ds)?;
            zeros(w, point - n)
        } else if point > 0 && point < n {
            let (int, frac) = ds.split_at_checked(point as usize).unwrap_or((ds, ""));
            let frac = frac.trim_end_matches('0');
            w.write_str(int)?;
            if frac.is_empty() {
                Ok(())
            } else {
                w.write_str(".")?;
                w.write_str(frac)
            }
        } else if point <= 0 && point > -38 {
            w.write_str("0.")?;
            zeros(w, -point)?;
            w.write_str(ds.trim_end_matches('0'))
        } else {
            // scientific: d.ddd e (point-1)
            match ds.split_at_checked(1) {
                Some((head, tail)) if !tail.is_empty() => write!(w, "{head}.{tail}e{}", point - 1),
                _ => write!(w, "{ds}e{}", point - 1),
            }
        }
    }
}

/// `v` as the decimal `m × 10^-places` that `{:e}` prints, found without
/// formatting: the decimal at the fewest places (up to 8) that reads back
/// as `v`. `None` — format instead — when there is none, or when
/// `v × 10^places` reaches `2^50`.
///
/// Why this is `{:e}`'s decimal. Below `2^50`, half an ulp of `v` is
/// under 1/8 of `10^-places`, so at most one decimal at these places
/// reads back as `v`, and the product `x` is within 1/16 of its exact
/// value: rounding `x` finds that decimal, and the correctly rounded
/// quotient `m / 10^places` (both operands exact) is `v` iff it reads
/// back. Nor does it sit on a rounding boundary, where parsing and
/// printing might disagree: as a binary fraction it has at most `places`
/// fractional bits, a boundary at least `places + 3`. Trying the places
/// in order, the first hit is the one decimal with the fewest digits that
/// reads back as `v`: the shortest round trip `{:e}` prints.
fn short_decimal(v: f64) -> Option<(i64, u32)> {
    const EXACT: f64 = (1u64 << 50) as f64;
    let mut scale = 1.0;
    for places in 0..=8 {
        let x = v * scale;
        if x.abs() >= EXACT {
            return None;
        }
        let m = x.round();
        if m / scale == v {
            return Some((m as i64, places));
        }
        scale *= 10.0;
    }
    None
}

/// The mantissa bytes of a negative encoding: those after the exponent
/// byte, less the terminator.
fn negative_mantissa(rest: &[u8]) -> &[u8] {
    match rest.split_last() {
        Some((102, mant)) => mant,
        _ => rest,
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
        self.write_decimal(f)
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
    /// Parse from a JSON numeric literal. A magnitude beyond the `f64`
    /// range is an error, as it is in JSON text.
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
            Err(_) => match f64::from_str(s) {
                Ok(v) if v.is_finite() => Ok(JsonNumber::Dbl(v)),
                Ok(v) if v.is_infinite() => Err(JsonError::new(OUT_OF_RANGE)),
                _ => Err(JsonError::new(format!("invalid number literal {s:?}"))),
            },
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
            // an integer's own `to_string` skips the formatter
            JsonNumber::Int(v) => v.to_string(),
            _ => self.to_string(),
        }
    }

    /// Write [`JsonNumber::to_literal`] to `w`, allocating nothing.
    fn write_literal<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        match self {
            JsonNumber::Int(v) => write!(w, "{v}"),
            JsonNumber::Dec(d) => d.write_decimal(w),
            JsonNumber::Dbl(v) if v.fract() == 0.0 && v.abs() < 1e15 => write!(w, "{v:.1}"),
            JsonNumber::Dbl(v) => write!(w, "{v}"),
        }
    }

    /// The byte length of [`JsonNumber::to_literal`], counted without
    /// rendering it.
    pub fn literal_len(&self) -> usize {
        if let JsonNumber::Int(v) = self {
            let digits = v.unsigned_abs().checked_ilog10().map_or(1, |d| d as usize + 1);
            return usize::from(*v < 0) + digits;
        }
        struct Count(usize);
        impl fmt::Write for Count {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 += s.len();
                Ok(())
            }
        }
        let mut count = Count(0);
        // a count takes any text, and a literal fits the stack buffer
        let _ = self.write_literal(&mut count);
        count.0
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
        // canonical OraNum encoding whenever one exists (Int and Dec
        // always have one; a Dbl beyond NUMBER's range has none).
        match self.to_oranum() {
            Some(d) => d.hash(state),
            None => self.to_f64().to_bits().hash(state),
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
        self.write_literal(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The heap-based conversions the stack ones replaced, kept as their
    /// oracle: `{:e}` into a `String`, then the digits through `Vec`s.
    mod oracle {
        use super::super::{JsonNumber, OraNum, MAX_ENCODED, MAX_MANTISSA};
        use crate::error::JsonError;
        use std::str::FromStr;

        /// The decimal rendering built in `String`s, and `JsonNumber`'s
        /// literal by `to_string` / `format!`.
        pub fn to_decimal_string(n: &OraNum) -> String {
            let (neg, exp, digits) = match n.parts() {
                None => return "0".to_string(),
                Some(p) => p,
            };
            let mut ds = String::with_capacity(digits.len() * 2);
            for (i, &d) in digits.iter().enumerate() {
                if i > 0 || d >= 10 {
                    ds.push(char::from(b'0' + d / 10));
                }
                ds.push(char::from(b'0' + d % 10));
            }
            let first_len = if digits.first().is_some_and(|&d| d >= 10) { 2i64 } else { 1i64 };
            let point = exp as i64 * 2 + first_len;
            let sign = if neg { "-" } else { "" };
            let n = ds.len() as i64;
            if point >= n && point <= 40 {
                let zeros = "0".repeat((point - n) as usize);
                format!("{sign}{ds}{zeros}")
            } else if point > 0 && point < n {
                let (int, frac) = ds.split_at_checked(point as usize).unwrap_or((&ds, ""));
                let frac = frac.trim_end_matches('0');
                if frac.is_empty() {
                    format!("{sign}{int}")
                } else {
                    format!("{sign}{int}.{frac}")
                }
            } else if point <= 0 && point > -38 {
                let zeros = "0".repeat((-point) as usize);
                let frac = ds.trim_end_matches('0');
                format!("{sign}0.{zeros}{frac}")
            } else {
                match ds.split_at_checked(1) {
                    Some((head, tail)) if !tail.is_empty() => {
                        format!("{sign}{head}.{tail}e{}", point - 1)
                    }
                    _ => format!("{sign}{ds}e{}", point - 1),
                }
            }
        }

        pub fn literal(n: &JsonNumber) -> String {
            match n {
                JsonNumber::Int(v) => v.to_string(),
                JsonNumber::Dec(d) => to_decimal_string(d),
                JsonNumber::Dbl(v) if v.fract() == 0.0 && v.abs() < 1e15 => format!("{:.1}", v),
                JsonNumber::Dbl(v) => format!("{v}"),
            }
        }

        pub fn from_f64(v: f64) -> Option<OraNum> {
            if !v.is_finite() {
                return None;
            }
            if v == 0.0 {
                return Some(OraNum::zero());
            }
            let s = format!("{v:e}");
            from_decimal_str(&s).ok()
        }

        fn from_parts(negative: bool, exp: i32, digits: &[u8]) -> Result<OraNum, JsonError> {
            if digits.is_empty() {
                return Ok(OraNum::zero());
            }
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
                while len > 1 && bytes[len - 1] == 1 {
                    len -= 1;
                }
            } else {
                bytes[0] = (0x3E_i32 - exp) as u8;
                for (i, &d) in digits[..ndig].iter().enumerate() {
                    bytes[1 + i] = 101 - d;
                }
                len = 1 + ndig;
                while len > 1 && bytes[len - 1] == 101 {
                    len -= 1;
                }
                bytes[len] = 102;
                len += 1;
            }
            Ok(OraNum { bytes, len: len as u8 })
        }

        pub fn from_decimal_str(s: &str) -> Result<OraNum, JsonError> {
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
                i += 1;
                let estr = std::str::from_utf8(&b[i..]).map_err(|_| JsonError::new("utf8"))?;
                exp10 = i64::from_str(estr)
                    .map_err(|_| JsonError::new(format!("OraNum: bad exponent in {s:?}")))?;
            }
            let int_len = point_pos.unwrap_or(digits10.len()) as i64;
            let mut e10 = int_len + exp10;
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
                return Ok(OraNum::zero());
            }
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
                return Ok(OraNum::zero());
            }
            let first_nonzero = digits100.iter().position(|&d| d != 0).unwrap_or(0);
            let adj_digits = &digits100[first_nonzero..];
            let adj_exp = exp100 as i32 - first_nonzero as i32;
            let mut trimmed: Vec<u8> = adj_digits.to_vec();
            while trimmed.last() == Some(&0) {
                trimmed.pop();
            }
            from_parts(negative, adj_exp, &trimmed)
        }
    }

    /// The stack conversion of `s` and the oracle's: the same bytes, or
    /// both an error.
    fn same_as_oracle(s: &str) -> Result<(), TestCaseError> {
        let (got, want) = (OraNum::from_decimal_str(s), oracle::from_decimal_str(s));
        prop_assert_eq!(
            got.as_ref().map(OraNum::as_bytes).ok(),
            want.as_ref().map(OraNum::as_bytes).ok(),
            "{:?}",
            s
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Every `f64` bit pattern — NaNs, infinities, subnormals, both
        /// ends of the range — encodes to the oracle's bytes.
        #[test]
        fn from_f64_matches_the_oracle_on_any_bits(bits in any::<u64>()) {
            let v = f64::from_bits(bits);
            let (got, want) = (OraNum::from_f64(v), oracle::from_f64(v));
            prop_assert_eq!(got.as_ref().map(OraNum::as_bytes), want.as_ref().map(OraNum::as_bytes), "{:e}", v);
        }

        /// A quantity times a unit price — what `sum(quantity * unitprice)`
        /// converts once per row.
        #[test]
        fn from_f64_matches_the_oracle_on_products(k in 1i64..1000, cents in 1i64..1_000_000) {
            let v = k as f64 * (cents as f64 / 100.0);
            prop_assert_eq!(OraNum::from_f64(v).map(|n| n.bytes), oracle::from_f64(v).map(|n| n.bytes));
            prop_assert_eq!(OraNum::from_f64(-v).map(|n| n.bytes), oracle::from_f64(-v).map(|n| n.bytes));
        }

        /// Short decimals `m / 10^places` — what the formatting-free path
        /// takes — their neighbouring doubles, and magnitudes on both
        /// sides of where it gives up.
        #[test]
        fn from_f64_matches_the_oracle_near_short_decimals(
            m in any::<i64>(),
            bits in 1u32..56,
            places in 0i32..11,
        ) {
            let m = m % (1i64 << bits);
            let v = m as f64 / 10f64.powi(places);
            for v in [v, v.next_up(), v.next_down(), v * 3.0, v / 7.0] {
                let (got, want) = (OraNum::from_f64(v), oracle::from_f64(v));
                prop_assert_eq!(got.as_ref().map(OraNum::as_bytes), want.as_ref().map(OraNum::as_bytes), "{:e}", v);
            }
        }

        /// Long, zero-padded and exponent literals, signed or not, among
        /// them ones past the 40-digit truncation and past either end of
        /// NUMBER's range.
        #[test]
        fn from_decimal_str_matches_the_oracle(
            shape in any::<u8>(),
            lead in 0usize..8,
            int in "[0-9]{1,60}",
            frac in "[0-9]{0,60}",
            trail in 0usize..8,
            exp in -400i64..400,
        ) {
            let sign = ["", "-", "+"][usize::from(shape % 3)];
            let zeros = |n: usize| "0".repeat(n);
            let mut s = format!("{sign}{}{int}", zeros(lead));
            if shape & 4 != 0 {
                s.push_str(&format!(".{frac}{}", zeros(trail)));
            }
            if shape & 8 != 0 {
                let e = if shape & 16 != 0 { 'E' } else { 'e' };
                let plus = if shape & 32 != 0 && exp >= 0 { "+" } else { "" };
                s.push_str(&format!("{e}{plus}{exp}"));
            }
            same_as_oracle(&s)?;
        }

        /// The text written without allocating is the text the `String`
        /// building rendering made, and `literal_len` is its length: at
        /// every exponent, digit count and trailing-zero run.
        #[test]
        fn literals_match_the_oracle(
            neg in any::<bool>(),
            int in "[0-9]{1,45}",
            frac in "[0-9]{0,45}",
            exp in -140i64..140,
            bits in any::<u64>(),
            small in any::<i64>(),
        ) {
            let sign = if neg { "-" } else { "" };
            let mut numbers = vec![JsonNumber::Int(small)];
            if let Ok(d) = OraNum::from_decimal_str(&format!("{sign}{int}.{frac}e{exp}")) {
                numbers.push(JsonNumber::Dec(d));
            }
            let v = f64::from_bits(bits);
            if v.is_finite() {
                numbers.push(JsonNumber::Dbl(v));
            }
            for n in numbers {
                let want = oracle::literal(&n);
                prop_assert_eq!(n.to_literal(), want.clone());
                prop_assert_eq!(n.literal_len(), want.len(), "{}", want);
                if let JsonNumber::Dec(d) = n {
                    prop_assert_eq!(d.to_decimal_string(), want);
                }
            }
        }

        /// Malformed literals are refused by both.
        #[test]
        fn bad_literals_fail_as_the_oracle_does(s in "[0-9.eE+\\-]{0,12}") {
            same_as_oracle(&s)?;
        }
    }

    #[test]
    fn conversions_match_the_oracle_on_edge_literals() {
        for s in [
            "0",
            "-0",
            "0.000",
            "00012.3400",
            ".5",
            "5.",
            "1e",
            "1e+",
            "1e-",
            "e5",
            ".",
            "-",
            "1e-130",
            "1e-131",
            "9.99e125",
            "1e126",
            "1e-9223372036854775808",
            "1e9223372036854775808",
            "123456789012345678901234567890123456789012345",
            "0.000000000000123456789012345678901234567890123456789",
        ] {
            same_as_oracle(s).unwrap();
        }
    }

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
            assert_eq!(n, OraNum::from_decimal_str(&v.to_string()).unwrap(), "{v}");
        }
        assert_eq!(
            OraNum::from_i64(i64::MIN),
            OraNum::from_decimal_str(&i64::MIN.to_string()).unwrap()
        );
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
        assert!(OraNum::from_bytes(&[0x66]).is_err(), "a lone negative exponent byte");
        assert!(OraNum::from_bytes(&[0xC1; MAX_ENCODED + 1]).is_err());
        let n = OraNum::from_i64(42);
        assert_eq!(OraNum::from_bytes(n.as_bytes()).unwrap(), n);
        let m = OraNum::from_decimal_str("-3.25").unwrap();
        assert_eq!(OraNum::from_bytes(m.as_bytes()).unwrap(), m);
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
    fn a_literal_beyond_the_f64_range_is_an_error() {
        for s in ["1e400", "-1e400", "1.8e308", "inf", "-infinity"] {
            let err = JsonNumber::from_literal(s).unwrap_err();
            assert_eq!(err.message, OUT_OF_RANGE, "{s}");
        }
        assert!(JsonNumber::from_literal("NaN").is_err());
        // the largest double, and a magnitude that underflows, are numbers
        assert!(matches!(
            JsonNumber::from_literal("1.7976931348623157e308"),
            Ok(JsonNumber::Dbl(_))
        ));
        assert!(matches!(JsonNumber::from_literal("-1e-400"), Ok(JsonNumber::Int(0))));
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
        assert_eq!(JsonNumber::from_literal("1e-60").unwrap().to_literal(), "1e-60");
        assert_eq!(JsonNumber::from_literal("-12e60").unwrap().to_literal(), "-1.2e61");
    }
}
