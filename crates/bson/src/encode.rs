//! BSON encoder: [`fsdm_json::JsonValue`] → BSON document bytes.

use fsdm_json::{JsonNumber, JsonValue};

use crate::decimal128::{BIAS, DIGITS, EXPONENT_SHIFT, MAX_BIASED};
use crate::{tag, BsonError, Result};

/// Encode a JSON value as a BSON document. BSON requires an object at the
/// root; other roots are rejected (all collection documents in this stack
/// are objects, matching the paper's workloads).
pub fn encode(v: &JsonValue) -> Result<Vec<u8>> {
    let obj = v.as_object().ok_or_else(|| BsonError::new("BSON root must be an object"))?;
    let mut out = Vec::with_capacity(256);
    write_document(&mut out, obj.iter())?;
    // the deep structural verifier must accept everything we emit; in
    // debug builds every encode proves it
    debug_assert!(
        crate::decode::BsonDoc::new(&out).and_then(|d| d.validate()).is_ok(),
        "encoder produced a BSON document the verifier rejects"
    );
    Ok(out)
}

/// Write `int32 total_len, elements…, 0x00` for an iterator of members.
fn write_document<'a>(
    out: &mut Vec<u8>,
    members: impl Iterator<Item = (&'a str, &'a JsonValue)>,
) -> Result<()> {
    let len_pos = out.len();
    out.extend_from_slice(&[0u8; 4]); // patched below
    for (name, value) in members {
        write_element(out, name, value)?;
    }
    out.push(0);
    let total = (out.len() - len_pos) as u32;
    out[len_pos..len_pos + 4].copy_from_slice(&(total as i32).to_le_bytes());
    Ok(())
}

fn write_cstring(out: &mut Vec<u8>, s: &str) -> Result<()> {
    if s.as_bytes().contains(&0) {
        return Err(BsonError::new("field name contains NUL"));
    }
    out.extend_from_slice(s.as_bytes());
    out.push(0);
    Ok(())
}

fn write_element(out: &mut Vec<u8>, name: &str, value: &JsonValue) -> Result<()> {
    match value {
        JsonValue::Null => {
            out.push(tag::NULL);
            write_cstring(out, name)?;
        }
        JsonValue::Bool(b) => {
            out.push(tag::BOOL);
            write_cstring(out, name)?;
            out.push(*b as u8);
        }
        JsonValue::Number(n) => match n {
            JsonNumber::Int(v) if i32::try_from(*v).is_ok() => {
                out.push(tag::INT32);
                write_cstring(out, name)?;
                out.extend_from_slice(&(*v as i32).to_le_bytes());
            }
            JsonNumber::Int(v) => {
                out.push(tag::INT64);
                write_cstring(out, name)?;
                out.extend_from_slice(&v.to_le_bytes());
            }
            // a number the decoder reads back from its double is stored
            // as one; any other exactly, as a decimal128
            other if JsonNumber::from(other.to_f64()) == *other => {
                out.push(tag::DOUBLE);
                write_cstring(out, name)?;
                out.extend_from_slice(&other.to_f64().to_le_bytes());
            }
            other => {
                let bits = decimal128(other)?;
                out.push(tag::DECIMAL128);
                write_cstring(out, name)?;
                out.extend_from_slice(&bits.to_le_bytes());
            }
        },
        JsonValue::String(s) => {
            out.push(tag::STRING);
            write_cstring(out, name)?;
            let bytes = s.as_bytes();
            out.extend_from_slice(&((bytes.len() + 1) as i32).to_le_bytes());
            out.extend_from_slice(bytes);
            out.push(0);
        }
        JsonValue::Object(o) => {
            out.push(tag::DOCUMENT);
            write_cstring(out, name)?;
            write_document(out, o.iter())?;
        }
        JsonValue::Array(a) => {
            out.push(tag::ARRAY);
            write_cstring(out, name)?;
            // arrays are documents keyed "0", "1", …: this is where BSON
            // pays its name-repetition overhead
            let keys: Vec<String> = (0..a.len()).map(|i| i.to_string()).collect();
            write_document(out, keys.iter().map(|k| k.as_str()).zip(a.iter()))?;
        }
    }
    Ok(())
}

/// `n` as a decimal128 (see [`crate::decimal128`]), from its canonical
/// literal. More than 34 significant digits is a [`crate::ErrorKind::Limit`].
fn decimal128(n: &JsonNumber) -> Result<u128> {
    let text = n.to_literal();
    let bad = || BsonError::corrupt(format!("number literal {text} does not read as a decimal"));
    let (negative, body) = match text.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, text.as_str()),
    };
    let (mantissa, exponent) = match body.split_once('e') {
        Some((m, e)) => (m, e.parse::<i32>().map_err(|_| bad())?),
        None => (body, 0),
    };
    let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, ""));
    let digits = format!("{int}{frac}");
    let significant = digits.trim_start_matches('0');
    let coefficient = significant.trim_end_matches('0');
    if coefficient.len() > DIGITS {
        return Err(BsonError::limit(format!(
            "{text} has more than the {DIGITS} significant digits of a decimal128"
        )));
    }
    // the point moves right past the fraction, trailing zeros leave
    let shift = |k: usize| i32::try_from(k).map_err(|_| bad());
    let exponent = exponent - shift(frac.len())? + shift(significant.len() - coefficient.len())?;
    let coefficient: u128 = match coefficient {
        "" => 0,
        digits => digits.parse().map_err(|_| bad())?,
    };
    let biased = exponent.checked_add(BIAS).filter(|e| (0..=MAX_BIASED).contains(e));
    let biased = biased
        .ok_or_else(|| BsonError::limit(format!("{text} is beyond a decimal128's exponents")))?;
    Ok(u128::from(negative) << 127 | (biased as u128) << EXPONENT_SHIFT | coefficient)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_json::parse;

    #[test]
    fn empty_document_is_five_bytes() {
        let v = parse("{}").unwrap();
        assert_eq!(encode(&v).unwrap(), b"\x05\x00\x00\x00\x00");
    }

    #[test]
    fn rejects_non_object_root() {
        assert!(encode(&parse("[1,2]").unwrap()).is_err());
        assert!(encode(&parse("3").unwrap()).is_err());
    }

    #[test]
    fn int_width_selection() {
        let small = encode(&parse(r#"{"v":1}"#).unwrap()).unwrap();
        assert_eq!(small[4], tag::INT32);
        let big = encode(&parse(r#"{"v":5000000000}"#).unwrap()).unwrap();
        assert_eq!(big[4], tag::INT64);
        let dbl = encode(&parse(r#"{"v":1.5}"#).unwrap()).unwrap();
        assert_eq!(dbl[4], tag::DOUBLE);
    }

    #[test]
    fn numbers_a_double_cannot_hold_are_decimal128() {
        let tag_of =
            |text: &str| encode(&parse(&format!(r#"{{"v":{text}}}"#)).unwrap()).unwrap()[4];
        for text in ["0.1", "350.86", "-2.5e-7", "1e300", "12345678901234567000"] {
            assert_eq!(tag_of(text), tag::DOUBLE, "{text}");
        }
        for text in ["12345678901234567891", "0.12345678901234567891", "-9.87654321098765432e60"] {
            assert_eq!(tag_of(text), tag::DECIMAL128, "{text}");
        }
        // 1.2345678901234567891 × 10^19: coefficient 12345678901234567891,
        // exponent 0, stored biased
        let b = encode(&parse(r#"{"v":12345678901234567891}"#).unwrap()).unwrap();
        let bits = u128::from_le_bytes(b[7..23].try_into().unwrap());
        assert_eq!(bits, 6176u128 << 113 | 12345678901234567891);
        let b = encode(&parse(r#"{"v":-0.00120}"#).unwrap());
        assert_eq!(b.unwrap()[4], tag::DOUBLE);
        assert_eq!(
            decimal128(&JsonNumber::from_literal("-0.00120000000000000000001").unwrap()),
            Ok(1u128 << 127 | (6176u128 - 23) << 113 | 120000000000000000001)
        );
    }

    #[test]
    fn more_than_34_significant_digits_is_a_typed_error() {
        let fits = "1234567890123456789012345678901234";
        let over = "12345678901234567890123456789012345";
        assert!(encode(&parse(&format!(r#"{{"v":{fits}}}"#)).unwrap()).is_ok());
        // trailing zeros fold into the exponent
        assert!(encode(&parse(&format!(r#"{{"v":{fits}000000}}"#)).unwrap()).is_ok());
        let err = encode(&parse(&format!(r#"{{"v":{over}}}"#)).unwrap()).unwrap_err();
        assert_eq!(err.kind, crate::ErrorKind::Limit, "{err}");
        let err = encode(&parse(&format!(r#"{{"v":0.{over}}}"#)).unwrap()).unwrap_err();
        assert_eq!(err.kind, crate::ErrorKind::Limit, "{err}");
    }

    #[test]
    fn array_keys_are_decimal_strings() {
        let v = parse(r#"{"a":[true,false]}"#).unwrap();
        let b = encode(&v).unwrap();
        // element "0" and "1" names must appear
        let s = b.iter().map(|&c| c as char).collect::<String>();
        assert!(s.contains('0') && s.contains('1'));
    }

    #[test]
    fn rejects_nul_in_name() {
        let mut o = fsdm_json::Object::new();
        o.push("a\0b", 1);
        assert!(encode(&JsonValue::Object(o)).is_err());
    }
}
