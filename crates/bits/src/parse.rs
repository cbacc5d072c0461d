//! Radix string parsing and decimal formatting.

use crate::apint::ApInt;

/// Error produced when parsing an [`ApInt`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseApIntError {
    message: String,
}

impl std::fmt::Display for ParseApIntError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseApIntError {}

impl ApInt {
    /// Parses a digit string in the given radix (2, 8, 10, or 16) into a
    /// value of `width` bits. Underscores are permitted as digit separators.
    /// The value is reduced modulo `2^width`.
    ///
    /// # Errors
    ///
    /// Returns an error for an unsupported radix, empty input, or a
    /// character that is not a digit in the radix.
    pub fn from_str_radix(s: &str, radix: u32, width: u32) -> Result<ApInt, ParseApIntError> {
        if !matches!(radix, 2 | 8 | 10 | 16) {
            return Err(ParseApIntError {
                message: format!("unsupported radix {radix}"),
            });
        }
        let mut any = false;
        let mut acc = ApInt::zero(width);
        let radix_ap = ApInt::from_u64(radix as u64, width);
        for ch in s.chars() {
            if ch == '_' {
                continue;
            }
            let digit = ch.to_digit(radix).ok_or_else(|| ParseApIntError {
                message: format!("invalid digit {ch:?} for radix {radix}"),
            })?;
            acc = acc
                .mul(&radix_ap)
                .add(&ApInt::from_u64(digit as u64, width));
            any = true;
        }
        if !any {
            return Err(ParseApIntError {
                message: "empty digit string".into(),
            });
        }
        Ok(acc)
    }

    /// Renders the value as an unsigned decimal string.
    pub fn to_dec_string(&self) -> String {
        if let Some(v) = self.try_to_u64() {
            return v.to_string();
        }
        // Repeated division by 10^19 (largest power of ten in u64).
        let mut digits = Vec::new();
        let chunk = ApInt::from_u64(10_000_000_000_000_000_000, self.width);
        let mut cur = self.clone();
        while !cur.is_zero() {
            let q = cur.udiv(&chunk);
            let r = cur.urem(&chunk).to_u64();
            if q.is_zero() {
                digits.push(r.to_string());
            } else {
                digits.push(format!("{r:019}"));
            }
            cur = q;
        }
        if digits.is_empty() {
            return "0".into();
        }
        digits.reverse();
        digits.concat()
    }

    /// Renders the value as a signed decimal string (two's-complement
    /// interpretation).
    pub fn to_signed_dec_string(&self) -> String {
        if self.sign_bit() {
            format!("-{}", self.neg().zext(self.width + 1).to_dec_string())
        } else {
            self.to_dec_string()
        }
    }
}
