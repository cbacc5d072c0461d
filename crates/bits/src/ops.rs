//! Arithmetic, logic, shift, comparison, and structural operations.
//!
//! All binary arithmetic/logic operations require equal operand widths and
//! produce a result of that same width (wrapping), exactly like fixed-width
//! RTL operators. Width adaptation is the caller's job via [`ApInt::zext`],
//! [`ApInt::sext`], and [`ApInt::trunc`] — mirroring how the CoreDSL type
//! checker inserts explicit extension/truncation casts.

use crate::apint::{ApInt, INLINE_BITS, LIMB_BITS};
use std::cmp::Ordering;

/// `v`, the bits of a `width`-bit value, sign-extended to all 128 bits.
#[inline]
fn sext_i128(v: u128, width: u32) -> i128 {
    let pad = INLINE_BITS - width;
    (v << pad) as i128 >> pad
}

/// Bit position of limb `i`'s least significant bit.
#[inline]
fn limb_pos(i: usize) -> i64 {
    i as i64 * i64::from(LIMB_BITS)
}

impl ApInt {
    #[inline]
    fn assert_same_width(&self, rhs: &ApInt, op: &str) {
        assert_eq!(
            self.width, rhs.width,
            "{op}: operand widths differ ({} vs {})",
            self.width, rhs.width
        );
    }

    /// The equal-width, limb-wise combination `f(self, rhs)`, applied from
    /// the low limb up so `f` can carry state between limbs.
    #[inline]
    fn zip_limbs(&self, rhs: &ApInt, op: &str, mut f: impl FnMut(u64, u64) -> u64) -> ApInt {
        self.assert_same_width(rhs, op);
        let (a, b) = (self.limbs(), rhs.limbs());
        ApInt::from_limb_fn(self.width, |i| f(a[i], b[i]))
    }

    /// All-ones if the sign bit is set, else zero: the bits a sign
    /// extension shifts in.
    #[inline]
    fn sign_fill(&self) -> u64 {
        if self.sign_bit() {
            u64::MAX
        } else {
            0
        }
    }

    /// The `width`-bit value whose bit `i` is bit `pos + i` of `self`, with
    /// zeros below bit 0 and the bits of `fill` past the top: the limb
    /// window path of the shifts, extension and extraction, which a value
    /// past 128 bits takes (an inline one is shifted as a `u128` instead).
    #[inline(never)]
    fn windowed(&self, width: u32, pos: i64, fill: u64) -> ApInt {
        ApInt::from_limb_fn(width, |i| self.window(limb_pos(i) + pos, fill))
    }

    /// Zero-extends (or keeps) the value to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width < self.width()`.
    #[inline]
    pub fn zext(&self, width: u32) -> ApInt {
        assert!(width >= self.width, "zext cannot narrow");
        let src = self.limbs();
        ApInt::from_limb_fn(width, |i| src.get(i).copied().unwrap_or(0))
    }

    /// Sign-extends (or keeps) the value to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width < self.width()`.
    #[inline]
    pub fn sext(&self, width: u32) -> ApInt {
        assert!(width >= self.width, "sext cannot narrow");
        match self.as_u128() {
            Some(v) if width <= INLINE_BITS => {
                ApInt::from_u128(sext_i128(v, self.width) as u128, width)
            }
            _ => self.windowed(width, 0, self.sign_fill()),
        }
    }

    /// Truncates to the low `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width > self.width()` or `width == 0`.
    #[inline]
    pub fn trunc(&self, width: u32) -> ApInt {
        assert!(width <= self.width, "trunc cannot widen");
        let src = self.limbs();
        ApInt::from_limb_fn(width, |i| src[i])
    }

    /// Resizes with zero-extension or truncation as needed.
    #[inline]
    pub fn zext_or_trunc(&self, width: u32) -> ApInt {
        if width >= self.width {
            self.zext(width)
        } else {
            self.trunc(width)
        }
    }

    /// Resizes with sign-extension or truncation as needed.
    #[inline]
    pub fn sext_or_trunc(&self, width: u32) -> ApInt {
        if width >= self.width {
            self.sext(width)
        } else {
            self.trunc(width)
        }
    }

    /// Wrapping addition of equal-width values.
    #[inline]
    pub fn add(&self, rhs: &ApInt) -> ApInt {
        let mut carry = false;
        self.zip_limbs(rhs, "add", |a, b| {
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(u64::from(carry));
            carry = c1 | c2;
            s2
        })
    }

    /// Wrapping subtraction of equal-width values.
    #[inline]
    pub fn sub(&self, rhs: &ApInt) -> ApInt {
        let mut borrow = false;
        self.zip_limbs(rhs, "sub", |a, b| {
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
            borrow = b1 | b2;
            d2
        })
    }

    /// Two's-complement negation (wrapping): `!self + 1`.
    #[inline]
    pub fn neg(&self) -> ApInt {
        let src = self.limbs();
        let mut carry = true;
        ApInt::from_limb_fn(self.width, |i| {
            let (s, c) = (!src[i]).overflowing_add(u64::from(carry));
            carry = c;
            s
        })
    }

    /// Bitwise NOT.
    #[inline]
    pub fn not(&self) -> ApInt {
        let src = self.limbs();
        ApInt::from_limb_fn(self.width, |i| !src[i])
    }

    /// Bitwise AND of equal-width values.
    #[inline]
    pub fn and(&self, rhs: &ApInt) -> ApInt {
        self.zip_limbs(rhs, "and", |a, b| a & b)
    }

    /// Bitwise OR of equal-width values.
    #[inline]
    pub fn or(&self, rhs: &ApInt) -> ApInt {
        self.zip_limbs(rhs, "or", |a, b| a | b)
    }

    /// Bitwise XOR of equal-width values.
    #[inline]
    pub fn xor(&self, rhs: &ApInt) -> ApInt {
        self.zip_limbs(rhs, "xor", |a, b| a ^ b)
    }

    /// Wrapping multiplication of equal-width values (low half of product).
    pub fn mul(&self, rhs: &ApInt) -> ApInt {
        self.assert_same_width(rhs, "mul");
        let (a, b) = (self.limbs(), rhs.limbs());
        // Schoolbook, accumulating the low limbs of the product in place.
        let mut out = ApInt::zero(self.width);
        let acc = out.limbs_mut();
        let n = acc.len();
        for (i, &x) in a.iter().enumerate().filter(|&(_, &x)| x != 0) {
            let mut carry = 0u128;
            for j in 0..n - i {
                let t = u128::from(x) * u128::from(b[j]) + u128::from(acc[i + j]) + carry;
                acc[i + j] = t as u64;
                carry = t >> 64;
            }
        }
        out.canonicalize();
        out
    }

    /// Unsigned division. Division by zero yields all-ones (the RISC-V
    /// convention, which CoreDSL simulators follow).
    pub fn udiv(&self, rhs: &ApInt) -> ApInt {
        self.assert_same_width(rhs, "udiv");
        if rhs.is_zero() {
            return ApInt::ones(self.width);
        }
        self.udivrem(rhs).0
    }

    /// Unsigned remainder. Remainder by zero yields the dividend (the RISC-V
    /// convention).
    pub fn urem(&self, rhs: &ApInt) -> ApInt {
        self.assert_same_width(rhs, "urem");
        if rhs.is_zero() {
            return self.clone();
        }
        self.udivrem(rhs).1
    }

    /// Signed division, truncating toward zero. Division by zero yields
    /// all-ones.
    pub fn sdiv(&self, rhs: &ApInt) -> ApInt {
        self.assert_same_width(rhs, "sdiv");
        if rhs.is_zero() {
            return ApInt::ones(self.width);
        }
        let (la, lb) = (self.sign_bit(), rhs.sign_bit());
        let a = if la { self.neg() } else { self.clone() };
        let b = if lb { rhs.neg() } else { rhs.clone() };
        let q = a.udivrem(&b).0;
        if la != lb {
            q.neg()
        } else {
            q
        }
    }

    /// Signed remainder (sign follows the dividend). Remainder by zero yields
    /// the dividend.
    pub fn srem(&self, rhs: &ApInt) -> ApInt {
        self.assert_same_width(rhs, "srem");
        if rhs.is_zero() {
            return self.clone();
        }
        let la = self.sign_bit();
        let a = if la { self.neg() } else { self.clone() };
        let b = if rhs.sign_bit() {
            rhs.neg()
        } else {
            rhs.clone()
        };
        let r = a.udivrem(&b).1;
        if la {
            r.neg()
        } else {
            r
        }
    }

    /// Schoolbook long division on canonical values; `rhs` must be non-zero.
    fn udivrem(&self, rhs: &ApInt) -> (ApInt, ApInt) {
        debug_assert!(!rhs.is_zero());
        let mut quot = ApInt::zero(self.width);
        let mut rem = ApInt::zero(self.width);
        for pos in (0..self.width).rev() {
            rem = rem.shl_bits(1);
            rem.set_bit(0, self.bit(pos));
            if rem.uge(rhs) {
                rem = rem.sub(rhs);
                quot.set_bit(pos, true);
            }
        }
        (quot, rem)
    }

    /// Logical left shift by a compile-time amount; bits shifted past the
    /// width are discarded. Shift amounts `>= width` yield zero.
    #[inline]
    pub fn shl_bits(&self, amount: u32) -> ApInt {
        if amount >= self.width {
            return ApInt::zero(self.width);
        }
        match self.as_u128() {
            Some(v) => ApInt::from_u128(v << amount, self.width),
            None => self.windowed(self.width, -i64::from(amount), 0),
        }
    }

    /// Logical right shift by a compile-time amount. Shift amounts `>= width`
    /// yield zero.
    #[inline]
    pub fn lshr_bits(&self, amount: u32) -> ApInt {
        if amount >= self.width {
            return ApInt::zero(self.width);
        }
        match self.as_u128() {
            Some(v) => ApInt::from_u128(v >> amount, self.width),
            None => self.windowed(self.width, i64::from(amount), 0),
        }
    }

    /// Arithmetic right shift by a compile-time amount. Shift amounts
    /// `>= width` yield all-sign-bits.
    #[inline]
    pub fn ashr_bits(&self, amount: u32) -> ApInt {
        let fill = self.sign_fill();
        if amount >= self.width {
            return ApInt::from_limb_fn(self.width, |_| fill);
        }
        match self.as_u128() {
            Some(v) => ApInt::from_u128((sext_i128(v, self.width) >> amount) as u128, self.width),
            None => self.windowed(self.width, i64::from(amount), fill),
        }
    }

    /// Left shift by a runtime amount (`rhs` read as unsigned).
    #[inline]
    pub fn shl(&self, rhs: &ApInt) -> ApInt {
        match rhs.try_to_u64() {
            Some(amt) if amt < self.width as u64 => self.shl_bits(amt as u32),
            _ => ApInt::zero(self.width),
        }
    }

    /// Logical right shift by a runtime amount (`rhs` read as unsigned).
    #[inline]
    pub fn lshr(&self, rhs: &ApInt) -> ApInt {
        match rhs.try_to_u64() {
            Some(amt) if amt < self.width as u64 => self.lshr_bits(amt as u32),
            _ => ApInt::zero(self.width),
        }
    }

    /// Arithmetic right shift by a runtime amount (`rhs` read as unsigned).
    #[inline]
    pub fn ashr(&self, rhs: &ApInt) -> ApInt {
        match rhs.try_to_u64() {
            Some(amt) if amt < self.width as u64 => self.ashr_bits(amt as u32),
            _ if self.sign_bit() => ApInt::ones(self.width),
            _ => ApInt::zero(self.width),
        }
    }

    /// Unsigned comparison.
    #[inline]
    pub fn ucmp(&self, rhs: &ApInt) -> Ordering {
        self.assert_same_width(rhs, "ucmp");
        let (a, b) = (self.limbs(), rhs.limbs());
        a.iter().rev().cmp(b.iter().rev())
    }

    /// Signed comparison.
    #[inline]
    pub fn scmp(&self, rhs: &ApInt) -> Ordering {
        self.assert_same_width(rhs, "scmp");
        match (self.sign_bit(), rhs.sign_bit()) {
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            _ => self.ucmp(rhs),
        }
    }

    /// `self < rhs`, unsigned.
    #[inline]
    pub fn ult(&self, rhs: &ApInt) -> bool {
        self.ucmp(rhs) == Ordering::Less
    }

    /// `self <= rhs`, unsigned.
    #[inline]
    pub fn ule(&self, rhs: &ApInt) -> bool {
        self.ucmp(rhs) != Ordering::Greater
    }

    /// `self >= rhs`, unsigned.
    #[inline]
    pub fn uge(&self, rhs: &ApInt) -> bool {
        self.ucmp(rhs) != Ordering::Less
    }

    /// `self < rhs`, signed.
    #[inline]
    pub fn slt(&self, rhs: &ApInt) -> bool {
        self.scmp(rhs) == Ordering::Less
    }

    /// `self <= rhs`, signed.
    #[inline]
    pub fn sle(&self, rhs: &ApInt) -> bool {
        self.scmp(rhs) != Ordering::Greater
    }

    /// Extracts bits `[lo + width - 1 : lo]` as a new `width`-bit value.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds `self.width()` or `width == 0`.
    #[inline]
    pub fn extract(&self, lo: u32, width: u32) -> ApInt {
        assert!(width >= 1, "extract width must be at least 1");
        assert!(
            lo + width <= self.width,
            "extract [{}:{}] out of range for width {}",
            lo + width - 1,
            lo,
            self.width
        );
        match self.as_u128() {
            Some(v) => ApInt::from_u128(v >> lo, width),
            None => self.windowed(width, i64::from(lo), 0),
        }
    }

    /// Concatenation `self :: rhs` — `self` becomes the *most* significant
    /// part, matching CoreDSL's and Verilog's `{a, b}` semantics.
    #[inline]
    pub fn concat(&self, rhs: &ApInt) -> ApInt {
        let width = self.width + rhs.width;
        match (self.as_u128(), rhs.as_u128()) {
            (Some(hi), Some(lo)) if width <= INLINE_BITS => {
                ApInt::from_u128(hi << rhs.width | lo, width)
            }
            _ => self.concat_limbs(rhs),
        }
    }

    /// [`ApInt::concat`] a limb at a time, for results past 128 bits.
    #[inline(never)]
    fn concat_limbs(&self, rhs: &ApInt) -> ApInt {
        let shift = i64::from(rhs.width);
        ApInt::from_limb_fn(self.width + rhs.width, |i| {
            rhs.window(limb_pos(i), 0) | self.window(limb_pos(i) - shift, 0)
        })
    }

    /// Replicates the value `count` times (Verilog `{count{self}}`).
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn replicate(&self, count: u32) -> ApInt {
        assert!(count >= 1, "replicate count must be at least 1");
        let mut out = self.clone();
        for _ in 1..count {
            out = out.concat(self);
        }
        out
    }

    /// Fallible conversion to `u64` (unsigned interpretation).
    #[inline]
    pub fn try_to_u64(&self) -> Option<u64> {
        match self.limbs() {
            [low, rest @ ..] if rest.iter().all(|&l| l == 0) => Some(*low),
            _ => None,
        }
    }

    /// Low 64 bits (unsigned interpretation, silently truncating).
    #[inline]
    pub fn to_u64(&self) -> u64 {
        self.limbs()[0]
    }

    /// Signed interpretation as `i64`; sign-extends values narrower than 64
    /// bits and truncates wider ones.
    #[inline]
    pub fn to_i64(&self) -> i64 {
        let raw = self.to_u64();
        if self.width >= 64 {
            return raw as i64;
        }
        if self.sign_bit() {
            (raw | (u64::MAX << self.width)) as i64
        } else {
            raw as i64
        }
    }
}
