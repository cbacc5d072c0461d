//! A bit-serial reference model of [`ApInt`].
//!
//! Every operation here is written one bit at a time on top of
//! [`ApInt::zero`], [`ApInt::width`], [`ApInt::bit`] and [`ApInt::set_bit`]
//! alone, so it shares nothing with the limb-level implementation it
//! checks: ripple-carry addition, shift-and-add multiplication, restoring
//! division, and bit-by-bit extension, shifts and scans.

use bits::ApInt;
use std::cmp::Ordering;

/// The `width`-bit value whose bit `i` is `f(i)`.
pub fn from_fn(width: u32, f: impl Fn(u32) -> bool) -> ApInt {
    let mut v = ApInt::zero(width);
    for i in 0..width {
        v.set_bit(i, f(i));
    }
    v
}

/// The `width`-bit value whose bit `i` is bit `i % 64` of `words[i / 64]`.
pub fn from_words(width: u32, words: &[u64]) -> ApInt {
    from_fn(width, |i| words[(i / 64) as usize] >> (i % 64) & 1 == 1)
}

/// Bit `pos` of `x`, reading zero past the top.
fn bit_or_zero(x: &ApInt, pos: u64) -> bool {
    pos < u64::from(x.width()) && x.bit(pos as u32)
}

fn sign(x: &ApInt) -> bool {
    x.bit(x.width() - 1)
}

pub fn ones(width: u32) -> ApInt {
    from_fn(width, |_| true)
}

pub fn from_u64(value: u64, width: u32) -> ApInt {
    from_fn(width, |i| i < 64 && value >> i & 1 == 1)
}

pub fn from_i64(value: i64, width: u32) -> ApInt {
    from_fn(width, |i| value >> i.min(63) & 1 == 1)
}

pub fn not(x: &ApInt) -> ApInt {
    from_fn(x.width(), |i| !x.bit(i))
}

pub fn and(x: &ApInt, y: &ApInt) -> ApInt {
    from_fn(x.width(), |i| x.bit(i) & y.bit(i))
}

pub fn or(x: &ApInt, y: &ApInt) -> ApInt {
    from_fn(x.width(), |i| x.bit(i) | y.bit(i))
}

pub fn xor(x: &ApInt, y: &ApInt) -> ApInt {
    from_fn(x.width(), |i| x.bit(i) ^ y.bit(i))
}

/// Ripple-carry `x + y + carry_in`, wrapping at the width.
fn add_carry(x: &ApInt, y: &ApInt, mut carry: bool) -> ApInt {
    let mut out = ApInt::zero(x.width());
    for i in 0..x.width() {
        let (a, b) = (x.bit(i), y.bit(i));
        out.set_bit(i, a ^ b ^ carry);
        carry = (a & b) | (carry & (a ^ b));
    }
    out
}

pub fn add(x: &ApInt, y: &ApInt) -> ApInt {
    add_carry(x, y, false)
}

pub fn sub(x: &ApInt, y: &ApInt) -> ApInt {
    add_carry(x, &not(y), true)
}

pub fn neg(x: &ApInt) -> ApInt {
    sub(&ApInt::zero(x.width()), x)
}

/// Shift-and-add: one shifted copy of `x` per set bit of `y`.
pub fn mul(x: &ApInt, y: &ApInt) -> ApInt {
    let mut acc = ApInt::zero(x.width());
    for i in 0..x.width() {
        if y.bit(i) {
            acc = add(&acc, &shl(x, i));
        }
    }
    acc
}

pub fn shl(x: &ApInt, amount: u32) -> ApInt {
    from_fn(x.width(), |i| i >= amount && x.bit(i - amount))
}

pub fn lshr(x: &ApInt, amount: u32) -> ApInt {
    from_fn(x.width(), |i| {
        bit_or_zero(x, u64::from(i) + u64::from(amount))
    })
}

pub fn ashr(x: &ApInt, amount: u32) -> ApInt {
    let src = |i: u32| u64::from(i) + u64::from(amount);
    from_fn(x.width(), |i| {
        if src(i) < u64::from(x.width()) {
            x.bit(src(i) as u32)
        } else {
            sign(x)
        }
    })
}

pub fn zext(x: &ApInt, width: u32) -> ApInt {
    from_fn(width, |i| bit_or_zero(x, u64::from(i)))
}

pub fn sext(x: &ApInt, width: u32) -> ApInt {
    from_fn(width, |i| if i < x.width() { x.bit(i) } else { sign(x) })
}

pub fn trunc(x: &ApInt, width: u32) -> ApInt {
    from_fn(width, |i| x.bit(i))
}

pub fn extract(x: &ApInt, lo: u32, width: u32) -> ApInt {
    from_fn(width, |i| x.bit(lo + i))
}

/// `{hi, lo}`: `hi` takes the most significant bits.
pub fn concat(hi: &ApInt, lo: &ApInt) -> ApInt {
    let low = lo.width();
    from_fn(hi.width() + low, |i| {
        if i < low {
            lo.bit(i)
        } else {
            hi.bit(i - low)
        }
    })
}

pub fn is_zero(x: &ApInt) -> bool {
    (0..x.width()).all(|i| !x.bit(i))
}

pub fn is_all_ones(x: &ApInt) -> bool {
    (0..x.width()).all(|i| x.bit(i))
}

pub fn leading_zeros(x: &ApInt) -> u32 {
    (0..x.width()).rev().take_while(|&i| !x.bit(i)).count() as u32
}

/// Unsigned comparison from the most significant bit down.
pub fn ucmp(x: &ApInt, y: &ApInt) -> Ordering {
    for i in (0..x.width()).rev() {
        match (x.bit(i), y.bit(i)) {
            (true, false) => return Ordering::Greater,
            (false, true) => return Ordering::Less,
            _ => {}
        }
    }
    Ordering::Equal
}

pub fn scmp(x: &ApInt, y: &ApInt) -> Ordering {
    match (sign(x), sign(y)) {
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        _ => ucmp(x, y),
    }
}

/// Restoring long division, one dividend bit per step; `y` is non-zero.
pub fn udivrem(x: &ApInt, y: &ApInt) -> (ApInt, ApInt) {
    let mut quot = ApInt::zero(x.width());
    let mut rem = ApInt::zero(x.width());
    for pos in (0..x.width()).rev() {
        rem = shl(&rem, 1);
        rem.set_bit(0, x.bit(pos));
        if ucmp(&rem, y) != Ordering::Less {
            rem = sub(&rem, y);
            quot.set_bit(pos, true);
        }
    }
    (quot, rem)
}

/// The low 64 bits as an unsigned number.
pub fn low_u64(x: &ApInt) -> u64 {
    (0..x.width().min(64)).fold(0, |acc, i| acc | u64::from(x.bit(i)) << i)
}
