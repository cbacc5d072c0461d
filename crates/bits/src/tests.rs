use crate::ApInt;
use std::cmp::Ordering;

#[test]
fn zero_and_ones() {
    let z = ApInt::zero(70);
    assert!(z.is_zero());
    assert_eq!(z.width(), 70);
    let o = ApInt::ones(70);
    assert!(o.is_all_ones());
    assert!(o.bit(69));
    assert_eq!(o.leading_zeros(), 0);
    assert_eq!(z.leading_zeros(), 70);
}

#[test]
fn from_u64_truncates_to_width() {
    let v = ApInt::from_u64(0x1ff, 8);
    assert_eq!(v.to_u64(), 0xff);
}

#[test]
fn from_i64_sign_extends_across_limbs() {
    let v = ApInt::from_i64(-1, 100);
    assert!(v.is_all_ones());
    let w = ApInt::from_i64(-5, 100);
    assert_eq!(w.to_i64(), -5);
    assert!(w.add(&ApInt::from_u64(5, 100)).is_zero());
}

#[test]
fn wrapping_add_sub() {
    let a = ApInt::from_u64(250, 8);
    let b = ApInt::from_u64(10, 8);
    assert_eq!(a.add(&b).to_u64(), 4);
    assert_eq!(b.sub(&a).to_u64(), 16); // 10 - 250 mod 256
}

#[test]
fn add_carries_across_limbs() {
    let a = ApInt::ones(64).zext(128);
    let b = ApInt::one(128);
    let s = a.add(&b);
    assert_eq!(s.limbs()[0], 0);
    assert_eq!(s.limbs()[1], 1);
}

#[test]
fn mul_basic_and_wide() {
    let a = ApInt::from_u64(0xffff_ffff, 64);
    let b = ApInt::from_u64(0xffff_ffff, 64);
    assert_eq!(a.mul(&b).to_u64(), 0xffff_fffe_0000_0001);
    // Wrap at width: 16-bit (0xffff * 0xffff) mod 2^16 = 1
    let c = ApInt::from_u64(0xffff, 16);
    assert_eq!(c.mul(&c).to_u64(), 1);
}

#[test]
fn division_conventions() {
    let a = ApInt::from_u64(100, 32);
    let b = ApInt::from_u64(7, 32);
    assert_eq!(a.udiv(&b).to_u64(), 14);
    assert_eq!(a.urem(&b).to_u64(), 2);
    // Division by zero: RISC-V convention.
    let z = ApInt::zero(32);
    assert!(a.udiv(&z).is_all_ones());
    assert_eq!(a.urem(&z).to_u64(), 100);
}

#[test]
fn signed_division_truncates_toward_zero() {
    let a = ApInt::from_i64(-7, 32);
    let b = ApInt::from_i64(2, 32);
    assert_eq!(a.sdiv(&b).to_i64(), -3);
    assert_eq!(a.srem(&b).to_i64(), -1);
    let c = ApInt::from_i64(7, 32);
    let d = ApInt::from_i64(-2, 32);
    assert_eq!(c.sdiv(&d).to_i64(), -3);
    assert_eq!(c.srem(&d).to_i64(), 1);
}

#[test]
fn signed_division_overflow_wraps_per_riscv() {
    // INT_MIN / -1 overflows; RISC-V (and w-bit SystemVerilog `/`) wraps
    // the quotient back to INT_MIN and gives a zero remainder.
    for w in [8u32, 32, 64, 128] {
        let int_min = ApInt::one(w).shl_bits(w - 1);
        let neg_one = ApInt::ones(w);
        assert_eq!(int_min.sdiv(&neg_one), int_min, "width {w} quotient");
        assert!(int_min.srem(&neg_one).is_zero(), "width {w} remainder");
        // Divide by zero on the same dividend: all-ones / dividend.
        let z = ApInt::zero(w);
        assert!(int_min.sdiv(&z).is_all_ones(), "width {w} div by zero");
        assert_eq!(int_min.srem(&z), int_min, "width {w} rem by zero");
    }
}

#[test]
fn shifts_within_and_past_width() {
    let v = ApInt::from_u64(0b1011, 8);
    assert_eq!(v.shl_bits(2).to_u64(), 0b101100);
    assert_eq!(v.shl_bits(8).to_u64(), 0);
    assert_eq!(v.lshr_bits(1).to_u64(), 0b101);
    let neg = ApInt::from_i64(-8, 8);
    assert_eq!(neg.ashr_bits(1).to_i64(), -4);
    assert_eq!(neg.ashr_bits(100).to_i64(), -1);
    assert_eq!(neg.lshr_bits(1).to_u64(), 0x7c);
}

#[test]
fn shifts_across_limb_boundaries() {
    let v = ApInt::one(130).shl_bits(100);
    assert!(v.bit(100));
    assert_eq!(v.lshr_bits(100).to_u64(), 1);
    let s = ApInt::ones(130).ashr_bits(65);
    assert!(s.is_all_ones());
}

#[test]
fn runtime_shift_amounts() {
    let v = ApInt::from_u64(1, 32);
    assert_eq!(v.shl(&ApInt::from_u64(31, 8)).to_u64(), 0x8000_0000);
    assert_eq!(v.shl(&ApInt::from_u64(32, 8)).to_u64(), 0);
    assert_eq!(v.shl(&ApInt::ones(128)).to_u64(), 0);
}

#[test]
fn comparisons() {
    let a = ApInt::from_i64(-1, 8);
    let b = ApInt::from_u64(1, 8);
    assert_eq!(a.ucmp(&b), Ordering::Greater); // 255 > 1 unsigned
    assert_eq!(a.scmp(&b), Ordering::Less); // -1 < 1 signed
    assert!(a.slt(&b));
    assert!(b.ult(&a));
    assert!(a.sle(&a));
    assert!(a.uge(&b));
}

#[test]
fn extract_and_concat() {
    let v = ApInt::from_u64(0xabcd, 16);
    assert_eq!(v.extract(8, 8).to_u64(), 0xab);
    assert_eq!(v.extract(0, 4).to_u64(), 0xd);
    let hi = ApInt::from_u64(0xa, 4);
    let lo = ApInt::from_u64(0xb, 4);
    assert_eq!(hi.concat(&lo).to_u64(), 0xab);
    assert_eq!(hi.concat(&lo).width(), 8);
}

#[test]
fn replicate_matches_verilog() {
    let b = ApInt::from_u64(1, 1);
    assert_eq!(b.replicate(5).to_u64(), 0b11111);
    assert_eq!(b.replicate(5).width(), 5);
    let p = ApInt::from_u64(0b10, 2);
    assert_eq!(p.replicate(3).to_u64(), 0b101010);
}

#[test]
fn parse_radix_strings() {
    assert_eq!(
        ApInt::from_str_radix("cafe", 16, 16).unwrap().to_u64(),
        0xcafe
    );
    assert_eq!(ApInt::from_str_radix("111", 2, 3).unwrap().to_u64(), 7);
    assert_eq!(ApInt::from_str_radix("42", 10, 8).unwrap().to_u64(), 42);
    assert_eq!(
        ApInt::from_str_radix("1_000", 10, 16).unwrap().to_u64(),
        1000
    );
    assert!(ApInt::from_str_radix("g", 16, 8).is_err());
    assert!(ApInt::from_str_radix("", 10, 8).is_err());
    assert!(ApInt::from_str_radix("1", 3, 8).is_err());
}

#[test]
fn decimal_formatting_wide_values() {
    // 2^100 = 1267650600228229401496703205376
    let v = ApInt::one(101).shl_bits(100);
    assert_eq!(v.to_dec_string(), "1267650600228229401496703205376");
    assert_eq!(ApInt::zero(101).to_dec_string(), "0");
    let m1 = ApInt::ones(8);
    assert_eq!(m1.to_signed_dec_string(), "-1");
    assert_eq!(m1.to_dec_string(), "255");
}

#[test]
fn hex_and_binary_formatting() {
    let v = ApInt::from_u64(0xcafe, 16);
    assert_eq!(format!("{v:x}"), "cafe");
    assert_eq!(format!("{:b}", ApInt::from_u64(5, 4)), "0101");
    assert_eq!(format!("{v:?}"), "16'hcafe");
}

#[test]
fn min_unsigned_width() {
    assert_eq!(ApInt::zero(32).min_unsigned_width(), 1);
    assert_eq!(ApInt::from_u64(1, 32).min_unsigned_width(), 1);
    assert_eq!(ApInt::from_u64(42, 32).min_unsigned_width(), 6);
    assert_eq!(ApInt::from_u64(0xcafe, 32).min_unsigned_width(), 16);
}

#[test]
fn sext_zext_trunc_roundtrip() {
    let v = ApInt::from_i64(-3, 4);
    assert_eq!(v.sext(16).to_i64(), -3);
    assert_eq!(v.zext(16).to_u64(), 0b1101);
    assert_eq!(v.sext(128).trunc(4).to_i64(), -3);
    assert_eq!(v.sext_or_trunc(2).to_u64(), 0b01);
    assert_eq!(v.zext_or_trunc(4).to_u64(), 0b1101);
}

#[test]
#[should_panic(expected = "widths differ")]
fn mismatched_width_panics() {
    let _ = ApInt::zero(8).add(&ApInt::zero(9));
}

#[test]
#[should_panic(expected = "out of range")]
fn extract_out_of_range_panics() {
    let _ = ApInt::zero(8).extract(5, 4);
}
