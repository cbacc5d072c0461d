//! Property tests at the limb and inline-storage boundaries: every
//! limb-level operation against the bit-serial reference model in
//! `model/`, at widths on both sides of 64 and of the 128-bit switch from
//! inline to heap storage. Each case runs every width (and every pair of
//! widths for the resizing operations), so results that cross the switch —
//! `zext`/`sext` 128 → 129, `trunc` 129 → 128, a 64 + 65-bit `concat`,
//! shifts by 64 or more — are checked on every run.

mod model;

use bits::ApInt;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const WIDTHS: [u32; 8] = [1, 63, 64, 65, 127, 128, 129, 200];

/// Four limbs (enough for 200 bits), biased toward the patterns that
/// exercise carries, borrows and sign bits.
fn words() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        (0u8..6, any::<u64>()).prop_map(|(kind, r)| match kind {
            0 => 0,
            1 => u64::MAX,
            2 => 1 << 63,
            3 => 1,
            _ => r,
        }),
        4,
    )
}

fn hash_of(v: &ApInt) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Shift amounts around the limb boundaries and past the width.
fn amounts(width: u32, seed: u32) -> [u32; 10] {
    [
        0,
        1,
        63,
        64,
        65,
        128,
        width - 1,
        width,
        width + 1,
        seed % (2 * width + 2),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn constructors_match_the_model(a: u64, b: i64) {
        for &w in &WIDTHS {
            prop_assert_eq!(ApInt::zero(w), model::from_fn(w, |_| false));
            prop_assert_eq!(ApInt::ones(w), model::ones(w));
            prop_assert_eq!(ApInt::from_u64(a, w), model::from_u64(a, w));
            prop_assert_eq!(ApInt::from_i64(b, w), model::from_i64(b, w));
            prop_assert_eq!(ApInt::zero(w).limbs().len(), w.div_ceil(64) as usize);
        }
    }

    #[test]
    fn logic_and_arithmetic_match_the_model(a in words(), b in words()) {
        for &w in &WIDTHS {
            let (x, y) = (model::from_words(w, &a), model::from_words(w, &b));
            prop_assert_eq!(x.not(), model::not(&x), "not at {}", w);
            prop_assert_eq!(x.and(&y), model::and(&x, &y), "and at {}", w);
            prop_assert_eq!(x.or(&y), model::or(&x, &y), "or at {}", w);
            prop_assert_eq!(x.xor(&y), model::xor(&x, &y), "xor at {}", w);
            prop_assert_eq!(x.add(&y), model::add(&x, &y), "add at {}", w);
            prop_assert_eq!(x.sub(&y), model::sub(&x, &y), "sub at {}", w);
            prop_assert_eq!(x.neg(), model::neg(&x), "neg at {}", w);
            prop_assert_eq!(x.mul(&y), model::mul(&x, &y), "mul at {}", w);
            // Equal values hash equally, however they were built.
            prop_assert_eq!(hash_of(&x.add(&y)), hash_of(&model::add(&x, &y)));
        }
    }

    #[test]
    fn scans_and_comparisons_match_the_model(a in words(), b in words()) {
        for &w in &WIDTHS {
            let (x, y) = (model::from_words(w, &a), model::from_words(w, &b));
            prop_assert_eq!(x.is_zero(), model::is_zero(&x), "is_zero at {}", w);
            prop_assert_eq!(x.is_all_ones(), model::is_all_ones(&x), "is_all_ones at {}", w);
            prop_assert_eq!(x.leading_zeros(), model::leading_zeros(&x), "lz at {}", w);
            prop_assert_eq!(x.ucmp(&y), model::ucmp(&x, &y), "ucmp at {}", w);
            prop_assert_eq!(x.scmp(&y), model::scmp(&x, &y), "scmp at {}", w);
            prop_assert_eq!(x == y, model::ucmp(&x, &y).is_eq(), "eq at {}", w);
            prop_assert_eq!(x.to_u64(), model::low_u64(&x), "to_u64 at {}", w);
            let fits = model::leading_zeros(&x) + 64 >= w;
            prop_assert_eq!(x.try_to_u64(), fits.then(|| model::low_u64(&x)));
        }
    }

    #[test]
    fn division_matches_the_model(a in words(), b in words()) {
        for &w in &WIDTHS {
            let (x, y) = (model::from_words(w, &a), model::from_words(w, &b));
            if model::is_zero(&y) {
                continue;
            }
            let (q, r) = model::udivrem(&x, &y);
            prop_assert_eq!(x.udiv(&y), q, "udiv at {}", w);
            prop_assert_eq!(x.urem(&y), r, "urem at {}", w);
        }
    }

    #[test]
    fn shifts_match_the_model(a in words(), seed: u32) {
        for &w in &WIDTHS {
            let x = model::from_words(w, &a);
            for n in amounts(w, seed) {
                prop_assert_eq!(x.shl_bits(n), model::shl(&x, n), "shl {} at {}", n, w);
                prop_assert_eq!(x.lshr_bits(n), model::lshr(&x, n), "lshr {} at {}", n, w);
                prop_assert_eq!(x.ashr_bits(n), model::ashr(&x, n), "ashr {} at {}", n, w);
                let amt = ApInt::from_u64(u64::from(n), 16);
                prop_assert_eq!(x.shl(&amt), model::shl(&x, n));
                prop_assert_eq!(x.lshr(&amt), model::lshr(&x, n));
                prop_assert_eq!(x.ashr(&amt), model::ashr(&x, n));
            }
        }
    }

    #[test]
    fn resizes_match_the_model(a in words()) {
        for &from in &WIDTHS {
            let x = model::from_words(from, &a);
            for &to in &WIDTHS {
                if to >= from {
                    prop_assert_eq!(x.zext(to), model::zext(&x, to), "zext {}->{}", from, to);
                    prop_assert_eq!(x.sext(to), model::sext(&x, to), "sext {}->{}", from, to);
                } else {
                    prop_assert_eq!(x.trunc(to), model::trunc(&x, to), "trunc {}->{}", from, to);
                }
                let exp = if to >= from { model::sext(&x, to) } else { model::trunc(&x, to) };
                prop_assert_eq!(x.sext_or_trunc(to), exp);
            }
        }
    }

    #[test]
    fn concat_and_extract_match_the_model(a in words(), b in words(), seed: u32) {
        for &hw in &WIDTHS {
            let hi = model::from_words(hw, &a);
            for &lw in &WIDTHS {
                let lo = model::from_words(lw, &b);
                let joined = hi.concat(&lo);
                prop_assert_eq!(&joined, &model::concat(&hi, &lo), "concat {}+{}", hw, lw);
                // A window of `lw` bits somewhere in the joined value.
                let start = seed % (hw + 1);
                prop_assert_eq!(
                    joined.extract(start, lw),
                    model::extract(&joined, start, lw),
                    "extract [{}+:{}] of {}", start, lw, hw + lw
                );
            }
        }
    }

    #[test]
    fn replicate_matches_the_model(a in words(), count in 1u32..5) {
        for &w in &WIDTHS {
            let x = model::from_words(w, &a);
            let expected = (1..count).fold(x.clone(), |acc, _| model::concat(&acc, &x));
            prop_assert_eq!(x.replicate(count), expected, "{} x {}", count, w);
        }
    }
}

#[test]
fn the_inline_switch_keeps_values_intact() {
    // 2^128 - 1 widened past the switch and narrowed back.
    let top = ApInt::ones(128);
    assert_eq!(top.zext(129), model::zext(&top, 129));
    assert_eq!(top.sext(129), model::ones(129));
    assert_eq!(top.sext(129).trunc(128), top);
    let wide = model::ones(129);
    assert_eq!(wide.trunc(128), top);
    assert_eq!(wide.lshr_bits(1), model::zext(&top, 129));
    assert_eq!(wide.add(&ApInt::one(129)), ApInt::zero(129));
    // 64 + 65 bits: two inline operands, a heap result.
    let hi = ApInt::ones(64);
    let lo = ApInt::one(65);
    assert_eq!(hi.concat(&lo), model::concat(&hi, &lo));
    assert_eq!(hi.concat(&lo).limbs(), &[1, u64::MAX << 1, 1]);
}
