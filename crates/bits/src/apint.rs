//! The [`ApInt`] container type and basic bit accessors.

use std::fmt;
use std::hash::{Hash, Hasher};

/// A fixed-width bit pattern of arbitrary width, stored as little-endian
/// 64-bit limbs.
///
/// Storage: a value of at most two limbs (128 bits) keeps its limbs
/// inline, a wider one in a boxed slice. Netlist values are rarely wider
/// than that, so creating, copying and dropping the values the simulators
/// work on never touches the heap. Either way the type is 32 bytes.
///
/// Invariants:
/// * `width >= 1`
/// * the value has `ceil(width / 64)` limbs, held inline exactly when that
///   is at most two
/// * all bits at positions `>= width` are zero, in the last limb and in an
///   unused inline limb alike (the *canonical* unsigned representation)
///
/// Signedness is an interpretation supplied per operation (e.g.
/// [`ApInt::slt`] vs [`ApInt::ult`]), not a property of the value.
#[derive(Clone, PartialEq, Eq)]
pub struct ApInt {
    pub(crate) width: u32,
    storage: Storage,
}

/// Limb storage; which variant a value uses follows from its width alone,
/// so the derived equality compares like with like.
#[derive(Clone, PartialEq, Eq)]
enum Storage {
    Inline([u64; INLINE_LIMBS]),
    Heap(Box<[u64]>),
}

/// Limbs held inline before a value moves to the heap.
pub(crate) const INLINE_LIMBS: usize = 2;

pub(crate) const LIMB_BITS: u32 = 64;

/// The widest value whose limbs are inline, and so an [`ApInt::as_u128`].
pub(crate) const INLINE_BITS: u32 = INLINE_LIMBS as u32 * LIMB_BITS;

#[inline]
pub(crate) fn limbs_for(width: u32) -> usize {
    (width as usize).div_ceil(64)
}

/// The valid bits of the last limb of a `width`-bit value.
#[inline]
fn top_mask(width: u32) -> u64 {
    u64::MAX >> ((LIMB_BITS - width % LIMB_BITS) % LIMB_BITS)
}

impl ApInt {
    /// Builds a `width`-bit value whose limb `i` is `limb(i)`, called once
    /// per limb from low to high, with the bits past `width` cleared. The
    /// constructors and most operations build their result here in one
    /// pass, without a temporary value.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `width > MAX_WIDTH`.
    #[inline]
    pub(crate) fn from_limb_fn(width: u32, mut limb: impl FnMut(usize) -> u64) -> ApInt {
        assert!(width >= 1, "ApInt width must be at least 1");
        assert!(
            width <= crate::MAX_WIDTH,
            "ApInt width {width} exceeds MAX_WIDTH"
        );
        let mask = top_mask(width);
        // One and two limbs are spelled out (array elements evaluate left
        // to right, so `limb` still runs low to high): a fill loop over
        // the inline array compiles to a `memset` call.
        let storage = if width <= LIMB_BITS {
            Storage::Inline([limb(0) & mask, 0])
        } else if width <= 2 * LIMB_BITS {
            Storage::Inline([limb(0), limb(1) & mask])
        } else {
            let mut limbs: Box<[u64]> = (0..limbs_for(width)).map(limb).collect();
            *limbs.last_mut().expect("at least three limbs") &= mask;
            Storage::Heap(limbs)
        };
        ApInt { width, storage }
    }

    /// The value as one `u128` when its limbs are inline (at most 128 bits;
    /// an unused inline limb is zero), else `None`. The structural
    /// operations work on such a value with single shifts instead of limb
    /// windows.
    #[inline]
    pub(crate) fn as_u128(&self) -> Option<u128> {
        match self.storage {
            Storage::Inline([lo, hi]) => Some(u128::from(hi) << LIMB_BITS | u128::from(lo)),
            Storage::Heap(_) => None,
        }
    }

    /// The low `width` bits of `v`, for `1 <= width <= 128`.
    #[inline]
    pub(crate) fn from_u128(v: u128, width: u32) -> ApInt {
        debug_assert!((1..=INLINE_BITS).contains(&width));
        let v = v & u128::MAX >> (u128::BITS - width);
        let storage = Storage::Inline([v as u64, (v >> LIMB_BITS) as u64]);
        ApInt { width, storage }
    }

    /// Creates the all-zero value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `width > MAX_WIDTH`.
    #[inline]
    pub fn zero(width: u32) -> Self {
        Self::from_limb_fn(width, |_| 0)
    }

    /// Creates the all-ones value of the given width (i.e. `-1` when read as
    /// signed, `2^width - 1` when read as unsigned).
    #[inline]
    pub fn ones(width: u32) -> Self {
        Self::from_limb_fn(width, |_| u64::MAX)
    }

    /// Creates the value `1` of the given width.
    #[inline]
    pub fn one(width: u32) -> Self {
        Self::from_u64(1, width)
    }

    /// Creates an `ApInt` from the low `width` bits of `value`.
    #[inline]
    pub fn from_u64(value: u64, width: u32) -> Self {
        Self::from_limb_fn(width, |i| if i == 0 { value } else { 0 })
    }

    /// Creates an `ApInt` from `value`, sign-extended or truncated to `width`.
    #[inline]
    pub fn from_i64(value: i64, width: u32) -> Self {
        let fill = if value < 0 { u64::MAX } else { 0 };
        Self::from_limb_fn(width, |i| if i == 0 { value as u64 } else { fill })
    }

    /// Creates an `ApInt` from a bool (width 1).
    #[inline]
    pub fn from_bool(value: bool) -> Self {
        Self::from_u64(value as u64, 1)
    }

    /// The bitwidth of this value.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Masks off bits beyond `width` in the last limb, restoring the
    /// canonical representation.
    #[inline]
    pub(crate) fn canonicalize(&mut self) {
        let mask = top_mask(self.width);
        if let Some(last) = self.limbs_mut().last_mut() {
            *last &= mask;
        }
    }

    /// The limbs, mutably. A caller that can set bits past `width` must
    /// [`ApInt::canonicalize`] afterwards.
    #[inline]
    pub(crate) fn limbs_mut(&mut self) -> &mut [u64] {
        let n = limbs_for(self.width);
        match &mut self.storage {
            Storage::Inline(limbs) => &mut limbs[..n],
            Storage::Heap(limbs) => limbs,
        }
    }

    /// The 64 bits of `self` starting at bit `pos`, which lands in bit 0.
    /// Positions below zero read 0; positions at or above the width read
    /// the bits of `fill` (0 or all-ones), so a window past the top sees a
    /// zero or a sign extension. Past 128 bits, shifts, extension,
    /// extraction and concatenation are all limb-by-limb windows.
    pub(crate) fn window(&self, pos: i64, fill: u64) -> u64 {
        let limbs = self.limbs();
        let top = limbs.len() - 1;
        let pad = fill & !top_mask(self.width);
        let limb = |k: i64| match usize::try_from(k) {
            Err(_) => 0,
            Ok(k) if k < top => limbs[k],
            Ok(k) if k == top => limbs[k] | pad,
            Ok(_) => fill,
        };
        let k = pos.div_euclid(i64::from(LIMB_BITS));
        match pos.rem_euclid(i64::from(LIMB_BITS)) as u32 {
            0 => limb(k),
            sh => limb(k) >> sh | limb(k + 1) << (LIMB_BITS - sh),
        }
    }

    /// Returns the bit at position `pos` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.width()`.
    #[inline]
    pub fn bit(&self, pos: u32) -> bool {
        assert!(pos < self.width, "bit index {pos} out of range");
        (self.limbs()[(pos / LIMB_BITS) as usize] >> (pos % LIMB_BITS)) & 1 == 1
    }

    /// Sets the bit at position `pos` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.width()`.
    #[inline]
    pub fn set_bit(&mut self, pos: u32, value: bool) {
        assert!(pos < self.width, "bit index {pos} out of range");
        let limb = &mut self.limbs_mut()[(pos / LIMB_BITS) as usize];
        let mask = 1u64 << (pos % LIMB_BITS);
        if value {
            *limb |= mask;
        } else {
            *limb &= !mask;
        }
    }

    /// The most significant bit — the sign bit under signed interpretation.
    #[inline]
    pub fn sign_bit(&self) -> bool {
        self.bit(self.width - 1)
    }

    /// True if the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs().iter().all(|&l| l == 0)
    }

    /// True if every bit is one.
    #[inline]
    pub fn is_all_ones(&self) -> bool {
        let (last, rest) = self.limbs().split_last().expect("at least one limb");
        *last == top_mask(self.width) && rest.iter().all(|&l| l == u64::MAX)
    }

    /// Number of leading (most-significant) zero bits.
    pub fn leading_zeros(&self) -> u32 {
        let limbs = self.limbs();
        match limbs.iter().rposition(|&l| l != 0) {
            // The top set bit sits at `64 * i + 63 - lz`.
            Some(i) => self.width + limbs[i].leading_zeros() - LIMB_BITS * (i as u32 + 1),
            None => self.width,
        }
    }

    /// Minimal width needed to represent this value as unsigned (at least 1).
    pub fn min_unsigned_width(&self) -> u32 {
        (self.width - self.leading_zeros()).max(1)
    }

    /// Iterates over the raw little-endian limbs.
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        match &self.storage {
            Storage::Inline(limbs) => &limbs[..limbs_for(self.width)],
            Storage::Heap(limbs) => limbs,
        }
    }
}

/// Hashes exactly what equality compares: the width, then the limbs.
impl Hash for ApInt {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.width.hash(state);
        self.limbs().hash(state);
    }
}

impl fmt::Debug for ApInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'h{:x}", self.width, self)
    }
}

impl fmt::Display for ApInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_dec_string())
    }
}

impl fmt::LowerHex for ApInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut started = false;
        for (i, limb) in self.limbs().iter().enumerate().rev() {
            if started {
                write!(f, "{limb:016x}")?;
            } else if *limb != 0 || i == 0 {
                write!(f, "{limb:x}")?;
                started = true;
            }
        }
        Ok(())
    }
}

impl fmt::Binary for ApInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for pos in (0..self.width).rev() {
            f.write_str(if self.bit(pos) { "1" } else { "0" })?;
        }
        Ok(())
    }
}
