//! Arithmetic modulo ℓ = 2^252 + 27742317777372353535851937790883648493,
//! the prime order of the edwards25519 base-point subgroup.
//!
//! A scalar is four little-endian 64-bit limbs, always canonical (`< ℓ`).
//!
//! * **Reduction** is Barrett's (HAC 14.42) on 64-bit limbs with
//!   `b = 2^64`, `k = 4` and the constant `µ = ⌊2^512 / ℓ⌋` (`MU`, 260
//!   bits): for `x < 2^512` the estimate `q = ⌊⌊x / b^3⌋·µ / b^5⌋` falls
//!   short of `⌊x / ℓ⌋` by at most 2, so `x − q·ℓ`, computed modulo
//!   `b^5`, is below `3ℓ` and two conditional subtractions finish. One
//!   routine, `reduce_wide`, serves [`Scalar::from_bytes_mod_order`]
//!   (SHA-512 outputs, clamped secrets) and [`Scalar::mul`], which hands
//!   it the eight limbs of its schoolbook product directly: about 45
//!   word multiplications where the bit-serial long division it
//!   replaces (kept in the test module as the oracle) took 512
//!   shift–compare–subtract steps.
//! * **Recoding** ([`Scalar::non_adjacent_form4`],
//!   [`Scalar::to_radix16`], `Scalar::to_radix256`) reads 4- or 8-bit
//!   windows straight out of the limbs and threads a carry, instead of
//!   shifting the whole scalar right one bit per digit.

/// ℓ as four little-endian 64-bit limbs.
const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
];

/// Barrett's constant `µ = ⌊2^512 / ℓ⌋` as five little-endian limbs.
const MU: [u64; 5] = [
    0xed9ce5a30a2c131b,
    0x2106215d086329a7,
    0xffffffffffffffeb,
    0xffffffffffffffff,
    0x000000000000000f,
];

/// A scalar reduced modulo ℓ.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Scalar(pub(crate) [u64; 4]);

impl std::fmt::Debug for Scalar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scalar({})", crate::hex::encode(&self.to_bytes()))
    }
}

fn geq(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

fn sub_in_place(a: &mut [u64; 4], b: &[u64; 4]) {
    let mut borrow = 0u64;
    for i in 0..4 {
        let (d, b1) = a[i].overflowing_sub(b[i]);
        let (d, b2) = d.overflowing_sub(borrow);
        a[i] = d;
        borrow = (b1 as u64) + (b2 as u64);
    }
    debug_assert_eq!(borrow, 0, "subtraction underflow");
}

/// The little-endian integer `bytes` as `N` limbs, zero-extended.
fn limbs_from_le<const N: usize>(bytes: &[u8]) -> [u64; N] {
    let mut limbs = [0u64; N];
    for (limb, chunk) in limbs.iter_mut().zip(bytes.chunks(8)) {
        let mut v = [0u8; 8];
        v[..chunk.len()].copy_from_slice(chunk);
        *limb = u64::from_le_bytes(v);
    }
    limbs
}

/// Schoolbook `a · b` into the zeroed `out`, keeping the low
/// `out.len()` limbs of the product.
#[inline(always)]
fn mul_limbs(out: &mut [u64], a: &[u64], b: &[u64]) {
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (slot, &bj) in out[i..].iter_mut().zip(b) {
            let acc = *slot as u128 + ai as u128 * bj as u128 + carry;
            *slot = acc as u64;
            carry = acc >> 64;
        }
        if let Some(slot) = out.get_mut(i + b.len()) {
            *slot = carry as u64;
        }
    }
}

/// Reduces a 512-bit integer (eight little-endian limbs) modulo ℓ by
/// Barrett's method; the module header has the constant and the bound.
fn reduce_wide(x: &[u64; 8]) -> [u64; 4] {
    let mut estimate = [0u64; 10];
    mul_limbs(&mut estimate, &x[3..], &MU);
    let mut q_times_l = [0u64; 5];
    mul_limbs(&mut q_times_l, &estimate[5..], &L);
    // x − q·ℓ modulo 2^320: the true difference is below 3ℓ < 2^255, so
    // what the truncation drops cancels and the fifth limb ends at zero.
    let mut r = [0u64; 5];
    let mut borrow = false;
    for (i, limb) in r.iter_mut().enumerate() {
        let (d, b1) = x[i].overflowing_sub(q_times_l[i]);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        borrow = b1 | b2;
        *limb = d;
    }
    debug_assert_eq!(r[4], 0, "Barrett remainder above 2^256");
    let mut r = [r[0], r[1], r[2], r[3]];
    for _ in 0..2 {
        if geq(&r, &L) {
            sub_in_place(&mut r, &L);
        }
    }
    debug_assert!(!geq(&r, &L), "Barrett estimate short by more than 2");
    r
}

impl Scalar {
    /// The scalar 0.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The scalar 1.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Reduces up to 64 little-endian bytes modulo ℓ.
    pub fn from_bytes_mod_order(bytes: &[u8]) -> Scalar {
        assert!(bytes.len() <= 64, "scalar input longer than 64 bytes");
        Scalar(reduce_wide(&limbs_from_le(bytes)))
    }

    /// Parses 32 bytes, returning `None` if the value is not already
    /// canonical (< ℓ). Used to validate the `s` part of signatures per
    /// RFC 8032 §5.1.7.
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let limbs = limbs_from_le(bytes);
        if geq(&limbs, &L) {
            None
        } else {
            Some(Scalar(limbs))
        }
    }

    /// Constructs a scalar from a small integer.
    pub fn from_u64(v: u64) -> Scalar {
        Scalar([v, 0, 0, 0])
    }

    /// Constructs a scalar from a 128-bit integer (always below ℓ): the
    /// random coefficients of batch verification.
    pub(crate) fn from_u128(v: u128) -> Scalar {
        Scalar([v as u64, (v >> 64) as u64, 0, 0])
    }

    /// Serializes to 32 little-endian bytes (canonical).
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[8 * i..8 * i + 8].copy_from_slice(&self.0[i].to_le_bytes());
        }
        out
    }

    /// Modular addition.
    pub fn add(&self, rhs: &Scalar) -> Scalar {
        let mut sum = [0u64; 4];
        let mut carry = 0u64;
        #[allow(clippy::needless_range_loop)] // walks two arrays in lockstep
        for i in 0..4 {
            let (s, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s, c2) = s.overflowing_add(carry);
            sum[i] = s;
            carry = (c1 as u64) + (c2 as u64);
        }
        debug_assert_eq!(carry, 0, "both inputs were canonical, sum < 2^253");
        if geq(&sum, &L) {
            sub_in_place(&mut sum, &L);
        }
        Scalar(sum)
    }

    /// Modular multiplication (schoolbook 4×4 then reduction).
    pub fn mul(&self, rhs: &Scalar) -> Scalar {
        let mut wide = [0u64; 8];
        mul_limbs(&mut wide, &self.0, &rhs.0);
        Scalar(reduce_wide(&wide))
    }

    /// Computes `self * b + c mod ℓ` (the `sc_muladd` of RFC 8032 signing).
    pub fn muladd(&self, b: &Scalar, c: &Scalar) -> Scalar {
        self.mul(b).add(c)
    }

    /// The `width` (≤ 8) bits of `self` starting at bit `pos` (zeros
    /// past 256).
    #[inline(always)]
    fn window(&self, pos: usize, width: usize) -> u64 {
        let (limb, bit) = (pos / 64, pos % 64);
        let low = self.0.get(limb).map_or(0, |l| l >> bit);
        // `<< 1 << (63 − bit)` is `<< (64 − bit)` without the overflow at 0.
        let high = self.0.get(limb + 1).map_or(0, |l| l << 1 << (63 - bit));
        (low | high) & ((1 << width) - 1)
    }

    /// Recodes into `N` signed digits of `w = 256 / N` bits, each in
    /// `[−2^(w−1), 2^(w−1))`, with `self = Σ digits[i]·2^(w·i)`. Valid
    /// for canonical scalars (< ℓ < 2^253), whose top window leaves room
    /// for the final carry.
    fn to_signed_radix<const N: usize>(self) -> [i8; N] {
        let width = 256 / N;
        let half = 1i16 << (width - 1);
        let mut e = [0i8; N];
        // Center each digit, pushing the excess upward.
        let mut carry = 0i16;
        for (i, d) in e.iter_mut().enumerate() {
            let window = self.window(width * i, width) as i16 + carry;
            carry = (window + half) >> width;
            *d = (window - (carry << width)) as i8;
        }
        debug_assert_eq!(carry, 0, "a canonical scalar leaves room for the top carry");
        e
    }

    /// 64 signed radix-16 digits in `[−8, 8)`: drives the per-author
    /// fixed-window tables of the Ed25519 fast path.
    pub fn to_radix16(&self) -> [i8; 64] {
        self.to_signed_radix()
    }

    /// 32 signed radix-2^8 digits in `[−128, 128)`: drives the static
    /// basepoint table, one addition per byte of the scalar.
    pub(crate) fn to_radix256(self) -> [i8; 32] {
        self.to_signed_radix()
    }

    /// Width-4 non-adjacent form: 256 digits in `{0, ±1, ±3, ±5, ±7}`
    /// with `self = Σ digits[i]·2^i` and any two non-zero digits at
    /// least 4 positions apart. Drives the sliding-window scalar
    /// multiplications (average one addition per 5 doublings).
    pub fn non_adjacent_form4(&self) -> [i8; 256] {
        let mut naf = [0i8; 256];
        let top_limb = self.0.iter().rposition(|&l| l != 0).unwrap_or(0);
        let bits = 64 * (top_limb + 1) - self.0[top_limb].leading_zeros() as usize;
        // A carry out of the top window lands on bit `bits` itself.
        let (mut pos, mut carry) = (0usize, 0u64);
        while pos <= bits {
            let window = self.window(pos, 4) + carry;
            if window & 1 == 0 {
                pos += 1;
                continue;
            }
            // Centered remainder mod 16 in (-8, 8); taking a negative
            // one leaves 16 behind, i.e. a carry into the next window.
            carry = window >> 3;
            naf[pos] = window as i8 - ((carry as i8) << 4);
            pos += 4;
        }
        naf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l_reduces_to_zero() {
        let mut l_bytes = [0u8; 32];
        for i in 0..4 {
            l_bytes[8 * i..8 * i + 8].copy_from_slice(&L[i].to_le_bytes());
        }
        assert_eq!(Scalar::from_bytes_mod_order(&l_bytes), Scalar::ZERO);
        assert!(Scalar::from_canonical_bytes(&l_bytes).is_none());
    }

    #[test]
    fn l_minus_one_is_canonical() {
        let mut v = L;
        v[0] -= 1;
        let mut bytes = [0u8; 32];
        for i in 0..4 {
            bytes[8 * i..8 * i + 8].copy_from_slice(&v[i].to_le_bytes());
        }
        let s = Scalar::from_canonical_bytes(&bytes).expect("l-1 is canonical");
        assert_eq!(s.add(&Scalar::ONE), Scalar::ZERO);
    }

    #[test]
    fn small_multiplication() {
        let a = Scalar::from_u64(1_000_003);
        let b = Scalar::from_u64(999_983);
        let expected = Scalar::from_u64(1_000_003 * 999_983);
        assert_eq!(a.mul(&b), expected);
    }

    #[test]
    fn mul_commutes_and_distributes() {
        let a = Scalar::from_bytes_mod_order(&crate::sha2::sha512(b"a"));
        let b = Scalar::from_bytes_mod_order(&crate::sha2::sha512(b"b"));
        let c = Scalar::from_bytes_mod_order(&crate::sha2::sha512(b"c"));
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.add(&b).mul(&c), a.mul(&c).add(&b.mul(&c)));
    }

    #[test]
    fn muladd_matches_parts() {
        let a = Scalar::from_u64(77);
        let b = Scalar::from_u64(88);
        let c = Scalar::from_u64(99);
        assert_eq!(a.muladd(&b, &c), Scalar::from_u64(77 * 88 + 99));
    }

    /// The reduction this module shipped with until it moved to Barrett:
    /// binary long division, one shift–compare–subtract per input bit.
    /// Kept as the oracle of every word-level routine above.
    fn reduce_bytes(bytes: &[u8]) -> [u64; 4] {
        assert!(bytes.len() <= 64, "scalar input longer than 64 bytes");
        let mut rem = [0u64; 4];
        for byte in bytes.iter().rev() {
            for bit in (0..8).rev() {
                // rem = rem * 2 + bit; rem stays < 2ℓ < 2^254 so no limb overflow.
                let mut carry = (byte >> bit) & 1;
                for limb in rem.iter_mut() {
                    let new_carry = (*limb >> 63) as u8;
                    *limb = (*limb << 1) | carry as u64;
                    carry = new_carry;
                }
                assert_eq!(carry, 0);
                if geq(&rem, &L) {
                    sub_in_place(&mut rem, &L);
                }
            }
        }
        rem
    }

    /// The one-bit-per-step width-4 NAF loop `non_adjacent_form4` used
    /// to be: halve a five-limb copy, peel a centred digit when odd.
    fn naf4_one_bit_loop(s: &Scalar) -> [i8; 256] {
        let mut naf = [0i8; 256];
        let mut limbs = [s.0[0], s.0[1], s.0[2], s.0[3], 0u64];
        let mut pos = 0usize;
        while limbs != [0; 5] {
            if limbs[0] & 1 == 1 {
                let mut d = (limbs[0] & 15) as i8;
                if d > 8 {
                    d -= 16;
                }
                naf[pos] = d;
                if d > 0 {
                    limbs[0] -= d as u64;
                } else {
                    let mut carry = (-d) as u64;
                    for limb in limbs.iter_mut() {
                        let (v, overflow) = limb.overflowing_add(carry);
                        *limb = v;
                        carry = overflow as u64;
                        if carry == 0 {
                            break;
                        }
                    }
                }
            }
            for i in 0..5 {
                limbs[i] >>= 1;
                if i < 4 {
                    limbs[i] |= limbs[i + 1] << 63;
                }
            }
            pos += 1;
        }
        naf
    }

    /// The byte-splitting radix-16 recoding `to_radix16` used to be.
    fn radix16_bytewise(s: &Scalar) -> [i8; 64] {
        let bytes = s.to_bytes();
        let mut e = [0i8; 64];
        for i in 0..32 {
            e[2 * i] = (bytes[i] & 15) as i8;
            e[2 * i + 1] = (bytes[i] >> 4) as i8;
        }
        let mut carry = 0i8;
        for d in e.iter_mut().take(63) {
            *d += carry;
            carry = (*d + 8) >> 4;
            *d -= carry << 4;
        }
        e[63] += carry;
        e
    }

    fn le_bytes<const N: usize, const B: usize>(limbs: [u64; N]) -> [u8; B] {
        let mut out = [0u8; B];
        for (i, limb) in limbs.iter().enumerate() {
            out[8 * i..8 * i + 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// `a·b + c` as a 512-bit integer: what `mul` / `muladd` reduce.
    fn wide_muladd(a: &Scalar, b: &Scalar, c: &Scalar) -> [u8; 64] {
        let mut wide = [0u64; 8];
        wide[..4].copy_from_slice(&c.0);
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let acc = wide[i + j] as u128 + a.0[i] as u128 * b.0[j] as u128 + carry;
                wide[i + j] = acc as u64;
                carry = acc >> 64;
            }
            let mut k = i + 4;
            while carry != 0 {
                let acc = wide[k] as u128 + carry;
                wide[k] = acc as u64;
                carry = acc >> 64;
                k += 1;
            }
        }
        le_bytes(wide)
    }

    fn assert_mul_matches_oracle(a: &Scalar, b: &Scalar, c: &Scalar) {
        assert_eq!(a.mul(b).0, reduce_bytes(&wide_muladd(a, b, &Scalar::ZERO)));
        assert_eq!(a.muladd(b, c).0, reduce_bytes(&wide_muladd(a, b, c)));
    }

    /// `Σ digits[i]·2^(shift·i) mod ℓ` by Horner from the top, with
    /// additions only (so it does not lean on the `mul` under test).
    fn resum(digits: &[i8], shift: u32) -> Scalar {
        digits.iter().rev().fold(Scalar::ZERO, |mut acc, &d| {
            for _ in 0..shift {
                acc = acc.add(&acc);
            }
            let mut digit = [d.unsigned_abs() as u64, 0, 0, 0];
            if d < 0 {
                let magnitude = digit;
                digit = L;
                sub_in_place(&mut digit, &magnitude);
            }
            acc.add(&Scalar(digit))
        })
    }

    const L_MINUS_ONE: [u64; 4] = [L[0] - 1, L[1], L[2], L[3]];

    fn assert_recodings_match_oracles(s: &Scalar) {
        let naf = s.non_adjacent_form4();
        assert_eq!(naf[..], naf4_one_bit_loop(s)[..], "NAF of {s:?}");
        assert_eq!(resum(&naf, 1), *s);
        let mut quiet = 0;
        for &d in naf.iter() {
            assert!(d == 0 || (d % 2 != 0 && (-7..=7).contains(&d)), "digit {d}");
            assert!(
                d == 0 || quiet == 0,
                "non-zero digits closer than 4 in {s:?}"
            );
            quiet = if d != 0 { 3 } else { quiet.max(1) - 1 };
        }
        let radix16 = s.to_radix16();
        assert_eq!(radix16[..], radix16_bytewise(s)[..], "radix 16 of {s:?}");
        assert!(radix16.iter().all(|d| (-8..=8).contains(d)));
        assert_eq!(resum(&radix16, 4), *s);
        // Radix 2^8: the carry is threaded through an `i16`, so a digit
        // that left [−128, 128) would wrap in the cast and miss the sum.
        let radix256 = s.to_radix256();
        let mut carry = 0i16;
        for (byte, &d) in s.to_bytes().iter().zip(&radix256) {
            let centred = i16::from(*byte) + carry - i16::from(d);
            assert!(centred == 0 || centred == 256, "digit {d} of {s:?}");
            carry = centred >> 8;
        }
        assert_eq!(carry, 0);
        assert_eq!(resum(&radix256, 8), *s);
    }

    #[test]
    fn reduction_matches_long_division_on_edge_values() {
        const MAX: u64 = u64::MAX;
        let l_minus_one_squared =
            wide_muladd(&Scalar(L_MINUS_ONE), &Scalar(L_MINUS_ONE), &Scalar::ZERO);
        let edges: [[u8; 64]; 10] = [
            [0; 64],
            le_bytes([1u64]),
            le_bytes(L_MINUS_ONE),
            le_bytes(L),
            le_bytes([L[0] + 1, L[1], L[2], L[3]]),
            le_bytes([MAX, MAX, MAX, (1 << 60) - 1]), // 2^252 − 1
            le_bytes([0, 0, 0, 1 << 60]),             // 2^252
            le_bytes([MAX; 4]),                       // 2^256 − 1
            le_bytes([MAX; 8]),                       // 2^512 − 1
            l_minus_one_squared,
        ];
        for wide in edges {
            // Every prefix length, so short inputs take the same path.
            for len in [64usize, 48, 33, 32, 31, 16, 1, 0] {
                let got = Scalar::from_bytes_mod_order(&wide[..len]);
                assert_eq!(got.0, reduce_bytes(&wide[..len]), "{len} bytes of {wide:?}");
            }
        }
        assert_eq!(
            Scalar::from_bytes_mod_order(&l_minus_one_squared),
            Scalar::ONE
        );
        let edge_scalars = [
            Scalar::ZERO,
            Scalar::ONE,
            Scalar(L_MINUS_ONE),
            Scalar([MAX, MAX, MAX, (1 << 60) - 1]),
            Scalar([0, 0, 0, 1 << 60]),
        ];
        for a in &edge_scalars {
            for b in &edge_scalars {
                assert_mul_matches_oracle(a, b, &Scalar(L_MINUS_ONE));
            }
        }
    }

    #[test]
    fn recodings_match_oracles_on_edge_values() {
        for s in [
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::from_u64(8),
            Scalar::from_u64(u64::MAX),
            Scalar::from_u128(u128::MAX), // 2^128 − 1, the largest z
            Scalar::from_u128(7 << 125),  // a top window with no carry room below
            Scalar::from_u128(0x8888_8888_8888_8888_8888_8888_8888_8888),
            Scalar(L_MINUS_ONE),
            Scalar([u64::MAX, u64::MAX, u64::MAX, (1 << 60) - 1]),
            Scalar([0, 0, 0, 1 << 60]),
        ] {
            assert_recodings_match_oracles(&s);
        }
        // A 128-bit coefficient's digits stay at or below index 128.
        let naf = Scalar::from_u128(u128::MAX).non_adjacent_form4();
        assert!(naf[129..].iter().all(|&d| d == 0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]
        #[test]
        fn reduction_matches_long_division(
            bytes in proptest::prop::collection::vec(proptest::any::<u8>(), 0..=64usize),
        ) {
            assert_eq!(Scalar::from_bytes_mod_order(&bytes).0, reduce_bytes(&bytes));
        }

        #[test]
        fn mul_and_muladd_match_long_division(
            a in proptest::prop::array::uniform32(proptest::any::<u8>()),
            b in proptest::prop::array::uniform32(proptest::any::<u8>()),
            c in proptest::prop::array::uniform32(proptest::any::<u8>()),
        ) {
            let [a, b, c] = [a, b, c].map(|bytes| Scalar(reduce_bytes(&bytes)));
            assert_mul_matches_oracle(&a, &b, &c);
        }

        #[test]
        fn recodings_match_oracles(
            bytes in proptest::prop::array::uniform32(proptest::any::<u8>()),
            z in (proptest::any::<u64>(), proptest::any::<u64>()),
        ) {
            assert_recodings_match_oracles(&Scalar(reduce_bytes(&bytes)));
            assert_recodings_match_oracles(&Scalar::from_u128((z.0 as u128) << 64 | z.1 as u128));
        }
    }

    #[test]
    fn wide_reduction_matches_iterated_add() {
        // 2^256 mod l computed two ways.
        let mut bytes33 = [0u8; 64];
        bytes33[32] = 1; // 2^256
        let direct = Scalar::from_bytes_mod_order(&bytes33);
        // 2^256 = (2^128)^2
        let mut b128 = [0u8; 32];
        b128[16] = 1;
        let two128 = Scalar::from_bytes_mod_order(&b128);
        assert_eq!(direct, two128.mul(&two128));
    }
}
