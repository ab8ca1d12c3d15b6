//! Arithmetic in GF(2^255 − 19), the field underlying Curve25519 and
//! edwards25519, using the 51-bit-limb ("donna") representation.
//!
//! This implementation favours clarity and testability over side-channel
//! hardening: scalar multiplications built on it are not constant-time.
//! That trade-off is documented at the crate root.

const MASK: u64 = (1 << 51) - 1;

/// An element of GF(2^255 − 19) as five 51-bit limbs, little-endian.
///
/// Limbs may temporarily exceed 51 bits between reductions; all public
/// operations return weakly reduced values (each limb below 2^52) and
/// [`Fe::to_bytes`] performs the final canonical reduction.
#[derive(Clone, Copy)]
pub struct Fe(pub(crate) [u64; 5]);

impl std::fmt::Debug for Fe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fe({})", crate::hex::encode(&self.to_bytes()))
    }
}

impl PartialEq for Fe {
    fn eq(&self, other: &Self) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl Eq for Fe {}

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0, 0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Parses 32 little-endian bytes, ignoring the top bit (per RFC 7748).
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |b: &[u8]| -> u64 {
            let mut v = [0u8; 8];
            v.copy_from_slice(&b[..8]);
            u64::from_le_bytes(v)
        };
        let t0 = load(&bytes[0..8]) & MASK;
        let t1 = (load(&bytes[6..14]) >> 3) & MASK;
        let t2 = (load(&bytes[12..20]) >> 6) & MASK;
        let t3 = (load(&bytes[19..27]) >> 1) & MASK;
        let t4 = (load(&bytes[24..32]) >> 12) & MASK;
        Fe([t0, t1, t2, t3, t4])
    }

    /// Constructs a field element from a small integer.
    pub fn from_u64(v: u64) -> Fe {
        let mut fe = Fe::ZERO;
        fe.0[0] = v & MASK;
        fe.0[1] = v >> 51;
        fe
    }

    fn weak_reduce(mut t: [u64; 5]) -> [u64; 5] {
        let mut c;
        c = t[0] >> 51;
        t[0] &= MASK;
        t[1] += c;
        c = t[1] >> 51;
        t[1] &= MASK;
        t[2] += c;
        c = t[2] >> 51;
        t[2] &= MASK;
        t[3] += c;
        c = t[3] >> 51;
        t[3] &= MASK;
        t[4] += c;
        c = t[4] >> 51;
        t[4] &= MASK;
        t[0] += c * 19;
        t
    }

    /// Serializes to the canonical 32-byte little-endian encoding
    /// (fully reduced below 2^255 − 19).
    pub fn to_bytes(self) -> [u8; 32] {
        let mut t = Self::weak_reduce(Self::weak_reduce(Self::weak_reduce(self.0)));
        // After three weak reductions every limb above 0 is < 2^51 and limb 0
        // is < 2^51 + 19·4, so at most two subtractions of p are needed.
        const P0: u64 = MASK - 18; // 2^51 - 19
        for _ in 0..2 {
            let ge = t[1] == MASK && t[2] == MASK && t[3] == MASK && t[4] == MASK && t[0] >= P0;
            if ge {
                t[0] -= P0;
                t[1] = 0;
                t[2] = 0;
                t[3] = 0;
                t[4] = 0;
            }
        }
        let mut out = [0u8; 32];
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0usize;
        for limb in t.iter() {
            acc |= (*limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 {
                out[idx] = (acc & 0xff) as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
                if idx == 32 {
                    return out;
                }
            }
        }
        while idx < 32 {
            out[idx] = (acc & 0xff) as u8;
            acc >>= 8;
            idx += 1;
        }
        out
    }

    /// Field addition.
    pub fn add(&self, rhs: &Fe) -> Fe {
        let mut t = [0u64; 5];
        for (i, limb) in t.iter_mut().enumerate() {
            *limb = self.0[i] + rhs.0[i];
        }
        Fe(Self::weak_reduce(t))
    }

    /// Field subtraction (adds 2p before subtracting to avoid underflow).
    pub fn sub(&self, rhs: &Fe) -> Fe {
        // 2p in 51-bit limbs.
        const TWO_P: [u64; 5] = [
            0xfffffffffffda,
            0xffffffffffffe,
            0xffffffffffffe,
            0xffffffffffffe,
            0xffffffffffffe,
        ];
        let mut t = [0u64; 5];
        for i in 0..5 {
            t[i] = self.0[i] + TWO_P[i] - rhs.0[i];
        }
        Fe(Self::weak_reduce(t))
    }

    /// Field negation.
    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Field multiplication.
    pub fn mul(&self, rhs: &Fe) -> Fe {
        let f = self.0.map(|x| x as u128);
        let g = rhs.0.map(|x| x as u128);
        let g19: [u128; 5] = [g[0], g[1] * 19, g[2] * 19, g[3] * 19, g[4] * 19];

        let r0 = f[0] * g[0] + f[1] * g19[4] + f[2] * g19[3] + f[3] * g19[2] + f[4] * g19[1];
        let r1 = f[0] * g[1] + f[1] * g[0] + f[2] * g19[4] + f[3] * g19[3] + f[4] * g19[2];
        let r2 = f[0] * g[2] + f[1] * g[1] + f[2] * g[0] + f[3] * g19[4] + f[4] * g19[3];
        let r3 = f[0] * g[3] + f[1] * g[2] + f[2] * g[1] + f[3] * g[0] + f[4] * g19[4];
        let r4 = f[0] * g[4] + f[1] * g[3] + f[2] * g[2] + f[3] * g[1] + f[4] * g[0];

        Self::carry_wide([r0, r1, r2, r3, r4])
    }

    /// Field squaring: the 25 limb products of [`Fe::mul`] folded into
    /// the 15 distinct ones (each cross term once, doubled).
    ///
    /// The doubling and the `·19` wrap are applied to one operand in
    /// `u64` first — a limb below 2^52 times 38 stays below 2^58 — so
    /// every product is a single 64×64→128 multiplication and each sum
    /// has the bound of the matching `mul` row (< 2^111).
    pub fn square(&self) -> Fe {
        let [a0, a1, a2, a3, a4] = self.0;
        let m = |x: u64, y: u64| x as u128 * y as u128;
        let (d0, d1) = (2 * a0, 2 * a1);
        let (a3_19, a4_19) = (19 * a3, 19 * a4);
        let (d2_19, d4_19) = (38 * a2, 38 * a4);

        let r0 = m(a0, a0) + m(d4_19, a1) + m(d2_19, a3);
        let r1 = m(d0, a1) + m(d4_19, a2) + m(a3_19, a3);
        let r2 = m(d0, a2) + m(a1, a1) + m(d4_19, a3);
        let r3 = m(d0, a3) + m(d1, a2) + m(a4_19, a4);
        let r4 = m(d0, a4) + m(d1, a3) + m(a2, a2);

        Self::carry_wide([r0, r1, r2, r3, r4])
    }

    /// Multiplication by a small scalar (fits in 32 bits).
    pub fn mul_small(&self, n: u32) -> Fe {
        let n = n as u128;
        let f = self.0.map(|x| x as u128);
        Self::carry_wide([f[0] * n, f[1] * n, f[2] * n, f[3] * n, f[4] * n])
    }

    fn carry_wide(mut r: [u128; 5]) -> Fe {
        let mut t = [0u64; 5];
        let mut c: u128 = 0;
        for i in 0..5 {
            r[i] += c;
            t[i] = (r[i] as u64) & MASK;
            c = r[i] >> 51;
        }
        let mut t0 = t[0] + (c as u64) * 19;
        let c2 = t0 >> 51;
        t0 &= MASK;
        t[0] = t0;
        t[1] += c2;
        Fe(t)
    }

    /// Raises to the power encoded as 32 little-endian bytes (256-bit
    /// exponent), by square-and-multiply from the most significant bit.
    pub fn pow_le(&self, exp: &[u8; 32]) -> Fe {
        let mut r = Fe::ONE;
        let mut started = false;
        for bit in (0..256).rev() {
            if started {
                r = r.square();
            }
            if (exp[bit / 8] >> (bit % 8)) & 1 == 1 {
                if started {
                    r = r.mul(self);
                } else {
                    r = *self;
                    started = true;
                }
            }
        }
        if started {
            r
        } else {
            Fe::ONE
        }
    }

    /// `self^(2^n)` by `n` squarings.
    fn sq_n(&self, n: u32) -> Fe {
        let mut r = *self;
        for _ in 0..n {
            r = r.square();
        }
        r
    }

    /// `self^(2^250 − 1)` and `self^11`, the shared prefix of the
    /// inversion and square-root addition chains (11 multiplications
    /// instead of the ~250 a naive square-and-multiply ladder spends).
    fn pow_chain_core(&self) -> (Fe, Fe) {
        let z2 = self.square();
        let z9 = z2.sq_n(2).mul(self);
        let z11 = z9.mul(&z2);
        let z_5_0 = z11.square().mul(&z9); // 2^5 − 1
        let z_10_0 = z_5_0.sq_n(5).mul(&z_5_0); // 2^10 − 1
        let z_20_0 = z_10_0.sq_n(10).mul(&z_10_0); // 2^20 − 1
        let z_40_0 = z_20_0.sq_n(20).mul(&z_20_0); // 2^40 − 1
        let z_50_0 = z_40_0.sq_n(10).mul(&z_10_0); // 2^50 − 1
        let z_100_0 = z_50_0.sq_n(50).mul(&z_50_0); // 2^100 − 1
        let z_200_0 = z_100_0.sq_n(100).mul(&z_100_0); // 2^200 − 1
        let z_250_0 = z_200_0.sq_n(50).mul(&z_50_0); // 2^250 − 1
        (z_250_0, z11)
    }

    /// Multiplicative inverse via Fermat's little theorem (x^(p−2)),
    /// computed with the standard curve25519 addition chain.
    ///
    /// Returns zero for a zero input (there is no inverse of zero).
    pub fn invert(&self) -> Fe {
        // p − 2 = 2^255 − 21 = (2^250 − 1)·2^5 + 11.
        let (z_250_0, z11) = self.pow_chain_core();
        z_250_0.sq_n(5).mul(&z11)
    }

    /// Raises to (p + 3) / 8 = 2^252 − 2; used for square roots.
    pub fn pow_p38(&self) -> Fe {
        // 2^252 − 2 = (2^250 − 1)·2^2 + 2.
        let (z_250_0, _) = self.pow_chain_core();
        z_250_0.sq_n(2).mul(self).mul(self)
    }

    /// Raises to (p − 5) / 8 = 2^252 − 3; with it point decompression
    /// takes its square root of a ratio in one exponentiation
    /// (`u·v³·(u·v⁷)^((p−5)/8)`) instead of an inversion plus one.
    pub fn pow_p58(&self) -> Fe {
        // 2^252 − 3 = (2^250 − 1)·2^2 + 1.
        let (z_250_0, _) = self.pow_chain_core();
        z_250_0.sq_n(2).mul(self)
    }

    /// True if the canonical encoding is odd (the "sign" bit of RFC 8032).
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// True if this is the additive identity.
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Swaps `a` and `b` when `swap` is true (data-dependent branch; see
    /// the crate-level note on side channels).
    pub fn cswap(swap: bool, a: &mut Fe, b: &mut Fe) {
        if swap {
            std::mem::swap(a, b);
        }
    }
}

/// sqrt(−1) in GF(2^255 − 19), used by point decompression.
pub fn sqrt_m1() -> Fe {
    const BYTES: [u8; 32] = [
        0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4, 0x78, 0xe4, 0x2f, 0xad, 0x06, 0x18, 0x43,
        0x2f, 0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00, 0x4d, 0x2b, 0x0b, 0xdf, 0xc1, 0x4f, 0x80, 0x24,
        0x83, 0x2b,
    ];
    Fe::from_bytes(&BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(n: u64) -> Fe {
        Fe::from_u64(n)
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = fe(1234567);
        let b = fe(7654321);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.sub(&a), Fe::ZERO);
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(fe(6).mul(&fe(7)), fe(42));
        assert_eq!(fe(5).square(), fe(25));
        assert_eq!(fe(1_000_000).mul_small(1_000), fe(1_000_000_000));
    }

    #[test]
    fn negative_wraps() {
        // -1 ≡ p - 1, whose low byte is 0xec.
        let minus_one = Fe::ZERO.sub(&Fe::ONE);
        let b = minus_one.to_bytes();
        assert_eq!(b[0], 0xec);
        assert_eq!(b[31], 0x7f);
        assert_eq!(minus_one.add(&Fe::ONE), Fe::ZERO);
    }

    #[test]
    fn inverse() {
        let a = fe(987654321);
        let inv = a.invert();
        assert_eq!(a.mul(&inv), Fe::ONE);
        assert_eq!(Fe::ZERO.invert(), Fe::ZERO);
    }

    #[test]
    fn nineteen_reduces_to_canonical() {
        // p + 1 should encode the same as 1.
        let p_plus_one = {
            // p = 2^255 - 19, so p + 1 = 2^255 - 18; build via limbs.
            let mut t = Fe([MASK - 17, MASK, MASK, MASK, MASK]);
            t.0[0] += 0; // keep representation
            t
        };
        assert_eq!(p_plus_one.to_bytes(), Fe::ONE.to_bytes());
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = sqrt_m1();
        let minus_one = Fe::ZERO.sub(&Fe::ONE);
        assert_eq!(i.square(), minus_one);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut bytes = [0u8; 32];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        bytes[31] &= 0x7f;
        let a = Fe::from_bytes(&bytes);
        // A value below p round-trips exactly (this one is: top byte < 0x7f
        // guarantees below 2^255 - 19 except astronomically unlikely edge).
        assert_eq!(Fe::from_bytes(&a.to_bytes()), a);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let a = fe(3);
        let mut exp = [0u8; 32];
        exp[0] = 13;
        let expected = fe(3u64.pow(13));
        assert_eq!(a.pow_le(&exp), expected);
    }

    #[test]
    fn addition_chain_matches_ladder() {
        // The invert/pow_p38/pow_p58 addition chains must agree with the
        // naive square-and-multiply oracle `pow_le` on the same exponents.
        let mut inv_exp = [0xffu8; 32]; // p − 2 = 2^255 − 21
        inv_exp[0] = 0xeb;
        inv_exp[31] = 0x7f;
        let mut p38_exp = [0xffu8; 32]; // (p + 3)/8 = 2^252 − 2
        p38_exp[0] = 0xfe;
        p38_exp[31] = 0x0f;
        let mut p58_exp = p38_exp; // (p − 5)/8 = 2^252 − 3
        p58_exp[0] = 0xfd;
        for seed in [1u64, 2, 19, 987654321, u64::MAX] {
            let a = fe(seed).add(&fe(3).mul(&fe(seed).square()));
            assert_eq!(a.invert(), a.pow_le(&inv_exp));
            assert_eq!(a.pow_p38(), a.pow_le(&p38_exp));
            assert_eq!(a.pow_p58(), a.pow_le(&p58_exp));
        }
    }

    /// The dedicated squaring against the general multiplication, limb
    /// for limb: both end in the same `carry_wide` over equal column
    /// sums, so not only the field element but its representation agrees.
    fn assert_square_is_mul(x: Fe) {
        assert_eq!(x.square().0, x.mul(&x).0, "limbs {:?}", x.0);
    }

    #[test]
    fn square_matches_mul_on_edge_values() {
        const TOP: u64 = (1 << 52) - 1; // the documented public limb bound
        let p_minus_one = Fe([MASK - 19, MASK, MASK, MASK, MASK]); // 2^255 − 20
        let p = Fe([MASK - 18, MASK, MASK, MASK, MASK]); // zero, unreduced
        assert_eq!(p_minus_one, Fe::ZERO.sub(&Fe::ONE));
        assert_eq!(p, Fe::ZERO);
        for x in [
            Fe::ZERO,
            Fe::ONE,
            p_minus_one,
            p,
            Fe([MASK; 5]), // 2^255 − 1 ≡ 18, unreduced
            Fe([TOP; 5]),  // every limb at the bound
            Fe([TOP, 0, TOP, 0, TOP]),
            Fe([0, TOP, 0, TOP, 0]),
        ] {
            assert_square_is_mul(x);
        }
        assert_eq!(p_minus_one.square(), Fe::ONE);
        assert_eq!(p.square(), Fe::ZERO);
        assert_eq!(Fe([MASK; 5]).square(), fe(18 * 18));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]
        #[test]
        fn square_matches_mul_on_unreduced_limbs(
            limbs in (0u64..1 << 52, 0u64..1 << 52, 0u64..1 << 52, 0u64..1 << 52, 0u64..1 << 52),
            pinned in 0u8..32,
        ) {
            // Limbs anywhere below the public bound, a random subset of
            // them pinned to it (where the carries are longest).
            let mut x = Fe([limbs.0, limbs.1, limbs.2, limbs.3, limbs.4]);
            for (i, limb) in x.0.iter_mut().enumerate() {
                if pinned >> i & 1 == 1 {
                    *limb = (1 << 52) - 1;
                }
            }
            assert_square_is_mul(x);
        }
    }

    #[test]
    fn distributivity() {
        let a = fe(111111);
        let b = fe(222222);
        let c = fe(333333);
        assert_eq!(a.add(&b).mul(&c), a.mul(&c).add(&b.mul(&c)));
    }
}
