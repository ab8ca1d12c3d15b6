//! Arithmetic in GF(2^255 − 19), the field underlying Curve25519 and
//! edwards25519, using the 51-bit-limb ("donna") representation.
//!
//! This implementation favours clarity and testability over side-channel
//! hardening: scalar multiplications built on it are not constant-time.
//! That trade-off is documented at the crate root.
//!
//! ## The limb-bound contract
//!
//! An element is five `u64` limbs, `Σ limb[i]·2^(51·i)`, and a limb may
//! run past 51 bits. Two sizes matter: **reduced** — every limb below
//! 2^52 — and **lazy** — every limb below 2^53, what adding two
//! reduced elements without carrying gives. Additions feed
//! multiplications almost everywhere (eight of them per point
//! addition), and a multiplication carries anyway, so [`Fe::add`] does
//! not.
//!
//! | operation | accepts | returns | carries |
//! |---|---|---|---|
//! | [`Fe::from_bytes`], [`Fe::from_u64`] | — | limbs < 2^51 | — |
//! | [`Fe::add`] | two elements whose limb sums stay below 2^53 (any two reduced ones) | lazy | no |
//! | [`Fe::sub`], [`Fe::neg`] | lazy | reduced: limb 0 < 2^51 + 2^9, the rest < 2^51 | once (after a 16p bias) |
//! | [`Fe::mul`], [`Fe::square`], [`Fe::mul_small`] | lazy | reduced: limb 1 < 2^51 + 2^16, the rest < 2^51 | once, from `u128` columns |
//! | [`Fe::invert`], `pow_*` | lazy | reduced | (chains of the above) |
//! | [`Fe::to_bytes`], `==`, [`Fe::is_zero`], [`Fe::is_negative`] | lazy | canonical bytes | fully |
//!
//! So: the sum of two reduced elements may go straight into any other
//! operation, but not into a second `add` — put a `sub`, `mul`,
//! `square` or `mul_small` (each returns a reduced element) in between.
//! Every entry that relies on a bound `debug_assert!`s it, so a debug
//! build trips on a violation instead of wrapping; the callers are the
//! X25519 ladder and the point formulas of [`crate::ed25519`], whose
//! coordinates are always products, differences or parsed bytes.
//!
//! Why the bounds are safe: with limbs below 2^53, `19·g` fits `u64`
//! (< 2^58), each of the 25 products of a multiplication is one
//! 64×64→128 multiply below 2^111 and a column of five sums below
//! 2^113; the carry out of the top column is then below 2^62, so its
//! `·19` fold is done in `u128` — in `u64` it would wrap.

const MASK: u64 = (1 << 51) - 1;

/// Limbs of a lazy element (the widest any operation accepts) stay
/// below `2^LAZY_BITS`.
const LAZY_BITS: u32 = 53;

/// An element of GF(2^255 − 19) as five 51-bit limbs, little-endian.
///
/// Limbs may temporarily exceed 51 bits between reductions: every
/// public operation except [`Fe::add`] returns weakly reduced values
/// (each limb below 2^52), `add` returns the uncarried sum (below 2^53;
/// module header), and [`Fe::to_bytes`] performs the final canonical
/// reduction.
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

    /// The entry check of the limb-bound contract (module header).
    #[inline(always)]
    fn debug_assert_lazy(&self, what: &str) {
        debug_assert!(
            self.0.iter().all(|&limb| limb < 1 << LAZY_BITS),
            "{what}: limbs {:x?} exceed 2^{LAZY_BITS}",
            self.0
        );
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
        self.debug_assert_lazy("to_bytes operand");
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

    /// Field addition, without a carry: the sum of two reduced elements
    /// is lazy (module header), ready for any operation but another
    /// `add`.
    pub fn add(&self, rhs: &Fe) -> Fe {
        let mut t = self.0;
        for (limb, r) in t.iter_mut().zip(rhs.0) {
            *limb += r;
        }
        let sum = Fe(t);
        sum.debug_assert_lazy("add result (carry an operand first)");
        sum
    }

    /// Field subtraction: adds 16p before subtracting, so that no limb
    /// of a lazy `rhs` can underflow, then carries once.
    pub fn sub(&self, rhs: &Fe) -> Fe {
        // 16p in 51-bit limbs: each at least 2^55 − 304.
        const P16: [u64; 5] = [
            0x7ffffffffffed0,
            0x7ffffffffffff0,
            0x7ffffffffffff0,
            0x7ffffffffffff0,
            0x7ffffffffffff0,
        ];
        self.debug_assert_lazy("sub minuend");
        rhs.debug_assert_lazy("sub subtrahend");
        let mut t = [0u64; 5];
        for i in 0..5 {
            t[i] = self.0[i] + P16[i] - rhs.0[i];
        }
        Fe(Self::weak_reduce(t))
    }

    /// Field negation.
    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Field multiplication.
    ///
    /// The `·19` wrap is applied to `rhs`'s limbs in `u64` first — a
    /// lazy limb times 19 stays below 2^58 — so each of the 25 products
    /// is a single 64×64→128 multiplication.
    pub fn mul(&self, rhs: &Fe) -> Fe {
        self.debug_assert_lazy("mul operand");
        rhs.debug_assert_lazy("mul operand");
        let (f, g) = (self.0, rhs.0);
        let m = |x: u64, y: u64| x as u128 * y as u128;
        let (g1_19, g2_19, g3_19, g4_19) = (19 * g[1], 19 * g[2], 19 * g[3], 19 * g[4]);

        let r0 = m(f[0], g[0]) + m(f[1], g4_19) + m(f[2], g3_19) + m(f[3], g2_19) + m(f[4], g1_19);
        let r1 = m(f[0], g[1]) + m(f[1], g[0]) + m(f[2], g4_19) + m(f[3], g3_19) + m(f[4], g2_19);
        let r2 = m(f[0], g[2]) + m(f[1], g[1]) + m(f[2], g[0]) + m(f[3], g4_19) + m(f[4], g3_19);
        let r3 = m(f[0], g[3]) + m(f[1], g[2]) + m(f[2], g[1]) + m(f[3], g[0]) + m(f[4], g4_19);
        let r4 = m(f[0], g[4]) + m(f[1], g[3]) + m(f[2], g[2]) + m(f[3], g[1]) + m(f[4], g[0]);

        Self::carry_wide([r0, r1, r2, r3, r4])
    }

    /// Field squaring: the 25 limb products of [`Fe::mul`] folded into
    /// the 15 distinct ones (each cross term once, doubled).
    ///
    /// The doubling and the `·19` wrap are applied to one operand in
    /// `u64` first — a lazy limb times 38 stays below 2^59 — so every
    /// product is a single 64×64→128 multiplication and each sum has
    /// the bound of the matching `mul` row (< 2^113).
    pub fn square(&self) -> Fe {
        self.debug_assert_lazy("square operand");
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
        self.debug_assert_lazy("mul_small operand");
        let n = n as u128;
        let f = self.0.map(|x| x as u128);
        Self::carry_wide([f[0] * n, f[1] * n, f[2] * n, f[3] * n, f[4] * n])
    }

    /// Carries five column sums (each below 2^113) into a reduced
    /// element: limb 1 ends below 2^51 + 2^16, the rest below 2^51.
    fn carry_wide(mut r: [u128; 5]) -> Fe {
        let mut t = [0u64; 5];
        let mut c: u128 = 0;
        for i in 0..5 {
            r[i] += c;
            t[i] = (r[i] as u64) & MASK;
            c = r[i] >> 51;
        }
        // c < 2^62 for lazy operands: c·19 does not fit 64 bits.
        let t0 = t[0] as u128 + c * 19;
        t[0] = (t0 as u64) & MASK;
        t[1] += (t0 >> 51) as u64;
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

    /// The arithmetic this module shipped with before additions went
    /// lazy, made indifferent to its operands' limb sizes: every
    /// operation carries its inputs first and its result after, and
    /// every product is widened to `u128` before the `·19` fold.
    #[derive(Clone, Copy)]
    struct RefFe([u64; 5]);

    impl RefFe {
        fn carried(t: [u64; 5]) -> [u64; 5] {
            let mut t = t;
            for _ in 0..2 {
                let mut c = 0;
                for limb in t.iter_mut() {
                    *limb += c;
                    c = *limb >> 51;
                    *limb &= MASK;
                }
                t[0] += c * 19;
            }
            t
        }

        fn of(x: &Fe) -> RefFe {
            RefFe(Self::carried(x.0))
        }

        fn add(&self, rhs: &RefFe) -> RefFe {
            RefFe(Self::carried(std::array::from_fn(|i| self.0[i] + rhs.0[i])))
        }

        fn sub(&self, rhs: &RefFe) -> RefFe {
            // 4p: above any carried limb.
            RefFe(Self::carried(std::array::from_fn(|i| {
                let four_p = if i == 0 { 4 * (MASK - 18) } else { 4 * MASK };
                self.0[i] + four_p - rhs.0[i]
            })))
        }

        fn neg(&self) -> RefFe {
            RefFe([0; 5]).sub(self)
        }

        fn mul(&self, rhs: &RefFe) -> RefFe {
            let (f, g) = (self.0.map(u128::from), rhs.0.map(u128::from));
            let mut r = [0u128; 5];
            for i in 0..5 {
                for j in 0..5 {
                    let wrap = if i + j >= 5 { 19 } else { 1 };
                    r[(i + j) % 5] += f[i] * g[j] * wrap;
                }
            }
            Self::carried_wide(r)
        }

        fn mul_small(&self, n: u32) -> RefFe {
            Self::carried_wide(self.0.map(|limb| limb as u128 * n as u128))
        }

        fn carried_wide(mut r: [u128; 5]) -> RefFe {
            for _ in 0..2 {
                let mut c = 0u128;
                for limb in r.iter_mut() {
                    *limb += c;
                    c = *limb >> 51;
                    *limb &= MASK as u128;
                }
                r[0] += c * 19;
            }
            RefFe(Self::carried(r.map(|limb| limb as u64)))
        }

        fn to_bytes(self) -> [u8; 32] {
            // Canonical: subtract p while the value is at least p.
            let mut t = Self::carried(self.0);
            while t[1..].iter().all(|&limb| limb == MASK) && t[0] >= MASK - 18 {
                t = [t[0] - (MASK - 18), 0, 0, 0, 0];
            }
            let mut out = [0u8; 32];
            for (i, limb) in t.iter().enumerate() {
                for bit in 0..51 {
                    let at = 51 * i + bit;
                    out[at / 8] |= ((limb >> bit & 1) as u8) << (at % 8);
                }
            }
            out
        }
    }

    /// Limbs uniformly below `2^bits`, a random subset pinned to the
    /// bound itself (where carries run longest and sums come closest
    /// to wrapping).
    fn pinned(limbs: (u64, u64, u64, u64, u64), pins: u8, bits: u32) -> Fe {
        let mut x = Fe([limbs.0, limbs.1, limbs.2, limbs.3, limbs.4]);
        for (i, limb) in x.0.iter_mut().enumerate() {
            *limb &= (1 << bits) - 1;
            if pins >> i & 1 == 1 {
                *limb = (1 << bits) - 1;
            }
        }
        x
    }

    fn five_limbs() -> impl proptest::Strategy<Value = (u64, u64, u64, u64, u64)> {
        use proptest::any;
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        )
    }

    /// What the contract in the module header calls *reduced*: a limb
    /// below 2^52 (*lazy* is `LAZY_BITS`).
    const REDUCED: u32 = 52;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]
        #[test]
        fn lazy_chains_match_the_always_carrying_reference(
            a in five_limbs(),
            b in five_limbs(),
            c in five_limbs(),
            d in five_limbs(),
            pins in proptest::any::<u32>(),
            n in proptest::any::<u32>(),
        ) {
            let [a, b, c, d] = [(a, 0), (b, 5), (c, 10), (d, 15)].map(|(limbs, shift)| {
                pinned(limbs, (pins >> shift) as u8, REDUCED)
            });
            let [ra, rb, rc, rd] = [a, b, c, d].map(|x| RefFe::of(&x));
            // One lazy sum feeding each consumer the contract allows.
            let (ab, cd) = (a.add(&b), c.add(&d));
            let (rab, rcd) = (ra.add(&rb), rc.add(&rd));
            assert_eq!(ab.mul(&cd).to_bytes(), rab.mul(&rcd).to_bytes());
            assert_eq!(ab.sub(&cd).square().to_bytes(), rab.sub(&rcd).mul(&rab.sub(&rcd)).to_bytes());
            assert_eq!(ab.neg().to_bytes(), rab.neg().to_bytes());
            assert_eq!(cd.mul_small(n).to_bytes(), rcd.mul_small(n).to_bytes());
            assert_eq!(ab.to_bytes(), rab.to_bytes());
            // A difference (reduced) may be added once more.
            assert_eq!(
                a.sub(&cd).add(&b).square().to_bytes(),
                ra.sub(&rcd).add(&rb).mul(&ra.sub(&rcd).add(&rb)).to_bytes()
            );
        }

        #[test]
        fn every_consumer_accepts_limbs_at_the_lazy_bound(
            a in five_limbs(),
            b in five_limbs(),
            pins in proptest::any::<u16>(),
            n in proptest::any::<u32>(),
        ) {
            let a = pinned(a, pins as u8, LAZY_BITS);
            let b = pinned(b, (pins >> 5) as u8, LAZY_BITS);
            let (ra, rb) = (RefFe::of(&a), RefFe::of(&b));
            assert_eq!(a.mul(&b).to_bytes(), ra.mul(&rb).to_bytes());
            assert_eq!(a.square().to_bytes(), ra.mul(&ra).to_bytes());
            assert_eq!(a.mul_small(n).to_bytes(), ra.mul_small(n).to_bytes());
            assert_eq!(a.to_bytes(), ra.to_bytes());
            assert_eq!(a.sub(&b).to_bytes(), ra.sub(&rb).to_bytes());
            assert_eq!(b.neg().to_bytes(), rb.neg().to_bytes());
            // Results are reduced again, whatever came in.
            for out in [a.mul(&b), a.square(), a.mul_small(n), a.sub(&b), b.neg()] {
                assert!(out.0.iter().all(|&limb| limb < 1 << REDUCED), "{:?}", out.0);
            }
            assert_square_is_mul(a);
        }
    }

    #[test]
    fn reference_field_is_sound_on_known_values() {
        // The reference itself, pinned to facts older than both
        // implementations: 2^255 − 19 encodes as zero, −1 as 2^255 − 20,
        // and its product agrees with the squaring of the same value
        // re-parsed from canonical bytes.
        let top = RefFe([(1 << LAZY_BITS) - 1; 5]);
        let as_fe = Fe::from_bytes(&top.to_bytes());
        assert_eq!(top.mul(&top).to_bytes(), as_fe.square().to_bytes());
        assert_eq!(
            RefFe([MASK - 18, MASK, MASK, MASK, MASK]).to_bytes(),
            [0u8; 32]
        );
        let mut minus_one = [0xffu8; 32];
        (minus_one[0], minus_one[31]) = (0xec, 0x7f);
        assert_eq!(RefFe([1, 0, 0, 0, 0]).neg().to_bytes(), minus_one);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "add result")]
    fn a_second_lazy_add_trips_the_debug_build() {
        let top = Fe([(1 << REDUCED) - 1; 5]);
        let _ = top.add(&top).add(&top);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "mul operand")]
    fn an_oversized_limb_trips_the_debug_build() {
        let _ = Fe([1 << LAZY_BITS, 0, 0, 0, 0]).mul(&Fe::ONE);
    }

    #[test]
    fn distributivity() {
        let a = fe(111111);
        let b = fe(222222);
        let c = fe(333333);
        assert_eq!(a.add(&b).mul(&c), a.mul(&c).add(&b.mul(&c)));
    }
}
