//! Arithmetic modulo ℓ = 2^252 + 27742317777372353535851937790883648493,
//! the prime order of the edwards25519 base-point subgroup.

/// ℓ as four little-endian 64-bit limbs.
const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
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

/// Reduces an arbitrary little-endian byte string modulo ℓ by binary long
/// division. Input may be up to 64 bytes (SHA-512 output).
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
            debug_assert_eq!(carry, 0);
            if geq(&rem, &L) {
                sub_in_place(&mut rem, &L);
            }
        }
    }
    rem
}

impl Scalar {
    /// The scalar 0.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The scalar 1.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Reduces up to 64 little-endian bytes modulo ℓ.
    pub fn from_bytes_mod_order(bytes: &[u8]) -> Scalar {
        Scalar(reduce_bytes(bytes))
    }

    /// Parses 32 bytes, returning `None` if the value is not already
    /// canonical (< ℓ). Used to validate the `s` part of signatures per
    /// RFC 8032 §5.1.7.
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut v = [0u8; 8];
            v.copy_from_slice(&bytes[8 * i..8 * i + 8]);
            limbs[i] = u64::from_le_bytes(v);
        }
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
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let acc = wide[i + j] as u128 + self.0[i] as u128 * rhs.0[j] as u128 + carry;
                wide[i + j] = acc as u64;
                carry = acc >> 64;
            }
            wide[i + 4] = carry as u64;
        }
        let mut bytes = [0u8; 64];
        for i in 0..8 {
            bytes[8 * i..8 * i + 8].copy_from_slice(&wide[i].to_le_bytes());
        }
        Scalar(reduce_bytes(&bytes))
    }

    /// Computes `self * b + c mod ℓ` (the `sc_muladd` of RFC 8032 signing).
    pub fn muladd(&self, b: &Scalar, c: &Scalar) -> Scalar {
        self.mul(b).add(c)
    }

    /// Recodes into 64 signed radix-16 digits, each in `[-8, 8]`, with
    /// `self = Σ digits[i]·16^i`. Drives the fixed-window table
    /// multiplications of the Ed25519 fast path. Valid for canonical
    /// scalars (< ℓ < 2^253), whose top nibble leaves room for the final
    /// carry.
    pub fn to_radix16(&self) -> [i8; 64] {
        let bytes = self.to_bytes();
        let mut e = [0i8; 64];
        for i in 0..32 {
            e[2 * i] = (bytes[i] & 15) as i8;
            e[2 * i + 1] = (bytes[i] >> 4) as i8;
        }
        // Center each digit into [-8, 7], pushing the excess upward.
        let mut carry = 0i8;
        for d in e.iter_mut().take(63) {
            *d += carry;
            carry = (*d + 8) >> 4;
            *d -= carry << 4;
        }
        e[63] += carry; // ≤ 8 for canonical scalars
        e
    }

    /// Width-4 non-adjacent form: 256 digits in `{0, ±1, ±3, ±5, ±7}`
    /// with `self = Σ digits[i]·2^i` and any two non-zero digits at
    /// least 4 positions apart. Drives the sliding-window scalar
    /// multiplications (average one addition per 5 doublings).
    pub fn non_adjacent_form4(&self) -> [i8; 256] {
        let mut naf = [0i8; 256];
        let mut limbs = [self.0[0], self.0[1], self.0[2], self.0[3], 0u64];
        let mut pos = 0usize;
        while limbs != [0; 5] {
            if limbs[0] & 1 == 1 {
                // Centered remainder mod 16 in (-8, 8].
                let mut d = (limbs[0] & 15) as i8;
                if d > 8 {
                    d -= 16;
                }
                naf[pos] = d;
                // Subtract the digit (adding 16 − d when d is negative,
                // which ripples a borrow-free carry).
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
            // Shift right by one bit.
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
