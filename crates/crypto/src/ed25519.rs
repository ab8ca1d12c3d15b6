//! Ed25519 signatures (RFC 8032), built on [`crate::field25519`] and
//! [`crate::scalar`].
//!
//! Implements key generation from a 32-byte seed, deterministic signing,
//! and verification. Not constant-time; see the crate-level side-channel
//! note.
//!
//! ## The acceptance predicate
//!
//! Every verification flavour in this module — [`VerifyingKey::verify`],
//! [`VerifyingKey::verify_without_admission`],
//! [`VerifyingKey::verify_uncached`], [`VerifyingKey::verify_naive`] (the
//! oracle), [`PreparedVerifyingKey::verify`] and [`verify_batch`] —
//! accepts exactly the signatures `(R, s)` that satisfy RFC 8032
//! §5.1.7's primary, *cofactored* equation
//!
//! ```text
//! [8][s]B = [8]R + [8][k]A,    k = SHA-512(R ‖ A ‖ M) mod ℓ
//! ```
//!
//! with `s` canonical (`< ℓ`), `R` a canonical encoding (`y < p`) of a
//! curve point, and `A` decompressible.
//!
//! Why cofactored: a batch is checked as one random linear combination
//! `Σ zᵢ·([sᵢ]B − [kᵢ]Aᵢ − Rᵢ)`, and a combination cannot soundly check
//! the *cofactorless* equation `[s]B = R + [k]A`. A key holder can sign
//! with `R = [r]B + T` for a small-order `T`; the per-signature residue
//! is then `−T`, which the cofactorless check always rejects but which
//! `[zᵢ]` kills whenever `zᵢ` is a multiple of `T`'s order (probability
//! ≥ 1/8). Batch and serial would disagree depending on `z`. Clearing
//! the cofactor on both sides removes every small-order residue, so all
//! flavours agree on every input, whatever `z` is.
//!
//! What changes against the cofactorless check this module used to
//! run: only signatures whose residue `[s]B − [k]A − R` is a non-zero
//! small-order point are now accepted, and producing one needs the
//! secret key (or a small-order public key, which no honest key
//! generation yields). Every honestly produced signature has a zero
//! residue and every RFC 8032 vector verifies as before; forgeries stay
//! forgeries. The serial flavours keep the compress-and-compare test as
//! their accept fast path (`R' = [s]B − [k]A` encodes to `sig.R` ⇒
//! residue zero ⇒ accept), so an honest verification costs what it did.
//!
//! ## Fast paths
//!
//! The original double-and-add routines ([`EdwardsPoint::mul_bytes`],
//! [`VerifyingKey::verify_naive`]) are kept as reference oracles;
//! everything hot runs through precomputation:
//!
//! * [`basepoint_table`] — a lazily built signed radix-2^8 fixed-window
//!   table of the basepoint (32 windows × 128 multiples, 480 KiB),
//!   making `[s]B` a sum of at most 32 additions with **zero**
//!   doublings (half the additions of the radix-16 table it replaced).
//!   Its entries are stored in *affine* Niels form (`Z = 1`: `y+x, y−x,
//!   2d·x·y`), normalised at build with one inversion shared by the
//!   whole table, so each addition is 7 field multiplications instead
//!   of 8. A sum gathers its entries before the first addition, so the
//!   cache misses of a table evicted from L2 overlap instead of each
//!   waiting for the addition before it. Every `[s]B` goes through it:
//!   signing, key generation, the `[s]B` half of every verification
//!   flavour — and, mapped to
//!   Montgomery form, every X25519 public key
//!   ([`crate::x25519::x25519_base`]: both ephemeral keys of a
//!   handshake). At 480 KiB a key it is no per-author table: the
//!   256-entry cache would hold 120 MiB.
//! * [`FixedWindowTable`] — the per-author table: a 4-tooth comb, 16
//!   rows of 8 affine entries (15 KiB), so `[k]A` is at most 64 mixed
//!   additions of 7 multiplications plus 12 doublings (~507
//!   multiplications). It replaced a 64 × 8 projective radix-16 table
//!   (80 KiB, ≤ 64 additions of 8 and no doublings, ~480): a tie per
//!   verification, a fifth of the memory per cached author, and a
//!   cheaper build (112 additions, 195 doublings and one batch
//!   normalisation of 128 entries, ~3 500 multiplications, against 448
//!   additions and 512 conversions, ~4 600), since normalising 128
//!   entries costs a quarter of normalising 512.
//! * [`EdwardsPoint::mul_scalar`] — 4-bit sliding-window (w-NAF)
//!   variable-base multiplication (≈ 51 additions instead of ≈ 128). A
//!   doubling whose result only feeds another doubling skips the
//!   extended coordinate `T`: about 200 of its ≈ 252 doublings, one
//!   field multiplication each.
//! * [`EdwardsPoint::double_scalar_mul_basepoint`] — the one-shot
//!   `[s]B + [k]A` of [`VerifyingKey::verify_uncached`]: a basepoint
//!   table sum plus a w-NAF `[k]A`, where an interleaved Straus chain
//!   spent ≈ 51 additions on the `B` half.
//! * [`PreparedVerifyingKey`] — caches the comb table of `-A`, so
//!   repeat verifications by the same author cost two table sums plus
//!   one addition. A bounded
//!   process-wide cache makes [`VerifyingKey::verify`] hit this path
//!   automatically, and admits by second chance: a hit marks its entry,
//!   and a miss on a *full* cache looks at the oldest entry. A marked
//!   one is unmarked and requeued while the newcomer is checked with
//!   [`VerifyingKey::verify_uncached`] (~63 µs, no table built); an
//!   unmarked one is evicted and the newcomer's table (~120–140 µs)
//!   built and inserted. A key met once therefore costs one one-shot check
//!   instead of a table nobody reuses, while keys that earn hits stay.
//!   [`verify_batch`] always takes tables (its per-author sums need
//!   them), evicting the oldest entry as a plain insert does.
//!   [`VerifyingKey::verify_without_admission`] never builds one: a hit
//!   is used and marked like any other, a miss is checked one-shot and
//!   leaves the cache as it was. So tables are built only where
//!   signatures repeat — bundles (`verify`, `verify_batch`) and
//!   certificates against the CA key — and never for a handshake peer
//!   (sos-net's handshake checks through the read-only flavour): a pair
//!   resumes its next meetings from a ticket, without signatures, so a
//!   peer's key signs once per full handshake.
//! * [`verify_batch`] — one random-linear-combination check for a whole
//!   `SyncMsg::Bundles` frame: a single `[Σzᵢsᵢ]B` table sum, one
//!   `[Σzᵢkᵢ](−A)` table sum per distinct author, and the `[zᵢ](−Rᵢ)`
//!   terms (128-bit `zᵢ`) through one shared Straus/w-NAF chain. A frame
//!   of 40 or more signatures is split into contiguous sub-batches, one
//!   per core, each that same combination on a scoped thread (the first
//!   on the caller's). Every sub-batch decides the one cofactored
//!   predicate above, so the AND of their verdicts is the verdict of the
//!   whole, whatever the split; on one core, or below the threshold, the
//!   path is the single combination.
//!
//! Underneath all of them sits the arithmetic floor: [`Fe::square`] is
//! a dedicated 15-product squaring (point doublings, inversions,
//! decompression and the X25519 ladder are mostly squarings), field
//! additions are lazy — no carry chain between an addition and the
//! multiplication it feeds ([`crate::field25519`] states the limb
//! bounds) — and scalars mod ℓ are reduced and recoded a word at a time
//! ([`crate::scalar`]).

use crate::bounded::FifoMap;
use crate::field25519::{sqrt_m1, Fe};
use crate::scalar::Scalar;
use crate::sha2::Sha512;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Little-endian bytes of the Edwards curve constant
/// d = −121665/121666 mod p.
const D_BYTES: [u8; 32] = [
    0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75, 0xab, 0xd8, 0x41, 0x41, 0x4d, 0x0a, 0x70, 0x00,
    0x98, 0xe8, 0x79, 0x77, 0x79, 0x40, 0xc7, 0x8c, 0x73, 0xfe, 0x6f, 0x2b, 0xee, 0x6c, 0x03, 0x52,
];

/// x-coordinate of the base point B.
const BX_BYTES: [u8; 32] = [
    0x1a, 0xd5, 0x25, 0x8f, 0x60, 0x2d, 0x56, 0xc9, 0xb2, 0xa7, 0x25, 0x95, 0x60, 0xc7, 0x2c, 0x69,
    0x5c, 0xdc, 0xd6, 0xfd, 0x31, 0xe2, 0xa4, 0xc0, 0xfe, 0x53, 0x6e, 0xcd, 0xd3, 0x36, 0x69, 0x21,
];

/// y-coordinate of the base point B (4/5 mod p).
const BY_BYTES: [u8; 32] = [
    0x58, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
    0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
];

fn d() -> Fe {
    Fe::from_bytes(&D_BYTES)
}

fn d2() -> Fe {
    static D2: OnceLock<Fe> = OnceLock::new();
    *D2.get_or_init(|| {
        let d = d();
        d.add(&d)
    })
}

/// A point on edwards25519 in extended homogeneous coordinates
/// (X : Y : Z : T) with x = X/Z, y = Y/Z, x·y = T/Z.
#[derive(Clone, Copy, Debug)]
pub struct EdwardsPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

impl EdwardsPoint {
    /// The neutral element (0, 1).
    pub fn identity() -> EdwardsPoint {
        EdwardsPoint {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The base point B of RFC 8032.
    pub fn basepoint() -> EdwardsPoint {
        let x = Fe::from_bytes(&BX_BYTES);
        let y = Fe::from_bytes(&BY_BYTES);
        EdwardsPoint {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(&y),
        }
    }

    /// Unified point addition (complete for a = −1, d non-square).
    pub fn add(&self, other: &EdwardsPoint) -> EdwardsPoint {
        self.add_pniels(&other.to_pniels(), false)
    }

    /// Point doubling.
    pub fn double(&self) -> EdwardsPoint {
        self.double_keeping_t(true)
    }

    /// Point doubling that computes the extended coordinate `T` only
    /// when `keep_t` is set. Doubling reads `X`, `Y` and `Z` alone, so a
    /// result that feeds nothing but another doubling skips one field
    /// multiplication; its `T` is then zero, not `X·Y/Z`, and it must
    /// not be added, negated or converted.
    fn double_keeping_t(&self, keep_t: bool) -> EdwardsPoint {
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square().mul_small(2);
        let h = a.add(&b);
        let e = h.sub(&self.x.add(&self.y).square());
        let g = a.sub(&b);
        let f = c.add(&g);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            t: if keep_t { e.mul(&h) } else { Fe::ZERO },
            z: f.mul(&g),
        }
    }

    /// `[2^n]·self`: only the last doubling computes `T`.
    fn doublings(&self, n: usize) -> EdwardsPoint {
        let mut q = *self;
        for left in (0..n).rev() {
            q = q.double_keeping_t(left == 0);
        }
        q
    }

    /// Point negation.
    pub fn neg(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Converts to the cached "projective Niels" form used by the
    /// precomputed tables: `(Y+X, Y−X, Z, 2d·T)`.
    fn to_pniels(self) -> PNiels {
        PNiels {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z: self.z,
            t2d: self.t.mul(&d2()),
        }
    }

    /// Shared body of the mixed additions: `self ± N` for a precomputed
    /// `N = (Y+X, Y−X, 2d·T)` over the denominator `zz = Z₁·Z₂`.
    /// Subtracting is adding `−N = (Y−X, Y+X, −2d·T)`: the two factors
    /// swap and `c` changes sides, with no negation computed.
    ///
    /// Limb bounds (`field25519` header): coordinates of a point are
    /// always reduced, so each `add` below sums two reduced elements and
    /// feeds a `mul`; `dd` is carried by `mul_small` because it is added
    /// to once more.
    fn add_niels(&self, plus: &Fe, minus: &Fe, t2d: &Fe, zz: &Fe, negate: bool) -> EdwardsPoint {
        let (plus, minus) = if negate { (minus, plus) } else { (plus, minus) };
        let a = self.y.sub(&self.x).mul(minus);
        let b = self.y.add(&self.x).mul(plus);
        let c = t2d.mul(&self.t);
        let dd = zz.mul_small(2);
        let e = b.sub(&a);
        let h = b.add(&a);
        let (f, g) = if negate {
            (dd.add(&c), dd.sub(&c))
        } else {
            (dd.sub(&c), dd.add(&c))
        };
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            t: e.mul(&h),
            z: f.mul(&g),
        }
    }

    /// Mixed addition (subtraction when `negate`) of a precomputed
    /// projective point: 8 multiplications, one fewer than adding two
    /// extended points because `2d·T₂` is pre-multiplied.
    fn add_pniels(&self, n: &PNiels, negate: bool) -> EdwardsPoint {
        let zz = self.z.mul(&n.z);
        self.add_niels(&n.y_plus_x, &n.y_minus_x, &n.t2d, &zz, negate)
    }

    /// Mixed addition (subtraction when `negate`) of a precomputed
    /// *affine* point: `Z₂ = 1`, so 7 multiplications.
    fn add_affine_niels(&self, n: &AffineNiels, negate: bool) -> EdwardsPoint {
        self.add_niels(&n.y_plus_x, &n.y_minus_x, &n.xy2d, &self.z, negate)
    }

    /// Scalar multiplication by a canonical scalar, using a 4-bit
    /// sliding window (w-NAF) over precomputed odd multiples. Between two
    /// non-zero digits only the last doubling computes `T`.
    ///
    /// Exactly equivalent to the double-and-add oracle
    /// (`mul_bytes(&scalar.to_bytes())`) for every point, proven by the
    /// property tests in `tests/fast_path_equivalence.rs`.
    pub fn mul_scalar(&self, scalar: &Scalar) -> EdwardsPoint {
        let odd = OddMultiples::projective(self);
        let naf = scalar.non_adjacent_form4();
        let mut q = EdwardsPoint::identity();
        let mut above = None; // position of the last digit applied
        for i in (0..256).rev().filter(|&i| naf[i] != 0) {
            if let Some(above) = above {
                q = q.doublings(above - i);
            }
            q = odd.apply(&q, naf[i]);
            above = Some(i);
        }
        above.map_or(q, |above| q.doublings(above))
    }

    /// Scalar multiplication by double-and-add over the 256-bit scalar
    /// (the reference oracle for the windowed fast paths; also the only
    /// route for raw clamped scalars, which may exceed ℓ).
    pub fn mul_scalar_naive(&self, scalar: &Scalar) -> EdwardsPoint {
        let bytes = scalar.to_bytes();
        self.mul_bytes(&bytes)
    }

    /// Computes `[s]B + [k]·self`: the `[s]B` half is a sum over the
    /// static radix-2^8 basepoint table (≤ 32 additions, no doublings),
    /// the `[k]` half a w-NAF [`EdwardsPoint::mul_scalar`]. This is the
    /// one-shot verification work-horse; [`PreparedVerifyingKey`] beats
    /// it only because its fixed table removes the doubling chain of the
    /// second half too.
    pub fn double_scalar_mul_basepoint(s: &Scalar, k: &Scalar, a: &EdwardsPoint) -> EdwardsPoint {
        basepoint_table().mul(s).add(&a.mul_scalar(k))
    }

    /// Scalar multiplication where the scalar is raw little-endian bytes
    /// (used with clamped secret scalars, which may exceed ℓ).
    pub fn mul_bytes(&self, bytes: &[u8; 32]) -> EdwardsPoint {
        let mut q = EdwardsPoint::identity();
        for bit in (0..256).rev() {
            q = q.double();
            if (bytes[bit / 8] >> (bit % 8)) & 1 == 1 {
                q = q.add(self);
            }
        }
        q
    }

    /// Compresses to the 32-byte encoding: y with the sign of x in the
    /// top bit.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// The u-coordinate of this point's image on Curve25519 under the
    /// birational map `u = (1 + y)/(1 − y) = (Z + Y)/(Z − Y)`, encoded as
    /// X25519 encodes it. The neutral element (`Z = Y`) maps to `u = 0`,
    /// the ladder's encoding of the point at infinity, because
    /// [`Fe::invert`] sends 0 to 0.
    pub(crate) fn to_montgomery_u(self) -> [u8; 32] {
        let num = self.z.add(&self.y);
        let den = self.z.sub(&self.y);
        num.mul(&den.invert()).to_bytes()
    }

    /// Decompresses a 32-byte encoding, returning `None` if the bytes do
    /// not name a curve point (RFC 8032 §5.1.3).
    pub fn decompress(bytes: &[u8; 32]) -> Option<EdwardsPoint> {
        let y = Fe::from_bytes(bytes);
        let sign = (bytes[31] >> 7) & 1;
        let y2 = y.square();
        let u = y2.sub(&Fe::ONE);
        let v = y2.mul(&d()).add(&Fe::ONE);
        // Candidate root x = (u/v)^((p+3)/8) = u·v³·(u·v⁷)^((p−5)/8): the
        // second form needs no inversion (v ≠ 0 always, −1/d being a
        // non-square), and this is the largest per-signature term of a
        // batch verification.
        let v3 = v.square().mul(&v);
        let v7 = v3.square().mul(&v);
        let x_candidate = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
        let vx2 = v.mul(&x_candidate.square());
        let x = if vx2 == u {
            x_candidate
        } else if vx2 == u.neg() {
            x_candidate.mul(&sqrt_m1())
        } else {
            return None;
        };
        if x.is_zero() && sign == 1 {
            return None; // "negative zero" is rejected
        }
        let x = if (x.is_negative() as u8) != sign {
            x.neg()
        } else {
            x
        };
        Some(EdwardsPoint {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(&y),
        })
    }

    /// True if two points are equal (projectively).
    pub fn equals(&self, other: &EdwardsPoint) -> bool {
        // X1 Z2 == X2 Z1 and Y1 Z2 == Y2 Z1
        self.x.mul(&other.z) == other.x.mul(&self.z) && self.y.mul(&other.z) == other.y.mul(&self.z)
    }

    /// Decompresses the `R` half of a signature: as
    /// [`EdwardsPoint::decompress`], but a non-canonical encoding
    /// (`y ≥ p`, which `Fe::from_bytes` would silently reduce) is
    /// rejected, as RFC 8032 §5.1.3 requires.
    fn decompress_canonical(bytes: &[u8; 32]) -> Option<EdwardsPoint> {
        // p = 2^255 − 19: the 19 values p..2^255 − 1 are exactly those
        // with bits 8..255 all set and a low byte of at least 0xed.
        let y_below_p =
            bytes[0] < 0xed || bytes[31] & 0x7f != 0x7f || bytes[1..31].iter().any(|&b| b != 0xff);
        if !y_below_p {
            return None;
        }
        EdwardsPoint::decompress(bytes)
    }

    /// True when `[8]·self` is the neutral element, i.e. `self` lies in
    /// the small-order subgroup — the cofactored equation's "= O".
    fn is_small_order(&self) -> bool {
        let p8 = self.doublings(3);
        p8.x.is_zero() && p8.y == p8.z
    }
}

/// A point in "projective Niels" form `(Y+X, Y−X, Z, 2d·T)`: the shape
/// additions want their second operand in, precomputed once.
#[derive(Clone, Copy, Debug)]
struct PNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

/// A point in "affine Niels" form `(y+x, y−x, 2d·x·y)`: a [`PNiels`]
/// normalised to `Z = 1`, which saves its additions the `Z₁·Z₂`
/// product. Both fixed tables keep their entries in this form, each
/// normalised with one inversion at build; only the short-lived odd
/// multiples of a w-NAF chain stay projective.
#[derive(Clone, Copy, Debug)]
struct AffineNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl AffineNiels {
    /// Normalises `points` with a single inversion (Montgomery's trick:
    /// invert the product of all `Z`, then peel one factor per point).
    fn batch(points: &[EdwardsPoint]) -> Vec<AffineNiels> {
        // before[i] = Z₀ ⋯ Zᵢ₋₁
        let mut product = Fe::ONE;
        let mut before = Vec::with_capacity(points.len());
        for p in points {
            before.push(product);
            product = product.mul(&p.z);
        }
        let mut inverse = product.invert(); // 1 / (Z₀ ⋯ Zᵢ) as i walks down
        let mut out = Vec::with_capacity(points.len());
        for (p, before) in points.iter().zip(&before).rev() {
            let z_inv = inverse.mul(before);
            inverse = inverse.mul(&p.z);
            let (x, y) = (p.x.mul(&z_inv), p.y.mul(&z_inv));
            out.push(AffineNiels {
                y_plus_x: y.add(&x),
                y_minus_x: y.sub(&x),
                xy2d: x.mul(&y).mul(&d2()),
            });
        }
        out.reverse();
        out
    }
}

/// Odd multiples `[P, 3P, 5P, 7P]` backing the 4-bit sliding windows.
struct OddMultiples([PNiels; 4]);

impl OddMultiples {
    fn projective(p: &EdwardsPoint) -> OddMultiples {
        let p2 = p.double().to_pniels();
        let p3 = p.add_pniels(&p2, false);
        let p5 = p3.add_pniels(&p2, false);
        let p7 = p5.add_pniels(&p2, false);
        OddMultiples([*p, p3, p5, p7].map(EdwardsPoint::to_pniels))
    }

    /// Adds `digit·P` to `q` for a w-NAF digit in `{±1, ±3, ±5, ±7}`.
    fn apply(&self, q: &EdwardsPoint, digit: i8) -> EdwardsPoint {
        q.add_pniels(&self.0[digit.unsigned_abs() as usize / 2], digit < 0)
    }
}

/// The entries of a signed-digit table of `p`, normalised together with
/// one inversion: row `i < rows` holds `(j+1)·2^(spacing·i)·P` for
/// `j < per_row` (a power of two), rows in order. A row costs
/// `per_row − 1` additions, and the next row's base `spacing −
/// log₂(per_row)` doublings of the row's last entry.
fn table_entries(
    p: &EdwardsPoint,
    rows: usize,
    per_row: usize,
    spacing: usize,
) -> Vec<AffineNiels> {
    let mut multiples: Vec<EdwardsPoint> = Vec::with_capacity(rows * per_row);
    let mut base = *p;
    for i in 0..rows {
        if i > 0 {
            let top = multiples[multiples.len() - 1]; // per_row·base
            base = top.doublings(spacing - per_row.trailing_zeros() as usize);
        }
        let step = base.to_pniels();
        multiples.push(base);
        for _ in 1..per_row {
            multiples.push(multiples[multiples.len() - 1].add_pniels(&step, false));
        }
    }
    AffineNiels::batch(&multiples)
}

/// `q + Σ digits[i]·(row i's unit)`, one mixed addition per non-zero
/// digit, from `entries` whose row `i` holds the `(j+1)`-fold multiples
/// of that unit and `N` signed digits, none larger in magnitude than a
/// row is long.
/// The entries are gathered before the first addition: their loads
/// depend on the digits alone, so the cache misses of a table larger
/// than the L2 cache overlap instead of each waiting for the addition
/// before it.
fn window_sum<const N: usize>(
    q: EdwardsPoint,
    entries: &[AffineNiels],
    digits: &[i8; N],
) -> EdwardsPoint {
    let n = entries.len() / N;
    let mut picked = [(entries[0], false); N];
    let mut count = 0;
    for (row, &d) in entries.chunks_exact(n).zip(digits) {
        if d != 0 {
            picked[count] = (row[d.unsigned_abs() as usize - 1], d < 0);
            count += 1;
        }
    }
    (picked[..count].iter()).fold(q, |q, (entry, negate)| q.add_affine_niels(entry, *negate))
}

/// Rows of a per-author table: one per four radix-16 digits.
const COMB_ROWS: usize = 16;

/// The per-author table behind [`PreparedVerifyingKey`] and
/// [`verify_batch`]'s per-key sums: a 4-tooth comb over the signed
/// radix-16 digits of the scalar. Row `i` holds `(j+1)·2^(16i)·P` for
/// `i < 16` and `j < 8`, in affine Niels form: 128 entries of 120 B,
/// 15 KiB, normalised at build with one inversion.
///
/// Digit `4i + t` of a scalar weighs `2^(16i)·16^t`, so `[s]P` is four
/// passes `t = 3, …, 0`, each adding row `i`'s entry for digit `4i + t`
/// to the running sum, with four doublings between passes: at most 64
/// mixed additions of 7 field multiplications and 12 doublings.
/// Building costs 112 additions, 195 doublings and one batch
/// normalisation (~3 500 multiplications). The table fits in the L1
/// cache, and 256 of them — the prepared-key cache's cap — take 3.75
/// MiB.
pub struct FixedWindowTable {
    entries: Vec<AffineNiels>,
}

impl std::fmt::Debug for FixedWindowTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FixedWindowTable({} entries)", self.entries.len())
    }
}

impl FixedWindowTable {
    /// Precomputes the table for `p`.
    pub fn new(p: &EdwardsPoint) -> FixedWindowTable {
        FixedWindowTable {
            entries: table_entries(p, COMB_ROWS, 8, 16),
        }
    }

    /// Computes `[s]P` over the signed radix-16 digits of `s`: four comb
    /// passes, only the last of each four doublings computing `T`.
    pub fn mul(&self, s: &Scalar) -> EdwardsPoint {
        let digits = s.to_radix16();
        let pass = |t: usize| -> [i8; COMB_ROWS] { std::array::from_fn(|i| digits[4 * i + t]) };
        let top = window_sum(EdwardsPoint::identity(), &self.entries, &pass(3));
        (0..3).rev().fold(top, |q, t| {
            window_sum(q.doublings(4), &self.entries, &pass(t))
        })
    }
}

/// The fixed-window table of the RFC 8032 basepoint at radix 2^8: every
/// `(j+1)·256^i·B` for 32 windows `i` and `j < 128`, in affine Niels form
/// (`Z = 1`), normalised with one inversion. A `[s]B` is then at most 32
/// mixed additions of 7 multiplications each, half the additions of a
/// radix-16 table (~5.8 µs against ~10.1 µs on a 2-core Xeon
/// container). The 4 096 entries take 480 KiB and ~3 ms to build, once
/// per process. Obtained from [`basepoint_table`].
pub struct BasepointTable {
    entries: Vec<AffineNiels>,
}

impl BasepointTable {
    /// Computes `[s]B` as a doubling-free sum over the signed radix-2^8
    /// digits of `s`.
    pub fn mul(&self, s: &Scalar) -> EdwardsPoint {
        window_sum(EdwardsPoint::identity(), &self.entries, &s.to_radix256())
    }
}

/// The lazily built fixed-window table of the RFC 8032 basepoint, behind
/// every `[s]B`: signing, key generation, X25519 public keys and the
/// `[s]B` half of every verification flavour.
pub fn basepoint_table() -> &'static BasepointTable {
    static TABLE: OnceLock<BasepointTable> = OnceLock::new();
    TABLE.get_or_init(|| BasepointTable {
        entries: table_entries(&EdwardsPoint::basepoint(), 32, 128, 8),
    })
}

/// An Ed25519 signing key: the 32-byte seed plus its expanded parts.
///
/// The clamped scalar is reduced mod ℓ and the deterministic-nonce
/// prefix is pre-absorbed into a SHA-512 state once, at construction —
/// [`SigningKey::sign`] only pays for the message-dependent work.
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; 32],
    /// a reduced mod ℓ (valid because B has order ℓ: `[a]B = [a mod ℓ]B`).
    a_scalar: Scalar,
    /// SHA-512 state with the deterministic-nonce prefix already absorbed.
    prefix_state: Sha512,
    /// Compressed public key A = [a]B.
    public: [u8; 32],
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SigningKey(pub={})", crate::hex::encode(&self.public))
    }
}

fn clamp(mut bytes: [u8; 32]) -> [u8; 32] {
    bytes[0] &= 248;
    bytes[31] &= 127;
    bytes[31] |= 64;
    bytes
}

impl SigningKey {
    /// Derives the key pair from a 32-byte seed (RFC 8032 §5.1.5).
    pub fn from_seed(seed: [u8; 32]) -> SigningKey {
        let h = crate::sha2::sha512(&seed);
        let mut a_bytes = [0u8; 32];
        a_bytes.copy_from_slice(&h[..32]);
        let a_bytes = clamp(a_bytes);
        // a may exceed ℓ after clamping; B has order ℓ, so reducing once
        // here keeps every later use on the canonical-scalar fast paths.
        let a_scalar = Scalar::from_bytes_mod_order(&a_bytes);
        let mut prefix_state = Sha512::new();
        prefix_state.update(&h[32..]);
        let public = basepoint_table().mul(&a_scalar).compress();
        SigningKey {
            seed,
            a_scalar,
            prefix_state,
            public,
        }
    }

    /// Generates a key pair from a random number generator.
    pub fn generate<R: rand::RngCore>(rng: &mut R) -> SigningKey {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        SigningKey::from_seed(seed)
    }

    /// The seed this key was derived from.
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// The compressed public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey(self.public)
    }

    /// Signs `message`, producing a 64-byte signature (RFC 8032 §5.1.6).
    ///
    /// Uses the pre-absorbed prefix state, the pre-reduced secret
    /// scalar, and the fixed-window basepoint table; output is
    /// bit-identical to the naive path (RFC 8032 vectors below).
    pub fn sign(&self, message: &[u8]) -> Signature {
        let mut h = self.prefix_state.clone();
        h.update(message);
        let r = Scalar::from_bytes_mod_order(&h.finalize());
        let r_point = basepoint_table().mul(&r).compress();

        let mut h = Sha512::new();
        h.update(&r_point);
        h.update(&self.public);
        h.update(message);
        let k = Scalar::from_bytes_mod_order(&h.finalize());

        let s = k.muladd(&self.a_scalar, &r);

        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_point);
        sig[32..].copy_from_slice(&s.to_bytes());
        Signature(sig)
    }
}

/// A compressed Ed25519 public key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey(pub [u8; 32]);

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VerifyingKey({})", crate::hex::encode(&self.0))
    }
}

impl VerifyingKey {
    /// The raw 32-byte encoding.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Verifies `signature` over `message` (RFC 8032 §5.1.7; the
    /// module header states the one acceptance predicate every flavour
    /// implements). Repeat verifications by the same key hit a bounded
    /// process-wide [`PreparedVerifyingKey`] cache, skipping
    /// decompression and the doubling chain entirely — the hot path of a
    /// sync encounter, where one author's bundles arrive in batches. A
    /// miss that a full cache declines (its oldest entry was hit since
    /// it was queued; module header) runs [`VerifyingKey::verify_uncached`].
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        self.verify_admitting(Admission::SecondChance, message, signature)
    }

    /// [`VerifyingKey::verify`] without admission: a key the
    /// process-wide cache holds is checked through its table, and the
    /// hit marks its entry as any hit does; any other key is checked by
    /// [`VerifyingKey::verify_uncached`], and nothing is built or
    /// inserted. For signatures a key makes once per meeting, such as a
    /// handshake peer's, whose table would never be used again.
    pub fn verify_without_admission(&self, message: &[u8], signature: &Signature) -> bool {
        self.verify_admitting(Admission::Never, message, signature)
    }

    /// Verifies through the cached table when the lookup under
    /// `admission` yields one, one-shot otherwise.
    fn verify_admitting(&self, admission: Admission, msg: &[u8], sig: &Signature) -> bool {
        match prepared_cache_lookup(self, admission) {
            Some(prepared) => prepared.verify(msg, sig),
            // Not admitted, or a key off the curve (which the one-shot
            // path refuses as well).
            None => self.verify_uncached(msg, sig),
        }
    }

    /// One-shot verification via
    /// [`EdwardsPoint::double_scalar_mul_basepoint`]: no per-key table
    /// is built or cached. Useful when a key is known to be seen once
    /// (equivalence-tested against both the cached path and the naive
    /// oracle). Every call counts in [`one_shot_verifies`].
    pub fn verify_uncached(&self, message: &[u8], signature: &Signature) -> bool {
        ONE_SHOT_VERIFIES.fetch_add(1, Relaxed);
        let Some((s, k, r_enc)) = self.verify_parts(message, signature) else {
            return false;
        };
        let a = match EdwardsPoint::decompress(&self.0) {
            Some(a) => a,
            None => return false,
        };
        let r_prime = EdwardsPoint::double_scalar_mul_basepoint(&s, &k, &a.neg());
        residue_accepted(&r_prime, &r_enc)
    }

    /// The reference oracle for every other flavour: the acceptance
    /// predicate written out with double-and-add multiplications, no
    /// tables, no caches and no accept fast path.
    pub fn verify_naive(&self, message: &[u8], signature: &Signature) -> bool {
        let Some((s, k, r_enc)) = self.verify_parts(message, signature) else {
            return false;
        };
        let (Some(a), Some(r)) = (
            EdwardsPoint::decompress(&self.0),
            EdwardsPoint::decompress_canonical(&r_enc),
        ) else {
            return false;
        };
        // [8]([s]B − [k]A − R) = O
        let sb = EdwardsPoint::basepoint().mul_scalar_naive(&s);
        let ka = a.neg().mul_scalar_naive(&k);
        sb.add(&ka).add(&r.neg()).is_small_order()
    }

    /// Shared front half of every verification flavour: parses `s`
    /// (rejecting non-canonical values) and computes the challenge `k`.
    fn verify_parts(
        &self,
        message: &[u8],
        signature: &Signature,
    ) -> Option<(Scalar, Scalar, [u8; 32])> {
        let sig = &signature.0;
        let mut r_enc = [0u8; 32];
        r_enc.copy_from_slice(&sig[..32]);
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&sig[32..]);
        let s = Scalar::from_canonical_bytes(&s_bytes)?;
        let mut h = Sha512::new();
        h.update(&r_enc);
        h.update(&self.0);
        h.update(message);
        let k = Scalar::from_bytes_mod_order(&h.finalize());
        Some((s, k, r_enc))
    }
}

/// Shared back half of the serial fast flavours: decides the acceptance
/// predicate given `R' = [s]B − [k]A` and the signature's `R` encoding.
///
/// `R'` encoding to exactly `sig.R` (every honest signature) means the
/// residue `R' − R` is zero and `R` is canonical, so the compress-and-
/// compare of the old cofactorless check stays as the accept fast path.
/// Only on a mismatch is `R` decompressed to see whether the residue is a
/// non-zero small-order point, which the cofactored equation also
/// accepts.
fn residue_accepted(r_prime: &EdwardsPoint, r_enc: &[u8; 32]) -> bool {
    if crate::hmac::ct_eq(&r_prime.compress(), r_enc) {
        return true;
    }
    match EdwardsPoint::decompress_canonical(r_enc) {
        Some(r) => r_prime.add(&r.neg()).is_small_order(),
        None => false,
    }
}

/// A verifying key prepared for repeat use: the compressed key plus
/// the comb table of `-A` ([`FixedWindowTable`], 15 360 bytes), so each
/// verification is a doubling-free basepoint table sum, a comb sum with
/// 12 doublings and one addition (~24 µs on an idle core, about 6x
/// faster than the naive path; see `cargo bench -p sos-bench --bench
/// crypto`).
///
/// Building one costs ~120–140 µs (`ed25519/prepared_new`, 0.6 of the
/// projective table before the comb; about five prepared
/// verifications), against ~63 µs for a one-shot
/// [`VerifyingKey::verify_uncached`] — amortized away by an author's
/// fourth signature, which is exactly the SOS workload: a sync encounter
/// delivers an author's bundles in batches (~200 per session). A key
/// seen only once never repays its table, which is what the cache's
/// second-chance admission (module header) declines to build, and what
/// [`VerifyingKey::verify_without_admission`] never builds.
pub struct PreparedVerifyingKey {
    compressed: [u8; 32],
    neg_table: FixedWindowTable,
}

impl std::fmt::Debug for PreparedVerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PreparedVerifyingKey({})",
            crate::hex::encode(&self.compressed)
        )
    }
}

impl PreparedVerifyingKey {
    /// Decompresses `key` and precomputes the window table of `-A`.
    ///
    /// Returns `None` when the key bytes do not name a curve point.
    pub fn new(key: &VerifyingKey) -> Option<PreparedVerifyingKey> {
        let a = EdwardsPoint::decompress(&key.0)?;
        Some(PreparedVerifyingKey {
            compressed: key.0,
            neg_table: FixedWindowTable::new(&a.neg()),
        })
    }

    /// The compressed key this table was built from.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey(self.compressed)
    }

    /// Bytes its table's entries occupy: what one cached author costs.
    pub fn table_bytes(&self) -> usize {
        std::mem::size_of_val(self.neg_table.entries.as_slice())
    }

    /// Verifies `signature` over `message`; exactly equivalent to
    /// [`VerifyingKey::verify_naive`] on a decompressible key.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        let key = VerifyingKey(self.compressed);
        let Some((s, k, r_enc)) = key.verify_parts(message, signature) else {
            return false;
        };
        // R' = [s]B + [k](-A), both halves through fixed tables.
        let sb = basepoint_table().mul(&s);
        let ka = self.neg_table.mul(&k);
        residue_accepted(&sb.add(&ka), &r_enc)
    }
}

/// Cap on the process-wide prepared-key cache. Each entry holds a
/// 128-entry comb table (15 360 bytes), so the cap bounds the tables at
/// 3.75 MiB while covering far more concurrent authors than a node
/// meets per session.
/// Only bundle authors and the CA key fill it: a handshake peer's key is
/// checked through [`VerifyingKey::verify_without_admission`], which
/// never inserts.
const PREPARED_CACHE_CAP: usize = 256;

/// Number of keys currently in the process-wide prepared cache
/// (observability for tests and benchmarks).
pub fn prepared_cache_len() -> usize {
    prepared_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .len()
}

/// Empties the process-wide prepared-key cache. Exists so benchmarks and
/// tests can measure genuinely cold verifications; production code never
/// needs it.
pub fn clear_prepared_cache() {
    prepared_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// Prepared-key tables built for the cache since the process started:
/// every miss on a decompressible key that the cache admits is one
/// build; a hit or a declined miss builds nothing.
#[doc(hidden)]
pub fn prepared_cache_builds() -> u64 {
    PREPARED_BUILDS.load(Relaxed)
}

static PREPARED_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Calls of [`VerifyingKey::verify_uncached`] since the process
/// started, from any flavour that fell back to it or from a caller:
/// with [`prepared_cache_builds`], what the verifications a workload
/// made cost beyond table sums.
#[doc(hidden)]
pub fn one_shot_verifies() -> u64 {
    ONE_SHOT_VERIFIES.load(Relaxed)
}

static ONE_SHOT_VERIFIES: AtomicU64 = AtomicU64::new(0);

type PreparedMap = FifoMap<[u8; 32], Arc<PreparedVerifyingKey>>;

// Lookups recover from a poisoned lock (`PoisonError::into_inner`)
// instead of panicking: entries are pure functions of the key bytes, so
// a writer that died mid-insert cannot corrupt what a reader sees.
fn prepared_cache() -> &'static Mutex<PreparedMap> {
    static CACHE: OnceLock<Mutex<PreparedMap>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(FifoMap::new(PREPARED_CACHE_CAP)))
}

/// What a miss in the prepared-key cache may do.
#[derive(Clone, Copy, PartialEq)]
enum Admission {
    /// Build and insert, evicting the oldest entry of a full cache
    /// ([`verify_batch`]).
    Always,
    /// Build and insert unless a full cache's oldest entry is marked
    /// ([`VerifyingKey::verify`]).
    SecondChance,
    /// Build nothing ([`VerifyingKey::verify_without_admission`]).
    Never,
}

/// Looks up the prepared form of `key` in the process-wide cache,
/// marking the entry on a hit. A miss builds the table and inserts it,
/// evicting the oldest entry of a full cache, as `admission` allows:
/// under [`Admission::SecondChance`] a marked oldest entry is unmarked
/// and requeued instead, and under [`Admission::Never`] nothing is
/// touched. A declined miss builds nothing, and its `None` sends the
/// caller to [`VerifyingKey::verify_uncached`]. Also `None` for
/// undecompressible keys.
fn prepared_cache_lookup(
    key: &VerifyingKey,
    admission: Admission,
) -> Option<Arc<PreparedVerifyingKey>> {
    let cache = prepared_cache();
    {
        let mut held = cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = held.get_and_mark(&key.0) {
            return Some(hit.clone());
        }
        if admission == Admission::Never
            || admission == Admission::SecondChance && held.second_chance()
        {
            return None;
        }
    }
    // Build outside the lock: table construction is ~130 µs and must not
    // serialize other threads' verifications.
    let prepared = Arc::new(PreparedVerifyingKey::new(key)?);
    PREPARED_BUILDS.fetch_add(1, Relaxed);
    cache
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(key.0, prepared.clone());
    Some(prepared)
}

/// Smallest batch [`verify_batch`] checks as one combination; below it
/// (and whenever signatures do not outnumber distinct keys two to one)
/// the serial path runs. Measured, not configured: the combination
/// spends one table sum on `B`, one per distinct key and a shared
/// 128-doubling chain (~38 µs together) before its per-signature work
/// (~12 µs) gets cheaper than two table sums (~26 µs). Measured with
/// the crossover set to 2, batch ÷ serial (medians of 21 alternating
/// rounds; before this split was added → after): one author 1.27 → 1.29
/// at 2 signatures, 0.99 → 1.00 at 3, 0.84 → 0.85 at 4, 0.76 → 0.77 at
/// 5, 0.65 → 0.66 at 8; two authors, two signatures each, 0.96 → 0.97
/// at 4. Break-even is 3, and a 4-signature frame gains on both sides
/// (see `BENCH_crypto.json`, `ed25519/verify_batch_*`, for the
/// large-batch end).
const BATCH_MIN: usize = 4;

/// Smallest sub-batch [`verify_batch`] gives a core of its own: a batch
/// of `n` is split into `min(cores, n / PAR_MIN)` contiguous parts, so a
/// frame forks from 40 signatures. Measured, not configured. Per batch,
/// one author on a 2-core box, two parts on two threads ÷ one part on
/// one (medians of 21 alternating rounds, two sessions): 0.97 at 8
/// signatures, 0.87 at 9, 0.72–0.93 at 16, 0.63–0.70 at 32, 0.59–0.60 at
/// 40, 0.56 at 77, 0.52 at 200 — two beat one from 9. With a busy loop
/// holding the other core the same ratios read 1.1–1.6 at every size.
/// And the first fork taxes the whole process: once a second thread has
/// existed, glibc's `malloc` takes its arena lock on every call (a loop
/// of 64 B – 4 KiB allocations: +47 %), which cost the ledger's
/// `study_replay` about 3 % of its wall when its 16 frames of 32–37
/// signatures (of 9 628) forked. So only frames holding more than half
/// the 32 KiB budget fork — a full one holds ~77 bundles and splits in
/// two — where the idle win is 0.6.
const PAR_MIN: usize = 20;

/// Highest index a width-4 NAF digit of a 128-bit `z` can occupy.
const Z_NAF_TOP: usize = 128;

/// The cores this process may run on, read once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Verifies a whole batch of `(key, message, signature)` triples at
/// once: true exactly when every triple passes [`VerifyingKey::verify`].
/// An empty batch is vacuously valid.
///
/// A batch of at least `2·PAR_MIN` signatures on a multi-core machine
/// is split into one contiguous sub-batch per core (at most `n /
/// PAR_MIN` of them), each checked exactly as a whole batch is below:
/// its own transcript, `zᵢ`, table sums and doubling chain; the keys'
/// tables are taken from the cache once, before the split, so a cold
/// author costs one table build however many parts there are. All but the
/// first run on scoped threads while the caller checks the first, and
/// the verdict is the AND of theirs. Each sub-batch decides the one
/// cofactored predicate of the module header, so the verdict is the
/// same for every split, one part included. A thread that cannot be
/// spawned leaves its part to the caller; one that panics fails the
/// batch, which sends callers to their serial fallback. The threads are
/// scoped, spawned per batch, rather than a pool's: a sub-batch borrows
/// the caller's keys, messages and signatures, and lending borrows to a
/// thread that outlives the call would take `unsafe` this crate forbids
/// (or copying the frame), and a spawn and join (~15 µs) is small
/// against the ≥ 150 µs a part of `PAR_MIN` or more signatures takes.
///
/// Large enough batches are checked as one random linear combination
/// `[8]·([Σzᵢsᵢ]B + Σ_A [Σzᵢkᵢ](−A) + Σ [zᵢ](−Rᵢ)) = O`: the `B` and
/// per-key `−A` terms are doubling-free fixed-table sums (the keys'
/// tables come from the same process-wide cache `verify` uses), and the
/// `Rᵢ` terms share one Straus/w-NAF doubling chain. Every check the
/// serial path makes is kept — canonical `s`, canonical decompressible
/// `R`, decompressible `A` — and because both paths decide the
/// cofactored equation (module header), a batch of individually valid
/// signatures passes for *every* choice of `zᵢ`, while a batch holding
/// an invalid one passes with probability about 2⁻¹²⁸.
///
/// The 128-bit `zᵢ` are derived by hashing the batch itself (every key,
/// `R`, `s` and challenge) and expanding the digest with ChaCha20, so
/// the function is deterministic and draws nothing from any caller's
/// random number generator.
///
/// A `false` says only that *some* triple is invalid; callers that need
/// to know which one verify serially after a failed batch.
pub fn verify_batch(items: &[(&VerifyingKey, &[u8], &Signature)]) -> bool {
    verify_split(items, cores().min(items.len() / PAR_MIN))
}

/// Checks `items` as `parts` contiguous sub-batches of near-equal size
/// (one when `parts ≤ 1`): parts after the first on scoped threads, the
/// first on the caller. The serial fallback is decided, and every
/// distinct key's table taken from the cache, once for the whole batch
/// before any thread starts, so a key the cache lacks is built once,
/// not once per part. Every worker is joined before the verdicts are
/// combined, so `scope` never re-raises a worker's panic.
fn verify_split(items: &[(&VerifyingKey, &[u8], &Signature)], parts: usize) -> bool {
    let serial = || items.iter().all(|(key, msg, sig)| key.verify(msg, sig));
    if items.len() < BATCH_MIN {
        return serial();
    }
    let mut keys: Vec<&[u8; 32]> = items.iter().map(|(key, _, _)| &key.0).collect();
    keys.sort_unstable();
    keys.dedup();
    if items.len() < 2 * keys.len() {
        return serial();
    }
    let Some(tables) = keys
        .iter()
        .map(|bytes| prepared_cache_lookup(&VerifyingKey(**bytes), Admission::Always))
        .collect::<Option<Vec<_>>>()
    else {
        return false;
    };
    let check = |part| verify_combined(part, &keys, &tables);
    if parts <= 1 {
        return check(items);
    }
    let part = |i: usize| &items[i * items.len() / parts..(i + 1) * items.len() / parts];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (1..parts)
            .map(|i| {
                std::thread::Builder::new()
                    .spawn_scoped(scope, move || check(part(i)))
                    .map_err(|_| part(i))
            })
            .collect();
        let first = check(part(0));
        workers.into_iter().fold(first, |all, worker| {
            let verdict = match worker {
                Ok(handle) => handle.join().unwrap_or(false),
                Err(unspawned) => check(unspawned),
            };
            verdict && all
        })
    })
}

/// One sub-batch as one random linear combination (the body of
/// [`verify_batch`]'s doc), given the batch's sorted distinct `keys`
/// and their `tables`. A key with no signature in this sub-batch has a
/// zero coefficient and costs no table sum.
fn verify_combined(
    items: &[(&VerifyingKey, &[u8], &Signature)],
    keys: &[&[u8; 32]],
    tables: &[Arc<PreparedVerifyingKey>],
) -> bool {
    // Parse everything first: any malformed part fails the batch, and
    // the transcript must cover every item before the first z is drawn.
    let mut parts = Vec::with_capacity(items.len());
    let mut transcript = Sha512::new();
    transcript.update(b"sos-ed25519-batch-v1");
    transcript.update(&(items.len() as u64).to_le_bytes());
    for (key, msg, sig) in items {
        let Some((s, k, r_enc)) = key.verify_parts(msg, sig) else {
            return false;
        };
        let Some(r) = EdwardsPoint::decompress_canonical(&r_enc) else {
            return false;
        };
        transcript.update(&key.0);
        transcript.update(&sig.0);
        transcript.update(&k.to_bytes());
        let slot = keys.partition_point(|held| *held < &key.0);
        parts.push((slot, s, k, r));
    }
    let digest = transcript.finalize();
    let mut z_key = [0u8; 32];
    z_key.copy_from_slice(&digest[..32]);
    let mut z_nonce = [0u8; 12];
    z_nonce.copy_from_slice(&digest[32..44]);

    let mut b_coeff = Scalar::ZERO;
    let mut a_coeffs = vec![Scalar::ZERO; tables.len()];
    let mut r_terms = Vec::with_capacity(parts.len());
    // One ChaCha20 block is four 128-bit coefficients.
    for (block, four) in (0u32..).zip(parts.chunks(4)) {
        let z_block = crate::chacha20::chacha20_block(&z_key, block, &z_nonce);
        for ((slot, s, k, r), z_bytes) in four.iter().zip(z_block.chunks_exact(16)) {
            let mut z = [0u8; 16];
            z.copy_from_slice(z_bytes);
            let z = Scalar::from_u128(u128::from_le_bytes(z));
            b_coeff = b_coeff.add(&z.mul(s));
            a_coeffs[*slot] = a_coeffs[*slot].add(&z.mul(k));
            r_terms.push((z.non_adjacent_form4(), OddMultiples::projective(&r.neg())));
        }
    }

    // This chain keeps `T` on every doubling: with more than a handful
    // of terms nearly every position holds some term's digit.
    let mut q = EdwardsPoint::identity();
    for i in (0..=Z_NAF_TOP).rev() {
        q = q.double();
        for (naf, odd) in &r_terms {
            if naf[i] != 0 {
                q = odd.apply(&q, naf[i]);
            }
        }
    }
    q = q.add(&basepoint_table().mul(&b_coeff));
    for (table, coeff) in tables.iter().zip(&a_coeffs) {
        if *coeff != Scalar::ZERO {
            q = q.add(&table.neg_table.mul(coeff));
        }
    }
    q.is_small_order()
}

/// A detached 64-byte Ed25519 signature.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature(pub [u8; 64]);

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature({})", crate::hex::encode(&self.0[..8]))
    }
}

impl Signature {
    /// Parses a signature from a 64-byte slice.
    ///
    /// # Errors
    ///
    /// Returns `None` when the slice is not exactly 64 bytes.
    pub fn from_slice(bytes: &[u8]) -> Option<Signature> {
        if bytes.len() != 64 {
            return None;
        }
        let mut sig = [0u8; 64];
        sig.copy_from_slice(bytes);
        Some(Signature(sig))
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; 64] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use crate::sha2::{sha256, sha512};

    fn seed(s: &str) -> [u8; 32] {
        hex::decode_array::<32>(s).unwrap()
    }

    // RFC 8032 §7.1 TEST 1 (empty message).
    #[test]
    fn rfc8032_test1() {
        let sk = SigningKey::from_seed(seed(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        ));
        assert_eq!(
            hex::encode(sk.verifying_key().as_bytes()),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        );
        let sig = sk.sign(b"");
        assert_eq!(
            hex::encode(sig.as_bytes()),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
        );
        assert!(sk.verifying_key().verify(b"", &sig));
    }

    // RFC 8032 §7.1 TEST 2 (one byte).
    #[test]
    fn rfc8032_test2() {
        let sk = SigningKey::from_seed(seed(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        ));
        assert_eq!(
            hex::encode(sk.verifying_key().as_bytes()),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let msg = [0x72u8];
        let sig = sk.sign(&msg);
        assert_eq!(
            hex::encode(sig.as_bytes()),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
        );
        assert!(sk.verifying_key().verify(&msg, &sig));
    }

    // RFC 8032 §7.1 TEST 3 (two bytes).
    #[test]
    fn rfc8032_test3() {
        let sk = SigningKey::from_seed(seed(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        ));
        assert_eq!(
            hex::encode(sk.verifying_key().as_bytes()),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"
        );
        let msg = [0xaf, 0x82];
        let sig = sk.sign(&msg);
        assert_eq!(
            hex::encode(sig.as_bytes()),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
        );
        assert!(sk.verifying_key().verify(&msg, &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let sk = SigningKey::from_seed([7u8; 32]);
        let sig = sk.sign(b"genuine message");
        assert!(sk.verifying_key().verify(b"genuine message", &sig));
        assert!(!sk.verifying_key().verify(b"genuine messagf", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let sk = SigningKey::from_seed([8u8; 32]);
        let mut sig = sk.sign(b"msg");
        sig.0[0] ^= 1;
        assert!(!sk.verifying_key().verify(b"msg", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let sk1 = SigningKey::from_seed([9u8; 32]);
        let sk2 = SigningKey::from_seed([10u8; 32]);
        let sig = sk1.sign(b"msg");
        assert!(!sk2.verifying_key().verify(b"msg", &sig));
    }

    #[test]
    fn non_canonical_s_rejected() {
        let sk = SigningKey::from_seed([11u8; 32]);
        let mut sig = sk.sign(b"msg");
        // Force s >= l by setting a high bit pattern.
        sig.0[63] |= 0xf0;
        assert!(!sk.verifying_key().verify(b"msg", &sig));
    }

    #[test]
    fn point_roundtrip() {
        let b = EdwardsPoint::basepoint();
        let enc = b.compress();
        assert_eq!(
            hex::encode(&enc),
            "5866666666666666666666666666666666666666666666666666666666666666"
        );
        let dec = EdwardsPoint::decompress(&enc).unwrap();
        assert!(dec.equals(&b));
    }

    #[test]
    fn addition_consistency() {
        let b = EdwardsPoint::basepoint();
        // 2B via doubling and via addition must agree.
        assert!(b.double().equals(&b.add(&b)));
        // 3B two ways.
        let three1 = b.double().add(&b);
        let three2 = b.add(&b.double());
        assert!(three1.equals(&three2));
        // [3]B via scalar mult.
        let three3 = b.mul_scalar(&Scalar::from_u64(3));
        assert!(three1.equals(&three3));
    }

    #[test]
    fn identity_behaviour() {
        let b = EdwardsPoint::basepoint();
        let id = EdwardsPoint::identity();
        assert!(b.add(&id).equals(&b));
        assert!(b.add(&b.neg()).equals(&id));
        assert!(b.mul_scalar(&Scalar::ZERO).equals(&id));
    }

    #[test]
    fn fast_keygen_matches_naive_mul_bytes() {
        // [a]B through the fixed-window table (after reducing a mod ℓ)
        // must match the double-and-add oracle on the raw clamped bytes.
        for seed in [[0u8; 32], [7u8; 32], [0xffu8; 32]] {
            let sk = SigningKey::from_seed(seed);
            let h = crate::sha2::sha512(&seed);
            let mut a_bytes = [0u8; 32];
            a_bytes.copy_from_slice(&h[..32]);
            let a_bytes = clamp(a_bytes);
            let naive = EdwardsPoint::basepoint().mul_bytes(&a_bytes).compress();
            assert_eq!(sk.verifying_key().0, naive);
        }
    }

    #[test]
    fn verify_flavours_agree() {
        let sk = SigningKey::from_seed([13u8; 32]);
        let vk = sk.verifying_key();
        let prepared = PreparedVerifyingKey::new(&vk).unwrap();
        let msg = b"every path, same verdict";
        let sig = sk.sign(msg);
        assert!(vk.verify(msg, &sig));
        assert!(vk.verify_without_admission(msg, &sig));
        assert!(vk.verify_uncached(msg, &sig));
        assert!(vk.verify_naive(msg, &sig));
        assert!(prepared.verify(msg, &sig));
        let mut bad = sig;
        bad.0[5] ^= 1;
        assert!(!vk.verify(msg, &bad));
        assert!(!vk.verify_without_admission(msg, &bad));
        assert!(!vk.verify_uncached(msg, &bad));
        assert!(!vk.verify_naive(msg, &bad));
        assert!(!prepared.verify(msg, &bad));
    }

    #[test]
    fn undecompressible_key_rejected_by_all_paths() {
        // A y-coordinate off the curve: all verify flavours must return
        // false rather than panic (and the cache must not poison).
        let mut bytes = [0u8; 32];
        bytes[0] = 2;
        bytes[1] = 0x5a;
        let mut off_curve = None;
        for b0 in 0..=255u8 {
            bytes[0] = b0;
            if EdwardsPoint::decompress(&bytes).is_none() {
                off_curve = Some(VerifyingKey(bytes));
                break;
            }
        }
        let vk = off_curve.expect("some encoding must be off-curve");
        let sig = Signature([1u8; 64]);
        assert!(!vk.verify(b"m", &sig));
        assert!(!vk.verify_without_admission(b"m", &sig));
        assert!(!vk.verify_uncached(b"m", &sig));
        assert!(!vk.verify_naive(b"m", &sig));
        assert!(PreparedVerifyingKey::new(&vk).is_none());
    }

    #[test]
    fn poisoned_cache_lock_is_recovered_not_propagated() {
        // A thread that dies holding the cache lock poisons it for good;
        // every accessor must keep working (entries are pure functions of
        // their key, so nothing half-written can be observed).
        let died = std::thread::spawn(|| {
            let _guard = prepared_cache()
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            panic!("poisoning the prepared-key cache on purpose");
        })
        .join();
        assert!(died.is_err());
        assert!(prepared_cache().is_poisoned());
        let sk = SigningKey::from_seed([0x70; 32]);
        let sig = sk.sign(b"after the poison");
        assert!(sk.verifying_key().verify(b"after the poison", &sig)); // miss
        assert!(sk.verifying_key().verify(b"after the poison", &sig)); // hit
        assert!(prepared_cache_len() >= 1);
    }

    #[test]
    fn montgomery_image_of_the_basepoint_and_the_neutral_element() {
        assert_eq!(
            EdwardsPoint::basepoint().to_montgomery_u(),
            crate::x25519::BASEPOINT
        );
        // Z = Y: the inversion of zero yields zero, the ladder's encoding
        // of the point at infinity.
        assert_eq!(EdwardsPoint::identity().to_montgomery_u(), [0u8; 32]);
        let scaled = basepoint_table().mul(&Scalar::ZERO);
        assert_eq!(scaled.to_montgomery_u(), [0u8; 32]);
    }

    #[test]
    fn double_scalar_mul_matches_two_naive_muls() {
        let a = EdwardsPoint::basepoint().mul_scalar_naive(&Scalar::from_u64(77));
        for (sv, kv) in [(0u64, 5u64), (1, 0), (3, 9), (u64::MAX, 12345)] {
            let s = Scalar::from_u64(sv);
            let k = Scalar::from_u64(kv);
            let fast = EdwardsPoint::double_scalar_mul_basepoint(&s, &k, &a);
            let naive = EdwardsPoint::basepoint()
                .mul_scalar_naive(&s)
                .add(&a.mul_scalar_naive(&k));
            assert!(fast.equals(&naive), "s={sv} k={kv}");
        }
    }

    #[test]
    fn fixed_window_table_matches_naive() {
        let p = EdwardsPoint::basepoint().mul_scalar_naive(&Scalar::from_u64(99));
        let table = FixedWindowTable::new(&p);
        let h = crate::sha2::sha512(b"table scalar");
        let s = Scalar::from_bytes_mod_order(&h);
        assert!(table.mul(&s).equals(&p.mul_scalar_naive(&s)));
        assert!(table.mul(&Scalar::ZERO).equals(&EdwardsPoint::identity()));
    }

    /// `[s]B` through the affine table against the double-and-add
    /// oracle on the same 32 bytes, compared as compressed encodings.
    /// (`mul_bytes` takes the raw bytes; `B` has order ℓ, so reducing
    /// them first for the table names the same point.)
    fn assert_basepoint_table_matches_mul_bytes(bytes: &[u8; 32]) {
        let fast = basepoint_table().mul(&Scalar::from_bytes_mod_order(bytes));
        let naive = EdwardsPoint::basepoint().mul_bytes(bytes);
        assert_eq!(fast.compress(), naive.compress(), "{}", hex::encode(bytes));
    }

    #[test]
    fn basepoint_table_matches_mul_bytes_on_single_bits_and_edges() {
        for bit in 0..256 {
            let mut bytes = [0u8; 32];
            bytes[bit / 8] = 1 << (bit % 8);
            assert_basepoint_table_matches_mul_bytes(&bytes);
        }
        assert_basepoint_table_matches_mul_bytes(&[0u8; 32]);
        let l_minus_one = l_minus_one();
        assert_basepoint_table_matches_mul_bytes(&l_minus_one.to_bytes());
        // [ℓ − 1]B = −B.
        assert!(basepoint_table()
            .mul(&l_minus_one)
            .equals(&EdwardsPoint::basepoint().neg()));
    }

    /// Asserts that `entries` is the `rows × per_row` layout of
    /// `table_entries(p, rows, per_row, spacing)`: each entry a curve
    /// point (−x² + y² = 1 + d·x²·y²) with third coordinate 2d·x·y, and
    /// entry (i, j) equal to (j+1)·2^(spacing·i)·P.
    fn assert_affine_layout(
        entries: &[AffineNiels],
        p: &EdwardsPoint,
        (rows, per_row, spacing): (usize, usize, usize),
    ) {
        assert_eq!(entries.len(), rows * per_row);
        let half = Fe::from_u64(2).invert();
        let mut base = *p; // 2^(spacing·i)·P
        for row in entries.chunks_exact(per_row) {
            let mut expected = base;
            for n in row {
                let x = n.y_plus_x.sub(&n.y_minus_x).mul(&half);
                let y = n.y_plus_x.add(&n.y_minus_x).mul(&half);
                let (x2, y2) = (x.square(), y.square());
                assert_eq!(y2.sub(&x2), x2.mul(&y2).mul(&d()).add(&Fe::ONE));
                assert_eq!(n.xy2d, x.mul(&y).mul(&d2()));
                assert_eq!(x.mul(&expected.z), expected.x);
                assert_eq!(y.mul(&expected.z), expected.y);
                expected = expected.add(&base);
            }
            base = base.mul_bytes(&Scalar::from_u64(1 << spacing).to_bytes());
        }
    }

    #[test]
    fn affine_basepoint_entries_are_normalised_curve_points() {
        let layout = (32, 128, 8);
        assert_affine_layout(
            &basepoint_table().entries,
            &EdwardsPoint::basepoint(),
            layout,
        );
    }

    /// The per-author table's layout and its size, the memory each
    /// prepared-key cache entry holds: 16 rows of 8 affine entries of
    /// 120 bytes, 15 360 bytes (the projective radix-16 table it replaced
    /// held 512 entries of 160 bytes, 81 920).
    #[test]
    fn comb_table_is_128_affine_entries_in_15_kib() {
        let p = EdwardsPoint::basepoint().mul_scalar_naive(&Scalar::from_u64(99));
        let prepared = PreparedVerifyingKey::new(&VerifyingKey(p.neg().compress())).unwrap();
        let entries = &prepared.neg_table.entries;
        assert_affine_layout(entries, &p, (COMB_ROWS, 8, 16));
        assert_eq!(std::mem::size_of::<AffineNiels>(), 120);
        assert_eq!(std::mem::size_of_val(entries.as_slice()), 15_360);
        assert_eq!(prepared.table_bytes(), 15_360);
        assert_eq!(entries.capacity(), entries.len());
    }

    /// ℓ − 1, the largest canonical scalar.
    fn l_minus_one() -> Scalar {
        let bytes = hex::decode_array::<32>(
            "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010",
        )
        .unwrap();
        let l_minus_one = Scalar::from_canonical_bytes(&bytes).expect("ℓ − 1 is canonical");
        assert_eq!(l_minus_one.add(&Scalar::ONE), Scalar::ZERO);
        l_minus_one
    }

    /// The scalars at the comb's edges: 0, 1, ℓ − 1; the canonical
    /// scalar whose radix-16 digits 0–62 are all −8 (nibbles 8, 7, …, 7,
    /// 0; digit 63 is then 1, since −8 there would leave a carry out of
    /// the top); and 2^252 − 1, whose digit-0 borrow carries through 62
    /// zero digits into digit 63. Each recoding is checked.
    fn comb_edge_scalars() -> Vec<Scalar> {
        let mut all_minus_eight = [0x77u8; 32];
        all_minus_eight[0] = 0x78;
        all_minus_eight[31] = 0x07;
        let all_minus_eight = Scalar::from_canonical_bytes(&all_minus_eight).unwrap();
        let digits = all_minus_eight.to_radix16();
        assert!(digits[..63].iter().all(|&d| d == -8), "{digits:?}");
        assert_eq!(digits[63], 1);
        let mut top_carry = [0xffu8; 32];
        top_carry[31] = 0x0f;
        let top_carry = Scalar::from_canonical_bytes(&top_carry).unwrap();
        let digits = top_carry.to_radix16();
        assert_eq!((digits[0], digits[63]), (-1, 1));
        assert!(digits[1..63].iter().all(|&d| d == 0));
        vec![
            Scalar::ZERO,
            Scalar::ONE,
            l_minus_one(),
            all_minus_eight,
            top_carry,
        ]
    }

    /// `[i]T` for `i < 8` and `T` the order-8 point the batch tests
    /// also use.
    fn torsion() -> Vec<EdwardsPoint> {
        let enc = hex::decode_array::<32>(
            "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
        )
        .unwrap();
        let t = EdwardsPoint::decompress(&enc).unwrap();
        assert!(t.is_small_order() && !t.doublings(2).equals(&EdwardsPoint::identity()));
        let mut points = vec![EdwardsPoint::identity()];
        for i in 1..8 {
            points.push(points[i - 1].add(&t));
        }
        points
    }

    /// Points of prime order, with every small-order component added,
    /// and points decompressed from arbitrary bytes (mostly of mixed
    /// order).
    fn comb_edge_points() -> Vec<EdwardsPoint> {
        let prime = basepoint_table().mul(&Scalar::from_bytes_mod_order(&sha512(b"comb point")));
        let mut points: Vec<EdwardsPoint> = torsion().iter().map(|t| prime.add(t)).collect();
        points.extend(
            (0u8..=255)
                .filter_map(|y| {
                    let mut enc = sha256(&[y]);
                    enc[31] &= 0x7f;
                    EdwardsPoint::decompress(&enc)
                })
                .take(4),
        );
        points
    }

    /// The comb against the double-and-add oracle on the raw bytes of
    /// each edge scalar, through the table `PreparedVerifyingKey::verify`
    /// and `verify_batch`'s per-key sums read (`neg_table` of the key).
    #[test]
    fn comb_matches_mul_bytes_on_edge_scalars_and_mixed_order_points() {
        let scalars = comb_edge_scalars();
        for p in comb_edge_points() {
            let prepared = PreparedVerifyingKey::new(&VerifyingKey(p.compress())).unwrap();
            let (table, neg) = (FixedWindowTable::new(&p), p.neg());
            for s in &scalars {
                let bytes = s.to_bytes();
                assert_eq!(table.mul(s).compress(), p.mul_bytes(&bytes).compress());
                let want = neg.mul_bytes(&bytes).compress();
                assert_eq!(prepared.neg_table.mul(s).compress(), want);
            }
        }
    }

    /// A key with a small-order component signs: `A = [a]B + T`, `R =
    /// [r]B`, `s = r + k·a`, so the residue `[s]B − [k]A − R = −[k]T` is
    /// small-order and the cofactored predicate accepts, unless `s` is
    /// off by one. The prepared verification and a batch of the key's
    /// signatures — its per-key sum through the comb — agree with the
    /// oracle on every torsion component.
    #[test]
    fn mixed_order_keys_verify_alike_through_the_comb() {
        let a = Scalar::from_bytes_mod_order(&sha512(b"mixed key"));
        for (i, t) in torsion().iter().enumerate() {
            let key = VerifyingKey(basepoint_table().mul(&a).add(t).compress());
            let signed: Vec<(Vec<u8>, Signature)> = (0..6u8)
                .map(|m| {
                    let msg = vec![m; 9];
                    let r = Scalar::from_bytes_mod_order(&sha512(&[m, i as u8]));
                    let r_enc = basepoint_table().mul(&r).compress();
                    let mut sig = [0u8; 64];
                    sig[..32].copy_from_slice(&r_enc);
                    let mut h = Sha512::new();
                    h.update(&r_enc);
                    h.update(&key.0);
                    h.update(&msg);
                    let k = Scalar::from_bytes_mod_order(&h.finalize());
                    let s = if m == 5 {
                        k.muladd(&a, &r).add(&Scalar::ONE)
                    } else {
                        k.muladd(&a, &r)
                    };
                    sig[32..].copy_from_slice(&s.to_bytes());
                    (msg, Signature(sig))
                })
                .collect();
            let prepared = PreparedVerifyingKey::new(&key).unwrap();
            for (m, (msg, sig)) in signed.iter().enumerate() {
                let expect = key.verify_naive(msg, sig);
                assert_eq!(expect, m != 5, "[{i}]T, message {m}");
                assert_eq!(prepared.verify(msg, sig), expect, "[{i}]T, message {m}");
            }
            let items: Vec<_> = signed
                .iter()
                .map(|(msg, sig)| (&key, msg.as_slice(), sig))
                .collect();
            assert!(verify_split(&items[..5], 1), "[{i}]T: five honest");
            assert!(!verify_split(&items, 1), "[{i}]T: one off by one");
        }
    }

    #[test]
    fn doublings_without_t_then_an_addition_match_mul_bytes() {
        // [2^n]P + P for chains of T-less doublings of every length a
        // w-NAF gap or the cofactor check uses, against the oracle on
        // the scalar 2^n + 1; the addition reads the last doubling's T.
        let p = EdwardsPoint::basepoint().mul_bytes(&Scalar::from_u64(1234567).to_bytes());
        for n in 0..12 {
            let chained = p.doublings(n).add(&p);
            let expected = p.mul_bytes(&Scalar::from_u64((1 << n) + 1).to_bytes());
            assert_eq!(chained.compress(), expected.compress(), "n = {n}");
            let expected_t = chained.x.mul(&chained.y);
            assert_eq!(chained.t.mul(&chained.z), expected_t, "T of n = {n}");
        }
    }

    #[test]
    fn mixed_subtraction_is_addition_of_the_negation() {
        let q = EdwardsPoint::basepoint().mul_scalar_naive(&Scalar::from_u64(1234567));
        let p = EdwardsPoint::basepoint().mul_scalar_naive(&Scalar::from_u64(89));
        let affine = AffineNiels::batch(&[p])[0];
        for negate in [false, true] {
            let expected = if negate { q.add(&p.neg()) } else { q.add(&p) };
            assert!(q.add_pniels(&p.to_pniels(), negate).equals(&expected));
            assert!(q.add_affine_niels(&affine, negate).equals(&expected));
        }
        // The neutral element on either side, and a point minus itself.
        let id = EdwardsPoint::identity();
        assert!(id.add_affine_niels(&affine, true).equals(&p.neg()));
        assert!(p.add_affine_niels(&affine, true).equals(&id));
        assert!(p.add_pniels(&id.to_pniels(), true).equals(&p));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn basepoint_table_matches_mul_bytes(bytes in proptest::prop::array::uniform32(proptest::any::<u8>())) {
            assert_basepoint_table_matches_mul_bytes(&bytes);
        }
    }

    /// The body `decompress` had before it dropped the inversion
    /// (`(u/v)^((p+3)/8)` computed literally), kept as its oracle.
    fn decompress_reference(bytes: &[u8; 32]) -> Option<EdwardsPoint> {
        let y = Fe::from_bytes(bytes);
        let sign = (bytes[31] >> 7) & 1;
        let y2 = y.square();
        let u = y2.sub(&Fe::ONE);
        let v = y2.mul(&d()).add(&Fe::ONE);
        let x_candidate = u.mul(&v.invert()).pow_p38();
        let vx2 = v.mul(&x_candidate.square());
        let x = if vx2 == u {
            x_candidate
        } else if vx2 == u.neg() {
            x_candidate.mul(&sqrt_m1())
        } else {
            return None;
        };
        if x.is_zero() && sign == 1 {
            return None;
        }
        let x = if (x.is_negative() as u8) != sign {
            x.neg()
        } else {
            x
        };
        Some(EdwardsPoint {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(&y),
        })
    }

    fn assert_decompress_matches_reference(bytes: &[u8; 32]) {
        match (EdwardsPoint::decompress(bytes), decompress_reference(bytes)) {
            (None, None) => {}
            (Some(new), Some(old)) => {
                let same = new.x == old.x && new.y == old.y && new.z == old.z && new.t == old.t;
                assert!(same, "coordinates differ for {}", crate::hex::encode(bytes));
            }
            (new, old) => panic!(
                "{}: new {:?}, reference {:?}",
                crate::hex::encode(bytes),
                new.is_some(),
                old.is_some()
            ),
        }
    }

    #[test]
    fn decompress_matches_reference_on_edge_encodings() {
        // Small y (torsion points among them), y around p, both signs.
        for low in 0..=255u8 {
            for sign in [0u8, 0x80] {
                let mut small = [0u8; 32];
                small[0] = low;
                small[31] = sign;
                assert_decompress_matches_reference(&small);
                let mut near_p = [0xffu8; 32];
                near_p[0] = low;
                near_p[31] = 0x7f | sign;
                assert_decompress_matches_reference(&near_p);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn decompress_matches_reference_body(bytes in proptest::prop::array::uniform32(proptest::any::<u8>())) {
            assert_decompress_matches_reference(&bytes);
            // And on a certain curve point derived from the same bytes.
            let on_curve = basepoint_table()
                .mul(&Scalar::from_bytes_mod_order(&bytes))
                .compress();
            assert_decompress_matches_reference(&on_curve);
            assert!(EdwardsPoint::decompress(&on_curve).is_some());
        }
    }

    #[test]
    fn non_canonical_r_encodings_are_refused() {
        // p − 1 (y = −1, the order-2 point) is the largest canonical y.
        let mut enc = [0xffu8; 32];
        enc[31] = 0x7f;
        enc[0] = 0xec;
        assert!(EdwardsPoint::decompress_canonical(&enc).is_some());
        // p + 0 and p + 1 name y = 0 and y = 1 again: `decompress`
        // reduces them, the signature path must not.
        for low in [0xedu8, 0xee] {
            enc[0] = low;
            assert!(EdwardsPoint::decompress(&enc).is_some());
            assert!(EdwardsPoint::decompress_canonical(&enc).is_none());
        }
        // Everything up to 2^255 − 1, with either sign bit.
        for low in 0xed..=0xffu8 {
            for top in [0x7fu8, 0xff] {
                enc[0] = low;
                enc[31] = top;
                assert!(EdwardsPoint::decompress_canonical(&enc).is_none());
            }
        }
    }

    /// The split forced to 1, 2, 3 and 8 parts, whatever this machine's
    /// core count: an honest batch passes every split, and a forgery at
    /// either end of any part — the caller's or a worker's — fails it.
    #[test]
    fn every_split_gives_the_one_verdict() {
        // 72 signatures of two authors: even 8 parts of 9 are each a
        // combination, not the serial fallback.
        let authors = [0x61u8, 0x62].map(|seed| SigningKey::from_seed([seed; 32]));
        let signed: Vec<(VerifyingKey, Vec<u8>, Signature)> = (0..72usize)
            .map(|i| {
                let sk = &authors[i % 2];
                let msg = format!("split {i}").into_bytes();
                (sk.verifying_key(), msg.clone(), sk.sign(&msg))
            })
            .collect();
        let items: Vec<_> = signed
            .iter()
            .map(|(k, m, s)| (k, m.as_slice(), s))
            .collect();
        let n = items.len();
        for parts in [1, 2, 3, 8] {
            assert!(verify_split(&items, parts), "honest, {parts} parts");
            for p in 0..parts {
                for at in [p * n / parts, (p + 1) * n / parts - 1] {
                    let mut forged = items.clone();
                    forged[at].1 = b"not what was signed";
                    assert!(
                        !verify_split(&forged, parts),
                        "forgery at {at} (part {p} of {parts}) accepted"
                    );
                }
            }
        }
    }

    #[test]
    fn decompress_garbage_fails() {
        // Roughly half of all y-coordinates are not on the curve; scan a
        // few candidates and require at least one rejection.
        let mut found_invalid = false;
        for b0 in 0..=16u8 {
            let mut candidate = [0u8; 32];
            candidate[0] = b0;
            candidate[1] = 0x5a;
            if EdwardsPoint::decompress(&candidate).is_none() {
                found_invalid = true;
                break;
            }
        }
        assert!(found_invalid, "expected some non-point encodings");
    }
}
