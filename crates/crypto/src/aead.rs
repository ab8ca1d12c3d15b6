//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).

use crate::chacha20::{chacha20_block, chacha20_xor};
use crate::error::CryptoError;
use crate::hmac::ct_eq;
use crate::poly1305::Poly1305;

/// Length of the authentication tag in bytes.
pub const TAG_LEN: usize = 16;

fn compute_tag(poly_key: &[u8; 32], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
    let mut mac = Poly1305::new(poly_key);
    mac.update(aad);
    let pad1 = (16 - aad.len() % 16) % 16;
    mac.update(&[0u8; 16][..pad1]);
    mac.update(ciphertext);
    let pad2 = (16 - ciphertext.len() % 16) % 16;
    mac.update(&[0u8; 16][..pad2]);
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(ciphertext.len() as u64).to_le_bytes());
    mac.finalize()
}

fn poly_key(key: &[u8; 32], nonce: &[u8; 12]) -> [u8; 32] {
    let block0 = chacha20_block(key, 0, nonce);
    let mut pk = [0u8; 32];
    pk.copy_from_slice(&block0[..32]);
    pk
}

/// Encrypts `plaintext` with associated data `aad`, returning
/// `ciphertext || tag`.
pub fn seal(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut out = plaintext.to_vec();
    chacha20_xor(key, 1, nonce, &mut out);
    let tag = compute_tag(&poly_key(key, nonce), aad, &out);
    out.extend_from_slice(&tag);
    out
}

/// Decrypts `ciphertext_and_tag` produced by [`seal`], verifying the tag
/// before returning the plaintext.
///
/// # Errors
///
/// Returns [`CryptoError::AeadTagMismatch`] if the tag does not verify
/// (wrong key/nonce, tampered ciphertext or associated data) and
/// [`CryptoError::Truncated`] if the input is shorter than a tag.
pub fn open(
    key: &[u8; 32],
    nonce: &[u8; 12],
    aad: &[u8],
    ciphertext_and_tag: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    if ciphertext_and_tag.len() < TAG_LEN {
        return Err(CryptoError::Truncated);
    }
    let (ciphertext, tag) = ciphertext_and_tag.split_at(ciphertext_and_tag.len() - TAG_LEN);
    let expected = compute_tag(&poly_key(key, nonce), aad, ciphertext);
    if !ct_eq(&expected, tag) {
        return Err(CryptoError::AeadTagMismatch);
    }
    let mut out = ciphertext.to_vec();
    chacha20_xor(key, 1, nonce, &mut out);
    Ok(out)
}

/// Builds a 12-byte nonce from a 4-byte prefix and a 64-bit counter,
/// the layout used by the session layer (prefix ‖ counter_le).
pub fn counter_nonce(prefix: u32, counter: u64) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[..4].copy_from_slice(&prefix.to_le_bytes());
    nonce[4..].copy_from_slice(&counter.to_le_bytes());
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 8439 §2.8.2 test vector.
    #[test]
    fn rfc8439_seal() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = 0x80 + i as u8;
        }
        let nonce = hex::decode_array::<12>("070000004041424344454647").unwrap();
        let aad = hex::decode("50515253c0c1c2c3c4c5c6c7").unwrap();
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let sealed = seal(&key, &nonce, &aad, plaintext);
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        assert_eq!(
            hex::encode(&ct[..32]),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
        );
        assert_eq!(hex::encode(tag), "1ae10b594f09e26a7e902ecbd0600691");
        let opened = open(&key, &nonce, &aad, &sealed).unwrap();
        assert_eq!(opened, plaintext);
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut sealed = seal(&key, &nonce, b"aad", b"hello world");
        sealed[0] ^= 1;
        assert_eq!(
            open(&key, &nonce, b"aad", &sealed),
            Err(CryptoError::AeadTagMismatch)
        );
    }

    #[test]
    fn tampered_aad_rejected() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let sealed = seal(&key, &nonce, b"aad", b"hello world");
        assert_eq!(
            open(&key, &nonce, b"aae", &sealed),
            Err(CryptoError::AeadTagMismatch)
        );
    }

    #[test]
    fn wrong_nonce_rejected() {
        let key = [1u8; 32];
        let sealed = seal(&key, &[2u8; 12], b"", b"payload");
        assert!(open(&key, &[3u8; 12], b"", &sealed).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        assert_eq!(
            open(&[0u8; 32], &[0u8; 12], b"", &[1, 2, 3]),
            Err(CryptoError::Truncated)
        );
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let key = [9u8; 32];
        let nonce = counter_nonce(7, 42);
        let sealed = seal(&key, &nonce, b"context", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(open(&key, &nonce, b"context", &sealed).unwrap(), b"");
    }

    #[test]
    fn counter_nonce_layout() {
        let n = counter_nonce(0x01020304, 0x05060708090a0b0c);
        assert_eq!(&n[..4], &[0x04, 0x03, 0x02, 0x01]);
        assert_eq!(&n[4..], &[0x0c, 0x0b, 0x0a, 0x09, 0x08, 0x07, 0x06, 0x05]);
    }
}
