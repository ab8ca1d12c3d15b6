//! The ChaCha20 stream cipher (RFC 8439 §2.3–2.4).

/// "expand 32-byte k" — the ChaCha constant words.
const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The 16-word input state of block `counter`: constants, key,
/// counter, nonce.
fn initial_state(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u32; 16] {
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    for (slot, bytes) in state[4..12].iter_mut().zip(key.chunks_exact(4)) {
        *slot = word(bytes);
    }
    state[12] = counter;
    for (slot, bytes) in state[13..].iter_mut().zip(nonce.chunks_exact(4)) {
        *slot = word(bytes);
    }
    state
}

/// The 16 keystream words of the block whose input state is `state`.
fn keystream_words(state: &[u32; 16]) -> [u32; 16] {
    let mut working = *state;
    for _ in 0..10 {
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    for (word, input) in working.iter_mut().zip(state) {
        *word = word.wrapping_add(*input);
    }
    working
}

/// Computes one 64-byte ChaCha20 keystream block.
pub fn chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    let words = keystream_words(&initial_state(key, counter, nonce));
    let mut out = [0u8; 64];
    for (bytes, word) in out.chunks_exact_mut(4).zip(words) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Encrypts or decrypts `data` in place with the keystream starting at block
/// `counter` (the operation is its own inverse).
///
/// The state is parsed from key and nonce once per call; each 64-byte
/// block only bumps the counter word and XORs word-wise.
pub fn chacha20_xor(key: &[u8; 32], counter: u32, nonce: &[u8; 12], data: &mut [u8]) {
    let mut state = initial_state(key, counter, nonce);
    for chunk in data.chunks_mut(64) {
        let keystream = keystream_words(&state);
        state[12] = state[12].wrapping_add(1);
        let whole_words = chunk.len() / 4;
        let mut quads = chunk.chunks_exact_mut(4);
        for (quad, word) in quads.by_ref().zip(keystream) {
            let mixed = u32::from_le_bytes([quad[0], quad[1], quad[2], quad[3]]) ^ word;
            quad.copy_from_slice(&mixed.to_le_bytes());
        }
        // A final short chunk may end inside a word.
        let tail_key = keystream
            .get(whole_words)
            .map_or([0; 4], |w| w.to_le_bytes());
        for (byte, k) in quads.into_remainder().iter_mut().zip(tail_key) {
            *byte ^= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn test_key() -> [u8; 32] {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        key
    }

    // RFC 8439 §2.3.2 block function test vector.
    #[test]
    fn rfc8439_block() {
        let key = test_key();
        let nonce = hex::decode_array::<12>("000000090000004a00000000").unwrap();
        let block = chacha20_block(&key, 1, &nonce);
        assert_eq!(
            hex::encode(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    // RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encrypt() {
        let key = test_key();
        let nonce = hex::decode_array::<12>("000000000000004a00000000").unwrap();
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        chacha20_xor(&key, 1, &nonce, &mut data);
        assert_eq!(
            hex::encode(&data[..64]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
        );
        // Round-trips back to the plaintext.
        chacha20_xor(&key, 1, &nonce, &mut data);
        assert_eq!(&data, plaintext);
    }

    #[test]
    fn xor_equals_the_block_function_at_every_length() {
        // Lengths that end on a block, on a word and inside a word, and
        // a counter that wraps.
        let key = test_key();
        let nonce = [3u8; 12];
        for counter in [0u32, 7, u32::MAX] {
            for len in 0..=200usize {
                let mut data: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
                let expected: Vec<u8> = data
                    .iter()
                    .enumerate()
                    .map(|(i, b)| {
                        let block = counter.wrapping_add((i / 64) as u32);
                        b ^ chacha20_block(&key, block, &nonce)[i % 64]
                    })
                    .collect();
                chacha20_xor(&key, counter, &nonce, &mut data);
                assert_eq!(data, expected, "counter {counter}, {len} bytes");
            }
        }
    }

    #[test]
    fn keystream_blocks_are_contiguous() {
        let key = test_key();
        let nonce = [7u8; 12];
        let mut long = vec![0u8; 200];
        chacha20_xor(&key, 5, &nonce, &mut long);
        // Encrypting in two pieces with matching counters must agree.
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 136];
        chacha20_xor(&key, 5, &nonce, &mut a);
        chacha20_xor(&key, 6, &nonce, &mut b);
        assert_eq!(&long[..64], &a[..]);
        assert_eq!(&long[64..], &b[..]);
    }
}
