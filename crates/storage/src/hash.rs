//! The shared key hasher.
//!
//! Every map that resolves an equality key hashes with this one
//! multiplicative (Fibonacci-style) mix: the per-column dictionaries and
//! [`pair_key`](crate::pair_key)-chained links of [`KeyIndex`](crate::KeyIndex),
//! the per-chunk key coding of the batch evaluator, and the reference
//! implementation's [`HashIndex`](crate::HashIndex). The default SipHash
//! costs more per lookup than the bucket scan it guards.
//!
//! The mix is unkeyed and fixed, so it is not adversary-free. Keys come from
//! the indexed relations, and a client chooses those through `ingest`: keys
//! crafted to collide in a column dictionary would make a base build or an
//! index build quadratic in the colliding keys. Folding a per-process seed
//! into `mix` is ROADMAP item 7.

use std::hash::{BuildHasherDefault, Hasher};

/// One mixing step: rotate-xor-multiply. The constant is a 64-bit prime with
/// good avalanche behavior under multiplication; the rotate feeds high bits
/// back down so consecutive keys don't collide in the low bits HashMap uses.
#[inline]
fn mix(state: u64, v: u64) -> u64 {
    (state.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Multiplicative hasher shared by every probe-key map. Every write path —
/// whole words and byte streams alike — funnels through the same [`mix`]
/// step, so two call sites hashing the same logical key always agree.
#[derive(Debug, Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = mix(self.0, byte as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.0 = mix(self.0, v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = mix(self.0, v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = mix(self.0, v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.0 = mix(self.0, v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.0 = mix(self.0, v as u64);
    }
}

/// `BuildHasher` for probe-key maps: `HashMap<K, V, KeyBuildHasher>`.
pub type KeyBuildHasher = BuildHasherDefault<KeyHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        KeyBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_value_sensitive() {
        assert_eq!(hash_of(&42i64), hash_of(&42i64));
        assert_ne!(hash_of(&42i64), hash_of(&43i64));
        assert_ne!(hash_of(&0i64), hash_of(&1i64));
    }

    #[test]
    fn adversarial_key_shapes_stay_distinct() {
        // Multiples of large powers of two defeat a bare multiplicative hash
        // (the product's low bits go to zero); the rotate step must keep them
        // apart. Also the classic boundary values.
        let keys = [
            0i64,
            1,
            -1,
            i64::MIN,
            i64::MAX,
            1 << 40,
            2 << 40,
            3 << 40,
            -(1 << 40),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(hash_of(a), hash_of(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn value_keys_hash_consistently() {
        // Dictionaries hash whole values; equal keys must agree and the
        // discriminant must separate same-payload values of different types.
        let a = vec![Value::Int(7), Value::str("NY")];
        let b = vec![Value::Int(7), Value::str("NY")];
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(hash_of(&Value::Int(0)), hash_of(&Value::Float(0.0)));
        assert_ne!(hash_of(&Value::Null), hash_of(&Value::Int(0)));
    }
}
