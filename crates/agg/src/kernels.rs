//! Typed aggregate kernels for the vectorized executor.
//!
//! The scalar path folds every matching detail value through a
//! `Box<dyn AggState>::update(&Value)` virtual call. For the distributive /
//! algebraic core (`count`, `sum`, `min`, `max`, `avg`) the same accumulation
//! can run over native `i64`/`f64` slices with one dispatch per *run* of
//! matched tuples instead of one per value. A [`KernelState`] replicates the
//! corresponding builtin state machine bit-for-bit — same integer/float sum
//! split, same NULL handling, same `BadInput` errors, same finalize — so the
//! vectorized executor's output is row-identical to the scalar one.
//!
//! # Loop shape
//!
//! The batch entry points ([`KernelState::update_ints`] /
//! [`KernelState::update_floats`]) are *chunked and branch-free*: the
//! selection is walked in fixed [`CHUNK`]-slot strides, each stride gathered
//! into a stack buffer with NULLs substituted arithmetically (no data-
//! dependent branches), and the stride then reduced. Reductions that are
//! reassociative (`i64` wrapping sums, counts, min/max) go through
//! [`reduce`], which autovectorizes and — with the `simd` cargo feature on
//! `x86_64` — dispatches to AVX2 intrinsics behind a runtime
//! `is_x86_feature_detected!` check with a scalar fallback.
//!
//! # Accumulation-order guarantee
//!
//! `f64` sums are **not** reassociated: the masked stride is folded
//! sequentially in selection order, so float accumulation order — and hence
//! every output bit — is identical to the per-value path. Masking a NULL slot
//! to `+0.0` is bit-safe: the accumulator starts at `+0.0` and can never
//! become `-0.0` (`x + 0.0` only yields `-0.0` when both operands are
//! `-0.0`), and quiet-NaN payloads survive `+ 0.0`. Min/max reductions over
//! `total_cmp` (and over `i64`) are tie-free — equal keys are bit-identical —
//! so any reduction order, including SIMD, finalizes the same bits.
//!
//! Coverage is declared by the aggregate itself via
//! [`Aggregate::kernel`](crate::Aggregate::kernel): the builtins override it,
//! everything else (holistic, user-defined) returns `None` and keeps the
//! `AggState` fallback. Detection is per *instance*, not per name, so a UDAF
//! registered under the name `"sum"` is never mistaken for the builtin.

use crate::builtins::checked_acc;
use crate::error::{AggError, Result};
use mdj_storage::Value;

/// Fixed gather-stride width for the batch update loops. Small enough to
/// live on the stack, large enough that the gather and reduction phases
/// amortize loop overhead and vectorize cleanly.
pub const CHUNK: usize = 64;

fn bad_input(function: &str, v: &Value) -> AggError {
    AggError::BadInput {
        function: function.to_string(),
        got: v.type_name().to_string(),
    }
}

/// Gather one selection stride of an `i64` column into `buf`, substituting
/// `null_sub` for SQL-NULL slots with arithmetic masking (branch-free).
/// Returns the number of non-NULL slots gathered.
#[inline]
fn gather_ints(
    vals: &[i64],
    nulls: &[bool],
    sel: &[u32],
    null_sub: i64,
    buf: &mut [i64; CHUNK],
) -> u64 {
    let mut kept = 0u64;
    for (slot, &i) in buf.iter_mut().zip(sel) {
        let i = i as usize;
        let keep = !nulls[i] as i64; // 0 or 1, no branch
        let mask = keep.wrapping_neg(); // 0 or all-ones
        *slot = (vals[i] & mask) | (null_sub & !mask);
        kept += keep as u64;
    }
    kept
}

/// Gather one selection stride of an `f64` column as raw bits, masking
/// SQL-NULL slots to `null_sub` (branch-free). Returns the non-NULL count.
#[inline]
fn gather_float_bits(
    vals: &[f64],
    nulls: &[bool],
    sel: &[u32],
    null_sub: u64,
    buf: &mut [u64; CHUNK],
) -> u64 {
    let mut kept = 0u64;
    for (slot, &i) in buf.iter_mut().zip(sel) {
        let i = i as usize;
        let keep = !nulls[i] as u64;
        let mask = keep.wrapping_neg();
        *slot = (vals[i].to_bits() & mask) | (null_sub & !mask);
        kept += keep;
    }
    kept
}

/// Monotone key: `a.total_cmp(&b)` agrees with `u64` order of
/// `f64_total_key(a.to_bits())` vs `f64_total_key(b.to_bits())`. Equal keys
/// are bit-identical floats, so min/max over keys is tie-free.
#[inline(always)]
fn f64_total_key(bits: u64) -> u64 {
    bits ^ ((((bits as i64) >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// Inverse of [`f64_total_key`].
#[inline(always)]
fn f64_from_total_key(key: u64) -> f64 {
    let m = ((key as i64) >> 63) as u64; // all-ones iff original sign bit was 0
    f64::from_bits(key ^ ((m & 0x8000_0000_0000_0000) | !m))
}

/// Reassociative stride reductions. Scalar bodies are plain folds that
/// autovectorize; with the `simd` feature on `x86_64` they dispatch to AVX2
/// behind a runtime CPU check (scalar fallback otherwise). All callers rely
/// only on the *result*, which is order-independent for these operations.
pub mod reduce {
    /// Wrapping sum of `i64` lanes (order-free by modular arithmetic).
    #[allow(unsafe_code)]
    pub fn sum_i64(v: &[i64]) -> i64 {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support verified at runtime on this CPU.
            return unsafe { x86::sum_i64(v) };
        }
        v.iter().fold(0i64, |a, &x| a.wrapping_add(x))
    }

    /// Maximum `i64` lane, folding from the identity `i64::MIN`.
    #[allow(unsafe_code)]
    pub fn max_i64(v: &[i64]) -> i64 {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support verified at runtime on this CPU.
            return unsafe { x86::max_i64(v) };
        }
        v.iter().fold(i64::MIN, |a, &x| a.max(x))
    }

    /// Minimum `i64` lane, folding from the identity `i64::MAX`.
    #[allow(unsafe_code)]
    pub fn min_i64(v: &[i64]) -> i64 {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support verified at runtime on this CPU.
            return unsafe { x86::min_i64(v) };
        }
        v.iter().fold(i64::MAX, |a, &x| a.min(x))
    }

    /// Maximum `u64` lane, folding from the identity `0`.
    #[allow(unsafe_code)]
    pub fn max_u64(v: &[u64]) -> u64 {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support verified at runtime on this CPU.
            return unsafe { x86::max_u64(v) };
        }
        v.iter().fold(0u64, |a, &x| a.max(x))
    }

    /// Minimum `u64` lane, folding from the identity `u64::MAX`.
    #[allow(unsafe_code)]
    pub fn min_u64(v: &[u64]) -> u64 {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support verified at runtime on this CPU.
            return unsafe { x86::min_u64(v) };
        }
        v.iter().fold(u64::MAX, |a, &x| a.min(x))
    }

    /// AVX2 lane reductions. AVX2 has no 64-bit min/max instruction, so
    /// min/max are built from `cmpgt_epi64` + byte blends; unsigned compares
    /// bias both operands by `i64::MIN` first. Every function handles the
    /// `chunks_exact` remainder with the scalar fold.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    mod x86 {
        use core::arch::x86_64::*;

        #[inline]
        #[allow(unsafe_code)]
        fn lanes(acc: __m256i) -> [i64; 4] {
            let mut out = [0i64; 4];
            // SAFETY: `out` is 32 writable bytes; storeu is unaligned-safe.
            unsafe { _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, acc) };
            out
        }

        #[inline]
        #[allow(unsafe_code)]
        fn load(c: &[i64]) -> __m256i {
            debug_assert_eq!(c.len(), 4);
            // SAFETY: `c` spans 4 readable i64s; loadu is unaligned-safe.
            unsafe { _mm256_loadu_si256(c.as_ptr() as *const __m256i) }
        }

        #[target_feature(enable = "avx2")]
        pub fn sum_i64(v: &[i64]) -> i64 {
            let mut acc = _mm256_setzero_si256();
            let mut chunks = v.chunks_exact(4);
            for c in chunks.by_ref() {
                acc = _mm256_add_epi64(acc, load(c));
            }
            let l = lanes(acc);
            let head = l[0]
                .wrapping_add(l[1])
                .wrapping_add(l[2])
                .wrapping_add(l[3]);
            chunks
                .remainder()
                .iter()
                .fold(head, |a, &x| a.wrapping_add(x))
        }

        #[target_feature(enable = "avx2")]
        fn fold_minmax(v: &[i64], identity: i64, bias: i64, want_max: bool) -> i64 {
            let biasv = _mm256_set1_epi64x(bias);
            let mut acc = _mm256_set1_epi64x(identity);
            let mut chunks = v.chunks_exact(4);
            for c in chunks.by_ref() {
                let x = load(c);
                // Signed compare in the biased domain covers both i64
                // (bias = 0) and u64 (bias = i64::MIN) orderings.
                let xb = _mm256_xor_si256(x, biasv);
                let accb = _mm256_xor_si256(acc, biasv);
                let take = if want_max {
                    _mm256_cmpgt_epi64(xb, accb)
                } else {
                    _mm256_cmpgt_epi64(accb, xb)
                };
                acc = _mm256_blendv_epi8(acc, x, take);
            }
            let l = lanes(acc);
            let better = |a: i64, b: i64| {
                let (ab, bb) = (a ^ bias, b ^ bias);
                if want_max == (ab > bb) && ab != bb {
                    a
                } else {
                    b
                }
            };
            let head = better(l[0], better(l[1], better(l[2], l[3])));
            chunks.remainder().iter().fold(head, |a, &x| better(x, a))
        }

        #[target_feature(enable = "avx2")]
        pub fn max_i64(v: &[i64]) -> i64 {
            fold_minmax(v, i64::MIN, 0, true)
        }

        #[target_feature(enable = "avx2")]
        pub fn min_i64(v: &[i64]) -> i64 {
            fold_minmax(v, i64::MAX, 0, false)
        }

        #[target_feature(enable = "avx2")]
        pub fn max_u64(v: &[u64]) -> u64 {
            fold_minmax(bytemuck(v), 0u64 as i64, i64::MIN, true) as u64
        }

        #[target_feature(enable = "avx2")]
        pub fn min_u64(v: &[u64]) -> u64 {
            fold_minmax(bytemuck(v), u64::MAX as i64, i64::MIN, false) as u64
        }

        #[inline]
        #[allow(unsafe_code)]
        fn bytemuck(v: &[u64]) -> &[i64] {
            // SAFETY: u64 and i64 have identical size/alignment; the biased
            // compare in `fold_minmax` reinterprets the bits anyway.
            unsafe { core::slice::from_raw_parts(v.as_ptr() as *const i64, v.len()) }
        }
    }
}

/// Which typed kernel an aggregate maps to. Returned by
/// [`Aggregate::kernel`](crate::Aggregate::kernel) for the covered builtins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// `count(*)` / `count(col)`.
    Count {
        /// True for `count(*)` (counts NULLs too).
        star: bool,
    },
    Sum,
    Avg,
    Min,
    Max,
}

impl KernelKind {
    /// Fresh accumulator for this kernel.
    pub fn init(&self) -> KernelState {
        match self {
            KernelKind::Count { star } => KernelState::Count { star: *star, n: 0 },
            KernelKind::Sum => KernelState::Sum {
                int_sum: 0,
                float_sum: 0.0,
                any_float: false,
                seen: 0,
            },
            KernelKind::Avg => KernelState::Avg { sum: 0.0, n: 0 },
            KernelKind::Min => KernelState::MinMax {
                is_max: false,
                best: None,
            },
            KernelKind::Max => KernelState::MinMax {
                is_max: true,
                best: None,
            },
        }
    }
}

/// Accumulator state of one kernel-covered aggregate for one base row.
///
/// The variants carry exactly the fields of the corresponding builtin states
/// (`CountState`, `SumState`, `AvgState`, `MinMaxState`) so every update path
/// — batched or per-value — produces the same finalized [`Value`].
#[derive(Debug, Clone)]
pub enum KernelState {
    Count {
        star: bool,
        n: i64,
    },
    Sum {
        int_sum: i64,
        float_sum: f64,
        any_float: bool,
        seen: u64,
    },
    Avg {
        sum: f64,
        n: u64,
    },
    MinMax {
        is_max: bool,
        best: Option<Value>,
    },
}

impl KernelState {
    /// Fold a selection of an `i64` column: `sel` indexes into `vals`/`nulls`
    /// (parallel slices), `nulls[i]` true meaning the slot is SQL NULL. One
    /// call covers a whole (base-row, column) run.
    ///
    /// `sum`/`count` report `i64` overflow as [`AggError::Overflow`], at
    /// exactly the value where the scalar interpreter's checked accumulation
    /// would: strides that provably cannot overflow any prefix take the
    /// branch-free reassociated reduction, everything else falls back to a
    /// sequential checked fold in selection order.
    pub fn update_ints(&mut self, vals: &[i64], nulls: &[bool], sel: &[u32]) -> Result<()> {
        match self {
            KernelState::Count { star, n } => {
                let add = if *star {
                    sel.len() as i64
                } else {
                    sel.iter().map(|&i| !nulls[i as usize] as i64).sum::<i64>()
                };
                *n = checked_acc("count", *n, add)?;
            }
            KernelState::Sum { int_sum, seen, .. } => {
                let mut buf = [0i64; CHUNK];
                for stride in sel.chunks(CHUNK) {
                    let kept = gather_ints(vals, nulls, stride, 0, &mut buf);
                    let lanes = &buf[..stride.len()];
                    // O(1) headroom guard: every prefix sum of the stride is
                    // bounded by len·max|lane|, so if the accumulator ± that
                    // span stays in range, no accumulation order can
                    // overflow and the reassociated (SIMD) wrapping
                    // reduction is exact.
                    let big = reduce::max_i64(lanes)
                        .unsigned_abs()
                        .max(reduce::min_i64(lanes).unsigned_abs());
                    let span = lanes.len() as i128 * big as i128;
                    let acc = *int_sum as i128;
                    if acc - span >= i64::MIN as i128 && acc + span <= i64::MAX as i128 {
                        *int_sum = int_sum.wrapping_add(reduce::sum_i64(lanes));
                    } else {
                        // Checked fold in selection order: errors on the
                        // same prefix the per-value path would (e.g.
                        // [MAX, 1, -2] must fail despite an in-range total).
                        let mut acc = *int_sum;
                        for &x in lanes {
                            acc = checked_acc("sum", acc, x)?;
                        }
                        *int_sum = acc;
                    }
                    *seen += kept;
                }
            }
            KernelState::Avg { sum, n } => {
                // Sequential masked fold: float accumulation order must stay
                // identical to the per-value path (see module docs).
                let mut buf = [0u64; CHUNK];
                for stride in sel.chunks(CHUNK) {
                    let mut kept = 0u64;
                    for (slot, &i) in buf.iter_mut().zip(stride) {
                        let i = i as usize;
                        let keep = !nulls[i] as u64;
                        *slot = (vals[i] as f64).to_bits() & keep.wrapping_neg();
                        kept += keep;
                    }
                    for &bits in &buf[..stride.len()] {
                        *sum += f64::from_bits(bits);
                    }
                    *n += kept;
                }
            }
            KernelState::MinMax { is_max, best } => {
                // NULL slots are substituted with the reduction identity, so
                // the tie-free min/max over the stride is exact.
                let sub = if *is_max { i64::MIN } else { i64::MAX };
                let mut buf = [0i64; CHUNK];
                let mut ext: Option<i64> = None;
                for stride in sel.chunks(CHUNK) {
                    let kept = gather_ints(vals, nulls, stride, sub, &mut buf);
                    if kept == 0 {
                        continue;
                    }
                    let run = if *is_max {
                        reduce::max_i64(&buf[..stride.len()])
                    } else {
                        reduce::min_i64(&buf[..stride.len()])
                    };
                    ext = Some(match ext {
                        None => run,
                        Some(cur) if *is_max => cur.max(run),
                        Some(cur) => cur.min(run),
                    });
                }
                if let Some(v) = ext {
                    Self::minmax_consider(best, *is_max, Value::Int(v));
                }
            }
        }
        Ok(())
    }

    /// Fold a selection of an `f64` column (see [`Self::update_ints`]).
    pub fn update_floats(&mut self, vals: &[f64], nulls: &[bool], sel: &[u32]) -> Result<()> {
        match self {
            KernelState::Count { star, n } => {
                let add = if *star {
                    sel.len() as i64
                } else {
                    sel.iter().map(|&i| !nulls[i as usize] as i64).sum::<i64>()
                };
                *n = checked_acc("count", *n, add)?;
            }
            KernelState::Sum {
                float_sum,
                any_float,
                seen,
                ..
            } => {
                // Gather (vectorizes) then sequential masked fold (preserves
                // float accumulation order bit-for-bit; +0.0 padding is
                // bit-safe per the module docs).
                let mut buf = [0u64; CHUNK];
                for stride in sel.chunks(CHUNK) {
                    let kept = gather_float_bits(vals, nulls, stride, 0, &mut buf);
                    for &bits in &buf[..stride.len()] {
                        *float_sum += f64::from_bits(bits);
                    }
                    *any_float |= kept > 0;
                    *seen += kept;
                }
            }
            KernelState::Avg { sum, n } => {
                let mut buf = [0u64; CHUNK];
                for stride in sel.chunks(CHUNK) {
                    let kept = gather_float_bits(vals, nulls, stride, 0, &mut buf);
                    for &bits in &buf[..stride.len()] {
                        *sum += f64::from_bits(bits);
                    }
                    *n += kept;
                }
            }
            KernelState::MinMax { is_max, best } => {
                // total_cmp order ⇔ unsigned order of the monotone key, and
                // equal keys are bit-identical floats, so the reduction is
                // tie-free and any order (incl. SIMD) yields the same bits.
                let sub = if *is_max { 0u64 } else { u64::MAX };
                let mut buf = [0u64; CHUNK];
                let mut ext: Option<u64> = None;
                for stride in sel.chunks(CHUNK) {
                    let mut kept = 0u64;
                    for (slot, &i) in buf.iter_mut().zip(stride) {
                        let i = i as usize;
                        let keep = !nulls[i] as u64;
                        let mask = keep.wrapping_neg();
                        *slot = (f64_total_key(vals[i].to_bits()) & mask) | (sub & !mask);
                        kept += keep;
                    }
                    if kept == 0 {
                        continue;
                    }
                    let run = if *is_max {
                        reduce::max_u64(&buf[..stride.len()])
                    } else {
                        reduce::min_u64(&buf[..stride.len()])
                    };
                    ext = Some(match ext {
                        None => run,
                        Some(cur) if *is_max => cur.max(run),
                        Some(cur) => cur.min(run),
                    });
                }
                if let Some(key) = ext {
                    Self::minmax_consider(best, *is_max, Value::Float(f64_from_total_key(key)));
                }
            }
        }
        Ok(())
    }

    /// Count a run of `n` matching tuples for `count(*)` (no column input).
    pub fn update_star(&mut self, count: u64) -> Result<()> {
        if let KernelState::Count { n, .. } = self {
            let add = i64::try_from(count).map_err(|_| AggError::Overflow { function: "count" })?;
            *n = checked_acc("count", *n, add)?;
        }
        Ok(())
    }

    /// Scalar fallback: fold one [`Value`], exactly like the builtin
    /// `AggState::update`. Used for batches whose column shape has no typed
    /// representation (mixed types, `ALL`, booleans).
    pub fn update_value(&mut self, v: &Value) -> Result<()> {
        match self {
            KernelState::Count { star, n } => {
                if *star || !v.is_null() {
                    *n = checked_acc("count", *n, 1)?;
                }
                Ok(())
            }
            KernelState::Sum {
                int_sum,
                float_sum,
                any_float,
                seen,
            } => match v {
                Value::Null => Ok(()),
                Value::Int(i) => {
                    *int_sum = checked_acc("sum", *int_sum, *i)?;
                    *seen += 1;
                    Ok(())
                }
                Value::Float(f) => {
                    *float_sum += f;
                    *any_float = true;
                    *seen += 1;
                    Ok(())
                }
                other => Err(bad_input("sum", other)),
            },
            KernelState::Avg { sum, n } => match v {
                Value::Null => Ok(()),
                _ => {
                    let f = v.as_float().ok_or_else(|| bad_input("avg", v))?;
                    *sum += f;
                    *n += 1;
                    Ok(())
                }
            },
            KernelState::MinMax { is_max, best } => {
                if !v.is_null() {
                    Self::minmax_consider(best, *is_max, v.clone());
                }
                Ok(())
            }
        }
    }

    fn minmax_consider(best: &mut Option<Value>, is_max: bool, v: Value) {
        let better = match best {
            None => true,
            Some(cur) => {
                if is_max {
                    v > *cur
                } else {
                    v < *cur
                }
            }
        };
        if better {
            *best = Some(v);
        }
    }

    /// Report the aggregate value, with the builtin's empty-input semantics
    /// (`count` → 0, everything else → NULL).
    pub fn finalize(&self) -> Value {
        match self {
            KernelState::Count { n, .. } => Value::Int(*n),
            KernelState::Sum {
                int_sum,
                float_sum,
                any_float,
                seen,
            } => {
                if *seen == 0 {
                    Value::Null
                } else if *any_float {
                    Value::Float(*int_sum as f64 + *float_sum)
                } else {
                    Value::Int(*int_sum)
                }
            }
            KernelState::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(*sum / *n as f64)
                }
            }
            KernelState::MinMax { best, .. } => best.clone().unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins::{Avg, Count, MinMax, Sum};
    use crate::traits::Aggregate;

    fn builtins_and_kernels() -> Vec<(Box<dyn Aggregate>, KernelKind)> {
        vec![
            (
                Box::new(Count { star: true }) as Box<dyn Aggregate>,
                KernelKind::Count { star: true },
            ),
            (
                Box::new(Count { star: false }),
                KernelKind::Count { star: false },
            ),
            (Box::new(Sum), KernelKind::Sum),
            (Box::new(Avg), KernelKind::Avg),
            (Box::new(MinMax { is_max: false }), KernelKind::Min),
            (Box::new(MinMax { is_max: true }), KernelKind::Max),
        ]
    }

    fn mixed_values() -> Vec<Value> {
        vec![
            Value::Int(4),
            Value::Null,
            Value::Float(2.5),
            Value::Int(-7),
            Value::Float(2.5),
            Value::Null,
            Value::Int(i64::MAX),
            Value::Int(1),
        ]
    }

    #[test]
    fn update_value_matches_builtin_state_machine() {
        for (agg, kind) in builtins_and_kernels() {
            let mut boxed = agg.init();
            let mut kernel = kind.init();
            for v in mixed_values() {
                boxed.update(&v).unwrap();
                kernel.update_value(&v).unwrap();
            }
            assert_eq!(boxed.finalize(), kernel.finalize(), "{}", agg.name());
        }
    }

    /// Fold ints through the scalar path, stopping at the first error (the
    /// executor aborts there too).
    fn scalar_fold(agg: &dyn Aggregate, vals: &[i64], nulls: &[bool]) -> Result<Value> {
        let mut boxed = agg.init();
        for (&v, &is_null) in vals.iter().zip(nulls) {
            let v = if is_null { Value::Null } else { Value::Int(v) };
            boxed.update(&v)?;
        }
        Ok(boxed.finalize())
    }

    #[test]
    fn update_ints_matches_per_value_path() {
        // `i64::MAX` makes the sum overflow mid-scan: both paths must agree
        // on the typed error, and on the bits for every other aggregate.
        let vals: Vec<i64> = vec![3, 0, -5, i64::MAX, 3, 9];
        let nulls = vec![false, true, false, false, false, true];
        let sel: Vec<u32> = (0..vals.len() as u32).collect();
        for (agg, kind) in builtins_and_kernels() {
            let scalar = scalar_fold(agg.as_ref(), &vals, &nulls);
            let mut kernel = kind.init();
            let batched = kernel
                .update_ints(&vals, &nulls, &sel)
                .map(|()| kernel.finalize());
            assert_eq!(scalar, batched, "{}", agg.name());
        }
        // Same walk with the extreme pulled back in range: value parity.
        let safe: Vec<i64> = vec![3, 0, -5, i64::MAX / 2, 3, 9];
        for (agg, kind) in builtins_and_kernels() {
            let scalar = scalar_fold(agg.as_ref(), &safe, &nulls).unwrap();
            let mut kernel = kind.init();
            kernel.update_ints(&safe, &nulls, &sel).unwrap();
            assert_eq!(scalar, kernel.finalize(), "{}", agg.name());
        }
    }

    #[test]
    fn update_floats_matches_per_value_path() {
        let vals: Vec<f64> = vec![1.5, 0.0, -0.0, f64::NAN, 2.25, 1.5];
        let nulls = vec![false, false, false, false, true, false];
        let sel: Vec<u32> = (0..vals.len() as u32).collect();
        for (agg, kind) in builtins_and_kernels() {
            let mut boxed = agg.init();
            for (&v, &is_null) in vals.iter().zip(&nulls) {
                let v = if is_null {
                    Value::Null
                } else {
                    Value::Float(v)
                };
                boxed.update(&v).unwrap();
            }
            let mut kernel = kind.init();
            kernel.update_floats(&vals, &nulls, &sel).unwrap();
            // Bit-identical, including NaN / signed-zero handling.
            assert_eq!(boxed.finalize(), kernel.finalize(), "{}", agg.name());
        }
    }

    #[test]
    fn batched_runs_match_one_big_run() {
        // Splitting a selection into several runs must accumulate identically.
        let vals: Vec<i64> = (0..100).map(|i| (i * 7) % 23 - 11).collect();
        let nulls = vec![false; 100];
        let sel: Vec<u32> = (0..100).collect();
        for (_, kind) in builtins_and_kernels() {
            let mut whole = kind.init();
            whole.update_ints(&vals, &nulls, &sel).unwrap();
            let mut split = kind.init();
            for chunk in sel.chunks(7) {
                split.update_ints(&vals, &nulls, chunk).unwrap();
            }
            assert_eq!(whole.finalize(), split.finalize());
        }
    }

    #[test]
    fn long_null_heavy_selections_match_per_value_path() {
        // Cross the CHUNK boundary with NULL-heavy, extreme-valued data so the
        // masked gather / identity-substitution machinery is exercised on
        // every stride shape (full, partial, all-NULL).
        let n = 3 * CHUNK + 17;
        let ivals: Vec<i64> = (0..n)
            .map(|i| match i % 5 {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => -(i as i64),
                _ => i as i64 * 31,
            })
            .collect();
        let fvals: Vec<f64> = (0..n)
            .map(|i| match i % 7 {
                0 => f64::NAN,
                1 => -0.0,
                2 => f64::NEG_INFINITY,
                3 => f64::INFINITY,
                _ => (i as f64) * -0.75,
            })
            .collect();
        let nulls: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let sel: Vec<u32> = (0..n as u32).collect();
        for (agg, kind) in builtins_and_kernels() {
            // The extreme int walk overflows `sum` mid-scan: compare verdicts
            // (typed error included), not just values.
            let scalar_i = scalar_fold(agg.as_ref(), &ivals, &nulls);
            let mut ki = kind.init();
            let kernel_i = ki.update_ints(&ivals, &nulls, &sel).map(|()| ki.finalize());
            assert_eq!(scalar_i, kernel_i, "ints {}", agg.name());
            let mut boxed_f = agg.init();
            for i in 0..n {
                let vf = if nulls[i] {
                    Value::Null
                } else {
                    Value::Float(fvals[i])
                };
                boxed_f.update(&vf).unwrap();
            }
            let mut kf = kind.init();
            kf.update_floats(&fvals, &nulls, &sel).unwrap();
            let (a, b) = (boxed_f.finalize(), kf.finalize());
            match (&a, &b) {
                // NaN != NaN under PartialEq; require bit identity instead.
                (Value::Float(x), Value::Float(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "floats {}", agg.name())
                }
                _ => assert_eq!(a, b, "floats {}", agg.name()),
            }
        }
    }

    #[test]
    fn all_null_selection_leaves_state_untouched() {
        let vals = vec![7i64; CHUNK + 3];
        let nulls = vec![true; CHUNK + 3];
        let sel: Vec<u32> = (0..vals.len() as u32).collect();
        for (_, kind) in builtins_and_kernels() {
            let mut k = kind.init();
            k.update_ints(&vals, &nulls, &sel).unwrap();
            let expected = match kind {
                // count(*) counts NULLs too.
                KernelKind::Count { star: true } => Value::Int(sel.len() as i64),
                KernelKind::Count { star: false } => Value::Int(0),
                _ => Value::Null,
            };
            assert_eq!(k.finalize(), expected);
        }
    }

    #[test]
    fn total_key_is_monotone_and_invertible() {
        let samples = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1.5,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ];
        for &a in &samples {
            assert_eq!(
                f64_from_total_key(f64_total_key(a.to_bits())).to_bits(),
                a.to_bits()
            );
            for &b in &samples {
                let ord = a.total_cmp(&b);
                let key_ord = f64_total_key(a.to_bits()).cmp(&f64_total_key(b.to_bits()));
                assert_eq!(ord, key_ord, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn reductions_match_scalar_folds() {
        // With `--features simd` on AVX2 hardware this pins the intrinsic
        // path against the scalar fold; without it, it pins the fold itself.
        let iv: Vec<i64> = (0..219i64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64))
            .collect();
        let uv: Vec<u64> = iv.iter().map(|&x| x as u64).collect();
        assert_eq!(
            reduce::sum_i64(&iv),
            iv.iter().fold(0i64, |a, &x| a.wrapping_add(x))
        );
        assert_eq!(reduce::max_i64(&iv), iv.iter().copied().max().unwrap());
        assert_eq!(reduce::min_i64(&iv), iv.iter().copied().min().unwrap());
        assert_eq!(reduce::max_u64(&uv), uv.iter().copied().max().unwrap());
        assert_eq!(reduce::min_u64(&uv), uv.iter().copied().min().unwrap());
        assert_eq!(reduce::sum_i64(&[]), 0);
        assert_eq!(reduce::max_i64(&[]), i64::MIN);
        assert_eq!(reduce::min_u64(&[]), u64::MAX);
    }

    #[test]
    fn sum_and_avg_reject_strings_like_the_builtins() {
        let mut s = KernelKind::Sum.init();
        let err = s.update_value(&Value::str("x")).unwrap_err();
        assert!(matches!(err, AggError::BadInput { .. }));
        let mut a = KernelKind::Avg.init();
        assert!(a.update_value(&Value::str("x")).is_err());
        // count accepts anything.
        let mut c = KernelKind::Count { star: false }.init();
        c.update_value(&Value::str("x")).unwrap();
        c.update_value(&Value::All).unwrap();
        assert_eq!(c.finalize(), Value::Int(2));
    }

    #[test]
    fn empty_semantics() {
        assert_eq!(
            KernelKind::Count { star: true }.init().finalize(),
            Value::Int(0)
        );
        assert_eq!(KernelKind::Sum.init().finalize(), Value::Null);
        assert_eq!(KernelKind::Avg.init().finalize(), Value::Null);
        assert_eq!(KernelKind::Min.init().finalize(), Value::Null);
    }
}
