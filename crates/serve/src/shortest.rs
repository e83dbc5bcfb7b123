//! The crate's one `f64` printer: shortest round-trip digits, laid out
//! byte for byte as `format!("{v}")` lays them out.
//!
//! The digits are Ryū's (Ulf Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the fewest decimal digits that read back as
//! the same `f64`, and of those the nearest to its exact value. Two
//! things make the output std's rather than Ryū's:
//!
//! * **Layout.** `Display` never writes an exponent: `1e300` prints as
//!   a 1 and 300 zeros, `5e-324` as `0.`, 323 zeros and a 5, so the
//!   longest output is about 330 bytes. A negative zero prints as `-0`.
//! * **Ties.** When the exact value lies halfway between two shortest
//!   candidates (`1149636667324797.25`, between `…797.2` and `…797.3`),
//!   std takes the upper one. Ryū's round-half-even step is left out.
//!
//! The 128-bit multipliers (5^i and 2^k / 5^i to 125 bits) are exact
//! big-integer arithmetic evaluated at compile time, so no call pays to
//! build them.

use std::fmt;

/// Appends `format!("{v}")`'s bytes to `out`.
pub(crate) fn push(out: &mut Vec<u8>, v: f64) {
    let mut buf = [b'0'; BUF];
    let len = layout(v, &mut buf);
    out.extend_from_slice(&buf[..len]);
}

/// Writes `format!("{v}")`'s text to `w`.
pub(crate) fn write(w: &mut impl fmt::Write, v: f64) -> fmt::Result {
    let mut buf = [b'0'; BUF];
    let len = layout(v, &mut buf);
    w.write_str(std::str::from_utf8(&buf[..len]).expect("the printer writes ASCII"))
}

/// Room for every text — a sign, `0.`, 323 zeros and 17 digits — and
/// for [`layout`]'s fixed-size moves past the end of a short one.
const BUF: usize = 343;

/// Lays `v`'s `Display` text out at the start of `buf`, which is all
/// `'0'`; returns its length.
fn layout(v: f64, buf: &mut [u8; BUF]) -> usize {
    if !v.is_finite() || v == 0.0 {
        let text: &[u8] = match (v.is_nan(), v.is_sign_negative(), v.is_infinite()) {
            (true, _, _) => b"NaN",
            (false, false, true) => b"inf",
            (false, true, true) => b"-inf",
            (false, false, false) => b"0",
            (false, true, false) => b"-0",
        };
        buf[..text.len()].copy_from_slice(text);
        return text.len();
    }
    let (mantissa, exp10) = shortest(v.to_bits());
    let n = mantissa.ilog10() as usize + 1;
    let sign = usize::from(v.is_sign_negative());
    buf[0] = if sign == 1 { b'-' } else { b'0' };
    // The value is `0.digits × 10^point`.
    let point = exp10 + n as i32;
    match usize::try_from(point) {
        // `digits`, then the zeros already there.
        Ok(p) if p >= n => {
            decimal(mantissa, &mut buf[sign..sign + n]);
            sign + p
        }
        // The digits, then the fraction moved one right for the point:
        // at most 16 digits, moved as a fixed 16.
        Ok(p) if p > 0 => {
            decimal(mantissa, &mut buf[sign..sign + n]);
            let at = sign + p;
            buf.copy_within(at..at + 16, at + 1);
            buf[at] = b'.';
            sign + n + 1
        }
        // `0.`, the zeros already there, then `digits`.
        _ => {
            let at = sign + 2 + point.unsigned_abs() as usize;
            buf[sign + 1] = b'.';
            decimal(mantissa, &mut buf[at..at + n]);
            at + n
        }
    }
}

/// `"00"`, `"01"`, …, `"99"`.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes `m`'s decimal digits over `out`, exactly as many as it has.
/// The low eight go as two 32-bit halves of four, the rest four at a
/// time, so few divisions wait on each other.
fn decimal(m: u64, out: &mut [u8]) {
    let pair = |out: &mut [u8], at: usize, d: u32| {
        let d = d as usize * 2;
        out[at..at + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    };
    let mut at = out.len();
    // Below 10^17, so what is left after eight digits fits 32 bits.
    let mut rest = if m >> 32 == 0 {
        m as u32
    } else {
        let low = (m % 100_000_000) as u32;
        let (c, d) = (low % 10_000, low / 10_000);
        at -= 8;
        pair(out, at, d / 100);
        pair(out, at + 2, d % 100);
        pair(out, at + 4, c / 100);
        pair(out, at + 6, c % 100);
        (m / 100_000_000) as u32
    };
    while rest >= 10_000 {
        let c = rest % 10_000;
        rest /= 10_000;
        at -= 4;
        pair(out, at, c / 100);
        pair(out, at + 2, c % 100);
    }
    if rest >= 100 {
        at -= 2;
        pair(out, at, rest % 100);
        rest /= 100;
    }
    if rest >= 10 {
        pair(out, at - 2, rest);
    } else {
        out[at - 1] = b'0' + rest as u8;
    }
}

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// The width both multiplier tables are scaled to.
const POW5_BITS: i32 = 125;

/// The shortest round-trip decimal of a finite, nonzero `f64`'s
/// magnitude: `(digits, e)` with the value `digits × 10^e`.
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    // The value is `m2 × 2^e2`, less 2 for the bounds' factor 4.
    let (m2, e2) = if ieee_exponent == 0 {
        (ieee_mantissa, 1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2)
    } else {
        (
            ieee_mantissa | 1 << MANTISSA_BITS,
            ieee_exponent - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
        )
    };
    // Round to even on read-back: an even mantissa owns its bounds.
    let accept_bounds = m2.is_multiple_of(2);
    let mv = 4 * m2;
    // The lower neighbour is closer when the mantissa is a power of 2.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mut vm_trailing_zeros = false;
    // The scaled value and its bounds, in units of 10^e10.
    let (e10, mut vr, mut vp, mut vm);
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITS + pow5_bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        (vr, vp, vm) = mul_shift_all(m2, POW5_INV[q as usize], i as u32, mm_shift);
        // Only one of mv - 1 - mm_shift, mv, mv + 2 can be a multiple
        // of 5; mv's own exactness fed only the round-half-even step.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITS;
        let j = q as i32 - k;
        (vr, vp, vm) = mul_shift_all(m2, POW5[i as usize], j as u32, mm_shift);
        if q <= 1 {
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the bounds still differ above them.
    let mut removed = 0;
    let output = if vm_trailing_zeros {
        // The lower bound is exact and admissible: it may end the
        // shortening itself.
        let mut last = 0;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm.is_multiple_of(10);
            last = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm.is_multiple_of(10) {
                last = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        // An exact tie (`last == 5`, nothing below it) rounds up.
        vr + u64::from((vr == vm && !vm_trailing_zeros) || last >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// `(4m, 4m + 2, 4m − 1 − mm_shift) × mul >> j`.
fn mul_shift_all(m: u64, mul: u128, j: u32, mm_shift: u64) -> (u64, u64, u64) {
    let shift = |m: u64| {
        let low = u128::from(m) * (mul as u64 as u128);
        let high = u128::from(m) * (mul >> 64);
        (((low >> 64) + high) >> (j - 64)) as u64
    };
    (shift(4 * m), shift(4 * m + 2), shift(4 * m - 1 - mm_shift))
}

/// The bit length of `5^e`, for `0 ≤ e ≤ 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10(2^e)⌋`, for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10(5^e)⌋`, for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `5^i` to its top 125 bits: `⌊5^i / 2^(len(5^i) − 125)⌋`, shifted left
/// where `5^i` is shorter.
static POW5: [u128; 326] = pow5_table();

/// `⌊2^(len(5^i) − 1 + 125) / 5^i⌋ + 1`.
static POW5_INV: [u128; 342] = pow5_inv_table();

/// Enough 64-bit limbs for `2^1023`, and for `5^341` (792 bits).
const LIMBS: usize = 16;

const fn pow5_table() -> [u128; 326] {
    let mut table = [0; 326];
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let len = bit_len(&pow);
        table[i] =
            if len >= 125 { bits_from(&pow, len - 125) } else { bits_from(&pow, 0) << (125 - len) };
        times_5(&mut pow);
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; 342] {
    const TOP: u32 = 64 * LIMBS as u32 - 1;
    let mut table = [0; 342];
    // ⌊2^TOP / 5^i⌋, one short division by 5 a step: ⌊⌊x / a⌋ / b⌋ is
    // ⌊x / ab⌋, so each quotient stays exact.
    let mut quotient = [0u64; LIMBS];
    quotient[LIMBS - 1] = 1 << 63;
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let len = bit_len(&pow);
        table[i] = bits_from(&quotient, TOP - (len - 1 + 125)) + 1;
        let mut rem = 0;
        let mut k = LIMBS;
        while k > 0 {
            k -= 1;
            let t = (rem << 64) | quotient[k] as u128;
            quotient[k] = (t / 5) as u64;
            rem = t % 5;
        }
        times_5(&mut pow);
        i += 1;
    }
    table
}

const fn times_5(x: &mut [u64; LIMBS]) {
    let mut carry = 0;
    let mut k = 0;
    while k < LIMBS {
        let t = x[k] as u128 * 5 + carry;
        x[k] = t as u64;
        carry = t >> 64;
        k += 1;
    }
}

/// The number of significant bits of `x`.
const fn bit_len(x: &[u64; LIMBS]) -> u32 {
    let mut k = LIMBS;
    while k > 0 {
        k -= 1;
        if x[k] != 0 {
            return 64 * k as u32 + 64 - x[k].leading_zeros();
        }
    }
    0
}

/// Bits `s .. s + 128` of `x`.
const fn bits_from(x: &[u64; LIMBS], s: u32) -> u128 {
    const fn limb(x: &[u64; LIMBS], k: usize) -> u128 {
        if k < LIMBS {
            x[k] as u128
        } else {
            0
        }
    }
    let (at, off) = ((s / 64) as usize, s % 64);
    let low = limb(x, at) | limb(x, at + 1) << 64;
    if off == 0 {
        low
    } else {
        low >> off | limb(x, at + 2) << (128 - off)
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Write;

    use super::*;

    /// Fails on the first value whose bytes, pushed or written, differ
    /// from `format!("{v}")`.
    fn check(values: impl IntoIterator<Item = f64>) {
        let (mut ours, mut written, mut std) = (Vec::new(), String::new(), String::new());
        for v in values {
            ours.clear();
            written.clear();
            std.clear();
            push(&mut ours, v);
            super::write(&mut written, v).expect("a String takes any text");
            write!(std, "{v}").expect("a String takes any text");
            assert_eq!(
                ours,
                std.as_bytes(),
                "{v:e} (bits {:#x}): {:?}",
                v.to_bits(),
                String::from_utf8_lossy(&ours)
            );
            assert_eq!(written, std, "{v:e} (bits {:#x})", v.to_bits());
        }
    }

    /// `v` and its neighbours one ulp either side.
    fn with_neighbours(v: f64) -> [f64; 3] {
        [v.next_down(), v, v.next_up()]
    }

    /// SplitMix64: a seeded stream of bit patterns.
    fn bit_patterns(seed: u64, n: usize) -> impl Iterator<Item = f64> {
        let mut state = seed;
        std::iter::repeat_with(move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            f64::from_bits(z ^ (z >> 31))
        })
        .take(n)
    }

    #[test]
    fn special_values_print_as_display_does() {
        let largest_subnormal = f64::from_bits((1 << 52) - 1);
        check([0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::MAX, f64::MIN]);
        check(with_neighbours(f64::MIN_POSITIVE));
        check([largest_subnormal, -largest_subnormal, f64::from_bits(1)]);
        let two53 = 9_007_199_254_740_992.0;
        check([two53 - 2.0, two53, two53 + 2.0]);
        // An exact tie: std rounds it up, Ryū would round it to even.
        let tie = f64::from_bits(14_055_829_384_065_246_709);
        check([tie, -tie]);
    }

    #[test]
    fn exact_ties_round_up_as_display_does() {
        // Above 2^50 the spacing is 1/4, so every `n + 1/4` and `n + 3/4`
        // lies halfway between two 17-digit candidates.
        let base = (1u64 << 50) as f64;
        check((0..100_000).map(|n| base + f64::from(n) * 0.25));
    }

    #[test]
    fn every_power_of_two_prints_as_display_does() {
        check((-1074..=1023).map(|k| 2f64.powi(k)));
    }

    #[test]
    fn powers_of_ten_and_their_neighbours_print_as_display_does() {
        for k in -324..=308 {
            for text in [format!("1e{k}"), format!("9.999999999999999e{k}")] {
                let v: f64 = text.parse().expect("a decimal literal parses");
                check(with_neighbours(v));
            }
        }
    }

    #[test]
    fn seeded_bit_patterns_print_as_display_does() {
        check(bit_patterns(0x5eed, 200_000));
    }

    #[test]
    #[ignore = "20 M values; run in release"]
    fn twenty_million_bit_patterns_print_as_display_does() {
        check(bit_patterns(0x0dd5_eed5, 20_000_000));
    }

    #[test]
    fn the_tables_hold_their_defining_values() {
        // 5^0 = 1 scaled to 125 bits, and 2^125 / 1 + 1.
        assert_eq!(POW5[0], 1 << 124);
        assert_eq!(POW5_INV[0], (1 << 125) + 1);
        // 5^1 = 0b101: the top bits 101 then zeros.
        assert_eq!(POW5[1], 5 << 122);
        // 5^55 = 2^127.7…: its top 125 bits drop 3.
        assert_eq!(POW5[55], 5u128.pow(55) >> 3);
    }
}
