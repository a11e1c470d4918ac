//! Deterministic pseudo-random number generation.
//!
//! Chaos relies on randomization for chunk placement, storage-engine
//! selection and steal ordering ("the extensive use of randomization ... is
//! the reason for naming the system Chaos"). For the reproduction we need
//! randomness whose stream is stable across platforms and releases, because
//! the test suite asserts bit-for-bit reproducibility of simulated times.
//! We therefore implement xoshiro256++ (Blackman & Vigna) seeded via
//! splitmix64 rather than depending on an external crate.
//!
//! The state update of xoshiro256 is linear over GF(2), so a stream can
//! jump any number of draws ahead ([`Rng::advance`]) through the
//! characteristic polynomial of that update, the way the authors'
//! published `jump` and `long_jump` move it 2^128 and 2^192 draws. A
//! consumer can therefore start any range of one stream on its own —
//! the RMAT generator runs its edge list as independent lanes of one
//! stream and still writes the list the single stream writes.

/// A xoshiro256++ generator seeded from a single `u64` via splitmix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Derives an independent stream for a sub-component; `stream` should be
    /// a small identifier (machine index, structure tag hash, ...).
    pub fn derive(&self, stream: u64) -> Self {
        // Mix the stream id through splitmix so nearby ids diverge.
        let mut sm = self.s[0] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// The four state words, for a consumer that runs the update itself
    /// (at SIMD width, say) from where this stream stands.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Moves the stream `n` draws ahead: afterwards it yields what it
    /// would have yielded after `n` calls of [`Rng::next_u64`], for
    /// O(log n) polynomial products and 256 steps.
    ///
    /// The state update is a linear map `M`, and its characteristic
    /// polynomial `P` has `P(M) = 0`, so `M^n = q(M)` with `q = x^n mod
    /// P`. Applying `q(M)` to the state is the published `jump`: step
    /// through 256 states and sum those at `q`'s coefficients.
    pub fn advance(&mut self, n: u64) {
        self.jump(x_pow_mod(n));
    }

    /// `L` generators, the `l`-th this stream moved `l · stride` draws
    /// ahead: [`Rng::advance`] with its polynomial computed once.
    pub fn lanes<const L: usize>(&self, stride: u64) -> [Rng; L] {
        let q = x_pow_mod(stride);
        let mut next = self.clone();
        std::array::from_fn(|_| {
            let lane = next.clone();
            next.jump(q);
            lane
        })
    }

    /// Replaces the state `s` by `q(M) s`.
    fn jump(&mut self, q: Poly) {
        let mut acc = [0; 4];
        for word in q {
            for bit in 0..64 {
                if word >> bit & 1 == 1 {
                    for (a, s) in acc.iter_mut().zip(self.s) {
                        *a ^= s;
                    }
                }
                self.next_u64();
            }
        }
        self.s = acc;
    }

    /// Uniform in `[0, bound)` using Lemire's multiply-shift rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection sampling on the high bits to avoid modulo bias.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 high bits give a uniform dyadic rational in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        let n = xs.len();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// A polynomial over GF(2) of degree below 256: bit `i` of word `w` is
/// the coefficient of `x^(64w + i)`.
type Poly = [u64; 4];

/// The characteristic polynomial `P` of xoshiro256's state update, a
/// degree-256 polynomial of weight 115, without its leading `x^256`.
const CHAR_POLY: Poly = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// `a · x mod P`.
fn times_x(a: Poly) -> Poly {
    let reduce = (a[3] >> 63).wrapping_neg();
    let mut carry = 0;
    std::array::from_fn(|w| {
        let r = (a[w] << 1 | carry) ^ (CHAR_POLY[w] & reduce);
        carry = a[w] >> 63;
        r
    })
}

/// `a · b mod P`, by Horner's rule over `b`'s coefficients from its top.
fn mul_mod(a: Poly, b: Poly) -> Poly {
    let mut acc = [0; 4];
    for i in (0..256).rev() {
        acc = times_x(acc);
        let take = (b[i / 64] >> (i % 64) & 1).wrapping_neg();
        for (c, a) in acc.iter_mut().zip(a) {
            *c ^= a & take;
        }
    }
    acc
}

/// `x^n mod P`: square, and multiply by `x`, from `n`'s top bit down.
fn x_pow_mod(n: u64) -> Poly {
    let mut acc = [1, 0, 0, 0];
    for bit in (0..u64::BITS - n.leading_zeros()).rev() {
        acc = mul_mod(acc, acc);
        if n >> bit & 1 == 1 {
            acc = times_x(acc);
        }
    }
    acc
}

/// A stateless mixing hash used where we need *deterministic* pseudo-random
/// values keyed by identifiers (e.g. Luby MIS priorities, vertex-chunk
/// placement).
pub fn mix64(mut x: u64) -> u64 {
    // splitmix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Combines two ids into one deterministic hash.
pub fn mix2(a: u64, b: u64) -> u64 {
    mix64(a ^ mix64(b).rotate_left(32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn advance_equals_that_many_draws() {
        for seed in [0, 42, u64::MAX] {
            for n in [0, 1, 63, 64, 65, 255, 256, 257, 12_345, 1 << 20] {
                let mut jumped = Rng::new(seed);
                jumped.advance(n);
                let mut stepped = Rng::new(seed);
                for _ in 0..n {
                    stepped.next_u64();
                }
                assert_eq!(jumped.s, stepped.s, "seed {seed}, n {n}");
            }
        }
    }

    #[test]
    fn lanes_are_successive_advances() {
        let root = Rng::new(7);
        let mut expected = root.clone();
        for lane in root.lanes::<5>(12_345) {
            assert_eq!(lane.s, expected.s);
            expected.advance(12_345);
        }
    }

    /// `x^(2^k) mod P`, by squaring `x` `k` times.
    fn x_pow_pow2(k: u32) -> Poly {
        (0..k).fold([2, 0, 0, 0], |p, _| mul_mod(p, p))
    }

    #[test]
    fn the_published_jumps_are_powers_of_x() {
        // Blackman & Vigna's `JUMP` (2^128 draws) and `LONG_JUMP` (2^192).
        assert_eq!(
            x_pow_pow2(128),
            [
                0x180e_c6d3_3cfd_0aba,
                0xd5a6_1266_f0c9_392c,
                0xa958_2618_e03f_c9aa,
                0x39ab_dc45_29b1_661c,
            ]
        );
        assert_eq!(
            x_pow_pow2(192),
            [
                0x76e1_5d3e_fefd_cbbf,
                0xc500_4e44_1c52_2fb3,
                0x7771_0069_854e_e241,
                0x3910_9bb0_2acb_e635,
            ]
        );
    }

    #[test]
    fn the_characteristic_polynomial_has_weight_115() {
        let low: u32 = CHAR_POLY.iter().map(|w| w.count_ones()).sum();
        assert_eq!(low + 1, 115, "with the implicit x^256");
    }

    #[test]
    fn derive_diverges() {
        let root = Rng::new(7);
        let mut a = root.derive(1);
        let mut b = root.derive(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(9);
        for _ in 0..1000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(11);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn mix_is_deterministic() {
        assert_eq!(mix64(123), mix64(123));
        assert_ne!(mix64(123), mix64(124));
        assert_ne!(mix2(1, 2), mix2(2, 1));
    }
}
