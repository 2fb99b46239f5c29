//! Primality testing and primitive-root search.
//!
//! ZMap iterates the IPv4 space as the cyclic group ⟨g⟩ ⊂ (Z/pZ)* with
//! the fixed prime p = 2³² + 15. Because our reproduction scans *scaled*
//! spaces, we generalize: for any space size n we find the smallest prime
//! p > n and a primitive root g of p, giving a full-cycle permutation of
//! {1, …, p−1} that we filter to {1, …, n}.

/// Deterministic Miller–Rabin, exact for all `u64` inputs
/// (the standard 12-witness set).
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // n-1 = d · 2^s with d odd
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = mod_pow(a % n, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mod_mul(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// The smallest prime strictly greater than `n`.
pub fn next_prime(n: u64) -> u64 {
    let mut candidate = n + 1;
    if candidate <= 2 {
        return 2;
    }
    if candidate.is_multiple_of(2) {
        candidate += 1;
    }
    while !is_prime(candidate) {
        candidate += 2;
    }
    candidate
}

/// Modular multiplication without overflow (via u128).
pub fn mod_mul(a: u64, b: u64, m: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) % u128::from(m)) as u64
}

/// Modular exponentiation.
pub fn mod_pow(mut base: u64, mut exp: u64, m: u64) -> u64 {
    if m == 1 {
        return 0;
    }
    let mut acc = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mod_mul(acc, base, m);
        }
        base = mod_mul(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Prime factorization by trial division (fine for p−1 of ≤ 2⁶⁴ scan
/// spaces: our p−1 values are small and smooth enough in practice; the
/// loop is bounded by √n).
pub fn factorize(mut n: u64) -> Vec<u64> {
    let mut factors = Vec::new();
    let mut d = 2u64;
    while d.saturating_mul(d) <= n {
        if n.is_multiple_of(d) {
            factors.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += if d == 2 { 1 } else { 2 };
    }
    if n > 1 {
        factors.push(n);
    }
    factors
}

/// Find a primitive root of prime `p`, starting the search at a
/// seed-dependent offset so different scans use different generators
/// (ZMap randomizes its generator per scan the same way).
pub fn primitive_root(p: u64, seed: u64) -> u64 {
    assert!(is_prime(p), "primitive roots need a prime modulus");
    if p == 2 {
        return 1;
    }
    let phi = p - 1;
    let factors = factorize(phi);
    // Walk candidates deterministically from a well-mixed seed offset.
    let mixed = iw_netsim::rng::splitmix64(seed);
    let mut candidate = 2 + mixed % (p - 3).max(1);
    loop {
        if is_primitive_root(candidate, p, phi, &factors) {
            return candidate;
        }
        candidate += 1;
        if candidate >= p {
            candidate = 2;
        }
    }
}

fn is_primitive_root(g: u64, p: u64, phi: u64, factors: &[u64]) -> bool {
    if g.is_multiple_of(p) {
        return false;
    }
    factors.iter().all(|f| mod_pow(g, phi / f, p) != 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes() {
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 65537, 4294967311];
        for p in primes {
            assert!(is_prime(p), "{p} is prime");
        }
        for c in [0u64, 1, 4, 9, 100, 65536, 4294967297] {
            assert!(!is_prime(c), "{c} is composite");
        }
    }

    #[test]
    fn zmap_prime() {
        // The prime ZMap uses for the full IPv4 space: 2^32 + 15.
        assert_eq!(next_prime(1 << 32), (1u64 << 32) + 15);
    }

    #[test]
    fn next_prime_examples() {
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(2), 3);
        assert_eq!(next_prime(13), 17);
        assert_eq!(next_prime(1 << 22), (1 << 22) + 15);
    }

    #[test]
    fn factorize_examples() {
        assert_eq!(factorize(12), vec![2, 3]);
        assert_eq!(factorize(97), vec![97]);
        assert_eq!(factorize(2 * 3 * 5 * 7 * 11), vec![2, 3, 5, 7, 11]);
        assert_eq!(factorize(1), Vec::<u64>::new());
    }

    #[test]
    fn primitive_root_generates_full_group() {
        let p = 101u64;
        let g = primitive_root(p, 0);
        let mut seen = std::collections::HashSet::new();
        let mut x = 1u64;
        for _ in 0..p - 1 {
            x = mod_mul(x, g, p);
            seen.insert(x);
        }
        assert_eq!(seen.len() as u64, p - 1, "g={g} must generate Z_{p}^*");
    }

    #[test]
    fn primitive_root_seed_dependence() {
        let p = next_prime(1 << 16);
        let a = primitive_root(p, 1);
        let b = primitive_root(p, 999);
        // Different seeds usually land on different roots.
        assert!(a != b || p < 100);
        for g in [a, b] {
            let phi = p - 1;
            let factors = factorize(phi);
            assert!(factors.iter().all(|f| mod_pow(g, phi / f, p) != 1));
        }
    }

    #[test]
    fn mod_pow_edge_cases() {
        assert_eq!(mod_pow(2, 10, 1_000_000), 1024);
        assert_eq!(mod_pow(5, 0, 7), 1);
        assert_eq!(mod_pow(0, 5, 7), 0);
        assert_eq!(mod_pow(u64::MAX - 1, 2, u64::MAX - 2), 1); // (m+1)^2 ≡ 1, no overflow
    }
}
