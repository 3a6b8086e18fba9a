"""Gaussian integer arithmetic: gcd, prime factorization, divisor enumeration.

Gaussian integers are plain ``(a, b)`` tuples meaning ``a + b*i``.  The
divisor enumeration backs rational root finding over Q(i): candidate roots
``p/q`` have numerators dividing the trailing coefficient and denominators
dividing the leading coefficient, both in Z[i].

Norms are factored in-house: trial division by small numbers, then
Pollard's rho in Brent's variant (Brent 1980) splits what is left down to
parts that pass a Miller-Rabin test over the first 13 prime bases.  That
test is exact below 3.3 * 10**24 (the least strong pseudoprime to all 13
bases is 3317044064679887385961981); above it the test is probabilistic:
a composite that is a strong pseudoprime to all 13 bases would be taken
for a prime.  The lift to Gaussian primes uses the classical split
``p = pi * conj(pi)`` for ``p = 1 mod 4``, obtained from a square root r
of -1 modulo p; r*r = -1 (mod p) is checked before use, and ``gi_factor``
refuses a factorization that leaves a cofactor of norm other than 1.
"""

from __future__ import annotations

from math import gcd, isqrt

from .errors import InputTooLargeError

GInt = tuple[int, int]

UNITS: tuple[GInt, ...] = ((1, 0), (0, 1), (-1, 0), (0, -1))


def gi_mul(x: GInt, y: GInt) -> GInt:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gi_conj(x: GInt) -> GInt:
    return (x[0], -x[1])


def gi_norm(x: GInt) -> int:
    return x[0] * x[0] + x[1] * x[1]


def gi_exact_div(x: GInt, y: GInt) -> GInt | None:
    """Return x / y if y divides x in Z[i], else None."""
    n = gi_norm(y)
    if n == 0:
        raise ZeroDivisionError("division by zero Gaussian integer")
    p = gi_mul(x, gi_conj(y))
    if p[0] % n or p[1] % n:
        return None
    return (p[0] // n, p[1] // n)


def gi_divmod(x: GInt, y: GInt) -> tuple[GInt, GInt]:
    """Euclidean division with remainder of norm < norm(y)."""
    n = gi_norm(y)
    if n == 0:
        raise ZeroDivisionError("division by zero Gaussian integer")
    p = gi_mul(x, gi_conj(y))
    # round to nearest integer quotient coordinates
    q = (_round_div(p[0], n), _round_div(p[1], n))
    r = (x[0] - (q[0] * y[0] - q[1] * y[1]), x[1] - (q[0] * y[1] + q[1] * y[0]))
    return q, r


def _round_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if 2 * r >= b:
        q += 1
    return q


def gi_gcd(x: GInt, y: GInt) -> GInt:
    while y != (0, 0):
        _, r = gi_divmod(x, y)
        x, y = y, r
    return x


def canonical_associate(x: GInt) -> GInt:
    """The unit multiple of x in the half-open first quadrant (a > 0, b >= 0)."""
    if x == (0, 0):
        return x
    for u in UNITS:
        y = gi_mul(x, u)
        if y[0] > 0 and y[1] >= 0:
            return y
    raise AssertionError("unreachable: some unit rotation lands in the first quadrant")


# trial division strips every prime factor below 1000; rho splits the rest
_TRIAL_DIVISORS = (2, *range(3, 1000, 2))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# rho needs about sqrt(q) steps to find the prime factor q: 2**20 steps
# (about 0.5 s on a 2-vCPU host) find q up to 10**11 and mostly 10**12, and
# stop the hours that two 20-digit primes would take
_RHO_STEPS = 1 << 20


def _is_prime(n: int) -> bool:
    """Miller-Rabin over _MR_BASES (exact below 3.3 * 10**24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n: Pollard's rho with Brent's
    cycle search and batched gcds, over x -> x*x + c for c = 1, 2, ...

    Raises InputTooLargeError after _RHO_STEPS steps over all c.
    """
    c = steps = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > _RHO_STEPS:
                raise InputTooLargeError(
                    f"a {len(str(n))}-digit composite factor of a norm did not split within "
                    f"{_RHO_STEPS} Pollard rho steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _factor_int(n: int) -> dict[int, int]:
    """Prime factorization of the integer n >= 1, primes ascending."""
    out: dict[int, int] = {}
    for p in _TRIAL_DIVISORS:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        # a prime p = 3 mod 4 enters a norm squared, and rho needs about
        # sqrt(p) steps to split p*p, so squares are split by isqrt
        root = isqrt(m)
        d = root if root * root == m else _rho(m)
        parts += [d, m // d]
    return dict(sorted(out.items()))


def _sqrt_minus_one(p: int) -> int:
    """The smaller square root of -1 modulo the prime p = 1 mod 4: x**((p-1)/4)
    for the least quadratic non-residue x."""
    x = 2
    while pow(x, (p - 1) // 2, p) != p - 1:
        x += 1
    r = pow(x, (p - 1) // 4, p)
    if r * r % p != p - 1:
        raise AssertionError(f"no square root of -1 modulo {p}; it is not a prime 1 mod 4")
    return min(r, p - r)


def gi_factor(x: GInt) -> dict[GInt, int]:
    """Gaussian prime factorization of x, primes in canonical associate form.

    The unit cofactor is not returned; callers enumerating divisors up to
    units do not need it.
    """
    if x == (0, 0):
        raise ValueError("cannot factor zero")
    result: dict[GInt, int] = {}
    rest = x
    for p in _factor_int(gi_norm(x)):
        if p == 2:
            primes = [(1, 1)]
        elif p % 4 == 3:
            # p stays prime in Z[i]
            primes = [(p, 0)]
        else:
            pi = canonical_associate(gi_gcd((p, 0), (_sqrt_minus_one(p), 1)))
            primes = [pi, canonical_associate(gi_conj(pi))]
        for pi in primes:
            count = 0
            while (q := gi_exact_div(rest, pi)) is not None:
                rest = q
                count += 1
            if count:
                result[pi] = count
    if gi_norm(rest) != 1:
        raise AssertionError(f"incomplete Gaussian factorization of {x}: left {rest}")
    return result


def gi_divisors_up_to_units(factors: dict[GInt, int]) -> list[GInt]:
    """The divisors, one per associate class, of the ``gi_factor`` result."""
    divisors = [(1, 0)]
    for prime, exp in factors.items():
        grown = []
        power = (1, 0)
        for _ in range(exp + 1):
            grown.extend(gi_mul(d, power) for d in divisors)
            power = gi_mul(power, prime)
        divisors = grown
    return [canonical_associate(d) for d in divisors]
