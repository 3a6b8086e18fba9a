"""A committed behaviour fingerprint: the library's outputs on fixed inputs,
hashed.

Each family runs a seeded batch of library calls and hashes the canonical
``repr`` of every output, or ``(exception class, message)`` where a call
raises, into one SHA-256 per (family, seed).  ``tests/golden/fingerprint.json``
holds the committed digests, so a change meant to keep behaviour shows it
here, and a change meant to alter it regenerates the file and names each
family and seed that moved.  Inputs come from ``tests/helpers`` and the
library's own generator, never from the benchmark's inputs.

Regenerate with ``PYTHONPATH=src python tests/test_fingerprint.py --write``,
which names every key whose digest changed, or says that none did.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from specfactor import (
    ElementaryFactor,
    INFINITY,
    Poly,
    RatFun,
    RatMat,
    analyze_product,
    degree_deficit_identity_holds,
    generate_instance,
    jsonio,
    make_elementary,
    paired_cancellation_holds,
    perturb_with_allpass,
    pole_additivity_holds,
    potapov_factorize,
    run_sweep,
    support_points,
    uniqueness_check,
)
from specfactor.errors import GenerationError
from specfactor.poly import gaussian_roots, require_split
from specfactor.spectra import _ORTHOGONAL_POOLS, default_geometries

from helpers import (
    P,
    RF,
    gr,
    pt,
    random_constant_full_rank,
    random_diag_ratfun,
    random_direction,
    random_elementary_product,
    random_full_rank_pair,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "fingerprint.json"

_OFF_SUPPORT = [pt(7), pt(-4), pt(0, 3), pt(Fraction(1, 5)), pt(-6, 1)]
_POLE_POOL = [pt(2), pt(-3), pt(Fraction(1, 2))]
_ZERO_POOL = [pt(5), pt(-1), pt(Fraction(1, 3))]
_SHAPES = [((1, 1), 0), ((1, 1), 1), ((1, 2), 2), ((2, 2), 2), ((2, 3), 3)]
# 0 and infinity, two finite poles, and the conjugate-reciprocal partner of
# each: products drawn from it repeat poles and can lose degree
_PEEL_POOL = [pt(0), INFINITY, pt(2), pt(1, 1)]
_PEEL_POOL += [p.conj_pair() for p in _PEEL_POOL[2:]]
# scalar and one-entry perturbations; some leave V para-unitary
_SCALES = [gr(1), gr(-1), gr(0, 1), gr(2), gr(Fraction(1, 2))]
_BUMPS = [None, None, RatFun.one(), RF([0, 1]), RF([1], [-2, 1]), RF([1], [-1, 1])]


def _failure(exc: Exception) -> str:
    return repr((type(exc).__name__, str(exc)))


def _outcome(fn, *args) -> str:
    """The canonical form of one call: the repr of its result, or of its
    exception's class name and message."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 (the exception is the output)
        return _failure(exc)


def _cancellation_pairs(rng):
    """Two full-rank pairs, the second with H's poles on G's zeros and H's
    zeros on G's poles; a rank-one G or H against a full-rank 2 x 2
    factor; a zero G; and a mismatched pair."""
    full = random_full_rank_pair(rng, max_side=4)
    one = random_diag_ratfun(rng, 1, _POLE_POOL, _ZERO_POOL)
    two = random_diag_ratfun(rng, 2, _POLE_POOL, _ZERO_POOL)
    crossed = random_diag_ratfun(rng, 2, _ZERO_POOL, _POLE_POOL)
    mid = random_constant_full_rank(rng, 2, 2)
    c = rng.randint(1, 3)
    return [
        ("full", full),
        ("full", (two * mid, crossed)),
        ("deficient", (one * RatMat([[1, c]]), two)),
        ("deficient", (two, RatMat([[1], [c]]) * one)),
        ("zero", (RatMat.zeros(2, 2), two)),
        ("mismatched", (full[0], RatMat.identity(full[0].cols + 1))),
    ]


def _cancellation(seed):
    rng = random.Random(seed)
    for kind, (g, h) in _cancellation_pairs(rng):
        try:
            support = support_points(g, h)
        except Exception as exc:  # noqa: BLE001 (the exception is the output)
            yield _failure(exc)
            support = (INFINITY,)
        else:
            yield repr(support)
        points = support + tuple(p for p in _OFF_SUPPORT if p not in support)[:2]
        for point in points:
            yield _outcome(analyze_product, g, h, point)
            if kind == "full":
                for law in (paired_cancellation_holds, degree_deficit_identity_holds,
                            pole_additivity_holds):
                    yield _outcome(law, g, h, point)


def _generated(seed):
    """(geometry, W) for every default geometry and shape, with the
    generator's error in place of W where it fails."""
    for geo in default_geometries():
        for size, degree in _SHAPES:
            try:
                _, w = generate_instance(seed, size, degree, geo["region_p"], geo["region_z"])
            except GenerationError as exc:
                w = exc
            yield geo, w


def _structure(seed):
    # the 2 x 3 polynomial matrices of degree one include some whose
    # minimal inverse needs the correction solve, and some without one
    rng = random.Random(seed)
    wide = [RatMat([[RF([rng.randint(-2, 2), rng.choice([0, 0, 1])]) for _ in range(3)]
                    for _ in range(2)]) for _ in range(4)]
    for w in [w for _, w in _generated(seed)] + wide:
        if isinstance(w, Exception):
            yield _failure(w)
            continue
        yield repr(w)
        yield _outcome(w.sm_structure)
        yield _outcome(w.mcmillan_degree)
        points = w.finite_pole_points(strict=False) + w.finite_zero_points(strict=False)
        for point in points + (INFINITY,):
            yield _outcome(lambda p: (w.pole_degree(p), w.zero_degree(p)), point)
        yield _outcome(w.minimal_right_inverse)


def _peel_products(rng):
    for _ in range(3):
        yield random_elementary_product(rng, rng.randint(1, 3), rng.randint(0, 4))[0]
    for _ in range(3):
        r = rng.randint(1, 3)
        v = RatMat.identity(r)
        for _ in range(rng.randint(1, 5)):
            v = v * make_elementary(rng.choice(_PEEL_POOL), random_direction(rng, r))
        yield v


def _perturbed(rng, v):
    v = v * rng.choice(_SCALES)
    bump = rng.choice(_BUMPS)
    if bump is None:
        return v
    i, j = rng.randrange(v.rows), rng.randrange(v.cols)
    grid = [list(row) for row in v.entries]
    grid[i][j] = grid[i][j] + bump
    return RatMat(grid)


def _peel(seed):
    # every product, then each again perturbed, then a para-unitary matrix
    # with poles at +-1/sqrt(2), outside Q(i)
    rng = random.Random(seed)
    products = list(_peel_products(rng))
    b = RF([-2, 0, 1], [1, 0, -2])
    for v in products + [_perturbed(rng, v) for v in products] + [RatMat.diagonal([b, b])]:
        try:
            yield json.dumps(jsonio.factorization_to_json(potapov_factorize(v)), sort_keys=True)
        except Exception as exc:  # noqa: BLE001 (the exception is the output)
            yield _failure(exc)


# N, the product of two 21-digit primes: the cubic z**3 + N z + 7N has no
# root in Q(i), and proving it needs N factored
_N21 = 100000000000000000039 * 300000000000000000053
# W = (z**2 - 1/3) / (z**2 + 1/9): zeros at +-1/sqrt(3), outside Q(i);
# the planted cubic; z**2 + 10**300, whose divisor search is refused
_EDGE_FIXED = [
    RatMat([[RF([Fraction(-1, 3), 0, 1], [Fraction(1, 9), 0, 1])]]),
    RatMat([[RatFun(Poly.one(), Poly.linear(gr(Fraction(1, 3), Fraction(2, 3)))
                    * P(7 * _N21, _N21, 0, 1))]]),
    RatMat([[RF([1], [10**300, 0, 1])]]),
]
_NON_SQUARES = [2, 3, Fraction(1, 3), -2, gr(0, 2)]


def _edge_matrices(rng):
    """Non-Gaussian poles and zeros, polynomial, rank-deficient, zero and
    complex matrices, planted quadratics (a double root over a conjugate
    pair) and a quadratic with coefficients near 1e300."""
    def small():
        return gr(rng.randint(-3, 3), rng.randint(-1, 1))

    def point():
        return gr(Fraction(rng.randint(-6, 6), rng.randint(1, 3)), rng.randint(-2, 2))

    def poly(degree):
        return P(*[rng.randint(-3, 3) for _ in range(degree)], rng.choice([1, -2, 3]))

    root = P(-rng.choice(_NON_SQUARES), 0, 1)
    r, s = point(), point()
    big = 3 ** rng.randint(620, 629)
    c = small()
    rows, cols = rng.choice([1, 2]), rng.choice([1, 2, 3])
    a, b = RatFun(poly(rng.randint(0, 2))), RatFun(poly(1), Poly.linear(r))
    cplx = [[RatFun(Poly([small(), small(), gr(1)]), Poly.linear(s)) for _ in range(2)]
            for _ in range(2)]
    return [
        RatMat([[RatFun(Poly.one(), root * Poly.linear(r)), RatFun(poly(1))]]),
        RatMat.diagonal([RatFun(root, Poly.linear(r)), 1]) * random_constant_full_rank(rng, 2, 2),
        RatMat([[RatFun(poly(2)) for _ in range(cols)] for _ in range(rows)]),
        RatMat([[a, b], [a * c, b * c]]),
        RatMat.zeros(rng.choice([1, 2]), 2),
        RatMat(cplx),
        RatMat([[RatFun(Poly.linear(r) ** 2, Poly.linear(s) * Poly.linear(s.conj()))]]),
        RatMat([[RatFun(Poly.one(), P(-big, 1) * P(rng.randint(-3, 3), 1))]]),
    ]


def _edge(seed):
    # the root finder on each matrix's denominator and first numerator
    # entry, its minimal inverse, and its uniqueness check against itself
    # and its negative; seed k also carries the k-th fixed input
    rng = random.Random(seed)
    geo = default_geometries()[seed % len(default_geometries())]
    for w in _edge_matrices(rng) + _EDGE_FIXED[seed:seed + 1]:
        yield repr(w)
        top = next((p for row in w.num for p in row if p), Poly.one())
        for p in (w.den, top):
            yield _outcome(gaussian_roots, p)
            yield _outcome(require_split, p, "edge")
        yield _outcome(w.minimal_right_inverse)
        for w1 in (w, -w):
            yield _outcome(uniqueness_check, w, w1, geo["region_p"], geo["region_z"])


_WIDE_ROOTS = [gr(0), gr(1), gr(-2), gr(0, 1)]
# G with a zero at 0 that is also a pole, refused although the lemma's
# conditions hold; and a G whose zeros at +-sqrt(2) are also poles, with a
# minimal inverse
_WIDE_FIXED = [
    RatMat([[RF([1], [-1, 1]), 0, 0, 0, 0],
            [RF([2], [0, 1]), RF([-1], [-1, 1]), RF([-2, -1], [0, 1]), 0, 0],
            [1, RF([0, -1]), RF([2], [0, 1]), -1, RF([2, 1])]]),
    RatMat.diagonal([RF([1], [-2, 0, 1]), 1, RF([-2, 0, 1])])
    * RatMat([[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, -1]]),
]


def _wide_entry(rng) -> RatFun:
    """Zero, or a small multiple of (z - a)^j / (z - b)^k with j, k <= 1
    and a, b from the root pool."""
    if rng.random() < 0.4:
        return RatFun.zero()
    num = Poly.from_roots(rng.choices(_WIDE_ROOTS, k=rng.randint(0, 1)))
    den = Poly.from_roots(rng.choices(_WIDE_ROOTS, k=rng.randint(0, 1)))
    return RatFun(num * rng.choice([1, -1, 2]), den)


def _wide(seed):
    # r x n with r in {2, 3} and n in {r + 1, r + 2}: particular solutions
    # that are minimal, corrections that succeed or are inconsistent, the
    # open case of r = 3 at a point that is a zero and a pole, and rank
    # deficiency; seed k also carries the k-th fixed input
    rng = random.Random(seed)
    mats = []
    for _ in range(40):
        r = rng.choice([2, 3])
        n = r + rng.randint(1, 2)
        mats.append(RatMat([[_wide_entry(rng) for _ in range(n)] for _ in range(r)]))
    for w in mats + _WIDE_FIXED[seed:seed + 1]:
        yield repr(w)
        yield _outcome(w.minimal_right_inverse)


# 0 and infinity (each the other's partner), a real pole, a Gaussian
# integer one and one over a denominator
_UPDATE_POLES = [pt(0), INFINITY, pt(2), pt(1, 1), pt(Fraction(-1, 3), Fraction(1, 2))]


def _update_entry(rng, roots) -> RatFun:
    """Zero, or a small multiple of a product of up to two z - a over up to
    two z - b, with a and b from roots."""
    if rng.random() < 0.25:
        return RatFun.zero()
    num = Poly.from_roots(rng.choices(roots, k=rng.randint(0, 2)))
    den = Poly.from_roots(rng.choices(roots, k=rng.randint(0, 2)))
    return RatFun(num * rng.choice([gr(1), gr(-1), gr(2), gr(0, 1)]), den)


def _form(m: RatMat) -> str:
    """A matrix's canonical cleared form in integers, which fixes it; cheaper
    to print than its entries."""
    return repr((m.cols, m.den.parts, [p.parts for row in m.num for p in row]))


def _update(seed):
    # one elementary factor U at alpha acting on an r x n matrix W, as U W
    # and U~ W: poles of W at alpha, at its partner beta, at 0 and
    # elsewhere, numerators sharing a root at alpha or beta, zero rows and
    # (first) the zero matrix
    rng = random.Random(seed)
    for k in range(40):
        alpha = rng.choice(_UPDATE_POLES)
        r = rng.randint(1, 4)
        n = r + rng.randint(0, 2)
        planted = [p.value for p in (alpha, alpha.conj_pair()) if not p.is_infinite]
        roots = planted + [gr(0), gr(Fraction(1, 2), -1)]
        if k == 0:
            w = RatMat.zeros(r, n)
        else:
            grid = [[_update_entry(rng, roots) for _ in range(n)] for _ in range(r)]
            if rng.random() < 0.3:
                grid[rng.randrange(r)] = [RatFun.zero()] * n
            w = RatMat(grid)
            if rng.random() < 0.3:
                w = w * RatFun(Poly.linear(rng.choice(planted)))
        factor = ElementaryFactor(alpha, random_direction(rng, r))
        yield repr(factor) + _form(w)
        yield _outcome(lambda x: _form(factor.left_multiply(x)), w)
        yield _outcome(lambda x: _form(factor.left_divide(x)), w)


def _uniqueness(seed):
    rng = random.Random(seed)
    for geo, w in _generated(seed):
        if isinstance(w, Exception):
            yield _failure(w)
            continue
        region_p, region_z = geo["region_p"], geo["region_z"]
        pool = _ORTHOGONAL_POOLS[w.rows]
        candidates = [w, -w, w * 2, perturb_with_allpass(w, [geo["allpass_pole"]])]
        candidates += [q * w for q in rng.sample(pool, 2)]
        for w1 in candidates:
            yield _outcome(uniqueness_check, w, w1, region_p, region_z)


def _sweep(seed):
    # hashed with its newline, this is the SHA-256 of the report as
    # ``specfactor sweep --report`` writes it
    yield json.dumps(run_sweep(120, base_seed=seed), indent=2, sort_keys=True)


FAMILIES = {
    "cancellation": (_cancellation, range(40)),
    "edge": (_edge, range(8)),
    "peel": (_peel, range(16)),
    "structure": (_structure, range(16)),
    "uniqueness": (_uniqueness, range(16)),
    "update": (_update, range(8)),
    "wide": (_wide, range(8)),
    "sweep": (_sweep, [1010000]),
}


def _digest(family, seed) -> str:
    produce, _ = FAMILIES[family]
    sha = hashlib.sha256()
    for text in produce(seed):
        sha.update(text.encode("utf-8") + b"\n")
    return sha.hexdigest()


def _digests(family) -> dict:
    _, seeds = FAMILIES[family]
    return {f"{family}/{seed}": _digest(family, seed) for seed in seeds}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fingerprint_matches_the_committed_digests(family):
    committed = json.loads(GOLDEN.read_text(encoding="utf-8"))
    expected = {key: value for key, value in committed.items()
                if key.split("/")[0] == family}
    found = _digests(family)
    moved = sorted(key for key in expected.keys() | found.keys()
                   if expected.get(key) != found.get(key))
    assert not moved, f"fingerprint moved for {moved}"


def main(argv) -> int:
    if argv != ["--write"]:
        print(f"usage: {Path(__file__).name} --write", file=sys.stderr)
        return 2
    committed = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    digests = {}
    for family in sorted(FAMILIES):
        digests.update(_digests(family))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
    moved = sorted(key for key in committed.keys() | digests.keys()
                   if committed.get(key) != digests.get(key))
    print(f"changed: {' '.join(moved)}" if moved else "no digest changed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
