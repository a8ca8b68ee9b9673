"""Validation outcomes pinned on a fixed, seeded corpus of bound sets.

Each bound set goes through :func:`validate` and through the
``IntervalAssignment`` constructor.  Every outcome is recorded: the reprs of
the options and the snapped bounds, or the exception's type, message and
codes.  One SHA-256 over them all, in order, is pinned.  The values sit on
and just past the edges of [0, 1] (within TOLERANCE and beyond it), at the
non-finite values and at a subnormal.  A change to a message, a code, the
order of the violations, a snapped bit or an exception type on any of these
sets moves the digest; a change that is meant to alter an outcome updates
the digest in the same commit and says why.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

from simplexfreedom import IntervalAssignment, ValidationError, validate

EDGES = [
    0.0, -0.0,
    -1e-10, 1.0 + 1e-10,  # past an end, within TOLERANCE
    -2e-9, 1.0 + 2e-9,    # past an end, beyond it
    float("nan"), float("inf"), -float("inf"),
    5e-324, 2.0, -0.3,
]

DIGEST = "57028738c3d8db5bea8503c3a86b8b9730bb9ec4b74954bc59ff62f94338c086"


def _value(rnd: random.Random) -> float:
    return rnd.choice(EDGES) if rnd.random() < 0.4 else rnd.uniform(-0.2, 1.2)


def _corpus(n: int = 2000):
    """(ne, po, labels) for ``n`` bound sets of 0 to 5 options.  Half the
    sets put each option's smaller value in ne (NaN stays where it is
    drawn); one option in ten then has ne cross po by 5e-10 (within
    TOLERANCE) or by 2e-9 (beyond it); and one set in 20 adds a value or a
    label past the others' length."""
    rnd = random.Random("validation-golden")
    for _ in range(n):
        m = rnd.randrange(6)
        pairs = [(_value(rnd), _value(rnd)) for _ in range(m)]
        if rnd.random() < 0.5:
            pairs = [(hi, lo) if hi < lo else (lo, hi) for lo, hi in pairs]
        ne = [lo for lo, _ in pairs]
        po = [hi for _, hi in pairs]
        for i in range(m):
            if rnd.random() < 0.1:
                ne[i] = po[i] + rnd.choice((5e-10, 2e-9))
        labels = [f"o{i}" for i in range(m)]
        if rnd.random() < 0.05:
            rnd.choice((ne, po, labels)).append(_value(rnd))
        yield ne, po, labels


def _outcome(build, *args) -> str:
    try:
        a = build(*args)
    except ValidationError as exc:
        return f"ValidationError: {exc} {exc.codes!r}"
    except Exception as exc:  # noqa: BLE001 - any other type is an outcome too
        return f"{type(exc).__name__}: {exc}"
    return f"{a.options!r} {a.ne!r} {a.po!r}"


def _outcomes():
    for ne, po, labels in _corpus():
        yield _outcome(validate, ne, po)
        yield _outcome(IntervalAssignment, labels, ne, po)


def test_outcomes_are_identical():
    h = hashlib.sha256()
    for line in _outcomes():
        h.update(f"{line}\n".encode())
    assert h.hexdigest() == DIGEST


def test_corpus_reaches_every_outcome():
    # the digest guards only what the corpus reaches: both builders succeed
    # and fail, and every validation code occurs
    seen = Counter()
    for i, line in enumerate(_outcomes()):
        kind = "error" if line.startswith("ValidationError") else "built"
        seen[("validate", "constructor")[i % 2], kind] += 1
        for code in ("LengthMismatch", "TooFewOptions", "RangeError",
                     "BoundOrder", "Infeasible"):
            seen[code] += f"'{code}'" in line
    assert min(seen.values()) > 0, seen
