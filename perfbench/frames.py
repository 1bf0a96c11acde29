"""Seeded model inputs: J-commuting signed frame permutations, and nil8.

The adapted structure sends e_a to e_{a+n}.  A seed picks a permutation
sigma of the pairs (e_a, e_{a+n}) and a power k_a of J for each pair; the
new frame is

    f_a = J^{k_a} e_{sigma(a)},    f_{a+n} = J f_a        (a = 1..n).

Every f_i is +-e_{pi(i)} for a permutation pi, the map commutes with J and
lies in U(n), so the rewritten model is an isomorphic algebra with the same
metric, orientation, almost complex structure and sparsity.  Structure
constants transform as c'^m_{ij} = s_i s_j s_m c^{pi(m)}_{pi(i) pi(j)}, and
the same formula holds for the dual basis because s_i = +-1.
"""
from __future__ import annotations

import random
from fractions import Fraction

# The n = 4 stress model: a 2-step nilpotent algebra of dimension 8.
NIL8 = {
    "name": "nil8",
    "n": 4,
    "brackets": [
        {"a": 1, "b": 2, "c": 5, "v": -1},
        {"a": 1, "b": 3, "c": 6, "v": -1},
        {"a": 2, "b": 3, "c": 7, "v": -1},
    ],
}


def builtin_dict(name: str) -> dict:
    """A built-in model in the model-file format, read through the public API."""
    from kahlerid.models import get_model

    m = get_model(name)
    return {
        "name": m.name,
        "n": m.n,
        "brackets": [{"a": a, "b": b, "c": c, "v": _value(v)}
                     for a, b, c, v in m.entries],
    }


def _value(v: Fraction):
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def signed_frame(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """[(s_i, pi(i)) for i = 1..2n]: f_i = s_i e_{pi(i)}, 1-based."""
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    powers = [rng.randrange(4) for _ in range(n)]

    def j_power(k: int, a: int) -> tuple[int, int]:
        # J^k e_a for a <= n: e_a, e_{a+n}, -e_a, -e_{a+n}
        k %= 4
        return (1 if k < 2 else -1), (a if k % 2 == 0 else a + n)

    frame = [j_power(k, a) for k, a in zip(powers, sigma)]
    frame += [j_power(k + 1, a) for k, a in zip(powers, sigma)]
    return frame


def permuted(model: dict, seed: int) -> dict:
    """The model rewritten in the frame chosen by `seed` (seed 0: unchanged)."""
    if seed == 0:
        return model
    n = model["n"]
    rng = random.Random(f"kahlerid-frame:{seed}:{model['name']}")
    frame = signed_frame(n, rng)
    inverse = {pi: (s, i) for i, (s, pi) in enumerate(frame, start=1)}
    out: dict[tuple[int, int, int], Fraction] = {}
    for row in model["brackets"]:
        (si, i), (sj, j), (sm, m) = (inverse[row[k]] for k in "abc")
        v = si * sj * sm * Fraction(row["v"])
        if i > j:
            i, j, v = j, i, -v
        out[(i, j, m)] = v
    return {
        "name": model["name"],
        "n": n,
        "brackets": [{"a": i, "b": j, "c": m, "v": _value(v)}
                     for (i, j, m), v in sorted(out.items())],
    }
