"""Seeded inputs for the benchmark workloads.

Nothing here imports gradedchi: the inputs are plain session text plus the
exponent/coefficient data the correctness oracle needs, so the program under
test only ever sees what this module generates.

Workloads (see BENCHMARK.json for the one-line reasons):

* tor-ladder   -- `tor` then `check` on two rings whose resolutions blow up,
                  each over QQ and GF(32003). two_planes is wide (Betti
                  counts 1, 3, 7, 17, ...), cubic_cone is deep (two
                  generators per step). `check` reuses the resolution that
                  `tor` built for the same window.
* closed-form  -- a seeded batch of random quotient rings with random ideal
                  pairs, one `compute_chi` per pair; no Tor work at all.
"""

from __future__ import annotations

import random

FP = 32003

TWO_PLANES = (
    "ring R { vars x:1, y:1, z:1, w:1; relations x*z, x*w, y*z, y*w; }\n"
    "ideal I = (x, y, w);\n"
    "ideal J = (y, z, w);\n"
)
CUBIC_CONE = (
    "ring R { vars x:1, y:1, z:1; relations x^3 + y^3 + z^3; }\n"
    "ideal I = (x + y, z);\n"
    "ideal J = (y, x + z);\n"
)

# (name, session prefix, field, imax, dmax): each ring at two windows over
# both fields. Every rung takes 0.1-0.5 s, so a pass is short and one run
# times each rung in dozens of cold passes.
TOR_RUNGS = tuple(
    (f"{ring}-{fname}-{imax}-{dmax}", prefix, field, imax, dmax)
    for ring, prefix, windows in (
        ("two_planes", TWO_PLANES, ((5, 7), (6, 8))),
        ("cubic_cone", CUBIC_CONE, ((8, 14), (12, 20))),
    )
    for imax, dmax in windows
    for fname, field in (("qq", "qq"), ("fp", f"fp:{FP}"))
)

# closed-form instance shapes: (nvars, field, relation degrees) per ring and
# (I degrees, J degrees) per ideal pair. Forms are dense, so the work of an
# instance follows from its shape; the seed draws only the coefficients. That
# keeps the work per pass the same for every seed while the values vary.
# Six rings keep a pass near one second, so one run times every instance in
# dozens of cold passes.
RING_SHAPES = (
    (4, "qq", (2,)),
    (4, "fp", (3,)),
    (5, "qq", (2,)),
    (5, "fp", (3,)),
    (4, "qq", (2, 3)),
    (4, "fp", (2, 2)),
)
PAIR_SHAPES = (
    ((1,), (1,)),
    ((1, 1), (2,)),
    ((2, 2), (1, 2)),
    ((1, 2, 2), (2,)),
    ((1, 1, 1), (2, 2)),
)
# degree through which the Hilbert series of QQ instances are compared with
# the dense oracle in tests/oracles.py
ORACLE_DEGREE = 3


def tor_ladder(seed: int) -> list:
    """The eight rungs, wide before deep. The ladder is fixed, so the seed does
    not change it; a fixed order also keeps peak memory comparable between
    runs, since every resolution stays cached until the pass ends."""
    del seed
    return [
        {
            "name": name,
            "text": prefix
            + f"tor I J --imax {imax} --dmax {dmax};\n"
            + f"check I J --imax {imax} --dmax {dmax};\n",
            "field": field,
            "imax": imax,
            "dmax": dmax,
        }
        for name, prefix, field, imax, dmax in TOR_RUNGS
    ]


def _monomials(nvars: int, deg: int) -> list:
    if nvars == 1:
        return [(deg,)]
    return [(e,) + rest for e in range(deg, -1, -1) for rest in _monomials(nvars - 1, deg - e)]


def _random_form(rng: random.Random, nvars: int, deg: int, fp: bool) -> dict:
    """A dense form: every monomial of the degree, with a random nonzero
    coefficient, so the cost of an instance depends on its shape rather
    than on which monomials the seed happened to pick."""
    if fp:
        return {m: rng.randrange(1, FP) for m in _monomials(nvars, deg)}
    return {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in _monomials(nvars, deg)}


def _form_text(form: dict, names: list) -> str:
    parts = []
    for m in sorted(form, reverse=True):
        c = form[m]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
        body = "*".join(factors)
        mag = abs(c)
        if mag != 1:
            body = f"{mag}*{body}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts)


def closed_form(seed: int) -> list:
    """One session text per ring shape, with its ideal pairs. Forms are also
    kept as {exponent tuple: int} for the oracle check."""
    rng = random.Random(seed)
    rings = []
    for k, (nvars, field, rel_degs) in enumerate(RING_SHAPES):
        fp = field == "fp"
        names = [f"x{i}" for i in range(nvars)]
        rels = [_random_form(rng, nvars, d, fp) for d in rel_degs]
        ideals = {}
        for p, shapes in enumerate(PAIR_SHAPES):
            for side, degs in zip("IJ", shapes):
                ideals[f"{side}{p}"] = [_random_form(rng, nvars, d, fp) for d in degs]
        text = (
            f"ring R{k} {{ vars {', '.join(names)}; relations "
            + ", ".join(_form_text(r, names) for r in rels)
            + "; }\n"
            + "".join(
                f"ideal {name} = ({', '.join(_form_text(g, names) for g in gens)});\n"
                for name, gens in ideals.items()
            )
        )
        rings.append(
            {
                "name": f"ring{k}",
                "text": text,
                "field": f"fp:{FP}" if fp else "qq",
                "pairs": [(f"I{p}", f"J{p}") for p in range(len(PAIR_SHAPES))],
                "relations": rels,
                "ideals": ideals,
            }
        )
    return rings


WORKLOADS = {
    "tor-ladder": tor_ladder,
    "closed-form": closed_form,
}


def make_inputs(workload: str, seed: int) -> list:
    return WORKLOADS[workload](seed)
