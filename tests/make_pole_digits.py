"""Rewrite tests/strip_poles.json with each pole and residue to 40 digits,
from mpmath alone, for test_green.py to check the pole search against.

Each medium is a mirror-backed slab (eps, mu, d) at the transition
frequencies k0 in omegas; its poles are those of r_s (kind 0) and r_p
(kind 1) in the strip 0 < Re beta < k0. The script seeds each pole from
the beta stored in the file, refines it as a zero of r's denominator in
the Fresnel form

    r = (a beta - b1 -+ (a beta + b1) E) / (a beta + b1 -+ (a beta - b1) E),

a = mu (s, upper signs) or eps (p, lower), b1 = sqrt(beta^2 + (eps mu - 1)
k0^2), E = exp(2i b1 d), at 60 digits, and takes the residue as the
numerator over mpmath's derivative of the denominator there. r is even in
b1, so either root gives the same pole and residue; b1 is kept on the
branch with Im b1 >= 0 at the seed, where |E| <= 1, and continued from
there. Nothing of planarcp is used, so the digits do not inherit its
formulas.

    python tests/make_pole_digits.py           # rewrite the file
    python tests/make_pole_digits.py --check   # exit 1 if it would change

A rewrite seeds from the digits it wrote, so it is a fixed point: --check
fails only when the file and this script disagree. Each pole is
[kind, beta, residue], with the complex numbers as [re, im] strings.
"""

import json
import sys
from pathlib import Path

import mpmath as mp

PATH = Path(__file__).with_name("strip_poles.json")
DIGITS = 40


def fresnel(kind, eps, mu, d, k0, seed):
    """(numerator, denominator) of r_s (kind 0) or r_p (kind 1) as a
    function of beta near seed."""
    a, sign = (mu, -1) if kind == 0 else (eps, 1)

    def root(beta):
        return mp.sqrt(beta * beta + (eps * mu - 1) * k0 * k0)

    near = root(seed) if mp.im(root(seed)) >= 0 else -root(seed)

    def parts(beta):
        b1 = root(beta)
        b1 = b1 if abs(b1 - near) <= abs(b1 + near) else -b1
        e = mp.exp(2j * b1 * d)
        return (a * beta - b1 + sign * (a * beta + b1) * e,
                a * beta + b1 + sign * (a * beta - b1) * e)

    return parts


def digits(z):
    return [mp.nstr(mp.re(z), DIGITS), mp.nstr(mp.im(z), DIGITS)]


def pole(kind, seed, eps, mu, d, k0):
    """The pole of the given kind nearest seed, and r's residue there."""
    seed = mp.mpc(*seed)
    parts = fresnel(kind, eps, mu, d, k0, seed)
    # Secant steps from two points 1e-12 apart: the stored poles lie closer
    # to their zeros than to each other.
    beta = mp.findroot(lambda b: parts(b)[1], (seed, seed + 1e-12), tol=mp.mpf(10) ** -55)
    if abs(beta - seed) > 1e-8 * (abs(beta) + k0):
        raise SystemExit(f"eps={eps} mu={mu} d={d} k0={k0}: the pole seeded at "
                         f"{seed} moved to {beta}")
    return beta, parts(beta)[0] / mp.diff(lambda b: parts(b)[1], beta)


def medium_line(medium):
    eps, mu = (mp.mpc(*map(float, medium[key])) for key in ("eps", "mu"))
    d = mp.mpf(medium["d"])
    out = []
    for k0, stored in zip(medium["omegas"], medium["poles"]):
        found = []
        for kind, seed, *_ in stored:
            beta, res = pole(kind, [mp.mpf(x) for x in seed], eps, mu, d, mp.mpf(k0))
            if any(abs(beta - other) < 1e-10 for other, _ in found):
                raise SystemExit(f"eps={eps} mu={mu} d={d} k0={k0}: two seeds "
                                 f"reach the pole {beta}")
            found.append((beta, [kind, digits(beta), digits(res)]))
        out.append([entry for _, entry in found])
    return json.dumps({**{k: medium[k] for k in ("eps", "mu", "d", "omegas")}, "poles": out})


def main():
    mp.mp.dps = 60
    old = PATH.read_text()
    new = "[\n" + ",\n".join(map(medium_line, json.loads(old))) + "\n]\n"
    if "--check" in sys.argv[1:]:
        if new != old:
            raise SystemExit(f"{PATH.name} differs from what {Path(__file__).name} writes")
        count = sum(len(p) for medium in json.loads(new) for p in medium["poles"])
        print(f"{PATH.name}: {count} poles match their digits")
        return
    PATH.write_text(new)


if __name__ == "__main__":
    main()
