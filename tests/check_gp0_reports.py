"""Check a ``tropdiv gp0`` report file from its JSON alone.

    python3 tests/check_gp0_reports.py REPORTS.json --count N [--every K]

Every report must be "independent", there must be N of them, and the
file's text must be that of json.dumps(sort_keys=True, indent=2) with a
trailing newline, the layout ``serialize.dumps`` writes with its own
writer.  Every K-th report (the first, the (K+1)-th, ...) is also
checked on the default generic chain of its genus, with one reader and
one verifier:

- its certificate is read once, by ``serialize``'s checked reader
  ``independence_certificate_from_json``, which refuses a float offset
  or a non-int permutation entry;
- its offsets b pass the plain ``Fraction`` comparisons
  f_s(p_i) + b_s < f_c(p_i) + b_c at each point p_i, s = sigma(i), for
  every c != s, where f_c = phi_j + psi_k for c = j * rows + k is
  evaluated as phi_j(p_i) + psi_k(p_i).  phi_j and psi_k are the
  witnesses of ``build_Dj`` and ``build_Ek``, which take D_j, E_k and
  their witnesses from ``v_reduce``: the oracle for the matrix gp0 reads
  off the loop scan ``chainbn._twist``, which they do not run.  Each
  witness is read once at each point;
- its empty cells, which gp0 reads off integer chips, are those that
  ``shape_profile`` finds on the ``Divisor``s D_j + E_k.

Exits 0 if every check passes and 1 otherwise.  Not a pytest module:
``scale/test_gp0.py`` calls ``main`` on the reports of the installed
console script, and ``scale/test_reduce.py`` checks the other files that
script writes with ``layout_kept``.  The bytes of those reports are
pinned apart from these checks, by their digests in
``data/scale_golden.json``.
"""
from __future__ import annotations

import argparse
import json
import sys
from itertools import product

from tropdiv import default_generic_chain, serialize
from tropdiv.chainbn import Tableau, build_Dj, build_Ek, shape_profile


def layout_kept(text: str) -> bool:
    """Whether ``text`` is that of json.dumps(sort_keys=True, indent=2)
    with a trailing newline, the layout ``serialize.dumps`` writes."""
    return text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def check_report(rep, chain) -> tuple[bool, bool]:
    """(offsets strict, empty cells match) for one report."""
    T = Tableau(tuple(map(tuple, rep["tableau"])))
    Ds = [build_Dj(T, chain, j) for j in range(T.cols)]
    Es = [build_Ek(T, chain, k) for k in range(T.rows)]
    cert = serialize.independence_certificate_from_json(chain.graph, rep["certificate"])
    b, sigma = cert.offsets, cert.permutation
    n = T.cols * T.rows
    strict = sorted(sigma) == list(range(n)) and len(b) == len(cert.points) == n
    for p, s in zip(cert.points, sigma) if strict else ():
        phis, psis = [phi(p) for _D, phi in Ds], [psi(p) for _E, psi in Es]
        vals = [x + y + bc for (x, y), bc in zip(product(phis, psis), b)]
        strict = strict and all(vals[s] < v for c, v in enumerate(vals) if c != s)
    cells = {f"{j},{k}": shape_profile(Dj + Ek, chain).empty_cells()
             for j, (Dj, _phi) in enumerate(Ds) for k, (Ek, _psi) in enumerate(Es)}
    matched = cells == {jk: (i,) for jk, i in rep["empty_cells"].items()}
    return strict, matched


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("reports", help="JSON file written by tropdiv gp0 --out")
    p.add_argument("--count", type=int, required=True,
                   help="number of reports the file must hold")
    p.add_argument("--every", type=int, default=1,
                   help="check the certificate of every K-th report")
    args = p.parse_args(argv)
    if args.every < 1:
        p.error(f"--every must be positive, got {args.every}")
    with open(args.reports) as fh:
        text = fh.read()
    layout_ok = layout_kept(text)
    reps = json.loads(text)["reports"]
    dependent = sum(rep["verdict"] != "independent" for rep in reps)
    chains = {}
    checked = not_strict = mismatched = 0
    for rep in reps[::args.every]:
        if rep["g"] not in chains:
            chains[rep["g"]] = default_generic_chain(rep["g"])
        strict, matched = check_report(rep, chains[rep["g"]])
        checked += 1
        not_strict += not strict
        mismatched += not matched
    print(f"{len(reps)} reports, {dependent} not independent; of {checked} "
          f"checked, {not_strict} with offsets failing the plain comparisons, "
          f"{mismatched} with other empty cells than shape_profile's; layout "
          f"{'kept' if layout_ok else 'differs'}")
    return int(len(reps) != args.count or dependent > 0 or not_strict > 0
               or mismatched > 0 or not layout_ok)


if __name__ == "__main__":
    sys.exit(main())
