"""Check a ``tropdiv gp0`` report file from its JSON alone.

    python3 tests/check_gp0_reports.py REPORTS.json --count N [--every K] [--golden]

Every report must be "independent", there must be N of them, and the
file's text must be that of json.dumps(sort_keys=True, indent=2) with a
trailing newline, the layout ``serialize.dumps`` writes with its own
writer.  With ``--golden``, the reports' ``sweep_digest`` must be the
one that ``data/gp0_golden.json`` records for their genus (12 or 15),
which pins every certificate offset of those sweeps.  Every K-th report
(the first, the (K+1)-th, ...) is also checked on the default generic
chain of its genus:

- ``verify_independence`` accepts its certificate on the family
  {phi_j + psi_k} rebuilt as ``PLFunction`` sums from ``build_Dj`` and
  ``build_Ek``, which take D_j, E_k and their witnesses from
  ``v_reduce``: the oracle for the matrix gp0 reads off the loop scan
  ``chainbn._twist``, which they do not run;
- its offsets b pass the plain ``Fraction`` comparisons
  f_s(p_i) + b_s < f_c(p_i) + b_c at each point p_i, s = sigma(i), for
  every c != s, where f_c = phi_j + psi_k for c = j * rows + k is
  evaluated as phi_j(p_i) + psi_k(p_i);
- its empty cells, which gp0 reads off integer chips, are those that
  ``shape_profile`` finds on the ``Divisor``s D_j + E_k.

Exits 0 if every check passes and 1 otherwise.  Not a pytest module:
``scale/test_gp0.py`` calls ``main`` on the reports of the installed
console script, and ``scale/test_reduce.py`` checks the other files that
script writes with ``layout_kept``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from tropdiv import default_generic_chain, serialize
from tropdiv.chainbn import Tableau, build_Dj, build_Ek, shape_profile
from tropdiv.independence import verify_independence

GOLDEN = Path(__file__).parent / "data" / "gp0_golden.json"


def sweep_digest(reports) -> str:
    """SHA-256 of the ``serialize.dumps`` text of {"reports": reports},
    each report without its ``elapsed_seconds``: a gp0 sweep's output
    less its timings."""
    kept = [{k: v for k, v in rep.items() if k != "elapsed_seconds"}
            for rep in reports]
    return hashlib.sha256(serialize.dumps({"reports": kept}).encode()).hexdigest()


def layout_kept(text: str) -> bool:
    """Whether ``text`` is that of json.dumps(sort_keys=True, indent=2)
    with a trailing newline, the layout ``serialize.dumps`` writes."""
    return text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def check_report(rep, chain) -> tuple[bool, bool, bool]:
    """(re-verified, offsets strict, empty cells match) for one report."""
    T = Tableau(tuple(map(tuple, rep["tableau"])))
    Ds = [build_Dj(T, chain, j) for j in range(T.cols)]
    Es = [build_Ek(T, chain, k) for k in range(T.rows)]
    fam = [phi + psi for (_D, phi) in Ds for (_E, psi) in Es]
    js = rep["certificate"]
    cert = serialize.independence_certificate_from_json(chain.graph, js)
    verified = verify_independence(fam, cert)
    b = [Fraction(x) for x in js["offsets"]]
    sigma = js["permutation"]
    pts = [chain.graph.point(p["edge"], Fraction(p["offset"])) for p in js["points"]]
    strict = sorted(sigma) == list(range(len(fam))) and len(b) == len(pts) == len(fam)
    for p, s in zip(pts, sigma) if strict else ():
        vals = [phi(p) + psi(p) + b[j * T.rows + k]
                for j, (_D, phi) in enumerate(Ds) for k, (_E, psi) in enumerate(Es)]
        strict = strict and all(vals[s] < v for c, v in enumerate(vals) if c != s)
    cells = {f"{j},{k}": shape_profile(Dj + Ek, chain).empty_cells()
             for j, (Dj, _phi) in enumerate(Ds) for k, (Ek, _psi) in enumerate(Es)}
    matched = cells == {jk: (i,) for jk, i in rep["empty_cells"].items()}
    return verified, strict, matched


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("reports", help="JSON file written by tropdiv gp0 --out")
    p.add_argument("--count", type=int, required=True,
                   help="number of reports the file must hold")
    p.add_argument("--every", type=int, default=1,
                   help="check the certificate of every K-th report")
    p.add_argument("--golden", action="store_true",
                   help="compare the reports' digest with the recorded one")
    args = p.parse_args(argv)
    if args.every < 1:
        p.error(f"--every must be positive, got {args.every}")
    with open(args.reports) as fh:
        text = fh.read()
    layout_ok = layout_kept(text)
    reps = json.loads(text)["reports"]
    dependent = sum(rep["verdict"] != "independent" for rep in reps)
    chains = {}
    checked = bad = not_strict = mismatched = 0
    for rep in reps[::args.every]:
        if rep["g"] not in chains:
            chains[rep["g"]] = default_generic_chain(rep["g"])
        verified, strict, matched = check_report(rep, chains[rep["g"]])
        checked += 1
        bad += not verified
        not_strict += not strict
        mismatched += not matched
    digest_ok = True
    if args.golden:
        recorded = json.loads(GOLDEN.read_text())["sweep_sha256"]
        digest_ok = bool(reps) and sweep_digest(reps) == recorded.get(str(reps[0]["g"]))
    print(f"{len(reps)} reports, {dependent} not independent; of {checked} "
          f"checked, {bad} not re-verified, {not_strict} with offsets failing "
          f"the plain comparisons, {mismatched} with other empty cells than "
          f"shape_profile's; layout {'kept' if layout_ok else 'differs'}"
          + (f"; digest {'recorded' if digest_ok else 'differs'}"
             if args.golden else ""))
    return int(len(reps) != args.count or dependent > 0 or bad > 0
               or not_strict > 0 or mismatched > 0 or not layout_ok
               or not digest_ok)


if __name__ == "__main__":
    sys.exit(main())
