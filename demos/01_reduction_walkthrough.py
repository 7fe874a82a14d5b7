"""Reduced divisors on a chain of loops, step by step.

Builds a genus-3 chain, reduces the canonical divisor at w_3, and checks
the witness function by hand.
"""
from tropdiv import canonical_divisor, default_generic_chain, v_reduce


def show(D):
    return " + ".join(f"{c}*{p}" for p, c in sorted(D.items(), key=str)) or "0"


def main():
    chain = default_generic_chain(3)
    G = chain.graph
    print(f"chain of loops, genus {chain.g}")
    print(f"  loop lengths ell = {[str(x) for x in chain.ell]}")
    print(f"  loop lengths m   = {[str(x) for x in chain.m]}")
    print(f"  bridges beta     = {[str(x) for x in chain.beta]}")

    K = canonical_divisor(G)
    print(f"\ncanonical divisor (degree {K.degree}):")
    print(f"  K = {show(K)}")

    base = chain.w(3)
    res = v_reduce(G, K, base)
    print(f"\nreduced at {base} in {res.steps} firing steps:")
    print(f"  K_red = {show(res.reduced)}")

    # The witness is an explicit piecewise-linear function carrying K to
    # its reduced representative.
    assert K + res.witness.divisor() == res.reduced
    assert res.witness(base) == 0
    print("\nwitness check: K + div(f) == K_red and f(w3) == 0   [ok]")

    # Reduction is a projection: reducing again does nothing.
    again = v_reduce(G, res.reduced, base)
    assert again.reduced == res.reduced and again.steps == 0
    print("idempotence: reducing the reduced divisor takes 0 steps [ok]")

    # The reduced representative has at most one chip per cell gamma_i and
    # none on the bridges -- the shape classification.
    from tropdiv import shape_profile
    prof = shape_profile(res.reduced, chain)
    print(f"\nshape: cells occupied {prof.cells}, bridges {prof.bridges}, "
          f"chips at w3 = {prof.wg_coeff}")


if __name__ == "__main__":
    main()
