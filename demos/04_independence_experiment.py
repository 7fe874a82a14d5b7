"""The rho = 0 independence experiment on a genus-4 chain.

For each standard 2x2 tableau we build the pair divisors D_j and E_k, check
that each sum D_j + E_k leaves exactly the tableau's cell empty, and prove
the family {phi_j + psi_k} tropically independent by the certificate that
this empty-cell table gives: the vertex v_i is matched to the function
whose cell holds entry i, and the matrix of values M[i][f] = f(v_i) has
that matching as the unique optimal permutation of its min-plus
permanent, so that no choice of offsets can make the minimum tie at every
point.  The certificate carries offsets b that show it: at each v_i the
matched function plus its offset is below every other f(v_i) + b_f.  The
expected verdict on a generic chain is independence.
"""
from tropdiv import (default_generic_chain, enumerate_tableaux,
                     gp_rho_zero_experiment)


def main():
    g, r, d = 4, 1, 3
    chain = default_generic_chain(g)
    rows = g - d + r
    tableaux = list(enumerate_tableaux(rows, r + 1))
    print(f"(g, r, d) = ({g}, {r}, {d}): {len(tableaux)} standard tableaux\n")

    for T in tableaux:
        rep = gp_rho_zero_experiment(T, chain)
        print(f"tableau {T.entries}:")
        for (j, k), i in sorted(rep.empty_cell_table.items()):
            print(f"  D_{j} + E_{k} leaves exactly cell gamma_{i} empty")
        print(f"  verdict: {rep.verdict}")
        assert rep.verdict == "independent"
        cert = rep.independence_certificate
        print("  certificate (empty-cell table):")
        for p, f in zip(cert.points, cert.permutation):
            j, k = divmod(f, rows)
            print(f"    point {p} is matched to phi_{j} + psi_{k}, "
                  f"offset {cert.offsets[f]}")
        print()

    print("every matching is the unique optimum of its min-plus permanent: "
          "the family is independent for every tableau")


if __name__ == "__main__":
    main()
