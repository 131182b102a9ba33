"""Characteristic-polynomial reference for ``spectral.lambda2_below_half``.

The polynomial is computed in integers, independently of the floating
eigensolver and of the library's elimination, and the eigenvalues of A at or
above k/2 are counted from it exactly.  Tests require the library's decision
to agree with this count.
"""


def characteristic_polynomial(G) -> tuple[int, ...]:
    """Exact integer coefficients of det(xI - A), highest power first.

    Faddeev-LeVerrier in integers (each coefficient is an integer, so its
    division by k is exact); n**3 * k additions of growing integers.
    """
    n = G.n
    coeffs = [1]
    M = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M <- A @ (M + c_{k-1} I)
        for i in range(n):
            M[i][i] += coeffs[-1]
        M = [[sum(M[t][j] for t in G.adjacency[i]) for j in range(n)] for i in range(n)]
        trace = sum(M[i][i] for i in range(n))
        if trace % k:
            raise AssertionError("characteristic polynomial must have integer coefficients")
        coeffs.append(-trace // k)
    return tuple(coeffs)


def lambda2_below_half_by_descartes(G) -> bool:
    """Whether a k-regular G has exactly one eigenvalue of A at or above k/2.

    Those are the roots y >= 0 of det(yI - (2A - kI)), an integer polynomial
    with only real roots: Descartes' rule of signs counts its positive roots
    exactly, and its trailing zero coefficients count the root at 0.
    """
    k = G.regular_k
    # Horner's rule for 2**n * p((y + k) / 2), p = det(xI - A), highest power first.
    q: list[int] = []
    for j, c in enumerate(characteristic_polynomial(G)):
        q = [a + k * b for a, b in zip(q + [0], [0] + q)]
        q[-1] += c * 2**j
    at_zero = next(j for j, a in enumerate(reversed(q)) if a)
    signs = [a > 0 for a in q if a]
    positive = sum(a != b for a, b in zip(signs, signs[1:]))
    return at_zero + positive == 1
