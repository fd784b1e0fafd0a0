"""Independent reference implementations used only to check the library.

Everything here is deliberately written in the most naive possible style
(dense lists, textbook elimination, exhaustive enumeration) so it shares no
code path with the package.
"""

from fractions import Fraction


def dense_rank(rows, q=0):
    """Textbook Gaussian elimination rank.

    ``rows`` is a list of lists of Fractions/ints (q=0) or of ints taken
    modulo the prime q.
    """
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    if q == 0:
        m = [[Fraction(x) for x in row] for row in m]
    else:
        m = [[x % q for x in row] for row in m]
    rank = 0
    for col in range(n_cols):
        piv = None
        for r in range(rank, n_rows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = (Fraction(1) / m[rank][col]) if q == 0 else pow(m[rank][col], q - 2, q)
        m[rank] = [x * inv if q == 0 else (x * inv) % q for x in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                if q == 0:
                    m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
                else:
                    m[r] = [(a - f * b) % q for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def c_scale(c, v: dict) -> dict:
    """The cochain c * v, with no zero coefficient."""
    return {m: c * x for m, x in v.items() if c * x != 0}


def sparse_mul(rows, x):
    """M x for M given by sparse row dicts and x a sparse dict; zero
    entries of the product are dropped."""
    out = {}
    for i, row in enumerate(rows):
        s = sum(v * x.get(c, 0) for c, v in row.items())
        if s:
            out[i] = s
    return out


def transpose(rows, n_cols):
    """The sparse rows of the transpose of a matrix with n_cols columns,
    given by sparse row dicts."""
    out = [{} for _ in range(n_cols)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            out[c][i] = v
    return out


def brute_force_solutions_fp(rows, b, p, n_cols):
    """All solutions of M x = b over F_p by odometer enumeration.

    Returns (count, one_solution_or_None).  Incremental update keeps this
    usable up to a few hundred thousand candidate vectors.
    """
    n_rows = len(rows)
    x = [0] * n_cols
    mx = [0] * n_rows
    cols = [[rows[r][c] % p for r in range(n_rows)] for c in range(n_cols)]
    target = [v % p for v in b]
    count = 0
    witness = None
    total = p ** n_cols
    for step in range(total):
        if mx == target:
            count += 1
            if witness is None:
                witness = list(x)
        # odometer increment with carries
        i = 0
        while i < n_cols and step + 1 < total:
            x[i] += 1
            for r in range(n_rows):
                mx[r] = (mx[r] + cols[i][r]) % p
            if x[i] < p:
                break
            # carry: x[i] rolls p -> 0, i.e. subtract p * column = 0 mod p
            x[i] = 0
            i += 1
    return count, witness


def brute_kernel_image_dims_fp(matrix_rows, n_cols, p):
    """(dim ker, dim im) over F_p by exhaustive vector enumeration."""
    n_rows = len(matrix_rows)
    ker = 0
    images = set()
    x = [0] * n_cols
    for _ in range(p ** n_cols):
        mx = tuple(sum(matrix_rows[r][c] * x[c] for c in range(n_cols)) % p
                   for r in range(n_rows))
        if all(v == 0 for v in mx):
            ker += 1
        images.add(mx)
        i = 0
        while i < n_cols:
            x[i] += 1
            if x[i] < p:
                break
            x[i] = 0
            i += 1
        else:
            break
    import math
    kdim = round(math.log(ker, p))
    idim = round(math.log(len(images), p))
    return kdim, idim
