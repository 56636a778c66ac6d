"""Small exact helpers used throughout: primality, p-parts, valuations,
and linear solving over Q."""

from fractions import Fraction


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def vp(n, p):
    """The exponent of p in n (n a nonzero integer)."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_part(n, p):
    return p ** vp(n, p)


def prime_factors(n):
    """Sorted distinct prime factors of n > 1 (empty for n == 1)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def multiplicative_order(a, n):
    """Order of a modulo n; requires gcd(a, n) == 1."""
    from math import gcd

    if n == 1:
        return 1
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not invertible modulo {n}")
    a %= n
    k, x = 1, a
    while x != 1:
        x = x * a % n
        k += 1
    return k


def solve_rational(columns, target):
    """A solution a of sum_j a_j * columns[j] = target over Q, as a list
    of Fractions (free unknowns set to 0); None if inconsistent."""
    rows = len(target)
    cols = len(columns)
    m = [[columns[j][i] for j in range(cols)] + [target[i]] for i in range(rows)]
    pivots = []
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, rows):
        if m[i][cols]:
            return None
    solution = [Fraction(0)] * cols
    for i, col in enumerate(pivots):
        solution[col] = m[i][cols]
    return solution
