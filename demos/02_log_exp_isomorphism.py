#!/usr/bin/env python3
# Formal log/exp on the ring: finite series, exact values, group laws.
#
# For b with b(1) = 0, the k-th convolution power of b vanishes below 2^k,
# so the log/exp series stop contributing after floor(log2 N) terms: the
# "infinite" sums are finite on 1..N and everything below is exact.

import random
from fractions import Fraction

import arithfn as af

N = 512
u = af.ArithFn.ones(N)

lug = af.dlog(u)
print("log(u) at prime powers p^k carries 1/k:")
for pk, k in [(2, 1), (4, 2), (8, 3), (16, 4), (9, 2), (27, 3)]:
    print(f"  log(u)({pk:3d}) = {lug[pk]}   (expected 1/{k})")
    assert lug[pk] == Fraction(1, k)

# Bijectivity: exp undoes log and vice versa, exactly.
rng = random.Random(7)
pool = [0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 3)]
a = af.ArithFn.from_values([1] + [rng.choice(pool) for _ in range(N - 1)])
assert af.dexp(af.dlog(a)) == a
m = af.ArithFn.from_values([0] + [rng.choice(pool) for _ in range(N - 1)])
assert af.dlog(af.dexp(m)) == m
print("\nexp(log(a)) == a and log(exp(m)) == m, exact round trips")

# The two group laws correspond: convolution on one side, addition on the other.
b = af.ArithFn.from_values([1] + [rng.choice(pool) for _ in range(N - 1)])
assert af.dlog(a * b) == af.dlog(a) + af.dlog(b)
assert af.dexp(af.dlog(a) + af.dlog(b)) == a * b
print("log(a * b) == log(a) + log(b): the group isomorphism in action")

# Terms past the exact truncation length K = floor(log2 N) are zero: the
# power (a - I)**(K+1) vanishes on 1..N, and every later term is a
# convolution multiple of it.
K = N.bit_length() - 1
assert (a - af.ArithFn.identity(N)) ** (K + 1) == af.ArithFn.zeros(N)
print(f"(a - I)**{K + 1} == 0 on 1..{N}: the {K}-term series is exact")

# Float backend: here the derivative identities become checkable.
N2 = 2000
rng2 = random.Random(8)
c = af.ArithFn.from_values(
    [1.0] + [complex(rng2.uniform(-0.4, 0.4), rng2.uniform(-0.4, 0.4)) for _ in range(N2 - 1)],
    af.COMPLEX,
)
lhs = af.dlog(c).deriv()
rhs = c.deriv() * c.inv()
worst = max(abs(lhs[n] - rhs[n]) for n in range(1, N2 + 1))
print(f"\nlog(a)' vs a' * a^-1 at N={N2}: max deviation {worst:.2e}")
assert worst < 1e-9
