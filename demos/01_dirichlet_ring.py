#!/usr/bin/env python3
# Tour of the truncated Dirichlet ring: tables, convolution, inversion.
#
# Every function lives on 1..N.  Because (a * b)(n) only reads values at
# divisors of n, nothing here is an approximation: the printed tables are
# exactly what the untruncated objects look like on 1..N.

from fractions import Fraction

import arithfn as af

N = 30
sieve = af.build_sieve(N)

u = af.make("u", sieve)       # constant 1
mu = af.make("mobius", sieve)  # squarefree sign
d = af.make("d", sieve)       # divisor count
I = af.make("I", sieve)       # convolution unit

print("n having smallest prime factor table:", sieve.factorize(12), "for 12")
print()

# Convolution: u * u counts divisors.
print(" n   u*u   d")
for n in range(1, 13):
    print(f"{n:2d}   {(u * u)[n]:3}  {d[n]:2}")
assert u * u == d

# Mobius inversion: mu is the convolution inverse of u.
assert u.inv() == mu
assert mu * u == I
print("\nmu = inv(u) and mu * u = I hold exactly on 1..N")

# Scalars and pointwise sums live alongside the convolution product.
half_u = Fraction(1, 2) * u
assert (half_u + half_u) == u

# The inverse of any function with a(1) != 0 exists; here is sigma_1^-1.
sigma1 = af.make("sigma", sieve, c=1)
inv_sigma = sigma1.inv()
print("\nfirst values of inv(sigma_1):", [inv_sigma[n] for n in range(1, 9)])
assert sigma1 * inv_sigma == I

# Truncation is exact: computing at a bigger bound and cutting back down
# agrees with computing at the smaller bound directly.
big = af.build_sieve(2 * N)
s_big = af.make("sigma", big, c=1)
assert (s_big * s_big.inv()).truncate(N) == I
assert s_big.truncate(N) == sigma1

print("\nall ring checks passed")
