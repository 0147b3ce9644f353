"""Census of strings of consecutive congruent primes for one residue class.

For each run length m, reports the first string below the cap, how many
strings there are, and how their diameters distribute against B from the
matching construction (k = m). Prints each m as soon as it finishes.

Usage: python3 scripts/string_census.py [Q] [A] [CAP]
"""

import sys
from itertools import chain
from time import perf_counter

from shiu.construction import ConstructionParams, build
from shiu.search import all_strings, diameter_stats

Q = int(sys.argv[1]) if len(sys.argv) > 1 else 3
A = int(sys.argv[2]) if len(sys.argv) > 2 else 1
CAP = int(sys.argv[3]) if len(sys.argv) > 3 else 10**6
M_RANGE = range(2, 7)

print(f"strings of consecutive primes congruent to {A} mod {Q}, below {CAP}")
for m in M_RANGE:
    t0 = perf_counter()
    b = build(ConstructionParams(q=Q, a=A, k=m)).B
    # the stream's first string is the first string below the cap
    stream = all_strings(Q, A, m, cap=CAP)
    head = next(stream, None)
    if head is None:
        print(f"m={m}: none below the cap ({perf_counter() - t0:.2f}s)")
        continue
    stats = diameter_stats(chain((head,), stream), reference_b=b)
    share = stats.at_or_below_reference / stats.count
    print(f"m={m}: first at {head.start_prime} "
          f"(diameter {head.diameter}), {stats.count} strings, "
          f"diameters {stats.min_diameter}..{stats.max_diameter} "
          f"(median {stats.median_diameter:g}), "
          f"{share:.0%} at or below B={b} "
          f"({perf_counter() - t0:.2f}s)")
