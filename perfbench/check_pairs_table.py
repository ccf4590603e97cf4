"""Cross-check the frozen irregular-pair table against sympy's Bernoulli numbers.

Run once from the root of a checkout (needs sympy, a test dependency):

    python3 perfbench/check_pairs_table.py

(p, k) is an irregular pair when p divides the numerator of B_k for an
even 2 <= k <= p - 3.  Exits 1 if the table in workloads.py differs.
"""

import os
import sys

from sympy import bernoulli, primerange

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
from workloads import IRREGULAR_PAIRS  # noqa: E402

LIMIT = 300


def main():
    numerators = {k: bernoulli(k).p for k in range(2, LIMIT, 2)}
    found = tuple((p, k) for p in primerange(5, LIMIT) for k in range(2, p - 2, 2)
                  if numerators[k] % p == 0)
    if found != IRREGULAR_PAIRS:
        print(f"table differs from sympy: {found}")
        return 1
    print(f"{len(found)} irregular pairs below {LIMIT} match sympy")
    return 0


if __name__ == "__main__":
    sys.exit(main())
