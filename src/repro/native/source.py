"""The C source for the native chain-DP kernel.

``repro_dp`` mirrors, statement for statement, the pure-Python chain
DP :func:`repro.scheduling.common.chain_dp`: the one O(n^3) recurrence
over a :class:`ChainContext` that splits every window cost into an
episodic part (combined with ``max``) and a persistent part (summed) —
EQ 5 with the delayed edges persistent under the shared model, EQ 2
with every buffer persistent under the non-shared one — including the
crossing-cost window evaluation as inline prefix-rectangle queries and
the section 5.1 auto-factoring decision.

Bit-identity contract
---------------------
Every arithmetic step matches the Python path exactly:

* all values are nonnegative int64, so C's truncating ``/`` equals
  Python's ``//`` (the caller guards against overflow before
  dispatching here — see ``ChainContext.use_native``);
* the split scan keeps the *first* minimum (strict ``<`` while walking
  ``k`` ascending), matching ``list.index(min(...))``.

The source string is part of the kernel's content address
(:func:`repro.native.build.kernel_key`): editing it here produces a
new key, a fresh ``cc`` build, and a separate cache entry — stale
binaries can never be loaded.
"""

from __future__ import annotations

__all__ = ["KERNEL_SOURCE", "KERNEL_ABI_VERSION"]

#: Bumped whenever an exported signature changes shape; the loader
#: refuses a binary whose baked-in version disagrees (belt-and-braces
#: on top of content addressing).
KERNEL_ABI_VERSION = 3

KERNEL_SOURCE = r"""
/* repro native kernel: the chain DP.
 *
 * Generated/maintained as a template string in repro/native/source.py;
 * compiled on demand with `cc -O2 -fPIC -shared` and content-addressed
 * by (source, compiler identity, cflags, ABI) in the artifact cache.
 *
 * All quantities are nonnegative int64 and the Python caller has
 * already checked the DP accumulation bound, so `/` here matches
 * Python's floor division and nothing can overflow.
 */

#include <stdint.h>

#define REPRO_ABI_VERSION 3

int64_t repro_abi_version(void) { return REPRO_ABI_VERSION; }

/* Sum of prefix grid P (side m = n+1) over sources [r0, r1] and sinks
 * [c0, c1] -- ChainContext._rect. */
#define RECT(P, m, r0, r1, c0, c1)                                   \
    ((P)[((r1) + 1) * (m) + (c1) + 1] - (P)[(r0) * (m) + (c1) + 1]   \
     - (P)[((r1) + 1) * (m) + (c0)] + (P)[(r0) * (m) + (c0)])

/* The chain DP of repro.scheduling.common.chain_dp.
 *
 *   n          actors in the lexical order
 *   pt, pd, pp (n+1)^2 row-major prefix grids: TNSE words, delay
 *              words, delayed-edge TNSE words
 *   g          n*n row-major window gcd table g[i][j]
 *   shared     0 = EQ 2 (every buffer persistent), 1 = EQ 5 (only
 *              delayed-edge buffers persistent)
 *   factoring  0 = auto (factor iff crossing cost > 0), 1 = always,
 *              2 = never
 *   b          out n*n cost table (caller-zeroed)
 *   split      out n*n chosen split k per window (i, j)
 *   factored   out n*n factoring flags (shared only)
 *   ep, pers   n*n caller-zeroed scratch: episodic/persistent tables
 */
int repro_dp(int64_t n,
             const int64_t *pt, const int64_t *pd, const int64_t *pp,
             const int64_t *g,
             int32_t shared, int32_t factoring,
             int64_t *b, int64_t *split, uint8_t *factored,
             int64_t *ep, int64_t *pers)
{
    int64_t m = n + 1;
    int64_t L, i, k;
    if (n < 2)
        return 0;
    for (L = 2; L <= n; L++) {
        for (i = 0; i <= n - L; i++) {
            int64_t j = i + L - 1;
            int64_t gg = g[i * n + j];
            int64_t best = 0, best_cost = 0, best_k = -1;
            int64_t p_cross, np;
            for (k = i; k < j; k++) {
                int64_t tw = RECT(pt, m, i, k, k + 1, j);
                int64_t dw = RECT(pd, m, i, k, k + 1, j);
                int64_t cost = tw / gg + dw;
                int64_t el = ep[i * n + k];
                int64_t er = ep[(k + 1) * n + j];
                int64_t total = (el > er ? el : er)
                                + pers[i * n + k] + pers[(k + 1) * n + j]
                                + cost;
                /* strict < after the first candidate: first minimum,
                 * matching list.index(min(...)). */
                if (best_k < 0 || total < best) {
                    best = total;
                    best_cost = cost;
                    best_k = k;
                }
            }
            b[i * n + j] = best;
            split[i * n + j] = best_k;
            if (shared) {
                p_cross = RECT(pp, m, i, best_k, best_k + 1, j) / gg
                          + RECT(pd, m, i, best_k, best_k + 1, j);
                factored[i * n + j] = (uint8_t)(
                    factoring == 1 ? 1
                    : factoring == 2 ? 0
                    : (best_cost > 0));
            } else {
                p_cross = best_cost;
            }
            np = pers[i * n + best_k] + pers[(best_k + 1) * n + j] + p_cross;
            pers[i * n + j] = np;
            ep[i * n + j] = best - np;
        }
    }
    return 0;
}
"""
