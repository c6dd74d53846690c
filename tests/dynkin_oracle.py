"""Reference constructions on Dynkin quivers that the tests compare the library against.

The indecomposables of a Dynkin quiver are the bricks at its positive roots
(Gabriel), so Kac's generic decomposition there is the one multiset of roots
whose indecomposables have no Ext between them.
"""

from clusterchar import QQ, hom_dim, positive_roots, random_representation
from clusterchar.replab import first_ext_pair


def indecomposable_for_root(q, beta):
    """The unique indecomposable of a Dynkin quiver with dimension vector beta:
    the first seeded random representation that is a brick."""
    beta = tuple(int(x) for x in beta)
    if beta not in set(positive_roots(q)):
        raise ValueError(f"{beta} is not a positive root")
    seed = 1000003
    for b in beta:
        seed = seed * 31 + b
    for s, t in q.arrows:
        seed = seed * 31 + 7 * s + t
    for attempt in range(200):
        cand = random_representation(q, beta, QQ, rng_seed=seed + attempt)
        if hom_dim(cand, cand) == 1:
            return cand
    raise AssertionError(f"no brick of dimension {beta} in 200 samples")


def root_search_decomposition(q, d):
    """Kac's decomposition of d on a Dynkin quiver by exhaustive search: the one
    multiset of positive roots whose indecomposables have no Ext between them."""
    roots = sorted(positive_roots(q), reverse=True)
    reps = {beta: indecomposable_for_root(q, beta) for beta in roots}
    found = []

    def search(remaining, start, chosen):
        if not any(remaining):
            if first_ext_pair([reps[a] for a in chosen]) is None:
                found.append(list(chosen))
            return
        for k in range(start, len(roots)):
            beta = roots[k]
            if all(b <= r for b, r in zip(beta, remaining)):
                chosen.append(beta)
                search(tuple(r - b for r, b in zip(remaining, beta)), k, chosen)
                chosen.pop()

    search(tuple(d), 0, [])
    assert len(found) == 1, f"{len(found)} root multisets pass the Ext test for {d}"
    return sorted(found[0])
