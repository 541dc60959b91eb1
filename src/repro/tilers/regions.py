"""Access regions of ArrayOL tilers, in the optimiser's box language.

A tiler addresses ``o + F @ i + P @ r  (mod array_shape)`` — per array
dimension an affine progression over the pattern and repetition index
spaces.  When no dimension wraps, that progression is exactly the
``const + sum(coef * x)`` form :func:`repro.analysis.regions.
progression_box` collapses, so the footprint of a whole tiler collapses
to one strided :class:`~repro.analysis.regions.Box` — the same currency
the region oracle speaks for kernels and transfers, which lets the
ArrayOL route's connectors participate in disjointness proofs.

A dimension that *does* wrap (the modulo folds some reference back into
the array) covers an interval that is not a single progression; it is
widened to the whole dimension and the box is marked inexact.  So is a
box in which one ``F``/``P`` column moves two dimensions: the tiler then
walks a diagonal through their product, not the product itself.
"""

from __future__ import annotations

from repro.tilers.tiler import Tiler

__all__ = ["tiler_access_box"]


def tiler_access_box(tiler: Tiler):
    """The strided box of array elements ``tiler`` touches.

    Exact (``box.exact``) when every dimension's progression is complete,
    nothing wraps and each ``F``/``P`` column that takes more than one
    value moves at most one dimension; dimensions that wrap are widened to
    ``[0, n)`` and drop exactness.  The result always *contains* every
    touched element, so it is sound for ``may_alias``-style overlap
    queries; coverage queries additionally require exactness, as
    everywhere else in :mod:`repro.analysis.regions`.
    """
    # imported here: repro.analysis.__init__ pulls in the tiler lint,
    # which imports this package — a module-level import would cycle
    from repro.analysis.regions import Box, Seg, progression_box

    counts = tiler.pattern_shape + tiler.repetition_shape
    rows = [f + p for f, p in zip(tiler.fitting, tiler.paving)]
    exact = all(
        cnt == 1 or sum(1 for c in column if c) <= 1
        for column, cnt in zip(zip(*rows), counts)
    )
    segs: list[Seg] = []
    for d, n in enumerate(tiler.array_shape):
        const = tiler.origin[d]
        contributions = list(zip(rows[d], counts))
        raw_lo = const + sum(
            min(0, c * (cnt - 1)) for c, cnt in contributions if cnt > 1
        )
        raw_hi = const + sum(
            max(0, c * (cnt - 1)) for c, cnt in contributions if cnt > 1
        )
        if raw_lo < 0 or raw_hi >= n:
            # the modulo wraps references around this dimension: the
            # touched set is a union of progressions, not one — widen
            segs.append(Seg(0, n - 1, 1))
            exact = False
            continue
        seg, seg_exact = progression_box(const, contributions)
        segs.append(seg)
        exact = exact and seg_exact
    return Box(segs=tuple(segs), exact=exact)
