"""A Gaussian draw of all zeros, to force the redraws that guard against one.

``gen_sparse``, ``measure(mode="fixed")`` and ``empirical_ric`` draw again
when a Gaussian draw holds a zero (or is all zeros): about 2**-53 a variate,
so no seed reaches those lines.  ``zero_next_normal`` makes the next
``SplitMix64.normal`` draw all zeros; the draw still takes its positions.
"""

from sparsekit.rng import SplitMix64


def zero_next_normal(monkeypatch) -> list:
    """Zero the next ``normal`` draw of any generator; returns the size of
    every ``normal`` draw from then on, in order."""
    draw = SplitMix64.normal
    sizes = []

    def normal(self, n):
        out = draw(self, n)
        if not sizes:
            out[:] = 0.0
        sizes.append(n)
        return out

    monkeypatch.setattr(SplitMix64, "normal", normal)
    return sizes
