"""Complete-permutation counting and the ``B = 0`` contract.

``mt.maxT`` (and therefore ``pmaxT``) interprets ``B = 0`` as *perform the
complete permutations of the data*.  If the complete count exceeds the
maximum allowed limit the user is asked to explicitly request a smaller
random sample instead (paper Section 3.2, description of the ``B``
parameter).  This module computes the exact complete counts for each of the
four design families and implements that contract.

The counts are exact Python integers, so arbitrarily large designs can be
*counted*; only *enumeration* is subject to :data:`DEFAULT_COMPLETE_LIMIT`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from ..errors import CompletePermutationOverflow, DataError
from .unrank import binomial, multinomial

__all__ = [
    "DEFAULT_COMPLETE_LIMIT",
    "DesignCounts",
    "count_two_sample",
    "count_multiclass",
    "count_paired",
    "count_block",
    "complete_count",
    "resolve_permutation_count",
]

#: Default ceiling on the number of permutations a complete enumeration may
#: request.  The serial R implementation bounds complete enumeration by the
#: capacity of a C ``int``; we use the same 2**31 - 1 bound so behaviour is
#: comparable.
DEFAULT_COMPLETE_LIMIT: int = 2**31 - 1


@dataclass(frozen=True)
class DesignCounts:
    """Class-label census for a dataset.

    Attributes
    ----------
    n:
        Number of samples (columns).
    class_counts:
        Tuple of per-class sample counts ordered by class id.
    """

    n: int
    class_counts: tuple[int, ...]


def _census(classlabel) -> DesignCounts:
    labels = np.asarray(classlabel, dtype=np.int64)
    if labels.ndim != 1:
        raise DataError(f"classlabel must be 1-D, got shape {labels.shape}")
    if labels.size == 0:
        raise DataError("classlabel is empty")
    if labels.min() < 0:
        raise DataError("class labels must be non-negative integers")
    k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k)
    if (counts == 0).any():
        missing = np.nonzero(counts == 0)[0].tolist()
        raise DataError(f"class ids {missing} have no samples; labels must be dense")
    return DesignCounts(n=int(labels.size), class_counts=tuple(int(c) for c in counts))


def count_two_sample(classlabel) -> int:
    """Complete count for two-sample designs: ``C(n, n1)``."""
    census = _census(classlabel)
    if len(census.class_counts) != 2:
        raise DataError(
            f"two-sample tests need exactly 2 classes, got {len(census.class_counts)}"
        )
    return binomial(census.n, census.class_counts[1])


def count_multiclass(classlabel) -> int:
    """Complete count for k-class F designs: ``n! / prod(n_j!)``."""
    census = _census(classlabel)
    if len(census.class_counts) < 2:
        raise DataError("F-test needs at least 2 classes")
    return multinomial(census.class_counts)


def count_paired(classlabel) -> int:
    """Complete count for paired designs: ``2 ** npairs``.

    The paired layout follows ``multtest``: ``n = 2 * npairs`` samples with
    the two members of pair ``i`` adjacent (columns ``2i`` and ``2i+1``) and
    labelled ``0`` and ``1`` in some order within every pair.
    """
    census = _census(classlabel)
    labels = np.asarray(classlabel, dtype=np.int64)
    if census.n % 2 != 0:
        raise DataError(f"paired design needs an even sample count, got {census.n}")
    if len(census.class_counts) != 2 or census.class_counts[0] != census.class_counts[1]:
        raise DataError("paired design needs balanced 0/1 labels")
    pairs = labels.reshape(-1, 2)
    if not (np.sort(pairs, axis=1) == np.array([0, 1])).all():
        raise DataError(
            "paired design requires each adjacent column pair to carry labels {0,1}"
        )
    return 1 << (census.n // 2)


def count_block(classlabel) -> int:
    """Complete count for block designs: ``(k!) ** nblocks``.

    The block layout follows ``multtest``: ``n = nblocks * k`` samples, block
    ``i`` spanning columns ``i*k .. (i+1)*k - 1``, and the labels within
    every block being a permutation of ``0..k-1`` (one observation per
    treatment per block).
    """
    census = _census(classlabel)
    labels = np.asarray(classlabel, dtype=np.int64)
    k = len(census.class_counts)
    if census.n % k != 0:
        raise DataError(
            f"block design with {k} treatments needs n divisible by {k}, got {census.n}"
        )
    nblocks = census.n // k
    blocks = labels.reshape(nblocks, k)
    expected = np.arange(k)
    if not (np.sort(blocks, axis=1) == expected).all():
        raise DataError(
            "block design requires each block of k adjacent columns to contain "
            "each treatment exactly once"
        )
    return factorial(k) ** nblocks


def complete_count(test: str, classlabel) -> int:
    """Complete permutation count for the given ``test`` statistic name."""
    if test in ("t", "t.equalvar", "wilcoxon"):
        return count_two_sample(classlabel)
    if test == "f":
        return count_multiclass(classlabel)
    if test == "pairt":
        return count_paired(classlabel)
    if test == "blockf":
        return count_block(classlabel)
    raise DataError(f"unknown test statistic {test!r}")


def resolve_permutation_count(
    test: str,
    classlabel,
    B: int,
    *,
    limit: int = DEFAULT_COMPLETE_LIMIT,
) -> tuple[int, bool]:
    """Resolve the user's ``B`` into ``(B_effective, complete)``.

    Implements the ``mt.maxT`` contract:

    * ``B = 0`` requests complete enumeration.  If the complete count
      exceeds ``limit``, :class:`CompletePermutationOverflow` is raised and
      the user must request an explicit smaller ``B``.
    * ``B > 0`` requests ``B`` permutations.  If ``B`` meets or exceeds the
      complete count, ``multtest`` silently switches to the (smaller, exact)
      complete enumeration; we do the same and report ``complete=True``.

    Returns
    -------
    (int, bool)
        Effective permutation count (including the observed labelling) and
        whether complete enumeration is in effect.
    """
    if B < 0:
        raise DataError(f"B must be >= 0, got {B}")
    total = complete_count(test, classlabel)
    if B == 0:
        if total > limit:
            raise CompletePermutationOverflow(total, limit)
        return int(total), True
    if total <= min(B, limit):
        return int(total), True
    return int(B), False
