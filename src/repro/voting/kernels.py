"""Vectorized voting kernels for batched fusion.

These functions operate on a whole rounds × modules float matrix at
once (NaN marks a missing reading) and back
:meth:`repro.fusion.engine.FusionEngine.process_batch`.

Bit-identity contract
---------------------
Every kernel reproduces the scalar pipeline in :mod:`repro.voting`
*bit for bit*, not merely to within tolerance:

* dense rows (no NaN) are evaluated with the same IEEE expression
  trees as the per-round functions, vectorized across rounds;
* ragged rows (with NaN) are **count-bucketed**: rows with the same
  present-count ``c`` are compacted into one dense ``buckets × c``
  submatrix and run through the same vectorized expression trees.
  Bit-identity survives the compaction because NumPy's pairwise
  summation groups operands by *axis length* — reducing a ``(B, c)``
  or ``(B, c, c)`` block along its last axis walks exactly the
  summation tree the per-round helpers walk on a length-``c`` row,
  whereas summing a NaN-masked full-width row would not (the grouping
  changes at >= 8 modules).

`collate_fast` mirrors :func:`repro.voting.collation.collate` for the
numeric methods while skipping input re-validation (batch callers
guarantee non-negative weights).

History-recurrence scans
------------------------
The history voters evolve one record per module through the clamped
recurrence ``h' = clip(step(h, s), 0, 1)``.  :func:`additive_scan`
vectorizes the additive policy across rounds inside a *segment* — a
stretch of rounds where the clamp provably never alters a value, so the
recurrence degenerates to a plain prefix sum (``np.cumsum`` accumulates
strictly sequentially, reproducing the scalar addition chain bit for
bit).  Records saturated at exactly 0 or 1 are held constant instead of
scanned, because ``clip(1 + d) == 1.0`` exactly for ``d >= 0`` (and
symmetrically at 0); a segment ends at the first round where any free
record would leave ``[0, 1]`` or any saturated record would re-enter
it.  The EMA policy multiplies the carried state every round, so no
clamp-free stretch reduces to a cumulative sum — :func:`ema_scan`
instead runs a blockwise scalar scan (Python floats walk the same IEEE
expression as the per-round NumPy update) that still amortises array
slicing and clamp checks over whole blocks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "BATCHABLE_COLLATIONS",
    "additive_scan",
    "batch_agreement_scores",
    "batch_cluster_runs",
    "batch_collate",
    "batch_dynamic_margins",
    "batch_largest_runs",
    "batch_masked_mean",
    "batch_weighted_collate",
    "collate_fast",
    "collation_function",
    "ema_scan",
    "sorted_runs",
]

#: Collation methods with a bit-identical fast path (WEIGHTED_MAJORITY
#: tallies hashable values and is handled by the plurality kernel).
BATCHABLE_COLLATIONS = ("MEAN", "MEAN_NEAREST_NEIGHBOR", "MEDIAN")

# Cap the transient (chunk, M, M) distance tensor at ~32 MB of floats.
_CHUNK_ELEMENTS = 4_000_000


def batch_dynamic_margins(
    matrix: np.ndarray,
    error: float,
    min_margin: float,
    mask: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Per-round dynamic margins, identical to :func:`dynamic_margin`.

    Rows are count-bucketed and compacted, so each reference is the
    plain ``np.median`` of the present values — the scalar helper's own
    expression (``np.nanmedian`` would detour through ``np.ma`` on
    small blocks at a fixed cost of a few hundred µs).  Rounds with
    zero present values get ``min_margin`` (the scalar helper's
    empty-input convention).
    """
    margins = np.full(matrix.shape[0], float(min_margin))
    for count, sel in _count_buckets(counts, np.flatnonzero(counts > 0)):
        compact = matrix[sel][mask[sel]].reshape(sel.size, count)
        refs = np.median(compact, axis=1)
        margins[sel] = np.maximum(np.abs(refs) * error, min_margin)
    return margins


def _count_buckets(counts: np.ndarray, selected: np.ndarray):
    """Group the ``selected`` row indices by their present-count."""
    bucket_counts = counts[selected]
    for count in np.unique(bucket_counts):
        yield int(count), selected[bucket_counts == count]


def _dense_agreement_scores(
    values: np.ndarray,
    margins: np.ndarray,
    kind: str,
    soft_threshold: float,
) -> np.ndarray:
    """Agreement scores for a dense ``rows × c`` block (c >= 2).

    Chunked so the transient ``(chunk, c, c)`` distance tensor stays
    bounded; walks the exact expression trees of
    :func:`binary_agreement_matrix` / :func:`soft_agreement_matrix` +
    :func:`agreement_scores`.
    """
    n_rows, c = values.shape
    out = np.empty((n_rows, c))
    step = max(1, _CHUNK_ELEMENTS // (c * c))
    diag = np.arange(c)
    for start in range(0, n_rows, step):
        sub = values[start : start + step]
        margin = margins[start : start + step]
        distances = np.abs(sub[:, :, None] - sub[:, None, :])
        if kind == "binary" or soft_threshold == 1:
            agreement = (distances <= margin[:, None, None]).astype(float)
        else:
            ramp = (soft_threshold - 1.0) * margin
            with np.errstate(divide="ignore", invalid="ignore"):
                agreement = np.clip(
                    (soft_threshold * margin[:, None, None] - distances)
                    / ramp[:, None, None],
                    0.0,
                    1.0,
                )
            degenerate = margin == 0
            if np.any(degenerate):
                agreement[degenerate] = (
                    distances[degenerate] <= 0.0
                ).astype(float)
        out[start : start + step] = (
            agreement.sum(axis=2) - agreement[:, diag, diag]
        ) / (c - 1)
    return out


def batch_agreement_scores(
    matrix: np.ndarray,
    margins: np.ndarray,
    kind: str,
    soft_threshold: float,
    mask: np.ndarray,
    counts: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Per-module agreement scores for the selected ``rows``.

    Returns a rounds × modules array holding each present module's
    agreement score (NaN where the module is absent or the row was not
    selected).  Dense rows run through a chunked 3-D distance tensor;
    ragged rows are count-bucketed, compacted into dense ``buckets × c``
    submatrices and run through the *same* expression trees — see the
    module docstring for why that preserves bit-identity with the
    per-round helpers.
    """
    n_rounds, n_modules = matrix.shape
    scores = np.full((n_rounds, n_modules), np.nan)

    singles = rows & (counts == 1)
    if np.any(singles):
        scores[singles[:, None] & mask] = 1.0

    if n_modules >= 2:
        dense = np.flatnonzero(rows & (counts == n_modules))
        if dense.size:
            scores[dense] = _dense_agreement_scores(
                matrix[dense], margins[dense], kind, soft_threshold
            )

        ragged = np.flatnonzero(rows & (counts >= 2) & (counts < n_modules))
        for count, sel in _count_buckets(counts, ragged):
            sub_mask = mask[sel]
            compact = matrix[sel][sub_mask].reshape(sel.size, count)
            compact_scores = _dense_agreement_scores(
                compact, margins[sel], kind, soft_threshold
            )
            scatter = np.full((sel.size, n_modules), np.nan)
            scatter[sub_mask] = compact_scores.ravel()
            scores[sel] = scatter
    return scores


def batch_collate(
    method: str,
    matrix: np.ndarray,
    mask: np.ndarray,
    counts: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Unweighted collation of each selected row (NaN elsewhere).

    Matches ``collate(method, present_values)`` exactly: MEAN divides
    by the count, MEDIAN takes the *lower* median (the element
    ``weighted_median`` selects with equal weights), and
    MEAN_NEAREST_NEIGHBOR returns the first value closest to the mean.
    """
    n_rounds, n_modules = matrix.shape
    out = np.full(n_rounds, np.nan)
    dense = rows & (counts == n_modules) & (n_modules > 0)
    ragged = rows & (counts > 0) & ~dense
    sel = np.flatnonzero(dense)
    if sel.size:
        out[sel] = _dense_collate(method, matrix[sel])
    ragged_idx = np.flatnonzero(ragged)
    for count, sel in _count_buckets(counts, ragged_idx):
        compact = matrix[sel][mask[sel]].reshape(sel.size, count)
        out[sel] = _dense_collate(method, compact)
    return out


def _dense_collate(method: str, sub: np.ndarray) -> np.ndarray:
    """Collate each row of a dense ``rows × c`` block.

    Row-parallel twins of the scalar helpers: MEAN divides by the count,
    MEDIAN partitions to the lower-median element (the one
    ``weighted_median`` selects with equal weights), and
    MEAN_NEAREST_NEIGHBOR takes the first value closest to the mean
    (``np.argmin`` returns the first minimum, like the scalar path).
    """
    c = sub.shape[1]
    if method == "MEAN":
        return sub.sum(axis=1) / float(c)
    if method == "MEDIAN":
        k = (c + 1) // 2 - 1  # lower median: ceil(c/2)-1
        return np.partition(sub, k, axis=1)[:, k]
    # MEAN_NEAREST_NEIGHBOR
    centres = sub.sum(axis=1) / float(c)
    nearest = np.argmin(np.abs(sub - centres[:, None]), axis=1)
    return sub[np.arange(sub.shape[0]), nearest]


def collation_function(method: str):
    """The per-round fast collation callable for ``method``.

    Returns a ``(values, weights) -> float`` callable so hot loops can
    hoist the method dispatch out of the per-round body.
    """
    if method == "MEAN":
        return _weighted_mean
    if method == "MEAN_NEAREST_NEIGHBOR":
        return _mean_nearest_neighbour
    if method == "MEDIAN":
        return _weighted_median
    raise ValueError(f"no fast collation for method {method!r}")


def sorted_runs(values: np.ndarray, margin: float) -> List[np.ndarray]:
    """Agreement clusters of 1-D ``values``, as arrays of indices.

    Exactly equivalent to the connected components of the binary
    agreement graph used by :func:`cluster_by_agreement`: in sorted
    order an edge can only join consecutive values, so each component
    is a maximal run whose consecutive gaps are all <= ``margin``.
    Runs are ordered largest-first with ties broken by the smallest
    original index, matching the scalar clustering helper.
    """
    order = np.argsort(values, kind="stable")
    if order.size == 0:
        return []
    sorted_values = values[order]
    splits = np.flatnonzero(np.diff(sorted_values) > margin) + 1
    runs = np.split(order, splits)
    runs.sort(key=lambda run: (-run.size, int(run.min())))
    return runs


def _weighted_mean(values: np.ndarray, weights: Optional[np.ndarray]) -> float:
    if weights is None:
        # x * 1.0 == x bitwise and sum(ones) is the exact count, so the
        # unweighted mean reduces to sum/len with identical rounding.
        return float(values.sum() / float(values.size))
    total = weights.sum()
    if total == 0:
        return float(values.mean())
    return float((values * weights).sum() / total)


def _mean_nearest_neighbour(
    values: np.ndarray, weights: Optional[np.ndarray]
) -> float:
    centre = _weighted_mean(values, weights)
    if weights is None:
        return float(values[np.argmin(np.abs(values - centre))])
    eligible = np.flatnonzero(weights > 0)
    if eligible.size == 0:
        eligible = np.arange(values.size)
    best = eligible[np.argmin(np.abs(values[eligible] - centre))]
    return float(values[best])


def _weighted_median(
    values: np.ndarray, weights: Optional[np.ndarray]
) -> float:
    if weights is None or weights.sum() == 0:
        weights = np.ones_like(values)
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    cumulative = np.cumsum(weights[order])
    cutoff = cumulative[-1] / 2.0
    idx = min(int(np.searchsorted(cumulative, cutoff)), ranked.size - 1)
    return float(ranked[idx])


def additive_scan(
    state: np.ndarray, steps: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clamped-affine scan of the additive history recurrence.

    Args:
        state: current records, shape ``(n,)``, all within ``[0, 1]``.
        steps: per-round increments, shape ``(b, n)`` (0.0 for modules
            absent that round — ``x + 0.0 == x`` bitwise).

    Returns:
        ``(befores, finals, events)`` — ``befores[i]`` is the record
        state *before* round ``i`` (so ``befores[0] == state``),
        ``finals`` the state after all ``b`` rounds, and ``events`` a
        per-round bool marking rounds whose update the clamp would
        alter.  Rows strictly before the first event are bit-identical
        to the scalar ``clip(h + step)`` chain (the clip is the identity
        there); the caller must stop committing at the first event and
        handle that round scalar.

    Records saturated at exactly 0.0 / 1.0 are held constant rather
    than accumulated: ``clip(1.0 + d) == 1.0`` exactly while ``d >= 0``
    (symmetrically at 0), so a pinned record only forces an event when
    a step would pull it back inside the open interval.  This is what
    keeps long saturated stretches — the common steady state of the
    additive policy — fully vectorized instead of breaking the segment
    every round.
    """
    b, n = steps.shape
    pinned_hi = state == 1.0
    pinned_lo = state == 0.0
    free = ~(pinned_hi | pinned_lo)
    events = np.zeros(b, dtype=bool)
    befores = np.empty((b, n))
    finals = state.copy()
    if pinned_hi.any():
        befores[:, pinned_hi] = 1.0
        events |= (steps[:, pinned_hi] < 0.0).any(axis=1)
    if pinned_lo.any():
        befores[:, pinned_lo] = 0.0
        events |= (steps[:, pinned_lo] > 0.0).any(axis=1)
    if free.any():
        # Prepending the start state makes cumsum walk the exact scalar
        # addition chain: row k is ((state + d1) + d2) + ... + dk.
        acc = np.cumsum(np.vstack([state[free], steps[:, free]]), axis=0)
        befores[:, free] = acc[:-1]
        finals[free] = acc[-1]
        events |= (acc[1:] < 0.0).any(axis=1) | (acc[1:] > 1.0).any(axis=1)
    return befores, finals, events


def ema_scan(
    state: np.ndarray,
    steps: np.ndarray,
    present: np.ndarray,
    one_minus_lr: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Blockwise scalar scan of the EMA history recurrence.

    Args:
        state: current records, shape ``(n,)``.
        steps: per-round ``learning_rate * clamped_score`` terms, shape
            ``(b, n)``.
        present: bool mask, shape ``(b, n)`` — absent modules keep
            their record untouched (``(1-lr)*h + 0 != h`` bitwise, so
            EMA genuinely skips them rather than applying a zero step).
        one_minus_lr: the precomputed ``1.0 - learning_rate`` factor.

    Returns:
        ``(befores, finals)`` like :func:`additive_scan` (no event
        column: the EMA step keeps every update inline-clamped, so all
        ``b`` rows are always valid).

    The multiplication by ``one_minus_lr`` makes the recurrence
    genuinely sequential — no prefix-sum identity applies — so this
    runs a per-module scalar loop over Python floats.  The Python
    expression ``one_minus_lr * h + step`` with an if-clamp evaluates
    the identical IEEE operations as the per-round NumPy update
    ``clip((1-lr)*records + lr*score)``, so results are bit-identical;
    the win over the per-round loop is amortising all array slicing,
    bound checks and dispatch over a whole block per module.
    """
    b, n = steps.shape
    befores = np.empty((b, n))
    finals = np.empty(n)
    for j in range(n):
        h = float(state[j])
        col_steps = steps[:, j].tolist()
        col_present = present[:, j].tolist()
        col_out = col_steps[:]  # reuse as the output scratch list
        for i in range(b):
            col_out[i] = h
            if col_present[i]:
                h = one_minus_lr * h + col_steps[i]
                if h < 0.0:
                    h = 0.0
                elif h > 1.0:
                    h = 1.0
        befores[:, j] = col_out
        finals[j] = h
    return befores, finals


def batch_largest_runs(values: np.ndarray, margins: np.ndarray) -> np.ndarray:
    """Winning agreement cluster of each row, as a bool member mask.

    Row-parallel twin of ``sorted_runs(values[i], margins[i])[0]``: for
    every row of the dense ``(B, c)`` block, marks the members of the
    largest run of margin-chained sorted values, ties broken by the
    smallest original index — exactly the scalar ordering
    ``(-run.size, run.min())``.
    """
    n_rows, c = values.shape
    if c == 1:
        return np.ones((n_rows, 1), dtype=bool)
    order = np.argsort(values, axis=1, kind="stable")
    ranked = np.take_along_axis(values, order, axis=1)
    run_id = np.zeros((n_rows, c), dtype=np.int64)
    np.cumsum(np.diff(ranked, axis=1) > margins[:, None], axis=1, out=run_id[:, 1:])
    # Tag runs globally (row r's runs live in slots [r*c, (r+1)*c)), then
    # rank each row's runs by (-size, min original index) with one
    # integer key: sizes dominate because the index term stays < c+1.
    flat_ids = (run_id + (np.arange(n_rows) * c)[:, None]).ravel()
    sizes = np.bincount(flat_ids, minlength=n_rows * c)
    min_orig = np.full(n_rows * c, c, dtype=np.int64)
    np.minimum.at(min_orig, flat_ids, order.ravel())
    keys = sizes * (c + 1) + (c - 1 - min_orig)
    best = np.argmax(keys.reshape(n_rows, c), axis=1)
    winners = np.zeros((n_rows, c), dtype=bool)
    np.put_along_axis(winners, order, run_id == best[:, None], axis=1)
    return winners


def batch_cluster_runs(
    matrix: np.ndarray,
    margins: np.ndarray,
    mask: np.ndarray,
    counts: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Full-width winning-cluster membership for each selected row.

    Count-bucketed wrapper over :func:`batch_largest_runs`: returns a
    rounds × modules bool matrix marking, for every selected row, the
    present modules that belong to the largest agreement run (False
    everywhere else).  The result doubles as a presence mask, so the
    winning values can be collated with :func:`batch_collate` using the
    winner mask in place of ``mask`` — the compaction then reproduces
    ``values[np.sort(runs[0])]`` in original module order.
    """
    n_rounds, n_modules = matrix.shape
    winners = np.zeros((n_rounds, n_modules), dtype=bool)
    selected = np.flatnonzero(rows & (counts > 0))
    for count, sel in _count_buckets(counts, selected):
        sub_mask = mask[sel]
        compact = matrix[sel][sub_mask].reshape(sel.size, count)
        won = batch_largest_runs(compact, margins[sel])
        scatter = np.zeros((sel.size, n_modules), dtype=bool)
        scatter[sub_mask] = won.ravel()
        winners[sel] = scatter
    return winners


def batch_masked_mean(
    matrix: np.ndarray,
    mask: np.ndarray,
    counts: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Mean of each selected row's present entries (NaN elsewhere).

    Count-bucketed like :func:`batch_collate`, so each row reduces with
    the same pairwise-summation grouping as ``present_values.mean()``
    on the scalar path.
    """
    n_rounds, n_modules = matrix.shape
    out = np.full(n_rounds, np.nan)
    dense = rows & (counts == n_modules) & (n_modules > 0)
    sel = np.flatnonzero(dense)
    if sel.size:
        out[sel] = matrix[sel].mean(axis=1)
    ragged_idx = np.flatnonzero(rows & (counts > 0) & ~dense)
    for count, sel in _count_buckets(counts, ragged_idx):
        compact = matrix[sel][mask[sel]].reshape(sel.size, count)
        out[sel] = compact.mean(axis=1)
    return out


def batch_weighted_collate(
    method: str,
    matrix: np.ndarray,
    weights: np.ndarray,
    mask: np.ndarray,
    counts: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Weighted collation of each selected row (NaN elsewhere).

    Row-parallel twin of ``collate_fast(method, values, weights)`` over
    the present entries of each selected row, including its degenerate
    conventions (all-zero weights fall back to the plain mean / uniform
    median / all-eligible nearest-neighbour).  Dense rows run as one
    block; ragged rows are count-bucketed like :func:`batch_collate`.
    """
    n_rounds, n_modules = matrix.shape
    out = np.full(n_rounds, np.nan)
    dense = rows & (counts == n_modules) & (n_modules > 0)
    sel = np.flatnonzero(dense)
    if sel.size:
        out[sel] = _dense_weighted_collate(method, matrix[sel], weights[sel])
    ragged_idx = np.flatnonzero(rows & (counts > 0) & ~dense)
    for count, sel in _count_buckets(counts, ragged_idx):
        sub_mask = mask[sel]
        compact = matrix[sel][sub_mask].reshape(sel.size, count)
        compact_w = weights[sel][sub_mask].reshape(sel.size, count)
        out[sel] = _dense_weighted_collate(method, compact, compact_w)
    return out


def _dense_weighted_collate(
    method: str, values: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Weighted collation of each row of a dense ``rows × c`` block.

    Walks the exact expression trees of :func:`_weighted_mean`,
    :func:`_mean_nearest_neighbour` and :func:`_weighted_median` row
    by row (axis-1 reductions of the ``(B, c)`` block reproduce the
    1-D operand grouping — see the module docstring).
    """
    n_rows, c = values.shape
    totals = weights.sum(axis=1)
    zero_total = totals == 0.0
    if method == "MEDIAN":
        # Zero-total rows vote with uniform weights, like the scalar path.
        effective = np.where(zero_total[:, None], 1.0, weights)
        order = np.argsort(values, axis=1, kind="stable")
        ranked = np.take_along_axis(values, order, axis=1)
        cumulative = np.cumsum(np.take_along_axis(effective, order, axis=1), axis=1)
        cutoff = cumulative[:, -1] / 2.0
        # Count-of-smaller equals np.searchsorted(cumulative, cutoff)
        # with side="left" on each (non-decreasing) cumulative row.
        idx = np.minimum((cumulative < cutoff[:, None]).sum(axis=1), c - 1)
        return ranked[np.arange(n_rows), idx]
    with np.errstate(invalid="ignore", divide="ignore"):
        centres = (values * weights).sum(axis=1) / totals
    if zero_total.any():
        centres[zero_total] = values[zero_total].mean(axis=1)
    if method == "MEAN":
        return centres
    # MEAN_NEAREST_NEIGHBOR: first positive-weight value closest to the
    # centre; rows with no positive weight consider every value.
    eligible = weights > 0.0
    none_eligible = ~eligible.any(axis=1)
    if none_eligible.any():
        eligible[none_eligible] = True
    distances = np.abs(values - centres[:, None])
    distances[~eligible] = np.inf
    best = np.argmin(distances, axis=1)
    return values[np.arange(n_rows), best]


def collate_fast(
    method: str,
    values: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> float:
    """Collate one round's values, bit-identical to :func:`collate`.

    ``weights=None`` means uniform weights.  Skips the defensive
    re-validation in ``collation._as_arrays``; callers must pass
    finite values and non-negative weights.
    """
    if method == "MEAN":
        return _weighted_mean(values, weights)
    if method == "MEAN_NEAREST_NEIGHBOR":
        return _mean_nearest_neighbour(values, weights)
    if method == "MEDIAN":
        return _weighted_median(values, weights)
    raise ValueError(f"no fast collation for method {method!r}")
