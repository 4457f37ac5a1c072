"""Packed-word evaluator of the unary label logic.

The paper's core observation (Section III-A) is that a unary/thermometer-coded
decision tree *is* two-level logic: every root-to-leaf path is one AND cube
over unary digits and every class label is an OR of its cubes.
:class:`~repro.core.unary_tree.UnaryDecisionTree` derives and minimizes that
logic once and compiles it into *cubes*: per class, a list of
``(positive digit columns, negated digit columns)`` index pairs.  This module
is the one evaluator of those cubes, and the one place that knows the word
layout:

1. **Word packing** -- the ``(n_samples, n_digits)`` digit matrix is packed
   column-wise into ``uint64`` words
   (:func:`~repro.adc.thermometer.pack_digit_matrix`), 64 samples per word,
   LSB = lowest sample index.
2. **Evaluation** -- each cube is a chain of bitwise AND over its digit
   words (complemented for negated literals); a class fires where any of its
   cubes does (bitwise OR); padding bits of the final word are masked out.
3. **Label resolution** -- the winning label per sample is the *lowest*
   firing class, resolved first-wins in the packed domain as binary
   bit-planes; a sample that fires no class raises ``ValueError``, the same
   rule as the scalar
   :meth:`~repro.core.unary_tree.UnaryDecisionTree.predict_from_assignment`.

The hot loop touches ``n_samples / 64`` words per literal instead of
``n_samples`` bools per literal.  See ``docs/KERNELS.md`` for the layout and
tie-break semantics, and ``benchmarks/bench_inference_throughput.py`` for the
measured gain over a boolean-ndarray evaluation of the same cubes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.adc.thermometer import pack_digit_matrix, packed_tail_mask

_FULL_WORD = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

#: One AND cube of a label function: (positive columns, negated columns).
Cube = tuple[np.ndarray, np.ndarray]


def fired_words(
    cubes: Sequence[Sequence[Cube]], words: np.ndarray, n_samples: int
) -> np.ndarray:
    """``(n_classes, n_words)`` packed firing masks of every label function.

    ``cubes[label]`` lists the label's cubes; ``words`` is the packed digit
    matrix of ``n_samples`` samples.  Bit ``s % 64`` of word
    ``fired[label, s // 64]`` is set when label ``label``'s sum-of-products
    fires for sample ``s``.  Padding bits of the final word are forced to
    zero (a complemented word would otherwise leak phantom samples into the
    tail).  An empty cube is constant true.
    """
    n_words = words.shape[1]
    fired = np.zeros((len(cubes), n_words), dtype=np.uint64)
    # Two scratch word vectors, reused across every cube: the AND chains
    # and OR chains run in place on them, so the hot loop performs zero
    # allocations and no fancy-indexed gathers -- each literal is one
    # streaming binop over cache-resident words.
    cube = np.empty(n_words, dtype=np.uint64)
    folded = np.empty(n_words, dtype=np.uint64)
    for label, compiled in enumerate(cubes):
        acc_out = fired[label]
        for positive, negated in compiled:
            if positive.size:
                np.copyto(cube, words[positive[0]])
                for column in positive[1:]:
                    np.bitwise_and(cube, words[column], out=cube)
            else:  # empty/negated-only cube starts from constant true
                cube[:] = _FULL_WORD
            if negated.size:
                # De Morgan: AND of complements == complemented OR.
                np.copyto(folded, words[negated[0]])
                for column in negated[1:]:
                    np.bitwise_or(folded, words[column], out=folded)
                np.invert(folded, out=folded)
                np.bitwise_and(cube, folded, out=cube)
            np.bitwise_or(acc_out, cube, out=acc_out)
        # complemented words set the zero padding of the final word;
        # mask the tail back out so phantom samples never fire
        if n_words:
            acc_out[-1] &= packed_tail_mask(n_samples)
    return fired


def lowest_firing_labels(fired: np.ndarray, n_samples: int) -> np.ndarray:
    """Lowest firing label per sample of packed firing masks.

    Raises ``ValueError`` when any sample fires no label function
    (inconsistent with a thermometer code).
    """
    n_classes, n_words = fired.shape
    # First-wins in the packed domain == lowest firing label.  The winning
    # label index is assembled as binary bit-planes while still packed --
    # log2(n_classes) word vectors instead of one scatter per class -- and
    # unpacked once at the end.
    n_label_bits = max(1, (n_classes - 1).bit_length())
    planes = np.zeros((n_label_bits, n_words), dtype=np.uint64)
    remaining = np.full(n_words, _FULL_WORD, dtype=np.uint64)
    if n_words:
        remaining[-1] = packed_tail_mask(n_samples)
    for label in range(n_classes):
        take = fired[label] & remaining
        for bit in range(n_label_bits):
            if (label >> bit) & 1:
                planes[bit] |= take
        remaining &= ~take
    if remaining.any():
        raise ValueError(
            "no label function fired; the digit assignment is inconsistent "
            "with a thermometer code"
        )
    plane_bits = np.unpackbits(
        planes.view(np.uint8), axis=1, bitorder="little"
    )[:, :n_samples]
    if n_label_bits <= 8:  # uint8 assembly; 8 planes cover 256 classes
        labels8 = plane_bits[0]
        for bit in range(1, n_label_bits):
            labels8 = labels8 | (plane_bits[bit] << np.uint8(bit))
        return labels8.astype(np.int64)
    labels = plane_bits[0].astype(np.int64)
    for bit in range(1, n_label_bits):
        labels |= plane_bits[bit].astype(np.int64) << bit
    return labels


def predict_digit_matrix(cubes: Sequence[Sequence[Cube]], digits: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(n_samples, n_digits)`` digit matrix and evaluate it.

    Returns the lowest firing label per row (``int64``).
    """
    n_samples = digits.shape[0]
    fired = fired_words(cubes, pack_digit_matrix(digits), n_samples)
    return lowest_firing_labels(fired, n_samples)
