"""Differential fault analysis of glitched last-round ciphertexts.

The clock-glitch fault model
(:mod:`repro.measurement.fault_injection`) violates the setup condition
of the ciphertext register on the attacked round: a violated bit keeps
its *stale* value — the register content entering the last round — or
resolves randomly.  For the last AES round

    ``C[i] = SBOX[S[SHIFT_ROWS_PERM[i]]] ^ K[i]``

(``S`` the round-10 input state, ``K`` the last round key), so a key
guess ``k`` at ciphertext byte ``p`` predicts the stale byte at
register position ``SHIFT_ROWS_PERM[p]`` as ``INV_SBOX[C[p] ^ k]``.

A key guess is scored by how well its *predicted toggle set* — the
bits where the predicted stale byte differs from the correct register
byte — explains each fault's *observed* differential mask.  The two
disagreement kinds carry asymmetric weight:

* a **phantom toggle** (observed faulted bit outside the predicted
  set) is strong evidence against the guess — under the fault model
  only a metastable random resolution (~10% of violated bits) can
  toggle a bit whose stale value matches the correct one;
* a **missed toggle** (predicted toggle never observed) is weak
  evidence — a shallow glitch simply leaves fast bits uncaptured, and
  bits whose flip-flop D input the timing model never exercises
  (NaN arrival) can *never* capture stale, however deep the glitch.

Because the capturable bit set is a fixed property of the device, the
analyzer learns it from the data: missed toggles are only charged on
the **observable set** — bits seen toggling somewhere in the
population — so the true key is never punished for stale-differing
bits the measurement cannot reach.  Symmetric alternatives are
degenerate: scoring phantoms alone (the textbook masked
min-Hamming-weight locator) lets the guess predicting the complement
of the correct byte explain every fault of its stimulus, noise
included, while charging misses everywhere punishes the true key for
every partial capture and hands the minimum to whichever guess
overfits the captured subset.  Minimising the weighted disagreement
over a fault population recovers the last round key byte-by-byte, and
the per-byte fault counts localise which register bytes (and hence
which key bytes) the glitch campaign actually reached.

:func:`dfa_key_scores` evaluates all (faults x 16 positions x 256
guesses) in a few NumPy passes; its bit-identical scalar reference (one
loop per fault, position and guess) lives in ``tests/oracles/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..crypto.aes import INV_SHIFT_ROWS_PERM, SHIFT_ROWS_PERM
from ..crypto.batch import POPCOUNT_TABLE, as_block_matrix
from ..crypto.sbox import INV_SBOX
from ..crypto.state import BLOCK_BYTES

#: Inverse S-box as a gatherable uint8 LUT.
INV_SBOX_TABLE = np.array(INV_SBOX, dtype=np.uint8)

#: ShiftRows source index: ciphertext byte ``p`` is computed from
#: register (stale) byte ``SHIFT_ROWS_SOURCE[p]`` of the round input.
SHIFT_ROWS_SOURCE = np.array(SHIFT_ROWS_PERM, dtype=np.intp)

#: Inverse map: a fault observed at register byte ``i`` constrains the
#: last-round key byte at ciphertext position ``KEY_POSITION_OF_BYTE[i]``.
KEY_POSITION_OF_BYTE = np.array(INV_SHIFT_ROWS_PERM, dtype=np.intp)

#: Number of key guesses per byte position.
NUM_GUESSES = 256

#: Score weight of an observed faulted bit the guess cannot produce
#: (only metastable noise explains it — strong evidence against).
PHANTOM_TOGGLE_WEIGHT = 3

#: Score weight of a predicted stale toggle never observed (the bit
#: may simply not have violated timing — weak evidence against).
MISSED_TOGGLE_WEIGHT = 1

#: Fault axis chunk bounding the (F, 16, 256) intermediate to ~64 MB.
_SCORE_CHUNK = 16_384

#: Default evidence floor: a key byte is only reported as recovered
#: when at least this many faulted bits constrain it (a single faulted
#: bit is consistent with half the guesses).
DEFAULT_MIN_EVIDENCE_BITS = 8


def _normalise_fault_pair(correct_ciphertexts, faulted_ciphertexts
                          ) -> Tuple[np.ndarray, np.ndarray]:
    correct = as_block_matrix(correct_ciphertexts, "correct_ciphertexts")
    faulted = as_block_matrix(faulted_ciphertexts, "faulted_ciphertexts")
    if correct.shape != faulted.shape:
        raise ValueError(
            f"correct/faulted shapes disagree: {correct.shape} vs "
            f"{faulted.shape}"
        )
    return correct, faulted


def dfa_key_scores(correct_ciphertexts, faulted_ciphertexts,
                   observable_bits=None) -> np.ndarray:
    """Accumulated weighted disagreement per (position, key guess).

    Parameters
    ----------
    correct_ciphertexts, faulted_ciphertexts:
        ``(F, 16)`` uint8 matrices (or sequences of 16-byte blocks):
        the fault-free ciphertext of each encryption and the ciphertext
        captured under the glitch.  Fault-free rows contribute nothing
        (their differential mask is empty) and are tolerated.
    observable_bits:
        Optional per-register-byte uint8 bit masks (shape ``(16,)`` or
        ``(F, 16)``) restricting where missed toggles are charged —
        bits outside the mask are treated as never capturable.  Default
        ``0xFF`` everywhere (every bit observable).

    Returns
    -------
    ``(16, 256)`` int64 matrix: entry ``[p, k]`` accumulates, over the
    faults that toggled register byte ``SHIFT_ROWS_PERM[p]``,
    ``PHANTOM_TOGGLE_WEIGHT`` per observed faulted bit outside the
    toggle set guess ``k`` predicts plus ``MISSED_TOGGLE_WEIGHT`` per
    predicted *observable* toggle never observed.  The true key byte
    pays only the metastable noise and uncaptured stale bits; a wrong
    guess pays about 4 weighted bits per fault.

    One LUT gather + popcount pass per fault chunk — all 16 positions
    and all 256 guesses at once; bit-identical to the scalar per-guess
    loop.
    """
    correct, faulted = _normalise_fault_pair(correct_ciphertexts,
                                             faulted_ciphertexts)
    if observable_bits is None:
        observable = np.full(correct.shape, 0xFF, dtype=np.uint8)
    else:
        observable = np.broadcast_to(
            np.asarray(observable_bits, dtype=np.uint8), correct.shape)
    guesses = np.arange(NUM_GUESSES, dtype=np.uint8)
    scores = np.zeros((BLOCK_BYTES, NUM_GUESSES), dtype=np.int64)
    for begin in range(0, correct.shape[0], _SCORE_CHUNK):
        chunk_correct = correct[begin:begin + _SCORE_CHUNK]
        chunk_faulted = faulted[begin:begin + _SCORE_CHUNK]
        mask = chunk_correct ^ chunk_faulted  # (F, 16)
        # Predicted stale byte per (fault, position, guess).
        predicted = INV_SBOX_TABLE[
            chunk_correct[:, :, None] ^ guesses[None, None, :]
        ]
        register = chunk_correct[:, SHIFT_ROWS_SOURCE, None]
        observed_mask = mask[:, SHIFT_ROWS_SOURCE, None]
        capturable = observable[begin:begin + _SCORE_CHUNK][
            :, SHIFT_ROWS_SOURCE, None]
        predicted_mask = predicted ^ register
        active = observed_mask != 0
        phantom = POPCOUNT_TABLE[observed_mask & ~predicted_mask]
        missed = POPCOUNT_TABLE[predicted_mask & capturable & ~observed_mask]
        mismatch = (PHANTOM_TOGGLE_WEIGHT * phantom
                    + MISSED_TOGGLE_WEIGHT * missed) * active
        scores += mismatch.sum(axis=0, dtype=np.int64)
    return scores


@dataclass(frozen=True)
class RecoveredKeyByte:
    """DFA verdict for one last-round key byte position."""

    #: Ciphertext byte position of the key byte (0..15).
    position: int
    #: Register byte whose faults constrain it (``SHIFT_ROWS_PERM[p]``).
    register_byte: int
    #: Recovered value, or None when the evidence is insufficient or
    #: ambiguous.
    value: Optional[int]
    #: Number of (deduplicated) faulted encryptions touching the byte.
    num_faults: int
    #: Total faulted bits constraining the guess (the evidence).
    evidence_bits: int
    #: Distinct stimuli (correct ciphertexts) with faults at the byte.
    num_stimuli: int
    #: Best (minimum) accumulated weighted disagreement score.
    best_score: float
    #: Gap to the runner-up guess (~0 means a tie — not recoverable).
    margin: float

    @property
    def recovered(self) -> bool:
        return self.value is not None


@dataclass
class DFAResult:
    """Last-round key recovery from one faulted-ciphertext population."""

    #: The (16, 256) matrix of :func:`dfa_key_scores` over the
    #: representative captures (deepest fault per stimulus x byte),
    #: missed toggles charged inside the learned observable set.
    scores: np.ndarray
    #: Per-position verdicts, ordered by ciphertext byte position.
    bytes: List[RecoveredKeyByte] = field(default_factory=list)
    #: Distinct faulted encryptions analysed.
    num_faults: int = 0

    def recovered_bytes(self) -> Dict[int, int]:
        """``{position: value}`` of the unambiguously recovered bytes."""
        return {entry.position: entry.value for entry in self.bytes
                if entry.value is not None}

    @property
    def num_recovered(self) -> int:
        return len(self.recovered_bytes())

    def key_byte_coverage(self) -> float:
        """Fraction of the 16 last-round key bytes recovered."""
        return self.num_recovered / BLOCK_BYTES

    def matches(self, last_round_key: Sequence[int]) -> bool:
        """True if every recovered byte agrees with ``last_round_key``."""
        key = bytes(last_round_key)
        if len(key) != BLOCK_BYTES:
            raise ValueError("last_round_key must be 16 bytes")
        return all(key[position] == value
                   for position, value in self.recovered_bytes().items())


#: A fault population must cover at least this many distinct stimuli
#: before a key byte can be reported as recovered.  A single stimulus
#: leaves the verdict resting on one ciphertext's noise realisation; a
#: second stimulus makes the winner corroborate across independent
#: stale states (the wrong guesses it beat are re-drawn per stimulus,
#: the true key is not).
DEFAULT_MIN_STIMULI = 2

#: Minimum winning margin for a recovered byte: the runner-up guess
#: must trail by at least one full phantom-bit penalty, so a single
#: residual noise bit in one representative capture cannot decide the
#: verdict.
DEFAULT_MIN_MARGIN = PHANTOM_TOGGLE_WEIGHT


def recover_last_round_key(correct_ciphertexts, faulted_ciphertexts,
                           min_evidence_bits: int = DEFAULT_MIN_EVIDENCE_BITS,
                           min_stimuli: int = DEFAULT_MIN_STIMULI,
                           min_margin: int = DEFAULT_MIN_MARGIN
                           ) -> DFAResult:
    """Recover last-round key bytes from a faulted-ciphertext population.

    The population is condensed to one **representative capture** per
    (stimulus, register byte): a strict-majority bit vote over the
    *deep cluster* — the faults whose differential mask is within one
    bit of the widest observed for that stimulus and byte.  The
    deepest captures sit closest to the full capturable stale toggle
    set (a glitch grid replays the same stimulus at many depths;
    shallow points are strict subsets that would only reward guesses
    overfitting the captured fragment), and the majority vote filters
    the metastable-resolution noise, whose flips are independent per
    capture while the genuine stale toggles recur in every deep one.
    The union of the representative masks is the device's
    **observable set**, and the representatives are scored with
    :func:`dfa_key_scores` charging missed toggles only inside it —
    the true key is then phantom-free and (up to residual noise)
    miss-free on every stimulus, while a wrong guess pays on the
    representatives of every other stimulus.

    A byte is reported as recovered when its minimum-score guess wins
    by at least ``min_margin``, representative captures from at least
    ``min_stimuli`` distinct stimuli constrain it and at least
    ``min_evidence_bits`` faulted bits back it; otherwise the verdict
    carries ``value=None`` with the evidence counts, so sweep reports
    can show *why* a byte is still open (no faults at its register
    byte vs. a genuine tie).
    """
    correct, faulted = _normalise_fault_pair(correct_ciphertexts,
                                             faulted_ciphertexts)
    if min_evidence_bits < 1:
        raise ValueError("min_evidence_bits must be >= 1")
    if min_stimuli < 1:
        raise ValueError("min_stimuli must be >= 1")
    if min_margin < 1:
        raise ValueError("min_margin must be >= 1")
    if correct.shape[0]:
        _, unique_rows = np.unique(np.concatenate([correct, faulted], axis=1),
                                   axis=0, return_index=True)
        correct = correct[np.sort(unique_rows)]
        faulted = faulted[np.sort(unique_rows)]
    mask = correct ^ faulted
    mask_bits = POPCOUNT_TABLE[mask].astype(np.int64)

    # One representative (deepest) capture per (stimulus, register byte).
    if correct.shape[0]:
        stimuli, group_ids = np.unique(correct, axis=0, return_inverse=True)
    else:
        stimuli = correct.reshape(0, BLOCK_BYTES)
        group_ids = np.zeros(0, dtype=np.intp)
    representative = np.zeros_like(stimuli)
    for group in range(stimuli.shape[0]):
        rows = np.flatnonzero(group_ids == group)
        group_mask = mask[rows]
        group_bits = mask_bits[rows]
        deepest = group_bits.max(axis=0, initial=0)
        for byte in range(BLOCK_BYTES):
            if deepest[byte] == 0:
                continue
            cluster = group_mask[group_bits[:, byte] >= deepest[byte] - 1,
                                 byte]
            votes = np.unpackbits(cluster).reshape(-1, 8).sum(axis=0)
            representative[group, byte] = np.packbits(
                votes * 2 > cluster.size)[0]
    observable = (np.bitwise_or.reduce(representative, axis=0)
                  if stimuli.shape[0] else
                  np.zeros(BLOCK_BYTES, dtype=np.uint8))
    scores = dfa_key_scores(stimuli, stimuli ^ representative,
                            observable_bits=observable)
    representative_bits = POPCOUNT_TABLE[representative].astype(np.int64)

    verdicts: List[RecoveredKeyByte] = []
    for position in range(BLOCK_BYTES):
        register_byte = int(SHIFT_ROWS_SOURCE[position])
        evidence = int(representative_bits[:, register_byte].sum())
        num_faults = int(np.count_nonzero(mask[:, register_byte]))
        num_stimuli = int(
            np.count_nonzero(representative[:, register_byte]))
        row = scores[position]
        order = np.argsort(row, kind="stable")
        best = float(row[order[0]])
        margin = float(row[order[1]]) - best
        value: Optional[int] = int(order[0])
        if (evidence < min_evidence_bits or num_stimuli < min_stimuli
                or margin < min_margin):
            value = None
        verdicts.append(RecoveredKeyByte(
            position=position,
            register_byte=register_byte,
            value=value,
            num_faults=num_faults,
            evidence_bits=evidence,
            num_stimuli=num_stimuli,
            best_score=best,
            margin=margin,
        ))
    return DFAResult(scores=scores, bytes=verdicts,
                     num_faults=int(np.count_nonzero(mask.any(axis=1))))


#: Maximum fraction of observed faulted bits the best key guess may
#: leave unexplained for a population to still count as a last-round
#: stale capture.  A genuine last-round fault leaves only the
#: metastable-resolution noise unexplained (~10% of violated bits); a
#: fault in an earlier round diffuses through MixColumns and no guess
#: explains more than about half the faulted bits.
LAST_ROUND_CONSISTENCY_THRESHOLD = 0.25


@dataclass(frozen=True)
class FaultLocalisation:
    """Where a fault population landed, from ciphertext differentials."""

    #: Per-register-byte count of faulted encryptions, shape (16,).
    faults_per_byte: np.ndarray
    #: Fraction of encryptions with at least one faulted bit.
    faulted_fraction: float
    #: True when the population is consistent with a *last-round* stale
    #: capture: at every covered register byte the best key guess
    #: explains all but at most
    #: :data:`LAST_ROUND_CONSISTENCY_THRESHOLD` of the faulted bits.
    last_round_consistent: bool

    def covered_bytes(self) -> List[int]:
        """Register byte positions touched by at least one fault."""
        return [int(i) for i in np.flatnonzero(self.faults_per_byte)]


def localise_faults(correct_ciphertexts, faulted_ciphertexts
                    ) -> FaultLocalisation:
    """Localise the faulted register bytes (and round) of a population.

    The faulted *byte* positions fall straight out of the ciphertext
    differential; the *round* hypothesis is checked per covered byte by
    how well the best last-round key guess explains the observed
    faulted bits.  A setup-violation fault on the last round leaves
    stale (round-input) values, so the winning guess accounts for
    every faulted bit up to the metastable noise rate; a fault in an
    earlier round diffuses through MixColumns and leaves roughly half
    the faulted bits unexplained under *every* guess.
    """
    correct, faulted = _normalise_fault_pair(correct_ciphertexts,
                                             faulted_ciphertexts)
    mask = correct ^ faulted
    faults_per_byte = np.count_nonzero(mask, axis=0).astype(np.int64)
    faulted_rows = mask.any(axis=1)
    scores = dfa_key_scores(correct, faulted)
    consistent = bool(faulted_rows.any())
    for register_byte in np.flatnonzero(faults_per_byte):
        position = int(KEY_POSITION_OF_BYTE[register_byte])
        guess = int(np.argmin(scores[position]))
        predicted = INV_SBOX_TABLE[
            correct[:, position] ^ np.uint8(guess)
        ]
        unexplained = POPCOUNT_TABLE[
            (faulted[:, register_byte] ^ predicted)
            & mask[:, register_byte]
        ].sum()
        evidence = POPCOUNT_TABLE[mask[:, register_byte]].sum()
        if unexplained > LAST_ROUND_CONSISTENCY_THRESHOLD * evidence:
            consistent = False
            break
    total = correct.shape[0]
    return FaultLocalisation(
        faults_per_byte=faults_per_byte,
        faulted_fraction=float(faulted_rows.mean()) if total else 0.0,
        last_round_consistent=consistent,
    )
