"""Plain-text reporting of study results.

The experiment drivers and the CLI print their results through these
helpers so that the formatting (aligned columns, percentage rendering)
stays consistent and testable.  The module imports nothing that
computes: a resumed campaign prints its table through
:func:`format_table` without loading the detection pipeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pipeline import (
        DelayStudyResult,
        PopulationEMStudyResult,
        SameDieEMStudyResult,
    )


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render an aligned plain-text table."""
    if not headers:
        raise ValueError("headers must not be empty")
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("every row must have one cell per header")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def percentage(value: float, digits: int = 1) -> str:
    """Format a fraction as a percentage string."""
    return f"{100.0 * value:.{digits}f}%"


def delay_study_report(result: DelayStudyResult) -> str:
    """Summary table of a Sec. III delay study."""
    rows: List[List[str]] = []
    for label, comparison in result.comparisons.items():
        outcome = comparison.outcome
        rows.append([
            label,
            f"{comparison.max_difference_ps:.0f} ps",
            f"{outcome.threshold:.0f} ps",
            "INFECTED" if outcome.is_infected else "clean",
            str(len(comparison.suspicious_bits())),
        ])
    table = format_table(
        ["design", "max |Delta D|", "threshold", "verdict", "suspicious bits"],
        rows,
    )
    return "Delay-based detection (Sec. III)\n" + table


def same_die_em_report(result: SameDieEMStudyResult) -> str:
    """Summary of the Sec. IV same-die EM comparison."""
    rows: List[List[str]] = []
    for label, comparison in result.comparisons.items():
        rows.append([
            label,
            f"{comparison.max_difference:.0f}",
            f"{comparison.noise_floor:.0f}",
            f"{comparison.outcome.threshold:.0f}",
            "INFECTED" if comparison.outcome.is_infected else "clean",
        ])
    table = format_table(
        ["design", "max |diff|", "noise floor", "threshold", "verdict"], rows
    )
    return "Same-die EM detection (Sec. IV)\n" + table


def population_em_report(result: PopulationEMStudyResult) -> str:
    """Summary of the Sec. V inter-die study (the headline table)."""
    rows: List[List[str]] = []
    for name, characterisation in result.characterisations.items():
        rows.append([
            name,
            percentage(result.trojan_area_fractions[name]),
            f"{characterisation.mu:.0f}",
            f"{characterisation.sigma:.0f}",
            percentage(characterisation.false_negative_rate),
            percentage(characterisation.detection_probability),
        ])
    table = format_table(
        ["trojan", "size (% AES)", "mu", "sigma", "false negative", "detection"],
        rows,
    )
    return ("Inter-die EM detection with process variations (Sec. V)\n"
            + table)
