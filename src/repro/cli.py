"""Command-line interface (``repro-ht``).

Sub-commands:

* ``trojans``    — list the trojan catalog and the measured footprints,
* ``delay``      — run the Sec. III delay study and print the verdicts,
* ``em``         — run the Sec. IV same-die EM study,
* ``headline``   — run the Sec. V inter-die study and print FN rates,
* ``experiments``— run the whole figure/table suite and print the
  paper-vs-measured summary (with ``--store DIR`` the summary rows are
  one stored record, which a rerun prints without recomputing),
* ``campaign``   — batched scenario sweeps: ``campaign run`` executes a
  (trojans x dies x acquisition variants x metrics) grid through the
  :mod:`repro.campaigns` engine (EM metrics acquire traces; ``delay_*``
  metrics run the clock-glitch delay study on the compiled timing
  kernel); ``--store DIR`` attaches a content-addressed artifact store
  (warm reruns resume with only the missing cells) and ``--shard I/N``
  runs one deterministic partition of the grid; ``campaign merge``
  fuses shard result directories back into one full-grid summary;
  ``campaign report`` prints a stored summary (a file or a shard
  directory) as ``campaign run`` printed it, quarantined cells named.
* ``store``      — artifact-store maintenance: ``store fsck`` verifies
  every stored payload against its recorded SHA-256 digest (and with
  ``--repair`` quarantines what fails), ``store gc`` sweeps orphan
  objects and stray temp files left by interrupted writes.  Both take
  the exclusive store lock, which every put holds the shared side of
  until its object and manifest entry are written, so neither sees a
  put half done (``--wait`` bounds the wait, exit code 3 when writers
  keep the store busy).
* ``attack``     — fault-injection attack campaigns: ``attack sweep``
  drives a (clock period x glitch offset x pulse width) grid over the
  die population as a ``fault_coverage`` campaign cell (shardable and
  resumable through ``--store`` exactly like ``campaign run``);
  ``attack recover`` replays the stored sweep through the DFA
  analyzer (:mod:`repro.analysis.dfa`) and prints the recovered
  last-round key bytes with their fault localisation.

Every study command accepts ``--quick`` (reduced campaign, same code
paths) and ``--seed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

from .campaigns.spec import KNOWN_METRICS
from .core.report import (
    delay_study_report,
    format_table,
    percentage,
    population_em_report,
    same_die_em_report,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .campaigns import CampaignEngine


def _suite_engine(args: argparse.Namespace) -> CampaignEngine:
    """An engine over the paper suite's campaign: ``--quick`` and
    ``--seed`` select its :func:`~repro.experiments.suite_spec`."""
    # The figure drivers load only for the study commands that use them.
    from .campaigns import CampaignEngine
    from .experiments import suite_spec

    return CampaignEngine(suite_spec(quick=args.quick, seed=args.seed))


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quick", action="store_true",
                        help="reduced campaign sizes (seconds instead of minutes)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the campaign seed")


def cmd_trojans(args: argparse.Namespace) -> int:
    from .experiments import table_ht_sizes

    table = table_ht_sizes.run(_suite_engine(args))
    rows = [[row.trojan_name, str(row.trigger_width), f"{row.lut_count:.0f}",
             str(row.slice_count), percentage(row.fraction_of_aes),
             percentage(row.fraction_of_device)]
            for row in table.rows]
    print(format_table(
        ["trojan", "trigger bits", "LUTs", "slices", "% of AES", "% of FPGA"],
        rows,
    ))
    print(f"\nAES slice budget: {table.aes_slice_count} slices "
          f"({percentage(table.aes_slice_utilisation)} of the device)")
    return 0


def cmd_delay(args: argparse.Namespace) -> int:
    engine = _suite_engine(args)
    study = engine.platform.run_delay_study(
        trojan_names=tuple(args.trojan),
        num_pairs=engine.spec.num_pk_pairs,
        pair_seed=engine.spec.pk_pair_seed(),
    )
    print(delay_study_report(study))
    return 0


def cmd_em(args: argparse.Namespace) -> int:
    study = _suite_engine(args).platform.run_same_die_em_study(
        trojan_names=tuple(args.trojan))
    print(same_die_em_report(study))
    return 0


def cmd_headline(args: argparse.Namespace) -> int:
    from .experiments import headline

    result = headline.run(_suite_engine(args))
    print(population_em_report(result.study))
    detection = result.largest_trojan_detection()
    print(f"\nLargest trojan detection probability: {percentage(detection)} "
          "(paper: > 95%)")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import suite_spec, summarise_suite
    from .store import build_store

    try:
        store = build_store(args.store)
    except ValueError as error:
        return _fail(error)
    suite = summarise_suite(suite_spec(quick=args.quick, seed=args.seed),
                            store=store)
    print(suite.summary_table())
    return 0 if suite.all_shapes_match() else 1


def _fail(message: object) -> int:
    """Report a spec or input error on one line; exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _given(**values: Any) -> Dict[str, Any]:
    """The spec-field overrides whose flags were passed (``None`` = absent)."""
    return {name: value for name, value in values.items()
            if value is not None}


def _parse_shard(text: str) -> Tuple[int, int]:
    """Parse a ``--shard I/N`` argument into ``(index, count)``."""
    match = re.fullmatch(r"(\d+)/(\d+)", text.strip())
    if not match:
        raise argparse.ArgumentTypeError(
            f"shard must look like INDEX/COUNT (e.g. 0/2), got {text!r}"
        )
    index, count = int(match.group(1)), int(match.group(2))
    if count < 1 or not 0 <= index < count:
        raise argparse.ArgumentTypeError(
            f"shard index must be in [0, count), got {text!r}"
        )
    return index, count


def _run_and_report(args: argparse.Namespace, engine: Any) -> int:
    """Run ``engine`` (its ``--shard`` only) and print the summary; exit
    status 1 for a degraded run (a quarantined cell), so scripts
    notice."""
    result = engine.run(artifact_dir=args.out, shard=args.shard)
    print(result.report())
    shard_note = (f" (shard {args.shard[0]}/{args.shard[1]} of "
                  f"{engine.spec.num_cells()})" if args.shard else "")
    print(f"\n{len(result.cells)} grid cells{shard_note} "
          f"in {result.elapsed_s:.2f} s")
    if args.out is not None:
        print(f"summary written to {args.out}")
    if args.store is not None:
        print(f"artifact store: {args.store} ({result.resumed} cell(s) "
              f"resumed)")
    return 1 if result.failed_cells() else 0


def cmd_campaign_run(args: argparse.Namespace) -> int:
    from .campaigns import AcquisitionVariant, CampaignEngine, CampaignSpec

    try:
        if args.spec is not None:
            spec = CampaignSpec.load(args.spec)
        else:
            spec = CampaignSpec(
                name=args.name,
                trojans=tuple(args.trojan or ("HT1", "HT2", "HT3")),
                die_counts=tuple(args.dies or (8,)),
                variants=(AcquisitionVariant.make("paper"),),
                metrics=tuple(args.metric or ("local_maxima_sum",)),
            )
        # replace() re-runs the spec's validation over the overrides.
        spec = dataclasses.replace(spec, **_given(
            seed=args.seed, workers=args.workers,
            num_pk_pairs=args.pk_pairs,
            delay_repetitions=args.delay_repetitions,
            num_plaintexts=args.plaintexts,
            save_traces=args.save_traces or None,
            max_retries=args.retries, cell_timeout_s=args.cell_timeout,
        ))
    except (OSError, ValueError) as error:
        return _fail(error)
    if spec.save_traces and args.out is None:
        return _fail("--save-traces needs --out DIR to write the archives to")
    try:
        engine = CampaignEngine(spec, store=args.store)
    except ValueError as error:
        return _fail(error)
    return _run_and_report(args, engine)


def _existing_store(path: str):
    """The store a maintenance command audits; :class:`ValueError` when
    ``path`` is missing or not a store directory."""
    from .store import ArtifactStore

    if not Path(path).exists():
        raise ValueError(f"store directory {path} does not exist")
    return ArtifactStore(path)


def _store_busy(error: object) -> int:
    """Report a store whose writers kept the exclusive lock; exit
    status 3."""
    print(f"store busy: {error}", file=sys.stderr)
    print("(writers hold the store lock; retry with a longer --wait)",
          file=sys.stderr)
    return 3


def cmd_store_fsck(args: argparse.Namespace) -> int:
    from .store import LockTimeout

    try:
        store = _existing_store(args.store)
    except ValueError as error:
        return _fail(error)
    try:
        report = store.fsck(repair=args.repair, wait_s=args.wait)
    except LockTimeout as error:
        return _store_busy(error)
    print(report.summary())
    if args.repair and not report.clean():
        moved = (f"; corrupt objects moved to {store.quarantine_dir}"
                 if report.corrupt else "")
        print(f"repairs applied{moved}")
    return 0 if report.clean() else 1


def cmd_store_gc(args: argparse.Namespace) -> int:
    from .store import LockTimeout

    try:
        store = _existing_store(args.store)
    except ValueError as error:
        return _fail(error)
    try:
        removed = store.gc(purge_quarantine=args.purge_quarantine,
                           wait_s=args.wait)
    except LockTimeout as error:
        return _store_busy(error)
    print(f"removed {removed['orphan_objects']} orphan object(s), "
          f"{removed['stray_tmp']} stray temp file(s), "
          f"{removed['quarantined']} quarantined object(s); "
          f"{len(store)} artifact(s) remain")
    return 0


def _is_summary(payload: Any) -> bool:
    return isinstance(payload, dict) and "spec" in payload \
        and "cells" in payload


def _load_campaign_payload(path: Path) -> dict:
    """Load one campaign summary JSON from a file or a shard directory."""
    if path.is_dir():
        candidates = []
        for json_path in sorted(path.glob("*.json")):
            try:
                payload = json.loads(json_path.read_text())
            except json.JSONDecodeError:
                continue
            if _is_summary(payload):
                candidates.append((json_path, payload))
        if not candidates:
            raise FileNotFoundError(
                f"no campaign summary JSON found in directory {path}"
            )
        if len(candidates) > 1:
            names = ", ".join(str(json_path) for json_path, _ in candidates)
            raise ValueError(
                f"multiple campaign summaries in {path} ({names}); pass the "
                "file you mean directly"
            )
        return candidates[0][1]
    payload = json.loads(path.read_text())
    if not _is_summary(payload):
        raise ValueError(f"{path} is not a campaign summary JSON")
    return payload


def cmd_campaign_merge(args: argparse.Namespace) -> int:
    from .campaigns import CampaignResult, merge_campaign_results

    try:
        results = [CampaignResult.from_dict(_load_campaign_payload(Path(p)))
                   for p in args.shards]
        merged = merge_campaign_results(results)
    except (FileNotFoundError, ValueError, KeyError) as error:
        return _fail(error)
    print(merged.report())
    print(f"\nmerged {len(results)} shard result(s) into "
          f"{len(merged.cells)} grid cells")
    if args.out is not None:
        merged.save(args.out)
        print(f"merged summary written to {args.out}")
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    """Print a stored summary as ``campaign run`` printed it; exit 1 when
    it holds a quarantined cell or no rows."""
    from .campaigns import CampaignResult

    try:
        result = CampaignResult.from_dict(
            _load_campaign_payload(Path(args.results)))
    except (OSError, ValueError, KeyError) as error:
        return _fail(error)
    print(f"campaign {result.spec.name!r} "
          f"({len(result.cells)} cells, {result.elapsed_s:.2f} s)")
    print(result.report())
    return 1 if result.failed_cells() or not result.rows() else 0


def _attack_spec(args: argparse.Namespace, **execution: Any):
    """Build the fault-sweep campaign spec shared by ``attack`` commands.

    ``attack sweep`` and ``attack recover`` must agree on every spec
    field that feeds the artifact-store keys (seed, stimuli, die count,
    glitch axes), so both build the spec here from the same flags;
    ``execution`` carries execution-only fields (``None`` = default).
    """
    from .campaigns import AcquisitionVariant, CampaignSpec

    return CampaignSpec(
        name=args.name,
        trojans=tuple(args.trojan or ("HT1",)),
        die_counts=tuple(args.dies or (3,)),
        variants=(AcquisitionVariant.make("paper"),),
        metrics=("fault_coverage",),
        num_plaintexts=args.plaintexts,
        glitch_offsets_ps=tuple(args.offset or ()),
        glitch_widths_ps=tuple(args.width or ()),
        glitch_periods_ps=tuple(args.period or ()),
        **_given(seed=args.seed, **execution),
    )


def cmd_attack_sweep(args: argparse.Namespace) -> int:
    from .campaigns import CampaignEngine

    try:
        spec = _attack_spec(args, workers=args.workers,
                            max_retries=args.retries,
                            cell_timeout_s=args.cell_timeout)
        engine = CampaignEngine(spec, store=args.store)
    except ValueError as error:
        return _fail(error)
    return _run_and_report(args, engine)


def cmd_attack_recover(args: argparse.Namespace) -> int:
    import numpy as np

    from .analysis.dfa import localise_faults
    from .attacks import recover_from_sweep
    from .campaigns import CampaignEngine
    from .crypto.keyschedule import last_round_key

    try:
        spec = _attack_spec(args)
        engine = CampaignEngine(spec, store=args.store)
    except ValueError as error:
        return _fail(error)
    cell = next(cell for cell in spec.grid()
                if cell.artifact == "fault_sweep")
    data = engine.fault_sweep_data(cell)
    grid = data.grid
    print(f"glitch grid: {len(grid.periods_ps)} period(s) x "
          f"{len(grid.offsets_ps)} offset(s) x {len(grid.widths_ps)} "
          f"width(s) = {grid.num_points} points")
    print(f"golden sweep: {data.golden_faulted.shape[0]} dies x "
          f"{grid.num_points} points x {data.correct.shape[0]} stimuli")

    flat_faulted = data.golden_faulted.reshape(-1, 16)
    flat_correct = np.broadcast_to(
        data.correct, data.golden_faulted.shape).reshape(-1, 16)
    localisation = localise_faults(flat_correct, flat_faulted)
    print(f"fault localisation: register bytes "
          f"{localisation.covered_bytes()}, faulted fraction "
          f"{percentage(localisation.faulted_fraction)}, last-round "
          f"consistent: {localisation.last_round_consistent}")

    dfa = recover_from_sweep(data.correct, data.golden_faulted,
                             min_evidence_bits=args.min_evidence)
    expected = last_round_key(spec.key)
    print(f"\nrecovered last-round key bytes "
          f"({dfa.num_recovered}/16, {dfa.num_faults} faulted captures):")
    for entry in dfa.bytes:
        if entry.value is None:
            continue
        verdict = "correct" if expected[entry.position] == entry.value \
            else "WRONG"
        print(f"  key[{entry.position:2d}] = 0x{entry.value:02X} "
              f"({verdict})  faults={entry.num_faults} "
              f"evidence={entry.evidence_bits} bits "
              f"stimuli={entry.num_stimuli} margin={entry.margin:.0f}")
    print(f"expected last-round key: {expected.hex()}")
    print(f"all recovered bytes match: {dfa.matches(expected)}")

    for name, tensor in data.infected_faulted.items():
        infected = recover_from_sweep(data.correct, tensor,
                                      min_evidence_bits=args.min_evidence)
        print(f"infected {name}: {infected.num_recovered}/16 bytes, "
              f"all match: {infected.matches(expected)}")

    return 0 if dfa.num_recovered >= 1 and dfa.matches(expected) else 1


def _add_execution_options(parser: argparse.ArgumentParser) -> None:
    """The supervised-execution flags of the commands that run cells."""
    parser.add_argument("--workers", type=int, default=None,
                        help="supervised worker processes for independent "
                             "grid cells")
    parser.add_argument("--retries", type=int, default=None,
                        help="retries per failing cell before it is "
                             "quarantined as a failed row (default 2)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        dest="cell_timeout", metavar="S",
                        help="per-cell attempt timeout in seconds "
                             "(multi-worker runs; default: no timeout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ht",
        description=("Reproduction of 'Hardware Trojan Detection by Delay and "
                     "Electromagnetic Measurements' (DATE 2015)"),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_trojans = subparsers.add_parser("trojans", help="list the trojan catalog")
    _add_common_options(p_trojans)
    p_trojans.set_defaults(func=cmd_trojans)

    p_delay = subparsers.add_parser("delay", help="run the delay study (Sec. III)")
    _add_common_options(p_delay)
    p_delay.add_argument("--trojan", action="append",
                         default=None, help="trojan name (repeatable)")
    p_delay.set_defaults(func=cmd_delay)

    p_em = subparsers.add_parser("em", help="run the same-die EM study (Sec. IV)")
    _add_common_options(p_em)
    p_em.add_argument("--trojan", action="append", default=None,
                      help="trojan name (repeatable)")
    p_em.set_defaults(func=cmd_em)

    p_headline = subparsers.add_parser(
        "headline", help="run the inter-die study (Sec. V) and print FN rates"
    )
    _add_common_options(p_headline)
    p_headline.set_defaults(func=cmd_headline)

    p_exp = subparsers.add_parser(
        "experiments", help="run the full figure/table suite"
    )
    _add_common_options(p_exp)
    p_exp.add_argument("--store", default=None,
                       help="content-addressed artifact store directory; "
                            "the summary rows are one stored record (a "
                            "rerun prints them without recomputing) and "
                            "the shared population study reads through it")
    p_exp.set_defaults(func=cmd_experiments)

    p_campaign = subparsers.add_parser(
        "campaign", help="batched scenario sweeps (trojans x dies x configs)"
    )
    campaign_sub = p_campaign.add_subparsers(dest="campaign_command",
                                             required=True)

    p_run = campaign_sub.add_parser(
        "run", help="execute a campaign grid and print the summary table"
    )
    p_run.add_argument("--spec", default=None,
                       help="JSON campaign spec (overrides the flags below)")
    p_run.add_argument("--name", default="campaign", help="campaign name")
    p_run.add_argument("--trojan", action="append", default=None,
                       help="trojan name (repeatable; default HT1 HT2 HT3)")
    p_run.add_argument("--dies", action="append", type=int, default=None,
                       help="die-population size (repeatable; default 8)")
    p_run.add_argument("--metric", action="append", default=None,
                       choices=list(KNOWN_METRICS),
                       help="detection metric (repeatable); delay_* metrics "
                            "run the clock-glitch delay study instead of an "
                            "EM acquisition")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the campaign seed")
    p_run.add_argument("--pk-pairs", type=int, default=None, dest="pk_pairs",
                       help="(P, K) stimuli per delay-study cell")
    p_run.add_argument("--delay-repetitions", type=int, default=None,
                       dest="delay_repetitions",
                       help="glitch-sweep repetitions per delay measurement")
    p_run.add_argument("--plaintexts", type=int, default=None,
                       help="EM stimulus diversity: 1 fixed plaintext "
                            "(paper), N sweeps N-1 extra random plaintexts "
                            "through the batched stimulus kernel")
    _add_execution_options(p_run)
    p_run.add_argument("--out", default=None,
                       help="directory for the JSON/CSV summary and artifacts")
    p_run.add_argument("--save-traces", action="store_true",
                       help="also archive the acquired traces (.npz) per cell")
    p_run.add_argument("--store", default=None,
                       help="content-addressed artifact store directory: "
                            "acquisitions, delay measurements and finished "
                            "cells persist there, and a rerun resumes with "
                            "only the missing cells")
    p_run.add_argument("--shard", type=_parse_shard, default=None,
                       metavar="I/N",
                       help="run only shard I of N (deterministic partition "
                            "of the grid; fuse results with campaign merge)")
    p_run.set_defaults(func=cmd_campaign_run)

    p_report = campaign_sub.add_parser(
        "report", help="pretty-print a stored campaign summary"
    )
    p_report.add_argument("results",
                          help="campaign summary JSON file (or the --out "
                               "directory holding it)")
    p_report.set_defaults(func=cmd_campaign_report)

    p_merge = campaign_sub.add_parser(
        "merge", help="fuse shard result directories into one summary"
    )
    p_merge.add_argument("shards", nargs="+",
                         help="shard result directories (or summary JSON "
                              "files) written by campaign run --shard")
    p_merge.add_argument("--out", default=None,
                         help="directory for the merged JSON/CSV summary")
    p_merge.set_defaults(func=cmd_campaign_merge)

    p_store = subparsers.add_parser(
        "store", help="artifact-store maintenance: integrity audit and GC"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    p_fsck = store_sub.add_parser(
        "fsck", help="verify every artifact's digest and index consistency"
    )
    p_fsck.add_argument("store", help="artifact store directory")
    p_fsck.add_argument("--repair", action="store_true",
                        help="quarantine corrupt objects, rebuild/drop "
                             "broken manifest entries, remove orphan "
                             "objects and sweep stray temp files")
    p_fsck.add_argument("--wait", type=float, default=None, metavar="S",
                        help="bounded wait for the exclusive store lock "
                             "(default 30 s; exit code 3 when the store "
                             "stays busy)")
    p_fsck.set_defaults(func=cmd_store_fsck)

    p_gc = store_sub.add_parser(
        "gc", help="sweep orphan objects, stray temp files and quarantine"
    )
    p_gc.add_argument("store", help="artifact store directory")
    p_gc.add_argument("--purge-quarantine", action="store_true",
                      help="also delete previously quarantined objects")
    p_gc.add_argument("--wait", type=float, default=None, metavar="S",
                      help="bounded wait for the exclusive store lock "
                           "(default 30 s; exit code 3 when the store "
                           "stays busy)")
    p_gc.set_defaults(func=cmd_store_gc)

    p_attack = subparsers.add_parser(
        "attack", help="fault-injection attacks: glitch-grid sweeps + DFA"
    )
    attack_sub = p_attack.add_subparsers(dest="attack_command", required=True)

    def _add_attack_spec_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--name", default="attack", help="campaign name")
        sub.add_argument("--trojan", action="append", default=None,
                         help="trojan name (repeatable; default HT1)")
        sub.add_argument("--dies", action="append", type=int, default=None,
                         help="die-population size (repeatable; default 3)")
        sub.add_argument("--plaintexts", type=int, default=4,
                         help="stimulus diversity: the fixed plaintext plus "
                              "N-1 seed-derived random plaintexts (DFA needs "
                              ">= 2 distinct stimuli; default 4)")
        sub.add_argument("--seed", type=int, default=None,
                         help="override the campaign seed")
        sub.add_argument("--offset", action="append", type=float,
                         default=None, metavar="PS",
                         help="glitch offset in ps (repeatable); omit all "
                              "three axes to auto-calibrate the grid on the "
                              "golden die's worst path")
        sub.add_argument("--width", action="append", type=float,
                         default=None, metavar="PS",
                         help="glitch pulse width in ps (repeatable)")
        sub.add_argument("--period", action="append", type=float,
                         default=None, metavar="PS",
                         help="nominal clock period in ps (repeatable)")
        sub.add_argument("--store", default=None,
                         help="content-addressed artifact store directory: "
                              "sweeps persist there and recover replays "
                              "them without re-synthesis")

    p_sweep = attack_sub.add_parser(
        "sweep", help="run a glitch-grid fault sweep over the die population"
    )
    _add_attack_spec_options(p_sweep)
    _add_execution_options(p_sweep)
    p_sweep.add_argument("--out", default=None,
                         help="directory for the JSON/CSV summary")
    p_sweep.add_argument("--shard", type=_parse_shard, default=None,
                         metavar="I/N",
                         help="run only shard I of N (fuse with campaign "
                              "merge)")
    p_sweep.set_defaults(func=cmd_attack_sweep)

    p_recover = attack_sub.add_parser(
        "recover", help="DFA key recovery from a (stored) fault sweep"
    )
    _add_attack_spec_options(p_recover)
    p_recover.add_argument("--min-evidence", type=int, default=8,
                           dest="min_evidence",
                           help="minimum faulted bits per key byte before "
                                "the analyzer commits to a value")
    p_recover.set_defaults(func=cmd_attack_recover)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trojan", None) is None and args.command in ("delay", "em"):
        args.trojan = ["HT_comb", "HT_seq"] if args.command == "delay" else ["HT_comb"]
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
