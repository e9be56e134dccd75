"""repro — reproduction of "Hardware Trojan Detection by Delay and
Electromagnetic Measurements" (Ngo et al., DATE 2015).

The package is organised as:

* :mod:`repro.crypto` — the batched AES-128 target cipher,
* :mod:`repro.netlist` — LUT-mapped structural netlists and timing,
* :mod:`repro.fpga` — device, placement, routing and power-grid models,
* :mod:`repro.trojan` — hardware trojan catalog and insertion,
* :mod:`repro.variation` — intra-die and inter-die process variation,
* :mod:`repro.measurement` — clock-glitch delay platform and EM bench,
* :mod:`repro.analysis` — traces, local maxima, Gaussian statistics,
* :mod:`repro.core` — the detection methods and the end-to-end platform,
* :mod:`repro.experiments` — one driver per paper figure/table,
* :mod:`repro.campaigns` — declarative batched scenario sweeps,
* :mod:`repro.io` — trace and result persistence,
* :mod:`repro.store` — content-addressed artifacts (sharding/resume).

Quick start (the paper's Sec. V study, one cell of a campaign)::

    from repro.campaigns import CampaignEngine, CampaignSpec

    engine = CampaignEngine(CampaignSpec(die_counts=(8,)))
    (cell,) = engine.spec.grid()
    print(engine.population_study(cell).false_negative_rates())

The whole paper suite is one campaign too,
:func:`repro.experiments.suite_spec`: every figure driver is
``run(engine, ...)`` on one engine over it, and
``repro.experiments.run_all(suite_spec())`` runs all of them.

Every name in ``__all__`` is resolved lazily on first access (PEP 562),
so ``import repro`` loads no subpackage and a command pays only for the
modules it uses.
"""

import sys
from importlib import import_module
from typing import Any, Callable, List, Mapping, Tuple

__version__ = "1.0.0"


def _lazy_exports(package: str, exports: Mapping[str, str]
                  ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a lazy package.

    ``exports`` maps each public name to the module (relative to
    ``package``) that defines it; the module is imported on the name's
    first access and the value is cached in the package namespace, so
    importing a package that declares its names this way runs none of
    its submodules.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *namespace["__all__"]})

    return __getattr__, __dir__


# Public name -> defining submodule (relative to this package).
_EXPORTS = {
    "DelayDetector": ".core",
    "DelayFingerprint": ".core",
    "DeviceUnderTest": ".measurement",
    "DiePopulation": ".variation",
    "EMReference": ".core",
    "EMSimulator": ".measurement",
    "GoldenDesign": ".fpga",
    "HTDetectionPlatform": ".core",
    "LocalMaximaSumMetric": ".core",
    "PathDelayMeter": ".measurement",
    "PopulationEMDetector": ".core",
    "SameDieEMDetector": ".core",
    "build_trojan": ".trojan",
    "detection_probability": ".core",
    "false_negative_rate": ".core",
    "generate_pk_pairs": ".measurement",
    "insert_trojan": ".trojan",
    "virtex5_lx30": ".fpga",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
