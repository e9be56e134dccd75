"""repro — reproduction of "Hardware Trojan Detection by Delay and
Electromagnetic Measurements" (Ngo et al., DATE 2015).

The package is organised as:

* :mod:`repro.crypto` — AES-128 target cipher with round tracing,
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

Every name in ``__all__`` is resolved lazily on first access (PEP 562),
so ``import repro`` loads no subpackage and a command pays only for the
modules it uses.
"""

from importlib import import_module
from typing import Any, List

__version__ = "1.0.0"

# Public name -> defining submodule (relative to this package).
_EXPORTS = {
    "AES": ".crypto",
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
    "PlatformConfig": ".core",
    "PopulationEMDetector": ".core",
    "SameDieEMDetector": ".core",
    "available_trojans": ".trojan",
    "build_trojan": ".trojan",
    "detection_probability": ".core",
    "false_negative_rate": ".core",
    "generate_pk_pairs": ".measurement",
    "insert_trojan": ".trojan",
    "spartan3an_700": ".fpga",
    "virtex5_lx30": ".fpga",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted({*globals(), *__all__})
