"""Measurement substrate: clock glitching, fault injection, delay and EM benches."""

from .. import _lazy_exports

# Public name -> defining submodule (relative to this package).
_EXPORTS = {
    "ClockGlitchGenerator": ".clock",
    "DEFAULT_GLITCH_STEP_PS": ".clock",
    "DEFAULT_GLITCH_STEPS": ".clock",
    "TimingBudget": ".clock",
    "DelayMeasurement": ".delay_meter",
    "DelayMeasurementConfig": ".delay_meter",
    "PairMeasurement": ".delay_meter",
    "PathDelayMeter": ".delay_meter",
    "PlaintextKeyPair": ".delay_meter",
    "generate_pk_pairs": ".delay_meter",
    "DeviceUnderTest": ".dut",
    "Amplifier": ".em_probe",
    "EMProbe": ".em_probe",
    "probe_impulse_response": ".em_probe",
    "EMAcquisitionConfig": ".em_simulator",
    "EMSimulator": ".em_simulator",
    "EMTrace": ".em_simulator",
    "SetupViolationFaultModel": ".fault_injection",
    "DelayNoiseModel": ".noise",
    "EMNoiseModel": ".noise",
    "Oscilloscope": ".oscilloscope",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
