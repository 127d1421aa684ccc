#ifndef TGM_BENCH_E2E_CALIBRATION_H_
#define TGM_BENCH_E2E_CALIBRATION_H_

namespace tgm::e2e {

/// Time, in seconds, the calibration loop takes at the reference speed
/// every timing is reported at: each is scaled by
/// kReferenceCalibrationSeconds / (the run's fastest calibration loop).
/// On the machine the bounds were set on, that fastest loop took 10-18 ms
/// with the machine's load. README.md says why.
inline constexpr double kReferenceCalibrationSeconds = 0.015;

/// Runs the calibration loop once and returns its wall time in seconds:
/// a sort of 200,000 fixed pseudo-random 32-bit keys in a buffer that is
/// allocated once, so the loop uses none of the library's code and does
/// no allocation while timed. It is built as a target of its own, so
/// compile options the library exports do not reach it.
double CalibrationLoopSeconds();

}  // namespace tgm::e2e

#endif  // TGM_BENCH_E2E_CALIBRATION_H_
