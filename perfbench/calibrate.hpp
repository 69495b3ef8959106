#pragma once

// Host-speed calibration.  The host this benchmark runs on is shared: a
// repetition of identical, deterministic simulator work can take up to
// 1.7x longer while neighbours load the machine, in phases lasting tens of
// seconds.  A fixed calibration kernel run between repetitions slows down
// with them; dividing by its rate cancels most of that (the two tracked
// each other with correlation 0.97 over 24-repetition windows).
//
// The kernel is a miniature discrete-event loop written here, not in the
// library: a binary-heap event queue over a 16 MiB state array with
// indirect calls, so it shares the simulator's sensitivity to cache and
// memory contention.  A change to nbctune cannot speed it up or slow it
// down, so calibrating never hides a real gain or regression.

#include <cstddef>

namespace perfbench {

/// Events per second of the calibration kernel right now, averaged over
/// `threads` copies run concurrently (about 0.1 s of work; the first call
/// at a thread count allocates the new copies' state).
double calibration_rate(int threads);

/// Bytes the kernels keep resident for the life of the process (allocated
/// once, fully written): subtracted from the process peak RSS so that
/// peak_rss_mb reports the workload alone.
std::size_t calibration_resident_bytes();

/// The rate that counts as one reference second: calibrated throughput is
/// raw throughput x kReferenceRate / calibration_rate().
inline constexpr double kReferenceRate = 3.0e6;

}  // namespace perfbench
